"""The per-code index against from-scratch references built from passages().

Every TangleCode answers crossing, sign, passage and face queries from an
index it builds once.  These properties check those answers, and the
diagram-level linking data built on them, against plain recomputations on
random Kirby, multi-piece and braid-closure diagrams, with or without one
handle slide, and on their relabelings.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_kirby_diagram,
    random_multipiece_diagram,
    random_relabel,
    random_slide_band,
)
from msdiagram.calculus import RefusalError, handle_slide
from msdiagram.core import (
    Diagram,
    DiagramError,
    GluedCircle,
    Piece,
    diagram_linking,
    diagram_writhe,
    validate,
)
from msdiagram.invariants import linking_matrix
from msdiagram.tangle import (
    Crossing,
    MoveError,
    Strand,
    TangleCode,
    braid_closure,
    crossing_passages,
    crossing_sign,
    faces,
    passages,
    signed_crossing_sum,
)

PROPERTY = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# references: no index, one linear pass per question


def ref_sign(code, cid):
    ps = passages(code)[cid]
    even = [p for p in ps if p[2] % 2 == 0]
    odd = [p for p in ps if p[2] % 2 == 1]
    assert len(ps) == 2 and len(even) == 1 and len(odd) == 1
    over = next(c for c in code.crossings if c.id == cid).over
    o_in, u_in = (even[0][2], odd[0][2]) if over == 1 else (odd[0][2], even[0][2])
    return 1 if (o_in - u_in) % 4 == 3 else -1


def ref_sum(code, group_a, group_b):
    total = 0
    for c in code.crossings:
        sa, sb = (p[0] for p in passages(code)[c.id])
        if (sa in group_a and sb in group_b) or (sa in group_b and sb in group_a):
            total += ref_sign(code, c.id)
    return total


def ref_strands(d, cid):
    out = {}
    for pid, sid in d.circle(cid).strand_cycle:
        out.setdefault(pid, set()).add(sid)
    return out


def ref_linking(d, c1, c2):
    a, b = ref_strands(d, c1), ref_strands(d, c2)
    total = sum(ref_sum(d.piece(pid).tangle, a[pid], b[pid]) for pid in a if pid in b)
    assert total % 2 == 0
    return total // 2


def ref_writhe(d, cid):
    return sum(ref_sum(d.piece(pid).tangle, g, g) for pid, g in ref_strands(d, cid).items())


def fresh(code):
    """An equal code with a cold index."""
    return TangleCode(code.crossings, code.strands)


# ---------------------------------------------------------------------------
# diagrams


def braid_diagram(rng):
    """The closure of a random braid, one framed circle per component."""
    lanes = rng.randint(2, 4)
    word = [(rng.randint(1, lanes - 1), rng.choice([1, -1]))
            for _ in range(rng.randint(1, 12))]
    code = braid_closure(word, lanes)
    circles = tuple(GluedCircle(f"c{i + 1}", (("P1", s.id),), rng.randint(-2, 2))
                    for i, s in enumerate(code.strands))
    return Diagram(pieces=(Piece("P1", code),), circles=circles)


def slid(d, rng):
    """d after one random handle slide, when a band is found and accepted."""
    band = random_slide_band(d, rng)
    if band is None:
        return d
    try:
        return handle_slide(d, *band)
    except (MoveError, RefusalError):
        return d


def diagrams():
    builders = (random_kirby_diagram, random_multipiece_diagram, braid_diagram)

    def build(args):
        seed, kind, slide, relabeled = args
        rng = random.Random(seed)
        d = builders[kind](rng)
        if slide:
            d = slid(d, rng)
        assert validate(d).ok
        return random_relabel(d, rng) if relabeled else d

    return st.tuples(st.integers(0, 2**32 - 1), st.integers(0, len(builders) - 1),
                     st.booleans(), st.booleans()).map(build)


@PROPERTY
@given(diagrams())
def test_signs_and_passages_match_reference(d):
    for p in d.pieces:
        code = p.tangle
        table = passages(code)
        for c in code.crossings:
            assert code.crossing(c.id) is c
            assert crossing_sign(code, c.id) == ref_sign(code, c.id)
            even, odd = crossing_passages(code, c.id)
            assert sorted([even, odd]) == sorted(table[c.id])
            assert even[2] % 2 == 0 and odd[2] % 2 == 1


@PROPERTY
@given(diagrams())
def test_linking_data_matches_reference(d):
    ids = [c.id for c in d.circles]
    lm = linking_matrix(d)
    for i, a in enumerate(ids):
        assert lm.entries[i][i] == d.circle(a).framing
        assert diagram_writhe(d, a) == ref_writhe(d, a)
        for j, b in enumerate(ids):
            if i != j:
                assert lm.entries[i][j] == ref_linking(d, a, b)
                assert diagram_linking(d, a, b) == lm.entries[i][j]


@PROPERTY
@given(diagrams())
def test_group_sums_match_reference(d):
    for p in d.pieces:
        sids = [s.id for s in p.tangle.strands]
        for k in range(len(sids) + 1):
            a, b = frozenset(sids[:k]), frozenset(sids[k // 2:])
            assert signed_crossing_sum(p.tangle, a, b) == ref_sum(p.tangle, a, b)


@PROPERTY
@given(diagrams())
def test_faces_memo_matches_fresh_trace(d):
    for p in d.pieces:
        walls = p.wall_points()
        arcs, fs = faces(p.tangle, walls)
        assert faces(p.tangle, dict(walls)) is faces(p.tangle, walls)
        assert (arcs, fs) == faces(fresh(p.tangle), walls)
        # the faces partition the darts of the traced arcs
        darts = [dart for f in fs for dart in f]
        assert sorted(darts) == sorted((i, fwd) for i in range(len(arcs))
                                       for fwd in (True, False))


@PROPERTY
@given(diagrams(), st.integers(0, 2**32 - 1))
def test_replaced_code_gets_a_fresh_index(d, seed):
    rng = random.Random(seed)
    p = rng.choice(d.pieces)
    code = p.tangle
    before = {c.id: crossing_sign(code, c.id) for c in code.crossings}
    faces(code, p.wall_points())
    switched = replace(code, crossings=tuple(Crossing(c.id, 3 - c.over)
                                             for c in code.crossings))
    assert "_index" not in vars(switched)
    for c in switched.crossings:
        assert crossing_sign(switched, c.id) == -before[c.id] == ref_sign(switched, c.id)
    # the built index is no field: equality and hashing ignore it
    assert code == fresh(code) and hash(code) == hash(fresh(code))


# ---------------------------------------------------------------------------
# errors are those of a fresh computation


def test_unknown_crossing_raises_key_error():
    code = TangleCode((Crossing("x", 1),),
                      (Strand("a", (("x", 0),)), Strand("b", (("x", 1),))))
    for lookup in (code.crossing,
                   lambda cid: crossing_sign(code, cid),
                   lambda cid: crossing_passages(code, cid)):
        with pytest.raises(KeyError):
            lookup("nope")


def test_broken_passages_raise_move_error():
    one = TangleCode((Crossing("x", 1),), (Strand("a", (("x", 0),)),))
    same_pair = TangleCode((Crossing("x", 1),),
                           (Strand("a", (("x", 0),)), Strand("b", (("x", 2),))))
    for code, message in ((one, "has 1 passages"), (same_pair, "do not split")):
        for lookup in (crossing_sign, crossing_passages):
            with pytest.raises(MoveError, match=message):
                lookup(code, "x")
        with pytest.raises(MoveError):
            signed_crossing_sum(code, frozenset("a"), frozenset("b"))


def test_duplicate_crossing_ids_keep_first_match():
    first, second = Crossing("x", 1), Crossing("x", 2)
    assert TangleCode((first, second)).crossing("x") is first


def test_faces_error_is_not_memoised():
    code = TangleCode(strands=(Strand("a", start=("W", 0), end=("W", 1)),))
    with pytest.raises(MoveError):
        faces(code, {})
    assert faces(code, {"W": 2}) == faces(fresh(code), {"W": 2})
    with pytest.raises(MoveError):
        faces(code, {})


def test_odd_crossing_sum_is_refused():
    # one crossing between two closed strands cannot occur in a planar code,
    # but its odd sum must still be refused rather than halved
    code = TangleCode((Crossing("x", 1),),
                      (Strand("a", (("x", 0),)), Strand("b", (("x", 1),))))
    d = Diagram(pieces=(Piece("P", code),),
                circles=(GluedCircle("c1", (("P", "a"),)), GluedCircle("c2", (("P", "b"),))))
    with pytest.raises(DiagramError, match="odd crossing sum"):
        diagram_linking(d, "c1", "c2")
