"""The per-diagram cached facts and the memoised checks against fresh computations.

Every Diagram answers id and wall lookups from maps it caches, each built
once on first read, and caches its validation report; every TangleCode
memoises its code and planarity problems.  These properties check the
memoised answers against cold recomputations on valid and deliberately
broken diagrams, the lookups against linear scans, and smith_normal_form
against the plain full-scan implementation it replaced.
"""

import random
from dataclasses import replace
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fields_only,
    plant_cancelling_pair,
    random_kirby_diagram,
    random_multipiece_diagram,
    random_relabel,
)
from msdiagram import catalog
from msdiagram.core import (
    Diagram,
    DiagramError,
    GluedCircle,
    Piece,
    SpanningSurface,
    SpherePair,
    circle_crossing_sums,
    diagram_linking,
    diagram_writhe,
    validate,
    wall_of_pair,
    with_tangle,
)
from msdiagram.equivalence import _least_walk, canonical_key
from msdiagram.invariants import smith_normal_form
from msdiagram.tangle import Crossing, Strand, TangleCode, code_problems, planarity_problems

PROPERTY = settings(max_examples=60, deadline=None)


def cold(d):
    """An equal diagram whose pieces carry equal codes, with nothing cached."""
    return Diagram(
        pieces=tuple(Piece(p.id, TangleCode(p.tangle.crossings, p.tangle.strands), p.walls)
                     for p in d.pieces),
        pairs=d.pairs, circles=d.circles, surfaces=d.surfaces, sink_count=d.sink_count,
        internal_maps=d.internal_maps, sink_incidence=d.sink_incidence,
        annotation=d.annotation)


# ---------------------------------------------------------------------------
# diagrams, valid and broken


def broken_variants(d, rng):
    """d with one structural fault each; every variant shares d's codes but
    for the piece it edits.

    Duplicates (of a piece, a pair, a circle, a wall or a crossing) are
    equal copies, not the same objects, so that a lookup returning the
    wrong one of them is seen.
    """
    p = rng.choice(d.pieces)

    def in_p(**changes):
        return replace(d, pieces=tuple(replace(x, **changes) if x is p else x for x in d.pieces))

    code = p.tangle
    out = [
        replace(d, pieces=d.pieces + (replace(p),)),
        replace(d, pieces=d.pieces + (Piece(p.id),)),
        replace(d, pairs=d.pairs + (SpherePair("Qx", (p.id, "nowall"), (p.id, "nowall2")),)),
        in_p(tangle=replace(code, strands=code.strands + (Strand("lost"),))),
    ]
    if d.pairs:
        out.append(replace(d, pairs=d.pairs + (replace(rng.choice(d.pairs)),)))
    if d.circles:
        c = rng.choice(d.circles)
        out.append(replace(d, circles=d.circles + (replace(c, framing=c.framing + 1),)))
    if d.surfaces:
        out.append(replace(d, sink_count=2))
    if p.walls:
        out.append(in_p(walls=p.walls + (replace(rng.choice(p.walls)),)))
    if code.crossings:
        out.append(in_p(tangle=replace(code, crossings=code.crossings
                                       + (replace(rng.choice(code.crossings)),))))
    return out


def diagrams():
    def build(args):
        seed, multi, plant, relabeled = args
        rng = random.Random(seed)
        d = random_multipiece_diagram(rng) if multi else random_kirby_diagram(rng)
        if plant:
            d = plant_cancelling_pair(d, rng)
        return random_relabel(d, rng) if relabeled else d

    return st.tuples(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
                     st.booleans()).map(build)


@PROPERTY
@given(diagrams(), st.integers(0, 2**32 - 1))
def test_memoised_validation_matches_fresh_run(d, seed):
    variants = [d] + broken_variants(d, random.Random(seed))
    # warm every memo first: the variants share piece codes with d
    first = [validate(v) for v in variants]
    for v, report in zip(variants, first):
        assert validate(v) is report
        fresh = validate(cold(v))
        assert report.findings == fresh.findings  # same findings, same order
        assert report.ok == fresh.ok
    assert first[0].ok
    assert not any(r.ok for r in first[1:])


def test_canonical_key_refuses_invalid_diagrams():
    # broken variants once died in the walk (a duplicated piece id, a pair on
    # missing walls) or got the valid original's key (a strand in no circle
    # was never walked), though equal keys certify isomorphic diagrams
    for seed in range(40):
        rng = random.Random(seed)
        for d in (random_kirby_diagram(rng),
                  plant_cancelling_pair(random_multipiece_diagram(rng), rng)):
            assert canonical_key(d) == _least_walk(d).text
            for v in broken_variants(d, rng):
                assert not validate(v).ok
                with pytest.raises(DiagramError, match="canonical key of an invalid diagram"):
                    canonical_key(v)


# ---------------------------------------------------------------------------
# lookups


def scan(items, key):
    for x in items:
        if x.id == key:
            return x
    raise KeyError(key)


def scan_wall(d, wall):
    for q in d.pairs:
        if q.wall_a == wall or q.wall_b == wall:
            return q
    return None


@PROPERTY
@given(diagrams(), st.integers(0, 2**32 - 1))
def test_lookups_match_linear_scans(d, seed):
    rng = random.Random(seed)
    for v in [d] + broken_variants(d, rng):
        lookups = [(v, "piece", v.pieces), (v, "pair", v.pairs),
                   (v, "circle", v.circles), (v, "surface", v.surfaces)]
        for p in v.pieces:
            lookups += [(p, "wall", p.walls), (p.tangle, "strand", p.tangle.strands),
                        (p.tangle, "crossing", p.tangle.crossings)]
        for owner, name, items in lookups:
            lookup = getattr(owner, name)
            assert getattr(owner, name) is lookup  # built on the first read only
            for x in items:
                assert lookup(x.id) is scan(items, x.id)
            with pytest.raises(KeyError):
                lookup("no-such-id")
        for p in v.pieces:
            for wid in [w.id for w in p.walls] + ["nowall"]:
                assert wall_of_pair(v, (p.id, wid)) is scan_wall(v, (p.id, wid))


def test_duplicate_ids_keep_first_match():
    p1, p2 = Piece("P"), Piece("P", TangleCode(strands=(Strand("s"),)))
    c1, c2 = GluedCircle("c", (("P", "s"),), 0), GluedCircle("c", (("P", "s"),), 1)
    f1, f2 = SpanningSurface("F"), SpanningSurface("F", genus=1)
    q1 = SpherePair("Q", ("P", "W1"), ("P", "W2"))
    q2 = SpherePair("Q", ("P", "W2"), ("P", "W3"))
    d = Diagram(pieces=(p1, p2), pairs=(q1, q2), circles=(c1, c2), surfaces=(f1, f2))
    assert d.piece("P") is p1 and d.pair("Q") is q1
    assert d.circle("c") is c1 and d.surface("F") is f1
    assert wall_of_pair(d, ("P", "W2")) is q1
    assert wall_of_pair(d, ("P", "W3")) is q2
    assert wall_of_pair(d, ("P", "W4")) is None
    s1, s2 = Strand("s"), Strand("s", start=("W", 0), end=("W", 1))
    assert TangleCode(strands=(s1, s2)).strand("s") is s1


def linking_data(d):
    """The crossing-sum table with every writhe and linking number read from it."""
    ids = [c.id for c in d.circles]
    return (circle_crossing_sums(d), [diagram_writhe(d, a) for a in ids],
            [diagram_linking(d, a, b) for a in ids for b in ids if a != b])


@PROPERTY
@given(diagrams())
def test_replaced_diagram_starts_cold(d):
    validate(d)
    p = d.piece(d.pieces[0].id)
    assert not fields_only(d)
    again = replace(d)
    assert fields_only(again)
    assert again == d and hash(again) == hash(d)
    bumped = replace(d, sink_count=d.sink_count + 1)
    assert fields_only(bumped)
    assert validate(bumped).findings == validate(cold(bumped)).findings
    if p.walls:
        p.wall(p.walls[0].id)
        assert not fields_only(p) and fields_only(replace(p))
    # the crossing-sum table is built once per diagram; a diagram made by
    # replace, with new framings or a new tangle, starts without it and
    # recomputes it
    data = linking_data(d)
    assert "_crossing_sums" in vars(d) and circle_crossing_sums(d) is data[0]
    assert data == linking_data(cold(d))
    reframed = replace(d, circles=tuple(replace(c, framing=c.framing + 1) for c in d.circles))
    assert "_crossing_sums" not in vars(reframed)
    assert linking_data(reframed) == linking_data(cold(reframed)) == data
    # every crossing of one piece switched: that piece's share of each sum
    # changes sign
    busiest = max(d.pieces, key=lambda q: len(q.tangle.crossings))
    code = busiest.tangle
    switched = with_tangle(d, busiest.id, replace(code, crossings=tuple(
        Crossing(c.id, 3 - c.over) for c in code.crossings)))
    assert "_crossing_sums" not in vars(switched)
    assert linking_data(switched) == linking_data(cold(switched))
    if len(d.pieces) == 1:
        assert circle_crossing_sums(switched) == {k: -v for k, v in data[0].items()}


@PROPERTY
@given(diagrams())
def test_planarity_memo_is_per_wall_set(d):
    for p in d.pieces:
        walls = p.wall_points()
        more = {w: n + 1 for w, n in walls.items()}
        for ws in (walls, more, {}, walls):
            fresh = TangleCode(p.tangle.crossings, p.tangle.strands)
            assert planarity_problems(p.tangle, ws) == planarity_problems(fresh, ws)


def test_memoised_findings_are_not_shared_lists():
    d = catalog.standard("cp2")
    code = d.pieces[0].tangle
    for problems in (lambda: code_problems(code),
                     lambda: planarity_problems(code, d.pieces[0].wall_points())):
        first = problems()
        first.append("scribble")
        assert problems() == []


# ---------------------------------------------------------------------------
# Smith normal form


def reference_smith_normal_form(a):
    """The full-scan implementation: every pivot search reads the whole block."""
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    diag = []
    r = c = 0
    while r < rows and c < cols:
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[c], row[j] = row[j], row[c]
        while True:
            for i in range(r + 1, rows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    for j in range(c, cols):
                        m[i][j] -= q * m[r][j]
            for j in range(c + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][c]
                    for i in range(r, rows):
                        m[i][j] -= q * m[i][c]
            col_ok = all(m[i][c] == 0 for i in range(r + 1, rows))
            row_ok = all(m[r][j] == 0 for j in range(c + 1, cols))
            if col_ok and row_ok:
                break
            best = (r, c)
            for i in range(r, rows):
                for j in range(c, cols):
                    if m[i][j] != 0 and abs(m[i][j]) < abs(m[best[0]][best[1]]):
                        best = (i, j)
            i, j = best
            m[r], m[i] = m[i], m[r]
            for row in m:
                row[c], row[j] = row[j], row[c]
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            a_, b_ = diag[k], diag[k + 1]
            if b_ % a_ != 0:
                g = gcd(a_, b_)
                diag[k], diag[k + 1] = g, a_ * b_ // g
                changed = True
    return diag


matrices = st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows)))


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_smith_normal_form_matches_full_scan(a):
    before = [row[:] for row in a]
    assert smith_normal_form(a) == reference_smith_normal_form(a)
    assert a == before
