"""Tangle code basics: signs, linking, faces, Reidemeister moves."""

import random
import zlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import r1_plus, r2_plus, random_kirby_diagram, random_multipiece_diagram
from msdiagram import catalog, tangle
from msdiagram.core import Diagram, Piece, SphereWall, simplify_diagram, validate
from msdiagram.tangle import (
    Crossing,
    MoveError,
    Strand,
    TangleCode,
    apply_rmove,
    braid_closure,
    code_problems,
    crossing_sign,
    faces,
    find_r1_minus,
    find_r2_minus,
    find_r3,
    linking_number,
    planarity_problems,
    r1_minus,
    r2_minus,
    r3,
    simplify_with_log,
    writhe,
)


def hopf_code():
    # closure of a two-crossing positive braid: lk(a, b) = +1
    return TangleCode(
        crossings=(Crossing("t1", 1), Crossing("t2", 1)),
        strands=(
            Strand("a", visits=(("t1", 2), ("t2", 3))),
            Strand("b", visits=(("t1", 3), ("t2", 2))),
        ),
    )


def round_unknot(sid="u"):
    return TangleCode(strands=(Strand(sid),))


def test_hopf_signs_and_linking():
    code = hopf_code()
    assert crossing_sign(code, "t1") == 1
    assert crossing_sign(code, "t2") == 1
    assert linking_number(code, "a", "b") == 1
    assert linking_number(code, "b", "a") == 1
    assert writhe(code, "a") == 0
    assert not planarity_problems(code)


def test_hopf_mirror_links_negative():
    code = hopf_code()
    mirrored = TangleCode(
        crossings=tuple(Crossing(c.id, 2) for c in code.crossings),
        strands=code.strands,
    )
    assert linking_number(mirrored, "a", "b") == -1


def test_hopf_reversed_component_links_negative():
    code = hopf_code()
    b = code.strand("b")
    reversed_b = Strand("b", visits=tuple(
        (c, (p + 2) % 4) for c, p in reversed(b.visits)))
    flipped = TangleCode(code.crossings, (code.strand("a"), reversed_b))
    assert linking_number(flipped, "a", "b") == -1


def test_simplify_fixed_point_on_minimal_code():
    code = hopf_code()
    assert simplify_with_log(code, {})[0] == code
    assert simplify_with_log(code, {}, budget=0)[0] == code


def test_simplify_never_increases_and_preserves_links():
    import random

    from msdiagram.tangle import signed_crossing_sum

    rng = random.Random(31)
    code = hopf_code()
    for _ in range(6):
        s = rng.choice(code.strands)
        try:
            code = r1_plus(code, s.id, rng.randrange(s.arc_count()),
                           rng.choice([1, -1]))
        except MoveError:
            pass
    before = len(code.crossings)
    reduced = simplify_with_log(code, {})[0]
    assert len(reduced.crossings) <= before
    assert linking_number(reduced, "a", "b") == 1
    assert len(reduced.strands) == len(code.strands)


def test_hopf_face_count():
    code = hopf_code()
    arcs, fs = faces(code)
    assert len(arcs) == 4
    assert len(fs) == 4  # V - E + F = 2 - 4 + 4 = 2


def test_split_unlink_links_zero():
    code = TangleCode(strands=(Strand("a"), Strand("b")))
    assert linking_number(code, "a", "b") == 0


def test_kink_writhe_and_removal():
    code = round_unknot()
    kinked = r1_plus(code, "u", 0, +1)
    assert len(kinked.crossings) == 1
    assert writhe(kinked, "u") == 1
    assert not planarity_problems(kinked)
    back = r1_minus(kinked, kinked.crossings[0].id)
    assert back == code

    neg = r1_plus(code, "u", 0, -1)
    assert writhe(neg, "u") == -1


def test_figure_eight_shaped_unknot_writhe_zero():
    code = r1_plus(round_unknot(), "u", 0, +1)
    code = r1_plus(code, "u", 0, -1)
    assert len(code.crossings) == 2
    assert writhe(code, "u") == 0
    reduced = simplify_with_log(code, {})[0]
    assert reduced.crossings == ()


def test_r2_push_and_pull_identity():
    code = TangleCode(strands=(Strand("a"), Strand("b")))
    pushed = r2_plus(code, ("a", 0), ("b", 0), walls={})
    assert len(pushed.crossings) == 2
    assert linking_number(pushed, "a", "b") == 0
    assert not planarity_problems(pushed)
    x, y = (c.id for c in pushed.crossings)
    assert r2_minus(pushed, x, y, walls={}) == code


def test_r2_push_without_walls_is_planar():
    # the ports come from the shared face, whether or not walls are given
    code = catalog.hopf_tangle()
    pushed = r2_plus(code, ("S1", 0), ("S2", 0))
    assert planarity_problems(pushed, {}) == []
    assert pushed == r2_plus(code, ("S1", 0), ("S2", 0), {})


def test_r2_self_push_rejected():
    code = round_unknot()
    with pytest.raises(MoveError):
        r2_plus(code, ("u", 0), ("u", 0), walls={})


def test_doubled_r2_unknot_simplifies():
    code = TangleCode(strands=(Strand("a"), Strand("b")))
    pushed = r2_plus(code, ("a", 0), ("b", 0), walls={})
    reduced, log = simplify_with_log(pushed, {})
    assert reduced.crossings == ()
    assert len(log) == 1  # one R2- suffices


def test_r1_sites_found():
    kinked = r1_plus(round_unknot(), "u", 0, +1)
    assert find_r1_minus(kinked) == [kinked.crossings[0].id]


def test_r2_sites_found():
    code = TangleCode(strands=(Strand("a"), Strand("b")))
    pushed = r2_plus(code, ("a", 0), ("b", 0), walls={})
    assert len(find_r2_minus(pushed, {})) == 1


def test_hopf_not_r2_reducible():
    assert find_r2_minus(hopf_code(), {}) == []
    assert find_r1_minus(hopf_code()) == []


def test_move_errors():
    code = hopf_code()
    with pytest.raises(MoveError):
        r1_minus(code, "t1")
    with pytest.raises(MoveError):
        r2_minus(code, "t1", "t2", walls={})
    with pytest.raises(KeyError):
        linking_number(code, "a", "zz")


def test_r3_roundtrip():
    # braid relation site: closure of s1 s2 s1 contains one movable triangle
    code = braid_closure([(1, 1), (2, 1), (1, 1)], 3)
    tris = find_r3(code, {})
    assert tris == [("x1", "x2", "x3")]
    moved = r3(code, tris[0], {})
    assert len(moved.crossings) == 3
    assert not planarity_problems(moved, {})
    assert r3(moved, tris[0], {}) == code
    assert linking_number(moved, "s1", "s2") == linking_number(code, "s1", "s2")


def test_r3_not_available_on_alternating_trefoil():
    tref = braid_closure([(1, 1)] * 3, 2)
    assert len(tref.strands) == 1
    assert writhe(tref, "s1") == 3
    assert find_r3(tref, {}) == []


def test_braid_closure_planar():
    for word, n in ([(1, 1)] * 4, 2), ([(1, -1), (2, 1)] * 2, 3), ([(1, 1), (2, -1), (1, 1)], 3):
        code = braid_closure(word, n)
        assert code_problems(code) == []
        assert planarity_problems(code) == []


def test_unused_wall_point_is_a_move_error():
    # point 2 of W has no strand: the trace cannot turn past point 1
    code = TangleCode(strands=(Strand("a", start=("W", 0), end=("W", 1)),))
    with pytest.raises(MoveError, match=r"\('w', 'W', 2\)"):
        faces(code, {"W": 3})
    assert find_r2_minus(code, {"W": 3}) == []
    assert find_r3(code, {"W": 3}) == []
    assert simplify_with_log(code, {"W": 3}) == (code, [])
    message = "broken attachment structure: ('w', 'W', 2)"
    assert planarity_problems(code, {"W": 3}) == [message]
    d = Diagram(pieces=(Piece("P", code, (SphereWall("W", 3),)),))
    assert message in [f.message for f in validate(d).findings]


def mirrored_braid():
    """The closure of s1 s2 s1 s1 with the port order at x4 reversed: it keeps
    the R3 triangle x1 x2 x3, but is not planar, and neither is its R3 image."""
    code = braid_closure([(1, 1), (2, 1), (1, 1), (1, 1)], 3)
    return TangleCode(code.crossings, tuple(
        Strand(s.id, tuple((c, -p % 4 if c == "x4" else p) for c, p in s.visits))
        for s in code.strands))


def test_r3_without_walls_checks_planarity():
    # walls=None means no walls, as in faces: r3 checks planarity either way
    code = braid_closure([(1, 1), (2, 1), (1, 1)], 3)
    assert r3(code, ("x1", "x2", "x3")) == r3(code, ("x1", "x2", "x3"), {})
    bad = mirrored_braid()
    assert planarity_problems(bad) and find_r3(bad) == [("x1", "x2", "x3")]
    for walls in (None, {}):
        with pytest.raises(MoveError, match="breaks planarity"):
            r3(bad, ("x1", "x2", "x3"), walls)
    assert simplify_with_log(bad) == simplify_with_log(bad, {})


def braid_words():
    return st.integers(3, 4).flatmap(lambda lanes: st.tuples(
        st.lists(st.tuples(st.integers(1, lanes - 1), st.sampled_from((1, -1))),
                 min_size=3, max_size=10),
        st.just(lanes)))


@settings(max_examples=60, deadline=None)
@given(braid_words())
def test_simplify_log_replays_with_each_r3_checked(args):
    word, lanes = args
    code = braid_closure(word, lanes)
    assume(find_r3(code, {}))
    out, log = simplify_with_log(code, {})
    replay = code
    for mv in log:
        replay = apply_rmove(replay, mv, {})  # r3 checks planarity on replay
    assert replay == out
    assert not planarity_problems(out, {})


def test_simplify_checks_planarity_once_per_kept_r3(monkeypatch):
    # one plan scan per R3 round, one cold planarity check per kept R3;
    # trials that are thrown away are not checked
    code = braid_closure([(2, 1), (1, 1), (1, 1), (2, -1), (1, 1), (2, 1), (1, 1), (1, 1)], 3)
    checks, scans = [], []
    check, scan = tangle._planarity_problems, tangle._r3_plans
    monkeypatch.setattr(tangle, "_planarity_problems", lambda *a: checks.append(a) or check(*a))
    monkeypatch.setattr(tangle, "_r3_plans", lambda *a: scans.append(scan(*a)) or scans[-1])
    out, log = simplify_with_log(code, {})
    kept = sum(mv.kind == "r3" for mv in log)
    assert len(out.crossings) == 5 and kept == 2
    assert len(checks) == kept
    # kept + 1 rounds, offering 4, 3 and 0 triangles
    assert [len({tri for tri, _ in plans}) for plans in scans] == [4, 3, 0]


def test_simplify_traces_faces_once_per_r3_round(monkeypatch):
    # the same braid: greedy reads R2 bigons from the dart table and traces
    # no face, each R3 round traces the faces once for its plans and the
    # prefilter, and the trial the prefilter skips builds no code
    code = braid_closure([(2, 1), (1, 1), (1, 1), (2, -1), (1, 1), (2, 1), (1, 1), (1, 1)], 3)
    events = []
    trace, opens, swap = tangle._trace_faces, tangle._r3_opens_site, tangle._swap_visits
    monkeypatch.setattr(tangle, "_trace_faces", lambda *a: events.append("trace") or trace(*a))
    monkeypatch.setattr(tangle, "_r3_opens_site", lambda *a: events.append(opens(*a)) or events[-1])
    monkeypatch.setattr(tangle, "_swap_visits", lambda *a: events.append("swap") or swap(*a))
    out, log = simplify_with_log(code, {})
    assert [mv.kind for mv in log] == ["r3", "r2-", "r3", "r1-"]
    assert events == ["trace", False, True, "swap", True, "swap",
                      "trace", True, "swap", True, "swap",
                      "trace"]


def simplify_results():
    """simplify_with_log on 200 seeded braid closures, then simplify_diagram
    on seeds 0-299 of random_kirby_diagram and random_multipiece_diagram."""
    for seed in range(200):
        rng = random.Random(seed)
        lanes = rng.randint(2, 5)
        word = [(rng.randint(1, lanes - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(3, 16))]
        yield simplify_with_log(braid_closure(word, lanes), {})
    for gen in (random_kirby_diagram, random_multipiece_diagram):
        for seed in range(300):
            yield simplify_diagram(gen(random.Random(seed)))


def test_simplify_results_match_pinned_crc():
    # The crc32 of the reprs of all 800 (code, log) results, 55 R3 moves
    # among them.  It was first computed at commit 4b85928, where greedy
    # found R2 bigons by tracing every face and every R3 trial was swapped,
    # so the dart table and the R3 prefilter keep every result and every
    # log: 0x6cd65726.  Diagram.kind has since become a property derived
    # from the internal maps, so the diagram reprs lost their text
    # "kind=<Kind.VECTOR_FIELD: 'vector-field'>, "; the crc of the reprs of
    # commit 30b5e38 with that text removed is 0x1b2270fb.
    crc = 0
    for out in simplify_results():
        crc = zlib.crc32(repr(out).encode(), crc)
    assert crc == 0x1b2270fb
