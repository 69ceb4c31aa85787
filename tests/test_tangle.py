"""Tangle code basics: signs, linking, faces, Reidemeister moves."""

import pytest

from msdiagram import catalog
from msdiagram.tangle import (
    Crossing,
    MoveError,
    Strand,
    TangleCode,
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
    r1_plus,
    r2_minus,
    r2_plus,
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
