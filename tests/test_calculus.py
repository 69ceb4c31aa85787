"""Kirby moves: blow-up/down invariance, handle slides, the recognizer."""

import random

import pytest

from msdiagram import calculus, catalog, tangle
from msdiagram import format as msd_format
from msdiagram.calculus import (
    KirbyMove,
    RefusalError,
    apply_move,
    blow_down,
    blow_up,
    handle_slide,
    recognize_s3,
)
from msdiagram.core import (
    Diagram,
    DiagramError,
    GluedCircle,
    Piece,
    SpherePair,
    SphereWall,
    diagram_linking,
    validate,
)
from msdiagram.equivalence import isomorphic
from msdiagram.format import parse, serialize
from msdiagram.invariants import (
    det,
    euler_characteristic,
    linking_matrix,
    surgered_h1,
    surgery_presentation,
)
from msdiagram.reduction import reduce_pipeline
from msdiagram.tangle import Crossing, MoveError, Strand, TangleCode, braid_closure, faces

from helpers import random_kirby_diagram, random_multipiece_diagram, random_slide_band


def unknots(framings, piece="P1"):
    strands = tuple(Strand(f"S{i + 1}") for i in range(len(framings)))
    circles = tuple(
        GluedCircle(f"c{i + 1}", ((piece, f"S{i + 1}"),), f)
        for i, f in enumerate(framings))
    return Diagram(pieces=(Piece(piece, TangleCode(strands=strands)),),
                   circles=circles, sink_count=1)


def test_blow_up_gives_cp2():
    d = blow_up(catalog.standard("s4-polar"), "P1", 0, +1)
    assert validate(d).ok
    assert isomorphic(d, catalog.standard("cp2")).yes
    assert euler_characteristic(d) == 3
    d_neg = blow_up(catalog.standard("s4-polar"), "P1", 0, -1)
    assert isomorphic(d_neg, catalog.standard("cp2-mirror")).yes


def test_blow_up_extends_linking_matrix():
    d = catalog.standard("s2xs2")
    up = blow_up(d, "P1", 0, +1)
    m = linking_matrix(up).as_list()
    assert m == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert euler_characteristic(up) == euler_characteristic(d) + 1
    assert abs(det([r[:2] for r in m[:2]])) == abs(det(linking_matrix(d).as_list()))


def test_blow_up_invalid_site():
    with pytest.raises(MoveError):
        blow_up(catalog.standard("s4-polar"), "P1", 5, +1)


def test_blow_down_cp2_empties():
    d = blow_down(catalog.standard("cp2"), "c1")
    assert validate(d).ok
    assert d.circles == ()
    assert isomorphic(d, catalog.standard("s4-polar")).yes


def test_blow_down_split_leaves_rest():
    d = unknots([1, 0])
    out = blow_down(d, "c1")
    assert [c.framing for c in out.circles] == [0]
    assert linking_matrix(out).as_list() == [[0]]
    assert out == Diagram(pieces=(Piece("P1", TangleCode(strands=(Strand("S2"),))),),
                          circles=(d.circle("c2"),), sink_count=1)


def test_blow_down_linked_once():
    # +1 unknot clasped once with a 0-framed circle: blow down -> framing -1
    d = catalog.standard("s2xs2")
    d = Diagram(pieces=d.pieces,
                circles=(GluedCircle("c1", (("P1", "S1"),), 1),
                         GluedCircle("c2", (("P1", "S2"),), 0)),
                sink_count=1)
    out = blow_down(d, "c1")
    assert validate(out).ok, validate(out).findings
    assert [c.id for c in out.circles] == ["c2"]
    assert out.circles[0].framing == -1
    assert linking_matrix(out).as_list() == [[-1]]
    # the leftover curve is an unknot again
    v = recognize_s3(out, 1)
    assert v.yes


def test_blow_down_checks_planarity_once_per_kept_r3(monkeypatch):
    # T(6,6) after a blow-up and a slide: the reduction before the blow-down
    # scans R3 plans once per round and checks planarity cold once per kept
    # R3; validating the result checks each piece once more
    code = braid_closure([(j, 1) for _ in range(6) for j in range(1, 6)], 6)
    d = Diagram(pieces=(Piece("P1", code),), sink_count=1, circles=tuple(
        GluedCircle(f"c{i + 1}", (("P1", s.id),), 1) for i, s in enumerate(code.strands)))
    arcs, fs = faces(code, {})
    up = blow_up(d, "P1", 0, 1)
    u = up.circles[-1]
    arc = arcs[fs[0][0][0]]
    c = next(x.id for x in d.circles if x.strand_cycle[0][1] == arc.strand)
    slid = handle_slide(up, c, u.id, ("P1", (arc.strand, arc.index), (u.strand_cycle[0][1], 0), 1))
    checks, scans, runs = [], [], []
    check, scan, simplify = tangle._planarity_problems, tangle._r3_plans, calculus.simplify_with_log
    monkeypatch.setattr(tangle, "_planarity_problems", lambda *a: checks.append(a) or check(*a))
    monkeypatch.setattr(tangle, "_r3_plans", lambda *a: scans.append(a) or scan(*a))
    monkeypatch.setattr(calculus, "simplify_with_log",
                        lambda *a: runs.append(simplify(*a)) or runs[-1])
    down = blow_down(slid, u.id)
    [(_, log)] = runs
    kept = sum(mv.kind == "r3" for mv in log)
    assert len(checks) == kept + len(down.pieces)
    assert len(scans) == kept + 1
    p = slid.piece("P1")
    assert len(tangle.find_r3(p.tangle, p.wall_points())) > kept  # trials were thrown away


def test_blow_down_refuses_wrong_framing():
    with pytest.raises(RefusalError):
        blow_down(unknots([0]), "c1")


def test_blow_down_refuses_surface_boundary():
    d = catalog.standard("s4-with-cancelling-pair")
    d = Diagram(pieces=d.pieces,
                circles=(GluedCircle("c1", (("P1", "S1"),), 1),),
                surfaces=d.surfaces, sink_count=1)
    with pytest.raises(RefusalError):
        blow_down(d, "c1")


def test_blow_down_matrix_formula():
    # blow-down updates L by L' = L - sign * v v^T over the other circles
    d = catalog.standard("s2xs2")
    d = Diagram(pieces=d.pieces,
                circles=(GluedCircle("c1", (("P1", "S1"),), -1),
                         GluedCircle("c2", (("P1", "S2"),), 3),),
                sink_count=1)
    before = linking_matrix(d).as_list()
    out = blow_down(d, "c1")
    after = linking_matrix(out).as_list()
    v = [before[1][0]]
    expected = [[before[1][1] - (-1) * v[0] * v[0]]]
    assert after == expected
    assert abs(det(before)) == abs(det(after))


def test_slide_split_zero_framed():
    d = unknots([0, 0])
    out = handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), 1))
    assert validate(out).ok, validate(out).findings
    assert sorted(c.id for c in out.circles) == ["c1", "c2"]
    assert out.circle("c1").framing == 0
    m = linking_matrix(out).as_list()
    assert abs(det(m)) == abs(det(linking_matrix(d).as_list()))
    assert surgered_h1(out) == surgered_h1(d)


def test_slide_framing_formula():
    d = unknots([1, 1])
    out = handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), 1))
    assert out.circle("c1").framing == 2
    # congruence E^T L E with E adding c2 to c1
    assert linking_matrix(out).as_list() == [[2, 1], [1, 1]]


def test_slide_reverse_band_formula():
    d = unknots([1, 1])
    out = handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), -1))
    assert out.circle("c1").framing == 2  # f1 + f2 - 2 lk with lk = 0
    assert linking_matrix(out).as_list() == [[2, -1], [-1, 1]]


def test_slide_then_mirror_band_restores():
    d = unknots([0, 0])
    once = handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), 1))
    s1 = [e for e in once.circle("c1").strand_cycle][0][1]
    back = handle_slide(once, "c1", "c2", ("P1", (s1, 0), ("S2", 0), -1))
    assert validate(back).ok
    assert back.circle("c1").framing == 0
    assert isomorphic(back, d).yes
    assert linking_matrix(back).as_list() == linking_matrix(d).as_list()


def test_slide_roundtrip_on_hopf():
    d = catalog.standard("s2xs2")
    once = handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), 1))
    s1 = once.circle("c1").strand_cycle[0][1]
    back = handle_slide(once, "c1", "c2", ("P1", (s1, 0), ("S2", 0), -1))
    assert isomorphic(back, d).yes


def test_blow_up_then_down_identity():
    d = catalog.standard("s2xs2")
    up = blow_up(d, "P1", 0, 1)
    created = next(c.id for c in up.circles
                   if c.id not in {x.id for x in d.circles})
    down = blow_down(up, created)
    assert isomorphic(down, d).yes


def test_slide_over_hopf_component():
    d = catalog.standard("s2xs2")
    out = handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), 1))
    assert validate(out).ok, validate(out).findings
    m = linking_matrix(out).as_list()
    # E^T L E for E = [[1,0],[1,1]] on [[0,1],[1,0]] gives [[2,1],[1,0]]
    assert m == [[2, 1], [1, 0]]
    assert surgered_h1(out) == surgered_h1(d)


def test_slide_errors():
    d = unknots([0, 0])
    with pytest.raises(MoveError):
        handle_slide(d, "c1", "c1", ("P1", ("S1", 0), ("S1", 0), 1))
    with pytest.raises(MoveError):
        handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 3), 1))


def test_slide_ignores_circles_it_does_not_touch():
    # c3 runs from wall B to wall A of an internal pair and crosses c2 once,
    # an odd crossing sum that has no linking number
    code = TangleCode((Crossing("x1", 1),), (
        Strand("S1"), Strand("S2", (("x1", 0),)), Strand("S3", (("x1", 1),), ("B", 0), ("A", 0))))
    d = Diagram(pieces=(Piece("P1", code, (SphereWall("A", 1), SphereWall("B", 1))),),
                pairs=(SpherePair("Q1", ("P1", "A"), ("P1", "B"), (0,)),),
                circles=(GluedCircle("c1", (("P1", "S1"),), 1),
                         GluedCircle("c2", (("P1", "S2"),), -1),
                         GluedCircle("c3", (("P1", "S3"),), 0)))
    assert validate(d).ok
    with pytest.raises(DiagramError, match="odd crossing sum"):
        diagram_linking(d, "c2", "c3")
    out = handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), 1))
    assert validate(out).ok
    assert out.circle("c1").framing == 0  # f1 + f2 + 2 lk(c1, c2) with lk = 0
    assert out.circle("c3") == d.circle("c3")


def test_slide_framing_matches_the_diagram_linking_number():
    # the slide reads lk(c1, c2) and the writhe of c2 from the one code c2
    # lies in; the framing it sets is f1 + f2 + 2 orient lk(c1, c2) with the
    # linking number of the whole diagram
    slid = 0
    for seed in range(60):
        rng = random.Random(seed)
        d = (random_kirby_diagram if seed % 2 else random_multipiece_diagram)(rng)
        band = random_slide_band(d, rng)
        if band is None:
            continue
        c1, c2, site = band
        try:
            out = handle_slide(d, c1, c2, site)
        except MoveError:
            continue
        framings = d.circle(c1).framing + d.circle(c2).framing
        assert out.circle(c1).framing == framings + 2 * site[3] * diagram_linking(d, c1, c2)
        slid += 1
    assert slid >= 20


def test_spherical_surgery_examples():
    pres = surgery_presentation(catalog.standard("s4-polar"))
    assert pres.circles == () and pres.pairs == ()
    assert pres.h1() == (0, ())
    assert surgery_presentation(unknots([0])).h1() == (1, ())
    assert surgery_presentation(unknots([1])).h1() == (0, ())
    assert surgery_presentation(catalog.standard("s1xs3")).sphere_count == 1


def test_recognize_single_unknots():
    for f in (1, -1):
        v = recognize_s3(unknots([f]), 1)
        assert v.yes
        assert len(v.witness) == 1
        assert v.witness[0].tag == "blow-down"


def test_recognize_no_for_zero_framed():
    v = recognize_s3(unknots([0]), 3)
    assert v.no
    assert "det" in v.witness


def test_recognize_chains():
    for k in (2, 3, 4):
        framings = [(-1) ** i for i in range(k)]
        v = recognize_s3(unknots(framings), k)
        assert v.yes
        assert len(v.witness) == k


def test_recognize_witness_replays():
    d = unknots([1, -1, 1])
    v = recognize_s3(d, 3)
    assert v.yes
    cur = d
    for mv in v.witness:
        cur = apply_move(cur, mv)
    assert cur.circles == ()


def test_every_logged_tag_replays():
    assert set(calculus._MOVES) == set(msd_format._MOVE_FIELDS)


@pytest.mark.parametrize("move, message", [
    (KirbyMove("slam-dunk", ("c1",)), "unknown move tag 'slam-dunk'"),
    (KirbyMove("blow-up", ("P1", 0)), "blow-up args are (piece, region, sign), got ('P1', 0)"),
    (KirbyMove("blow-down", ("c1", "c2")), "blow-down args are (circle), got ('c1', 'c2')"),
    (KirbyMove("merge-pieces", ()), "merge-pieces args are (pair), got ()"),
    (KirbyMove("replace-pair", ("Q1", "h1", "h2")),
     "replace-pair args are (pair, circle), got ('Q1', 'h1', 'h2')"),
])
def test_apply_move_refuses_what_no_move_takes(move, message):
    with pytest.raises(MoveError) as err:
        apply_move(unknots([1]), move)
    assert str(err.value) == message


def test_recognize_unknown_on_budget():
    # a knotted-looking +1 circle the greedy reducer cannot undo is refused
    # by blow-down; at depth 0 anything nonempty is Unknown
    v = recognize_s3(unknots([1]), 0)
    assert v.unknown and v.witness is None
    assert v.detail == "cap reached: no empty diagram within depth 0 and 6 handle slides per diagram"


def test_recognize_precondition():
    with pytest.raises(DiagramError):
        recognize_s3(catalog.standard("s1xs3"), 1)


def test_recognize_hopf_pm1():
    # Hopf link with framings 1, -1? det = -1 - 1 = ... use (1, 0): det -1,
    # blow down c1 then c2
    d = catalog.standard("s2xs2")
    d = Diagram(pieces=d.pieces,
                circles=(GluedCircle("c1", (("P1", "S1"),), 1),
                         GluedCircle("c2", (("P1", "S2"),), 0)),
                sink_count=1)
    assert abs(det(linking_matrix(d).as_list())) == 1
    v = recognize_s3(d, 2)
    assert v.yes, v.detail
    assert [m.tag for m in v.witness] == ["blow-down", "blow-down"]


@pytest.mark.parametrize("sign", [1, -1])
def test_recognize_yes_that_needs_a_handle_slide(sign):
    # a 0-framed Hopf link beside a split ±1 unknot: no blow-down applies
    # until the unknot slides over a Hopf component, so depth 3 is not enough
    code = braid_closure([(1, 1), (1, 1)], 3)
    d = Diagram(pieces=(Piece("P1", code),), circles=tuple(
        GluedCircle(f"c{i + 1}", (("P1", s.id),), f)
        for i, (s, f) in enumerate(zip(code.strands, (0, 0, sign)))))
    assert validate(d).ok
    assert recognize_s3(d, 3).unknown
    v = recognize_s3(d, 5)
    assert v.yes, v.detail
    assert [m.tag for m in v.witness] == ["handle-slide", "blow-down", "blow-down", "blow-down"]
    cur = d
    for mv in v.witness:
        cur = apply_move(cur, mv)
    assert cur.circles == ()


# ---------------------------------------------------------------------------
# moves return only valid diagrams


def dotted_plus_one():
    """The Kirby form of s1xs3 with its dotted circle framed +1: valid, as the
    annotation does not read framings."""
    text = serialize(reduce_pipeline(catalog.standard("s1xs3")))
    assert text.count("framing=0") == 1
    return parse(text.replace("framing=0", "framing=1"))


def test_moves_refuse_internal_maps():
    # each move used to return a diagram whose internal maps validate rejects
    swap = catalog.standard("swap-diffeo")
    ident = catalog.identity_diffeo(catalog.standard("cp2"))
    assert validate(swap).ok and validate(ident).ok
    refusals = [lambda: blow_up(swap, "P1", 0, 1),
                lambda: handle_slide(swap, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), 1)),
                lambda: blow_down(ident, "c1")]
    for move in refusals:
        with pytest.raises(MoveError, match="without internal maps"):
            move()


def test_blow_down_of_a_dotted_circle_is_refused():
    # the crossingless branch returned before validation: the annotation kept
    # naming the circle it had removed
    d = dotted_plus_one()
    assert validate(d).ok, validate(d).findings
    (c,) = d.circles
    with pytest.raises(RefusalError, match="blow-down broke the diagram: dotted ids"):
        blow_down(d, c.id)


def test_recognize_searches_the_framed_link_of_a_diffeomorphism():
    # the slides the search tried on swap-diffeo kept its circle map while
    # changing a framing, and linking_matrix refused the child
    swap = catalog.standard("swap-diffeo")
    link = Diagram(pieces=swap.pieces, circles=swap.circles, sink_count=swap.sink_count)
    for depth in range(4):
        assert recognize_s3(swap, depth) == recognize_s3(link, depth)
    assert recognize_s3(swap, 3).unknown
