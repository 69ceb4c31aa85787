"""Every move that adds crossings, strands or circles names them exactly.

Generated ids are a prefix plus the smallest free positive integer.  These
cases pin the full output of each id-issuing path, so a change to the id
rule, to the order new items are added in, or to the braid port convention
shows up as a changed diagram.
"""

from dataclasses import replace
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from msdiagram import catalog
from msdiagram.calculus import blow_down, blow_up, handle_slide
from msdiagram.calculus import KirbyMove
from msdiagram.core import (
    Diagram,
    FramingParallel,
    GluedCircle,
    Piece,
    SpanningSurface,
    SpherePair,
    SphereWall,
    WallCurve,
    validate,
)
from msdiagram.format import serialize
from msdiagram.reduction import merge_all, reduce_pipeline, to_kirby
from msdiagram.tangle import (
    Crossing,
    Strand,
    TangleCode,
    braid_closure,
    fresh_ids,
    r1_plus,
    r2_plus,
)


def order(d):
    """Crossing, strand and circle ids of a single-piece diagram, in tuple order."""
    code = d.pieces[0].tangle
    return (tuple(c.id for c in code.crossings), tuple(s.id for s in code.strands),
            tuple(c.id for c in d.circles))


def reversed_strand(s):
    return replace(s, visits=tuple((x, (p + 2) % 4) for x, p in reversed(s.visits)))


def test_blow_up_ids():
    d = Diagram(pieces=(Piece("P1", TangleCode(strands=(Strand("u1"),))),),
                circles=(GluedCircle("c2", (("P1", "u1"),), 0),))
    out = blow_up(blow_up(d, "P1", 0, 1), "P1", 0, -1)
    assert order(out) == ((), ("u1", "u2", "u3"), ("c2", "c1", "c3"))
    assert out.circles[1] == GluedCircle("c1", (("P1", "u2"),), 1)
    assert out.circles[2] == GluedCircle("c3", (("P1", "u3"),), -1)


def test_blow_down_twist_ids():
    # c3 encircles two lanes (s1 runs downward); its crossings already use
    # tw1..tw4, and the ids of dropped crossings stay taken
    code = braid_closure([(2, 1), (1, 1), (1, 1), (2, 1)], 3, crossing_prefix="tw")
    code = replace(code, strands=(reversed_strand(code.strands[0]),) + code.strands[1:])
    d = Diagram(pieces=(Piece("P1", code),), circles=(
        GluedCircle("c1", (("P1", "s1"),), 0), GluedCircle("c2", (("P1", "s2"),), 0),
        GluedCircle("c3", (("P1", "s3"),), 1)))
    out = blow_down(d, "c3")
    assert order(out) == (("tw5", "tw6"), ("s1", "s2"), ("c1", "c2"))
    assert serialize(out) == (
        "msd 1\n"
        "piece P1\n"
        "crossing P1.tw5 ends=s2.0.o,s1.1.i,s2.0.i,s1.1.o over=2 sign=+\n"
        "crossing P1.tw6 ends=s1.0.i,s2.1.o,s1.0.o,s2.1.i over=2 sign=+\n"
        "strand P1.s1 path=tw6:0,tw5:1 from=- to=-\n"
        "strand P1.s2 path=tw5:2,tw6:3 from=- to=-\n"
        "circle c1 strands=P1.s1 framing=-1\n"
        "circle c2 strands=P1.s2 framing=-1\n"
        "sinks 1\n")


def test_handle_slide_twist_ids():
    base = catalog.s2xs2()
    d = replace(base, circles=(base.circles[0], replace(base.circles[1], framing=2)))
    out = handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 1), 1))
    assert order(out) == (("x1", "x2", "pp1", "pp2", "tw1", "tw2", "tw3", "tw4"),
                          ("S1", "S2"), ("c1", "c2"))
    assert serialize(out) == (
        "msd 1\n"
        "piece P1\n"
        "crossing P1.pp1 ends=S1.1.o,S1.6.o,S1.1.i,S1.6.i over=1 sign=+\n"
        "crossing P1.pp2 ends=S1.7.o,S1.8.o,S1.7.i,S1.8.i over=1 sign=+\n"
        "crossing P1.tw1 ends=S2.0.o,S1.2.o,S2.0.i,S1.2.i over=1 sign=+\n"
        "crossing P1.tw2 ends=S1.3.o,S2.1.o,S1.3.i,S2.1.i over=1 sign=+\n"
        "crossing P1.tw3 ends=S2.2.o,S1.4.o,S2.2.i,S1.4.i over=1 sign=+\n"
        "crossing P1.tw4 ends=S1.5.o,S2.3.o,S1.5.i,S2.3.i over=1 sign=+\n"
        "crossing P1.x1 ends=S1.0.o,S2.4.o,S1.0.i,S2.4.i over=1 sign=+\n"
        "crossing P1.x2 ends=S2.5.o,S1.9.o,S2.5.i,S1.9.i over=1 sign=+\n"
        "strand P1.S1 path=x1:2,pp1:2,tw1:3,tw2:2,tw3:3,tw4:2,pp1:3,pp2:2,pp2:3,x2:3"
        " from=- to=-\n"
        "strand P1.S2 path=tw1:2,tw2:3,tw3:2,tw4:3,x1:3,x2:2 from=- to=-\n"
        "circle c1 strands=P1.S1 framing=4\n"
        "circle c2 strands=P1.S2 framing=2\n"
        "sinks 1\n")


def test_handle_slide_kink_ids():
    # c2 has a kink, so its pushoff crosses itself (three pp crossings per
    # self-crossing), and this band needs the half-twist kink bk
    base = catalog.s2xs2()
    kinked = replace(base.pieces[0], tangle=r1_plus(base.pieces[0].tangle, "S2", 0, 1))
    d = replace(base, pieces=(kinked,),
                circles=(base.circles[0], replace(base.circles[1], framing=-1)))
    out = handle_slide(d, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), 1))
    assert validate(out).ok
    assert order(out) == (
        ("x1", "x2", "x3", "pp1", "pp2", "pp3", "pp4", "pp5",
         "tw1", "tw2", "tw3", "tw4", "bk1"),
        ("S1", "S2"), ("c1", "c2"))
    assert serialize(out) == (
        "msd 1\n"
        "piece P1\n"
        "crossing P1.bk1 ends=S1.2.i,S1.13.o,S1.2.o,S1.13.i over=1 sign=-\n"
        "crossing P1.pp1 ends=S1.1.o,S1.12.o,S1.1.i,S1.12.i over=1 sign=+\n"
        "crossing P1.pp2 ends=S1.7.i,S2.7.i,S1.7.o,S2.7.o over=1 sign=+\n"
        "crossing P1.pp3 ends=S2.6.i,S1.10.i,S2.6.o,S1.10.o over=1 sign=+\n"
        "crossing P1.pp4 ends=S1.8.i,S1.9.i,S1.8.o,S1.9.o over=1 sign=+\n"
        "crossing P1.pp5 ends=S1.11.o,S1.14.o,S1.11.i,S1.14.i over=1 sign=+\n"
        "crossing P1.tw1 ends=S2.1.o,S1.3.o,S2.1.i,S1.3.i over=2 sign=-\n"
        "crossing P1.tw2 ends=S1.4.o,S2.2.o,S1.4.i,S2.2.i over=2 sign=-\n"
        "crossing P1.tw3 ends=S2.3.o,S1.5.o,S2.3.i,S1.5.i over=2 sign=-\n"
        "crossing P1.tw4 ends=S1.6.o,S2.4.o,S1.6.i,S2.4.i over=2 sign=-\n"
        "crossing P1.x1 ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i over=1 sign=+\n"
        "crossing P1.x2 ends=S2.9.o,S1.15.o,S2.9.i,S1.15.i over=1 sign=+\n"
        "crossing P1.x3 ends=S2.5.i,S2.8.i,S2.5.o,S2.8.o over=1 sign=+\n"
        "strand P1.S1 path=x1:2,pp1:2,bk1:0,tw1:3,tw2:2,tw3:3,tw4:2,pp2:0,pp4:0,pp4:1,"
        "pp3:1,pp5:2,pp1:3,bk1:3,pp5:3,x2:3 from=- to=-\n"
        "strand P1.S2 path=x1:3,tw1:2,tw2:3,tw3:2,tw4:3,x3:0,pp3:0,pp2:1,x3:1,x2:2"
        " from=- to=-\n"
        "circle c1 strands=P1.S1 framing=1\n"
        "circle c2 strands=P1.S2 framing=-1\n"
        "sinks 1\n")


def test_reidemeister_plus_ids():
    code = TangleCode(
        crossings=(Crossing("x1", 1), Crossing("x3", 1)),
        strands=(Strand("S1", visits=(("x1", 2), ("x3", 3))),
                 Strand("S2", visits=(("x1", 3), ("x3", 2)))))
    assert r1_plus(code, "S1", 0, 1) == TangleCode(
        crossings=(Crossing("x1", 1), Crossing("x3", 1), Crossing("x2", 1)),
        strands=(Strand("S1", visits=(("x1", 2), ("x2", 0), ("x2", 1), ("x3", 3))),
                 Strand("S2", visits=(("x1", 3), ("x3", 2)))))
    assert r2_plus(code, ("S1", 0), ("S2", 0), {}) == TangleCode(
        crossings=(Crossing("x1", 1), Crossing("x3", 1), Crossing("x2", 1),
                   Crossing("x4", 1)),
        strands=(Strand("S1", visits=(("x1", 2), ("x2", 0), ("x4", 2), ("x3", 3))),
                 Strand("S2", visits=(("x1", 3), ("x2", 3), ("x4", 3), ("x3", 2)))))


def test_braid_closure_prefixes():
    code = braid_closure([(1, 1), (2, -1), (1, 1)], 3, strand_prefix="t", crossing_prefix="k")
    assert code == TangleCode(
        crossings=(Crossing("k1", 1), Crossing("k2", 2), Crossing("k3", 1)),
        strands=(Strand("t1", visits=(("k1", 2), ("k2", 2), ("k2", 3), ("k3", 3))),
                 Strand("t2", visits=(("k1", 3), ("k3", 2)))))


def test_to_kirby_connector_and_surrogate_ids():
    # an internal pair whose matching braids the connectors; br1, hs1 and
    # h1 are already taken
    m = (2, 0, 1)
    code = TangleCode(
        crossings=(Crossing("br1", 1),),
        strands=(Strand("S1", (("br1", 1),), ("B", 2), ("A", 0)),
                 Strand("S2", (("br1", 0),), ("B", 0), ("A", 1)),
                 Strand("hs1", (), ("B", 1), ("A", 2))))
    d = Diagram(
        pieces=(Piece("P1", code, (SphereWall("A", 3), SphereWall("B", 3))),),
        pairs=(SpherePair("Q1", ("P1", "A"), ("P1", "B"), m),),
        circles=(GluedCircle("c1", (("P1", "S1"),), 0),
                 GluedCircle("h1", (("P1", "S2"),), 1),
                 GluedCircle("c3", (("P1", "hs1"),), -1)))
    assert validate(d).ok
    out = to_kirby(d)
    assert order(out) == (
        ("br1", "br2", "hd1", "hd2", "hd3", "hd4", "hd5", "hd6"),
        ("S1", "S2", "hs1", "hs2"), ("c1", "h1", "c3", "h2"))
    assert serialize(out) == (
        "msd 1\n"
        "piece P1\n"
        "crossing P1.br1 ends=S2.0.i,S1.0.i,S2.0.o,S1.0.o over=1 sign=+\n"
        "crossing P1.br2 ends=S1.3.o,S2.3.o,S1.3.i,S2.3.i over=1 sign=+\n"
        "crossing P1.hd1 ends=hs2.0.o,S1.1.o,hs2.0.i,S1.1.i over=2 sign=-\n"
        "crossing P1.hd2 ends=hs2.5.i,S1.2.o,hs2.5.o,S1.2.i over=1 sign=-\n"
        "crossing P1.hd3 ends=hs2.1.o,S2.1.o,hs2.1.i,S2.1.i over=2 sign=-\n"
        "crossing P1.hd4 ends=hs2.4.i,S2.2.o,hs2.4.o,S2.2.i over=1 sign=-\n"
        "crossing P1.hd5 ends=hs2.2.o,hs1.0.o,hs2.2.i,hs1.0.i over=2 sign=-\n"
        "crossing P1.hd6 ends=hs2.3.i,hs1.1.o,hs2.3.o,hs1.1.i over=1 sign=-\n"
        "strand P1.S1 path=br1:1,hd1:3,hd2:3,br2:2 from=- to=-\n"
        "strand P1.S2 path=br1:0,hd3:3,hd4:3,br2:3 from=- to=-\n"
        "strand P1.hs1 path=hd5:3,hd6:3 from=- to=-\n"
        "strand P1.hs2 path=hd1:2,hd3:2,hd5:2,hd6:0,hd4:0,hd2:0 from=- to=-\n"
        "circle c1 strands=P1.S1 framing=0\n"
        "circle c3 strands=P1.hs1 framing=-1\n"
        "circle h1 strands=P1.S2 framing=1\n"
        "circle h2 strands=P1.hs2 framing=0\n"
        "sinks 1\n"
        "annotation one_handles=1 three_handles=0 sinks=1 dotted=h2\n")


def test_to_kirby_reuses_a_surrogate_strand_id_freed_by_a_later_splice():
    # Q1's surrogate takes hs2, since hs1 is in use; splicing Q2 then joins
    # hs1 into S2, so Q2's surrogate takes hs1
    code = TangleCode(strands=(Strand("S1", (), ("B", 0), ("A", 0)),
                               Strand("S2", (), ("D", 0), ("D", 1)),
                               Strand("hs1", (), ("C", 1), ("C", 0))))
    walls = (SphereWall("A", 1), SphereWall("B", 1), SphereWall("C", 2), SphereWall("D", 2))
    d = Diagram(
        pieces=(Piece("P1", code, walls),),
        pairs=(SpherePair("Q1", ("P1", "A"), ("P1", "B"), (0,)),
               SpherePair("Q2", ("P1", "C"), ("P1", "D"), (0, 1))),
        circles=(GluedCircle("c1", (("P1", "S1"),), 0),
                 GluedCircle("c2", (("P1", "S2"), ("P1", "hs1")), 0)))
    assert validate(d).ok
    out = to_kirby(d)
    assert order(out) == (("hd1", "hd2", "hd3", "hd4", "hd5", "hd6"),
                          ("S1", "hs2", "S2", "hs1"), ("c1", "c2", "h1", "h2"))
    assert [c.strand_cycle for c in out.circles[2:]] == [(("P1", "hs2"),), (("P1", "hs1"),)]


def test_to_kirby_empty_pair_ids():
    out = reduce_pipeline(catalog.standard("n-s1s3(2)"))
    assert order(out) == ((), ("hs1", "hs2"), ("h1", "h2"))
    assert out.annotation.dotted == ("h1", "h2")


@settings(max_examples=100, deadline=None)
@given(st.text("abx", min_size=1, max_size=2), st.sets(st.integers(0, 30)),
       st.sets(st.text("abx0123", max_size=3)), st.integers(0, 40))
def test_fresh_ids_yield_the_smallest_free_ids(prefix, numbers, others, n):
    taken = {f"{prefix}{k}" for k in numbers} | others
    got = list(islice(fresh_ids(taken, prefix), n))
    assert not set(got) & taken
    free = [f"{prefix}{k}" for k in range(1, n + len(taken) + 1) if f"{prefix}{k}" not in taken]
    assert got == free[:n]


# splice orderings: where inserted visits land relative to each other


def test_r2_plus_on_one_closed_strand():
    # both arcs of a kink: the two inserted pairs go into one visit list
    code = r1_plus(TangleCode(strands=(Strand("S1"),)), "S1", 0, 1)
    assert code.strand("S1").visits == (("x1", 0), ("x1", 1))
    crossings = (Crossing("x1", 1), Crossing("x2", 1), Crossing("x3", 1))
    assert r2_plus(code, ("S1", 0), ("S1", 1), {}) == TangleCode(crossings, (Strand(
        "S1", (("x2", 3), ("x3", 3), ("x1", 0), ("x2", 0), ("x3", 2), ("x1", 1))),))
    assert r2_plus(code, ("S1", 1), ("S1", 0), {}) == TangleCode(crossings, (Strand(
        "S1", (("x2", 0), ("x3", 2), ("x1", 0), ("x2", 1), ("x3", 1), ("x1", 1))),))


def test_blow_down_lane_gap_wraps_to_zero():
    # s4 encircles s2 and s3; s2 also clasps s1, and its lane visits are its
    # last and first, so the twist lane enters s2 at gap 0
    code = braid_closure([(1, 1), (1, 1), (3, 1), (2, 1), (2, 1), (3, 1)], 4)
    s2 = code.strands[1]
    s2 = replace(s2, visits=s2.visits[3:] + s2.visits[:3])
    assert s2.visits == (("x5", 3), ("x1", 3), ("x2", 2), ("x4", 2))
    code = replace(code, strands=(code.strands[0], s2) + code.strands[2:])
    d = Diagram(pieces=(Piece("P1", code),), circles=tuple(
        GluedCircle(f"c{i + 1}", (("P1", f"s{i + 1}"),), 1 if i == 3 else 0)
        for i in range(4)))
    assert serialize(blow_down(d, "c4")) == (
        "msd 1\n"
        "piece P1\n"
        "crossing P1.tw1 ends=s3.0.o,s2.0.o,s3.0.i,s2.0.i over=2 sign=-\n"
        "crossing P1.tw2 ends=s2.1.o,s3.1.o,s2.1.i,s3.1.i over=2 sign=-\n"
        "crossing P1.x1 ends=s1.0.o,s2.2.o,s1.0.i,s2.2.i over=1 sign=+\n"
        "crossing P1.x2 ends=s2.3.o,s1.1.o,s2.3.i,s1.1.i over=1 sign=+\n"
        "strand P1.s1 path=x1:2,x2:3 from=- to=-\n"
        "strand P1.s2 path=tw1:3,tw2:2,x1:3,x2:2 from=- to=-\n"
        "strand P1.s3 path=tw1:2,tw2:3 from=- to=-\n"
        "circle c1 strands=P1.s1 framing=0\n"
        "circle c2 strands=P1.s2 framing=-1\n"
        "circle c3 strands=P1.s3 framing=-1\n"
        "sinks 1\n")


def test_handle_slide_pushoff_and_parallel_share_a_gap():
    # S1 crosses c2, so the pushoff adds a visit to S1 on each side of the
    # band's gap: the one after the previous visit, then the parallel, then
    # the one before the next visit
    base = catalog.s2xs2()
    out = handle_slide(base, "c1", "c2", ("P1", ("S1", 0), ("S2", 0), 1))
    assert serialize(out) == (
        "msd 1\n"
        "piece P1\n"
        "crossing P1.bk1 ends=S1.2.i,S1.5.o,S1.2.o,S1.5.i over=1 sign=-\n"
        "crossing P1.pp1 ends=S1.1.o,S1.4.o,S1.1.i,S1.4.i over=1 sign=+\n"
        "crossing P1.pp2 ends=S1.3.o,S1.6.o,S1.3.i,S1.6.i over=1 sign=+\n"
        "crossing P1.x1 ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i over=1 sign=+\n"
        "crossing P1.x2 ends=S2.1.o,S1.7.o,S2.1.i,S1.7.i over=1 sign=+\n"
        "strand P1.S1 path=x1:2,pp1:2,bk1:0,pp2:2,pp1:3,bk1:3,pp2:3,x2:3 from=- to=-\n"
        "strand P1.S2 path=x1:3,x2:2 from=- to=-\n"
        "circle c1 strands=P1.S1 framing=2\n"
        "circle c2 strands=P1.S2 framing=0\n"
        "sinks 1\n")
    # arc 1 of S1 sits at gap 0: the parallel comes first, the pushoff
    # visit after S1's last visit goes to the end
    d = replace(base, circles=(base.circles[0], replace(base.circles[1], framing=1)))
    out = handle_slide(d, "c1", "c2", ("P1", ("S1", 1), ("S2", 0), -1))
    assert serialize(out) == (
        "msd 1\n"
        "piece P1\n"
        "crossing P1.bk1 ends=S1.0.i,S1.5.o,S1.0.o,S1.5.i over=1 sign=-\n"
        "crossing P1.pp1 ends=S1.6.o,S1.1.i,S1.6.i,S1.1.o over=1 sign=-\n"
        "crossing P1.pp2 ends=S1.2.i,S1.9.o,S1.2.o,S1.9.i over=1 sign=-\n"
        "crossing P1.tw1 ends=S1.4.i,S2.1.o,S1.4.o,S2.1.i over=1 sign=-\n"
        "crossing P1.tw2 ends=S2.2.o,S1.3.i,S2.2.i,S1.3.o over=1 sign=-\n"
        "crossing P1.x1 ends=S1.7.o,S2.0.o,S1.7.i,S2.0.i over=1 sign=+\n"
        "crossing P1.x2 ends=S2.3.o,S1.8.o,S2.3.i,S1.8.i over=1 sign=+\n"
        "strand P1.S1 path=bk1:0,pp1:1,pp2:0,tw2:1,tw1:0,bk1:3,pp1:2,x1:2,x2:3,pp2:3"
        " from=- to=-\n"
        "strand P1.S2 path=x1:3,tw1:3,tw2:2,x2:2 from=- to=-\n"
        "circle c1 strands=P1.S1 framing=-1\n"
        "circle c2 strands=P1.S2 framing=1\n"
        "sinks 1\n")


# merging pieces: renamed collisions, spliced chains and glued wall curves


def test_merge_all_renames_and_glues_wall_curves():
    # a ring P1-P2-P3-P4-P5-P1 of identical pieces (crossing x1, strands
    # S1-S3, walls A and B), so every absorbed piece is renamed; by sorted
    # pair id, Q3 absorbs the component of Q1 and Q4 absorbs the one of Q3
    links = [("Q3", "P1", "P2", (1, 2, 0)), ("Q1", "P2", "P3", (2, 0, 1)),
             ("Q5", "P3", "P4", (0, 1, 2)), ("Q2", "P4", "P5", (2, 0, 1)),
             ("Q4", "P5", "P1", (0, 1, 2))]
    pieces = []
    for i in range(1, 6):
        strands = tuple(Strand(f"S{j + 1}", (), ("A", j), ("B", -j % 3)) for j in range(3))
        if i == 4:
            strands += (Strand("S4"),)
        code = r1_plus(TangleCode(strands=strands), "S1", 0, 1)
        pieces.append(Piece(f"P{i}", code, (SphereWall("A", 3), SphereWall("B", 3))))
    d = Diagram(
        pieces=tuple(pieces),
        pairs=tuple(SpherePair(q, (a, "B"), (b, "A"), m) for q, a, b, m in links),
        circles=(
            GluedCircle("c1", (("P1", "S1"), ("P2", "S2"), ("P3", "S2"), ("P4", "S3"),
                               ("P5", "S1")), 1),
            GluedCircle("c2", (("P1", "S2"), ("P2", "S1"), ("P3", "S3"), ("P4", "S2"),
                               ("P5", "S2"), ("P1", "S3"), ("P2", "S3"), ("P3", "S1"),
                               ("P4", "S1"), ("P5", "S3")), -1),
            GluedCircle("c3", (("P4", "S4"),), 0)),
        # Q1 glues F4 into F1, then F1 into F3 (F4 resolves to F1 after F3);
        # Q2 then glues F3 into F2, as F1 now lies in F3, behind F2, and F6
        # into F5, which Q3 closes up
        surfaces=(
            SpanningSurface("F1", 0, (WallCurve("Q1", 0), WallCurve("Q2", 0))),
            SpanningSurface("F2", 1, (WallCurve("Q2", 0),)),
            SpanningSurface("F3", 0, (WallCurve("Q1", 1),)),
            SpanningSurface("F4", 0, (WallCurve("Q1", 0), FramingParallel("c3", 1),
                                      WallCurve("Q1", 1))),
            SpanningSurface("F5", 0, (WallCurve("Q2", 1), WallCurve("Q3", 0))),
            SpanningSurface("F6", 0, (WallCurve("Q3", 0), WallCurve("Q2", 1)))))
    assert validate(d).ok
    log = []
    out = merge_all(d, log)
    assert log == [KirbyMove("merge-pieces", (q,)) for q in ("Q1", "Q2", "Q3", "Q4")]
    assert order(out) == (
        ("x1", "x1m", "br1", "x1mm", "x1mmm", "x1mmmm", "br1m", "br2", "br3"),
        ("S1", "S2", "S3", "S4"), ("c1", "c2", "c3"))
    assert tuple(w.id for w in out.pieces[0].walls) == ("A", "Bmm")
    assert out.surfaces == (SpanningSurface("F2", 1, (FramingParallel("c3", 1),)),
                            SpanningSurface("F5", 1, ()))
    assert serialize(out) == (
        "msd 1\n"
        "piece P4\n"
        "wall P4.A points=3\n"
        "wall P4.Bmm points=3\n"
        "pair Q5 a=P4.Bmm b=P4.A match=0,1,2 orient=+\n"
        "crossing P4.br1 ends=S1.2.o,S3.0.o,S1.2.i,S3.0.i over=1 sign=+\n"
        "crossing P4.br1m ends=S1.7.o,S2.2.o,S1.7.i,S2.2.i over=1 sign=+\n"
        "crossing P4.br2 ends=S2.1.o,S1.4.o,S2.1.i,S1.4.i over=1 sign=+\n"
        "crossing P4.br3 ends=S1.3.o,S2.0.o,S1.3.i,S2.0.i over=1 sign=+\n"
        "crossing P4.x1 ends=S1.0.i,S1.1.i,S1.0.o,S1.1.o over=1 sign=+\n"
        "crossing P4.x1m ends=S3.1.i,S3.2.i,S3.1.o,S3.2.o over=1 sign=+\n"
        "crossing P4.x1mm ends=S3.3.i,S3.4.i,S3.3.o,S3.4.o over=1 sign=+\n"
        "crossing P4.x1mmm ends=S1.5.i,S1.6.i,S1.5.o,S1.6.o over=1 sign=+\n"
        "crossing P4.x1mmmm ends=S2.3.i,S2.4.i,S2.3.o,S2.4.o over=1 sign=+\n"
        "strand P4.S1 path=x1:0,x1:1,br1:2,br3:2,br2:3,x1mmm:0,x1mmm:1,br1m:2"
        " from=A:0 to=Bmm:1\n"
        "strand P4.S2 path=br3:3,br2:2,br1m:3,x1mmmm:0,x1mmmm:1 from=A:1 to=Bmm:0\n"
        "strand P4.S3 path=br1:3,x1m:0,x1m:1,x1mm:0,x1mm:1 from=A:2 to=Bmm:2\n"
        "strand P4.S4 path=- from=- to=-\n"
        "circle c1 strands=P4.S3 framing=1\n"
        "circle c2 strands=P4.S2,P4.S1 framing=-1\n"
        "circle c3 strands=P4.S4 framing=0\n"
        "surface F2 genus=1 boundary=Cc3:+\n"
        "surface F5 genus=1 boundary=-\n"
        "sinks 1\n")


def test_merge_all_closes_chains_in_strand_order():
    # c1 and c2 close up through Q2 alone: each becomes one closed strand,
    # named after its first strand in P1's order and moved behind S3 in
    # that order; Q1 glues P3 into P2 first, so P2 is loaded before P1
    d = Diagram(
        pieces=(Piece("P1", TangleCode(strands=(
                    Strand("S1", (), ("W1", 3), ("W1", 2)),
                    Strand("S3"),
                    Strand("S2", (), ("W1", 1), ("W1", 0)))), (SphereWall("W1", 4),)),
                Piece("P2", TangleCode(strands=(
                    Strand("S2", (), ("W2", 2), ("W2", 3)),
                    Strand("S1", (), ("W2", 0), ("W2", 1)))),
                      (SphereWall("W2", 4), SphereWall("X"))),
                Piece("P3", walls=(SphereWall("Y"),))),
        pairs=(SpherePair("Q1", ("P2", "X"), ("P3", "Y")),
               SpherePair("Q2", ("P1", "W1"), ("P2", "W2"), (0, 1, 2, 3))),
        circles=(GluedCircle("c1", (("P1", "S2"), ("P2", "S1")), 1),
                 GluedCircle("c2", (("P1", "S1"), ("P2", "S2")), 0),
                 GluedCircle("c3", (("P1", "S3"),), -1)))
    assert validate(d).ok
    log = []
    out = merge_all(d, log)
    assert log == [KirbyMove("merge-pieces", (q,)) for q in ("Q1", "Q2")]
    assert order(out) == (("br1", "br2"), ("S3", "S1", "S2"), ("c1", "c2", "c3"))
    assert serialize(out) == (
        "msd 1\n"
        "piece P1\n"
        "crossing P1.br1 ends=S2.0.o,S2.1.i,S2.0.i,S2.1.o over=1 sign=-\n"
        "crossing P1.br2 ends=S1.0.o,S1.1.i,S1.0.i,S1.1.o over=1 sign=-\n"
        "strand P1.S1 path=br2:2,br2:1 from=- to=-\n"
        "strand P1.S2 path=br1:2,br1:1 from=- to=-\n"
        "strand P1.S3 path=- from=- to=-\n"
        "circle c1 strands=P1.S2 framing=1\n"
        "circle c2 strands=P1.S1 framing=0\n"
        "circle c3 strands=P1.S3 framing=-1\n"
        "sinks 1\n")
