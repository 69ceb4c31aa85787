"""Diagram model: validation, admissibility, circle closure, relabeling."""

import random
import time
from dataclasses import replace

import pytest

import helpers
from msdiagram import catalog
from msdiagram.core import (
    Diagram,
    FramingParallel,
    GluedCircle,
    InternalMaps,
    Kind,
    Piece,
    SpanningSurface,
    SpherePair,
    SphereWall,
    WallCurve,
    check_admissible,
    diagram_linking,
    diagram_writhe,
    handle_counts,
    relabel,
    validate,
)
from msdiagram.format import parse, serialize
from msdiagram.reduction import reduce_pipeline
from msdiagram.tangle import Crossing, Strand, TangleCode


ALL_NAMES = ["s4-polar", "cp2", "cp2-mirror", "s2xs2", "s1xs3", "swap-diffeo",
             "s4-with-cancelling-pair", "cp2-two-piece", "n-s1s3(3)"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_entries_valid_and_admissible(name):
    d = catalog.standard(name)
    report = validate(d)
    assert report.ok, report.findings
    adm = check_admissible(d)
    assert adm.ok, adm.findings


def test_validate_empty_diagram_ok():
    d = Diagram(pieces=(Piece("P1"),), sink_count=1)
    assert validate(d).ok


def test_validate_rejects_no_pieces():
    assert not validate(Diagram(pieces=())).ok


def test_validate_rejects_zero_sinks():
    assert not validate(Diagram(pieces=(Piece("P1"),), sink_count=0)).ok


def test_validate_idempotent():
    d = catalog.standard("s2xs2")
    assert validate(d) == validate(d)


def test_a_code_defect_is_reported_once():
    # a piece with code problems gets no planarity check: no face is traced
    # through the defect, so no second finding words it again
    one_end = Piece("P", TangleCode(strands=(Strand("a", start=("W", 0)),)), (SphereWall("W", 1),))
    odd_ports = Piece("P", TangleCode((Crossing("x1", 1),),
                                      (Strand("s0", (("x1", 0), ("x1", -1), ("x1", 5))),)))
    assert [f.message for f in validate(Diagram(pieces=(one_end,))).findings] == [
        "strand a: exactly one endpoint set"]
    assert [f.message for f in validate(Diagram(pieces=(odd_ports,))).findings] == [
        "strand s0: bad port -1", "strand s0: bad port 5", "crossing x1: port 1 used 0 times",
        "crossing x1: port 3 used 0 times"]


def test_validate_reports_broken_cycle():
    # strand cycle that does not close through the pair matching
    p1 = Piece("P1", TangleCode(strands=(Strand("S1", start=("W1", 0), end=("W1", 1)),)),
               walls=(SphereWall("W1", points=2),))
    p2 = Piece("P2", TangleCode(strands=(Strand("S2", start=("W2", 0), end=("W2", 1)),)),
               walls=(SphereWall("W2", points=2),))
    d = Diagram(
        pieces=(p1, p2),
        pairs=(SpherePair("Q1", ("P1", "W1"), ("P2", "W2"), matching=(0, 1)),),
        circles=(GluedCircle("c1", (("P1", "S1"), ("P2", "S2")), framing=0),),
        sink_count=1,
    )
    report = validate(d)
    assert not report.ok
    assert any("Q1" in f.message or "Q1" in f.location for f in report.findings)


def test_handle_counts():
    assert handle_counts(catalog.standard("s4-polar")) == (1, 0, 0, 0, 1)
    assert handle_counts(catalog.standard("cp2")) == (1, 0, 1, 0, 1)
    assert handle_counts(catalog.standard("s1xs3")) == (1, 1, 0, 1, 1)
    assert handle_counts(catalog.standard("s2xs2")) == (1, 0, 2, 0, 1)


def test_admissibility_rejects_genus():
    d = catalog.standard("s1xs3")
    bad = Diagram(pieces=d.pieces, pairs=d.pairs,
                  surfaces=(SpanningSurface("F1", genus=1),), sink_count=1)
    assert validate(bad).ok
    report = check_admissible(bad)
    assert not report.ok
    assert "F1" in report.findings[0].location


def circle_orbits(d):
    """The strand cycles of d found by brute force, as an oracle for validate.

    A closed strand is a cycle of its own.  An open strand is followed by
    the strand that starts where its end lands across the end wall's pair.
    """
    succ = {}
    for p in d.pieces:
        for s in p.tangle.strands:
            if s.closed:
                continue
            wall = (p.id, s.end[0])
            q = next(q for q in d.pairs if wall in (q.wall_a, q.wall_b))
            if q.wall_a == wall:
                tgt = q.wall_b + (q.matching[s.end[1]],)
            else:
                tgt = q.wall_a + (q.matching.index(s.end[1]),)
            for p2 in d.pieces:
                for s2 in p2.tangle.strands:
                    if not s2.closed and (p2.id, s2.start[0], s2.start[1]) == tgt:
                        succ[(p.id, s.id)] = (p2.id, s2.id)
    orbits = [((p.id, s.id),) for p in d.pieces for s in p.tangle.strands if s.closed]
    seen = set()
    for start in succ:
        if start in seen:
            continue
        orbit, cur = [start], succ[start]
        while cur != start:
            orbit.append(cur)
            cur = succ[cur]
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def up_to_rotation(cycles):
    return sorted(min(c[k:] + c[:k] for k in range(len(c))) for c in cycles)


def self_pair_closure():
    """One strand with its ends on the two walls of one pair: a one-strand cycle."""
    p = Piece("P1", TangleCode(strands=(Strand("S1", start=("W1", 0), end=("W2", 0)),)),
              walls=(SphereWall("W1", 1), SphereWall("W2", 1)))
    return Diagram(pieces=(p,),
                   pairs=(SpherePair("Q1", ("P1", "W1"), ("P1", "W2"), matching=(0,)),),
                   circles=(GluedCircle("c1", (("P1", "S1"),), framing=0),),
                   sink_count=1)


def three_piece_ring():
    """One circle through three pieces in a ring of pairs: a three-strand cycle."""
    pieces, pairs = [], []
    for i in range(3):
        j = (i + 1) % 3
        pieces.append(Piece(f"P{i + 1}", TangleCode(strands=(
            Strand(f"S{i + 1}", start=(f"B{i + 1}", 0), end=(f"A{i + 1}", 0)),)),
            walls=(SphereWall(f"A{i + 1}", 1), SphereWall(f"B{i + 1}", 1))))
        pairs.append(SpherePair(f"Q{i + 1}", (f"P{i + 1}", f"A{i + 1}"),
                                (f"P{j + 1}", f"B{j + 1}"), matching=(0,)))
    return Diagram(pieces=tuple(pieces), pairs=tuple(pairs), circles=(
        GluedCircle("c1", (("P1", "S1"), ("P2", "S2"), ("P3", "S3")), framing=0),))


def circle_corpus():
    """Valid diagrams whose circles run through pairs in every way the helpers make."""
    yield from (catalog.standard(name) for name in ALL_NAMES)
    yield from (catalog.standard(f"n-s1s3({k})") for k in (1, 2, 5))
    yield self_pair_closure()
    yield three_piece_ring()
    for seed in range(100):
        yield helpers.random_kirby_diagram(random.Random(seed))
        rng = random.Random(seed)
        d = helpers.random_multipiece_diagram(rng)
        yield d
        yield helpers.plant_cancelling_pair(d, rng)


def circle_mutations(d):
    """d with its declared circles rotated, reversed, split, merged or traded."""
    cs = d.circles
    for i, c in enumerate(cs):
        cyc = c.strand_cycle
        for new in (cyc[1:] + cyc[:1], cyc[::-1]):
            yield replace(d, circles=cs[:i] + (replace(c, strand_cycle=new),) + cs[i + 1:])
        if len(cyc) > 1:
            halves = (replace(c, strand_cycle=cyc[:1]), replace(c, id="cz", strand_cycle=cyc[1:]))
            yield replace(d, circles=cs[:i] + halves + cs[i + 1:])
        for j, c2 in enumerate(cs):
            if j > i:
                merged = replace(c, strand_cycle=cyc + c2.strand_cycle)
                yield replace(d, circles=tuple(
                    merged if k == i else x for k, x in enumerate(cs) if k != j))
                traded = (replace(c, strand_cycle=cyc[:-1] + c2.strand_cycle[-1:]),
                          replace(c2, strand_cycle=c2.strand_cycle[:-1] + cyc[-1:]))
                yield replace(d, circles=tuple(
                    traded[0] if k == i else traded[1] if k == j else x
                    for k, x in enumerate(cs)))


def test_glued_circles_matches_declared():
    # the glued circles, found by following strands across pairs, are the
    # declared circles
    for name in ("cp2", "s2xs2", "cp2-two-piece"):
        d = catalog.standard(name)
        rec = circle_orbits(d)
        assert len(rec) == len(d.circles)
        assert sorted(len(c) for c in rec) == sorted(len(c.strand_cycle) for c in d.circles)
        assert up_to_rotation(rec) == up_to_rotation(c.strand_cycle for c in d.circles)


def test_glued_circles_two_strand_cycle():
    d = catalog.standard("cp2-two-piece")
    rec = circle_orbits(d)
    assert len(rec) == 1
    assert len(rec[0]) == 2
    assert up_to_rotation(rec) == up_to_rotation([d.circles[0].strand_cycle])


def test_validated_circles_are_the_successor_orbits():
    # the declared circles are the one circle decomposition: whatever
    # validate accepts, rearranged or not, follows the strands across pairs
    accepted = rejected = 0
    for d in circle_corpus():
        assert validate(d).ok, validate(d).findings
        orbits = up_to_rotation(circle_orbits(d))
        for v in [d, *circle_mutations(d)]:
            if validate(v).ok:
                accepted += 1
                assert up_to_rotation(c.strand_cycle for c in v.circles) == orbits
            else:
                rejected += 1
    assert accepted > 200 and rejected > 200


def test_reversed_circle_does_not_close():
    # a two-strand cycle read backwards is one of its rotations; from three
    # strands on, the reversed order skips a pair crossing
    reversed_long = 0
    for d in circle_corpus():
        for i, c in enumerate(d.circles):
            rev = replace(c, strand_cycle=c.strand_cycle[::-1])
            report = validate(replace(d, circles=d.circles[:i] + (rev,) + d.circles[i + 1:]))
            if len(c.strand_cycle) <= 2:
                assert report.ok, report.findings
                continue
            reversed_long += 1
            assert any(f.message.startswith("cycle does not close through pair")
                       for f in report.findings), report.findings
    assert reversed_long


@pytest.mark.parametrize("matching, strand", [((0,), "P1.S1"), ((1, 1), "P2.S2")])
def test_broken_matching_reports_an_open_cycle(matching, strand):
    # the closure check is the one copy of the across-the-pair rule, so a
    # matching that is no bijection leaves an open cycle, never a crash
    d = catalog.standard("cp2-two-piece")
    d = replace(d, pairs=(replace(d.pairs[0], matching=matching),))
    assert [f.message for f in validate(d).findings] == [
        "matching is not a point bijection",
        f"cycle does not close through pair Q1 after strand {strand}"]


def test_self_pair_closes_a_one_strand_cycle():
    d = self_pair_closure()
    assert validate(d).ok, validate(d).findings
    assert circle_orbits(d) == [(("P1", "S1"),)]


def test_relabel_preserves_verdicts():
    rng = random.Random(7)
    for name in ("s2xs2", "s1xs3", "cp2-two-piece", "s4-with-cancelling-pair"):
        d = catalog.standard(name)
        piece_ids = [p.id for p in d.pieces]
        new = rng.sample(piece_ids, len(piece_ids))
        d2 = relabel(
            d,
            pieces=dict(zip(piece_ids, new)),
            circles={c.id: f"z{i}" for i, c in enumerate(d.circles)},
            pairs={q.id: f"y{i}" for i, q in enumerate(d.pairs)},
            surfaces={f.id: f"w{i}" for i, f in enumerate(d.surfaces)},
        )
        assert validate(d2).ok == validate(d).ok
        assert check_admissible(d2).ok == check_admissible(d).ok
        assert handle_counts(d2) == handle_counts(d)


def test_relabel_renames_wall_curves_and_dotted_circles():
    s1xs3 = catalog.standard("s1xs3")
    d = replace(s1xs3, surfaces=tuple(
        SpanningSurface(f, 0, (WallCurve("Q1", 0),)) for f in ("F1", "F2")))
    d2 = relabel(d, pairs={"Q1": "R7"})
    assert [f.boundary for f in d2.surfaces] == [(WallCurve("R7", 0),)] * 2
    assert validate(d2).ok
    kirby = reduce_pipeline(catalog.n_s1xs3(2))
    assert kirby.annotation.dotted == ("h1", "h2")
    k2 = relabel(kirby, circles={"h1": "d9", "h2": "d1"})
    assert k2.annotation == replace(kirby.annotation, dotted=("d9", "d1"))
    assert validate(k2).ok


def test_diagram_linking_and_writhe():
    d = catalog.standard("s2xs2")
    assert diagram_linking(d, "c1", "c2") == 1
    assert diagram_linking(d, "c2", "c1") == 1
    assert diagram_writhe(d, "c1") == 0


def test_internal_maps_checked():
    d = catalog.standard("swap-diffeo")
    assert validate(d).ok
    # mismatched framings under the swap must be flagged
    bad_circles = (
        GluedCircle("c1", (("P1", "S1"),), framing=0),
        GluedCircle("c2", (("P1", "S2"),), framing=5),
    )
    bad = Diagram(pieces=d.pieces, circles=bad_circles, sink_count=1,
                  internal_maps=d.internal_maps)
    report = validate(bad)
    assert not report.ok
    assert any("framing" in f.message for f in report.findings)


def test_kind_flag_consistency():
    # kind is read from the internal maps, when built and when parsed
    d = catalog.standard("s2xs2")
    maps = InternalMaps(on_pieces=(("P1", "P1"),),
                        on_circles=(("c1", "c1"), ("c2", "c2")), on_sinks=(0,))
    diffeo = Diagram(pieces=d.pieces, circles=d.circles, sink_count=1, internal_maps=maps)
    assert d.kind == Kind.VECTOR_FIELD and validate(d).ok
    assert diffeo.kind == Kind.DIFFEOMORPHISM and validate(diffeo).ok
    assert replace(diffeo, internal_maps=None).kind == Kind.VECTOR_FIELD
    with pytest.raises(TypeError):
        Diagram(pieces=d.pieces, kind=Kind.DIFFEOMORPHISM)
    with pytest.raises(AttributeError):
        diffeo.kind = Kind.VECTOR_FIELD
    for x, kind in ((d, Kind.VECTOR_FIELD), (diffeo, Kind.DIFFEOMORPHISM)):
        text = serialize(x)
        assert ("\nimap " in text) == (kind == Kind.DIFFEOMORPHISM)
        assert parse(text).kind == kind


def with_maps(d, **changes):
    return replace(d, internal_maps=replace(d.internal_maps, **changes))


def test_internal_map_findings_are_pinned():
    # one mutation per check of the internal maps, each finding spelled out
    swap = catalog.swap_diffeo()
    walls = {"P1": ("W1", "W2"), "P2": ("W1",), "P3": ("W1",)}
    star = catalog.identity_diffeo(Diagram(
        pieces=tuple(Piece(p, walls=tuple(map(SphereWall, ws))) for p, ws in walls.items()),
        pairs=(SpherePair("Q1", ("P1", "W1"), ("P2", "W1")),
               SpherePair("Q2", ("P1", "W2"), ("P3", "W1")))))
    two = catalog.cp2_two_piece()  # c1 runs through P1 and P2; c2 only through P1
    p1 = two.pieces[0]
    p1 = replace(p1, tangle=replace(p1.tangle, strands=p1.tangle.strands + (Strand("S3"),)))
    c2 = GluedCircle("c2", (("P1", "S3"),), 1)
    two = catalog.identity_diffeo(
        replace(two, pieces=(p1, two.pieces[1]), circles=two.circles + (c2,)))
    ns = catalog.n_s1xs3(2)
    ns = catalog.identity_diffeo(replace(ns, surfaces=(ns.surfaces[0],
                                                       replace(ns.surfaces[1], genus=1))))
    disks = catalog.identity_diffeo(Diagram(
        pieces=(Piece("P1", TangleCode(strands=(Strand("S1"), Strand("S2")))),),
        circles=(GluedCircle("c1", (("P1", "S1"),), 0), GluedCircle("c2", (("P1", "S2"),), 0)),
        surfaces=(SpanningSurface("F1", boundary=(FramingParallel("c1", 1),)),
                  SpanningSurface("F2", boundary=(FramingParallel("c2", 1),)))))
    for d in (swap, star, two, ns, disks):
        assert validate(d).ok, validate(d).findings
    swapped = {"on_circles": (("c1", "c2"), ("c2", "c1"))}
    cases = [
        (with_maps(swap, on_circles=(("c1", "c2"), ("c2", "c2"))),
         [("internal maps/circles", "not a permutation of the index set")]),
        (with_maps(swap, on_sinks=(1,)), [("internal maps/sinks", "not a sink permutation")]),
        (with_maps(star, on_pairs=(("Q1", "Q2"), ("Q2", "Q1"))),
         [("internal maps/pairs", "pair Q1 maps to Q2 but pieces do not correspond"),
          ("internal maps/pairs", "pair Q2 maps to Q1 but pieces do not correspond")]),
        (replace(swap, circles=(swap.circles[0], replace(swap.circles[1], framing=5))),
         [("internal maps/circles", "circle c1 (framing 0) maps to c2 (framing 5)"),
          ("internal maps/circles", "circle c2 (framing 5) maps to c1 (framing 0)")]),
        (with_maps(two, **swapped),
         [("internal maps/circles", "circle c1 and image c2 have different lengths"),
          ("internal maps/circles", "circle c2 and image c1 have different lengths")]),
        (with_maps(ns, on_surfaces=(("F1", "F2"), ("F2", "F1"))),
         [("internal maps/surfaces", "surface F1 and image F2 differ in genus"),
          ("internal maps/surfaces", "surface F2 and image F1 differ in genus")]),
        (with_maps(disks, **swapped),
         [("internal maps/surfaces", "surface F1 boundary does not map onto F1 boundary"),
          ("internal maps/surfaces", "surface F2 boundary does not map onto F2 boundary")]),
    ]
    for d, findings in cases:
        assert [(f.location, f.message) for f in validate(d).findings] == findings


def test_rare_findings_are_pinned():
    # one edit of cp2-two-piece per finding that no other test produces,
    # each full findings list spelled out
    d = catalog.cp2_two_piece()
    p1, q, c = d.pieces[0], d.pairs[0], d.circles[0]

    def surface(**fields):
        return replace(d, surfaces=(SpanningSurface("F1", **fields),))

    missing = [("piece P1/strand S1", f"endpoint on missing point W1:{i}") for i in (0, 1)]
    cases = [
        (replace(d, pieces=(replace(p1, walls=(replace(p1.walls[0], points=-1),)),
                            d.pieces[1])),
         [("wall P1.W1", "negative point count"), *missing]),
        (replace(d, pairs=(replace(q, wall_b=("P1", "W1")),)),
         [("pair Q1", "pair identifies a wall with itself"),
          ("pair Q1", "wall P1.W1 already used by pair Q1"),
          ("wall P2.W2", "wall belongs to no pair"),
          ("circle c1", "cycle does not close through pair Q1 after strand P1.S1"),
          ("circle c1", "strand P2.S2 ends on unpaired wall W2")]),
        (replace(d, pairs=(replace(q, orientation=0),)),
         [("pair Q1", "orientation must be +1 or -1")]),
        (replace(d, circles=(c, GluedCircle("c2", ()))), [("circle c2", "empty strand cycle")]),
        (surface(genus=-1), [("surface F1", "negative genus")]),
        (surface(boundary=(FramingParallel("c1", 0),)), [("surface F1", "bad boundary sign")]),
        (surface(boundary=(WallCurve("Q9", 0), WallCurve("Q9", 0))),
         [("surface F1", "unknown pair Q9")] * 2),
        (surface(boundary=("junk",)), [("surface F1", "bad boundary item 'junk'")]),
    ]
    for e, findings in cases:
        assert [(f.location, f.message) for f in validate(e).findings] == findings


def test_annotation_must_agree_with_its_diagram():
    kirby = reduce_pipeline(catalog.standard("s1xs3"))
    assert validate(kirby).ok
    ann = kirby.annotation
    s1xs3 = catalog.standard("s1xs3")
    for bad, message in (
        (replace(ann, dotted=("h1", "h1"), one_handles=2), "distinct circles"),
        (replace(ann, dotted=("zz",)), "distinct circles"),
        (replace(ann, one_handles=0), "one_handles=0 but 1 dotted"),
        (replace(ann, sinks=2), "sinks=2 but the diagram has 1"),
        (replace(ann, three_handles=-1), "three_handles must not be negative"),
    ):
        report = validate(replace(kirby, annotation=bad))
        assert [(f.location, message in f.message) for f in report.findings] == \
            [("annotation", True)], report.findings
    report = validate(replace(s1xs3, annotation=replace(ann, dotted=(), one_handles=0)))
    assert [f.message for f in report.findings] == [
        "a Kirby-form diagram has no sphere pairs and no surfaces"]


def test_surface_wallcurve_matching_enforced():
    from msdiagram.core import WallCurve

    d = catalog.standard("s1xs3")
    bad = Diagram(pieces=d.pieces, pairs=d.pairs,
                  surfaces=(SpanningSurface("F1", boundary=(WallCurve("Q1", 0),)),),
                  sink_count=1)
    assert not validate(bad).ok


def _wide_two_piece(k: int) -> Diagram:
    """Two pieces glued by two k-point pairs, with k circles of two strands."""
    lines = ["msd 1", "piece P1", "piece P2"]
    lines += [f"wall P{p}.{w} points={k}" for p in (1, 2) for w in "AB"]
    match = ",".join(str(i) for i in range(k))
    lines += [f"pair Q1 a=P1.B b=P2.A match={match} orient=+",
              f"pair Q2 a=P1.A b=P2.B match={match} orient=+"]
    lines += [f"strand P{p}.S{i} path=- from=A:{i} to=B:{k - 1 - i}"
              for p in (1, 2) for i in range(k)]
    lines += [f"circle c{i} strands=P1.S{i},P2.S{k - 1 - i} framing=0" for i in range(k)]
    return parse("\n".join(lines + ["sinks 1"]) + "\n")


def test_wide_pairs_validate_in_linear_time():
    # a strand ending on a pair's wall_b reads the inverse matching, built
    # once per validation, not a scan of the matching per strand
    d = _wide_two_piece(20000)
    start = time.perf_counter()
    assert validate(d).ok
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("matching, findings", [
    ((1, 0), [("circle c1", "cycle does not close through pair Q1 after strand P1.S1"),
              ("circle c1", "cycle does not close through pair Q1 after strand P2.S2")]),
    ((1, 1, 0), [("pair Q1", "matching is not a point bijection"),
                 ("circle c1", "cycle does not close through pair Q1 after strand P2.S2")]),
    ((0, 1, 1), [("pair Q1", "matching is not a point bijection")]),
])
def test_a_wall_b_point_reads_its_first_index_in_the_matching(matching, findings):
    d = catalog.standard("cp2-two-piece")
    bad = replace(d, pairs=(replace(d.pairs[0], matching=matching),))
    assert [(f.location, f.message) for f in validate(bad).findings] == findings


@pytest.mark.parametrize("matching, strand", [(("a", 1), "P2.S2"), (([0], 1), "P2.S2"),
                                              ((0, "x"), "P1.S1")])
def test_a_matching_of_mixed_entries_is_no_point_bijection(matching, strand):
    # entries that do not compare with points, or cannot be hashed, are a
    # finding of the pair and leave an open cycle, never a TypeError
    d = catalog.cp2_two_piece()
    bad = replace(d, pairs=(replace(d.pairs[0], matching=matching),))
    assert [(f.location, f.message) for f in validate(bad).findings] == [
        ("pair Q1", "matching is not a point bijection"),
        ("circle c1", f"cycle does not close through pair Q1 after strand {strand}")]
