"""Piece merging, handle cancellation, and the Kirby-form pipeline."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import plant_cancelling_pair, r1_plus, random_multipiece_diagram
from msdiagram import catalog, core, reduction
from msdiagram.calculus import KirbyMove, apply_move
from msdiagram.core import (
    Diagram,
    DiagramError,
    FramingParallel,
    GluedCircle,
    Piece,
    SpanningSurface,
    SpherePair,
    SphereWall,
    WallCurve,
    handle_counts,
    validate,
)
from msdiagram.equivalence import isomorphic
from msdiagram.format import serialize
from msdiagram.invariants import annotated_homology, euler_characteristic, homology
from msdiagram.reduction import (
    delete_superfluous,
    find_superfluous_surface,
    merge_all,
    merge_pieces,
    reduce_pipeline,
    to_kirby,
)
from msdiagram.tangle import Crossing, MoveError, Strand, TangleCode


def two_empty_pieces():
    return Diagram(
        pieces=(Piece("P1", walls=(SphereWall("W1"),)),
                Piece("P2", walls=(SphereWall("W2"),))),
        pairs=(SpherePair("Q1", ("P1", "W1"), ("P2", "W2")),),
        sink_count=2,
    )


def test_merge_strand_free_pair():
    d = two_empty_pieces()
    assert validate(d).ok
    out = merge_pieces(d, "Q1")
    assert validate(out).ok
    assert handle_counts(out) == (1, 0, 0, 0, 2)
    assert out.sink_count == 2


def test_merge_two_piece_cp2():
    d = catalog.standard("cp2-two-piece")
    out = merge_pieces(d, "Q1")
    assert validate(out).ok, validate(out).findings
    assert handle_counts(out) == (1, 0, 1, 0, 1)
    v = isomorphic(out, catalog.standard("cp2"))
    assert v.yes, v.detail


def test_merge_internal_pair_rejected():
    d = catalog.standard("s1xs3")
    with pytest.raises(MoveError):
        merge_pieces(d, "Q1")


def test_merge_preserves_homology():
    d = catalog.standard("cp2-two-piece")
    before = homology(d)
    out = merge_pieces(d, "Q1")
    assert homology(out) == before


def test_merge_all_chain():
    # 3 pieces in a chain of 2 pairs, no strands
    d = Diagram(
        pieces=(Piece("P1", walls=(SphereWall("W1"),)),
                Piece("P2", walls=(SphereWall("W2"), SphereWall("W3"))),
                Piece("P3", walls=(SphereWall("W4"),))),
        pairs=(SpherePair("Q1", ("P1", "W1"), ("P2", "W2")),
               SpherePair("Q2", ("P2", "W3"), ("P3", "W4"))),
        sink_count=1,
    )
    assert validate(d).ok
    log = []
    out = merge_all(d, log)
    assert len(out.pieces) == 1
    assert len(log) == 2  # pieces - 1 merges
    assert handle_counts(out) == (1, 0, 0, 0, 1)


def test_merge_all_cycle_keeps_internal_pair():
    # cycle of 3 pieces and 3 pairs: one internal pair remains
    d = Diagram(
        pieces=(Piece("P1", walls=(SphereWall("W1"), SphereWall("W2"))),
                Piece("P2", walls=(SphereWall("W3"), SphereWall("W4"))),
                Piece("P3", walls=(SphereWall("W5"), SphereWall("W6")))),
        pairs=(SpherePair("Q1", ("P1", "W2"), ("P2", "W3")),
               SpherePair("Q2", ("P2", "W4"), ("P3", "W5")),
               SpherePair("Q3", ("P3", "W6"), ("P1", "W1"))),
        sink_count=1,
    )
    assert validate(d).ok
    log = []
    out = merge_all(d, log)
    assert len(out.pieces) == 1
    assert len(log) == 2
    assert len(out.pairs) == 1
    assert out.pairs[0].wall_a[0] == out.pairs[0].wall_b[0]
    # the surviving loop pair contributes the free H1 generator
    assert homology(out) == homology(d)
    assert [b for b, _ in homology(out)][1] == 1


def test_merge_all_disconnected_reported():
    d = Diagram(pieces=(Piece("P1"), Piece("P2")), sink_count=2)
    assert validate(d).ok
    with pytest.raises(DiagramError):
        merge_all(d)


def test_find_superfluous():
    d = catalog.standard("s4-with-cancelling-pair")
    assert find_superfluous_surface(d) == ("F1", "c1")


def test_find_superfluous_needs_single_boundary():
    d = catalog.standard("s4-with-cancelling-pair")
    doubled = Diagram(
        pieces=d.pieces, circles=d.circles,
        surfaces=(SpanningSurface("F1", 0, (FramingParallel("c1", 1),
                                            FramingParallel("c1", 1))),),
        sink_count=1)
    assert validate(doubled).ok
    assert find_superfluous_surface(doubled) is None


def test_find_superfluous_none_without_surfaces():
    assert find_superfluous_surface(catalog.standard("cp2")) is None


def test_delete_superfluous_reaches_s4():
    d = catalog.standard("s4-with-cancelling-pair")
    out = delete_superfluous(d, "F1", "c1")
    assert validate(out).ok
    assert handle_counts(out) == (1, 0, 0, 0, 1)
    assert homology(out) == homology(catalog.standard("s4-polar"))
    assert euler_characteristic(out) == euler_characteristic(d)


def test_delete_superfluous_validates_pair():
    d = catalog.standard("s4-with-cancelling-pair")
    with pytest.raises(MoveError):
        delete_superfluous(d, "F1", "zz")


def test_delete_with_linked_witness():
    # the cancelling circle clasps another: deletion removes the clasp
    base = catalog.standard("s2xs2")
    d = Diagram(
        pieces=base.pieces,
        circles=(GluedCircle("c1", (("P1", "S1"),), 0),
                 GluedCircle("c2", (("P1", "S2"),), 2)),
        surfaces=(SpanningSurface("F1", 0, (FramingParallel("c1", 1),)),),
        sink_count=1)
    assert validate(d).ok
    before = homology(d)
    out = delete_superfluous(d, "F1", "c1")
    assert validate(out).ok
    assert out.piece("P1").tangle.crossings == ()
    assert homology(out) == before


def test_to_kirby_s1xs3():
    d = catalog.standard("s1xs3")
    log = []
    out = to_kirby(d, log)
    assert validate(out).ok, validate(out).findings
    assert len(out.pairs) == 0 and len(out.surfaces) == 0
    assert out.annotation is not None
    ann = out.annotation
    assert (ann.one_handles, ann.three_handles, ann.sinks) == (1, 1, 1)
    assert len(ann.dotted) == 1
    assert len(out.circles) == 1
    assert out.circles[0].framing == 0
    # H1 = Z preserved through the annotation-aware computation
    assert annotated_homology(out) == homology(d)


def test_to_kirby_fixed_point():
    d = catalog.standard("cp2")
    out = to_kirby(d)
    assert out.circles == d.circles
    assert out.annotation.one_handles == 0
    assert out.annotation.three_handles == 0
    assert annotated_homology(out) == homology(d)


def test_to_kirby_with_strands_through_pair():
    # circle through one internal pair once: S^4 with a cancelling 1-/2-pair
    d = Diagram(
        pieces=(Piece(
            "P1",
            TangleCode(strands=(Strand("S1", start=("W1", 0), end=("W2", 0)),)),
            walls=(SphereWall("W1", 1), SphereWall("W2", 1))),),
        pairs=(SpherePair("Q1", ("P1", "W1"), ("P1", "W2"), matching=(0,)),),
        circles=(GluedCircle("c1", (("P1", "S1"),), 0),),
        sink_count=1,
    )
    assert validate(d).ok, validate(d).findings
    assert [b for b, _ in homology(d)] == [1, 0, 0, 0, 1]
    out = to_kirby(d)
    assert validate(out).ok, validate(out).findings
    assert len(out.circles) == 2
    assert out.annotation.one_handles == 1
    from msdiagram.invariants import linking_matrix

    lm = linking_matrix(out)
    dotted = out.annotation.dotted[0]
    i = lm.circles.index(dotted)
    j = 1 - i
    assert abs(lm.entries[i][j]) == 1
    assert annotated_homology(out) == homology(d)


def test_to_kirby_requires_single_piece():
    with pytest.raises(DiagramError):
        to_kirby(catalog.standard("cp2-two-piece"))


def test_to_kirby_refuses_a_surface_it_cannot_count():
    # a genus-1 surface is no sphere with holes
    d = catalog.standard("s4-with-cancelling-pair")
    d = replace(d, surfaces=(replace(d.surfaces[0], genus=1),))
    assert validate(d).ok
    with pytest.raises(DiagramError, match="^not admissible: genus 1: admissible surfaces "
                                           "are spheres with holes$"):
        to_kirby(d)
    # two discs glued along wall curve 0 of s1xs3's self-pair: valid and
    # admissible, but only merging glues wall curves
    d = replace(catalog.standard("s1xs3"), surfaces=tuple(
        SpanningSurface(f, 0, (WallCurve("Q1", 0),)) for f in ("F1", "F2")))
    assert core.check_admissible(d).ok
    with pytest.raises(DiagramError, match="^wall curves must be merged away before Kirby form$"):
        to_kirby(d)


def both_circles_through_the_internal_pair():
    """Three pieces on a tree of pairs Q1, Q2 and an extra pair Q3 that stays
    internal, with a closed surface: H = (Z, Z, Z^2, Z, Z).

    Both circles run through Q3 and back, so each walks one connector from
    wall_a and one from wall_b.
    """
    strands = {"P1": [], "P2": [], "P3": []}
    circles = []
    for k, i in enumerate((0, 2)):
        a, b = f"S{2 * k + 1}", f"S{2 * k + 2}"
        strands["P2"].append(Strand(a, (), ("W3a", i + 1), ("W3a", i)))
        strands["P3"].append(Strand(b, (), ("W3b", i), ("W3b", i + 1)))
        circles.append(GluedCircle(f"c{k + 1}", (("P2", a), ("P3", b)), (1, -1)[k]))
    walls = {"P1": ("W1a", "W2a"), "P2": ("W1b", "W3a"), "P3": ("W2b", "W3b")}
    points = {"1": 0, "2": 0, "3": 4}
    return Diagram(
        pieces=tuple(Piece(pid, TangleCode(strands=tuple(strands[pid])),
                           tuple(SphereWall(w, points[w[1]]) for w in walls[pid]))
                     for pid in ("P1", "P2", "P3")),
        pairs=(SpherePair("Q1", ("P1", "W1a"), ("P2", "W1b")),
               SpherePair("Q2", ("P1", "W2a"), ("P3", "W2b")),
               SpherePair("Q3", ("P2", "W3a"), ("P3", "W3b"), (0, 1, 2, 3))),
        circles=tuple(circles), surfaces=(SpanningSurface("F1"),))


def test_reduce_connectors_walked_from_both_walls():
    d = both_circles_through_the_internal_pair()
    assert validate(d).ok
    assert [b for b, _ in homology(d)] == [1, 1, 2, 1, 1]
    out = reduce_pipeline(d)
    assert out.annotation.one_handles == 1
    assert annotated_homology(out) == homology(d)


def test_reduction_keeps_the_homology_of_random_closed_diagrams():
    # every seed reduces; a closed surface is added per 1-handle that no
    # 3-handle cancels, as for an S^1 x S^3 summand, so that most diagrams
    # present closed manifolds, whose homology the Kirby form must keep
    # (seeds 51, 69, 90, 194, 201, 226, 245, 292 and 294 once raised
    # "surrogate left a non-planar code")
    checked = 0
    for seed in range(300):
        d = random_multipiece_diagram(random.Random(seed))
        b = [r for r, _ in homology(d)]
        d = replace(d, surfaces=d.surfaces + tuple(
            SpanningSurface(f"FX{i}") for i in range(b[1] - b[3])))
        hom = homology(d)
        out = reduce_pipeline(d)
        if hom[0] == hom[4] == (1, ()) and hom[1][0] == hom[3][0]:
            assert annotated_homology(out) == hom, seed
            checked += 1
    assert checked >= 200


def test_connector_word_is_a_least_rotation_sort():
    # reference: the first offset of least inversions, then a bubble sort
    for k in range(1, 7):
        for matching in itertools.permutations(range(k)):
            targets = [[(offset - matching[i]) % k for i in range(k)] for offset in range(k)]
            target = min(targets, key=lambda t: sum(
                t[i] > t[j] for i in range(k) for j in range(i + 1, k)))
            word, seq, changed = [], list(range(k)), True
            while changed:
                changed = False
                for j in range(k - 1):
                    a, b = seq[j], seq[j + 1]
                    if target[a] > target[b]:
                        word.append((j + 1, 1 if a < b else -1))
                        seq[j], seq[j + 1] = b, a
                        changed = True
            q = SpherePair("Q1", ("P1", "A"), ("P1", "B"), matching)
            assert reduction._connector_word(q) == word, matching


def braided_connectors():
    # an internal pair matching 0,1,2 whose connectors cross once
    code = TangleCode(crossings=(Crossing("x1", 1),), strands=(
        Strand("S1", (("x1", 1),), ("B", 0), ("A", 0)),
        Strand("S2", (("x1", 0),), ("B", 1), ("A", 1)),
        Strand("S3", (), ("B", 2), ("A", 2))))
    return Diagram(
        pieces=(Piece("P1", code, (SphereWall("A", 3), SphereWall("B", 3))),),
        pairs=(SpherePair("Q1", ("P1", "A"), ("P1", "B"), (0, 1, 2)),),
        circles=tuple(GluedCircle(f"c{i}", (("P1", f"S{i}"),), 0) for i in (1, 2, 3)))


@pytest.mark.xfail(strict=True, raises=DiagramError, reason=(
    "the connector braid takes the first rotation offset of least crossings: "
    "offsets 0 and 1 tie at one crossing here, and only offset 1 splices to a "
    "planar code (at offset 0 the splice alone has V-E+F = 2-4+2)"))
def test_braided_connectors_reduce():
    d = braided_connectors()
    assert validate(d).ok
    assert annotated_homology(reduce_pipeline(d)) == homology(d)


def test_replayed_replace_pair_checks_planarity():
    # nothing validates a replayed move's result, so the splice's own check
    # must name the failure
    with pytest.raises(DiagramError, match="^surrogate left a non-planar code: "):
        apply_move(braided_connectors(), KirbyMove("replace-pair", ("Q1", "h1")))


def test_to_kirby_glues_in_one_sweep(monkeypatch):
    made = []
    init = reduction._Glue.__init__
    monkeypatch.setattr(reduction._Glue, "__init__",
                        lambda glue, d: made.append(1) or init(glue, d))
    for k in (2, 8, 32):
        made.clear()
        out = to_kirby(catalog.n_s1xs3(k))
        assert len(out.annotation.dotted) == k
        assert len(made) == 1


@pytest.mark.parametrize("name", ["n-s1s3(4)", "s1xs3", "both-through"])
def test_replace_pair_replay_matches_the_sweep(name):
    if name == "both-through":
        d = both_circles_through_the_internal_pair()
    else:
        d = catalog.standard(name)
    log = []
    out = reduce_pipeline(d, log)
    assert [m.args[1] for m in log if m.tag == "replace-pair"] == list(out.annotation.dotted)
    cur = d
    for mv in log:
        cur = apply_move(cur, mv)
    cur = replace(cur, surfaces=(), sink_incidence=None, annotation=out.annotation)
    assert serialize(cur) == serialize(out)


def test_pipeline_s1xs3_variants():
    log = []
    out = reduce_pipeline(catalog.standard("s1xs3"), log)
    assert out.annotation is not None
    assert annotated_homology(out) == homology(catalog.standard("s1xs3"))


def test_pipeline_cancelling_pair_to_empty():
    log = []
    out = reduce_pipeline(catalog.standard("s4-with-cancelling-pair"), log)
    assert handle_counts(out) == (1, 0, 0, 0, 1)
    assert any(m.tag == "delete-surface" for m in log)
    assert annotated_homology(out) == homology(catalog.standard("s4-polar"))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2))
def test_pipeline_log_replays_to_the_same_diagram(seed, planted):
    rng = random.Random(seed)
    d = random_multipiece_diagram(rng, max_pieces=5)
    for i in range(planted):
        d = plant_cancelling_pair(d, rng, tag=f"K{i}")
    log = []
    try:
        out = reduce_pipeline(d, log)
    except DiagramError:
        out = None  # the logged prefix must still replay
    cur = d
    for mv in log:
        cur = apply_move(cur, mv)
    if out is not None:
        # Kirby form drops the surfaces into the annotation's counts
        cur = replace(cur, surfaces=(), sink_incidence=None, annotation=out.annotation)
        assert serialize(cur) == serialize(out)


def test_pipeline_names_a_cancellation_that_breaks_the_diagram():
    # the cancelled circle runs through Q1 and back, so its strands leave
    # unused wall points
    through = Diagram(
        pieces=(Piece("P1", TangleCode(strands=(Strand("S1", (), ("A", 1), ("A", 0)),
                                                Strand("S2", (), ("B", 0), ("B", 1)))),
                      (SphereWall("A", 2), SphereWall("B", 2))),),
        pairs=(SpherePair("Q1", ("P1", "A"), ("P1", "B"), (0, 1)),),
        circles=(GluedCircle("c1", (("P1", "S1"), ("P1", "S2")), 0),),
        surfaces=(SpanningSurface("F1", 0, (FramingParallel("c1", 1),)),))
    assert validate(through).ok
    with pytest.raises(DiagramError,
                       match="^cancellation broke the diagram: marked point 0 unused$"):
        reduce_pipeline(through)


def test_a_cancellation_drops_its_surface_incidence_column():
    # the cancelled surface's column is zero (d3.d4 = 0 on its circle), so
    # dropping it keeps a multi-sink diagram valid and its homology
    two_sinks = replace(catalog.standard("s4-with-cancelling-pair"), sink_count=2,
                        sink_incidence=((0,), (0,)))
    assert validate(two_sinks).ok
    out = delete_superfluous(two_sinks, *find_superfluous_surface(two_sinks))
    assert out.sink_incidence == ((), ()) and validate(out).ok
    assert homology(out) == homology(two_sinks)
    reduced = reduce_pipeline(two_sinks)
    assert (reduced.annotation.three_handles, reduced.annotation.sinks) == (0, 2)


def ring(k):
    """k kinked pieces in a cycle of k pairs, one circle through all of them."""
    pieces, pairs, cycle = [], [], []
    for i in range(1, k + 1):
        code = r1_plus(TangleCode(strands=(Strand(f"S{i}", (), ("A", 0), ("B", 0)),)),
                       f"S{i}", 0, 1)
        pieces.append(Piece(f"P{i}", code, (SphereWall("A", 1), SphereWall("B", 1))))
        pairs.append(SpherePair(f"Q{i}", (f"P{i}", "B"), (f"P{i % k + 1}", "A"), (0,)))
        cycle.append((f"P{i}", f"S{i}"))
    return Diagram(pieces=tuple(pieces), pairs=tuple(pairs),
                   circles=(GluedCircle("c1", tuple(cycle), 1),))


def test_reduction_validates_a_constant_number_of_times(monkeypatch):
    # cold validations (memo misses), whatever the number of merges and
    # cancellations
    calls = []
    cold = core._validate
    monkeypatch.setattr(core, "_validate", lambda d: calls.append(1) or cold(d))
    merged, reduced = [], []
    for k in (20, 80):
        calls.clear()
        out = merge_all(ring(k))
        assert len(out.pieces) == 1 and len(out.pairs) == 1
        merged.append(len(calls))
        d = ring(k)
        rng = random.Random(k)
        for i in range(k // 10):
            d = plant_cancelling_pair(d, rng, tag=f"K{i}")
        calls.clear()
        out = reduce_pipeline(d)
        assert out.annotation.three_handles == 0
        reduced.append(len(calls))
    assert merged[0] == merged[1] <= 2
    assert reduced[0] == reduced[1] <= 4


def test_reducing_a_kirby_form_changes_nothing():
    # to_kirby replaced the annotation of a diagram already in Kirby form:
    # s1xs3 reduced twice got (0, 0, 1, ()) and the homology (Z, 0, Z, 0, Z)
    inputs = [catalog.standard(name) for name in catalog.names() if "(" not in name]
    inputs += [catalog.n_s1xs3(k) for k in range(1, 5)]
    inputs += [random_multipiece_diagram(random.Random(seed)) for seed in range(100)]
    reduced = 0
    for d in inputs:
        try:
            once = reduce_pipeline(d)
        except DiagramError:
            continue  # a refusal pinned elsewhere
        log = []
        assert serialize(reduce_pipeline(once, log)) == serialize(once)
        assert log == []
        reduced += 1
    assert reduced >= 60
    twice = reduce_pipeline(reduce_pipeline(catalog.standard("s1xs3")))
    assert annotated_homology(twice) == homology(catalog.standard("s1xs3"))


@pytest.mark.parametrize("name", ["s1xs3", "cp2-two-piece", "s4-with-cancelling-pair"])
def test_pipeline_refuses_internal_maps_before_any_phase(name):
    # each phase would leave the maps naming handles it merged, cancelled or replaced
    log = []
    with pytest.raises(DiagramError, match="^the reduction acts on diagrams without internal maps$"):
        reduce_pipeline(catalog.identity_diffeo(catalog.standard(name)), log)
    assert log == []


def test_pipeline_keeps_internal_maps_it_leaves_unchanged():
    d = catalog.identity_diffeo(catalog.standard("s2xs2"))
    out = reduce_pipeline(d)
    assert out.internal_maps == d.internal_maps and out.circles == d.circles
    assert out.annotation == core.KirbyAnnotation(0, 0, 1, ())
    assert validate(out).ok
