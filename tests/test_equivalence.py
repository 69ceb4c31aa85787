"""Canonical labeling, isomorphism verdicts and conjugacy of diffeomorphisms."""

import itertools
import random
import re
import tracemalloc
import zlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import r1_plus, r2_plus
from msdiagram import catalog, equivalence
from msdiagram import format as msd_format
from msdiagram.calculus import blow_up, recognize_s3
from msdiagram.core import (
    Diagram,
    DiagramError,
    FramingParallel,
    GluedCircle,
    InternalMaps,
    Piece,
    SpanningSurface,
    SpherePair,
    SphereWall,
    relabel,
    simplify_diagram,
    validate,
    with_tangle,
)
from msdiagram.equivalence import (
    _coloured_cycles,
    _compose,
    _least_rotations,
    _least_walk,
    _planner,
    canonical_key,
    canonical_variants,
    conjugate,
    isomorphic,
    mirror,
    separating_invariant,
    verify_internal_maps,
    verify_isomorphism,
)
from msdiagram.tangle import (
    Crossing,
    RMove,
    Strand,
    TangleCode,
    braid_closure,
    find_r3,
    r3,
    simplify_with_log,
)


def random_relabel(d, rng):
    return relabel(
        d,
        pieces={p.id: f"pp{rng.randrange(100, 999)}{i}" for i, p in enumerate(d.pieces)},
        circles={c.id: f"zz{rng.randrange(100, 999)}{i}" for i, c in enumerate(d.circles)},
        pairs={q.id: f"yy{i}" for i, q in enumerate(d.pairs)},
        surfaces={f.id: f"ww{i}" for i, f in enumerate(d.surfaces)},
        strands={(p.id, s.id): f"ss{i}{j}" for i, p in enumerate(d.pieces)
                 for j, s in enumerate(p.tangle.strands)},
        crossings={(p.id, c.id): f"xx{i}{j}" for i, p in enumerate(d.pieces)
                   for j, c in enumerate(p.tangle.crossings)},
        walls={(p.id, w.id): f"vv{i}{j}" for i, p in enumerate(d.pieces)
               for j, w in enumerate(p.walls)},
    )


CATALOG = ["s4-polar", "cp2", "s2xs2", "s1xs3", "swap-diffeo",
           "s4-with-cancelling-pair", "cp2-two-piece", "n-s1s3(3)"]


def torus_link(n, m=None):
    """T(n,m), the closure of (s1 ... s_{n-1})^m, one circle per component;
    T(n,n) is n unknots, each pair linked once."""
    code = braid_closure([(j, 1) for _ in range(n if m is None else m)
                          for j in range(1, n)], n)
    return Diagram(pieces=(Piece("P1", code),), sink_count=1, circles=tuple(
        GluedCircle(f"c{i + 1}", (("P1", s.id),), 0) for i, s in enumerate(code.strands)))


def split_unknots(k):
    d = Diagram(pieces=(Piece("P1"),), sink_count=1)
    for _ in range(k):
        d = blow_up(d, "P1")
    return d


@pytest.mark.parametrize("name", CATALOG + [f"T({n},{n})" for n in range(4, 17)])
def test_canonical_key_relabel_invariant(name):
    rng = random.Random(zlib.crc32(name.encode()))
    if name.startswith("T("):
        d = torus_link(int(name[2:name.index(",")]))
    else:
        d = catalog.standard(name)
    key = canonical_key(d)
    for _ in range(3):
        assert canonical_key(random_relabel(d, rng)) == key


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["kirby", "multi"]))
def test_canonical_key_relabel_invariant_on_random_diagrams(seed, kind):
    rng = random.Random(seed)
    if kind == "kirby":
        d = helpers.random_kirby_diagram(rng)
    else:
        d = helpers.random_multipiece_diagram(rng)
    assert canonical_key(helpers.random_relabel(d, rng)) == canonical_key(d)


@pytest.mark.parametrize("seed", [683, 881, 1238, 2871])
def test_canonical_key_relabel_invariant_by_refined_colours(seed):
    # tied circles that no symmetry exchanges, told apart only by colours
    # refined to a fixed point: at 683 and 881 two circles through pairs
    # differ by an empty pair between the other pieces, at 1238 by the pairs
    # they pass
    d = helpers.random_multipiece_diagram(random.Random(seed))
    key = canonical_key(d)
    for r in range(20):
        assert canonical_key(helpers.random_relabel(d, random.Random(r))) == key


def kinked_map_cycle():
    """Four unknots: c1 0-framed, c2 with a positive kink, c3 and c4 with
    negative kinks, c2-c4 framed +1; the diffeomorphism cycles c2, c3, c4."""
    code = TangleCode(strands=tuple(Strand(s) for s in "ABCD"))
    for sid, sign in (("B", 1), ("C", -1), ("D", -1)):
        code = r1_plus(code, sid, 0, sign)
    return Diagram(
        pieces=(Piece("P1", code),), sink_count=1,
        circles=tuple(GluedCircle(f"c{i + 1}", (("P1", s),), min(i, 1))
                      for i, s in enumerate("ABCD")),
        internal_maps=InternalMaps(
            on_pieces=(("P1", "P1"),), on_sinks=(0,),
            on_circles=(("c1", "c1"), ("c2", "c3"), ("c3", "c4"), ("c4", "c2"))))


@pytest.mark.xfail(strict=True, reason="refinement reads no crossing data, so c3 "
                   "and c4 keep one colour; the walk from c1 meets no circle and "
                   "breaks their tie by circle id, which no symmetry undoes")
def test_canonical_key_relabel_invariant_past_kinks_in_a_map_cycle():
    d = kinked_map_cycle()
    keys = {canonical_key(helpers.random_relabel(d, random.Random(r))) for r in range(8)}
    assert len(keys) == 1


def test_isomorphic_reduces_the_kinks_in_a_map_cycle():
    d = kinked_map_cycle()
    assert verify_internal_maps(d).ok
    for r in range(8):
        d2 = helpers.random_relabel(d, random.Random(r))
        assert isomorphic(d, d2).yes
        assert conjugate(d, d2).yes


@pytest.mark.parametrize("seed", [10, 17])
def test_canonical_key_numbers_empty_pairs_by_structure(seed):
    # empty pairs: two from one piece to two bare pieces (seed 10), and a
    # triangle of bare pieces (seed 17); neither may be numbered by input id
    d = helpers.random_multipiece_diagram(random.Random(seed))
    key = canonical_key(d)
    for r in range(20):
        assert canonical_key(helpers.random_relabel(d, random.Random(r))) == key


@pytest.mark.parametrize("n", range(1, 13))
def test_plans_grow_with_tied_first_starts(n):
    # one plan per tied start of the first circle: no order of circles is
    # enumerated, so no cap is needed
    for d in (torus_link(n), split_unknots(n)):
        assert len(_planner(d)[1]) <= 2 * len(d.circles)


def count_walks(d, monkeypatch):
    # every walk runs the records step, rendered or not
    walks = []
    real = equivalence._walk_records
    monkeypatch.setattr(equivalence, "_walk_records",
                        lambda d, plan: walks.append(plan) or real(d, plan))
    canonical_key.__wrapped__(d)  # past the cache
    assert walks
    return len(walks)


@pytest.mark.parametrize("n, m", [(n, n) for n in range(4, 17)]
                         + [(2, m) for m in (7, 21, 41, 81)])
def test_symmetric_diagrams_walk_each_orbit_once(n, m, monkeypatch):
    # equal walks reveal the symmetries, and the starts they map onto walked
    # ones are skipped: a few walks instead of one per tied start
    assert count_walks(torus_link(n, m), monkeypatch) <= 4


@pytest.mark.parametrize("k", range(1, 7))
def test_split_unknots_walk_every_tied_start(k):
    # the full enumeration, the reference for pruning, walks both directions
    # of every unknot
    assert len(canonical_variants(split_unknots(k))) == 2 * k


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 12, 24])
def test_split_unknots_walk_k_plus_one_starts(k, monkeypatch):
    # every walk gives one text: the first two put an unknot's two starts in
    # one orbit, and each later walk joins one more unknot to it
    assert count_walks(split_unknots(k), monkeypatch) <= k + 1


def shuffled_circle_diffeo(generate, seed):
    """identity_diffeo of a random diagram, its circles permuted within their
    (framing, strand count) classes."""
    rng = random.Random(seed)
    d = catalog.identity_diffeo(generate(rng))
    classes = {}
    for c in d.circles:
        classes.setdefault((c.framing, len(c.strand_cycle)), []).append(c.id)
    on_circles = [pair for ids in classes.values()
                  for pair in zip(ids, rng.sample(ids, len(ids)))]
    d = replace(d, internal_maps=replace(d.internal_maps, on_circles=tuple(on_circles)))
    assert verify_internal_maps(d).ok
    return d


def pruning_cases():
    """Symmetric diagrams, split unknots (the walks fall back on circle ids),
    diffeomorphisms (internal maps, identity or shuffling circles) and the
    random generators."""
    seeds = st.integers(0, 2**32 - 1)
    return st.one_of(
        st.integers(1, 12).map(torus_link),
        st.integers(1, 41).map(lambda m: torus_link(2, m)),
        st.integers(1, 6).map(split_unknots),
        st.sampled_from(CATALOG).map(catalog.standard),
        st.tuples(st.integers(2, 6), st.integers(0, 5)).map(
            lambda a: split_unknots_with_cycle(*a)),
        seeds.map(lambda s: catalog.identity_diffeo(helpers.random_kirby_diagram(random.Random(s)))),
        seeds.map(lambda s: catalog.identity_diffeo(
            helpers.random_multipiece_diagram(random.Random(s)))),
        seeds.map(lambda s: shuffled_circle_diffeo(helpers.random_kirby_diagram, s)),
        seeds.map(lambda s: shuffled_circle_diffeo(helpers.random_multipiece_diagram, s)),
        seeds.map(lambda s: helpers.random_kirby_diagram(random.Random(s))),
        seeds.map(lambda s: helpers.random_multipiece_diagram(random.Random(s))))


@settings(max_examples=80, deadline=None)
@given(pruning_cases(), st.integers(0, 2**32 - 1))
def test_pruned_least_walk_matches_full_minimum(d, seed):
    # equal where every walk is a function of its start; a walk that breaks a
    # tie by circle id or rotation number could let a skipped start hold a
    # smaller text, which no seeded sweep has shown
    assert canonical_key(d) == min(v[0] for v in canonical_variants(d))
    d2 = helpers.random_relabel(d, random.Random(seed))
    v = isomorphic(d, d2)
    best1, best2 = (min(canonical_variants(simplify_diagram(x)[0]), key=lambda v: v[0])
                    for x in (d, d2))
    # Unknown only where the full minimum also depends on ids
    assert v.yes == (best1[0] == best2[0])
    if v.yes:
        assert (v.witness.plan1, v.witness.plan2, v.witness.canonical_text) == \
            (best1[2], best2[2], best1[0])
    if d.internal_maps is not None:
        assert not conjugate(d, d2).no


def pinned_walk_diagrams():
    diagrams = [generate(random.Random(seed)) for seed in range(150)
                for generate in (helpers.random_kirby_diagram, helpers.random_multipiece_diagram)]
    diagrams += [torus_link(n) for n in range(2, 9)] + [torus_link(2, m) for m in (3, 7, 21)]
    diagrams += [catalog.standard(name) for name in ("swap-diffeo", "cp2-two-piece", "n-s1s3(3)")]
    diagrams += [catalog.identity_diffeo(catalog.standard(name))
                 for name in ("s2xs2", "cp2-two-piece")]
    diagrams += [shuffled_circle_diffeo(generate, seed) for seed in range(10)
                 for generate in (helpers.random_kirby_diagram, helpers.random_multipiece_diagram)]
    return diagrams


def test_canonical_walks_match_pinned_crc():
    # crc32 over repr((text, maps, plan)) of the least walk, computed at
    # commit d4c815d, where each walk built a relabelled Diagram and
    # serialized it; checked on Python 3.10 to 3.13 and for several hash seeds
    diagrams = pinned_walk_diagrams()
    # the maps are spelled as repr showed the CanonicalMaps record that walks
    # returned them in up to commit c171a80
    crc = 0
    for d in diagrams:
        w = _least_walk(d)
        text, m, plan = w.text, w.maps, w.plan
        maps = (f"CanonicalMaps(pieces={m.on_pieces!r}, pairs={m.on_pairs!r}, "
                f"circles={m.on_circles!r}, surfaces={m.on_surfaces!r}, "
                f"sinks={tuple(enumerate(m.on_sinks))!r})")
        crc = zlib.crc32(f"({text!r}, {maps}, {plan!r})".encode(), crc)
    assert (len(diagrams), crc) == (335, 0x499b8060)


def test_walk_records_agree_with_texts():
    # least walks and witnesses compare records, not texts: exact because two
    # walks of one diagram have equal records exactly when their texts agree
    same = differ = 0
    for d in pinned_walk_diagrams():
        t, firsts, discover = _planner(d)
        walks = [equivalence._walk_records(t, discover(f)) for f in firsts]
        for w1, w2 in itertools.combinations(walks, 2):
            assert (w1.records == w2.records) == (w1.text == w2.text)
            same += w1.text == w2.text
            differ += w1.text != w2.text
    assert same and differ


def test_torus_knot_keys_match_pinned_crc():
    # crc32 over the keys of T(2,41), T(2,161) and T(2,321), computed at commit
    # 3a10d34, where the planner ranked every rotation of every circle
    crc = 0
    for m in (41, 161, 321):
        crc = zlib.crc32(canonical_key.__wrapped__(torus_link(2, m)).encode(), crc)
    assert crc == 0xb1afbd50


def test_witnesses_match_pinned_crc():
    # crc32 over repr of isomorphic (plain and with mirrors) and conjugate
    # verdicts on relabelled pairs, witnesses whole, and of the
    # verify_isomorphism report of each Yes; computed at commit 36d6751,
    # where the witness walked the second side to its least text
    diagrams = [generate(random.Random(seed)) for seed in range(150)
                for generate in (helpers.random_kirby_diagram, helpers.random_multipiece_diagram)]
    diagrams += [torus_link(n) for n in range(1, 9)]
    diagrams += [catalog.standard(name) for name in CATALOG]
    diagrams += [catalog.identity_diffeo(catalog.standard(name))
                 for name in ("s2xs2", "cp2-two-piece")]
    diagrams += [shuffled_circle_diffeo(generate, seed) for seed in range(10)
                 for generate in (helpers.random_kirby_diagram, helpers.random_multipiece_diagram)]
    crc, yes = 0, 0
    for i, d in enumerate(diagrams):
        d2 = helpers.random_relabel(d, random.Random(i))
        verdicts = [isomorphic(d, d2), isomorphic(d, d2, allow_mirror=True)]
        if d.internal_maps is not None:
            verdicts.append(conjugate(d, d2))
        for v in verdicts:
            crc = zlib.crc32(repr(v).encode(), crc)
            if v.yes:
                yes += 1
                crc = zlib.crc32(repr(verify_isomorphism(v.witness, d, d2)).encode(), crc)
    assert (len(diagrams), yes, crc) == (338, 699, 0x4c0c2ddc)


def test_torus_knot_key_memory_is_linear():
    # the planner keeps one least rotation per (circle, direction), not every
    # rotation of each trace (27 MB for this knot when it did)
    d = torus_link(2, 641)
    assert validate(d).ok
    tracemalloc.start()
    try:
        canonical_key.__wrapped__(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=10), st.integers(1, 4))
@example([], 1)
@example([7], 3)
def test_least_rotations_match_brute_force(unit, k):
    # the tied offsets of the least rotation, on a sequence and on its power
    # unit^k, whose least rotations repeat every period
    for seq in (unit, unit * k):
        rotations = [seq[r:] + seq[:r] for r in range(max(len(seq), 1))]
        assert list(_least_rotations(seq)) == [
            r for r, rot in enumerate(rotations) if rot == min(rotations)]


def test_walks_render_text_without_building_records(monkeypatch):
    # a walk spells its records from the id maps: no relabelled diagram, no
    # code, no crossing, and no call to serialize
    torus, swap = torus_link(6), catalog.standard("swap-diffeo")
    relabelled = random_relabel(torus, random.Random(6))
    v = isomorphic(torus, relabelled)
    assert v.yes and v.witness.moves1 == v.witness.moves2 == ()  # nothing to replay
    built = Counter()
    for cls in (Diagram, Piece, TangleCode, Crossing):
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=cls.__init__, **k:
                            built.update([type(self).__name__]) or _init(self, *a, **k))
    for module in (msd_format, equivalence):
        monkeypatch.setattr(module, "serialize", lambda d: built.update(["serialize"]),
                            raising=False)
    for d in (torus, swap):
        canonical_key.__wrapped__(d)  # past the cache
    assert verify_isomorphism(v.witness, torus, relabelled).ok
    assert not built, built


def test_canonical_distinguishes_framings():
    assert canonical_key(catalog.standard("cp2")) != canonical_key(catalog.standard("cp2-mirror"))


def test_canonical_same_after_circle_reversal():
    d = catalog.standard("s2xs2")
    # reverse one circle: flip its strand's visits by hand
    p = d.pieces[0]
    s1 = p.tangle.strand("S1")
    rev = Strand("S1", visits=tuple((c, (q + 2) % 4) for c, q in reversed(s1.visits)))
    code = TangleCode(p.tangle.crossings, (rev, p.tangle.strand("S2")))
    d2 = Diagram(pieces=(Piece("P1", code),), circles=d.circles, sink_count=1)
    assert validate(d2).ok
    assert canonical_key(d2) == canonical_key(d)


def test_isomorphic_reflexive_on_catalog():
    for name in CATALOG:
        d = catalog.standard(name)
        v = isomorphic(d, d)
        assert v.yes, (name, v)
        assert verify_isomorphism(v.witness, d, d).ok


def test_isomorphic_relabeled_and_perturbed():
    rng = random.Random(23)
    for name in ("cp2", "s2xs2", "cp2-two-piece"):
        d = catalog.standard(name)
        d2 = random_relabel(d, rng)
        # perturb with kinks and pushes inside the first piece
        p = d2.pieces[0]
        code = p.tangle
        sid = code.strands[0].id
        code = r1_plus(code, sid, 0, +1)
        if len(code.strands) > 1:
            code = r2_plus(code, (code.strands[0].id, 0), (code.strands[1].id, 0),
                           p.wall_points())
        d2 = Diagram(pieces=(Piece(p.id, code, p.walls),) + d2.pieces[1:],
                     pairs=d2.pairs, circles=d2.circles, surfaces=d2.surfaces,
                     sink_count=d2.sink_count)
        assert validate(d2).ok, validate(d2).findings
        v = isomorphic(d, d2)
        assert v.yes, (name, v.detail)
        assert verify_isomorphism(v.witness, d, d2).ok


def test_isomorphic_no_on_framing_multiset():
    v = isomorphic(catalog.standard("cp2"), catalog.standard("cp2-mirror"))
    assert v.no
    assert "framing" in v.witness


def test_isomorphic_mirror_flag():
    v = isomorphic(catalog.standard("cp2"), catalog.standard("cp2-mirror"),
                   allow_mirror=True)
    assert v.yes
    assert v.witness.mirror


def test_isomorphic_no_congruence_invariants():
    # 0-framed Hopf link vs two split unknots framed +1, -1: handle counts and
    # framing multisets can be arranged to agree only in count; use matching
    # framings 0,0 with a split unlink so only the linking matrix separates
    split = Diagram(
        pieces=(Piece("P1", TangleCode(strands=(Strand("A"), Strand("B")))),),
        circles=(GluedCircle("c1", (("P1", "A"),), 0),
                 GluedCircle("c2", (("P1", "B"),), 0)),
        sink_count=1)
    v = isomorphic(catalog.standard("s2xs2"), split)
    assert v.no
    assert "linking" in v.witness


def test_separating_invariant_s2xs2_vs_cp2_sum():
    # diag(1, 1) against the hyperbolic form: same size, separated by
    # determinant and parity of the diagonal
    two_plus = Diagram(
        pieces=(Piece("P1", TangleCode(strands=(Strand("A"), Strand("B")))),),
        circles=(GluedCircle("c1", (("P1", "A"),), 1),
                 GluedCircle("c2", (("P1", "B"),), 1)),
        sink_count=1)
    name = separating_invariant(catalog.standard("s2xs2"), two_plus)
    assert name == "framing multiset" or "linking" in name
    v = isomorphic(catalog.standard("s2xs2"), two_plus)
    assert v.no


def test_isomorphic_symmetric_on_yes():
    rng = random.Random(14)
    d1 = catalog.standard("s2xs2")
    d2 = random_relabel(d1, rng)
    v12 = isomorphic(d1, d2)
    v21 = isomorphic(d2, d1)
    assert v12.yes and v21.yes
    assert verify_isomorphism(v21.witness, d2, d1).ok


def test_admissible_implies_valid():
    from msdiagram.core import check_admissible

    bad = Diagram(pieces=(), sink_count=1)
    assert not validate(bad).ok
    assert not check_admissible(bad).ok


def test_witness_composition():
    rng = random.Random(4)
    d1 = catalog.standard("s2xs2")
    d2 = random_relabel(d1, rng)
    d3 = random_relabel(d1, rng)
    v12 = isomorphic(d1, d2)
    v23 = isomorphic(d2, d3)
    assert v12.yes and v23.yes
    comp_circles = {a: v23.witness.maps.circles()[b] for a, b in v12.witness.maps.on_circles}
    v13 = isomorphic(d1, d3)
    assert v13.yes
    # composed circle map is a valid assignment: framings match
    for a, b in comp_circles.items():
        assert d1.circle(a).framing == d3.circle(b).framing


def test_verify_rejects_tampered_witness():
    d = catalog.standard("s2xs2")
    v = isomorphic(d, d)
    w = v.witness
    swapped = tuple(sorted((a, {"c1": "c2", "c2": "c1"}[b]) for a, b in w.maps.on_circles))
    report = verify_isomorphism(replace(w, maps=replace(w.maps, on_circles=swapped)), d, d)
    assert not report.ok


def test_internal_maps_verified():
    d = catalog.standard("swap-diffeo")
    assert verify_internal_maps(d).ok
    ident = catalog.identity_diffeo(catalog.standard("s2xs2"))
    assert verify_internal_maps(ident).ok
    bad = Diagram(pieces=d.pieces,
                  circles=(GluedCircle("c1", (("P1", "S1"),), 0),
                           GluedCircle("c2", (("P1", "S2"),), 7)),
                  sink_count=1, internal_maps=d.internal_maps)
    assert not verify_internal_maps(bad).ok


def test_conjugate_identity_to_itself():
    d = catalog.identity_diffeo(catalog.standard("s2xs2"))
    v = conjugate(d, d)
    assert v.yes


def test_conjugate_swap_to_relabeled_swap():
    rng = random.Random(9)
    d1 = catalog.standard("swap-diffeo")
    d2 = random_relabel(d1, rng)
    v = conjugate(d1, d2)
    assert v.yes, v.detail


def test_conjugate_swap_vs_identity_is_no():
    d_swap = catalog.standard("swap-diffeo")
    d_id = catalog.identity_diffeo(catalog.standard("s2xs2"))
    v = conjugate(d_swap, d_id)
    assert v.no
    assert "exhaustive" in v.detail


def test_conjugate_no_by_asymmetric_linking():
    # three circles: A-C Hopf-linked, B split; swapping A and B cannot commute
    code = braid_closure([(1, 1), (1, 1)], 2, strand_prefix="t")
    code = TangleCode(code.crossings, code.strands + (Strand("t3"),))
    base = Diagram(
        pieces=(Piece("P1", code),),
        circles=(GluedCircle("cA", (("P1", "t1"),), 0),
                 GluedCircle("cC", (("P1", "t2"),), 0),
                 GluedCircle("cB", (("P1", "t3"),), 0)),
        sink_count=1)
    assert validate(base).ok, validate(base).findings
    ident = catalog.identity_diffeo(base)
    swap = Diagram(
        pieces=base.pieces, circles=base.circles, sink_count=1,
        internal_maps=InternalMaps(
            on_pieces=(("P1", "P1"),),
            on_circles=(("cA", "cB"), ("cB", "cA"), ("cC", "cC")),
            on_sinks=(0,)))
    assert verify_internal_maps(swap).ok
    v = conjugate(ident, swap)
    assert v.no


def test_conjugate_precondition():
    with pytest.raises(DiagramError):
        conjugate(catalog.standard("s2xs2"), catalog.standard("swap-diffeo"))
    # valid maps on an invalid diagram: a wall that no pair uses
    d = catalog.identity_diffeo(catalog.standard("s2xs2"))
    d = replace(d, pieces=(replace(d.pieces[0], walls=(SphereWall("W9"),)),))
    assert verify_internal_maps(d).ok
    with pytest.raises(DiagramError, match="^invalid diagram: wall belongs to no pair$"):
        conjugate(d, d)


def test_equal_least_walks_reveal_symmetry():
    # any two walks of least text compose to an automorphism
    d = catalog.standard("s2xs2")
    variants = canonical_variants(d)
    least = min(v[0] for v in variants)
    circle_maps = {_compose(m1, m2).on_circles for t1, m1, _ in variants
                   for t2, m2, _ in variants if t1 == t2 == least}
    assert (("c1", "c1"), ("c2", "c2")) in circle_maps
    assert (("c1", "c2"), ("c2", "c1")) in circle_maps


def test_mirror_involution():
    for name in ("cp2", "s2xs2", "cp2-two-piece"):
        d = catalog.standard(name)
        assert mirror(mirror(d)) == d
        assert validate(mirror(d)).ok


def test_verify_rejects_tampered_sink_map():
    d = replace(catalog.s2xs2(), sink_count=2)
    assert validate(d).ok
    v = isomorphic(d, d)
    assert v.yes and verify_isomorphism(v.witness, d, d).ok
    w = v.witness
    for on_sinks in ((0, 0), (0,), (1, 2)):
        report = verify_isomorphism(replace(w, maps=replace(w.maps, on_sinks=on_sinks)), d, d)
        assert [(f.location, f.message) for f in report.findings] == [
            ("witness/sinks", "not a bijection")]


def test_verify_rejects_sink_map_breaking_incidence():
    d = replace(catalog.s1xs3(), sink_count=2, sink_incidence=((1,), (-1,)))
    assert validate(d).ok
    v = isomorphic(d, d)
    assert v.yes and verify_isomorphism(v.witness, d, d).ok
    w = v.witness
    report = verify_isomorphism(replace(w, maps=replace(w.maps, on_sinks=(1, 0))), d, d)
    assert [(f.location, f.message) for f in report.findings] == [
        ("witness/sinks", "incidence of sink 0 not preserved"),
        ("witness/sinks", "incidence of sink 1 not preserved"),
        ("witness", "maps disagree with the traversals")]


# ---------------------------------------------------------------------------
# conjugacy by coloured cycle types


def split_unknots_with_cycle(k, shift):
    """k split +1 unknots in one piece; the diffeomorphism sends i to i + shift."""
    d = split_unknots(k)
    ids = [c.id for c in d.circles]
    maps = InternalMaps(on_pieces=(("P1", "P1"),),
                        on_circles=tuple((ids[i], ids[(i + shift) % k]) for i in range(k)),
                        on_sinks=(0,))
    return replace(d, internal_maps=maps)


@pytest.mark.parametrize("k", range(4, 11))
def test_conjugate_k_cycles_never_no(k):
    # all k-cycles are conjugate and split unknots can be permuted by isotopy
    v = conjugate(split_unknots_with_cycle(k, 1), split_unknots_with_cycle(k, k - 1))
    assert not v.no, v.detail
    assert v.yes


def test_conjugate_is_not_fooled_by_a_kink():
    # circle colours are isotopy invariant, so a Reidemeister kink on one
    # circle cannot separate the circles of conjugate diffeomorphisms
    d = catalog.s2xs2()
    p = d.pieces[0]
    kinked = with_tangle(d, p.id, r1_plus(p.tangle, p.tangle.strands[0].id, 0, 1))
    assert isomorphic(d, kinked).yes
    d1, d2 = catalog.identity_diffeo(d), catalog.identity_diffeo(kinked)
    v = conjugate(d1, d2)
    assert v.yes, v.detail
    assert verify_isomorphism(v.witness, d1, d2).ok


def with_signed_surface(d, signs):
    """Split 0-framed unknots in the first piece, one per sign, and a disk
    surface whose boundary runs along each with that sign."""
    pid = d.pieces[0].id
    p = d.piece(pid)
    sids = [f"SF{i}" for i in range(len(signs))]
    code = replace(p.tangle, strands=p.tangle.strands + tuple(map(Strand, sids)))
    circles = tuple(GluedCircle(f"cF{i}", ((pid, sid),), 0) for i, sid in enumerate(sids))
    boundary = tuple(FramingParallel(c.id, s) for c, s in zip(circles, signs))
    return replace(with_tangle(d, pid, code), circles=d.circles + circles,
                   surfaces=d.surfaces + (SpanningSurface("FS", 0, boundary),))


def flip_surface(d, fid):
    """Every boundary sign of one surface negated: its 3-handle reversed."""
    j = [f.id for f in d.surfaces].index(fid)
    f = d.surfaces[j]
    f = replace(f, boundary=tuple(replace(i, sign=-i.sign) if isinstance(i, FramingParallel)
                                  else i for i in f.boundary))
    incidence = d.sink_incidence
    if incidence is not None:
        incidence = tuple(row[:j] + (-row[j],) + row[j + 1:] for row in incidence)
    return replace(d, surfaces=d.surfaces[:j] + (f,) + d.surfaces[j + 1:],
                   sink_incidence=incidence)


def reverse_pair(d, qid):
    """One pair with its walls swapped and its matching inverted: the same gluing."""
    def flip(q):
        if q.id != qid:
            return q
        matching = [0] * len(q.matching)
        for i, j in enumerate(q.matching):
            matching[j] = i
        return replace(q, wall_a=q.wall_b, wall_b=q.wall_a, matching=tuple(matching))
    return replace(d, pairs=tuple(map(flip, d.pairs)))


def test_conjugate_ignores_the_signs_of_a_surface():
    # the colours that conjugate compares read no boundary signs: with them,
    # refinement orders c3 below c1, c2 in one diagram and above in the other
    d = catalog.identity_diffeo(with_signed_surface(split_unknots(0), (1, 1, -1)))
    flipped = flip_surface(d, "FS")
    assert validate(flipped).ok
    assert not conjugate(d, flipped).no


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["kirby", "multi"]),
       st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4))
def test_conjugate_ignores_orientation_choices(seed, kind, signs):
    # flipping every sign of one surface and reversing one pair present the
    # same manifold and map, so they never make conjugate answer No
    rng = random.Random(seed)
    generate = helpers.random_kirby_diagram if kind == "kirby" else \
        helpers.random_multipiece_diagram
    d = catalog.identity_diffeo(with_signed_surface(generate(rng), signs))
    d2 = flip_surface(d, "FS")
    if d.pairs:
        d2 = reverse_pair(d2, rng.choice(d.pairs).id)
    d2 = helpers.random_relabel(d2, rng)
    assert validate(d2).ok
    assert not conjugate(d, d2).no


def has_commuting_bijection(f1, f2, key1, key2):
    """Brute force over all bijections phi: does one keep colours and commute?"""
    if len(f1) != len(f2):
        return False
    xs = list(f1)
    for image in itertools.permutations(f2):
        phi = dict(zip(xs, image))
        if all(key2[phi[x]] == key1[x] and f2[phi[x]] == phi[f1[x]] for x in xs):
            return True
    return False


@st.composite
def coloured_permutations(draw):
    """Two coloured permutations of up to 6 elements and up to 3 colours.

    Half the time the second is a relabelled copy of the first, so that both
    answers occur often; otherwise its size, cycles and colours are drawn
    afresh.
    """
    n = draw(st.integers(0, 6))
    colours = st.integers(0, draw(st.integers(0, 2)))
    f1 = draw(st.permutations(range(n)))
    c1 = draw(st.lists(colours, min_size=n, max_size=n))
    if draw(st.booleans()):
        sigma = draw(st.permutations(range(n)))
        f2, c2 = [0] * n, [0] * n
        for x in range(n):
            f2[sigma[x]] = sigma[f1[x]]
            c2[sigma[x]] = c1[x]
    else:
        m = draw(st.integers(max(n - 1, 0), min(n + 1, 6)))
        f2 = draw(st.permutations(range(m)))
        c2 = draw(st.lists(colours, min_size=m, max_size=m))
    return (dict(enumerate(f1)), {f"y{x}": f"y{y}" for x, y in enumerate(f2)},
            dict(enumerate(c1)), {f"y{x}": c for x, c in enumerate(c2)})


@settings(max_examples=500, deadline=None)
@given(coloured_permutations())
def test_coloured_cycle_types_match_brute_force(case):
    f1, f2, key1, key2 = case
    types = [Counter(c for c, _ in _coloured_cycles(f, key.__getitem__))
             for f, key in ((f1, key1), (f2, key2))]
    assert (types[0] == types[1]) == has_commuting_bijection(f1, f2, key1, key2)
    # the cycles cover f1 once, follow it, and carry their keys as colours
    cycles = list(_coloured_cycles(f1, key1.__getitem__))
    assert sorted(x for _, cycle in cycles for x in cycle) == sorted(f1)
    for colour, cycle in cycles:
        assert colour == tuple(key1[x] for x in cycle)
        assert all(f1[x] == cycle[(i + 1) % len(cycle)] for i, x in enumerate(cycle))


def diffeo_diagrams():
    def build(args):
        seed, kind = args
        rng = random.Random(seed)
        if kind == "swap":
            d = catalog.standard("swap-diffeo")
        elif kind == "incidence":
            # two sinks told apart only by their incidence rows
            d = catalog.identity_diffeo(replace(catalog.s1xs3(), sink_count=2,
                                                sink_incidence=((1,), (-1,))))
        elif kind == "multi":
            d = catalog.identity_diffeo(helpers.random_multipiece_diagram(rng))
        else:
            d = catalog.identity_diffeo(helpers.random_kirby_diagram(rng))
        d2 = helpers.random_relabel(d, rng)
        if kind == "sinks":
            # no surfaces, so three sinks need no incidence block; the copy
            # also renumbers its sinks by sigma
            f, sigma = list(range(3)), list(range(3))
            rng.shuffle(f)
            rng.shuffle(sigma)
            on_sinks = [0] * 3
            for i in range(3):
                on_sinks[sigma[i]] = sigma[f[i]]
            d = replace(d, sink_count=3, internal_maps=replace(d.internal_maps, on_sinks=tuple(f)))
            d2 = replace(d2, sink_count=3,
                         internal_maps=replace(d2.internal_maps, on_sinks=tuple(on_sinks)))
        return kind, d, d2

    return st.tuples(st.integers(0, 2**32 - 1),
                     st.sampled_from(["kirby", "multi", "swap", "sinks", "incidence"])).map(build)


@settings(max_examples=60, deadline=None)
@given(diffeo_diagrams())
def test_conjugate_relabelled_copy_is_never_no(case):
    kind, d1, d2 = case
    v = conjugate(d1, d2)
    assert not v.no, v.detail
    # only the circle-id tie-break of multi-piece walks may leave it Unknown
    assert v.yes or kind == "multi", (kind, v.detail)
    if v.yes:
        w = v.witness
        assert verify_isomorphism(w, d1, d2).ok
        i1, i2, wm = d1.internal_maps, d2.internal_maps, w.maps
        for m, f1, f2 in ((wm.pieces(), i1.pieces(), i2.pieces()),
                          (wm.pairs(), i1.pairs(), i2.pairs()),
                          (wm.circles(), i1.circles(), i2.circles()),
                          (wm.surfaces(), i1.surfaces(), i2.surfaces()),
                          (dict(enumerate(wm.on_sinks)), dict(enumerate(i1.on_sinks)),
                           dict(enumerate(i2.on_sinks)))):
            assert all(f2[m[a]] == m[b] for a, b in f1.items())


@settings(max_examples=40, deadline=None)
@given(diffeo_diagrams())
def test_conjugate_yes_is_the_isomorphism_witness(case):
    _, d1, d2 = case
    v, iso = conjugate(d1, d2), isomorphic(d1, d2)
    assert v.yes == iso.yes
    if v.yes:
        assert (v.witness.plan1, v.witness.plan2, v.witness.canonical_text) == \
            (iso.witness.plan1, iso.witness.plan2, iso.witness.canonical_text)


# ---------------------------------------------------------------------------
# the witness checker names each tampered field


def witness_fixture():
    """Split unknots framed 1, 2, 0, 0 in P1; Q1 and Q2 join P1 and P2 with
    opposite orientation flags, Q3 joins P1 and P3; a sphere and a torus."""
    walls = {"P1": ("W1", "W2", "W3"), "P2": ("W1", "W2"), "P3": ("W1",)}
    strands = tuple(Strand(f"S{i}") for i in range(1, 5))
    pieces = tuple(Piece(p, TangleCode(strands=strands if p == "P1" else ()),
                         tuple(SphereWall(w) for w in ws)) for p, ws in walls.items())
    pairs = (SpherePair("Q1", ("P1", "W1"), ("P2", "W1")),
             SpherePair("Q2", ("P1", "W2"), ("P2", "W2"), orientation=-1),
             SpherePair("Q3", ("P1", "W3"), ("P3", "W1")))
    circles = tuple(GluedCircle(f"c{i}", (("P1", f"S{i}"),), f)
                    for i, f in enumerate((1, 2, 0, 0), 1))
    return Diagram(pieces, pairs, circles, (SpanningSurface("F1", 0), SpanningSurface("F2", 1)))


def test_verify_names_each_tampered_witness_field():
    d1 = witness_fixture()
    d2 = random_relabel(d1, random.Random(3))
    v = isomorphic(d1, d2)
    assert v.yes and verify_isomorphism(v.witness, d1, d2).ok
    w = v.witness

    def swap(name, a, b):
        m = dict(getattr(w.maps, name))
        m[a], m[b] = m[b], m[a]
        return replace(w, maps=replace(w.maps, **{name: tuple(sorted(m.items()))}))

    stale = ("witness", "maps disagree with the traversals")
    texts = ("witness", "canonical texts do not match")
    cases = [
        (swap("on_circles", "c1", "c2"),
         [("witness/circles", "framing of c1 not preserved"),
          ("witness/circles", "framing of c2 not preserved"), stale]),
        (swap("on_surfaces", "F1", "F2"),
         [("witness/surfaces", "genus of F1 not preserved"),
          ("witness/surfaces", "genus of F2 not preserved"), stale]),
        (swap("on_pairs", "Q1", "Q3"),
         [("witness/pairs", f"pair Q1 does not map onto {w.maps.pairs()['Q3']}"),
          ("witness/pairs", f"pair Q3 does not map onto {w.maps.pairs()['Q1']}"), stale]),
        (swap("on_pairs", "Q1", "Q2"),
         [("witness/pairs", "orientation flag of Q1 not preserved"),
          ("witness/pairs", "orientation flag of Q2 not preserved"), stale]),
        (replace(w, mirror=True),
         [("witness/circles", "framing of c1 not preserved"),
          ("witness/circles", "framing of c2 not preserved"), texts]),
        (replace(w, moves1=(("P1", RMove("r1-", ("x9",))),)),
         [("witness/moves", "replay failed: no R1 kink at crossing x9")]),
        (replace(w, plan1=w.plan1[::-1]), [texts]),
        (replace(w, canonical_text=w.canonical_text + "#"), [texts]),
        # c3 and c4 are alike, so only the traversals tell the maps apart
        (swap("on_circles", "c3", "c4"), [stale]),
    ]
    for tampered, findings in cases:
        report = verify_isomorphism(tampered, d1, d2)
        assert [(f.location, f.message) for f in report.findings] == findings


def test_verify_reports_a_malformed_plan():
    # a plan that the walk cannot follow is a finding, not an exception
    d = catalog.s2xs2()
    w = isomorphic(d, d).witness
    (c, dr, r), rest = w.plan1[0], w.plan1[1:]
    bad = [("witness", "a plan is not one start per circle")]
    for tampered in (replace(w, plan1=w.plan1[:1]), replace(w, plan2=()),
                     replace(w, plan1=(("zz", dr, r),) + rest),
                     replace(w, plan1=((c, 5, r),) + rest)):
        report = verify_isomorphism(tampered, d, d)
        assert [(f.location, f.message) for f in report.findings] == bad


def closure_diagram(code, framings):
    """One piece holding code, each strand one circle with its framing."""
    return Diagram(pieces=(Piece("P1", code),), circles=tuple(
        GluedCircle(f"c{i + 1}", (("P1", s.id),), f)
        for i, (s, f) in enumerate(zip(code.strands, framings))))


def r3_pair(framing=0):
    """A braid closure with an R3 triangle left after reduction, and a
    relabelled copy after one R3 move: isotopic diagrams that greedy
    reduction and one detour do not bring to one canonical form.  Every
    circle has the given framing."""
    code = braid_closure([(1, -1), (2, 1), (1, 1), (1, 1), (1, 1), (2, 1)], 3)
    assert simplify_with_log(code, {})[0] == code and find_r3(code, {})[0] == ("x1", "x2", "x3")
    framings = [framing] * len(code.strands)
    return (closure_diagram(code, framings),
            random_relabel(closure_diagram(r3(code, ("x1", "x2", "x3"), {}), framings),
                           random.Random(5)))


def seeded_r3_pairs():
    """r3_pair over seeds 0-299 of 4-lane braid closures that keep an R3
    triangle after reduction, each circle framed -1, 0 or +1."""
    for seed in range(300):
        rng = random.Random(seed)
        word = [(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(4, 12))]
        code = simplify_with_log(braid_closure(word, 4), {})[0]
        triples = find_r3(code, {})
        if triples:
            framings = [rng.choice((-1, 0, 1)) for _ in code.strands]
            yield (closure_diagram(code, framings),
                   random_relabel(closure_diagram(r3(code, triples[0], {}), framings), rng))


def test_isomorphic_is_unknown_past_one_r3_move(tmp_path):
    d1, d2 = r3_pair()
    assert separating_invariant(d1, d2) is None
    assert isomorphic(d1, d2).unknown
    paths = []
    for name, d in (("a", d1), ("b", d2)):
        paths.append(str(tmp_path / f"{name}.msd"))
        (tmp_path / f"{name}.msd").write_text(msd_format.serialize(d))
    out = helpers.run_msd("equiv", *paths)
    assert out.returncode == 2, out.stderr
    assert out.stdout.startswith("Unknown: ")


def test_mirror_no_needs_both_sides_separated(tmp_path):
    # mirror(d2)'s -1 framings separate it from d1, but its mirror, d2, is
    # separated by nothing and only an R3 move away: not a No
    d1, d2 = r3_pair(framing=1)
    m2 = mirror(d2)
    assert isomorphic(d1, m2).detail == "separated by framing multiset"
    assert isomorphic(d1, mirror(m2)).unknown
    v = isomorphic(d1, m2, allow_mirror=True)
    assert v.unknown and v.witness is None
    paths = []
    for name, d in (("a", d1), ("b", m2)):
        paths.append(str(tmp_path / f"{name}.msd"))
        (tmp_path / f"{name}.msd").write_text(msd_format.serialize(d))
    out = helpers.run_msd("equiv", "--mirror", *paths)
    assert out.returncode == 2, out.stderr
    assert out.stdout.startswith("Unknown: ")


def test_mirror_no_only_where_both_sides_are_no():
    pairs = [(d1, b) for d1, d2 in seeded_r3_pairs() for b in (d2, mirror(d2))]
    for seed in range(40):
        d = helpers.random_kirby_diagram(random.Random(seed))
        other = helpers.random_kirby_diagram(random.Random(seed + 1000))
        d2 = random_relabel(d, random.Random(seed))
        pairs += [(d, d2), (d, mirror(d2)), (d, other), (d, mirror(other))]
    seen = Counter()
    for d1, d2 in pairs:
        v = isomorphic(d1, d2, allow_mirror=True)
        assert v.no == (isomorphic(d1, d2).no and isomorphic(d1, mirror(d2)).no)
        seen[v.value] += 1
    assert seen["Yes"] and seen["No"] and seen["Unknown"], seen


def test_mirror_fingerprints_each_diagram_once(monkeypatch):
    calls = Counter()
    for name in ("_fingerprint", "mirror"):
        fn = getattr(equivalence, name)
        monkeypatch.setattr(equivalence, name,
                            lambda d, fn=fn, name=name: calls.update([name]) or fn(d))
    v = isomorphic(catalog.standard("cp2"), catalog.standard("cp2-mirror"), allow_mirror=True)
    assert v.yes and v.witness.mirror
    assert calls == {"_fingerprint": 3, "mirror": 1}


def test_every_unknown_names_an_incomplete_method_or_a_cap():
    method = r"incomplete method: (.* )?greedy R1/R2 reduction with single R3 detours .*"
    cap = r"cap reached: no empty diagram within depth \d+ and \d+ handle slides per diagram"
    verdicts = []
    for d1, d2 in seeded_r3_pairs():
        verdicts += [("isomorphic", isomorphic(d1, d2)),
                     ("isomorphic", isomorphic(d1, mirror(d2), allow_mirror=True)),
                     ("conjugate", conjugate(catalog.identity_diffeo(d1),
                                             catalog.identity_diffeo(d2)))]
    for seed in range(60):
        for generate in (helpers.random_kirby_diagram, helpers.random_multipiece_diagram):
            d = generate(random.Random(seed))
            verdicts.append(("isomorphic", isomorphic(d, random_relabel(d, random.Random(seed)))))
            if not d.pairs and not d.surfaces:
                verdicts.append(("recognize_s3", recognize_s3(d, 1)))
    unknown = [(name, v) for name, v in verdicts if v.unknown]
    assert {name for name, _ in unknown} == {"isomorphic", "conjugate", "recognize_s3"}
    for name, v in unknown:
        assert v.witness is None, (name, v)
        assert re.fullmatch(method, v.detail) or re.fullmatch(cap, v.detail), (name, v.detail)
