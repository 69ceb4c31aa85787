"""Acceptance suite: one test per criterion, exact equalities, timed.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass lines.
"""

import random
import time

from helpers import (
    plant_cancelling_pair,
    random_kirby_diagram,
    random_multipiece_diagram,
    random_relabel,
    random_slide_band,
    run_msd,
    set_framing,
)

from msdiagram import catalog
from msdiagram.calculus import (
    RefusalError,
    apply_move,
    blow_down,
    blow_up,
    handle_slide,
    recognize_s3,
)
from msdiagram.core import (
    Diagram,
    GluedCircle,
    Piece,
    handle_counts,
    validate,
)
from msdiagram.equivalence import conjugate, isomorphic, verify_isomorphism
from msdiagram.format import parse, serialize
from msdiagram.invariants import (
    annotated_homology,
    det,
    euler_characteristic,
    homology,
    intersection_form,
    linking_matrix,
    signature,
    surgered_h1,
)
from msdiagram.reduction import merge_pieces, reduce_pipeline, to_kirby
from msdiagram.tangle import MoveError, Strand, TangleCode


def betti(d):
    return tuple(b for b, _ in homology(d))


def report(n, elapsed, budget, detail):
    print(f"\n[criterion {n}] PASS in {elapsed:.2f}s (< {budget}s): {detail}")


def test_criterion_1_catalog_goldens():
    t0 = time.time()
    d = catalog.standard("s4-polar")
    assert euler_characteristic(d) == 2 and betti(d) == (1, 0, 0, 0, 1)

    d = catalog.standard("cp2")
    assert euler_characteristic(d) == 3 and betti(d) == (1, 0, 1, 0, 1)
    assert intersection_form(d) == [[1]]

    d = catalog.standard("s2xs2")
    assert euler_characteristic(d) == 4 and betti(d) == (1, 0, 2, 0, 1)
    assert intersection_form(d) == [[0, 1], [1, 0]]

    d = catalog.standard("s1xs3")
    assert euler_characteristic(d) == 0 and betti(d) == (1, 1, 0, 1, 1)

    for n in (1, 2, 3, 4):
        d = catalog.standard(f"n-s1s3({n})")
        assert betti(d)[1] == n
        assert euler_characteristic(d) == 2 - 2 * n
        assert all(t == () for _, t in homology(d))

    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, elapsed, 1, "catalog homology, Euler characteristics and forms exact")


def test_criterion_2_move_invariance():
    t0 = time.time()
    rng = random.Random(2024)
    n_diagrams = 0
    n_blowups = n_blowdowns = n_slides = 0
    while n_diagrams < 200:
        d = random_kirby_diagram(rng)
        n_diagrams += 1
        base_det = abs(det(linking_matrix(d).as_list()))
        base_h1 = surgered_h1(d)
        base_chi = euler_characteristic(d)
        base_form = intersection_form(d)

        sign = rng.choice([1, -1])
        up = blow_up(d, "P1", 0, sign)
        assert validate(up).ok
        assert euler_characteristic(up) == base_chi + 1
        form = intersection_form(up)
        k = len(base_form)
        assert [row[:k] for row in form[:k]] == base_form
        assert form[k][k] == sign
        assert all(form[k][j] == 0 and form[j][k] == 0 for j in range(k))
        assert abs(det(form)) == base_det
        assert surgered_h1(up) == base_h1
        n_blowups += 1

        for c in d.circles:
            if c.framing in (1, -1):
                try:
                    down = blow_down(d, c.id)
                except (RefusalError, MoveError):
                    continue
                assert validate(down).ok
                assert abs(det(linking_matrix(down).as_list())) == base_det
                assert surgered_h1(down) == base_h1
                n_blowdowns += 1
                break

        band = random_slide_band(d, rng)
        if band is not None:
            try:
                slid = handle_slide(d, *band)
            except MoveError:
                slid = None
            if slid is not None:
                assert validate(slid).ok
                assert abs(det(linking_matrix(slid).as_list())) == base_det
                assert surgered_h1(slid) == base_h1
                assert euler_characteristic(slid) == base_chi
                n_slides += 1

    assert n_blowups >= 200
    assert n_blowdowns >= 80
    assert n_slides >= 80
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, elapsed, 30,
           f"{n_diagrams} diagrams; {n_blowups} blow-ups, {n_blowdowns} "
           f"blow-downs, {n_slides} slides all preserve |det| and H1")


def unknots(framings):
    strands = tuple(Strand(f"S{i + 1}") for i in range(len(framings)))
    circles = tuple(GluedCircle(f"c{i + 1}", (("P1", f"S{i + 1}"),), f)
                    for i, f in enumerate(framings))
    return Diagram(pieces=(Piece("P1", TangleCode(strands=strands)),),
                   circles=circles, sink_count=1)


def test_criterion_3_recognizer():
    t0 = time.time()
    for f in (1, -1):
        v = recognize_s3(unknots([f]), 1)
        assert v.yes and len(v.witness) == 1

    for k in (2, 3, 4):
        framings = [rngf for rngf in ((-1) ** i for i in range(k))]
        v = recognize_s3(unknots(framings), k)
        assert v.yes and len(v.witness) == k

    v = recognize_s3(unknots([0]), 3)
    assert v.no and "det" in v.witness

    rng = random.Random(7)
    produced = 0
    while produced < 50:
        d = catalog.standard("s4-polar")
        moves = rng.randint(1, 3)
        applied = 0
        for _ in range(moves):
            if applied and rng.random() < 0.3:
                band = random_slide_band(d, rng)
                if band is not None:
                    try:
                        d = handle_slide(d, *band)
                        applied += 1
                        continue
                    except MoveError:
                        pass
            d = blow_up(d, "P1", 0, rng.choice([1, -1]))
            applied += 1
        produced += 1
        v = recognize_s3(d, 3)
        assert not v.no  # |det| = 1 throughout, No would be unsound
        assert v.yes, f"diagram from {applied} inverse moves not recognized"
        cur = d
        for mv in v.witness:
            cur = apply_move(cur, mv)
        assert cur.circles == ()
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, elapsed, 30,
           "single and chained unknots, det obstruction, and 50 random "
           "inverse-move diagrams recognized")


def test_criterion_4_reduction_pipeline():
    from msdiagram.reduction import (
        delete_superfluous,
        find_superfluous_surface,
        merge_all,
    )

    t0 = time.time()
    rng = random.Random(11)
    for _ in range(50):
        d = random_multipiece_diagram(rng)
        pieces0 = len(d.pieces)
        before = homology(d)
        merges = 0
        while len(d.pieces) > 1:
            external = sorted(q.id for q in d.pairs if q.wall_a[0] != q.wall_b[0])
            d = merge_pieces(d, external[0])
            merges += 1
            assert homology(d) == before  # preserved at every step
        assert merges == pieces0 - 1
        log = []
        assert len(merge_all(d, log).pieces) == 1 and log == []  # already done

    # planted cancelling pairs delete away with the chain complex fixed
    rng = random.Random(13)
    for i in range(30):
        d = merge_all(plant_cancelling_pair(random_multipiece_diagram(rng), rng))
        before = homology(d)
        chi = euler_characteristic(d)
        deleted = 0
        while True:
            found = find_superfluous_surface(d)
            if found is None:
                break
            d = delete_superfluous(d, *found)
            deleted += 1
            assert homology(d) == before
            assert euler_characteristic(d) == chi
        assert deleted >= 1
        # Kirby form keeps the exactly recomputable invariants
        out = to_kirby(d)
        assert annotated_homology(out)[0] == before[0]
        assert annotated_homology(out)[1] == before[1]

    d = catalog.standard("s4-with-cancelling-pair")
    out = reduce_pipeline(d)
    assert handle_counts(out)[:4] == (1, 0, 0, 0)
    assert annotated_homology(out) == homology(catalog.standard("s4-polar"))

    out = to_kirby(catalog.standard("s1xs3"))
    ann = out.annotation
    assert (ann.one_handles, ann.three_handles, ann.sinks) == (1, 1, 1)
    assert annotated_homology(out) == homology(catalog.standard("s1xs3"))
    assert annotated_homology(out)[1] == (1, ())  # H1 = Z preserved
    elapsed = time.time() - t0
    assert elapsed < 20.0
    report(4, elapsed, 20,
           "50 merge chains at pieces-1 steps and 30 planted cancellations "
           "keep homology; Kirby annotation exact")


def test_criterion_5_equivalence():
    t0 = time.time()
    rng = random.Random(5)
    cases = 0
    while cases < 100:
        d = random_kirby_diagram(rng, max_circles=3, max_crossings=4)
        from helpers import perturb_code

        d2 = perturb_code(random_relabel(d, rng), rng, moves=rng.randint(1, 2),
                          max_crossings=6)
        crossings = sum(len(p.tangle.crossings) for p in d2.pieces)
        assert crossings <= 6
        v = isomorphic(d, d2)
        assert v.yes, (serialize(d), serialize(d2), v.detail)
        assert verify_isomorphism(v.witness, d, d2).ok
        cases += 1

    # No on a framing-multiset mismatch
    rng2 = random.Random(6)
    for _ in range(10):
        d = random_kirby_diagram(rng2, max_circles=3, max_crossings=4)
        changed = set_framing(d, d.circles[0].id, d.circles[0].framing + 7)
        v = isomorphic(d, changed)
        assert v.no and "framing" in v.witness

    # No on congruence invariants with matching handle counts
    two_plus = unknots([1, 1])
    v = isomorphic(catalog.standard("s2xs2"), two_plus)
    assert v.no
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(5, elapsed, 30,
           "100 relabeled+perturbed copies Yes with verified witnesses; "
           "framing and congruence mismatches No")


def test_criterion_6_conjugacy():
    t0 = time.time()
    rng = random.Random(3)
    d1 = catalog.standard("swap-diffeo")
    d2 = random_relabel(d1, rng)
    v = conjugate(d1, d2)
    assert v.yes

    d_id = catalog.identity_diffeo(catalog.standard("s2xs2"))
    v = conjugate(d1, d_id)
    assert v.no
    assert "exhaustive" in v.detail  # the enumeration is logged as exhaustive
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(6, elapsed, 5,
           f"swap-diffeo conjugate to relabeled copy; vs identity maps: No "
           f"({v.detail})")


def test_criterion_7_serialization_and_cli(tmp_path):
    t0 = time.time()
    names = ["s4-polar", "cp2", "cp2-mirror", "s2xs2", "s1xs3", "swap-diffeo",
             "s4-with-cancelling-pair", "cp2-two-piece", "n-s1s3(2)", "n-s1s3(4)"]
    for name in names:
        d = catalog.standard(name)
        text = serialize(d)
        assert parse(text) == d
        assert serialize(parse(text)) == text

    rng = random.Random(77)
    for i in range(100):
        d = (random_kirby_diagram(rng) if i % 2 == 0
             else random_multipiece_diagram(rng))
        text = serialize(d)
        assert parse(text) == d
        assert serialize(parse(text)) == text

    # exit-code contract, one spawn per command family
    def run(*args):
        return run_msd(*args).returncode

    cp2 = tmp_path / "cp2.msd"
    cp2.write_text(serialize(catalog.standard("cp2")))
    neg = tmp_path / "neg.msd"
    neg.write_text(serialize(catalog.standard("cp2-mirror")))
    zero = tmp_path / "zero.msd"
    zero.write_text(serialize(set_framing(catalog.standard("cp2"), "c1", 0)))
    bad = tmp_path / "bad.msd"
    bad.write_text("msd 1\npiece P1\nsinks 0\n")
    swap = tmp_path / "swap.msd"
    swap.write_text(serialize(catalog.standard("swap-diffeo")))

    assert run("validate", str(cp2)) == 0
    assert run("validate", str(bad)) == 1
    assert run("invariants", str(cp2)) == 0
    assert run("reduce", str(cp2), "-o", str(tmp_path / "out.msd")) == 0
    assert run("recognize-s3", str(cp2), "--depth", "1") == 0
    assert run("recognize-s3", str(zero), "--depth", "1") == 1
    assert run("recognize-s3", str(cp2), "--depth", "0") == 2
    assert run("equiv", str(cp2), str(cp2)) == 0
    assert run("equiv", str(cp2), str(neg)) == 1
    assert run("conj", str(swap), str(swap)) == 0
    assert run("catalog", "s2xs2", "-o", str(tmp_path / "cat.msd")) == 0
    assert run("catalog", "nonsense") == 3
    assert run("render", str(cp2), "-o", str(tmp_path / "pic.svg")) == 0
    assert run("validate", "does-not-exist.msd") == 3
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(7, elapsed, 5,
           "catalog and 100 random diagrams round-trip byte-exact; CLI exit "
           "codes match verdicts")
