"""Homology, linking matrices, intersection forms and the surgery presentation."""

import io
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import plant_cancelling_pair, random_kirby_diagram, random_multipiece_diagram
from msdiagram import catalog, cli, invariants
from msdiagram.core import Diagram, DiagramError, GluedCircle, Piece, validate
from msdiagram.format import serialize
from msdiagram.invariants import (
    ChainComplex,
    annotated_homology,
    chain_complex,
    det,
    euler_characteristic,
    homology,
    intersection_form,
    linking_matrix,
    signature,
    smith_normal_form,
    surgered_h1,
    surgery_presentation,
)
from msdiagram.tangle import Strand, TangleCode
from test_reduction import ring


# --- exact linear algebra, checked against independent oracles -------------


def frac_rank(m):
    """Row-reduction rank over Q, independent of the Smith form route."""
    m = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_snf_small_cases():
    assert smith_normal_form([[0]]) == []
    assert smith_normal_form([[1]]) == [1]
    assert smith_normal_form([[2]]) == [2]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == [1, 3]


def test_snf_vs_rank_and_det_random():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        snf = smith_normal_form(a)
        assert sum(1 for x in snf if x) == frac_rank(a)
        for i in range(len(snf) - 1):
            if snf[i]:
                assert snf[i + 1] % snf[i] == 0
        if n == m:
            prod = 1
            for x in snf:
                prod *= x
            assert abs(det(a)) == prod if all(snf) else det(a) == 0


def test_det_known():
    assert det([]) == 1
    assert det([[5]]) == 5
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [3, 4]]) == -2


def test_signature_known():
    assert signature([[1]]) == 1
    assert signature([[-1]]) == -1
    assert signature([[0, 1], [1, 0]]) == 0
    assert signature([[1, 0], [0, -1]]) == 0
    assert signature([[2, 1], [1, 2]]) == 2
    assert signature([[0, 0], [0, 0]]) == 0
    # singular forms: the pivot row must stay intact while later rows use it
    assert signature([[1, 1, 1]] * 3) == 1
    assert signature([[1, 1], [1, 1]]) == 1
    assert signature([[1, 0, 0], [0, 1, 0], [0, 0, 0]]) == 2


def test_signature_vs_eigen_sign_count():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-4, 4)
        # oracle: count sign changes in the sequence of leading principal
        # minors when all are nonzero (Jacobi), else fall back to a
        # congruence-by-perturbation check via rank bounds
        sig = signature(a)
        assert abs(sig) <= frac_rank(a)
        assert (sig - frac_rank(a)) % 2 == 0


def fraction_signature(a):
    """Signature by symmetric pivoting over Q, independent of the integer route."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    idx = list(range(n))
    sig = 0
    while idx:
        p = next((i for i in idx if m[i][i] != 0), None)
        if p is None:
            off = next(((i, j) for i in idx for j in idx if i != j and m[i][j] != 0), None)
            if off is None:
                break
            i, j = off
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            continue
        sig += 1 if m[p][p] > 0 else -1
        for i in idx:
            if i != p and m[i][p] != 0:
                f = m[i][p] / m[p][p]
                for j in idx:
                    if j != p:
                        m[i][j] -= f * m[p][j]
                m[i][p] = Fraction(0)
        for j in idx:
            if j != p:
                m[p][j] = Fraction(0)
        idx.remove(p)
    return sig


def test_signature_matches_rational_pivoting():
    rng = random.Random(20)
    for _ in range(6000):
        n = rng.randint(0, 9)
        density, bound = rng.random(), rng.choice((1, 3, 9, 100))
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < density:
                    a[i][j] = a[j][i] = rng.randint(-bound, bound)
        if rng.random() < 0.3:  # zero diagonal: the hyperbolic step runs
            for i in range(n):
                a[i][i] = 0
        assert signature(a) == fraction_signature(a), a


# --- catalog goldens ---------------------------------------------------------


def betti(d):
    return tuple(b for b, _ in homology(d))


def test_homology_s4():
    assert betti(catalog.standard("s4-polar")) == (1, 0, 0, 0, 1)
    assert all(t == () for _, t in homology(catalog.standard("s4-polar")))


def test_homology_cp2():
    d = catalog.standard("cp2")
    assert betti(d) == (1, 0, 1, 0, 1)
    assert euler_characteristic(d) == 3
    assert intersection_form(d) == [[1]]
    assert signature(intersection_form(d)) == 1


def test_homology_s2xs2():
    d = catalog.standard("s2xs2")
    assert betti(d) == (1, 0, 2, 0, 1)
    assert euler_characteristic(d) == 4
    assert intersection_form(d) == [[0, 1], [1, 0]]
    assert signature(intersection_form(d)) == 0


def test_homology_s1xs3():
    d = catalog.standard("s1xs3")
    assert betti(d) == (1, 1, 0, 1, 1)
    assert euler_characteristic(d) == 0


def test_homology_n_s1xs3():
    for n in (1, 2, 3, 4):
        d = catalog.standard(f"n-s1s3({n})")
        assert betti(d) == (1, n, 0, n, 1)
        assert euler_characteristic(d) == 2 - 2 * n


def test_homology_cancelling_pair_is_s4():
    d = catalog.standard("s4-with-cancelling-pair")
    assert betti(d) == (1, 0, 0, 0, 1)
    assert euler_characteristic(d) == 2


def test_euler_equals_alternating_betti_sum():
    for name in ("s4-polar", "cp2", "s2xs2", "s1xs3", "n-s1s3(2)",
                 "s4-with-cancelling-pair", "cp2-two-piece"):
        d = catalog.standard(name)
        hs = homology(d)
        assert euler_characteristic(d) == sum((-1) ** k * b for k, (b, _) in enumerate(hs))


def test_poincare_duality_betti_on_catalog():
    for name in ("s4-polar", "cp2", "s2xs2", "s1xs3", "n-s1s3(3)",
                 "s4-with-cancelling-pair", "cp2-two-piece"):
        b = betti(catalog.standard(name))
        assert b[0] == b[4] == 1
        assert b[1] == b[3]


def mat_mul(a, b):
    assert len(a[0]) == len(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def test_chain_complex_composes_to_zero():
    for name in ("cp2", "s1xs3", "cp2-two-piece", "s4-with-cancelling-pair", "n-s1s3(2)"):
        cx = chain_complex(catalog.standard(name))
        if cx.d1 and cx.d2 and cx.d2[0]:
            assert is_zero(mat_mul(cx.d1, cx.d2))
        if cx.d2 and cx.d3 and cx.d3[0]:
            assert is_zero(mat_mul(cx.d2, cx.d3))
        if cx.d3 and cx.d4 and cx.d4[0]:
            assert is_zero(mat_mul(cx.d3, cx.d4))


def test_chain_complex_ranks():
    assert chain_complex(catalog.standard("cp2")).dims == (1, 0, 1, 0, 1)
    assert chain_complex(catalog.standard("s1xs3")).dims == (1, 1, 0, 1, 1)


def test_linking_matrix_catalog():
    assert linking_matrix(catalog.standard("cp2")).as_list() == [[1]]
    assert linking_matrix(catalog.standard("s2xs2")).as_list() == [[0, 1], [1, 0]]


def test_linking_matrix_split_framings():
    d = Diagram(
        pieces=(Piece("P1", TangleCode(strands=(Strand("S1"), Strand("S2")))),),
        circles=(GluedCircle("c1", (("P1", "S1"),), framing=2),
                 GluedCircle("c2", (("P1", "S2"),), framing=3)),
        sink_count=1)
    assert linking_matrix(d).as_list() == [[2, 0], [0, 3]]


def test_intersection_form_requires_kirby_form():
    with pytest.raises(Exception):
        intersection_form(catalog.standard("s1xs3"))


# --- the surgered 3-manifold -------------------------------------------------


def unknot_with_framing(f):
    return Diagram(
        pieces=(Piece("P1", TangleCode(strands=(Strand("S1"),))),),
        circles=(GluedCircle("c1", (("P1", "S1"),), framing=f),),
        sink_count=1)


def test_surgered_h1_examples():
    assert surgered_h1(catalog.standard("s4-polar")) == (0, ())   # S^3
    assert surgered_h1(unknot_with_framing(0)) == (1, ())          # S^1 x S^2
    assert surgered_h1(unknot_with_framing(1)) == (0, ())          # S^3
    assert surgered_h1(unknot_with_framing(-1)) == (0, ())
    assert surgered_h1(unknot_with_framing(5)) == (0, (5,))        # lens space
    assert surgered_h1(catalog.standard("s1xs3")) == (1, ())       # S^1 x S^2 again


def test_surgery_presentation_fields():
    pres = surgery_presentation(catalog.standard("s1xs3"))
    assert pres.pairs == ("Q1",)
    assert pres.tree_pairs == ()  # a self-pair is a loop edge, never in the forest
    assert pres.sphere_count == 1
    pres2 = surgery_presentation(catalog.standard("cp2-two-piece"))
    assert pres2.tree_pairs == ("Q1",)
    assert pres2.h1() == (0, ())


def test_annotated_homology_plain_passthrough():
    d = catalog.standard("cp2")
    assert annotated_homology(d) == homology(d)


def test_multi_sink_needs_incidence():
    base = catalog.standard("s1xs3")
    two_sinks = replace(base, sink_count=2)
    report = validate(two_sinks)
    assert [(f.location, f.message) for f in report.findings] == [
        ("sinks", "multi-sink diagram with surfaces needs an explicit sink incidence block")]
    with pytest.raises(DiagramError, match="sink incidence block"):
        homology(two_sinks)
    witnessed = replace(two_sinks, sink_incidence=((1,), (-1,)))
    assert validate(witnessed).ok
    hs = homology(witnessed)
    assert hs[4] == (1, ())  # ker of the nonzero boundary is rank 1
    bad_shape = replace(two_sinks, sink_incidence=((1,),))
    assert not validate(bad_shape).ok


def test_validate_checks_d3_d4():
    # F1 runs along c1, so d3(F1) != 0 and no sink may have F1 in its boundary
    d = replace(catalog.standard("s4-with-cancelling-pair"), sink_count=2,
                sink_incidence=((1,), (1,)))
    assert [(f.location, f.message) for f in validate(d).findings] == [
        ("sink 0", "incident surfaces cover circle c1 +1 times: d3.d4 != 0"),
        ("sink 1", "incident surfaces cover circle c1 +1 times: d3.d4 != 0")]
    with pytest.raises(DiagramError, match="d3.d4"):
        chain_complex(d)


def seeded(kind, seed):
    """A diagram of a helper generator: Kirby, multi-piece, or multi-piece with a planted pair."""
    rng = random.Random(seed)
    if kind == "kirby":
        return random_kirby_diagram(rng)
    d = random_multipiece_diagram(rng)
    return plant_cancelling_pair(d, rng) if kind == "planted" else d


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["kirby", "multi", "planted"]))
def test_valid_diagram_keeps_chain_complex_computable(seed, kind):
    d = seeded(kind, seed)
    assume(validate(d).ok)
    chain_complex(d)
    homology(d)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.msd")
        with open(path, "w") as f:
            f.write(serialize(d))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(["invariants", path]) in (0, 4)


def test_multi_sink_without_surfaces_fine():
    d = replace(catalog.standard("cp2"), sink_count=2)
    assert validate(d).ok
    assert homology(d)[4] == (2, ())  # two 4-handles, no surfaces to attach over


# --- the piece graph read from its spanning forest ---------------------------


def dense_homology(d):
    """Homology with every boundary map of chain_complex(d) through the Smith form."""
    cx = chain_complex(d)
    out, rank_out = [], 0
    for k, boundary_in in enumerate((cx.d1, cx.d2, cx.d3, cx.d4, [])):
        snf = smith_normal_form(boundary_in)
        rank_in = sum(1 for x in snf if x)
        out.append((cx.dims[k] - rank_out - rank_in, tuple(x for x in snf if x > 1)))
        rank_out = rank_in
    return out


def dense_surgered_h1(d):
    """H1 presented by the full relation matrix, tree-pair rows included."""
    pres = surgery_presentation(d)
    snf = smith_normal_form(pres.relation_matrix())
    rank = sum(1 for x in snf if x)
    return len(pres.circles) + len(pres.pairs) - rank, tuple(x for x in snf if x > 1)


DIAGRAMS = st.one_of(
    st.builds(seeded, st.sampled_from(["kirby", "multi", "planted"]), st.integers(0, 10**6)),
    st.sampled_from([name for name in catalog.names() if "(" not in name]).map(catalog.standard),
    st.integers(1, 8).map(catalog.n_s1xs3),
    st.integers(1, 40).map(ring),
)


@settings(max_examples=150, deadline=None)
@given(DIAGRAMS)
@example(ring(1))  # its one pair has both walls on the one piece
@example(catalog.s1xs3())  # a self-pair beside a closed surface
@example(replace(catalog.s1xs3(), sink_count=2, sink_incidence=((1,), (-1,))))
def test_forest_reads_match_the_dense_smith_forms(d):
    assume(validate(d).ok)
    assert homology(d) == dense_homology(d)
    assert surgered_h1(d) == dense_surgered_h1(d)


def test_ring_homology_never_eliminates_a_piece_sized_matrix(monkeypatch):
    # a ring's cycle rank is 1, so no Smith form grows with its pieces
    d = ring(2000)
    shapes = []
    snf = invariants.smith_normal_form
    monkeypatch.setattr(invariants, "smith_normal_form",
                        lambda a: shapes.append((len(a), len(a[0]) if a else 0)) or snf(a))
    assert homology(d) == [(1, ()), (0, ()), (0, ()), (0, ()), (1, ())]
    assert surgered_h1(d) == (1, ())
    assert shapes and all(max(shape) < len(d.pieces) for shape in shapes), shapes
