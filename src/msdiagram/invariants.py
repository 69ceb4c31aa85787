"""Algebraic invariants: handle chain complex, integer homology, linking data.

All linear algebra is exact over the integers (arbitrary precision); matrices
are lists of row lists.  The handle chain complex of a diagram runs

    C4 (sinks) -> C3 (surfaces) -> C2 (circles) -> C1 (pairs) -> C0 (pieces)

with boundary maps read off incidence data: signed passages of circles
through pairs, signed framing-parallel multiplicities of surfaces, and the
piece graph of the pairs.

d1 is the oriented incidence matrix of the piece graph.  Such a matrix is
totally unimodular, so its Smith form is all 1s and its rank is the size of
a spanning forest: homology reads d1 off the forest and never eliminates
it.  The forest's pairs carry no cycle, and the surgered H1 likewise drops
each tree pair's generator with its unit relation before its Smith form.
"""

from __future__ import annotations

from math import gcd

from .core import (
    Diagram,
    DiagramError,
    FramingParallel,
    circle_crossing_sums,
    circle_passages,
    handle_counts,
    linking_from_sums,
    require_valid,
)
from .tangle import find_root, record

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# exact integer matrix routines


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def smith_normal_form(a: Matrix) -> list[int]:
    """Diagonal of the Smith normal form, nonnegative, divisibility-ordered."""
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    diag = []
    r = c = 0
    while r < rows and c < cols:
        # find a pivot with the smallest nonzero absolute value
        best = _pivot(m, r, c, None)
        if best is None:
            break
        i, j = best
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[c], row[j] = row[j], row[c]
        # clear the pivot row and column; restart if a remainder shrinks below
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
            # a smaller remainder may have appeared; re-pivot on it
            i, j = _pivot(m, r, c, (r, c))
            m[r], m[i] = m[i], m[r]
            for row in m:
                row[c], row[j] = row[j], row[c]
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    # enforce divisibility d1 | d2 | ...
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


def _pivot(m: Matrix, r: int, c: int, best):
    """The first entry of least nonzero absolute value in m[r:][c:], row-major.

    best is the position to beat, or None.  A unit cannot be beaten, so the
    scan stops at the first one.
    """
    low = None if best is None else abs(m[best[0]][best[1]])
    cols = len(m[0])
    for i in range(r, len(m)):
        row = m[i]
        for j in range(c, cols):
            x = abs(row[j])
            if x and (low is None or x < low):
                best, low = (i, j), x
                if x == 1:
                    return best
    return best


def det(a: Matrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    assert all(len(r) == n for r in a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def signature(a: Matrix) -> int:
    """Signature of a symmetric integer matrix, by symmetric integer pivoting.

    A nonzero diagonal pivot p counts its sign and leaves |p| times its
    Schur complement, divided by the gcd of that block: both are
    congruences up to a positive factor, so the rest keeps its signature.
    A block with zero diagonal and a nonzero entry m_ij first takes
    x_i -> x_i + x_j, which makes the diagonal entry 2 m_ij.
    """
    m = [row[:] for row in a]
    sig = 0
    while m:
        n = len(m)
        p = next((i for i in range(n) if m[i][i]), None)
        if p is None:
            off = next(((i, j) for i in range(n) for j in range(n) if m[i][j]), None)
            if off is None:
                break  # the rest is zero
            p, j = off
            for k in range(n):
                m[p][k] += m[j][k]
            for k in range(n):
                m[k][p] += m[k][j]
        piv = m[p][p]
        s = 1 if piv > 0 else -1
        sig += s
        rest = [k for k in range(n) if k != p]
        m = [[s * (piv * m[i][j] - m[i][p] * m[p][j]) for j in rest] for i in rest]
        g = gcd(*(x for row in m for x in row))
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return sig


# ---------------------------------------------------------------------------
# chain complex and homology


@record
class ChainComplex:
    """Integer boundary matrices d1..d4; dk maps k-handles to (k-1)-handles.

    Row lists lose their width when empty, so the chain group ranks are
    carried explicitly in dims.
    """

    d1: Matrix  # pieces x pairs
    d2: Matrix  # pairs x circles
    d3: Matrix  # circles x surfaces
    d4: Matrix  # surfaces x sinks
    dims: tuple[int, int, int, int, int]


@record
class LinkingMatrix:
    """Symmetric matrix of pairwise linkings with framings on the diagonal."""

    circles: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def as_list(self) -> Matrix:
        return [list(r) for r in self.entries]


def chain_complex(d: Diagram) -> ChainComplex:
    """Boundary matrices of the handle decomposition carried by the diagram.

    validate has checked that consecutive maps compose to zero.
    """
    require_valid(d, "invalid diagram")
    n = handle_counts(d)
    piece_row = {p.id: i for i, p in enumerate(d.pieces)}
    d1 = zeros(n[0], n[1])
    for j, q in enumerate(d.pairs):
        d1[piece_row[q.wall_b[0]]][j] += 1
        d1[piece_row[q.wall_a[0]]][j] -= 1
    return ChainComplex(d1, *_upper_boundaries(d, n), dims=n)


def _upper_boundaries(d: Diagram, n: tuple[int, ...]) -> tuple[Matrix, Matrix, Matrix]:
    """d2, d3 and d4 of a valid diagram with handle counts n."""
    pair_row = {q.id: i for i, q in enumerate(d.pairs)}
    circle_row = {c.id: i for i, c in enumerate(d.circles)}
    _, n1, n2, n3, n4 = n

    d2 = zeros(n1, n2)
    for j, c in enumerate(d.circles):
        for qid, sign in circle_passages(d, c.id):
            d2[pair_row[qid]][j] += sign

    d3 = zeros(n2, n3)
    for j, f in enumerate(d.surfaces):
        for item in f.boundary:
            if isinstance(item, FramingParallel):
                d3[circle_row[item.circle]][j] += item.sign

    if d.sink_incidence is not None:
        d4 = [[d.sink_incidence[j][i] for j in range(n4)] for i in range(n3)]
    else:
        # validate demands the block when there are several sinks and
        # surfaces; otherwise both belt points of each surface land on
        # the one sink, or there are no surfaces
        d4 = zeros(n3, n4)
    return d2, d3, d4


def _rank_torsion(a: Matrix) -> tuple[int, tuple[int, ...]]:
    """The rank of a and its torsion coefficients, read off its Smith divisors."""
    snf = smith_normal_form(a)
    return sum(1 for x in snf if x), tuple(x for x in snf if x > 1)


def homology(d: Diagram) -> list[tuple[int, tuple[int, ...]]]:
    """Integral homology (betti, torsion coefficients) in degrees 0..4.

    d1 is never built: its rank is the size of a spanning forest of the
    piece graph, and it has no torsion.  A cycle of pairs is fixed by its
    pairs outside the forest, so their rows of d2 (whose image lies in
    ker d1, a direct summand) keep d2's rank and torsion.
    """
    require_valid(d, "invalid diagram")
    n = handle_counts(d)
    tree = set(_spanning_forest(d))
    d2, d3, d4 = _upper_boundaries(d, n)
    cycle_rows = [row for row, q in zip(d2, d.pairs) if q.id not in tree]
    rank_out = len(tree)  # rank of the boundary out of degree k: the previous rank_in
    out = [(n[0] - rank_out, ())]
    for k, boundary_in in enumerate((cycle_rows, d3, d4, []), start=1):
        rank_in, torsion = _rank_torsion(boundary_in)
        out.append((n[k] - rank_out - rank_in, torsion))
        rank_out = rank_in
    return out


def euler_characteristic(d: Diagram) -> int:
    n0, n1, n2, n3, n4 = handle_counts(d)
    return n0 - n1 + n2 - n3 + n4


def linking_matrix(d: Diagram) -> LinkingMatrix:
    """Framings on the diagonal, pairwise circle linkings off it."""
    require_valid(d, "invalid diagram")
    ids = [c.id for c in d.circles]
    n = len(ids)
    # one circle's matrix is its framing: no crossing-sum table is built
    sums = circle_crossing_sums(d) if n > 1 else {}
    m = zeros(n, n)
    for i, c in enumerate(d.circles):
        m[i][i] = c.framing
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = linking_from_sums(sums, c.id, ids[j])
    return LinkingMatrix(tuple(ids), tuple(tuple(r) for r in m))


def intersection_form(d: Diagram) -> Matrix:
    """Intersection form read from a diagram with no pairs and no surfaces."""
    if d.pairs or d.surfaces:
        raise DiagramError(
            "intersection form needs a diagram without sphere pairs and surfaces")
    return linking_matrix(d).as_list()


# ---------------------------------------------------------------------------
# the surgered 3-manifold


@record
class SurgeryPresentation:
    """Everything the surgery on the glued 3-manifold leaves behind.

    H1 of the surgered manifold is presented by one generator per circle
    meridian and one per sphere pair, with one relation per circle (its
    framed parallel) and one per spanning-tree pair of the piece graph.
    Surfaces close up to embedded 2-spheres; only their count survives.
    """

    circles: tuple[str, ...]
    pairs: tuple[str, ...]
    linking: tuple[tuple[int, ...], ...]    # framings on the diagonal
    windings: tuple[tuple[int, ...], ...]   # circles x pairs, signed passages
    tree_pairs: tuple[str, ...]             # spanning forest of the piece graph
    sphere_count: int

    def relation_matrix(self) -> Matrix:
        m, n = len(self.circles), len(self.pairs)
        column = {qid: m + i for i, qid in enumerate(self.pairs)}
        return ([list(self.linking[i]) + list(self.windings[i]) for i in range(m)]
                + [[int(j == column[qid]) for j in range(m + n)] for qid in self.tree_pairs])

    def h1(self) -> tuple[int, tuple[int, ...]]:
        """The group relation_matrix presents, without its tree-pair rows.

        A tree pair's relation is the unit row of its own generator, so
        both drop out: the circle rows over the other generators keep the
        same rank deficit and the same torsion.
        """
        tree = set(self.tree_pairs)
        cycle = [j for j, qid in enumerate(self.pairs) if qid not in tree]
        r, torsion = _rank_torsion([list(row) + [w[j] for j in cycle]
                                    for row, w in zip(self.linking, self.windings)])
        return len(self.circles) + len(cycle) - r, torsion


def _spanning_forest(d: Diagram) -> list[str]:
    """Pair ids forming a spanning forest of the piece graph."""
    parent: dict[str, str] = {p.id: p.id for p in d.pieces}
    tree = []
    for q in d.pairs:
        a, b = find_root(parent, q.wall_a[0]), find_root(parent, q.wall_b[0])
        if a != b:
            parent[a] = b
            tree.append(q.id)
    return tree


def surgery_presentation(d: Diagram) -> SurgeryPresentation:
    lm = linking_matrix(d)  # refuses an invalid diagram
    pair_column = {q.id: i for i, q in enumerate(d.pairs)}
    windings = []
    for c in d.circles:
        row = [0] * len(pair_column)
        for qid, sign in circle_passages(d, c.id):
            row[pair_column[qid]] += sign
        windings.append(tuple(row))
    return SurgeryPresentation(
        circles=lm.circles,
        pairs=tuple(pair_column),
        linking=lm.entries,
        windings=tuple(windings),
        tree_pairs=tuple(_spanning_forest(d)),
        sphere_count=len(d.surfaces),
    )


def surgered_h1(d: Diagram) -> tuple[int, tuple[int, ...]]:
    """H1 (rank, torsion) of the 3-manifold obtained by the spherical surgeries."""
    return surgery_presentation(d).h1()


# ---------------------------------------------------------------------------
# Kirby-form diagrams with an annotation block


def annotated_homology(d: Diagram) -> list[tuple[int, tuple[int, ...]]]:
    """Homology of the presented manifold for a diagram in Kirby form.

    Dotted circles in the annotation are 1-handles; surfaces and sinks
    survive only as counts, so degrees 2..4 are reconstructed through
    Poincare duality for the closed connected orientable manifold.
    """
    if d.annotation is None:
        return homology(d)
    ann = d.annotation
    dotted = set(ann.dotted)
    lm = linking_matrix(d)
    dotted_idx = [i for i, c in enumerate(lm.circles) if c in dotted]
    handle_idx = [i for i, c in enumerate(lm.circles) if c not in dotted]
    r, torsion = _rank_torsion([[lm.entries[i][j] for j in dotted_idx] for i in handle_idx])
    b1 = len(dotted_idx) - r
    chi = (1 - ann.one_handles + (len(lm.circles) - len(dotted_idx))
           - ann.three_handles + ann.sinks)
    b2 = chi - 2 + 2 * b1
    return [(1, ()), (b1, torsion), (b2, torsion), (b1, ()), (1, ())]
