"""Exact integer and rational linear algebra over lattices.

Vectors are tuples of ints (lattice points of N = Z^n) or Fractions
(points of N_Q or covectors of M_Q).  Matrices are tuples of row
vectors.  Everything is immutable and exact; no floats appear anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import CrossCheckFailed, NonGenericPlane, RankMismatch, SingularInput

Vec = tuple[int, ...]
QVec = tuple[Fraction, ...]


def dot(u, v) -> Fraction:
    """Pairing sum(u_j * v_j) of int/Fraction vectors, summed over one
    running denominator into a single Fraction."""
    if len(u) != len(v):
        raise RankMismatch(f"length {len(u)} vs {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        n = a.numerator * b.numerator
        d = a.denominator * b.denominator
        if d == den:
            num += n
        else:
            num = num * d + n * den
            den *= d
    return Fraction(num, den)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def primitive_vector(v) -> Vec:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    w = tuple(int(x) for x in v)
    if all(x == 0 for x in w):
        raise SingularInput("zero vector has no primitive form")
    g = 0
    for x in w:
        g = math.gcd(g, x)
    return tuple(x // g for x in w)


def scale_to_integer(v) -> Vec:
    """Clear denominators of a rational vector; result is primitive."""
    fracs = [Fraction(x) for x in v]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    return primitive_vector(tuple(int(f * lcm) for f in fracs))


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hermite_normal_form(rows) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U * A, U unimodular, pivots positive and
    entries above each pivot reduced into [0, pivot).  Zero rows sink to
    the bottom.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m)
    r = 0
    for c in range(n):
        for i in range(r + 1, m):
            if A[i][c] == 0:
                continue
            a, b = A[r][c], A[i][c]
            g, s, t = xgcd(a, b)
            # 2x2 unimodular transform sends (a, b) to (g, 0)
            p, q = a // g, b // g
            A[r], A[i] = (
                [s * x + t * y for x, y in zip(A[r], A[i])],
                [-q * x + p * y for x, y in zip(A[r], A[i])],
            )
            U[r], U[i] = (
                [s * x + t * y for x, y in zip(U[r], U[i])],
                [-q * x + p * y for x, y in zip(U[r], U[i])],
            )
        if r < m and A[r][c] != 0:
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
                U[r] = [-x for x in U[r]]
            for i in range(r):
                q = A[i][c] // A[r][c]
                if q:
                    A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
            r += 1
            if r == m:
                break
    return tuple(tuple(row) for row in A), tuple(tuple(row) for row in U)


def smith_normal_form(rows) -> tuple[tuple[Vec, ...], tuple[Vec, ...], tuple[Vec, ...]]:
    """Smith normal form with transforms: D = P * A * Q.

    D is diagonal with nonnegative invariant factors d_1 | d_2 | ...;
    P and Q are unimodular.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    P = _identity(m)
    Q = _identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        P[i], P[j] = P[j], P[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in Q:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # move a nonzero entry of minimal magnitude to the pivot slot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                P[i] = [x - q * y for x, y in zip(P[i], P[t])]
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                for row in A:
                    row[j] -= q * row[t]
                for row in Q:
                    row[j] -= q * row[t]
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        # the pivot must divide everything that remains
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
            P[t] = [x + y for x, y in zip(P[t], P[offender])]
            continue
        t += 1
    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            P[i] = [-x for x in P[i]]
    return (
        tuple(tuple(row) for row in A),
        tuple(tuple(row) for row in P),
        tuple(tuple(row) for row in Q),
    )


def _integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Each row of a square int/Fraction matrix times the lcm of its
    denominators: the integer rows and their scale factors."""
    n = len(rows)
    out, scales = [], []
    for r in rows:
        if len(r) != n:
            raise RankMismatch("expected a square matrix")
        s = math.lcm(*(x.denominator for x in r))
        out.append([x.numerator * (s // x.denominator) for x in r])
        scales.append(s)
    return out, scales


def _gauss_jordan(M: list[list[int]]) -> int:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place.

    M holds n integer rows of length >= n; the left n x n block A is
    eliminated and the columns to its right are carried along.  Returns
    det A.  Each step divides exactly by the previous pivot, and a row
    swap negates the row it brings up, so no step changes the
    determinant.  When det A != 0 the left block ends as det A * I and a
    carried block B ends as det A * A^-1 B: [A | I] becomes [det A * I |
    adj A].  A singular A returns 0 and leaves M half reduced.
    """
    n = len(M)
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if M[i][k]), None)
        if p is None:
            return 0
        if p != k:
            M[k], M[p] = [-x for x in M[p]], M[k]
        row = M[k]
        pivot = row[k]
        for i in range(n):
            if i != k:
                f = M[i][k]
                M[i] = [(pivot * a - f * b) // prev for a, b in zip(M[i], row)]
        prev = pivot
    return prev


def _adjugate(A) -> tuple[int, list[list[int]]]:
    """det A and adj A = det A * A^-1 of a square integer matrix A."""
    n = len(A)
    M = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(A)]
    det = _gauss_jordan(M)
    return det, [r[n:] for r in M]


def determinant(rows) -> Fraction:
    """Exact determinant of a square int/Fraction matrix: fraction-free
    integer elimination on the rows scaled to integers."""
    M, scales = _integer_rows(rows)
    return Fraction(_gauss_jordan(M), math.prod(scales))


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns)."""
    M = [[Fraction(x) for x in r] for r in rows]
    if not M:
        return [], []
    ncols = len(M[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows, ncols: int | None = None) -> list[QVec]:
    """Basis of {x : rows * x = 0} over Q (x a column vector)."""
    rows = [tuple(r) for r in rows]
    if ncols is None:
        if not rows:
            raise RankMismatch("kernel of an empty matrix needs ncols")
        ncols = len(rows[0])
    R, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -R[i][f]
        basis.append(tuple(x))
    return basis


def matrix_inverse(rows) -> tuple[QVec, ...]:
    """Exact inverse of a square int/Fraction matrix; raises SingularInput.

    With the rows scaled to integers, S A = A', the inverse is
    A^-1 = adj A' S / det A'.
    """
    A, scales = _integer_rows(rows)
    det, adj = _adjugate(A)
    if not det:
        raise SingularInput("matrix is singular")
    return tuple(tuple(Fraction(x * s, det) for x, s in zip(row, scales)) for row in adj)


def dual_basis(vectors) -> tuple[QVec, ...]:
    """Covectors u_i with <u_i, v_j> = delta_ij for a basis v_1..v_n of N_Q.

    u_i is the i-th column of the inverse of the matrix whose rows are
    the v_j.
    """
    inv = matrix_inverse([tuple(v) for v in vectors])
    n = len(inv)
    return tuple(tuple(inv[j][i] for j in range(n)) for i in range(n))


def saturated_dual_basis(vectors) -> tuple[QVec, ...]:
    """Covectors u_l dual to independent integer vectors v_1..v_k, written
    in a basis of the saturated lattice span_Q(v) meet Z^n.

    With D = P V Q the Smith form, the first k rows of Q^-1 are such a
    basis b_j and v_i = sum_j (P^-1)_ij d_j b_j, so u_l has the
    coordinates P_jl / d_j.  The dual lattice is Z^k in these coordinates.
    """
    V = [tuple(map(int, v)) for v in vectors]
    k = len(V)
    if k == 0:
        return ()
    D, P, _ = smith_normal_form(V)
    d = [D[i][i] for i in range(k)]
    if any(x == 0 for x in d):
        raise SingularInput("vectors are dependent")
    return tuple(tuple(Fraction(P[j][l], d[j]) for j in range(k)) for l in range(k))


def solve_in_span(basis_rows, target) -> QVec:
    """Coordinates of `target` in the row span of `basis_rows` (exact).

    Raises SingularInput if the target is outside the span or the rows
    are dependent.
    """
    basis_rows = [tuple(r) for r in basis_rows]
    k = len(basis_rows)
    n = len(target)
    # solve c * B = target by transposing into column form
    M = [[Fraction(basis_rows[j][i]) for j in range(k)] + [Fraction(target[i])]
         for i in range(n)]
    R, pivots = rref(M)
    if k in pivots:
        raise SingularInput("target not in the span")
    if pivots != list(range(k)):
        raise SingularInput("basis rows are dependent")
    sol = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        sol[c] = R[i][k]
    return tuple(sol)


def integral_solution(rows, rhs) -> Vec | None:
    """Some integer solution u of rows * u = rhs, or None.

    Rows must be independent integer vectors (full row rank).
    """
    D, P, Q = smith_normal_form(rows)
    k = len(rows)
    n = len(rows[0])
    if any(D[i][i] == 0 for i in range(k)):
        raise SingularInput("rows are dependent")
    pb = [sum(P[i][j] * rhs[j] for j in range(k)) for i in range(k)]
    z = []
    for i in range(k):
        if pb[i] % D[i][i] != 0:
            return None
        z.append(pb[i] // D[i][i])
    z += [0] * (n - k)
    return tuple(sum(Q[i][j] * z[j] for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """The quotient H = N_K / N_{K,V} of a saturated lattice by edge vectors.

    Kept as its Smith data and enumerated lazily, in lexicographic order
    of the residues y_j mod d_j (identity first): an element is the pair
    of its integer lift v(h) = sum_j y_j b_j in N and the rational
    coordinates sum_j (y_j / d_j) P_j of v(h) in the generating edge
    basis, i.e. the character phases <u_j^K, v(h)>.  `lifts` and
    `coords` list them all, in the same order.
    """

    invariants: tuple[int, ...]  # Smith invariants d_j
    basis: tuple[Vec, ...]  # the saturation basis b_j
    edge_rows: tuple[Vec, ...]  # the rows P_j of the Smith transform

    @property
    def order(self) -> int:
        return math.prod(self.invariants)

    def __iter__(self):
        d = self.invariants
        k = len(d)
        n = len(self.basis[0]) if k else 0
        top = math.lcm(*d)
        rows = [[x * (top // dj) for x in row] for row, dj in zip(self.edge_rows, d)]
        for y in itertools.product(*(range(x) for x in d)):
            lift = tuple(sum(y[j] * self.basis[j][i] for j in range(k)) for i in range(n))
            coords = tuple(
                Fraction(sum(y[j] * rows[j][l] for j in range(k)), top) for l in range(k)
            )
            yield lift, coords

    @cached_property
    def lifts(self) -> tuple[Vec, ...]:
        return tuple(lift for lift, _ in self)

    @cached_property
    def coords(self) -> tuple[QVec, ...]:
        return tuple(c for _, c in self)


def quotient_group(vectors) -> FiniteAbelianGroup:
    """Quotient of the saturation of span(vectors) by their integer span.

    The input vectors must be independent integer vectors (prescribed
    edge vectors of a cone).  Enumeration order is lexicographic in the
    Smith residues, so it is deterministic.
    """
    V = [tuple(map(int, v)) for v in vectors]
    k = len(V)
    if k == 0:
        return FiniteAbelianGroup((), (), ())
    D, P, Q = smith_normal_form(V)
    d = tuple(D[i][i] for i in range(k))
    if any(x == 0 for x in d):
        raise SingularInput("edge vectors are dependent")
    # Q is unimodular, so Q^-1 = det Q * adj Q is an integer matrix
    det, adj = _adjugate(Q)
    if det not in (1, -1):
        raise CrossCheckFailed(f"Smith transform has determinant {det}, not +-1")
    sat = tuple(tuple(det * x for x in adj[i]) for i in range(k))
    return FiniteAbelianGroup(d, sat, tuple(tuple(P[j][:k]) for j in range(k)))


@dataclass(frozen=True)
class OrientedBasis:
    """Integer basis of the annihilator sublattice M_J, with fixed orientation."""

    vectors: tuple[Vec, ...]

    def __len__(self) -> int:
        return len(self.vectors)


def annihilator_basis(vectors) -> OrientedBasis:
    """Primitive basis of {u in M : <u, v> = 0 for all input v}.

    Orientation convention: stacking the annihilator rows on top of any
    partial dual covectors u_j (with <u_j, v_i> = delta, j ascending)
    gives a positive determinant against the standard basis; the first
    annihilator vector is negated if needed.
    """
    V = [tuple(map(int, v)) for v in vectors]
    k = len(V)
    if k == 0:
        raise SingularInput("annihilator of the empty set is all of M")
    n = len(V[0])
    D, P, Q = smith_normal_form(V)
    if any(D[i][i] == 0 for i in range(min(k, n))):
        raise SingularInput("input vectors are dependent")
    ann = [tuple(Q[i][c] for i in range(n)) for c in range(k, n)]
    if not ann:
        return OrientedBasis(())
    # partial dual covectors via the Gram matrix (any valid choice works:
    # changing them by M_J rows leaves the determinant fixed)
    gram = [[dot(a, b) for b in V] for a in V]
    ginv = matrix_inverse(gram)
    dual = [
        tuple(sum(ginv[j][l] * V[l][i] for l in range(k)) for i in range(n))
        for j in range(k)
    ]
    det = determinant(list(ann) + dual)
    if det == 0:
        raise SingularInput("degenerate annihilator stack")
    if det < 0:
        ann[0] = tuple(-x for x in ann[0])
    return OrientedBasis(tuple(ann))


def plane_line_intersection(plane_rows, cone_rays) -> Vec:
    """Primitive generator of E_Q intersect span_Q(cone_rays).

    `plane_rows` spans E (dimension n-k+1 when the cone has k rays); the
    intersection must be exactly one-dimensional, otherwise
    NonGenericPlane is raised.
    """
    W = [tuple(w) for w in plane_rows]
    ann = annihilator_basis(cone_rays).vectors
    n = len(cone_rays[0])
    M = [[dot(a, w) for w in W] for a in ann]
    ker = kernel_basis(M, ncols=len(W))
    if len(ker) != 1:
        raise NonGenericPlane(
            f"intersection with the cone span has dimension {len(ker)}"
        )
    a = ker[0]
    x = tuple(sum(a[l] * Fraction(W[l][i]) for l in range(len(W))) for i in range(n))
    return scale_to_integer(x)
