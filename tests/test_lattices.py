"""Integer/rational linear algebra: normal forms, duals, quotients."""

import itertools
import random
from fractions import Fraction

import pytest

import multifan.lattices as lattices
from multifan.errors import CrossCheckFailed, NonGenericPlane, RankMismatch, SingularInput
from multifan.lattices import (
    annihilator_basis,
    determinant,
    dot,
    dual_basis,
    hermite_normal_form,
    integral_solution,
    kernel_basis,
    matrix_inverse,
    plane_line_intersection,
    primitive_vector,
    quotient_group,
    rank,
    rref,
    saturated_dual_basis,
    smith_normal_form,
    solve_in_span,
    xgcd,
)


def _matmul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def _random_matrix(rng, m, n, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))


def test_xgcd_bezout():
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, s, t = xgcd(a, b)
        assert g == abs(__import__("math").gcd(a, b))
        assert s * a + t * b == g


def test_hnf_frozen_example():
    H, U = hermite_normal_form([(1, 0), (-1, -2)])
    assert H == ((1, 0), (0, 2))
    assert _matmul(U, ((1, 0), (-1, -2))) == H
    assert abs(determinant(U)) == 1


def test_hnf_properties_random():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = _random_matrix(rng, m, n)
        H, U = hermite_normal_form(A)
        assert abs(determinant(U)) == 1
        assert _matmul(U, A) == H
        # staircase shape with positive pivots and reduced columns
        last = -1
        for row in H:
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            piv = nz[0]
            assert piv > last
            last = piv
            assert row[piv] > 0
        for i, row in enumerate(H):
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            piv = nz[0]
            for above in H[:i]:
                assert 0 <= above[piv] < row[piv]


def test_snf_frozen_examples():
    D, P, Q = smith_normal_form([(2, 0), (0, 3)])
    assert (D[0][0], D[1][1]) == (1, 6)
    D, P, Q = smith_normal_form([(1, 0), (-1, -2)])
    assert (D[0][0], D[1][1]) == (1, 2)
    assert _matmul(_matmul(P, ((1, 0), (-1, -2))), Q) == D


def test_snf_properties_random():
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = _random_matrix(rng, m, n)
        D, P, Q = smith_normal_form(A)
        assert abs(determinant(P)) == 1
        assert abs(determinant(Q)) == 1
        assert _matmul(_matmul(P, A), Q) == D
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_dual_basis_frozen_example():
    u = dual_basis([(1, 0), (-1, -2)])
    assert u == ((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(-1, 2)))
    for i, ui in enumerate(u):
        for j, vj in enumerate([(1, 0), (-1, -2)]):
            assert dot(ui, vj) == (1 if i == j else 0)


def test_dual_basis_singular():
    with pytest.raises(SingularInput):
        dual_basis([(1, 2), (2, 4)])


def test_dual_basis_random():
    rng = random.Random(37)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        V = _random_matrix(rng, n, n, -6, 6)
        if determinant(V) == 0:
            continue
        done += 1
        U = dual_basis(V)
        for i in range(n):
            for j in range(n):
                assert dot(U[i], V[j]) == (1 if i == j else 0)


def test_quotient_group_frozen_example():
    g = quotient_group([(1, 0), (-1, -2)])
    assert g.order == 2
    assert g.lifts[0] == (0, 0)
    assert g.coords[0] == (0, 0)
    # nontrivial coset: phases are -1/2 mod 1 in both edge coordinates
    c = g.coords[1]
    assert (c[0] - Fraction(1, 2)).denominator == 1
    assert (c[1] - Fraction(1, 2)).denominator == 1
    # the lift really represents the coset: lift = sum c_j v_j
    lift = g.lifts[1]
    assert lift == tuple(
        c[0] * a + c[1] * b for a, b in zip((1, 0), (-1, -2))
    )


def test_quotient_group_trivial_for_unimodular():
    g = quotient_group([(1, 0), (0, 1)])
    assert g.order == 1
    assert g.lifts == ((0, 0),)


def test_quotient_group_order_is_index():
    rng = random.Random(41)
    done = 0
    while done < 30:
        n = rng.randint(1, 3)
        V = _random_matrix(rng, n, n, -5, 5)
        d = determinant(V)
        if d == 0:
            continue
        done += 1
        g = quotient_group(V)
        assert g.order == abs(int(d))
        # every phase vector of the identity is zero
        assert all(x == 0 for x in g.coords[0])
        # lifts represent distinct cosets: coords differ mod 1
        seen = set()
        for c in g.coords:
            key = tuple(x - x.__floor__() for x in c)
            assert key not in seen
            seen.add(key)


def test_quotient_group_nonfull_rank_sublattice():
    # edge vector (0, 2): saturation is the y-axis, index 2
    g = quotient_group([(0, 2)])
    assert g.order == 2
    assert g.coords[1][0] % 1 == Fraction(1, 2)


def test_annihilator_basis_example_and_orientation():
    b = annihilator_basis([(1, 0)])
    assert len(b.vectors) == 1
    v = b.vectors[0]
    assert dot(v, (1, 0)) == 0
    assert v in ((0, 1), (0, -1))
    # orientation: [ann; dual] has positive determinant
    dual = dual_basis([(1, 0), (0, 1)])  # u_1 = e1* works as partial dual
    assert determinant([v, dual[0]]) > 0


def test_annihilator_basis_saturated_random():
    rng = random.Random(53)
    done = 0
    while done < 30:
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        V = _random_matrix(rng, k, n, -4, 4)
        if rank(V) < k:
            continue
        done += 1
        ann = annihilator_basis(V).vectors
        assert len(ann) == n - k
        for a in ann:
            for v in V:
                assert dot(a, v) == 0
        # saturated: Smith invariants of the basis are all 1
        D, _, _ = smith_normal_form(ann)
        assert all(D[i][i] == 1 for i in range(n - k))


def test_integral_solution():
    assert integral_solution([(2,)], (1,)) is None
    u = integral_solution([(2,)], (4,))
    assert u == (2,)
    u = integral_solution([(1, 0), (-1, -2)], (1, 1))
    assert u is not None
    assert dot(u, (1, 0)) == 1 and dot(u, (-1, -2)) == 1


def test_solve_in_span():
    c = solve_in_span([(1, 1, 0), (0, 1, 1)], (2, 3, 1))
    assert c == (Fraction(2), Fraction(1))
    with pytest.raises(SingularInput):
        solve_in_span([(1, 0, 0)], (0, 1, 0))


def test_kernel_basis():
    ker = kernel_basis([(1, 2, 3)])
    assert len(ker) == 2
    for x in ker:
        assert dot((1, 2, 3), x) == 0


def test_matrix_inverse_roundtrip():
    rng = random.Random(71)
    done = 0
    while done < 25:
        n = rng.randint(1, 4)
        A = _random_matrix(rng, n, n, -7, 7)
        if determinant(A) == 0:
            continue
        done += 1
        inv = matrix_inverse(A)
        prod = _matmul(A, inv)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (1 if i == j else 0)


def test_plane_line_intersection_basic():
    # E spanned by (1,2) in the plane, J the x-axis ray: E itself is the line
    v = plane_line_intersection([(1, 2)], [(1, 0), (0, 1)])
    assert v in ((1, 2), (-1, -2))
    # rank-3: plane meets a 2-ray cone span in a line
    v = plane_line_intersection(
        [(1, 0, 0), (0, 1, 1)], [(1, 0, 0), (0, 1, 0)]
    )
    assert v in ((1, 0, 0), (-1, 0, 0))
    for a in annihilator_basis([(1, 0, 0), (0, 1, 0)]).vectors:
        assert dot(a, v) == 0


def test_plane_line_intersection_degenerate():
    # plane equal to the cone span: intersection has dimension 2
    with pytest.raises(NonGenericPlane):
        plane_line_intersection([(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0)])


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert primitive_vector((0, -4)) == (0, -1)
    with pytest.raises(SingularInput):
        primitive_vector((0, 0))


@pytest.mark.parametrize("vectors", [
    [(2, 0, 0), (0, 12, 0)],
    [(1, 1, 1), (3, 0, -3)],
    [(3, 3, 0), (0, 3, 3)],
    [(1, 0), (5, 12)],
    [(4,)],
])
def test_saturated_dual_basis_reads_the_quotient_group(vectors):
    # in a basis of the saturated lattice the integral points y give the
    # phases <u_l, y> of the group elements, each once mod 1
    duals = saturated_dual_basis(vectors)
    k = len(vectors)
    group = quotient_group(vectors)
    phases = {tuple(c % 1 for c in coords) for _, coords in group}
    reached = {
        tuple(sum(y[j] * duals[l][j] for j in range(k)) % 1 for l in range(k))
        for y in itertools.product(range(group.order), repeat=k)
    }
    assert len(phases) == group.order
    assert reached == phases


def test_quotient_group_enumerates_lazily():
    # the order comes from the Smith invariants; elements are made on demand
    g = quotient_group([(10**6, 0, 0), (0, 10**6, 0), (0, 0, 10**6)])
    assert g.order == 10**18
    elements = iter(g)
    assert next(elements) == ((0, 0, 0), (0, 0, 0))
    assert next(elements) == ((0, 0, 1), (0, 0, Fraction(1, 10**6)))


def test_quotient_group_rejects_a_non_unimodular_transform(monkeypatch):
    # the saturation basis is read off Q^-1, which is integral only when
    # det Q = +-1; a defective transform must not be truncated silently
    smith = lattices.smith_normal_form

    def doubled(rows):
        D, P, Q = smith(rows)
        return D, P, (tuple(2 * x for x in Q[0]),) + Q[1:]

    monkeypatch.setattr(lattices, "smith_normal_form", doubled)
    with pytest.raises(CrossCheckFailed):
        quotient_group([(1, 0), (-1, -2)])


# -- oracle sweep: integer elimination against Fraction Gauss-Jordan ---------


def _reference_determinant(rows):
    """Gaussian elimination over Fraction, the reference for determinant."""
    M = [[Fraction(x) for x in r] for r in rows]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return det


def _reference_inverse(rows):
    """Gauss-Jordan over Fraction on [A | I], the reference for matrix_inverse."""
    n = len(rows)
    R, pivots = rref([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        raise SingularInput("matrix is singular")
    return tuple(tuple(row[n:]) for row in R)


def _oracle_matrices(rng, count=200):
    """Square matrices of size 0-5, integer or rational, one in five singular."""
    for trial in range(count):
        n = rng.randint(0, 5)
        rational = trial % 2
        A = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rational else rng.randint(-9, 9)
             for _ in range(n)]
            for _ in range(n)
        ]
        if n >= 2 and trial % 5 == 0:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            A[-1] = [a * x + b * y for x, y in zip(A[0], A[1])]
        yield tuple(tuple(r) for r in A)


def test_integer_elimination_matches_the_fraction_oracle(monkeypatch):
    def no_rref(rows):
        raise AssertionError("determinant and matrix_inverse must not call rref")

    monkeypatch.setattr(lattices, "rref", no_rref)
    singular = 0
    for A in _oracle_matrices(random.Random(2024)):
        d = determinant(A)
        assert type(d) is Fraction
        assert d == _reference_determinant(A)
        if d == 0:
            singular += 1
            with pytest.raises(SingularInput):
                matrix_inverse(A)
            with pytest.raises(SingularInput):
                dual_basis(A)
            continue
        inv = matrix_inverse(A)
        assert inv == _reference_inverse(A)
        assert all(type(x) is Fraction for row in inv for x in row)
        u = dual_basis(A)
        assert u == tuple(zip(*inv))
        assert all(type(x) is Fraction for row in u for x in row)
    assert singular >= 20


def test_annihilator_basis_matches_the_fraction_oracle(monkeypatch):
    rng = random.Random(2025)
    done = 0
    while done < 60:
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        V = _random_matrix(rng, k, n, -6, 6)
        if rank(V) < k:
            with pytest.raises(SingularInput):
                annihilator_basis(V)
            continue
        done += 1
        ours = annihilator_basis(V)
        with monkeypatch.context() as m:
            m.setattr(lattices, "determinant", _reference_determinant)
            m.setattr(lattices, "matrix_inverse", _reference_inverse)
            assert ours == annihilator_basis(V)


@pytest.mark.parametrize("rows", [[(1, 2)], [(1,), (2,)], [(1, 2), (3,)]])
def test_non_square_input_is_a_rank_mismatch(rows):
    with pytest.raises(RankMismatch):
        determinant(rows)
    with pytest.raises(RankMismatch):
        matrix_inverse(rows)


def test_dot_on_mixed_entries():
    rng = random.Random(2026)

    def vector(n, rational):
        return tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rational else rng.randint(-9, 9)
            for _ in range(n)
        )

    for trial in range(200):
        n = rng.randint(0, 5)
        u, v = vector(n, trial % 3 == 2), vector(n, trial % 3 != 0)
        got = dot(u, v)
        assert type(got) is Fraction
        assert got == sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))
    with pytest.raises(RankMismatch):
        dot((1, 2), (Fraction(1, 2),))
