import itertools
import math
import random
from fractions import Fraction

import pytest

from multifan.catalog import (
    cross_fan,
    line_fan,
    projective_plane_fan,
    weighted_p112_fan,
)
from multifan import polytopes
from multifan.errors import (
    BudgetExceeded,
    CrossCheckFailed,
    FaceNotInFan,
    InvalidFan,
    NonGenericVector,
    PointOnWall,
    RankMismatch,
)
from multifan.facering import SupportClass, face_class
from multifan.fans import (
    MultiFan,
    fan_degree,
    random_complete_fan,
    sample_generic_vector,
    star_subdivide,
)
from multifan.lattices import dot, primitive_vector
from multifan.polytopes import (
    BRUTE_FORCE_BUDGET,
    MultiPolytope,
    count_bruteforce,
    count_face,
    count_formula,
    dh_evaluate,
    volume,
)
from multifan.todd import (
    face_decomposition_residual,
    morelli_coefficient,
    sample_generic_plane,
    todd_genus,
)


def _unit_supports(fan):
    return SupportClass([1] * fan.n_rays)


def _square():
    return MultiPolytope(cross_fan(), [1, 1, 1, 1])


def _weighted_edge_fan():
    # cross fan whose first edge is doubled: v_0 = (2, 0)
    return MultiFan(
        2,
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        multipliers=[2, 1, 1, 1],
    )


def test_vertices_lie_on_their_walls():
    P = MultiPolytope(weighted_p112_fan(), [1, 1, 1])
    verts = P.vertices
    assert verts[(0, 1)] == (1, 1)
    assert verts[(1, 2)] == (-3, 1)
    assert verts[(0, 2)] == (1, -1)
    fan = P.fan
    for I, u in verts.items():
        for i in I:
            assert dot(u, fan.edge(i)) == P.support.values[i]


def test_construction_rejects_bad_input():
    quadrant = MultiFan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(InvalidFan):
        MultiPolytope(quadrant, [1, 1])
    with pytest.raises(RankMismatch):
        MultiPolytope(cross_fan(), [1, 1, 1])
    with pytest.raises(FaceNotInFan):
        MultiPolytope(cross_fan(), [1, 1, 1, 1], face=(0, 2))


def test_dh_values_on_the_square():
    P = _square()
    v = (1, 2)
    assert dh_evaluate(P, (0, 0), v) == 1
    assert dh_evaluate(P, (5, 0), v) == 0
    assert dh_evaluate(P, (2, 2), v) == 0
    assert dh_evaluate(P, (Fraction(1, 2), Fraction(-1, 3)), v) == 1
    with pytest.raises(PointOnWall):
        dh_evaluate(P, (1, 0), v)
    with pytest.raises(NonGenericVector):
        dh_evaluate(P, (0, 0), (1, 0))


def test_dh_matches_convex_membership():
    fan = projective_plane_fan()
    P = MultiPolytope(fan, [1, 1, 1])
    rng = random.Random(7)
    hits = 0
    for _ in range(60):
        u = (Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 4))
        if any(dot(u, fan.edge(i)) == 1 for i in range(3)):
            continue
        expected = int(all(dot(u, fan.edge(i)) < 1 for i in range(3)))
        assert dh_evaluate(P, u) == expected
        hits += expected
    assert hits > 0


def test_dh_is_linear_in_the_weights():
    P = MultiPolytope(line_fan(weight=2), [1, 1])
    assert dh_evaluate(P, (Fraction(1, 2),)) == 2
    assert dh_evaluate(P, (Fraction(7, 2),)) == 0


def test_dh_direction_independence():
    cases = [
        _square(),
        MultiPolytope(projective_plane_fan(), [1, 1, 1]),
        MultiPolytope(weighted_p112_fan(), [1, 1, 1]),
    ]
    directions = [(1, 3), (3, -1)]
    rng = random.Random(11)
    for P in cases:
        fan = P.fan
        for _ in range(40):
            u = (
                Fraction(rng.randint(-12, 12), 5),
                Fraction(rng.randint(-12, 12), 5),
            )
            if any(
                dot(u, fan.edge(i)) == P.support.values[i]
                for i in range(fan.n_rays)
            ):
                continue
            a = dh_evaluate(P, u, directions[0])
            b = dh_evaluate(P, u, directions[1])
            assert a == b


def test_dh_face_slice():
    P = MultiPolytope(cross_fan(), [1, 1, 1, 1], face=(0,))
    assert dh_evaluate(P, (1, Fraction(1, 2))) == 1
    assert dh_evaluate(P, (1, Fraction(5, 2))) == 0
    with pytest.raises(ValueError):
        dh_evaluate(P, (0, 0))  # not on the wall <u, v_0> = 1


def test_count_bruteforce_fixtures():
    assert count_bruteforce(_square()) == 9
    assert count_bruteforce(MultiPolytope(projective_plane_fan(), [1, 1, 1])) == 10
    assert count_bruteforce(MultiPolytope(weighted_p112_fan(), [1, 1, 1])) == 9
    assert count_bruteforce(MultiPolytope(line_fan(), [1, 1])) == 3
    assert count_bruteforce(MultiPolytope(line_fan(weight=2), [1, 1])) == 6


def test_count_formula_fixtures():
    assert count_formula(_square()) == 9
    assert count_formula(MultiPolytope(projective_plane_fan(), [1, 1, 1])) == 10
    # the singular cone of the weighted plane contributes an order two
    # character sum whose -1 terms cancel the half-integer shifts
    assert count_formula(MultiPolytope(weighted_p112_fan(), [1, 1, 1])) == 9
    assert count_formula(MultiPolytope(line_fan(weight=2), [1, 1])) == 6


def test_count_agrees_with_picks_theorem():
    # triangle (1,1), (-3,1), (1,-1): area 4, boundary points 8
    P = MultiPolytope(weighted_p112_fan(), [1, 1, 1])
    assert volume(P) == 4
    assert count_formula(P) == 4 + Fraction(8, 2) + 1


def test_count_noncartier_support():
    fan = weighted_p112_fan()
    P = MultiPolytope(fan, [1, 0, 0])
    assert not P.support.is_T_Cartier(fan)
    assert P.vertices[(0, 2)] == (1, Fraction(-1, 2))
    assert count_formula(P) == count_bruteforce(P) == 2


def test_count_negative_supports():
    P = MultiPolytope(cross_fan(), [-1, 2, 3, 2])  # [-3,-1] x [-2,2]
    assert count_formula(P) == count_bruteforce(P) == 15


def test_count_requires_integer_supports():
    P = MultiPolytope(cross_fan(), [Fraction(1, 2), 1, 1, 1])
    with pytest.raises(ValueError):
        count_formula(P)
    with pytest.raises(ValueError):
        count_bruteforce(P)


def test_count_agreement_on_random_fans():
    rng = random.Random(0xA11CE)
    for seed in range(4):
        fan = random_complete_fan(seed, 2, steps=2)
        d = [rng.randint(-5, 5) for _ in range(fan.n_rays)]
        P = MultiPolytope(fan, d)
        assert count_formula(P) == count_bruteforce(P)


def test_count_face_fixtures():
    square = _square()
    assert count_face(square, ()) == 9
    assert count_face(square, (0,)) == 3  # edge {1} x [-1,1]
    simplex = MultiPolytope(projective_plane_fan(), [1, 1, 1])
    assert count_face(simplex, (1,)) == 4  # edge from (-2,1) to (1,1)
    assert count_face(simplex, (0, 1)) == 1  # vertex
    assert count_face(MultiPolytope(line_fan(), [1, 1]), ()) == 3


def test_count_face_keeps_group_normalization():
    # the doubled edge contributes |H_I| = 2 on both adjacent cones;
    # dropping the group order would give the wrong answer 3/2
    P = MultiPolytope(_weighted_edge_fan(), [2, 1, 1, 1])
    assert count_face(P, (0,)) == 3
    assert count_face(P, ()) == count_bruteforce(P) == 9


def test_count_face_phase_cancellation():
    # wall at <u, 2> = 1: the slice holds no lattice point, and the
    # two characters of the order two group cancel exactly
    P = MultiPolytope(line_fan(multiplier=2), [1, 1])
    assert count_face(P, (0,)) == 0
    assert count_bruteforce(MultiPolytope(P.fan, P.support, (0,))) == 0


def test_count_face_raises_when_the_routes_disagree(monkeypatch):
    # a typed error, not an assert, so the check survives python -O
    monkeypatch.setattr(polytopes, "_count_face_pushforward", lambda P, K: 99)
    with pytest.raises(CrossCheckFailed):
        count_face(_square(), (0,))


def test_count_formula_on_a_non_cartier_order_five_cone():
    # the vertex of the order five cone is non-integral, so its phase
    # e^(-2 pi i <d, h>) is a nontrivial character; with the opposite
    # sign the character sum is not an integer
    fan = MultiFan(2, [(1, 0), (0, 1), (-1, -5)], [(0, 1), (1, 2), (0, 2)])
    P = MultiPolytope(fan, [1, 1, 1])
    assert count_formula(P) == count_bruteforce(P) == 11


def test_count_formula_on_a_random_fan_with_a_unit_support():
    fan = random_complete_fan(1, 2, 10)
    P = MultiPolytope(fan, _unit_supports(fan))
    assert count_formula(P) == count_bruteforce(P) == -9


def _draw_weighted_fan(rng, ranks):
    """A complete fan of one of the ranks with edge multipliers in {1, 2},
    one weight in {1, -1, 2} on every cone, supports in {-1, ..., 2} and
    a nonempty face."""
    rank = rng.choice(ranks)
    steps = {1: 0, 2: rng.randint(0, 5), 3: rng.randint(0, 3), 4: rng.randint(0, 1)}[rank]
    base = random_complete_fan(rng.randrange(10**6), rank, steps)
    multipliers = [rng.choice((1, 2)) for _ in base.rays]
    weights = [rng.choice((1, -1, 2))] * len(base.cones)
    fan = MultiFan(rank, base.rays, base.cones, weights, multipliers)
    support = [rng.randint(-1, 2) for _ in base.rays]
    face = rng.choice(sorted(tuple(sorted(f)) for f in fan.faces if f))
    return MultiPolytope(fan, support), face


def _has_fractional_vertex_on_a_large_cone(P):
    return any(
        any(x.denominator != 1 for x in u) and P.fan.group_of(I).order >= 3
        for I, u in P.vertices.items()
    )


def _subdivided_at_the_vertex(P, rng):
    """P over one star subdivision of a top cone I, the new ray r given the
    support value <u_I, r> so that every new cone keeps the vertex u_I;
    None when that value is not an integer (or in rank 1, where no ray
    lies strictly inside a cone but its own)."""
    fan = P.fan
    if fan.rank == 1:
        return None
    I = rng.choice(fan.cones)
    coeffs = [rng.randint(1, 3) for _ in I]
    r = primitive_vector(
        [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*(fan.rays[i] for i in I))]
    )
    d = dot(P.vertices[I], r)
    if d.denominator != 1:
        return None
    return MultiPolytope(star_subdivide(fan, I, r), P.support.values + (d,))


def test_count_routes_agree_on_random_weighted_fans():
    rng = random.Random(0x5EED)
    # a separate stream for the subdivisions keeps the drawn fans fixed
    subdivide_rng = random.Random(0x5AB)
    ranks, weights, decomposed, fractional, subdivided = set(), set(), set(), 0, 0
    for _ in range(40):
        P, face = _draw_weighted_fan(rng, (1, 2, 3, 4))
        fan = P.fan
        count = count_formula(P)
        assert count == count_bruteforce(P), (fan, P)
        # both counts are unchanged by a subdivision at the vertex
        Q = _subdivided_at_the_vertex(P, subdivide_rng)
        if Q is not None:
            assert count_formula(Q) == count_bruteforce(Q) == count, (fan, P, Q.fan)
            subdivided += 1
        face_brute = count_bruteforce(MultiPolytope(fan, P.support, face))
        assert count_face(P, face) == face_brute, (fan, P, face)
        # Todd rigidity: the constant of the push-forward is the degree
        assert todd_genus(fan) == fan_degree(fan), fan
        if fan.rank >= 2:
            # face decomposition of every ray class, through both mu routes
            plane = sample_generic_plane(fan, 1)
            rays = fan.faces_of_card(1)
            for J in rays:
                cls = face_class(fan, J)
                mu = {K: morelli_coefficient(fan, cls, K, plane) for K in rays}
                assert face_decomposition_residual(fan, cls, P.support, mu) == 0, (fan, P, J)
            decomposed.add(fan.rank)
        ranks.add(fan.rank)
        weights.add(fan.weights[0])
        fractional += _has_fractional_vertex_on_a_large_cone(P)
    # the sweep must reach every rank and weight, and vertex phases that
    # are nontrivial characters of groups of order at least three
    assert ranks == {1, 2, 3, 4} and weights == {1, -1, 2}
    assert decomposed == {2, 3, 4}
    assert fractional >= 5
    assert subdivided >= 20


def _reference_dh_evaluate(P: MultiPolytope, u, v=None) -> int:
    # reference: the per-point Fraction evaluation the integer oracle replaced
    fan = P.fan
    u = tuple(Fraction(x) for x in u)
    if len(u) != fan.rank:
        raise RankMismatch("point rank mismatch")
    d = P.support.values
    for j in P.face:
        if dot(u, fan.edge(j)) != d[j]:
            raise ValueError(f"point off the face subspace (wall {j})")
    in_face = set(P.face)
    for i in range(fan.n_rays):
        if i not in in_face and dot(u, fan.edge(i)) == d[i]:
            raise PointOnWall(f"point lies on wall {i}")
    if v is None:
        v = sample_generic_vector(fan, random.Random(0xD11))
    total = 0
    for I in P.top_cones():
        duals = fan.dual_basis_of(I)
        flips = 0
        inside = True
        for pos, i in enumerate(I):
            if i in in_face:
                continue
            s = dot(duals[pos], v)
            if s == 0:
                raise NonGenericVector(f"{v} pairs to zero with a covector of {I}")
            lam = dot(u, fan.edge(i)) - d[i]
            if s > 0:
                flips += 1
            else:
                lam = -lam
            if lam < 0:
                inside = False
        if inside:
            total += (-1) ** flips * fan.weight(I)
    return total


def _reference_count_bruteforce(P: MultiPolytope) -> int:
    # reference: the enumerator over _reference_dh_evaluate, point by point
    fan = P.fan
    if any(x.denominator != 1 for x in P.support.values):
        raise ValueError("brute-force count needs integer support numbers")
    in_face = set(P.face)
    shifted = SupportClass(
        [
            x if i in in_face else x + Fraction(1, 2)
            for i, x in enumerate(P.support.values)
        ]
    )
    Q = MultiPolytope(fan, shifted, P.face)
    verts = list(Q.vertices.values())
    lo = [math.ceil(min(vt[c] for vt in verts) - 1) for c in range(fan.rank)]
    hi = [math.floor(max(vt[c] for vt in verts) + 1) for c in range(fan.rank)]
    v = sample_generic_vector(fan, random.Random(0xB0C5))
    total = 0
    for point in itertools.product(
        *(range(a, b + 1) for a, b in zip(lo, hi))
    ):
        if any(dot(point, fan.edge(j)) != P.support.values[j] for j in P.face):
            continue
        value = _reference_dh_evaluate(Q, point, v)
        if value and any(x == a or x == b for x, a, b in zip(point, lo, hi)):
            raise CrossCheckFailed(f"value {value} on the box shell at {point}")
        total += value
    return total


def test_bruteforce_matches_the_per_point_reference():
    rng = random.Random(0x0AC1E)
    for _ in range(16):
        P, face = _draw_weighted_fan(rng, (2, 3))
        for Q in (P, MultiPolytope(P.fan, P.support, face)):
            assert count_bruteforce(Q) == _reference_count_bruteforce(Q), (Q.fan, Q)


def test_bruteforce_refuses_a_box_over_the_budget():
    # the shifted triangle of P^2 dilated by 400 spans a box of
    # 1204 x 1204 points, about 1.4 budgets, and is refused at once
    P = MultiPolytope(projective_plane_fan(), [400, 400, 400])
    with pytest.raises(BudgetExceeded, match=f"1449616 points .* {BRUTE_FORCE_BUDGET}"):
        count_bruteforce(P)
    # an edge of it lies in a box of 3 x 1204 points, well inside
    assert count_bruteforce(MultiPolytope(P.fan, P.support, (0,))) == 1201


def test_count_face_rejects_bad_input():
    with pytest.raises(FaceNotInFan):
        count_face(_square(), (0, 2))
    edge = MultiPolytope(cross_fan(), [1, 1, 1, 1], face=(0,))
    with pytest.raises(FaceNotInFan):
        count_face(edge, (0,))


def test_volumes_of_fixtures():
    assert volume(_square()) == 4
    assert volume(MultiPolytope(projective_plane_fan(), [1, 1, 1])) == Fraction(9, 2)
    assert volume(MultiPolytope(projective_plane_fan(), [1, 1, 1]), K=(0,)) == 3
    assert volume(MultiPolytope(weighted_p112_fan(), [1, 1, 1])) == 4
    assert volume(MultiPolytope(_weighted_edge_fan(), [2, 1, 1, 1]), K=(0,)) == 2


def test_volume_homogeneity():
    fan = line_fan()
    for nu in (1, 2, 3):
        P = MultiPolytope(fan, [nu, nu])
        assert volume(P) == 2 * nu
    base = MultiPolytope(projective_plane_fan(), [1, 1, 1])
    dilated = MultiPolytope(projective_plane_fan(), [3, 3, 3])
    assert volume(dilated) == 9 * volume(base)
    assert volume(dilated, K=(2,)) == 3 * volume(base, K=(2,))
