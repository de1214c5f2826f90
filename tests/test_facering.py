import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from multifan.catalog import (
    cross_fan,
    hirzebruch_fan,
    line_fan,
    projective_plane_fan,
    weighted_p112_fan,
)
from multifan.cyclotomic import (
    CyclotomicNumber,
    LaurentSeries,
    common_conductor,
    euler_phi,
    exp_series,
    root_of_unity,
    todd_factor_series,
)
from multifan import facering
from multifan.errors import NonGenericVector, PoleResidueNonzero
from multifan.facering import (
    CohomologyQuotient,
    EquivariantClass,
    SupportClass,
    embed_weight,
    face_class,
    fixed_point_series,
    graded_monomials,
    p_star,
    pushforward_eval,
    ray_class,
    restrict_eval,
)
from multifan.fans import MultiFan, projective_space_fan, random_complete_fan
from multifan.lattices import dot, dual_basis, quotient_group
from multifan.todd import (
    face_decomposition_residual,
    morelli_coefficient,
    sample_generic_plane,
    spanning_classes,
)


def _quadrant():
    return MultiFan(2, [(1, 0), (0, 1)], [(0, 1)])


def test_stanley_reisner_relations():
    fan = cross_fan()
    x0, x2 = ray_class(fan, 0), ray_class(fan, 2)
    assert (x0 * x2).is_zero()  # opposite rays never share a cone
    x1 = ray_class(fan, 1)
    prod = x0 * x1
    assert prod.terms == {(1, 1, 0, 0): Fraction(1)}
    assert face_class(fan, (0, 1)) == prod


def test_class_arithmetic():
    fan = projective_plane_fan()
    x0, x1 = ray_class(fan, 0), ray_class(fan, 1)
    c = 2 * x0 + x1 - x0
    assert c.terms == {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1)}
    assert (c - c).is_zero()
    assert c.homogeneous_degree() == 1
    assert (c * c + 1).homogeneous_degree() is None
    assert EquivariantClass.constant(fan, 0).homogeneous_degree() == 0


def test_embed_weight_restricts_to_the_weight():
    fan = weighted_p112_fan()
    u = (3, -2)
    theta = embed_weight(fan, u)
    v = (5, 1)
    for I in fan.cones:
        graded = restrict_eval(fan, theta, I, v)
        assert graded[0] == 0
        assert graded[1] == dot(u, v)


def test_restrict_eval_drops_off_cone_monomials():
    fan = projective_plane_fan()
    x2 = ray_class(fan, 2)
    assert restrict_eval(fan, x2, (0, 1), (7, 3)) == [0, 0]
    one = EquivariantClass.constant(fan, 5)
    assert restrict_eval(fan, one, (0, 1), (7, 3)) == [Fraction(5)]


def test_pushforward_interval_series():
    fan = line_fan()
    d = SupportClass([1, 1])
    one = EquivariantClass.constant(fan, 1)
    s = pushforward_eval(fan, one, (1,), support=d, high=2)
    assert s.coefficient(-1) == 0
    assert s.coefficient(0) == 2
    assert s.coefficient(1) == 0
    assert s.coefficient(2) == Fraction(1, 3)


def test_pushforward_of_a_mixed_degree_class():
    # constant term: area 9/2 + edge length 3 + vertex 1
    fan = projective_plane_fan()
    x0, x1 = ray_class(fan, 0), ray_class(fan, 1)
    s = pushforward_eval(
        fan, 1 + x0 + x0 * x1, (1, 2), support=SupportClass([1, 1, 1]), high=2
    )
    assert (s.low, s.high) == (-2, 2)
    assert [s.coefficient(m) for m in range(-2, 3)] == [
        0, 0, Fraction(17, 2), 3, Fraction(99, 8)
    ]


def test_pushforward_needs_generic_vector():
    fan = projective_plane_fan()
    one = EquivariantClass.constant(fan, 1)
    with pytest.raises(NonGenericVector):
        pushforward_eval(fan, one, (1, 0))


def test_p_star_of_one_vanishes_when_complete():
    for fan in (line_fan(), projective_plane_fan(), weighted_p112_fan()):
        assert p_star(fan, EquivariantClass.constant(fan, 1)) == 0


def test_p_star_detects_missing_cones():
    fan = _quadrant()
    # the second call reads the cached vector pair and must fail the same way
    for _ in range(2):
        with pytest.raises(PoleResidueNonzero):
            p_star(fan, EquivariantClass.constant(fan, 1))


def test_p_star_of_top_face_class():
    fan = projective_plane_fan()
    assert p_star(fan, face_class(fan, (0, 1))) == 1
    sing = weighted_p112_fan()
    assert p_star(sing, face_class(sing, (0, 2))) == Fraction(1, 2)
    assert p_star(sing, face_class(sing, (0, 1))) == 1


def test_p_star_weighted_fan():
    fan = MultiFan(
        2,
        [(1, 0), (0, 1), (-1, -1)],
        [(0, 1), (0, 2), (1, 2)],
        [3, 3, 3],
    )
    assert p_star(fan, face_class(fan, (0, 1))) == 3


def test_pushforward_keeps_its_values_off_the_constant_term():
    # pinned: fractional vertices, mixed degrees, windows past t^0, and the
    # surviving poles of an incomplete fan
    fan = weighted_p112_fan()
    x0, x1, x2 = (ray_class(fan, i) for i in range(3))
    cls = 1 + x2 + x0 * x2 + x1 * x1
    s = pushforward_eval(fan, cls, (3, -2), support=SupportClass([1, 0, 0]), high=2)
    assert s.coeffs == [0, 0, Fraction(13, 4), Fraction(19, 12), Fraction(149, 48)]
    s = pushforward_eval(fan, x1 * x2, (3, -2), high=1)
    assert s.coeffs == [0, 0, 1, 0]
    fan = projective_space_fan(3)
    x = [ray_class(fan, i) for i in range(4)]
    s = pushforward_eval(
        fan, x[0] * x[1] + 2 * x[3] * x[3], (5, -1, 2), support=SupportClass([1, 2, 0, -1]), high=1
    )
    assert (s.low, s.coeffs) == (-3, [0, 0, 0, 6, -10])
    fan = _quadrant()
    cls = EquivariantClass.constant(fan, 1) + ray_class(fan, 0)
    s = pushforward_eval(fan, cls, (2, 3), support=SupportClass([1, 2]), high=1)
    assert s.coeffs == [Fraction(1, 6), Fraction(5, 3), 8, Fraction(224, 9)]


def test_p_star_samples_one_vector_pair_per_support(monkeypatch):
    calls = []
    sample = facering.sample_generic_vector

    def counted(fan, rng):
        calls.append(fan)
        return sample(fan, rng)

    monkeypatch.setattr(facering, "sample_generic_vector", counted)
    fan = projective_space_fan(3)
    classes = spanning_classes(fan, 2)
    faces = fan.faces_of_card(2)
    unit, skew = SupportClass([1] * 4), SupportClass([2, -1, 0, 3])
    for p in range(2):
        plane = sample_generic_plane(fan, 2, random.Random(p))
        for cls in classes[:10]:
            mu = {J: morelli_coefficient(fan, cls, J, plane) for J in faces}
            assert face_decomposition_residual(fan, cls, unit, mu) == 0
    assert len(calls) == 2
    assert face_decomposition_residual(fan, cls, skew, mu) == 0
    assert len(calls) == 4


def test_cached_p_star_equals_a_fresh_pair_from_the_default_seed():
    fan = hirzebruch_fan(2)
    for support in (SupportClass([1] * fan.n_rays), SupportClass([2, -1, 0, 3])):
        for J in sorted(tuple(sorted(f)) for f in fan.faces):
            cls = face_class(fan, J)
            fresh = p_star(fan, cls, support, rng=random.Random(0xF1E1D))
            assert p_star(fan, cls, support) == fresh, (support, J)


def test_volumes_from_exponential_pushforward():
    fan = cross_fan()
    one = EquivariantClass.constant(fan, 1)
    assert p_star(fan, one, SupportClass([1, 1, 1, 1])) == 4
    fan = line_fan()
    one = EquivariantClass.constant(fan, 1)
    assert p_star(fan, one, SupportClass([1, 1])) == 2
    fan = projective_plane_fan()
    one = EquivariantClass.constant(fan, 1)
    assert p_star(fan, one, SupportClass([1, 1, 1])) == Fraction(9, 2)
    fan = weighted_p112_fan()
    one = EquivariantClass.constant(fan, 1)
    assert p_star(fan, one, SupportClass([1, 1, 1])) == 4


def test_pushforward_kills_weight_multiples():
    fan = projective_plane_fan()
    theta = embed_weight(fan, (1, 0))
    y = ray_class(fan, 0)
    assert p_star(fan, theta * y) == 0
    assert p_star(fan, theta * y, SupportClass([1, 1, 1])) == 0


def test_support_restriction_vertices():
    fan = weighted_p112_fan()
    d = SupportClass([1, 1, 1])
    assert d.restrict(fan, (0, 1)) == (1, 1)
    assert d.restrict(fan, (1, 2)) == (-3, 1)
    assert d.restrict(fan, (0, 2)) == (1, -1)
    assert d.is_T_Cartier(fan)
    assert not SupportClass([1, 0, 0]).is_T_Cartier(fan)
    assert SupportClass([1, 1, 1, 1]).is_T_Cartier(cross_fan())


def test_graded_monomials():
    fan = projective_plane_fan()
    assert graded_monomials(fan, 0) == [(0, 0, 0)]
    assert len(graded_monomials(fan, 1)) == 3
    assert len(graded_monomials(fan, 2)) == 6
    assert all(sum(e) == 2 for e in graded_monomials(fan, 2))
    sq = cross_fan()
    assert len(graded_monomials(sq, 2)) == 8  # four squares, four products


def test_cohomology_quotient_dimensions():
    for fan, betti in (
        (projective_plane_fan(), (1, 1, 1)),
        (cross_fan(), (1, 2, 1)),
        (hirzebruch_fan(1), (1, 2, 1)),
        (weighted_p112_fan(), (1, 1, 1)),
    ):
        dims = tuple(CohomologyQuotient(fan, k).dimension for k in range(3))
        assert dims == betti


def test_cohomology_reduce_is_linear_and_kills_relations():
    fan = projective_plane_fan()
    q = CohomologyQuotient(fan, 2)
    theta = embed_weight(fan, (2, -1))
    rel = theta * ray_class(fan, 1)
    assert all(c == 0 for c in q.reduce(rel))
    a = face_class(fan, (0, 1))
    b = face_class(fan, (1, 2))
    left = q.reduce(a + b)
    right = tuple(x + y for x, y in zip(q.reduce(a), q.reduce(b)))
    assert left == right
    # distinct top cones represent the same cohomology class up to the
    # ideal, in line with the push-forward values
    assert q.reduce(a) == q.reduce(b)


# Two independent oracles for the primal kernel, both summing over the
# elements h of the cone group in Q(zeta_N) with the coordinates of h as
# character phases; both return the sum, so the kernel's average is the
# sum divided by |H|.


def _per_element_series(pairings, group, twisted, terms, a=0, phase=None):
    """The fixed-point sum term by term over every element of the group."""
    total = None
    for _, coords in group:
        term = exp_series(a, terms)
        for pos in twisted:
            term = term * todd_factor_series(pairings[pos], coords[pos], terms)
        if phase is not None:
            term = term.scale(root_of_unity(sum(x * c for x, c in zip(phase, coords))))
        total = term if total is None else total + term
    return total


def _galois_series(pairings, group, twisted, terms, a=0, phase=None):
    """The fixed-point sum with one term per cyclic subgroup, traced to Q.

    The terms of h and kh, k prime to the order m of h, are Galois
    conjugates (the phase is integral), and the sum of sigma_k(x) over
    k in (Z/m)^* is phi(m)/phi(N) Tr(x) for x in Q(zeta_N), N | m.
    """
    total = None
    seen = set()
    for _, coords in group:
        key = tuple(c % 1 for c in coords)
        if key in seen:
            continue
        m = common_conductor(key)
        units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
        seen.update(tuple(k * c % 1 for c in key) for k in units)
        term = exp_series(a, terms)
        for pos in twisted:
            term = term * todd_factor_series(pairings[pos], coords[pos], terms)
        if phase is not None:
            e = Fraction(sum(x * c for x, c in zip(phase, coords)))
            if e.denominator != 1:
                term = term.scale(root_of_unity(e))
        orbit = LaurentSeries(
            term.low,
            [x.trace() * Fraction(len(units), euler_phi(x.conductor))
             for x in map(CyclotomicNumber.coerce, term.coeffs)],
        )
        total = orbit if total is None else total + orbit
    return total


def _assert_kernel_matches_the_oracles(pairings, duals, group, twisted, terms, a, phase):
    fast = fixed_point_series(pairings, duals, twisted, terms, a, phase)
    for oracle in (_per_element_series, _galois_series):
        slow = oracle(pairings, group, twisted, terms, a, phase)
        assert (fast.low, fast.high) == (slow.low, slow.high)
        for k in range(slow.low, slow.high + 1):
            assert type(fast.coefficient(k)) is Fraction
            assert fast.coefficient(k) == slow.coefficient(k) * Fraction(1, group.order), (
                oracle.__name__, twisted, phase, k
            )


def _random_inputs(rng, n):
    def rational():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))

    pairings = [rational() for _ in range(n)]
    return pairings, rational(), tuple(rng.randint(-3, 3) for _ in range(n))


_KERNEL_GROUPS = {
    "Z/4": [(1, 0), (1, 4)],
    "Z/9": [(1, 0), (2, 9)],
    "Z/12": [(1, 0), (5, 12)],
    "Z/23": [(1, 0), (3, 23)],
    "(Z/3)^2 rank 2": [(3, 0), (0, 3)],
    "(Z/3)^2 rank 3": [(3, 0, 0), (0, 3, 0), (1, 1, 1)],
    "Z/2 x Z/4": [(2, 0), (0, 4)],
    "Z/2 x Z/12": [(2, 0), (0, 12)],
}


@pytest.mark.parametrize("name", list(_KERNEL_GROUPS))
def test_fixed_point_series_matches_the_per_element_sum(name):
    # top cones: the covectors dual to the edges, in the standard basis
    rays = _KERNEL_GROUPS[name]
    group = quotient_group(rays)
    duals = dual_basis(rays)
    n = len(rays)
    rng = random.Random(name)
    for size in range(n + 1):
        for twisted in itertools.combinations(range(n), size):
            pairings, a, phase = _random_inputs(rng, n)
            for ph in (None, phase):
                _assert_kernel_matches_the_oracles(pairings, duals, group, twisted, 4, a, ph)


# (seed, rank, star subdivisions, edge multipliers): complete fans whose
# faces of every size below the rank have cyclic groups and products
# such as Z/2 x Z/12 and (Z/3)^2 inside the span of the face
_FACE_FANS = [
    (3, 2, 3, (2, 12, 3, 1, 1, 1)),
    (5, 3, 2, (2, 12, 1, 3, 1, 1)),
    (8, 3, 2, (3, 3, 3, 1, 2, 1)),
    (2, 4, 1, (2, 3, 1, 2, 1, 1)),
]


@pytest.mark.parametrize("spec", _FACE_FANS, ids=lambda s: f"rank {s[1]} seed {s[0]}")
def test_fixed_point_series_matches_the_oracles_on_faces(spec):
    seed, dim, steps, multipliers = spec
    fan = random_complete_fan(seed, dim, steps).with_multipliers(multipliers)
    rng = random.Random(seed)
    orders = set()
    for size in range(1, dim):
        for J in fan.faces_of_card(size):
            group = fan.group_of(J)
            orders.add(group.order)
            duals = fan.face_dual_basis(J)
            for tsize in range(size + 1):
                for twisted in itertools.combinations(range(size), tsize):
                    pairings, a, phase = _random_inputs(rng, size)
                    _assert_kernel_matches_the_oracles(
                        pairings, duals, group, twisted, 3 + dim, a, phase
                    )
    assert max(orders) > 1


def test_fixed_point_series_rejects_a_fractional_phase():
    duals = dual_basis(_KERNEL_GROUPS["Z/4"])
    with pytest.raises(ValueError):
        fixed_point_series([1, 2], duals, (0, 1), 3, phase=(Fraction(1, 2), 0))
