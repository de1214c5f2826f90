import random
import time
from fractions import Fraction

import pytest

from multifan.catalog import (
    cross_fan,
    hirzebruch_fan,
    line_fan,
    projective_plane_fan,
    weighted_p112_fan,
    with_doubled_multipliers,
)
from multifan.cyclotomic import CyclotomicNumber, todd_factor_series
from multifan.errors import (
    InvalidFan,
    NonGenericPlane,
    NonGenericVector,
    NotTCartier,
    RankMismatch,
    RigidityViolation,
)
from multifan import facering
from multifan import fans as fans_module
from multifan.facering import (
    EquivariantClass,
    SupportClass,
    cohomology_quotient,
    face_class,
    graded_monomials,
    p_star,
    pushforward_eval,
    ray_class,
)
from multifan.fans import (
    MultiFan,
    fan_degree,
    is_complete,
    projective_space_fan,
    random_complete_fan,
    sample_generic_vector,
)
from multifan.lattices import dot, dual_basis, rank
from multifan.polytopes import (
    MultiPolytope,
    count_bruteforce,
    count_face,
    count_formula,
    volume,
)
from multifan.todd import (
    GenericPlane,
    cone_todd_series,
    cohomology_decomposition_residual,
    ehrhart_coefficients,
    face_decomposition_residual,
    face_wedge,
    morelli_coefficient,
    sample_generic_plane,
    spanning_classes,
    subdivision_residual,
    todd_face_coefficient,
    todd_genus,
    todd_pushforward,
    wedge_coordinates,
    wedge_pair,
)

_FIXTURES = [
    ("interval", line_fan, 1),
    ("doubled interval", lambda: line_fan(weight=2), 2),
    ("square", cross_fan, 1),
    ("plane", projective_plane_fan, 1),
    ("weighted plane", weighted_p112_fan, 1),
    ("hirzebruch", hirzebruch_fan, 1),
]


def test_todd_genus_equals_degree_on_fixtures():
    for _, make, expected in _FIXTURES:
        fan = make()
        assert todd_genus(fan) == expected


def test_todd_pushforward_window_is_constant():
    fan = weighted_p112_fan()
    v = sample_generic_vector(fan, random.Random(4))
    series = todd_pushforward(fan, v, high=4)
    assert series.coefficient(0) == 1
    for m in range(-2, 5):
        if m:
            assert series.coefficient(m) == 0


def test_todd_pushforward_rejects_incomplete_fans():
    quadrant = MultiFan(2, [(1, 0), (0, 1)], [(0, 1)])
    v = (3, 5)
    with pytest.raises(RigidityViolation):
        todd_pushforward(quadrant, v)


_NONGENERIC_CALLS = {
    "count_formula": lambda fan: count_formula(MultiPolytope(fan, [1, 1, 1, 1]), (1, 0)),
    "cone_todd_series": lambda fan: cone_todd_series(fan.rays[:2], (1, 0)),
    "todd_pushforward": lambda fan: todd_pushforward(fan, (1, 0)),
    "pushforward_eval": lambda fan: pushforward_eval(
        fan, EquivariantClass.constant(fan, 1), (1, 0)
    ),
}


@pytest.mark.parametrize("name", list(_NONGENERIC_CALLS))
def test_fixed_point_sums_reject_nongeneric_vectors(name):
    # (1, 0) pairs to zero with a dual covector of every cone of the square
    with pytest.raises(NonGenericVector):
        _NONGENERIC_CALLS[name](cross_fan())


def test_ehrhart_coefficients_of_fixtures():
    assert ehrhart_coefficients(cross_fan(), [1, 1, 1, 1]) == (4, 4, 1)
    assert ehrhart_coefficients(projective_plane_fan(), [1, 1, 1]) == (
        Fraction(9, 2),
        Fraction(9, 2),
        1,
    )
    assert ehrhart_coefficients(weighted_p112_fan(), [1, 1, 1]) == (4, 4, 1)


def test_ehrhart_polynomial_matches_dilated_counts():
    for make in (cross_fan, projective_plane_fan, weighted_p112_fan):
        fan = make()
        a = ehrhart_coefficients(fan, [1] * fan.n_rays)
        n = fan.rank
        for nu in range(1, 6):
            predicted = sum(a[k] * nu ** (n - k) for k in range(n + 1))
            counted = count_bruteforce(MultiPolytope(fan, [nu] * fan.n_rays))
            assert predicted == counted, (make.__name__, nu)


def test_ehrhart_edge_and_vertex_coefficients():
    # a_0 is the volume, a_1 half the sum of facet volumes, a_n the genus
    for make in (cross_fan, projective_plane_fan, weighted_p112_fan):
        fan = make()
        xi = [1] * fan.n_rays
        a = ehrhart_coefficients(fan, xi)
        P = MultiPolytope(fan, xi)
        assert a[0] == volume(P)
        assert a[1] == sum(volume(P, (i,)) for i in range(fan.n_rays)) / 2
        assert a[-1] == todd_genus(fan)


def test_ehrhart_requires_integral_vertices():
    with pytest.raises(NotTCartier):
        ehrhart_coefficients(weighted_p112_fan(), [1, 0, 0])


def test_wedge_coordinates_and_pairing():
    assert wedge_coordinates([(1, 0), (0, 1)], 2) == (1,)
    assert wedge_coordinates([(2, 3)], 2) == (2, 3)
    assert wedge_coordinates([], 2) == (1,)
    # det of the 2x2 pairing matrix [[1, 4], [1, 1]] via matching minors
    a = wedge_coordinates([(1, 2, 0), (0, 1, 1)], 3)
    b = wedge_coordinates([(1, 0, 1), (2, 1, 0)], 3)
    assert wedge_pair(a, b) == -3
    with pytest.raises(RankMismatch):
        wedge_pair((1, 2), (1, 2, 3))


def test_face_wedge_vanishes_off_the_face():
    fan = projective_plane_fan()
    # covector of another ray is swallowed by the face wedge
    assert all(c == 0 for c in face_wedge(fan, (0,), 1))
    assert all(c == 0 for c in face_wedge(fan, (0,), 2))
    assert any(c != 0 for c in face_wedge(fan, (0,), 0))
    # top-dimensional faces use the empty wedge: plain covectors
    assert face_wedge(fan, (0, 1), 0) == (1, 0)
    assert face_wedge(fan, (0, 1), 1) == (0, 1)


def test_sampled_planes_are_deterministic_and_certified():
    fan = weighted_p112_fan()
    E1 = sample_generic_plane(fan, 1, random.Random(9))
    E2 = sample_generic_plane(fan, 1, random.Random(9))
    assert E1.basis == E2.basis
    assert len(E1.basis) == fan.rank  # n - k + 1 with k = 1
    assert E1.certificates == (
        "rank-one-face-intersections",
        "nonzero-line-pairings",
        "nonzero-wedge-pairings",
        "face-covector-surjectivity",
    )
    with pytest.raises(RankMismatch):
        sample_generic_plane(fan, 0)


def test_mu_on_face_classes():
    # mu(x_J, J) = 1 and mu(x_J', J) = 0 for any other face J'
    for make in (projective_plane_fan, cross_fan, weighted_p112_fan):
        fan = make()
        for k in (1, 2):
            E = sample_generic_plane(fan, k, random.Random(21 + k))
            for J in fan.faces_of_card(k):
                for Jp in fan.faces_of_card(k):
                    expected = 1 if J == Jp else 0
                    got = morelli_coefficient(fan, face_class(fan, Jp), J, E)
                    assert got == expected, (J, Jp)


def test_mu_is_invariant_under_orientation_flips():
    fan = cross_fan()
    for k in (1, 2):
        E = sample_generic_plane(fan, k, random.Random(33 + k))
        for J in fan.faces_of_card(k):
            for cls in spanning_classes(fan, k):
                base = morelli_coefficient(fan, cls, J, E)
                for om, ln in ((-1, 1), (1, -1), (-1, -1)):
                    flipped = morelli_coefficient(
                        fan, cls, J, E, omega_sign=om, line_sign=ln
                    )
                    assert flipped == base


def test_mu_rejects_degree_mismatch():
    fan = cross_fan()
    E = sample_generic_plane(fan, 1, random.Random(2))
    with pytest.raises(RankMismatch):
        morelli_coefficient(fan, face_class(fan, (0, 1)), (0,), E)


def test_mu_k_special_values():
    fan = projective_plane_fan()
    assert todd_face_coefficient(fan, ()) == 1
    for seed in (1, 2, 3):
        E = sample_generic_plane(fan, 1, random.Random(seed))
        for i in range(3):
            assert todd_face_coefficient(fan, (i,), E) == Fraction(1, 2)


def test_mu_k_decomposes_ehrhart_coefficients():
    for make in (cross_fan, projective_plane_fan, weighted_p112_fan):
        fan = make()
        xi = [1] * fan.n_rays
        a = ehrhart_coefficients(fan, xi)
        P = MultiPolytope(fan, xi)
        assert a[0] == todd_face_coefficient(fan, ()) * volume(P)
        for k in (1, 2):
            E = sample_generic_plane(fan, k, random.Random(77 + k))
            rhs = sum(
                todd_face_coefficient(fan, J, E) * volume(P, J)
                for J in fan.faces_of_card(k)
            )
            assert a[k] == rhs, (make.__name__, k)


def test_mu_k_ignores_edge_multipliers():
    for make in (projective_plane_fan, weighted_p112_fan):
        fan = make()
        doubled = with_doubled_multipliers(fan)
        assert todd_genus(doubled) == todd_genus(fan)
        for k in (1, 2):
            E = sample_generic_plane(fan, k, random.Random(41 + k))
            E2 = sample_generic_plane(doubled, k, random.Random(41 + k))
            assert E2.basis == E.basis
            for J in fan.faces_of_card(k):
                assert todd_face_coefficient(fan, J, E) == todd_face_coefficient(
                    doubled, J, E2
                )


def test_spanning_family_spans_each_degree():
    for make in (cross_fan, projective_plane_fan, weighted_p112_fan):
        fan = make()
        for k in (1, 2):
            monomials = graded_monomials(fan, k)
            vectors = [
                [cls.terms.get(m, Fraction(0)) for m in monomials]
                for cls in spanning_classes(fan, k)
            ]
            assert rank(vectors) == len(monomials), (make.__name__, k)


def _mu_table(fan, cls, plane):
    return {J: morelli_coefficient(fan, cls, J, plane) for J in fan.faces_of_card(plane.k)}


def test_face_decomposition_residual_is_zero():
    for make in (projective_plane_fan, cross_fan, weighted_p112_fan, hirzebruch_fan):
        fan = make()
        xi = SupportClass([1] * fan.n_rays)
        for k in (1, 2):
            E = sample_generic_plane(fan, k, random.Random(10 * k))
            for cls in spanning_classes(fan, k):
                assert face_decomposition_residual(fan, cls, xi, _mu_table(fan, cls, E)) == 0


def test_face_decomposition_residual_many_planes():
    fan = projective_plane_fan()
    xi = SupportClass([1, 2, 1])
    cls = ray_class(fan, 1)
    rng = random.Random(0xBEEF)
    for _ in range(5):
        E = sample_generic_plane(fan, 1, rng)
        assert face_decomposition_residual(fan, cls, xi, _mu_table(fan, cls, E)) == 0


def test_cohomology_decomposition_residual_is_zero():
    # fans of smooth projective toric surfaces: cohomology is generated
    # in degree two, so the class decomposition descends to the quotient
    for make in (projective_plane_fan, cross_fan, hirzebruch_fan):
        fan = make()
        for k in (1, 2):
            E = sample_generic_plane(fan, k, random.Random(5 * k + 1))
            for cls in spanning_classes(fan, k):
                res = cohomology_decomposition_residual(fan, cls, _mu_table(fan, cls, E))
                assert all(x == 0 for x in res)


def test_decomposition_residuals_refuse_incomplete_fans():
    # a single ray in rank 1: a plane can be sampled and mu read off it,
    # but the push-forward identity only holds on complete fans
    fan = MultiFan(1, [(1,)], [(0,)])
    E = sample_generic_plane(fan, 1, random.Random(1))
    cls = ray_class(fan, 0)
    mu = _mu_table(fan, cls, E)
    assert mu == {(0,): 1}
    with pytest.raises(InvalidFan):
        face_decomposition_residual(fan, cls, [1], mu)
    with pytest.raises(InvalidFan):
        cohomology_decomposition_residual(fan, cls, mu)


def _reference_decomposition(fan, cls, mu):
    """D = sum_J mu_J x_J, for a class of degree 1..rank on a complete fan."""
    k = cls.homogeneous_degree()
    if not k or not 1 <= k <= fan.rank:
        raise RankMismatch("class must be homogeneous of degree 1..rank")
    if not is_complete(fan):
        raise InvalidFan("the face decomposition needs a complete multi-fan")
    return sum((face_class(fan, J) * m for J, m in mu.items()), EquivariantClass.zero(fan))


def test_residuals_match_the_decomposition_class():
    # oracle: build D = sum_J mu_J x_J and push it forward (or reduce x - D)
    # as one class.  One mu_J is off by 1, so every residual is nonzero and
    # a dropped face term or a flipped sign changes it.
    fans = [
        projective_plane_fan(),
        hirzebruch_fan(2),
        weighted_p112_fan(),
        projective_space_fan(3),
        random_complete_fan(0, 3, 1),
    ]
    for fan in fans:
        supports = [
            SupportClass([1] * fan.n_rays),
            SupportClass([Fraction(i + 2, 2) for i in range(fan.n_rays)]),
        ]
        for k in range(1, fan.rank + 1):
            E = sample_generic_plane(fan, k, random.Random(90 + k))
            faces = fan.faces_of_card(k)
            classes = spanning_classes(fan, k)
            for cls, J in ((classes[0], faces[0]), (classes[-1], faces[-1])):
                mu = _mu_table(fan, cls, E)
                mu[J] += 1
                D = _reference_decomposition(fan, cls, mu)
                for xi in supports:
                    expected = p_star(fan, cls, support=xi) - p_star(fan, D, support=xi)
                    assert expected != 0
                    assert face_decomposition_residual(fan, cls, xi, mu) == expected
                expected = cohomology_quotient(fan, k).reduce(cls - D)
                assert any(expected)
                assert cohomology_decomposition_residual(fan, cls, mu) == expected


def test_line_readings_do_not_depend_on_the_sign_of_the_first_reading():
    # a plane keeps the cone pairings of its stored lines: a flipped first
    # reading must give the values and leave the entries of an unflipped one
    for make in (projective_plane_fan, weighted_p112_fan):
        fan = make()
        for k in (1, 2):
            flipped_first = sample_generic_plane(fan, k, random.Random(60 + k))
            plain_first = sample_generic_plane(fan, k, random.Random(60 + k))
            classes = spanning_classes(fan, k)
            for J in fan.faces_of_card(k):
                for cls in classes:
                    expected = morelli_coefficient(fan, cls, J, plain_first)
                    for om in (1, -1):
                        assert morelli_coefficient(
                            fan, cls, J, flipped_first, omega_sign=om, line_sign=-1
                        ) == expected
            assert flipped_first.line_values == plain_first.line_values


def test_coefficients_reject_a_plane_of_the_wrong_size():
    fan = projective_space_fan(3)
    E = sample_generic_plane(fan, 2, random.Random(4))
    J = fan.faces_of_card(3)[0]
    with pytest.raises(RankMismatch):
        morelli_coefficient(fan, face_class(fan, J), J, E)
    with pytest.raises(RankMismatch):
        todd_face_coefficient(fan, J, E)


def test_face_wedge_orientation_flip_negates_every_coordinate():
    fan = projective_space_fan(3)
    for k in (1, 2, 3):
        for J in fan.faces_of_card(k):
            for i in range(fan.n_rays):
                flipped = face_wedge(fan, J, i, omega_sign=-1)
                assert flipped == tuple(-c for c in face_wedge(fan, J, i)), (J, i)


def test_self_intersections_via_pushforward():
    # fan walk on the smooth surface: v_prev + v_next = -(D_i^2) v_i
    from multifan.facering import p_star

    fan = hirzebruch_fan(1)
    numbers = [p_star(fan, ray_class(fan, i) * ray_class(fan, i)) for i in range(4)]
    assert numbers == [0, -1, 0, 1]


def test_cone_todd_series_rank_one():
    s = cone_todd_series([(1,)], (1,))
    assert s.coefficient(-1) == 1
    assert s.coefficient(0) == Fraction(1, 2)
    assert s.coefficient(1) == Fraction(1, 12)
    # an edge vector of length two averages two characters but spans the
    # same cone, so the series is unchanged
    d = cone_todd_series([(2,)], (1,))
    for m in range(-1, 2):
        assert d.coefficient(m) == s.coefficient(m)


def test_cone_todd_series_smooth_cone_factorizes():
    v = (3, 2)
    s = cone_todd_series([(1, 0), (0, 1)], v)
    prod = todd_factor_series(3, 1, 7) * todd_factor_series(2, 1, 7)
    for m in range(-2, 3):
        assert s.coefficient(m) == prod.coefficient(m)


def test_subdivision_residuals_vanish():
    from multifan.todd import subdivision_residual

    v = (5, 3)
    cases = [
        ([(1, 0), (0, 1)], [[(1, 0), (1, 1)], [(1, 1), (0, 1)]]),
        ([(1, 0), (0, 1)], [[(1, 0), (2, 1)], [(2, 1), (0, 1)]]),
        ([(1, 0), (0, 1)], [[(1, 0), (0, 1)]]),
    ]
    for parent, children in cases:
        res = subdivision_residual(parent, children, v)
        assert res.is_zero_on(-2, 2)
    ray = (1, 1, 1)
    children = [
        [(1, 0, 0), (0, 1, 0), ray],
        [(0, 1, 0), (0, 0, 1), ray],
        [(1, 0, 0), (0, 0, 1), ray],
    ]
    res = subdivision_residual([(1, 0, 0), (0, 1, 0), (0, 0, 1)], children, (7, 3, 2))
    assert res.is_zero_on(-3, 3)


def test_rigidity_on_random_complete_fans():
    for seed in range(3):
        fan = random_complete_fan(seed, 2, steps=3)
        v = sample_generic_vector(fan, random.Random(seed + 100))
        series = todd_pushforward(fan, v)
        assert series.coefficient(0) == todd_genus(fan)


def _weighted_plane(d):
    """P(1, 1, d): rays e1, e2, -e1 - d e2; the cone on e1 and the last ray has index d."""
    return MultiFan(2, [(1, 0), (0, 1), (-1, -d)], [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("d", [9, 12, 193, 997])
def test_todd_genus_of_weighted_planes(d):
    fan = _weighted_plane(d)
    assert todd_genus(fan) == fan_degree(fan) == 1


@pytest.mark.parametrize("d", [9, 12])
def test_ehrhart_of_weighted_planes_matches_brute_force(d):
    fan = _weighted_plane(d)
    k = next(k for k in range(1, d + 1) if SupportClass([k] * 3).is_T_Cartier(fan))
    a = ehrhart_coefficients(fan, [k] * 3)
    for nu in (1, 2):
        predicted = sum(a[j] * nu ** (2 - j) for j in range(3))
        assert predicted == count_bruteforce(MultiPolytope(fan, [nu * k] * 3)), nu


def test_ehrhart_on_an_index_97_vertex_matches_brute_force():
    # the wall of the last ray alone is T-Cartier from the multiple 97 on; its
    # polytope has a vertex on the index-97 cone and a box of 196 points
    fan = _weighted_plane(97)
    k = next(k for k in range(1, 98) if SupportClass([0, 0, k]).is_T_Cartier(fan))
    assert k == 97
    a = ehrhart_coefficients(fan, [0, 0, k])
    for nu in (1, 2):
        predicted = sum(a[j] * nu ** (2 - j) for j in range(3))
        assert predicted == count_bruteforce(MultiPolytope(fan, [0, 0, nu * k])), nu


def test_a_cone_with_group_97_squared_is_additive_and_fast():
    # H = Z/97 x Z/97 and every dual covector has order 97, so the kernel
    # walks 97^3 / 97^2 = 97 points per cone; the star subdivision at the sum
    # of the edges has three children with the same group
    rays = [(1, 2, 3), (1, -95, 100), (-1, -2, -100)]
    r = tuple(map(sum, zip(*rays)))
    children = [[rays[j] for j in range(3) if j != i] + [r] for i in range(3)]
    v = (3, -7, 11)
    start = time.perf_counter()
    series = cone_todd_series(rays, v)
    residual = subdivision_residual(rays, children, v)
    assert time.perf_counter() - start < 1.0
    c = [dot(u, v) for u in dual_basis(rays)]
    assert series.coefficient(-3) == Fraction(1, 97 * 97) / (c[0] * c[1] * c[2])
    assert residual.is_zero_on(-3, 3)


def test_todd_genus_builds_one_term_per_cyclic_subgroup(monkeypatch):
    # the kernel reads the unit Todd coefficients once per top cone: 3
    # untwisted factors, against 2 + 2 + 97 * 2 summed element by element
    calls = []

    def counted(*args):
        calls.append(args)
        return todd_factor_series(*args)

    monkeypatch.setattr(facering, "todd_factor_series", counted)
    fan = _weighted_plane(97)
    assert todd_genus(fan) == fan_degree(fan) == 1
    assert len(calls) == 3
    assert all(phase == 0 for _, phase, _ in calls)


def test_fixed_point_sums_build_no_cone_group(monkeypatch):
    # the kernel enumerates the group of the dual cone, one element per
    # parallelepiped point; no caller builds a cone group H, also on an
    # index-97 cone
    def refuse(*args):
        raise AssertionError("a cone group was built")

    monkeypatch.setattr(fans_module, "quotient_group", refuse)
    fan = _weighted_plane(97)
    assert todd_genus(fan) == 1
    assert ehrhart_coefficients(fan, [0, 0, 97])[0] == Fraction(97, 2)
    assert count_formula(MultiPolytope(fan, [0, 1, 0])) == 99
    assert count_face(MultiPolytope(fan, [0, 0, 97]), (0,)) == 2
    plane = sample_generic_plane(fan, 1)
    assert todd_face_coefficient(fan, (2,), plane) == Fraction(1, 2)


def test_runtime_paths_build_no_cyclotomic_number(monkeypatch):
    # every series on the runtime path holds rationals; Q(zeta_N) is only
    # the tests' reference, also on an index-97 cone
    def refuse(*args):
        raise AssertionError("a cyclotomic number was built")

    monkeypatch.setattr(CyclotomicNumber, "__init__", refuse)
    fan = _weighted_plane(97)
    P = MultiPolytope(fan, [0, 0, 97])
    assert todd_genus(fan) == 1
    assert ehrhart_coefficients(fan, [0, 0, 97]) == (Fraction(97, 2), Fraction(99, 2), 1)
    assert count_formula(MultiPolytope(fan, [0, 1, 0])) == 99
    assert count_face(P, (0,)) == 2
    assert todd_face_coefficient(fan, (2,), sample_generic_plane(fan, 1)) == Fraction(1, 2)
    assert volume(P) == Fraction(97, 2) and volume(P, (2,)) == 1
    parent = [(1, 0), (-1, -97)]
    children = [[(1, 0), (0, -1)], [(0, -1), (-1, -97)]]
    assert subdivision_residual(parent, children, (5, 3)).is_zero_on(-2, 2)
