"""Acceptance suite: ten exact end-to-end checks, tolerance zero.

Each test prints one pass/fail line; conftest.py repeats the verdicts
in the terminal summary of every run, so `pytest tests/test_acceptance.py -v`
always ends with one line per criterion.
"""

import contextlib
import random
import time
from fractions import Fraction

from multifan.catalog import (
    cross_fan,
    hirzebruch_fan,
    line_fan,
    projective_plane_fan,
    weighted_p112_fan,
    with_doubled_multipliers,
)
from multifan.facering import (
    EquivariantClass,
    SupportClass,
    embed_weight,
    face_class,
    p_star,
    ray_class,
)
from multifan.fans import random_complete_fan, sample_generic_vector
from multifan.polytopes import (
    MultiPolytope,
    count_bruteforce,
    count_formula,
    dh_evaluate,
    volume,
)
from multifan.todd import (
    cohomology_decomposition_residual,
    ehrhart_coefficients,
    face_decomposition_residual,
    morelli_coefficient,
    sample_generic_plane,
    spanning_classes,
    subdivision_residual,
    todd_face_coefficient,
    todd_genus,
    todd_pushforward,
)


@contextlib.contextmanager
def _criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {summary}", flush=True)
        raise
    print(f"[PASS] criterion {number:2d}: {summary}", flush=True)


def _standard_fixtures():
    return [
        line_fan(),
        line_fan(weight=2),
        cross_fan(),
        projective_plane_fan(),
        weighted_p112_fan(),
        hirzebruch_fan(),
    ]


def test_criterion_01_rigid_todd_pushforward():
    """criterion 1: Todd push-forward constant, value = degree, on complete fans"""
    with _criterion(1, "Todd push-forward constant, value = degree, on complete fans"):
        named = [
            (line_fan(), 1),
            (projective_plane_fan(), 1),
            (cross_fan(), 1),
            (weighted_p112_fan(), 1),
            (line_fan(weight=2), 2),
        ]
        fans = [random_complete_fan(seed, 2, steps=2 + seed % 5) for seed in range(12)]
        fans += [random_complete_fan(seed, 3, steps=1 + seed % 4) for seed in range(8)]
        named += [(fan, 1) for fan in fans]
        assert len(named) == 25
        for fan, expected in named:
            assert len(fan.cones) <= 40
            started = time.monotonic()
            v = sample_generic_vector(fan, random.Random(11))
            series = todd_pushforward(fan, v)
            assert series.coefficient(0) == expected
            for m in range(-fan.rank, fan.rank + 1):
                if m:
                    assert series.coefficient(m) == 0
            assert time.monotonic() - started < 10


def test_criterion_02_counting_agreement():
    """criterion 2: formula count equals brute-force count, Cartier or not"""
    with _criterion(2, "formula count equals brute-force count, Cartier or not"):
        references = [
            (cross_fan(), 9),
            (projective_plane_fan(), 10),
            (weighted_p112_fan(), 9),
        ]
        for fan, expected in references:
            P = MultiPolytope(fan, [1] * fan.n_rays)
            assert count_formula(P) == count_bruteforce(P) == expected
        for fan in (line_fan(), line_fan(weight=2), hirzebruch_fan()):
            P = MultiPolytope(fan, [1] * fan.n_rays)
            assert count_formula(P) == count_bruteforce(P)
        rng = random.Random(0xACC2)
        for seed in range(10):
            fan = random_complete_fan(seed, 2, steps=seed % 3)
            d = [rng.randint(-5, 5) for _ in range(fan.n_rays)]
            P = MultiPolytope(fan, d)
            assert count_formula(P) == count_bruteforce(P), (seed, d)
        corner = MultiPolytope(weighted_p112_fan(), [1, 0, 0])
        assert not corner.support.is_T_Cartier(corner.fan)
        assert count_formula(corner) == count_bruteforce(corner) == 2


def test_criterion_03_lattice_count_coefficients():
    """criterion 3: dilation-count coefficients with volume and boundary checks"""
    with _criterion(3, "dilation-count coefficients with volume and boundary checks"):
        expected = {
            cross_fan: (4, 4, 1),
            projective_plane_fan: (Fraction(9, 2), Fraction(9, 2), 1),
            weighted_p112_fan: (4, 4, 1),
        }
        for make, coeffs in expected.items():
            fan = make()
            xi = [1] * fan.n_rays
            a = ehrhart_coefficients(fan, xi)
            assert a == coeffs
            n = fan.rank
            for nu in range(1, 6):
                predicted = sum(a[k] * nu ** (n - k) for k in range(n + 1))
                assert predicted == count_bruteforce(MultiPolytope(fan, [nu] * fan.n_rays))
            P = MultiPolytope(fan, xi)
            assert a[0] == volume(P)
            assert a[1] == sum(volume(P, (i,)) for i in range(fan.n_rays)) / 2
            assert a[-1] == todd_genus(fan)


def test_criterion_04_face_decomposition_identity():
    """criterion 4: class = sum of coefficient * face class under push-forward"""
    with _criterion(4, "class = sum of coefficient * face class under push-forward"):
        for fan in _standard_fixtures():
            rng = random.Random(0xD15C)
            supports = [SupportClass([1] * fan.n_rays)]
            for _ in range(2):
                supports.append(
                    SupportClass([rng.randint(-5, 5) for _ in range(fan.n_rays)])
                )
            for k in range(1, fan.rank + 1):
                classes = spanning_classes(fan, k)
                faces = fan.faces_of_card(k)
                for p in range(10):
                    plane = sample_generic_plane(fan, k, rng)
                    for cls in classes:
                        mu = {J: morelli_coefficient(fan, cls, J, plane) for J in faces}
                        for xi in supports:
                            assert face_decomposition_residual(fan, cls, xi, mu) == 0


def test_criterion_05_coefficient_decomposition_of_counts():
    """criterion 5: a_k equals sum over faces of mu_k times face volume"""
    with _criterion(5, "a_k equals sum over faces of mu_k times face volume"):
        for fan in _standard_fixtures():
            xi = [1] * fan.n_rays
            a = ehrhart_coefficients(fan, xi)
            P = MultiPolytope(fan, xi)
            assert todd_face_coefficient(fan, ()) == 1
            assert a[0] == volume(P)
            rng = random.Random(0x5E5)
            for k in range(1, fan.rank + 1):
                for _ in range(10):
                    E = sample_generic_plane(fan, k, rng)
                    rhs = sum(
                        todd_face_coefficient(fan, J, E) * volume(P, J)
                        for J in fan.faces_of_card(k)
                    )
                    assert a[k] == rhs, (fan.rays, k)
        for make in (line_fan, cross_fan, projective_plane_fan, hirzebruch_fan):
            fan = make()
            rng = random.Random(0xB2B)
            E = sample_generic_plane(fan, 1, rng)
            for i in range(fan.n_rays):
                assert todd_face_coefficient(fan, (i,), E) == Fraction(1, 2)


def test_criterion_06_dual_route_coefficients():
    """criterion 6: wedge-pairing and line-intersection coefficients agree"""
    with _criterion(6, "wedge-pairing and line-intersection coefficients agree"):
        # every morelli_coefficient call cross-checks the two evaluation
        # routes internally; here the returned value must also survive
        # orientation flips of the face wedge and of the sampled line
        for fan in (cross_fan(), projective_plane_fan(), weighted_p112_fan(), hirzebruch_fan()):
            rng = random.Random(0xF11)
            for k in range(1, fan.rank + 1):
                plane = sample_generic_plane(fan, k, rng)
                for cls in spanning_classes(fan, k):
                    for J in fan.faces_of_card(k):
                        base = morelli_coefficient(fan, cls, J, plane)
                        for om, ln in ((-1, 1), (1, -1), (-1, -1)):
                            assert morelli_coefficient(
                                fan, cls, J, plane, omega_sign=om, line_sign=ln
                            ) == base


def test_criterion_07_edge_multiplier_independence():
    """criterion 7: doubling edge multipliers changes no reported number"""
    with _criterion(7, "doubling edge multipliers changes no reported number"):
        for make in (cross_fan, projective_plane_fan, weighted_p112_fan):
            fan = make()
            doubled = with_doubled_multipliers(fan)
            assert todd_genus(doubled) == todd_genus(fan)
            rng = random.Random(0x2D2)
            for k in range(1, fan.rank + 1):
                for _ in range(3):
                    # the same plane, sampled for each fan, keeps that fan's readings
                    twin = random.Random()
                    twin.setstate(rng.getstate())
                    E = sample_generic_plane(fan, k, rng)
                    E2 = sample_generic_plane(doubled, k, twin)
                    assert E2.basis == E.basis
                    for J in fan.faces_of_card(k):
                        assert todd_face_coefficient(fan, J, E) == todd_face_coefficient(
                            doubled, J, E2
                        )
            # the same geometric polytope: walls <u, 2 v_i> = 2 d_i
            supports = [[1] * fan.n_rays]
            if fan.n_rays == 4:
                supports.append([-1, 2, 3, 2])
            for d in supports:
                P = MultiPolytope(fan, d)
                Q = MultiPolytope(doubled, [2 * x for x in d])
                count = count_formula(P)
                assert count == count_bruteforce(P)
                assert count == count_formula(Q) == count_bruteforce(Q)
                assert volume(P) == volume(Q)


def test_criterion_08_subdivision_additivity():
    """criterion 8: cone Todd series is additive under star subdivision"""
    with _criterion(8, "cone Todd series is additive under star subdivision"):
        quadrant = [(1, 0), (0, 1)]
        cases = [
            (quadrant, [[(1, 0), (1, 1)], [(1, 1), (0, 1)]]),
            (quadrant, [[(1, 0), (2, 1)], [(2, 1), (0, 1)]]),
        ]
        octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        interior = (1, 1, 1)
        cases.append(
            (
                octant,
                [
                    [(1, 0, 0), (0, 1, 0), interior],
                    [(0, 1, 0), (0, 0, 1), interior],
                    [(1, 0, 0), (0, 0, 1), interior],
                ],
            )
        )
        rng = random.Random(0x5D1)
        for parent, children in cases:
            n = len(parent)
            done = 0
            while done < 5:
                v = tuple(rng.randint(-20, 20) for _ in range(n))
                try:
                    res = subdivision_residual(parent, children, v)
                except Exception:
                    continue
                assert res.is_zero_on(-n, n), (parent, v)
                done += 1


def test_criterion_09_cohomology_decomposition():
    """criterion 9: decomposition descends to ordinary cohomology classes"""
    with _criterion(9, "decomposition descends to ordinary cohomology classes"):
        for make in (projective_plane_fan, cross_fan, hirzebruch_fan):
            fan = make()
            rng = random.Random(0xC33)
            for k in range(1, fan.rank + 1):
                for _ in range(5):
                    E = sample_generic_plane(fan, k, rng)
                    for cls in spanning_classes(fan, k):
                        mu = {J: morelli_coefficient(fan, cls, J, E) for J in fan.faces_of_card(k)}
                        res = cohomology_decomposition_residual(fan, cls, mu)
                        assert all(x == 0 for x in res)


def test_criterion_10_functional_sanity():
    """criterion 10: push-forward and wall-count functions ignore sampling"""
    with _criterion(10, "push-forward and wall-count functions ignore sampling"):
        for fan in _standard_fixtures():
            xi = SupportClass([1] * fan.n_rays)
            probes = [EquivariantClass.constant(fan, 1), ray_class(fan, 0)]
            for cls in probes:
                one = p_star(fan, cls, support=xi, rng=random.Random(1))
                two = p_star(fan, cls, support=xi, rng=random.Random(2))
                assert one == two
            basis = [
                tuple(1 if j == i else 0 for j in range(fan.rank))
                for i in range(fan.rank)
            ]
            for u in basis:
                for y in probes:
                    assert p_star(fan, embed_weight(fan, u) * y, support=xi) == 0
        for fan in (cross_fan(), projective_plane_fan(), weighted_p112_fan()):
            P = MultiPolytope(fan, [1] * fan.n_rays)
            v1 = sample_generic_vector(fan, random.Random(41))
            v2 = sample_generic_vector(fan, random.Random(42))
            rng = random.Random(0xD0D0)
            done = 0
            while done < 100:
                u = tuple(
                    rng.randint(-4, 4) + Fraction(rng.randint(0, 3), 4)
                    for _ in range(fan.rank)
                )
                try:
                    first = dh_evaluate(P, u, v1)
                except Exception:
                    continue
                assert first == dh_evaluate(P, u, v2), u
                done += 1
