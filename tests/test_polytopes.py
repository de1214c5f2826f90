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
    CrossCheckFailed,
    FaceNotInFan,
    InvalidFan,
    NonGenericVector,
    PointOnWall,
    RankMismatch,
)
from multifan.facering import SupportClass
from multifan.fans import MultiFan, random_complete_fan
from multifan.lattices import dot
from multifan.polytopes import (
    MultiPolytope,
    count_bruteforce,
    count_face,
    count_formula,
    dh_evaluate,
    volume,
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


@pytest.mark.xfail(strict=True, raises=CrossCheckFailed,
                   reason="vertex phase has the wrong sign for |H| >= 3")
def test_count_formula_on_a_non_cartier_order_five_cone():
    fan = MultiFan(2, [(1, 0), (0, 1), (-1, -5)], [(0, 1), (1, 2), (0, 2)])
    P = MultiPolytope(fan, [1, 1, 1])
    assert count_formula(P) == count_bruteforce(P) == 11


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
