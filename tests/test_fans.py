import itertools
import json
import random
from fractions import Fraction

import pytest

from multifan import cli
from multifan import fans as fans_module
from multifan.catalog import (
    cross_fan,
    hirzebruch_fan,
    line_fan,
    projective_plane_fan,
    projective_space_fan,
    weighted_p112_fan,
    with_doubled_multipliers,
)
from multifan.errors import (
    DependentRays,
    EmptyFan,
    FaceNotInFan,
    InvalidFan,
    NonGenericVector,
    RankMismatch,
    RayNotInterior,
)
from multifan.fans import (
    MultiFan,
    chamber_vectors,
    degree,
    fan_degree,
    is_complete,
    is_generic,
    is_precomplete,
    precompleteness,
    project,
    random_complete_fan,
    sample_generic_vector,
    star_subdivide,
)
from multifan.lattices import dot, kernel_basis, scale_to_integer
from multifan.polytopes import MultiPolytope
from multifan.todd import ehrhart_coefficients


def _incomplete_quadrant():
    return MultiFan(2, [(1, 0), (0, 1)], [(0, 1)])


def test_validation_rejects_bad_input():
    with pytest.raises(EmptyFan):
        MultiFan(2, [(1, 0), (0, 1)], [])
    with pytest.raises(InvalidFan):
        MultiFan(2, [(2, 0), (0, 1)], [(0, 1)])  # non-primitive ray
    with pytest.raises(InvalidFan):
        MultiFan(2, [(1, 0), (0, 1)], [(0, 1)], [0])  # zero weight
    with pytest.raises(InvalidFan):
        MultiFan(2, [(1, 0), (0, 1)], [(0, 1), (1, 0)])  # duplicate cone
    with pytest.raises(InvalidFan):
        MultiFan(2, [(1, 0), (0, 1), (0, -1)], [(0, 1)])  # unused ray
    with pytest.raises(DependentRays):
        MultiFan(2, [(1, 0), (-1, 0)], [(0, 1)])
    with pytest.raises(RankMismatch):
        MultiFan(0, [], [])
    with pytest.raises(InvalidFan):
        MultiFan(2, [(1, 0), (0, 1)], [(0, 1)], multipliers=[1, 0])


def test_faces_of_projective_plane():
    fan = projective_plane_fan()
    assert fan.cones == ((0, 1), (0, 2), (1, 2))
    assert fan.faces_of_card(1) == [(0,), (1,), (2,)]
    assert fan.faces_of_card(2) == [(0, 1), (0, 2), (1, 2)]
    assert fan.is_face(())
    assert not fan.is_face((0, 1, 2))
    assert fan.weight((1, 0)) == 1
    with pytest.raises(FaceNotInFan):
        fan.weight((0, 3))


def test_edges_use_multipliers():
    fan = line_fan(multiplier=3)
    assert fan.edge(0) == (3,)
    assert fan.edge(1) == (-3,)
    assert fan.rays[0] == (1,)


def test_dual_basis_of_singular_cone():
    fan = weighted_p112_fan()
    from fractions import Fraction

    u1, u3 = fan.dual_basis_of((0, 2))
    assert u1 == (1, Fraction(-1, 2))
    assert u3 == (0, Fraction(-1, 2))
    u2, u3b = fan.dual_basis_of((1, 2))
    assert u2 == (-2, 1)
    assert u3b == (-1, 0)


def test_group_of_cone_orders():
    fan = weighted_p112_fan()
    assert fan.group_of((0, 1)).order == 1
    assert fan.group_of((0, 2)).order == 2
    assert fan.group_of((1, 2)).order == 1
    assert fan.group_of(()).order == 1


def test_is_generic_and_degree():
    fan = projective_plane_fan()
    assert not is_generic(fan, (1, 0))
    assert not is_generic(fan, (1, 1))
    assert is_generic(fan, (2, 1))
    assert degree(fan, (2, 1)) == 1
    assert degree(fan, (-3, 1)) == 1
    with pytest.raises(NonGenericVector):
        degree(fan, (1, 0))
    with pytest.raises(RankMismatch):
        is_generic(fan, (1, 0, 0))


def test_degree_counts_weights():
    fan = MultiFan(
        2,
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        [2, 2, 2, 2],
    )
    assert degree(fan, (3, 1)) == 2
    assert precompleteness(fan) == (True, 2, "exact-walls")


def test_sample_generic_vector_is_deterministic():
    fan = weighted_p112_fan()
    rng1 = random.Random(11)
    rng2 = random.Random(11)
    v1 = sample_generic_vector(fan, rng1)
    v2 = sample_generic_vector(fan, rng2)
    assert v1 == v2
    assert is_generic(fan, v1)


def _chamber_patterns(fan):
    """Sign vectors of the chamber vectors against every facet span."""
    normals = {
        scale_to_integer(kernel_basis([fan.rays[i] for i in F])[0])
        for I in fan.cones
        for F in itertools.combinations(I, fan.rank - 1)
    }
    vs = chamber_vectors(fan)
    assert all(degree(fan, v) == 1 for v in vs)
    return {tuple(dot(u, v) > 0 for u in normals) for v in vs}


def test_chamber_vectors_cover_rank2():
    # six sectors cut out by the three ray spans, each hit at least once
    assert len(_chamber_patterns(projective_plane_fan())) == 6


def test_chamber_vectors_cover_rank3():
    # the facet planes are x=0, y=0, z=0, x=y, y=z, x=z, whose chambers
    # match the strict orderings of (x, y, z, 0)
    assert len(_chamber_patterns(projective_space_fan(3))) == 24


def test_chamber_vectors_cover_rank4():
    # likewise the strict orderings of (x, y, z, t, 0)
    assert len(_chamber_patterns(projective_space_fan(4))) == 120


def test_precompleteness_detects_gaps():
    assert is_precomplete(projective_plane_fan())
    assert is_precomplete(cross_fan())
    assert not is_precomplete(_incomplete_quadrant())
    # half-spaces: every jump fan is pre-complete, but the one on the
    # boundary wall has degree 1, not 0
    half_plane = MultiFan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
    half_space = MultiFan(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0)],
        [(a, b, 2) for a in (0, 3) for b in (1, 4)],
    )
    assert not is_precomplete(half_plane)
    assert not is_precomplete(half_space)
    ok, deg, method = precompleteness(projective_space_fan(3))
    assert (ok, deg, method) == (True, 1, "exact-walls")


def test_precompleteness_rejects_thin_cone_in_rank4():
    # P^4 plus one thin cone near (1, 0, 0, 0): the degree is 2 only on a
    # set that random generic vectors almost never hit
    base = projective_space_fan(4)
    fan = MultiFan(
        4,
        list(base.rays) + [(50, 1, 0, 0), (50, 0, 1, 0), (50, 0, 0, 1)],
        list(base.cones) + [(0, 5, 6, 7)],
    )
    assert precompleteness(fan) == (False, None, "exact-walls")
    assert len({degree(fan, v) for v in chamber_vectors(fan)}) == 2


def _random_multifan(rng):
    """A rank 1-3 multi-fan built to be pre-complete or only nearly so."""
    dim = rng.randint(1, 3)
    layers = [random_complete_fan(rng.randrange(10**6), dim, rng.randint(0, 2))]
    if rng.random() < 0.3:  # overlay a second fan that shares some walls
        layers.append(random_complete_fan(rng.randrange(10**6), dim, rng.randint(0, 2)))
    scale = rng.choice([1, 1, 2])
    rays, cones, weights = [], [], []
    for n, layer in enumerate(layers):
        sign = rng.choice([1, -1]) if n else 1
        for I in layer.cones:
            cones.append([len(rays) + i for i in I])
            weights.append(sign * scale)
        rays += layer.rays
    if rng.random() < 0.3:  # mixed-sign weights
        weights = [rng.choice([-2, -1, 1, 2]) for _ in cones]
    if rng.random() < 0.4:  # one ray duplicated, half its cones moved to the copy
        r = rng.randrange(len(rays))
        rays.append(rays[r])
        for I in cones:
            if r in I and rng.random() < 0.5:
                I[I.index(r)] = len(rays) - 1
    if rng.random() < 0.4 and len(cones) > 1:  # one cone dropped
        k = rng.randrange(len(cones))
        del cones[k], weights[k]
    used = sorted({i for I in cones for i in I})
    return MultiFan(
        dim,
        [rays[i] for i in used],
        [[used.index(i) for i in I] for I in cones],
        weights,
    )


def test_precompleteness_agrees_with_chamber_vectors():
    rng = random.Random(20031)
    verdicts = []
    for _ in range(60):
        fan = _random_multifan(rng)
        degs = {degree(fan, v) for v in chamber_vectors(fan)}
        expected = (True, degs.pop()) if len(degs) == 1 else (False, None)
        assert precompleteness(fan) == expected + ("exact-walls",), fan
        verdicts.append(expected)
    # the sweep must reach both verdicts, and degree 0 from cancelling layers
    assert {ok for ok, _ in verdicts} == {True, False}
    assert {0, 2} <= {deg for _, deg in verdicts}


def test_precomplete_but_not_complete():
    # the projective plane fan with one ray listed under two indices and
    # the adjacent cones split between them: every generic vector still
    # sees exactly one cone, but rank-one projections are unbalanced.
    fan = MultiFan(
        2,
        [(1, 0), (0, 1), (-1, -1), (1, 0)],
        [(0, 1), (1, 2), (2, 3)],
    )
    assert is_precomplete(fan)
    assert not is_complete(fan)


def test_completeness_of_catalog():
    assert is_complete(line_fan())
    assert is_complete(projective_plane_fan())
    assert is_complete(cross_fan())
    assert is_complete(weighted_p112_fan())
    assert is_complete(hirzebruch_fan())
    assert is_complete(hirzebruch_fan(3))
    assert not is_complete(_incomplete_quadrant())


def test_incomplete_rank1_projection():
    fan = MultiFan(1, [(1,), (-1,)], [(0,), (1,)], [1, 2])
    assert not is_complete(fan)
    assert is_complete(line_fan(weight=5))


def _complete_by_definition(fan):
    """The projection along every face of size n - 1 is pre-complete.

    The projections have rank 1, where pre-complete also means that the
    degree is the same on both sides.
    """
    verdicts = []
    for J in fan.faces_of_card(fan.rank - 1):
        line = project(fan, J).fan
        ok = precompleteness(line)[0]
        assert ok == (degree(line, (1,)) == degree(line, (-1,))), (fan, J)
        verdicts.append(ok)
    return all(verdicts)


def _perturbed(fan, rng):
    """One weight doubled, one weight negated, or one cone dropped when
    every ray is still used (else that weight is doubled)."""
    k = rng.randrange(len(fan.cones))
    kind = rng.choice(("double", "negate", "drop"))
    cones, weights = list(fan.cones), list(fan.weights)
    if kind == "drop" and {i for c in cones[:k] + cones[k + 1:] for i in c} == set(range(fan.n_rays)):
        del cones[k], weights[k]
    else:
        weights[k] *= -1 if kind == "negate" else 2
    return MultiFan(fan.rank, fan.rays, cones, weights, fan.multipliers)


def test_is_complete_matches_its_definition_on_random_fans():
    rng = random.Random(0xFACE7)
    verdicts = {True: 0, False: 0}
    for _ in range(50):
        rank = rng.randint(1, 4)
        steps = {1: 0, 2: rng.randint(0, 6), 3: rng.randint(0, 3), 4: rng.randint(0, 1)}[rank]
        base = random_complete_fan(rng.randrange(10**6), rank, steps)
        doubled = with_doubled_multipliers(base)
        for fan in (base, doubled, _perturbed(base, rng), _perturbed(doubled, rng)):
            ok = is_complete(fan)
            assert ok == _complete_by_definition(fan), fan
            verdicts[ok] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50


def test_no_runtime_path_projects(monkeypatch, tmp_path, capsys):
    # completeness reads the facet jumps; no caller builds a projected fan
    def refuse(*args):
        raise AssertionError("a projected fan was built")

    monkeypatch.setattr(fans_module, "project", refuse)
    assert is_complete(random_complete_fan(5, 3, 2))
    assert not is_complete(_incomplete_quadrant())
    MultiPolytope(hirzebruch_fan(2), [1, 1, 1, 1])  # refuses an incomplete fan
    assert ehrhart_coefficients(projective_plane_fan(), [1, 1, 1]) == (
        Fraction(9, 2), Fraction(9, 2), 1
    )
    for doc, complete in (
        ({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
          "cones": [{"rays": [1, 2]}, {"rays": [2, 3]}, {"rays": [1, 3]}]}, True),
        ({"rank": 1, "rays": [[1]], "cones": [{"rays": [1]}]}, False),
    ):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["complete"] is complete


def test_fan_degree_of_weighted_fan():
    fan = MultiFan(
        2,
        [(1, 0), (0, 1), (-1, -1)],
        [(0, 1), (0, 2), (1, 2)],
        [3, 3, 3],
    )
    assert is_complete(fan)
    assert fan_degree(fan) == 3


def test_projection_of_p112_singular_cone():
    fan = weighted_p112_fan()
    pr = project(fan, (2,))
    assert pr.fan.rank == 1
    # link rays 0 and 1 project to opposite sides
    signs = sorted(
        pr.fan.rays[pr.ray_map[i]][0] * pr.fan.multipliers[pr.ray_map[i]]
        for i in (0, 1)
    )
    assert signs[0] < 0 < signs[1]
    assert is_complete(pr.fan)
    # the projection matrix kills the edge through ray 2
    assert pr.project_vector(fan.edge(2)) == (0,)


def test_projection_keeps_weights():
    fan = MultiFan(
        2,
        [(1, 0), (0, 1), (-1, -1)],
        [(0, 1), (0, 2), (1, 2)],
        [1, 2, 3],
    )
    pr = project(fan, (0,))
    assert sorted(pr.fan.weights) == [1, 2]
    pr2 = project(fan, ())
    assert pr2.fan is fan


def test_projection_multiplier_from_non_primitive_image():
    # edge (1, 2) with multiplier 3 projects along ray (0, 1)... pick a
    # face whose link edge maps to a divisible vector.
    fan = MultiFan(
        2,
        [(0, 1), (1, -2), (-1, 0), (0, -1)],
        [(0, 1), (0, 2), (2, 3), (1, 3)],
        multipliers=[1, 3, 1, 1],
    )
    pr = project(fan, (0,))
    j = pr.ray_map[1]
    assert pr.fan.rays[j] == (1,)
    assert pr.fan.multipliers[j] == 3
    with pytest.raises(RankMismatch):
        project(fan, (0, 1))
    with pytest.raises(FaceNotInFan):
        project(fan, (0, 3))


def test_projected_fan_of_rank3_cone_face():
    fan = projective_space_fan(3)
    pr = project(fan, (0,))
    assert pr.fan.rank == 2
    assert is_complete(pr.fan)
    assert len(pr.fan.cones) == 3


def test_star_subdivide_projective_plane():
    fan = projective_plane_fan()
    out = star_subdivide(fan, (0, 1), (1, 1))
    assert len(out.cones) == 4
    assert out.rays[-1] == (1, 1)
    assert is_complete(out)
    assert (0, 1) not in out.cones
    assert (0, 3) in out.cones and (1, 3) in out.cones
    assert out.weight((0, 3)) == 1
    with pytest.raises(RayNotInterior):
        star_subdivide(fan, (0, 1), (1, -1))
    with pytest.raises(RayNotInterior):
        star_subdivide(fan, (0, 1), (1, 0))  # boundary is not interior
    with pytest.raises(FaceNotInFan):
        star_subdivide(fan, (0, 3), (1, 1))
    with pytest.raises(InvalidFan):
        star_subdivide(fan, (0, 1), (2, 2))


def test_star_subdivide_keeps_weights():
    fan = MultiFan(
        2,
        [(1, 0), (0, 1), (-1, -1)],
        [(0, 1), (0, 2), (1, 2)],
        [5, 1, 1],
    )
    out = star_subdivide(fan, (0, 1), (2, 1))
    assert out.weight((0, 3)) == 5
    assert out.weight((1, 3)) == 5
    assert out.weight((0, 2)) == 1


def test_random_complete_fan_sizes():
    for steps in range(4):
        fan2 = random_complete_fan(seed=3 + steps, dim=2, steps=steps)
        assert len(fan2.cones) == 3 + steps
        assert is_complete(fan2)
    fan3 = random_complete_fan(seed=9, dim=3, steps=2)
    assert len(fan3.cones) == 4 + 2 * 2
    assert is_complete(fan3)


def test_random_complete_fan_rank1_is_p1():
    # a half-line has no interior ray but its own, so steps change nothing
    p1 = projective_space_fan(1)
    for steps in range(6):
        fan = random_complete_fan(seed=steps, dim=1, steps=steps)
        assert (fan.rays, fan.cones, fan.weights) == (p1.rays, p1.cones, p1.weights)
        assert is_complete(fan)


def test_random_complete_fan_is_deterministic():
    a = random_complete_fan(seed=41, dim=2, steps=5)
    b = random_complete_fan(seed=41, dim=2, steps=5)
    assert a.rays == b.rays and a.cones == b.cones and a.weights == b.weights


def test_precompleteness_random_fans():
    for seed in range(6):
        fan = random_complete_fan(seed=seed, dim=2, steps=seed % 4)
        ok, deg, _ = precompleteness(fan)
        assert ok and deg == 1


def test_face_coordinates():
    from fractions import Fraction

    fan = weighted_p112_fan()
    coords = fan.face_coordinates((0, 2), (0, -2))
    # (0,-2) = 1*(1,0) + 1*(-1,-2)
    assert coords == (Fraction(1), Fraction(1))
