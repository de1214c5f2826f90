"""Simplicial multi-fans: weighted collections of simplicial cones.

A multi-fan is a simplicial complex of ray index sets together with a
nonzero integer weight on each top-dimensional cone.  Cones may overlap
and ray vectors may repeat, so the data is strictly more general than a
fan.  Each ray i carries a primitive vector and a positive edge
multiplier k_i; the prescribed edge vector is v_i = k_i * (primitive
ray).

Crossing a facet F of the fan, the degree jumps by b_F, the signed sum
of the weights of the top cones on F.  A multi-fan is pre-complete when
its degree is constant, and complete when its projection along every
facet is pre-complete (Hattori-Masuda, "Theory of multi-fans").  That
projection has rank 1 and balances exactly when b_F = 0, so a multi-fan
is complete when every facet jump vanishes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CrossCheckFailed,
    DependentRays,
    EmptyFan,
    FaceNotInFan,
    InvalidFan,
    NonGenericVector,
    RankMismatch,
    RayNotInterior,
)
from .lattices import (
    FiniteAbelianGroup,
    OrientedBasis,
    Vec,
    annihilator_basis,
    determinant,
    dot,
    dual_basis,
    primitive_vector,
    quotient_group,
    saturated_dual_basis,
    smith_normal_form,
    solve_in_span,
)


class MultiFan:
    """Immutable simplicial multi-fan of full-dimensional cones."""

    def __init__(self, rank, rays, cones, weights=None, multipliers=None):
        rank = int(rank)
        if rank < 1:
            raise RankMismatch("rank must be at least 1")
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        for r in rays:
            if len(r) != rank:
                raise RankMismatch(f"ray {r} does not have rank {rank}")
            if all(x == 0 for x in r):
                raise InvalidFan("zero ray")
            if primitive_vector(r) != r:
                raise InvalidFan(f"ray {r} is not primitive")
        if multipliers is None:
            multipliers = (1,) * len(rays)
        multipliers = tuple(int(m) for m in multipliers)
        if len(multipliers) != len(rays) or any(m < 1 for m in multipliers):
            raise InvalidFan("edge multipliers must be positive, one per ray")
        cones = [tuple(sorted(int(i) for i in c)) for c in cones]
        if not cones:
            raise EmptyFan("a multi-fan needs at least one top cone")
        if weights is None:
            weights = (1,) * len(cones)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(cones):
            raise InvalidFan("one weight per cone required")
        if any(w == 0 for w in weights):
            raise InvalidFan("weights must be nonzero")
        seen = set()
        for c in cones:
            if len(c) != rank or len(set(c)) != rank:
                raise InvalidFan(f"cone {c} must have {rank} distinct rays")
            if any(i < 0 or i >= len(rays) for i in c):
                raise InvalidFan(f"cone {c} uses an unknown ray index")
            if c in seen:
                raise InvalidFan(f"cone {c} listed twice")
            seen.add(c)
        order = sorted(range(len(cones)), key=lambda i: cones[i])
        self.rank = rank
        self.rays = rays
        self.multipliers = multipliers
        self.cones = tuple(cones[i] for i in order)
        self.weights = tuple(weights[i] for i in order)
        used = {i for c in self.cones for i in c}
        if used != set(range(len(rays))):
            raise InvalidFan("every ray must appear in at least one top cone")
        for c in self.cones:
            if determinant([self.edge(i) for i in c]) == 0:
                raise DependentRays(f"cone {c} spans less than the full rank")
        self._cache: dict = {}

    # -- basic structure ----------------------------------------------------

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def edge(self, i: int) -> Vec:
        return tuple(self.multipliers[i] * x for x in self.rays[i])

    def weight(self, cone) -> int:
        key = tuple(sorted(cone))
        try:
            return self.weights[self.cones.index(key)]
        except ValueError:
            raise FaceNotInFan(f"{key} is not a top cone") from None

    @property
    def faces(self) -> frozenset:
        if "faces" not in self._cache:
            fs = {frozenset()}
            for c in self.cones:
                for k in range(1, self.rank + 1):
                    fs.update(map(frozenset, itertools.combinations(c, k)))
            self._cache["faces"] = frozenset(fs)
        return self._cache["faces"]

    def faces_of_card(self, k: int) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(f)) for f in self.faces if len(f) == k)

    def is_face(self, J) -> bool:
        return frozenset(J) in self.faces

    def cones_containing(self, K) -> list[tuple[int, ...]]:
        K = set(K)
        return [c for c in self.cones if K.issubset(c)]

    def dual_basis_of(self, I) -> tuple:
        """Covectors u_i^I dual to the prescribed edges of a top cone."""
        key = tuple(sorted(I))
        cache = self._cache.setdefault("dual", {})
        if key not in cache:
            if key not in self.cones:
                raise FaceNotInFan(f"{key} is not a top cone")
            cache[key] = dual_basis([self.edge(i) for i in key])
        return cache[key]

    def group_of(self, J) -> FiniteAbelianGroup:
        """Quotient H_{J,V} of the face J (trivial group for J = ())."""
        key = tuple(sorted(J))
        cache = self._cache.setdefault("group", {})
        if key not in cache:
            if not self.is_face(key):
                raise FaceNotInFan(f"{key} is not a face")
            cache[key] = quotient_group([self.edge(i) for i in key])
        return cache[key]

    def face_dual_basis(self, J) -> tuple:
        """Covectors dual to the edges of the face J, in a basis of span(J) meet N."""
        key = tuple(sorted(J))
        cache = self._cache.setdefault("face_dual", {})
        if key not in cache:
            if not self.is_face(key):
                raise FaceNotInFan(f"{key} is not a face")
            cache[key] = saturated_dual_basis([self.edge(i) for i in key])
        return cache[key]

    def annihilator_of(self, J) -> OrientedBasis:
        """Oriented basis of the covectors in M vanishing on the face J."""
        key = tuple(sorted(J))
        cache = self._cache.setdefault("annihilator", {})
        if key not in cache:
            cache[key] = annihilator_basis([self.edge(i) for i in key])
        return cache[key]

    def face_coordinates(self, J, x) -> tuple[Fraction, ...]:
        """Coordinates of x in the edge basis of face J (x must lie in the span)."""
        return solve_in_span([self.edge(j) for j in sorted(J)], x)

    def with_multipliers(self, multipliers) -> "MultiFan":
        return MultiFan(self.rank, self.rays, self.cones, self.weights, multipliers)

    def __repr__(self):
        return (
            f"MultiFan(rank={self.rank}, rays={len(self.rays)}, "
            f"cones={len(self.cones)})"
        )


# ---------------------------------------------------------------------------
# genericity and degree


def is_generic(fan: MultiFan, v) -> bool:
    """True when v avoids the span of every cone of positive codimension."""
    if len(v) != fan.rank:
        raise RankMismatch("vector rank mismatch")
    for I in fan.cones:
        for u in fan.dual_basis_of(I):
            if dot(u, v) == 0:
                return False
    return True


def degree(fan: MultiFan, v) -> int:
    """Weighted number of cones containing the generic vector v."""
    if not is_generic(fan, v):
        raise NonGenericVector(f"{v} lies on a cone span")
    total = 0
    for I, w in zip(fan.cones, fan.weights):
        if all(dot(u, v) > 0 for u in fan.dual_basis_of(I)):
            total += w
    return total


def sample_generic_vector(fan: MultiFan, rng: random.Random) -> Vec:
    """Deterministic rejection sampling of a generic integer vector."""
    bound = 1
    for I in fan.cones:
        for u in fan.dual_basis_of(I):
            for x in u:
                bound = max(bound, abs(x.numerator))
    bound *= 10
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(fan.rank))
        if any(v) and is_generic(fan, v):
            return v


# ---------------------------------------------------------------------------
# walls, completeness, chambers and pre-completeness


def _oriented(u) -> Vec:
    """The primitive vector along u, signed so that it exceeds its negative."""
    u = primitive_vector(u)
    return max(u, tuple(-x for x in u))


def _int_dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def _wall_jumps(fan: MultiFan) -> dict[Vec, dict[tuple[int, ...], int]]:
    """Jumps b_F of the degree across each facet F = I \\ {i}, by wall.

    A wall is keyed by its oriented primitive normal u, (1,) in rank 1:
    the last column of the Smith transform Q of the rays of F, which
    spans their kernel.  The cone I lies on the side sign<u, v_i> of F,
    so crossing the wall along u adds w(I) * sign<u, v_i> to b_F.
    """
    normals: dict[tuple[int, ...], Vec] = {(): (1,)}
    walls: dict[Vec, dict[tuple[int, ...], int]] = {}
    for I, w in zip(fan.cones, fan.weights):
        for i in I:
            F = tuple(j for j in I if j != i)
            if F not in normals:
                Q = smith_normal_form([fan.rays[j] for j in F])[2]
                normals[F] = _oriented([row[-1] for row in Q])
            u = normals[F]
            jumps = walls.setdefault(u, {})
            jumps[F] = jumps.get(F, 0) + (w if _int_dot(u, fan.rays[i]) > 0 else -w)
    return walls


def is_complete(fan: MultiFan) -> bool:
    """Exact completeness test: every facet jump b_F of the degree is 0.

    The projection along a facet F is a rank-1 multi-fan, pre-complete
    exactly when the weights on its two sides balance, which is b_F = 0.
    The verdict is cached on the fan.
    """
    if "complete" not in fan._cache:
        walls = _wall_jumps(fan).values()
        fan._cache["complete"] = not any(b for jumps in walls for b in jumps.values())
    return fan._cache["complete"]


def _constant_degree(fan: MultiFan) -> bool:
    """Exact test that the degree is the same at every generic vector.

    Across the wall u^perp the degree jumps by the degree of the jump fan
    of the facets with b_F != 0, weighted by b_F, in the saturated lattice
    u^perp cap N.  So it is constant iff every jump fan has degree 0 everywhere.
    """
    if fan.rank == 1:
        return is_complete(fan)
    for u, jumps in _wall_jumps(fan).items():
        facets = [F for F, b in jumps.items() if b]
        if not facets:
            continue
        basis = annihilator_basis([u]).vectors
        used = sorted({i for F in facets for i in F})
        jump = MultiFan(
            fan.rank - 1,
            [tuple(int(x) for x in solve_in_span(basis, fan.rays[i])) for i in used],
            [[used.index(i) for i in F] for F in facets],
            [jumps[F] for F in facets],
            [fan.multipliers[i] for i in used],
        )
        if not (_constant_degree(jump) and fan_degree(jump) == 0):
            return False
    return True


def _chamber_points(normals: list[Vec], k: int) -> list[Vec]:
    """Integer points meeting every chamber of the walls u^perp in Q^k.

    Deletion-restriction: the chambers of W_1..W_m are met by the points
    for W_1..W_(m-1) off W_m and by N*q +- u_m, q meeting every chamber of
    the earlier walls restricted to W_m; N = 1 + max |<u_j, u_m>| keeps
    <u_j, N*q +- u_m> of the sign of <u_j, q> != 0.  One point per sign vector.
    """
    points = [(0,) * k]
    for m, u in enumerate(normals):
        basis = annihilator_basis([u]).vectors
        restricted = {_oriented([_int_dot(w, b) for b in basis]) for w in normals[:m]}
        scale = 1 + max((abs(_int_dot(w, u)) for w in normals[:m]), default=0)
        on_wall = [
            tuple(sum(c * b[j] for c, b in zip(q, basis)) for j in range(k))
            for q in _chamber_points(sorted(restricted), k - 1)
        ]
        chambers = {}
        for p in [p for p in points if _int_dot(u, p)] + [
            tuple(scale * x + s * y for x, y in zip(q, u)) for q in on_wall for s in (1, -1)
        ]:
            chambers.setdefault(tuple(_int_dot(w, p) > 0 for w in normals[: m + 1]), p)
        points = list(chambers.values())
    return points


def chamber_vectors(fan: MultiFan) -> list[Vec]:
    """One generic integer vector per chamber of the facet arrangement.

    Exact in every rank.  `precompleteness` does not use it; it is the
    reference that tests compare the wall recursion against.
    """
    out = [primitive_vector(p) for p in _chamber_points(sorted(_wall_jumps(fan)), fan.rank)]
    # the arrangement contains every facet span, so samples are generic
    for v in out:
        if not is_generic(fan, v):
            raise CrossCheckFailed(f"chamber vector {v} is not generic")
    return out


def precompleteness(fan: MultiFan) -> tuple[bool, int | None, str]:
    """(is_precomplete, degree if constant, method used).

    Exact in every rank by recursion over the jumps of the degree across
    walls (Hattori-Masuda, "Theory of multi-fans").
    """
    if _constant_degree(fan):
        return True, fan_degree(fan), "exact-walls"
    return False, None, "exact-walls"


def is_precomplete(fan: MultiFan) -> bool:
    return precompleteness(fan)[0]


# ---------------------------------------------------------------------------
# projections


@dataclass(frozen=True)
class ProjectedMultiFan:
    """Multi-fan induced on the quotient lattice N / N_K."""

    base: MultiFan
    K: tuple[int, ...]
    fan: MultiFan
    projection: tuple[Vec, ...]  # rows of the projection matrix N -> N^K
    ray_map: dict  # base link ray index -> projected fan ray index

    def project_vector(self, v) -> tuple:
        return tuple(dot(row, v) for row in self.projection)


def project(fan: MultiFan, K) -> ProjectedMultiFan:
    """Projected multi-fan on the link of the face K."""
    K = tuple(sorted(set(int(i) for i in K)))
    if not fan.is_face(K):
        raise FaceNotInFan(f"{K} is not a face")
    n = fan.rank
    k = len(K)
    if k == 0:
        ident = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        return ProjectedMultiFan(
            fan, K, fan, ident, {i: i for i in range(fan.n_rays)}
        )
    if k == n:
        raise RankMismatch("projection along a top cone has rank 0")
    rows = [fan.rays[i] for i in K]
    _, _, Q = smith_normal_form(rows)
    proj = tuple(
        tuple(Q[i][c] for i in range(n)) for c in range(k, n)
    )
    link = sorted(
        i
        for i in range(fan.n_rays)
        if i not in K and fan.is_face(K + (i,))
    )
    ray_map = {}
    new_rays = []
    new_mults = []
    for i in link:
        image = tuple(dot(row, fan.edge(i)) for row in proj)
        image = tuple(int(x) for x in image)
        prim = primitive_vector(image)
        g = next(x // p for x, p in zip(image, prim) if p != 0)
        ray_map[i] = len(new_rays)
        new_rays.append(prim)
        new_mults.append(g)
    new_cones = []
    new_weights = []
    for I, w in zip(fan.cones, fan.weights):
        if set(K).issubset(I):
            new_cones.append(tuple(ray_map[i] for i in I if i not in K))
            new_weights.append(w)
    quotient = MultiFan(n - k, new_rays, new_cones, new_weights, new_mults)
    return ProjectedMultiFan(fan, K, quotient, proj, ray_map)


def fan_degree(fan: MultiFan, rng: random.Random | None = None) -> int:
    """Degree of a complete multi-fan at a sampled generic vector."""
    rng = rng or random.Random(0xD0C)
    return degree(fan, sample_generic_vector(fan, rng))


# ---------------------------------------------------------------------------
# surgery


def star_subdivide(fan: MultiFan, I, r) -> MultiFan:
    """Replace the top cone I by the n cones (I \\ {i}) + {r}.

    The new ray r must be primitive and strictly inside C(I).  Weights
    are inherited; all other cones are untouched.
    """
    I = tuple(sorted(int(i) for i in I))
    if I not in fan.cones:
        raise FaceNotInFan(f"{I} is not a top cone")
    r = tuple(int(x) for x in r)
    if primitive_vector(r) != r:
        raise InvalidFan("subdivision ray must be primitive")
    coords = [dot(u, r) for u in fan.dual_basis_of(I)]
    if any(c <= 0 for c in coords):
        raise RayNotInterior(f"{r} is not strictly inside {I}")
    new_index = fan.n_rays
    rays = fan.rays + (r,)
    mults = fan.multipliers + (1,)
    cones, weights = [], []
    for c, wc in zip(fan.cones, fan.weights):
        if c == I:
            w = wc
        else:
            cones.append(c)
            weights.append(wc)
    for drop in I:
        cones.append(tuple(sorted([i for i in I if i != drop] + [new_index])))
        weights.append(w)
    return MultiFan(fan.rank, rays, cones, weights, mults)


def projective_space_fan(n: int) -> MultiFan:
    """Complete fan of projective n-space: e_1..e_n and -(e_1+..+e_n)."""
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = list(itertools.combinations(range(n + 1), n))
    return MultiFan(n, rays, cones)


def random_complete_fan(seed: int, dim: int, steps: int) -> MultiFan:
    """Seeded random complete fan: star subdivisions of projective space.

    Each step picks a top cone and a primitive ray strictly inside it,
    so the result stays a genuine complete fan; in rank 2 each step adds
    one cone, in rank n it adds n-1.  A half-line has no primitive ray
    inside it but its own, so in rank 1 a step does nothing and the
    result is P^1.
    """
    rng = random.Random(seed)
    fan = projective_space_fan(dim)
    for _ in range(steps if dim > 1 else 0):
        I = fan.cones[rng.randrange(len(fan.cones))]
        coeffs = [rng.randint(1, 3) for _ in I]
        r = primitive_vector(
            tuple(
                sum(a * fan.rays[i][j] for a, i in zip(coeffs, I))
                for j in range(dim)
            )
        )
        fan = star_subdivide(fan, I, r)
    return fan
