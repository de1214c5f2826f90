"""Multi-polytopes and exact lattice point counting.

A complete simplicial multi-fan plus one rational support number per
ray determines a multi-polytope: an arrangement of affine walls
F_i = {u : <u, v_i> = d_i} with a distinguished covector u_I on every
top cone.  For an honest convex polytope this is the usual normal-fan
picture; in general the characteristic function is replaced by a
signed Duistermaat-Heckman function.

Lattice point counts are computed by two independent routes, brute
enumeration of a half-shifted arrangement and a character sum over
the vertex covectors, and face counts additionally by a series-level
push-forward of Todd-type factors.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import mul

# todd_factor_series stays importable: perfbench/test_smoke.py traces it here
from .cyclotomic import todd_factor_series  # noqa
from .errors import (
    BudgetExceeded,
    CrossCheckFailed,
    FaceNotInFan,
    InvalidFan,
    NonGenericVector,
    PointOnWall,
    RankMismatch,
)
from .facering import (
    SupportClass,
    constant_term_along,
    face_class,
    p_star,
    vector_pair,
    vertex_series,
)
from .fans import MultiFan, is_complete, sample_generic_vector
from .lattices import dot

# Largest brute-force box, in points, that count_bruteforce enumerates.
# A full box takes 1.5 s (P^2, 3 walls) to 2.6 s (a rank-3 fan with 8
# walls) on one core of a 2-vCPU Xeon virtual machine.
BRUTE_FORCE_BUDGET = 10**6


class MultiPolytope:
    """Support numbers over a complete multi-fan, cut down to a face.

    With face K the object models the slice of the wall arrangement
    inside the affine subspace A_K = {u : <u, v_j> = d_j for j in K};
    the default K = () is the full polytope.  Vertices are indexed by
    the top cones containing K.
    """

    __slots__ = ("fan", "support", "face")

    def __init__(self, fan: MultiFan, support, face=()):
        if not isinstance(support, SupportClass):
            support = SupportClass(support)
        if len(support.values) != fan.n_rays:
            raise RankMismatch("one support value per ray required")
        face = tuple(sorted(int(i) for i in face))
        if not fan.is_face(face):
            raise FaceNotInFan(f"{face} is not a face of the fan")
        if not is_complete(fan):
            raise InvalidFan("multi-polytopes require a complete multi-fan")
        self.fan = fan
        self.support = support
        self.face = face

    def top_cones(self) -> list[tuple[int, ...]]:
        return self.fan.cones_containing(self.face)

    @property
    def vertices(self) -> dict:
        """Covectors u_I with <u_I, v_i> = d_i for all i in I."""
        return {
            I: self.support.restrict(self.fan, I) for I in self.top_cones()
        }

    def __repr__(self):
        ds = ",".join(str(d) for d in self.support.values)
        return f"MultiPolytope(d=[{ds}], face={self.face})"


def _cone_patterns(P: MultiPolytope, v) -> list:
    """The wall-bit test of phi_I for each top cone I: (mask, want, sign).

    For a point u off the walls, set bit i when <u, v_i> > d_i.  Then
    phi_I(u) = 1 exactly when bits & mask == want: mask holds the rays
    of I outside the face, want those among them whose dual covector
    u_i^I pairs positively with v (the flipped ones), and the signed
    weight is (-1)^flips w(I).  None of this depends on u.
    """
    fan = P.fan
    in_face = set(P.face)
    patterns = []
    for I, w in zip(fan.cones, fan.weights):
        if not in_face.issubset(I):
            continue
        mask = want = 0
        for i, dual in zip(I, fan.dual_basis_of(I)):
            if i in in_face:
                continue
            s = dot(dual, v)
            if s == 0:
                raise NonGenericVector(f"{v} pairs to zero with a covector of {I}")
            mask |= 1 << i
            if s > 0:
                want |= 1 << i
        patterns.append((mask, want, (-1) ** want.bit_count() * w))
    return patterns


def _pattern_value(patterns, bits: int) -> int:
    return sum(sw for mask, want, sw in patterns if bits & mask == want)


def dh_evaluate(P: MultiPolytope, u, v=None) -> int:
    """Duistermaat-Heckman value at a point off all walls.

    Sum over the top cones I containing the face of (-1)^I w(I) phi_I,
    where phi_I(u) = 1 exactly when u - u_I has positive coordinates
    in the basis u_i^I flipped towards a generic direction v, and the
    sign counts the flips.  The result does not depend on v.
    """
    fan = P.fan
    u = tuple(Fraction(x) for x in u)
    if len(u) != fan.rank:
        raise RankMismatch("point rank mismatch")
    d = P.support.values
    for j in P.face:
        if dot(u, fan.edge(j)) != d[j]:
            raise ValueError(f"point off the face subspace (wall {j})")
    bits = 0
    for i in range(fan.n_rays):
        if i in P.face:
            continue
        side = dot(u, fan.edge(i)) - d[i]
        if side == 0:
            raise PointOnWall(f"point lies on wall {i}")
        if side > 0:
            bits |= 1 << i
    if v is None:
        v = sample_generic_vector(fan, random.Random(0xD11))
    return _pattern_value(_cone_patterns(P, v), bits)


def count_bruteforce(P: MultiPolytope) -> int:
    """Lattice point count by direct enumeration, in integers only.

    Every wall not through the face is pushed out by one half, so no
    lattice point can sit on a shifted wall, and the DH values of the
    shifted arrangement are summed over the integer points of the
    bounding box of the shifted vertices inflated by one.  For an
    integer point p the shifted wall test 2<p, v_i> > 2 d_i + 1 is
    <p, v_i> > d_i, one bit per ray; each cone's flips are fixed once
    (`_cone_patterns`), and points sharing a bit pattern share a value.
    The count is guarded by checking that the outermost shell of the
    box only carries zero values.  A box of more than
    BRUTE_FORCE_BUDGET points raises BudgetExceeded before any point
    is visited.
    """
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
    size = math.prod(b - a + 1 for a, b in zip(lo, hi))
    if size > BRUTE_FORCE_BUDGET:
        raise BudgetExceeded(
            f"brute-force box of {size} points exceeds the budget of "
            f"{BRUTE_FORCE_BUDGET} points"
        )
    v = sample_generic_vector(fan, random.Random(0xB0C5))
    patterns = _cone_patterns(P, v)
    d = [int(x) for x in P.support.values]
    on_face = [(fan.edge(j), d[j]) for j in P.face]
    walls = [(1 << i, fan.edge(i), d[i]) for i in range(fan.n_rays) if i not in in_face]
    values = {}
    total = 0
    for point in itertools.product(
        *(range(a, b + 1) for a, b in zip(lo, hi))
    ):
        if any(sum(map(mul, point, e)) != dj for e, dj in on_face):
            continue
        bits = 0
        for bit, e, di in walls:
            if sum(map(mul, point, e)) > di:
                bits |= bit
        value = values.get(bits)
        if value is None:
            value = values[bits] = _pattern_value(patterns, bits)
        if value and any(x == a or x == b for x, a, b in zip(point, lo, hi)):
            raise CrossCheckFailed(f"value {value} on the box shell at {point}")
        total += value
    return total


def count_formula(P: MultiPolytope, v=None) -> int:
    """Lattice point count as a character sum over the vertices.

    Requires integer support numbers but not integrality of the vertex
    covectors themselves: non-integral covectors contribute a nontrivial
    root-of-unity phase per group element.  A grand total that is not a
    rational integer raises CrossCheckFailed.
    """
    fan = P.fan
    if any(x.denominator != 1 for x in P.support.values):
        raise ValueError("character-sum count needs integer support numbers")
    if v is None:
        v = sample_generic_vector(fan, random.Random(0xC0DE))
    value = vertex_series(fan, v, fan.rank + 3, P.face, P.support).coefficient(0)
    if value.denominator != 1:
        raise CrossCheckFailed(f"character sum {value} is not an integer")
    return int(value)


def _count_face_pushforward(P: MultiPolytope, K) -> int:
    """Face count through the push-forward route, sampled twice."""
    fan = P.fan
    value = constant_term_along(
        fan,
        vector_pair(fan, random.Random(0xFACE)),
        lambda v: vertex_series(fan, v, fan.rank + 3, K, P.support),
    )
    if value.denominator != 1:
        raise CrossCheckFailed(f"push-forward face count {value} is not an integer")
    return int(value)


def count_face(P: MultiPolytope, K) -> int:
    """Number of lattice points on the face of the polytope cut by K.

    Computed as the vertex character sum of the face polytope; for
    integral (T-Cartier) supports the same number is recomputed as the
    constant push-forward coefficient of the face class times the
    Todd-type factor series and the two routes are cross-checked.
    """
    fan = P.fan
    if P.face:
        raise FaceNotInFan("face counts start from the full polytope")
    K = tuple(sorted(int(i) for i in K))
    if not fan.is_face(K):
        raise FaceNotInFan(f"{K} is not a face of the fan")
    count = count_formula(MultiPolytope(fan, P.support, K))
    if P.support.is_T_Cartier(fan):
        check = _count_face_pushforward(P, K)
        if check != count:
            raise CrossCheckFailed(f"face {K}: vertex sum {count} != push-forward {check}")
    return count


def volume(P: MultiPolytope, K=()) -> Fraction:
    """Volume of the face polytope, normalized to its affine lattice.

    Equals the order of the quotient group of the face times the
    constant push-forward coefficient of e^xi x_K.  For K = () this is
    the Duistermaat-Heckman integral of the full polytope; it scales
    with homogeneity degree n - |K| under dilation of the supports.
    """
    fan = P.fan
    if P.face:
        raise FaceNotInFan("volumes are taken from the full polytope")
    K = tuple(sorted(int(i) for i in K))
    if not fan.is_face(K):
        raise FaceNotInFan(f"{K} is not a face of the fan")
    order = fan.group_of(K).order
    return order * p_star(fan, face_class(fan, K), support=P.support)
