"""Equivariant classes on a multi-fan and their push-forward.

Classes live in the face ring: polynomials in one generator x_i per
ray, modulo the relations x_S = 0 whenever the index set S is not a
face.  Restriction to a top cone I sends x_i to the dual covector
u_i^I for i in I and to zero otherwise; the push-forward to a point is
computed by the fixed-point sum after substituting u -> t<u, v> for a
generic vector v.  The sums over pairs (I, h) of a cone and an element
of its group behind the Todd genus, the lattice point counts and the
face weights share one kernel, `fixed_point_series`, which
`vertex_series` sums over top cones.  The kernel never visits the
group: averaging the characters over it leaves a rational sum over
the lattice points of the fundamental parallelepiped of the vertex cone
(Brion).  Those points are the elements of the group of the dual cone,
enumerated from its Smith form as LattE does, so the kernel's cost grows
with their number, prod m_i / |H| for the orders m_i of the dual
covectors, and every sum it returns is rational.  `p_star` samples its
two generic vectors once per (fan, support) for the default seed and
keeps each top cone's data along them, so a call only evaluates a class.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod

from .cyclotomic import LaurentSeries, todd_factor_series
from .errors import (
    CrossCheckFailed,
    NonGenericVector,
    PoleResidueNonzero,
    RankMismatch,
)
from .fans import MultiFan, sample_generic_vector
from .lattices import QVec, dot, integral_solution, matrix_inverse, quotient_group, rref


class EquivariantClass:
    """Polynomial in the ray classes with rational coefficients.

    Monomials are keyed by exponent tuples (one slot per ray); any
    monomial whose support is not a face of the fan is dropped.
    """

    __slots__ = ("fan", "terms")

    def __init__(self, fan: MultiFan, terms):
        self.fan = fan
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != fan.n_rays or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo}")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            support = frozenset(i for i, e in enumerate(expo) if e)
            if support not in fan.faces:
                continue
            clean[expo] = clean.get(expo, Fraction(0)) + coeff
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def zero(cls, fan):
        return cls(fan, {})

    @classmethod
    def constant(cls, fan, value):
        return cls(fan, {(0,) * fan.n_rays: Fraction(value)})

    def _coerce(self, other):
        if isinstance(other, EquivariantClass):
            if other.fan is not self.fan:
                raise ValueError("classes live on different fans")
            return other
        return EquivariantClass.constant(self.fan, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return EquivariantClass(self.fan, out)

    __radd__ = __add__

    def __neg__(self):
        return EquivariantClass(self.fan, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, EquivariantClass):
            return EquivariantClass(
                self.fan, {e: c * Fraction(other) for e, c in self.terms.items()}
            )
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return EquivariantClass(self.fan, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, EquivariantClass):
            return NotImplemented
        return self.fan is other.fan and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return 0
        return degs.pop() if len(degs) == 1 else None

    def __repr__(self):
        if not self.terms:
            return "EquivariantClass(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}"
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return "EquivariantClass(" + " + ".join(bits) + ")"


def ray_class(fan: MultiFan, i: int) -> EquivariantClass:
    """The degree-one class attached to ray i."""
    expo = tuple(1 if j == i else 0 for j in range(fan.n_rays))
    return EquivariantClass(fan, {expo: Fraction(1)})


def face_class(fan: MultiFan, J) -> EquivariantClass:
    """Product of the ray classes over the face J."""
    J = set(J)
    expo = tuple(1 if j in J else 0 for j in range(fan.n_rays))
    return EquivariantClass(fan, {expo: Fraction(1)})


def embed_weight(fan: MultiFan, u) -> EquivariantClass:
    """Image of a lattice weight u: the sum of <u, v_i> x_i.

    Restricting to any top cone returns u itself, so these classes span
    the image of the polynomial ring of the ambient torus.
    """
    if len(u) != fan.rank:
        raise RankMismatch("weight rank mismatch")
    terms = {}
    for i in range(fan.n_rays):
        c = dot(u, fan.edge(i))
        if c:
            expo = tuple(1 if j == i else 0 for j in range(fan.n_rays))
            terms[expo] = c
    return EquivariantClass(fan, terms)


@dataclass(frozen=True)
class SupportClass:
    """Support parameters: one rational number per ray.

    The pair (fan, support) plays the role of a polytope with a facet
    at lattice distance d_i along each edge; the attached degree-one
    class is the sum of d_i x_i.
    """

    values: tuple[Fraction, ...]

    def __init__(self, values):
        object.__setattr__(
            self, "values", tuple(Fraction(x) for x in values)
        )

    def to_class(self, fan: MultiFan) -> EquivariantClass:
        if len(self.values) != fan.n_rays:
            raise RankMismatch("one support value per ray required")
        terms = {}
        for i, d in enumerate(self.values):
            if d:
                expo = tuple(1 if j == i else 0 for j in range(fan.n_rays))
                terms[expo] = d
        return EquivariantClass(fan, terms)

    def restrict(self, fan: MultiFan, I) -> QVec:
        """Covector u_I with <u_I, v_i> = d_i for every i in I."""
        I = tuple(sorted(I))
        duals = fan.dual_basis_of(I)
        n = fan.rank
        return tuple(
            sum(self.values[i] * duals[pos][c] for pos, i in enumerate(I))
            for c in range(n)
        )

    def is_T_Cartier(self, fan: MultiFan) -> bool:
        """True when every restriction is an integral weight."""
        for I in fan.cones:
            if any(x.denominator != 1 for x in self.restrict(fan, I)):
                return False
        return True

    def scale(self, factor) -> "SupportClass":
        return SupportClass([Fraction(factor) * d for d in self.values])


def restrict_eval(fan: MultiFan, cls: EquivariantClass, I, v) -> list[Fraction]:
    """Graded values of the restriction of cls to I at the vector v.

    Entry k is the coefficient of t^k after substituting u -> t<u, v>.
    """
    I = tuple(sorted(I))
    used = {i for expo in cls.terms for i, e in enumerate(expo) if e}
    return graded_values(
        cls, {i: dot(u, v) for i, u in zip(I, fan.dual_basis_of(I)) if i in used}
    )


def graded_values(cls: EquivariantClass, pairings) -> list[Fraction]:
    """Graded values of cls on a cone whose covectors pair to pairings[i].

    `pairings` maps the rays i of the cone to <u_i, v>; a monomial with a
    ray off the cone restricts to zero.
    """
    top = max((sum(e) for e in cls.terms), default=0)
    out = [Fraction(0)] * (top + 1)
    for expo, coeff in cls.terms.items():
        val = coeff
        for i, e in enumerate(expo):
            if e:
                if i not in pairings:
                    break
                val *= pairings[i] ** e
        else:
            out[sum(expo)] += val
    return out


# ---------------------------------------------------------------------------
# the fixed-point kernel: sums over top cones I and elements h of H_I


def generic_pairings(duals, v) -> list[Fraction]:
    """The pairings <u_i, v>; raises NonGenericVector when one is zero."""
    pairings = [dot(u, v) for u in duals]
    if any(p == 0 for p in pairings):
        raise NonGenericVector(f"{v} pairs to zero with a covector of the cone")
    return pairings


def fixed_point_series(
    pairings, duals, twisted, terms: int, a=0, phase=None
) -> LaurentSeries:
    """Average over the elements h of a cone group H of

        e^(2 pi i <phase, h>) exp(a t)
            prod_{pos in twisted} 1/(1 - chi_pos(h) e^(-c_pos t))

    with c_pos = pairings[pos] and the characters chi_pos(h) =
    e^(2 pi i <u_pos, h>), where u_pos = duals[pos] are the covectors dual
    to the edges v_pos of the cone, written in a basis of the lattice of
    its span (so its dual lattice is M = Z^k); callers scale the average
    by w(I).  The phase must be an integral covector.

    Expanding each factor as a geometric series and averaging the
    characters over H keeps the exponents k >= 0 (zero off `twisted`)
    with x = sum (phase + k)_pos u_pos in M.  With m_pos the order of
    u_pos modulo M, grouping the k by their residues mod m gives (Brion)

        sum_{k in Pi} e^((a - <k, c>) t) prod_{pos in twisted} 1/(1 - e^(-m_pos c_pos t)),

    Pi the admissible k in the box prod [0, m_pos), of prod m_pos / |H|
    points.  They are the elements of the group of the dual cone,
    M' / <m_pos u_pos>, M' the covectors of M in the span of the twisted
    u_pos (the enumeration of LattE): the element of coordinates c_pos
    in the generators m_pos u_pos, shifted by an x_0 in M with <x_0, v> =
    phase off `twisted`, has k_pos = <x_0, v_pos> + m_pos c_pos - phase_pos
    mod m_pos.  The points only add up power sums of b = a - <k, c>, in
    integers; the terms share one denominator, a product of Todd factors.
    """
    n = len(duals)
    phase = [Fraction(0)] * n if phase is None else [Fraction(x) for x in phase]
    if any(x.denominator != 1 for x in phase):
        raise ValueError(f"fixed-point phase {tuple(phase)} is not integral")
    twisted = sorted(set(twisted))
    fixed = [pos for pos in range(n) if pos not in twisted]
    a = Fraction(a)
    m = {pos: lcm(*(Fraction(x).denominator for x in duals[pos])) for pos in twisted}
    # everything below is an integer: s = t / scale is the series variable
    scale = lcm(a.denominator, *(Fraction(pairings[pos]).denominator for pos in twisted))
    weight = {pos: int(pairings[pos] * scale) for pos in twisted}
    shift = {pos: -int(phase[pos]) for pos in twisted}
    if fixed:
        # the columns of the inverse of the dual matrix are the edges
        edges = list(zip(*matrix_inverse(duals)))
        if any(x.denominator != 1 for v in edges for x in v):
            raise ValueError("covectors are not dual to lattice vectors")
        edges = [[int(x) for x in v] for v in edges]
        x0 = integral_solution([edges[pos] for pos in fixed], [int(phase[pos]) for pos in fixed])
        if x0 is None:
            return LaurentSeries(-len(twisted), [Fraction(0)] * terms)
        for pos in twisted:
            shift[pos] += dot(x0, edges[pos])
    group = quotient_group([[int(x * m[pos]) for x in duals[pos]] for pos in twisted])
    # sum_p e^(b_p t) = (1/top) sum_j poly_j s^j, poly_j = (top/j!) sum_p (scale b_p)^j
    top = factorial(terms - 1)
    poly = [0] * terms
    start = int(a * scale)
    steps = [(m[pos], shift[pos], weight[pos]) for pos in twisted]
    for _, coords in group:
        b = start
        for (mp, sp, wp), c in zip(steps, coords):
            b -= (sp + mp * c.numerator // c.denominator) % mp * wp
        power = 1
        for j in range(terms):
            poly[j] += power
            power *= b
    poly = [x * (top // factorial(j)) for j, x in enumerate(poly)]
    denominator = top
    # times 1/(1 - e^(-X s)), X = scale m c, per twisted edge: its Todd
    # series X^-1 sum_j u_j X^j s^(j-1), the unit coefficients u_j taken
    # once, as integers over their common denominator
    unit = todd_factor_series(1, 0, terms).coeffs
    den = lcm(*(u.denominator for u in unit))
    unit = [int(u * den) for u in unit]
    for pos in twisted:
        x = m[pos] * weight[pos]
        factor = [u * x**j for j, u in enumerate(unit)]
        poly = [sum(poly[i] * factor[j - i] for i in range(j + 1)) for j in range(terms)]
        denominator *= den * x
    # the coefficient of t^k is the coefficient of s^k over scale^k
    return LaurentSeries(-len(twisted), [
        Fraction(x * scale ** max(0, -k), denominator * scale ** max(0, k))
        for k, x in enumerate(poly, -len(twisted))
    ])


def vertex_series(
    fan: MultiFan, v, terms: int, face=(), support: SupportClass | None = None
) -> LaurentSeries:
    """Sum over the top cones I containing `face` of w(I) times the kernel.

    The kernel of I twists the edges outside the face, with a = <u_I, v>
    and phase -d_I for the vertex u_I and the integral values d_I of the
    support (a = 0 and no phase without one).  The sum has `terms`
    coefficients from t^(|face| - n) on: the Todd push-forward for the
    empty face and no support, and lattice point counts in its constant
    term.  A T-Cartier support puts every u_I in M, so its phase only
    shifts the admissible exponents by a lattice vector: the sum is then
    also the push-forward of e^xi x_K, K = `face`, times the Todd-type
    factors, whose integrand per top cone I and group element h is

        exp(t<u_I, v>) * t^|K| prod_{i in K} c_i
            * prod_{i in I minus K} c_i t / (1 - chi_i(h) e^(-c_i t))
            / (t^n prod_{i in I} c_i),       c_i = <u_i^I, v>.

    Since |I| = n, the powers of t and the products of the c_i cancel,
    leaving the kernel of I with its trivial phase.
    """
    coeffs = [Fraction(0)] * terms
    in_face = set(face)
    for I, w in zip(fan.cones, fan.weights):
        if not in_face.issubset(I):
            continue
        duals = fan.dual_basis_of(I)
        pairings = generic_pairings(duals, v)
        twisted = [pos for pos, i in enumerate(I) if i not in in_face]
        a, phase = 0, None
        if support is not None:
            d = [support.values[i] for i in I]
            a = sum(x * p for x, p in zip(d, pairings))
            phase = [-x for x in d]
        series = fixed_point_series(pairings, duals, twisted, terms, a, phase)
        for j, c in enumerate(series.coeffs):
            coeffs[j] += w * c
    return LaurentSeries(len(face) - fan.rank, coeffs)


def pushforward_rows(fan: MultiFan, v, support: SupportClass | None, terms: int) -> list:
    """The fixed-point data along v of the top cones I, one row each.

    A row holds the pairings c_i = <u_i^I, v> by ray i, the scale
    w(I)/|H_I| / prod c_i and the coefficients a^m/m! of exp(at) for
    m < terms, where a = <u_I, v> = sum d_i c_i for the vertex u_I of the
    support (a = 0 without one).
    """
    rows = []
    for I, w in zip(fan.cones, fan.weights):
        pairings = generic_pairings(fan.dual_basis_of(I), v)
        scale = Fraction(w, fan.group_of(I).order) / prod(pairings)
        a = Fraction(0)
        if support is not None:
            a = sum(support.values[i] * c for i, c in zip(I, pairings))
        expf = [a ** m / factorial(m) for m in range(terms)]
        rows.append((dict(zip(I, pairings)), scale, expf))
    return rows


def pushforward_eval(
    fan: MultiFan,
    cls: EquivariantClass,
    v,
    support: SupportClass | None = None,
    high: int = 0,
) -> LaurentSeries:
    """Push-forward of e^(support class) * cls evaluated along v.

    Returns the Laurent expansion in t on the window [-rank, high].
    The vector v must be generic; each fixed-point term contributes

        w(I)/|H_I| * exp(t<u_I, v>) * cls|_I(tv) / (t^n * prod <u_i^I, v>),

    whose coefficient of t^m is the rational number, with a = <u_I, v>,
    w(I)/|H_I| / prod <u_i^I, v> * sum_k cls|_I(v)_k a^(m+n-k)/(m+n-k)!.
    """
    return _pushforward(fan, cls, pushforward_rows(fan, v, support, high + fan.rank + 1))


def _pushforward(fan: MultiFan, cls: EquivariantClass, rows) -> LaurentSeries:
    """The series of pushforward_eval, read off the rows of pushforward_rows."""
    terms = len(rows[0][2])
    coeffs = [Fraction(0)] * terms
    for pairings, scale, expf in rows:
        for k, value in enumerate(graded_values(cls, pairings)):
            if value:
                value *= scale
                for j in range(k, terms):
                    coeffs[j] += value * expf[j - k]
    return LaurentSeries(-fan.rank, coeffs)


def vector_pair(fan: MultiFan, rng: random.Random) -> tuple:
    """Two distinct generic vectors, sampled in turn from rng."""
    v1 = sample_generic_vector(fan, rng)
    v2 = sample_generic_vector(fan, rng)
    while v2 == v1:
        v2 = sample_generic_vector(fan, rng)
    return v1, v2


def constant_term_along(fan: MultiFan, vectors, series_along) -> Fraction:
    """Constant term of series_along(v) along the two vectors of a pair.

    Along each, every negative power of t down to t^-rank must vanish,
    and the two constants must agree.
    """
    v1, v2 = vectors
    values = []
    for v in (v1, v2):
        series = series_along(v)
        for k in range(-fan.rank, 0):
            if series.coefficient(k):
                raise PoleResidueNonzero(
                    f"negative power t^{k} survives along {v}"
                )
        values.append(series.coefficient(0))
    if values[0] != values[1]:
        raise CrossCheckFailed(f"constant terms {values} along {v1} and {v2} differ")
    return values[0]


def p_star(
    fan: MultiFan,
    cls: EquivariantClass,
    support: SupportClass | None = None,
    rng: random.Random | None = None,
) -> Fraction:
    """Degree-zero part of the push-forward of e^(support) * cls.

    Evaluated along two independently sampled generic vectors; the two
    values must agree, and all negative powers of t must vanish (they
    do exactly when the multi-fan is complete).  With the default seed
    the pair and its pushforward_rows are built once per (fan, support)
    and kept in the fan's cache, so a call only evaluates the monomials
    of cls; an explicit rng samples a pair of its own.
    """
    cache = fan._cache.setdefault("pushforward", {}) if rng is None else {}
    if support not in cache:
        pair = vector_pair(fan, rng or random.Random(0xF1E1D))
        cache[support] = {v: pushforward_rows(fan, v, support, fan.rank + 1) for v in pair}
    rows = cache[support]
    return constant_term_along(fan, tuple(rows), lambda v: _pushforward(fan, cls, rows[v]))


# ---------------------------------------------------------------------------
# the cohomology quotient in a fixed degree


def cohomology_quotient(fan: MultiFan, k: int) -> "CohomologyQuotient":
    """The degree-k quotient of the fan, built once per fan and degree."""
    cache = fan._cache.setdefault("cohomology", {})
    if k not in cache:
        cache[k] = CohomologyQuotient(fan, k)
    return cache[k]


def graded_monomials(fan: MultiFan, k: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree k whose support is a face."""
    if k == 0:
        return [(0,) * fan.n_rays]
    out = []
    for J in sorted(tuple(sorted(f)) for f in fan.faces if 0 < len(f) <= k):
        for split in itertools.combinations(range(k - 1), len(J) - 1):
            parts = []
            prev = -1
            for s in list(split) + [k - 1]:
                parts.append(s - prev)
                prev = s
            expo = [0] * fan.n_rays
            for idx, e in zip(J, parts):
                expo[idx] = e
            out.append(tuple(expo))
    return sorted(set(out))


class CohomologyQuotient:
    """Degree-k part of the face ring modulo the ambient weight ideal.

    The quotient is the ordinary degree-2k cohomology for complete
    simplicial fans; reduce() maps a class to canonical coset
    coordinates over the non-pivot monomials.
    """

    def __init__(self, fan: MultiFan, k: int):
        self.fan = fan
        self.k = k
        self.monomials = graded_monomials(fan, k)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        rows = []
        if k > 0:
            basis = [
                tuple(1 if j == b else 0 for j in range(fan.rank))
                for b in range(fan.rank)
            ]
            for b in basis:
                theta = embed_weight(fan, b)
                for m in graded_monomials(fan, k - 1):
                    rel = theta * EquivariantClass(fan, {m: Fraction(1)})
                    rows.append(self._vector(rel))
        reduced, pivots = rref(rows) if rows else ((), ())
        self.rows = [r for r in reduced if any(x != 0 for x in r)]
        self.pivots = list(pivots)
        self.free = [
            i for i in range(len(self.monomials)) if i not in set(self.pivots)
        ]

    def _vector(self, cls: EquivariantClass):
        vec = [Fraction(0)] * len(self.monomials)
        for e, c in cls.terms.items():
            if sum(e) != self.k:
                raise ValueError("class is not homogeneous of the right degree")
            vec[self.index[e]] += c
        return vec

    @property
    def dimension(self) -> int:
        return len(self.free)

    def reduce(self, cls: EquivariantClass) -> tuple[Fraction, ...]:
        """Coset coordinates of cls over the non-pivot monomials."""
        vec = self._vector(cls)
        for row, p in zip(self.rows, self.pivots):
            if vec[p]:
                f = vec[p] / row[p]
                vec = [a - f * b for a, b in zip(vec, row)]
        if any(vec[p] for p in self.pivots):
            raise CrossCheckFailed("reduction left a nonzero pivot coordinate")
        return tuple(vec[i] for i in self.free)
