"""Exact arithmetic in cyclotomic fields and truncated Laurent series.

Numbers live in Q(zeta_N) represented canonically as polynomials in
zeta_N of degree < phi(N), reduced modulo the N-th cyclotomic
polynomial.  Conductors are promoted automatically (N | M embeds via
zeta_N = zeta_M^(M/N)).  Laurent series carry an explicit validity
window: coefficients are exact up to the window top and identically
zero below the window bottom.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ConductorMismatch,
    CrossCheckFailed,
    DivisionByZero,
    NotRational,
    SeriesWindowError,
)

# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, ascending degree)


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials with monic divisor."""
    num = list(num)
    out = [0] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        d = len(num) - len(den)
        c = num[-1]
        out[d] = c
        for i, x in enumerate(den):
            num[i + d] -= c * x
        _poly_trim(num)
    return out, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    f = [0] * (n + 1)
    f[0], f[n] = -1, 1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            f, rem = _poly_divmod_int(f, list(cyclotomic_polynomial(d)))
            if any(rem):
                raise CrossCheckFailed(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(f)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


# ---------------------------------------------------------------------------
# cyclotomic numbers


def _poly_mod_frac(p, phi):
    """Reduce a Fraction-coefficient polynomial modulo monic integer phi."""
    p = list(p)
    dn = len(phi) - 1
    while len(p) > dn:
        c = p[-1]
        if c:
            d = len(p) - 1 - dn
            for i, x in enumerate(phi):
                p[i + d] -= c * x
        p.pop()
    p += [Fraction(0)] * (dn - len(p))
    return p


def _poly_xgcd_frac(a, b):
    """Extended gcd for Fraction polynomials; returns (g, s, t)."""

    def trim(p):
        p = list(p)
        while p and p[-1] == 0:
            p.pop()
        return p

    def scale(p, c):
        return [x * c for x in p]

    def sub(p, q):
        r = list(p) + [Fraction(0)] * (len(q) - len(p))
        for i, x in enumerate(q):
            r[i] -= x
        return trim(r)

    def mul(p, q):
        if not p or not q:
            return []
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            if x:
                for j, y in enumerate(q):
                    out[i + j] += x * y
        return trim(out)

    def divmod_(num, den):
        num = trim(num)
        den = trim(den)
        q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
        while len(num) >= len(den):
            c = num[-1] / den[-1]
            d = len(num) - len(den)
            q[d] = c
            num = sub(num, scale([Fraction(0)] * d + den, c))
        return trim(q), num

    old_r, r = trim(a), trim(b)
    old_s, s = [Fraction(1)], []
    old_t, t = [], [Fraction(1)]
    while r:
        q, rem = divmod_(old_r, r)
        old_r, r = r, rem
        old_s, s = s, sub(old_s, mul(q, s))
        old_t, t = t, sub(old_t, mul(q, t))
    return old_r, old_s, old_t


class CyclotomicNumber:
    """Element of Q(zeta_N) in the canonical power basis mod Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > phi:
            cs = _poly_mod_frac(cs, cyclotomic_polynomial(conductor))
        cs += [Fraction(0)] * (phi - len(cs))
        self.conductor = conductor
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        return CyclotomicNumber(1, [Fraction(q)])

    @staticmethod
    def coerce(x) -> "CyclotomicNumber":
        if isinstance(x, CyclotomicNumber):
            return x
        return CyclotomicNumber.from_rational(x)

    # -- structure ---------------------------------------------------------

    def promote(self, m: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_m); requires conductor | m."""
        if m == self.conductor:
            return self
        if m % self.conductor != 0:
            raise ConductorMismatch(f"{self.conductor} does not divide {m}")
        step = m // self.conductor
        p = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            p[j * step] = c
        return CyclotomicNumber(m, p)

    def _pair(self, other):
        other = CyclotomicNumber.coerce(other)
        n = math.lcm(self.conductor, other.conductor)
        return self.promote(n), other.promote(n)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(f"nonrational cyclotomic value {self!r}")
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return CyclotomicNumber(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-CyclotomicNumber.coerce(other))

    def __rsub__(self, other):
        return CyclotomicNumber.coerce(other) - self

    def __mul__(self, other):
        a, b = self._pair(other)
        out = [Fraction(0)] * (2 * len(a.coeffs) - 1 or 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return CyclotomicNumber(a.conductor, out)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise DivisionByZero("inverse of zero cyclotomic number")
        if self.is_rational():
            return CyclotomicNumber(self.conductor, [1 / self.coeffs[0]])
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        g, s, _ = _poly_xgcd_frac(list(self.coeffs), phi)
        # Phi_N is irreducible, so the gcd is a nonzero scalar
        if len(g) != 1 or g[0] == 0:
            raise CrossCheckFailed(f"gcd with Phi_{self.conductor} is not a unit")
        inv = [c / g[0] for c in s]
        return CyclotomicNumber(self.conductor, inv)

    def __truediv__(self, other):
        return self * CyclotomicNumber.coerce(other).inverse()

    def __rtruediv__(self, other):
        return CyclotomicNumber.coerce(other) * self.inverse()

    def __eq__(self, other):
        if not isinstance(other, (CyclotomicNumber, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.conductor, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {list(self.coeffs)})"


def root_of_unity(q, conductor: int | None = None) -> CyclotomicNumber:
    """e^(2 pi i q) for rational q, as an element of Q(zeta_N).

    N defaults to the denominator of q; an explicit conductor must be a
    multiple of it.
    """
    q = Fraction(q)
    n = q.denominator if conductor is None else conductor
    if (q * n).denominator != 1:
        raise ConductorMismatch(f"{q} is not an N-th root exponent for N={n}")
    e = int(q * n) % n
    p = [Fraction(0)] * (e + 1)
    p[e] = Fraction(1)
    return CyclotomicNumber(n, p)


def common_conductor(phases) -> int:
    """lcm of the denominators of a collection of rational phases."""
    n = 1
    for q in phases:
        n = math.lcm(n, Fraction(q).denominator)
    return n


# ---------------------------------------------------------------------------
# truncated Laurent series over the cyclotomic numbers

_ZERO = CyclotomicNumber.from_rational(0)
_ONE = CyclotomicNumber.from_rational(1)


class LaurentSeries:
    """Sum of c_p t^p for low <= p <= high, exact on that window.

    Coefficients below `low` are identically zero; coefficients above
    `high` are unknown (requesting them raises SeriesWindowError).
    Multiplication propagates the window soundly.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs):
        cs = [CyclotomicNumber.coerce(c) for c in coeffs]
        if not cs:
            raise ValueError("series needs at least one coefficient slot")
        self.low = low
        self.coeffs = cs

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    @staticmethod
    def zero(low: int, high: int) -> "LaurentSeries":
        return LaurentSeries(low, [_ZERO] * (high - low + 1))

    @staticmethod
    def constant(value, high: int) -> "LaurentSeries":
        s = LaurentSeries.zero(0, high)
        s.coeffs[0] = CyclotomicNumber.coerce(value)
        return s

    def coefficient(self, k: int) -> CyclotomicNumber:
        if k > self.high:
            raise SeriesWindowError(f"t^{k} beyond window top t^{self.high}")
        if k < self.low:
            return _ZERO
        return self.coeffs[k - self.low]

    def rational_coefficient(self, k: int) -> Fraction:
        return self.coefficient(k).rational()

    def __add__(self, other):
        low = min(self.low, other.low)
        high = min(self.high, other.high)
        if high < low:
            raise SeriesWindowError("windows do not overlap")
        out = []
        for k in range(low, high + 1):
            a = self.coeffs[k - self.low] if self.low <= k <= self.high else _ZERO
            b = other.coeffs[k - other.low] if other.low <= k <= other.high else _ZERO
            out.append(a + b)
        return LaurentSeries(low, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        low = self.low + other.low
        high = min(self.low + other.high, other.low + self.high)
        out = [_ZERO] * (high - low + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            pa = self.low + i
            for j, b in enumerate(other.coeffs):
                p = pa + other.low + j
                if p > high:
                    break
                if not b.is_zero():
                    out[p - low] = out[p - low] + a * b
        return LaurentSeries(low, out)

    def scale(self, c) -> "LaurentSeries":
        c = CyclotomicNumber.coerce(c)
        return LaurentSeries(self.low, [c * x for x in self.coeffs])

    def is_zero_on(self, lo: int, hi: int) -> bool:
        return all(self.coefficient(k).is_zero() for k in range(lo, hi + 1))

    def nonzero_items(self):
        return [(self.low + i, c) for i, c in enumerate(self.coeffs) if not c.is_zero()]

    def __repr__(self):
        return f"LaurentSeries(low={self.low}, high={self.high})"


def exp_series(a, terms: int) -> LaurentSeries:
    """e^(a t) truncated to `terms` coefficients (a rational)."""
    a = Fraction(a)
    cs = [Fraction(1)]
    for k in range(1, terms):
        cs.append(cs[-1] * a / k)
    return LaurentSeries(0, cs)


@lru_cache(maxsize=None)
def _todd_unit_coeffs(terms: int) -> tuple[Fraction, ...]:
    """Coefficients of s / (1 - e^(-s)) = sum u_j s^j (Bernoulli numbers
    with positive linear term)."""
    # invert g(s) = (1 - e^(-s)) / s = sum (-1)^j s^j / (j+1)!
    g = []
    fact = 1
    for j in range(terms):
        fact *= j + 1
        g.append(Fraction((-1) ** j, fact))
    u = [Fraction(1)]
    for j in range(1, terms):
        acc = Fraction(0)
        for i in range(1, j + 1):
            acc += g[i] * u[j - i]
        u.append(-acc)
    return tuple(u)


def todd_factor_series(c, chi, terms: int) -> LaurentSeries:
    """Series of 1 / (1 - chi e^(-c t)) with `terms` exact coefficients.

    For chi == 1 the series starts at t^-1 with coefficient 1/c (c must
    be nonzero); otherwise it is a power series with constant term
    1/(1 - chi).
    """
    c = Fraction(c)
    chi = CyclotomicNumber.coerce(chi)
    if chi == _ONE:
        if c == 0:
            raise DivisionByZero("1/(1 - e^0) pole of infinite order")
        u = _todd_unit_coeffs(terms)
        pw = Fraction(1, c)
        cs = []
        for j in range(terms):
            cs.append(u[j] * pw)
            pw *= c
        return LaurentSeries(-1, cs)
    # regular factor: invert the power series 1 - chi e^(-ct)
    d = [_ONE - chi]
    pw = Fraction(1)
    fact = 1
    for j in range(1, terms):
        pw *= -c
        fact *= j
        d.append(chi * Fraction(-1) * Fraction(pw, fact))
    b0 = d[0].inverse()
    out = [b0]
    for j in range(1, terms):
        acc = _ZERO
        for i in range(1, j + 1):
            acc = acc + d[i] * out[j - i]
        out.append(-(b0 * acc))
    return LaurentSeries(0, out)
