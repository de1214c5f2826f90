"""Truncated Laurent series, Todd factors and cyclotomic numbers.

Laurent series carry an explicit validity window: coefficients are
exact up to the window top and identically zero below the window
bottom.  Every series the package builds is rational.  The twisted Todd
factors 1/(1 - chi e^(-c t)), chi a root of unity, are closed-form
Bernoulli sums in Q(zeta_N); they and the cyclotomic numbers, kept
canonically mod the N-th cyclotomic polynomial, are the reference the
tests check the rational kernel against.
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
from .lattices import solve_in_span

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


def ramanujan_sum(j: int, n: int) -> int:
    """Tr_{Q(zeta_n)/Q}(zeta_n^j) = sum over k in (Z/n)^* of zeta_n^(jk).

    With m = n / gcd(j, n) this is mu(m) phi(n) / phi(m).  The Moebius
    value mu(m) is the sum of the primitive m-th roots of unity, which is
    minus the next-to-leading coefficient of Phi_m.
    """
    m = n // math.gcd(j, n)
    return -cyclotomic_polynomial(m)[-2] * (euler_phi(n) // euler_phi(m))


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
    return p


_FRACTION_ZERO = Fraction(0)


class CyclotomicNumber:
    """Element of Q(zeta_N) in the canonical power basis mod Phi_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(cs) > phi:
            cs = _poly_mod_frac(cs, cyclotomic_polynomial(conductor))
        cs += [_FRACTION_ZERO] * (phi - len(cs))
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

    def trace(self) -> Fraction:
        """Tr_{Q(zeta_N)/Q}: the sum of the phi(N) Galois conjugates."""
        n = self.conductor
        return sum(
            (c * ramanujan_sum(j, n) for j, c in enumerate(self.coeffs) if c),
            _FRACTION_ZERO,
        )

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
        # solve sum_j y_j (self * zeta^j) = 1; the products are independent
        # because Q(zeta_N) is a field
        n, phi = self.conductor, len(self.coeffs)
        rows = [CyclotomicNumber(n, [0] * j + list(self.coeffs)).coeffs for j in range(phi)]
        return CyclotomicNumber(n, solve_in_span(rows, [1] + [0] * (phi - 1)))

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
        # equal values can differ in conductor, so only rational values hash
        # by value; nothing in the package hashes the others
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(CyclotomicNumber)

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
# truncated Laurent series


class LaurentSeries:
    """Sum of c_p t^p for low <= p <= high, exact on that window.

    Coefficients below `low` are identically zero; coefficients above
    `high` are unknown (requesting them raises SeriesWindowError).
    Multiplication propagates the window soundly.  Coefficients are kept
    as given: rationals, or cyclotomic numbers in twisted Todd factors.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs):
        cs = list(coeffs)
        if not cs:
            raise ValueError("series needs at least one coefficient slot")
        self.low = low
        self.coeffs = cs

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    def coefficient(self, k: int):
        if k > self.high:
            raise SeriesWindowError(f"t^{k} beyond window top t^{self.high}")
        if k < self.low:
            return _FRACTION_ZERO
        return self.coeffs[k - self.low]

    def __add__(self, other):
        low = min(self.low, other.low)
        high = min(self.high, other.high)
        if high < low:
            raise SeriesWindowError("windows do not overlap")
        return LaurentSeries(low, [
            self.coefficient(k) + other.coefficient(k) for k in range(low, high + 1)
        ])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        low = self.low + other.low
        high = min(self.low + other.high, other.low + self.high)
        out = [_FRACTION_ZERO] * (high - low + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            pa = self.low + i
            for j, b in enumerate(other.coeffs):
                p = pa + other.low + j
                if p > high:
                    break
                if b:
                    out[p - low] = out[p - low] + a * b
        return LaurentSeries(low, out)

    def scale(self, c) -> "LaurentSeries":
        return LaurentSeries(self.low, [c * x for x in self.coeffs])

    def is_zero_on(self, lo: int, hi: int) -> bool:
        return not any(self.coefficient(k) for k in range(lo, hi + 1))

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


def todd_factor_series(c, phase, terms: int) -> LaurentSeries:
    """Series of 1 / (1 - chi e^(-c t)), chi = e^(2 pi i phase), with
    `terms` exact coefficients.

    For an integral phase (chi = 1) the series starts at t^-1 with
    coefficient 1/c (c must be nonzero).  Otherwise chi is a primitive
    M-th root of unity, M the denominator of the phase, and the power
    series sum_{0 <= s < M} chi^s e^(-s x) / (1 - e^(-M x)) in x = c t has
    the Fourier-Dedekind sums M^m/(m+1)! sum_s chi^s B_{m+1}(1 - s/M) as
    coefficients.  Expanding B_{m+1} about 1 and dropping the term
    B_{m+1}(1) sum_s chi^s = 0 gives the coefficient of x^m as

        sum_{0 < s < M} chi^s / ((m+1)! M) sum_{k <= m} C(m+1, k) B_k(1) M^k (-s)^(m+1-k),

    summed in integers and reduced mod Phi_M before it becomes a fraction.
    """
    c = Fraction(c)
    phase = Fraction(phase)
    u = _todd_unit_coeffs(terms)  # u_k = B_k(1) / k!
    if phase.denominator == 1:
        if c == 0:
            raise DivisionByZero("1/(1 - e^0) pole of infinite order")
        pw = Fraction(1, c)
        cs = []
        for j in range(terms):
            cs.append(u[j] * pw)
            pw *= c
        return LaurentSeries(-1, cs)
    M = phase.denominator
    e = phase.numerator % M
    bern = [math.factorial(k) * x for k, x in enumerate(u)]
    den = math.lcm(*(b.denominator for b in bern))
    bern = [b.numerator * (den // b.denominator) for b in bern]  # den B_k(1)
    phi = cyclotomic_polynomial(M)
    cs = []
    for m in range(terms):
        n = m + 1
        a = [bern[n - j] * math.comb(n, j) * M ** (n - j) for j in range(n, 0, -1)]
        coords = [0] * M
        for s in range(1, M):
            acc = 0
            for x in a:  # Horner in -s
                acc = (acc + x) * -s
            coords[e * s % M] = acc
        coords = _poly_divmod_int(coords, phi)[1]
        num, d = c.numerator ** m, math.factorial(n) * den * M * c.denominator ** m
        cs.append(CyclotomicNumber(M, [Fraction(num * x, d) for x in coords]))
    return LaurentSeries(0, cs)
