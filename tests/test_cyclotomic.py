"""Cyclotomic numbers, roots of unity, and windowed Laurent series."""

import math
from fractions import Fraction

import pytest

from multifan.cyclotomic import (
    CyclotomicNumber,
    LaurentSeries,
    common_conductor,
    cyclotomic_polynomial,
    euler_phi,
    exp_series,
    root_of_unity,
    todd_factor_series,
)
from multifan.errors import (
    ConductorMismatch,
    DivisionByZero,
    NotRational,
    SeriesWindowError,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_root_of_unity_basics():
    minus_one = root_of_unity(Fraction(1, 2))
    assert minus_one.conductor == 2
    assert minus_one.rational() == -1
    third = root_of_unity(Fraction(1, 3))
    assert not third.is_rational()
    assert (third * third * third).rational() == 1
    with pytest.raises(ConductorMismatch):
        root_of_unity(Fraction(1, 3), 4)


def test_roots_sum_to_zero():
    # character-sum orthogonality for every order up to 24
    for d in range(2, 25):
        acc = CyclotomicNumber.from_rational(0)
        for j in range(d):
            acc = acc + root_of_unity(Fraction(j, d), d)
        assert acc.is_zero()


def test_trace_is_the_sum_of_galois_conjugates():
    # Tr(zeta_N^j) is the Ramanujan sum over the units k of Z/N
    for n in range(1, 25):
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        for j in range(n):
            acc = CyclotomicNumber.from_rational(0)
            for k in units:
                acc = acc + root_of_unity(Fraction(j * k, n))
            assert root_of_unity(Fraction(j, n), n).trace() == acc.rational(), (j, n)
        q = Fraction(-7, 3)
        assert CyclotomicNumber(n, [q]).trace() == euler_phi(n) * q


def test_conductor_promotion_consistency():
    a = root_of_unity(Fraction(1, 2))
    b = root_of_unity(Fraction(1, 2), 6)
    assert a == b
    # zeta_6 satisfies zeta^2 - zeta + 1 = 0
    z = root_of_unity(Fraction(1, 6))
    assert (z * z - z + 1).is_zero()
    # mixed-conductor product: zeta_2 * zeta_3 = zeta_6^5
    assert root_of_unity(Fraction(1, 2)) * root_of_unity(Fraction(1, 3)) == root_of_unity(Fraction(5, 6))


def test_inverse_and_division():
    z = root_of_unity(Fraction(1, 5))
    w = (1 - z).inverse()
    assert (w * (1 - z)).rational() == 1
    # composite conductors, and an element that is not a unit of Z[zeta]
    for n in (12, 15, 24):
        x = 2 + 3 * root_of_unity(Fraction(1, n)) - root_of_unity(Fraction(5, n))
        y = x.inverse()
        assert y.conductor == n
        assert (x * y).rational() == 1
        assert (7 / x) * x == 7
    with pytest.raises(DivisionByZero):
        CyclotomicNumber.from_rational(0).inverse()
    q = CyclotomicNumber.from_rational(Fraction(3, 4)) / 6
    assert q.rational() == Fraction(1, 8)


def test_hash_agrees_with_equality_across_conductors():
    a = root_of_unity(Fraction(1, 3))
    b = root_of_unity(Fraction(1, 3), 6)
    assert a == b and a.conductor != b.conductor
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(root_of_unity(Fraction(1, 2), 4)) == hash(-1)


def test_rationality_check():
    z = root_of_unity(Fraction(1, 3))
    with pytest.raises(NotRational):
        z.rational()
    # 1 + zeta_3 + zeta_3^2 = 0 is detected as rational after reduction
    acc = 1 + z + z * z
    assert acc == CyclotomicNumber.from_rational(0)
    assert acc.rational() == 0


def test_common_conductor():
    assert common_conductor([Fraction(1, 2), Fraction(2, 3), 1]) == 6


def test_exp_series():
    s = exp_series(Fraction(3), 5)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 3
    assert s.coefficient(4) == Fraction(81, 24)
    with pytest.raises(SeriesWindowError):
        s.coefficient(5)


def test_todd_factor_series_bernoulli_values():
    s = todd_factor_series(Fraction(1), 1, 6)
    expected = {
        -1: Fraction(1),
        0: Fraction(1, 2),
        1: Fraction(1, 12),
        2: Fraction(0),
        3: Fraction(-1, 720),
    }
    for k, v in expected.items():
        assert s.coefficient(k) == v
    # scaling: coefficient of t^(j-1) picks up c^(j-1)
    c = Fraction(-3, 2)
    sc = todd_factor_series(c, 1, 5)
    assert sc.coefficient(-1) == 1 / c
    assert sc.coefficient(0) == Fraction(1, 2)
    assert sc.coefficient(1) == c / 12


def _times_denominator(s, phase):
    """Coefficients of (1 - chi e^(-t)) s, chi = e^(2 pi i phase).

    Works on coordinate lists over zeta_M, M the denominator of the phase,
    where chi = zeta_M^e multiplies by a cyclic shift; only the results
    are reduced.
    """
    M, e = phase.denominator, phase.numerator % phase.denominator
    window = range(s.low, s.high + 1)
    coords = {k: CyclotomicNumber.coerce(s.coefficient(k)).promote(M).coeffs for k in window}
    exp = [Fraction((-1) ** j, math.factorial(j)) for j in range(len(window))]
    out = []
    for k in window:
        # w = e^(-t) s at t^k; chi w puts the coordinate of zeta^r at r + e
        w = [sum(exp[k - i] * coords[i][r] for i in range(s.low, k + 1))
             for r in range(len(coords[k]))]
        y = list(coords[k]) + [0] * (M - len(w))
        for r, x in enumerate(w):
            y[(r + e) % M] -= x
        out.append(CyclotomicNumber(M, y))
    return out


def test_todd_factor_series_inverts_its_denominator():
    for phase in sorted({Fraction(e, n) for n in range(1, 25) for e in range(n)}):
        # oracle: multiply back by 1 - chi e^(-t) and compare with 1
        s = todd_factor_series(1, phase, 8)
        assert (s.low, s.high) == ((-1, 6) if phase == 0 else (0, 7))
        prod = _times_denominator(s, phase)
        assert prod == [1 if k == 0 else 0 for k in range(s.low, s.high + 1)]
        # the series is a function of c t, and fewer terms truncate it
        for c in (Fraction(1), Fraction(-7, 4), Fraction(0)):
            if phase == 0 and c == 0:
                continue
            sc = todd_factor_series(c, phase, 8)
            assert sc.low == s.low
            if c != 1:
                assert sc.coeffs == [x * c ** (s.low + k) for k, x in enumerate(s.coeffs)]
            for terms in range(1, 8):
                assert todd_factor_series(c, phase, terms).coeffs == sc.coeffs[:terms]


def test_todd_factor_zero_speed_pole():
    with pytest.raises(DivisionByZero):
        todd_factor_series(Fraction(0), 1, 4)
    # chi != 1 with c = 0 is a constant series 1/(1-chi)
    s = todd_factor_series(Fraction(0), Fraction(1, 2), 4)
    assert s.coefficient(0).rational() == Fraction(1, 2)
    assert s.coefficient(1).is_zero()


def test_laurent_window_tracking():
    a = LaurentSeries(-1, [1, 2, 3])  # window [-1, 1]
    b = LaurentSeries(0, [1, 1, 1, 1])  # window [0, 3]
    p = a * b
    assert p.low == -1
    # top of the product window: min(-1+3, 0+1) = 1
    assert p.high == 1
    assert p.coefficient(-1) == 1
    assert p.coefficient(0) == 3
    assert p.coefficient(1) == 6
    s = a + b
    assert s.high == 1
    assert s.coefficient(-1) == 1
    assert s.coefficient(0) == 3


def test_laurent_zero_below_window():
    a = LaurentSeries(2, [5])
    assert a.coefficient(-3) == 0
    assert [a.coefficient(k) for k in range(-3, 3)] == [0, 0, 0, 0, 0, 5]
