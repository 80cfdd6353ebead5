import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockop.arith import (
    FactorialRatio,
    GaussianRational,
    MultiIndex,
    RADICAL_ONE,
    RADICAL_ZERO,
    RadicalCoefficient,
    multiindex_compare,
    radical_normalize,
    rising_product,
    square_free_split,
)
from fockop.errors import DimensionMismatchError, RadicandMismatchError


# ---------------------------------------------------------------------------
# multi-indices


def test_multiindex_basics():
    a = MultiIndex((2, 3))
    assert a.dimension == 2
    assert a.order == 5
    assert a + MultiIndex((1, 0)) == MultiIndex((3, 3))
    assert MultiIndex((0, 1)).scaled_add(3, MultiIndex((1, 2))) == MultiIndex((3, 7))


def test_multiindex_rejects_negative_and_empty():
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    with pytest.raises(ValueError):
        MultiIndex(())


def test_compare_componentwise_dominance():
    c = multiindex_compare(MultiIndex((2, 3)), MultiIndex((1, 3)))
    assert c.ge and not c.gt and not c.le and not c.lt and not c.incomparable


def test_compare_incomparable():
    c = multiindex_compare(MultiIndex((1, 0)), MultiIndex((0, 1)))
    assert c.incomparable and not c.ge and not c.le


def test_compare_reflexive():
    c = multiindex_compare(MultiIndex((2, 2)), MultiIndex((2, 2)))
    assert c.ge and c.le and not c.gt and not c.lt


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        multiindex_compare(MultiIndex((1,)), MultiIndex((1, 2)))


# ---------------------------------------------------------------------------
# factorial ratios


def test_factorial_ratio_examples():
    assert FactorialRatio([5], [3]).value() == 20
    assert FactorialRatio([], []).value() == 1
    # direct big-integer evaluation: 3628800 * 6 / (5040 * 720)
    assert FactorialRatio([10, 3], [7, 6]).value() == Fraction(
        math.factorial(10) * math.factorial(3),
        math.factorial(7) * math.factorial(6),
    )
    assert FactorialRatio([10, 3], [7, 6]).value() == 6


def test_rising_product():
    assert rising_product(3, 0) == 1
    assert rising_product(3, 2) == 4 * 5
    assert rising_product(0, 4) == 24


@given(
    st.lists(st.integers(0, 40), max_size=5),
    st.lists(st.integers(0, 40), max_size=5),
)
def test_factorial_ratio_matches_naive_oracle(num, den):
    ratio = FactorialRatio(num, den)
    naive = Fraction(
        math.prod(math.factorial(t) for t in num),
        math.prod(math.factorial(t) for t in den),
    )
    assert ratio.value() == naive


@given(
    st.lists(st.integers(0, 25), max_size=4),
    st.lists(st.integers(0, 25), max_size=4),
    st.lists(st.integers(0, 25), max_size=4),
    st.lists(st.integers(0, 25), max_size=4),
)
def test_factorial_ratio_product_homomorphism(n1, d1, n2, d2):
    r1 = FactorialRatio(n1, d1)
    r2 = FactorialRatio(n2, d2)
    assert (r1 * r2).value() == r1.value() * r2.value()


def test_cancelled_factors_reproduce_value():
    ratio = FactorialRatio([10, 3, 7], [8, 8])
    num, den = ratio.cancelled_factors()
    assert Fraction(math.prod(num), math.prod(den)) == ratio.value()
    # paired terms must not expand into full factorials
    assert max(num, default=1) <= 10 and all(f >= 2 for f in num + den)


# ---------------------------------------------------------------------------
# square-free splitting and radicals


@given(st.integers(1, 10**6))
def test_square_free_split_reconstructs(k):
    root, sf = square_free_split(k)
    assert root * root * sf == k
    for d in range(2, 40):
        assert sf % (d * d) != 0


def test_radical_normalize_examples():
    assert radical_normalize(1, 4) == RadicalCoefficient(GaussianRational.of(2), 1)
    assert radical_normalize(2, Fraction(9, 4)) == RadicalCoefficient(GaussianRational.of(3), 1)
    assert radical_normalize(1, 8) == RadicalCoefficient(GaussianRational.of(2), 2)


def test_radical_normalize_fractional_radicand_value():
    # sqrt(1/6) canonicalizes with an integer radicand; the value is exact
    c = radical_normalize(1, Fraction(1, 6))
    assert c == RadicalCoefficient(GaussianRational.of(Fraction(1, 6)), 6)
    assert c.abs_sq() == Fraction(1, 6)


def test_radical_normalize_zero_and_negative():
    assert radical_normalize(0, 5) is RADICAL_ZERO
    assert radical_normalize(7, 0) is RADICAL_ZERO
    with pytest.raises(ValueError):
        radical_normalize(1, -2)


@given(st.integers(-40, 40), st.integers(1, 30), st.integers(0, 400), st.integers(1, 30))
def test_radical_normalize_idempotent_and_value_preserving(pn, pd, rn, rd):
    c = radical_normalize(Fraction(pn, pd), Fraction(rn, rd))
    again = radical_normalize(c.rational, c.radicand)
    assert again == c
    assert c.abs_sq() == Fraction(pn, pd) ** 2 * Fraction(rn, rd)


def test_radical_addition_requires_equal_radicands():
    a = radical_normalize(1, 2)
    b = radical_normalize(3, 2)
    s = a + b
    assert s == radical_normalize(4, 2)
    assert s.abs_sq() == Fraction(32)
    with pytest.raises(RadicandMismatchError):
        _ = a + radical_normalize(1, 3)


def test_radical_addition_zero_and_cancellation():
    a = radical_normalize(Fraction(5, 2), 3)
    assert a + RADICAL_ZERO == a
    assert RADICAL_ZERO + a == a
    assert (a + (-a)) is RADICAL_ZERO


def test_radical_multiplication():
    assert radical_normalize(1, 2) * radical_normalize(1, 8) == RadicalCoefficient(
        GaussianRational.of(4), 1
    )
    c = radical_normalize(1, 6) * radical_normalize(1, 10)
    assert c == RadicalCoefficient(GaussianRational.of(2), 15)
    assert RADICAL_ONE * c == c
    assert (RADICAL_ZERO * c) is RADICAL_ZERO


@given(st.integers(1, 200), st.integers(1, 200), st.integers(-10, 10), st.integers(-10, 10))
def test_radical_multiplication_value(r1, r2, q1, q2):
    a = radical_normalize(q1, r1)
    b = radical_normalize(q2, r2)
    assert (a * b).abs_sq() == a.abs_sq() * b.abs_sq()


def test_gaussian_rational_ops():
    c = GaussianRational.of(Fraction(1, 2), -3)
    assert c.conjugate().conjugate() == c
    assert c.abs_sq() == Fraction(1, 4) + 9
    assert (c * GaussianRational.of(0, 1)) == GaussianRational.of(3, Fraction(1, 2))
    assert str(GaussianRational.of(Fraction(1, 2), -2)) == "1/2-2*i"
    assert str(GaussianRational.of(0, 1)) == "i"
    assert str(GaussianRational.of(0, 0)) == "0"


def test_radical_conjugate_and_complex():
    c = RadicalCoefficient(GaussianRational.of(1, 1), 2)
    assert c.conjugate() == RadicalCoefficient(GaussianRational.of(1, -1), 2)
    assert abs(c.to_complex() - complex(2**0.5, 2**0.5)) < 1e-12
    assert RADICAL_ZERO.to_complex() == 0j


# ---------------------------------------------------------------------------
# the integer core against a Fraction-pair reference
#
# A reference value is (re, im, r): Fractions re and im and a square-free
# r, meaning (re + im*i) * sqrt(r), with (0, 0, 0) for zero.  It is built
# here with Fractions and trial division, independently of fockop.arith.


def _ref_split(k):
    """k = root**2 * squarefree by trial division (k's prime factors are small)."""
    root, sf, p = 1, 1, 2
    while k > 1:
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        root *= p ** (e // 2)
        sf *= p ** (e % 2)
        p += 1
    return root, sf


def _ref(re, im, radicand):
    """Reference value of (re + im*i) * sqrt(radicand) for a rational radicand >= 0."""
    radicand = Fraction(radicand)
    if (re == 0 and im == 0) or radicand == 0:
        return (Fraction(0), Fraction(0), 0)
    p, q = radicand.numerator, radicand.denominator
    root, sf = _ref_split(p * q)  # sqrt(p/q) = sqrt(p*q)/q
    k = Fraction(root, q)
    return (Fraction(re) * k, Fraction(im) * k, sf)


def _value(c):
    return (Fraction(c.re_num, c.den), Fraction(c.im_num, c.den), c.radicand)


def _assert_canonical(c):
    assert c.den > 0
    assert math.gcd(c.re_num, c.im_num, c.den) == 1
    assert (c.radicand == 0) == (c.re_num == 0 and c.im_num == 0)
    if c.radicand == 0:
        assert (c.re_num, c.im_num, c.den) == (0, 0, 1)
    else:
        assert _ref_split(c.radicand)[0] == 1


_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=24)
_radicands = st.integers(0, 60)
_factors = st.lists(st.integers(1, 30), max_size=6)


@given(_rationals, _rationals, _rationals, _rationals)
def test_gaussian_core_matches_fraction_pairs(x1, y1, x2, y2):
    g1, g2 = GaussianRational(x1, y1), GaussianRational(x2, y2)
    cases = [
        (g1 + g2, (x1 + x2, y1 + y2)),
        (-g1, (-x1, -y1)),
        (g1 * g2, (x1 * x2 - y1 * y2, x1 * y2 + y1 * x2)),
        (g1.conjugate(), (x1, -y1)),
    ]
    for g, (re, im) in cases:
        assert math.gcd(g.re_num, g.im_num, g.den) == 1 and g.den > 0
        assert (g.re, g.im) == (re, im)
        assert g == GaussianRational(re, im) and hash(g) == hash(GaussianRational(re, im))
    assert g1.abs_sq() == x1 * x1 + y1 * y1


@given(_rationals, _rationals, _radicands, _rationals, _rationals, _radicands)
def test_radical_core_matches_fraction_pairs(x1, y1, r1, x2, y2, r2):
    a = RadicalCoefficient(GaussianRational(x1, y1), r1)
    b = RadicalCoefficient(GaussianRational(x2, y2), r2)
    ra, rb = _ref(x1, y1, r1), _ref(x2, y2, r2)
    for c, want in ((a, ra), (b, rb)):
        _assert_canonical(c)
        assert _value(c) == want
    (ax, ay, ar), (bx, by, br) = ra, rb

    if ar == br or ar == 0 or br == 0:
        s = a + b
        _assert_canonical(s)
        assert _value(s) == _ref(ax + bx, ay + by, max(ar, br))
    else:
        with pytest.raises(RadicandMismatchError):
            _ = a + b

    p = a * b
    _assert_canonical(p)
    assert _value(p) == _ref(ax * bx - ay * by, ax * by + ay * bx, ar * br)
    assert p == b * a and hash(p) == hash(b * a)

    for scaled, want in (
        (a.scale(x2), _ref(ax * x2, ay * x2, ar)),
        (a.scale(GaussianRational(x2, y2)), _ref(ax * x2 - ay * y2, ax * y2 + ay * x2, ar)),
        (a.scale_ratio(x2.numerator, x2.denominator), _ref(ax * x2, ay * x2, ar)),
        (a.conjugate(), _ref(ax, -ay, ar)),
        (-a, _ref(-ax, -ay, ar)),
    ):
        _assert_canonical(scaled)
        assert _value(scaled) == want

    assert a.abs_sq() == (ax * ax + ay * ay) * ar


@given(_rationals, _rationals, _radicands, st.integers(1, 6), st.integers(1, 6))
def test_radical_equal_values_have_equal_structure(x, y, r, s, t):
    # (x + y*i) * sqrt(r * s^2 / t^2) and ((x + y*i) * s/t) * sqrt(r) are one value
    a = RadicalCoefficient(GaussianRational(x, y), Fraction(r * s * s, t * t))
    b = RadicalCoefficient(GaussianRational(x * s / t, y * s / t), r)
    c = radical_normalize(GaussianRational(x, y), Fraction(r * s * s, t * t))
    assert (a.re_num, a.im_num, a.den, a.radicand) == (b.re_num, b.im_num, b.den, b.radicand)
    assert a == b == c and hash(a) == hash(b) == hash(c)


@given(_rationals, _rationals, _radicands, st.fractions(min_value=0, max_value=50, max_denominator=30))
def test_radical_normalize_matches_reference(x, y, r, extra):
    c = RadicalCoefficient.normalize(GaussianRational(x, y), r * extra)
    _assert_canonical(c)
    assert _value(c) == _ref(x, y, r * extra)


@given(_rationals, _rationals, _factors, _factors)
def test_from_sqrt_ratio_matches_reference(x, y, num, den):
    c = RadicalCoefficient.from_sqrt_ratio(GaussianRational(x, y), num, den)
    _assert_canonical(c)
    assert _value(c) == _ref(x, y, Fraction(math.prod(num), math.prod(den)))
    assert c.abs_sq() == (x * x + y * y) * Fraction(math.prod(num), math.prod(den))
