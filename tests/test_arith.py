import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockop.arith import (
    MultiIndex,
    RADICAL_ONE,
    RADICAL_ZERO,
    RadicalCoefficient,
    rising_product,
    square_free_split,
)
from fockop.errors import InputError, InternalInvariantError


# ---------------------------------------------------------------------------
# multi-indices


def test_multiindex_basics():
    a = MultiIndex((2, 3))
    assert a.dimension == 2
    assert a.order == 5
    assert a + MultiIndex((1, 0)) == MultiIndex((3, 3))
    assert MultiIndex((0, 1)).scaled_add(3, MultiIndex((1, 2))) == MultiIndex((3, 7))
    with pytest.raises(InputError, match="dimensions differ: 1 vs 2"):
        MultiIndex((1,)) + MultiIndex((1, 2))


def test_multiindex_rejects_negative_and_empty():
    with pytest.raises(InputError, match="components must be >= 0"):
        MultiIndex((1, -1))
    with pytest.raises(InputError, match="at least one component"):
        MultiIndex(())


# ---------------------------------------------------------------------------
# rising products


def test_rising_product():
    assert rising_product(3, 0) == 1
    assert rising_product(3, 2) == 4 * 5
    assert rising_product(0, 4) == 24
    assert rising_product(0, 0) == 1
    assert rising_product(2, 1) == 3
    assert rising_product(5, 3) == 6 * 7 * 8
    assert rising_product(10, 12) == math.factorial(22) // math.factorial(10)
    assert rising_product(100, 300) == math.factorial(400) // math.factorial(100)


# every caller passes start >= 0 (n - 1 + an order, or a component) and
# count >= 0 (m, or a component); count == 0 is the empty product
@given(st.integers(0, 500), st.integers(0, 120))
def test_rising_product_is_the_run_product(start, count):
    assert rising_product(start, count) == math.prod(range(start + 1, start + count + 1))


# ---------------------------------------------------------------------------
# square-free splitting and radicals


@given(st.integers(0, 40), st.integers(0, 5))
def test_from_sqrt_ratio_of_a_run_is_the_root_of_the_rising_product(start, count):
    run = range(start + 1, start + count + 1)
    assert RadicalCoefficient.from_sqrt_ratio(run, ()) == RadicalCoefficient(1, rising_product(start, count))


@given(st.integers(1, 10**6))
def test_square_free_split_reconstructs(k):
    root, sf = square_free_split(k)
    assert root * root * sf == k
    for d in range(2, 40):
        assert sf % (d * d) != 0


def test_radical_normalize_examples():
    assert RadicalCoefficient(1, 4) == RadicalCoefficient(2, 1)
    assert RadicalCoefficient(2, Fraction(9, 4)) == RadicalCoefficient(3, 1)
    assert RadicalCoefficient(1, 8) == RadicalCoefficient(2, 2)


def test_radical_normalize_fractional_radicand_value():
    # sqrt(1/6) canonicalizes with an integer radicand; the value is exact
    c = RadicalCoefficient(1, Fraction(1, 6))
    assert c == RadicalCoefficient(Fraction(1, 6), 6)
    assert c.abs_sq() == Fraction(1, 6)


def test_radical_normalize_zero_and_negative():
    assert RadicalCoefficient(0, 5) is RADICAL_ZERO
    assert RadicalCoefficient(7, 0) is RADICAL_ZERO
    with pytest.raises(InputError, match="radicand must be >= 0"):
        RadicalCoefficient(1, -2)


@given(st.integers(-40, 40), st.integers(1, 30), st.integers(0, 400), st.integers(1, 30))
def test_radical_normalize_idempotent_and_value_preserving(pn, pd, rn, rd):
    c = RadicalCoefficient(Fraction(pn, pd), Fraction(rn, rd))
    again = RadicalCoefficient(c.re, c.radicand, im=c.im)
    assert again == c
    assert c.abs_sq() == Fraction(pn, pd) ** 2 * Fraction(rn, rd)


def test_radical_addition_requires_equal_radicands():
    a = RadicalCoefficient(1, 2)
    b = RadicalCoefficient(3, 2)
    s = a + b
    assert s == RadicalCoefficient(4, 2)
    assert s.abs_sq() == Fraction(32)
    with pytest.raises(InternalInvariantError, match="unlike radicands 2 and 3"):
        _ = a + RadicalCoefficient(1, 3)


def test_radical_addition_zero_and_cancellation():
    a = RadicalCoefficient(Fraction(5, 2), 3)
    assert a + RADICAL_ZERO == a
    assert RADICAL_ZERO + a == a
    assert (a + (-a)) is RADICAL_ZERO


def test_radical_multiplication():
    assert RadicalCoefficient(1, 2) * RadicalCoefficient(1, 8) == RadicalCoefficient(4, 1)
    c = RadicalCoefficient(1, 6) * RadicalCoefficient(1, 10)
    assert c == RadicalCoefficient(2, 15)
    assert RADICAL_ONE * c == c
    assert (RADICAL_ZERO * c) is RADICAL_ZERO


@given(st.integers(1, 200), st.integers(1, 200), st.integers(-10, 10), st.integers(-10, 10))
def test_radical_multiplication_value(r1, r2, q1, q2):
    a = RadicalCoefficient(q1, r1)
    b = RadicalCoefficient(q2, r2)
    assert (a * b).abs_sq() == a.abs_sq() * b.abs_sq()


def test_gaussian_rational_ops():
    # a Gaussian rational is a RadicalCoefficient with radicand 1
    c = RadicalCoefficient(Fraction(1, 2), im=-3)
    assert c.radicand == 1
    assert c.conjugate().conjugate() == c
    assert c.abs_sq() == Fraction(1, 4) + 9
    assert (c * RadicalCoefficient(0, im=1)) == RadicalCoefficient(3, im=Fraction(1, 2))
    assert str(RadicalCoefficient(Fraction(1, 2), im=-2)) == "1/2-2*i"
    assert str(RadicalCoefficient(0, im=1)) == "i"
    assert str(RadicalCoefficient(0, im=0)) == "0"


def test_radical_conjugate():
    c = RadicalCoefficient(1, 2, im=1)
    assert c.conjugate() == RadicalCoefficient(1, 2, im=-1)


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
    g1, g2 = RadicalCoefficient(x1, im=y1), RadicalCoefficient(x2, im=y2)
    cases = [
        (g1 + g2, (x1 + x2, y1 + y2)),
        (-g1, (-x1, -y1)),
        (g1 * g2, (x1 * x2 - y1 * y2, x1 * y2 + y1 * x2)),
        (g1.conjugate(), (x1, -y1)),
    ]
    for g, (re, im) in cases:
        assert math.gcd(g.re_num, g.im_num, g.den) == 1 and g.den > 0
        assert g.radicand == (1 if re or im else 0)
        assert (g.re, g.im) == (re, im)
        assert g == RadicalCoefficient(re, im=im) and hash(g) == hash(RadicalCoefficient(re, im=im))
    assert g1.abs_sq() == x1 * x1 + y1 * y1


@given(_rationals, _rationals, _radicands, _rationals, _rationals, _radicands)
def test_radical_core_matches_fraction_pairs(x1, y1, r1, x2, y2, r2):
    a = RadicalCoefficient(x1, r1, im=y1)
    b = RadicalCoefficient(x2, r2, im=y2)
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
        with pytest.raises(InternalInvariantError, match="unlike radicands"):
            _ = a + b

    p = a * b
    _assert_canonical(p)
    assert _value(p) == _ref(ax * bx - ay * by, ax * by + ay * bx, ar * br)
    assert p == b * a and hash(p) == hash(b * a)

    for scaled, want in (
        (a.scale(x2), _ref(ax * x2, ay * x2, ar)),
        (a * RadicalCoefficient(x2, im=y2), _ref(ax * x2 - ay * y2, ax * y2 + ay * x2, ar)),
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
    a = RadicalCoefficient(x, Fraction(r * s * s, t * t), im=y)
    b = RadicalCoefficient(x * s / t, r, im=y * s / t)
    assert (a.re_num, a.im_num, a.den, a.radicand) == (b.re_num, b.im_num, b.den, b.radicand)
    assert a == b and hash(a) == hash(b)


@given(_rationals, _rationals, _radicands, st.fractions(min_value=0, max_value=50, max_denominator=30))
def test_radical_normalize_matches_reference(x, y, r, extra):
    c = RadicalCoefficient(x, r * extra, im=y)
    _assert_canonical(c)
    assert _value(c) == _ref(x, y, r * extra)


@given(_rationals, _rationals, _factors, _factors)
def test_from_sqrt_ratio_matches_reference(x, y, num, den):
    c = RadicalCoefficient.from_sqrt_ratio(num, den) * RadicalCoefficient(x, im=y)
    _assert_canonical(c)
    assert _value(c) == _ref(x, y, Fraction(math.prod(num), math.prod(den)))
    assert c.abs_sq() == (x * x + y * y) * Fraction(math.prod(num), math.prod(den))
