"""Exact numeric substrate: multi-indices, factorial ratios, radicals.

Scalars stay exact end to end and are plain Python integers underneath.
A ``GaussianRational`` is ``(re_num + im_num*i) / den``; a
``RadicalCoefficient`` is the flat four-integer form
``(re_num + im_num*i) / den * sqrt(radicand)``.  One normalizing
constructor per class keeps every value canonical:

* ``den > 0`` and ``gcd(re_num, im_num, den) == 1``;
* ``radicand`` is a square-free positive integer (1 for Gaussian-rational
  values), and ``radicand == 0`` exactly for zero, which is ``(0, 0, 1, 0)``.

Square factors of a radicand move into the rational part, and a
fractional radicand ``p/q`` becomes ``sqrt(p*q)/q``, so every square
class of rationals has one representative.  The form is closed under
every coefficient computation the operator engine performs (sums within
one square class, products, rational and Gaussian scaling, conjugation).
Because it is canonical, equal values have equal fields: structural
equality is value equality, and same-class contributions merge exactly.
``fractions.Fraction`` appears only at the edges: the ``re``, ``im`` and
``rational`` views, ``abs_sq()`` and text formatting.

No operation mutates a value after construction, so all of it is safe
to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add
from typing import Iterable, Union

from .errors import DimensionMismatchError, MultiIndexError, RadicandMismatchError

RationalLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# multi-indices


class MultiIndex(tuple):
    """A tuple of nonnegative integers indexing monomials and basis vectors."""

    __slots__ = ()

    def __new__(cls, components: Iterable[int]) -> "MultiIndex":
        items = tuple(map(int, components))
        if not items:
            raise MultiIndexError("a multi-index needs at least one component")
        if min(items) < 0:
            raise MultiIndexError(f"multi-index components must be >= 0, got {items}")
        return tuple.__new__(cls, items)

    @staticmethod
    def _wrap(items: tuple) -> "MultiIndex":
        """Wrap an already-validated tuple of nonnegative ints (internal)."""
        return tuple.__new__(MultiIndex, items)

    @property
    def dimension(self) -> int:
        return len(self)

    @property
    def order(self) -> int:
        """Sum of the components."""
        return sum(self)

    def __add__(self, other) -> "MultiIndex":  # type: ignore[override]
        _check_same_dimension(self, other)
        return tuple.__new__(MultiIndex, tuple(map(add, self, other)))

    def __radd__(self, other):  # pragma: no cover - symmetry only
        return self.__add__(other)

    def scaled_add(self, t: int, direction: "MultiIndex") -> "MultiIndex":
        """Return ``self + t * direction``."""
        _check_same_dimension(self, direction)
        if t < 0:
            raise ValueError("scale must be >= 0")
        return MultiIndex(a + t * d for a, d in zip(self, direction))

    @staticmethod
    def zero(dimension: int) -> "MultiIndex":
        return MultiIndex((0,) * dimension)

    @staticmethod
    def unit(dimension: int, j: int) -> "MultiIndex":
        """Standard basis index e_j (0-based j)."""
        return MultiIndex(1 if k == j else 0 for k in range(dimension))

    @staticmethod
    def ones(dimension: int) -> "MultiIndex":
        return MultiIndex((1,) * dimension)


def _check_same_dimension(a, b) -> None:
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"multi-index dimensions differ: {len(a)} vs {len(b)}"
        )


@dataclass(frozen=True)
class ComponentwiseOrder:
    """Result of comparing two multi-indices componentwise."""

    ge: bool
    gt: bool
    le: bool
    lt: bool

    @property
    def incomparable(self) -> bool:
        return not (self.ge or self.le)


def multiindex_compare(a: MultiIndex, b: MultiIndex) -> ComponentwiseOrder:
    """Componentwise partial order: a >= b iff every component dominates."""
    _check_same_dimension(a, b)
    return ComponentwiseOrder(
        ge=all(x >= y for x, y in zip(a, b)),
        gt=all(x > y for x, y in zip(a, b)),
        le=all(x <= y for x, y in zip(a, b)),
        lt=all(x < y for x, y in zip(a, b)),
    )


# ---------------------------------------------------------------------------
# factorial ratios


def rising_product(start: int, count: int) -> int:
    """(start+1) * (start+2) * ... * (start+count), i.e. (start+count)!/start!."""
    out = 1
    for i in range(start + 1, start + count + 1):
        out *= i
    return out


@dataclass(frozen=True)
class FactorialRatio:
    """A product of factorials divided by a product of factorials.

    Terms are multisets of nonnegative integers; ``(t,)`` denotes ``t!``.
    Evaluation cancels paired numerator/denominator terms into short
    rising products so no full factorial is computed when a shorter
    product suffices.
    """

    numerator_terms: tuple
    denominator_terms: tuple

    def __init__(self, numerator_terms: Iterable[int] = (), denominator_terms: Iterable[int] = ()):
        num = tuple(sorted((int(t) for t in numerator_terms), reverse=True))
        den = tuple(sorted((int(t) for t in denominator_terms), reverse=True))
        for t in num + den:
            if t < 0:
                raise ValueError("factorial arguments must be >= 0")
        object.__setattr__(self, "numerator_terms", num)
        object.__setattr__(self, "denominator_terms", den)

    def __mul__(self, other: "FactorialRatio") -> "FactorialRatio":
        return FactorialRatio(
            self.numerator_terms + other.numerator_terms,
            self.denominator_terms + other.denominator_terms,
        )

    def value(self) -> Fraction:
        num = den = 1
        pairs = min(len(self.numerator_terms), len(self.denominator_terms))
        for a, b in zip(self.numerator_terms, self.denominator_terms):
            if a >= b:
                num *= rising_product(b, a - b)
            else:
                den *= rising_product(a, b - a)
        for t in self.numerator_terms[pairs:]:
            num *= math.factorial(t)
        for t in self.denominator_terms[pairs:]:
            den *= math.factorial(t)
        return Fraction(num, den)

    def cancelled_factors(self) -> "tuple[tuple[int, ...], tuple[int, ...]]":
        """Post-cancellation integer factor lists (numerator, denominator).

        Each factor is a plain integer in ``[2, max_term]``; the product of
        the numerator list over the denominator list equals ``value()``.
        Useful when the ratio feeds a radicand and must stay factored.
        """
        num: list = []
        den: list = []
        pairs = min(len(self.numerator_terms), len(self.denominator_terms))
        for a, b in zip(self.numerator_terms, self.denominator_terms):
            if a >= b:
                num.extend(range(max(b + 1, 2), a + 1))
            else:
                den.extend(range(max(a + 1, 2), b + 1))
        for t in self.numerator_terms[pairs:]:
            num.extend(range(2, t + 1))
        for t in self.denominator_terms[pairs:]:
            den.extend(range(2, t + 1))
        return tuple(num), tuple(den)


# ---------------------------------------------------------------------------
# square-free bookkeeping


# One engine call sees few distinct arguments (tens); the bound only keeps
# a long-lived process from growing without limit.
SQUARE_FREE_CACHE_SIZE = 4096


@lru_cache(maxsize=SQUARE_FREE_CACHE_SIZE)
def square_free_split(k: int) -> "tuple[int, int]":
    """Split k >= 1 as root**2 * squarefree; returns (root, squarefree)."""
    if k < 1:
        raise ValueError("square_free_split needs k >= 1")
    root = 1
    sf = 1
    while k % 4 == 0:
        k //= 4
        root *= 2
    if k % 2 == 0:
        k //= 2
        sf *= 2
    d = 3
    while d * d <= k:
        if k % d == 0:
            e = 0
            while k % d == 0:
                k //= d
                e += 1
            root *= d ** (e // 2)
            if e % 2:
                sf *= d
        d += 2
    sf *= k
    return root, sf


def _fold_square_free(factors: Iterable[int]) -> "tuple[int, int]":
    """Accumulate (root, squarefree) over a product of positive integers."""
    root = 1
    sf = 1
    for u in factors:
        r, s = square_free_split(u)
        g = gcd(sf, s)
        root *= r * g
        sf = (sf // g) * (s // g)
    return root, sf


# ---------------------------------------------------------------------------
# Gaussian rationals

_new = object.__new__


def _raw_gaussian(a: int, b: int, d: int) -> "GaussianRational":
    """Wrap fields that are already canonical."""
    c = _new(GaussianRational)
    c.re_num = a
    c.im_num = b
    c.den = d
    return c


def _gaussian(a: int, b: int, d: int) -> "GaussianRational":
    """Canonical ``(a + b*i)/d`` for ints with d > 0."""
    if d != 1:
        g = gcd(a, b, d) if b else gcd(a, d)
        if g != 1:
            return _raw_gaussian(a // g, b // g, d // g)
    return _raw_gaussian(a, b, d)


class GaussianRational:
    """Exact complex rational ``(re_num + im_num*i) / den`` in canonical form."""

    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if re.__class__ is int and im.__class__ is int:
            self.re_num, self.im_num, self.den = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        rd, id_ = re.denominator, im.denominator
        d = rd // gcd(rd, id_) * id_
        # over the lcm of two reduced denominators no common factor is left
        self.re_num = re.numerator * (d // rd)
        self.im_num = im.numerator * (d // id_)
        self.den = d

    @staticmethod
    def of(re: RationalLike = 0, im: RationalLike = 0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _gaussian(self.re_num + other.re_num, self.im_num + other.im_num, d1)
        return _gaussian(
            self.re_num * d2 + other.re_num * d1, self.im_num * d2 + other.im_num * d1, d1 * d2
        )

    def __neg__(self) -> "GaussianRational":
        return _raw_gaussian(-self.re_num, -self.im_num, self.den)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, a2, b2 = self.re_num, self.im_num, other.re_num, other.im_num
        if not b1 and not b2:
            return _gaussian(a1 * a2, 0, self.den * other.den)
        return _gaussian(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.den * other.den)

    def conjugate(self) -> "GaussianRational":
        if not self.im_num:
            return self
        return _raw_gaussian(self.re_num, -self.im_num, self.den)

    def abs_sq(self) -> Fraction:
        a, b = self.re_num, self.im_num
        return Fraction(a * a + b * b, self.den * self.den)

    def is_zero(self) -> bool:
        return not self.re_num and not self.im_num

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return (
            self.re_num == other.re_num
            and self.im_num == other.im_num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.re_num, self.im_num, self.den))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gaussian(self)


GAUSSIAN_ONE = GaussianRational(1)


def format_gaussian(c) -> str:
    """Render like '3', '-2/5', '3*i', '1/2-2*i', '0'.

    ``c`` is a GaussianRational, or a RadicalCoefficient whose rational
    factor is rendered.
    """
    if not c.im_num:
        return str(c.re)
    im = c.im
    im_mag = "i" if abs(im) == 1 else f"{abs(im)}*i"
    if not c.re_num:
        return im_mag if im > 0 else f"-{im_mag}"
    sign = "+" if im > 0 else "-"
    return f"{c.re}{sign}{im_mag}"


# ---------------------------------------------------------------------------
# radical coefficients


def _raw_radical(a: int, b: int, d: int, r: int) -> "RadicalCoefficient":
    """Wrap fields that are already canonical."""
    c = _new(RadicalCoefficient)
    c.re_num = a
    c.im_num = b
    c.den = d
    c.radicand = r
    return c


def _radical(a: int, b: int, d: int, r: int) -> "RadicalCoefficient":
    """Canonical ``(a + b*i)/d * sqrt(r)`` for ints with d > 0 and r square-free >= 1."""
    if not b:
        if not a:
            return RADICAL_ZERO
        if d != 1:
            g = gcd(a, d)
            if g != 1:
                return _raw_radical(a // g, 0, d // g, r)
    elif d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _raw_radical(a // g, b // g, d // g, r)
    return _raw_radical(a, b, d, r)


class RadicalCoefficient:
    """Exact scalar ``(re_num + im_num*i) / den * sqrt(radicand)``, canonical.

    ``RadicalCoefficient(rational, radicand)`` canonicalizes
    ``rational * sqrt(radicand)`` for a rational or Gaussian-rational
    ``rational`` and a rational ``radicand >= 0`` (see the module notes).
    """

    __slots__ = ("re_num", "im_num", "den", "radicand")

    def __init__(self, rational, radicand):
        c = RadicalCoefficient.normalize(rational, radicand)
        self.re_num = c.re_num
        self.im_num = c.im_num
        self.den = c.den
        self.radicand = c.radicand

    @staticmethod
    def normalize(rational, radicand) -> "RadicalCoefficient":
        """Canonicalize ``rational * sqrt(radicand)`` for radicand >= 0."""
        if not isinstance(rational, GaussianRational):
            rational = GaussianRational(rational)
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError("radicand must be >= 0")
        if rational.is_zero() or not radicand:
            return RADICAL_ZERO
        root_n, sf_n = square_free_split(radicand.numerator)
        root_d, sf_d = square_free_split(radicand.denominator)
        # sqrt(p/q) = root_n / (root_d * sf_d) * sqrt(sf_n * sf_d); sf_n, sf_d are coprime
        return _radical(
            rational.re_num * root_n,
            rational.im_num * root_n,
            rational.den * root_d * sf_d,
            sf_n * sf_d,
        )

    @staticmethod
    def from_sqrt_ratio(rational: GaussianRational, num_factors, den_factors) -> "RadicalCoefficient":
        """Canonical ``rational * sqrt(prod(num_factors)/prod(den_factors))``.

        The factor lists hold positive integers small enough to factor by
        trial division; they typically come straight from
        ``FactorialRatio.cancelled_factors``.
        """
        if rational.is_zero():
            return RADICAL_ZERO
        root_n, sf_n = _fold_square_free(num_factors)
        root_d, sf_d = _fold_square_free(den_factors)
        g = gcd(sf_n, sf_d)
        if g != 1:
            sf_n //= g
            sf_d //= g
        return _radical(
            rational.re_num * root_n,
            rational.im_num * root_n,
            rational.den * root_d * sf_d,
            sf_n * sf_d,
        )

    @property
    def rational(self) -> GaussianRational:
        """The Gaussian-rational factor ``(re_num + im_num*i) / den``."""
        return _raw_gaussian(self.re_num, self.im_num, self.den)

    @property
    def re(self) -> Fraction:
        """Real part of the rational factor."""
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        """Imaginary part of the rational factor."""
        return Fraction(self.im_num, self.den)

    def is_zero(self) -> bool:
        return not self.radicand

    def __neg__(self) -> "RadicalCoefficient":
        if not self.radicand:
            return self
        return _raw_radical(-self.re_num, -self.im_num, self.den, self.radicand)

    def __add__(self, other: "RadicalCoefficient") -> "RadicalCoefficient":
        r = self.radicand
        if r != other.radicand:
            if not r:
                return other
            if not other.radicand:
                return self
            raise RadicandMismatchError(
                f"cannot add unlike radicands {r} and {other.radicand}"
            )
        if not r:
            return self
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _radical(self.re_num + other.re_num, self.im_num + other.im_num, d1, r)
        return _radical(
            self.re_num * d2 + other.re_num * d1,
            self.im_num * d2 + other.im_num * d1,
            d1 * d2,
            r,
        )

    def __sub__(self, other: "RadicalCoefficient") -> "RadicalCoefficient":
        return self + (-other)

    def __mul__(self, other: "RadicalCoefficient") -> "RadicalCoefficient":
        r1, r2 = self.radicand, other.radicand
        if not r1 or not r2:
            return RADICAL_ZERO
        a1, b1, d1 = self.re_num, self.im_num, self.den
        a2, b2, d2 = other.re_num, other.im_num, other.den
        # canonical form makes the value 1 exactly (1, 0, 1, 1)
        if r1 == 1 and a1 == d1 and not b1:
            return other
        if r2 == 1 and a2 == d2 and not b2:
            return self
        if b1 or b2:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        else:
            a, b = a1 * a2, 0
        if r1 != 1 and r2 != 1:
            # sqrt(r1) sqrt(r2) = g sqrt((r1/g) (r2/g)) with coprime quotients
            g = gcd(r1, r2)
            if g != 1:
                a *= g
                b *= g
                r1 //= g
                r2 //= g
        return _radical(a, b, d1 * d2, r1 * r2)

    def scale(self, c) -> "RadicalCoefficient":
        """Multiply by an int, a ``Fraction`` or a ``GaussianRational``."""
        if c.__class__ is not GaussianRational:
            return self.scale_ratio(c.numerator, c.denominator)
        r = self.radicand
        if not r:
            return self
        a1, b1, a2, b2 = self.re_num, self.im_num, c.re_num, c.im_num
        if not b1 and not b2:
            return _radical(a1 * a2, 0, self.den * c.den, r)
        return _radical(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.den * c.den, r)

    def scale_ratio(self, num: int, den: int) -> "RadicalCoefficient":
        """Multiply by ``num/den`` for ints ``num`` and ``den > 0``."""
        r = self.radicand
        if not r or (num == 1 and den == 1):
            return self
        return _radical(self.re_num * num, self.im_num * num, self.den * den, r)

    def conjugate(self) -> "RadicalCoefficient":
        if not self.im_num:
            return self
        return _raw_radical(self.re_num, -self.im_num, self.den, self.radicand)

    def abs_sq(self) -> Fraction:
        """|value|^2 as an exact rational."""
        a, b, d = self.re_num, self.im_num, self.den
        return Fraction((a * a + b * b) * self.radicand, d * d)

    def to_complex(self) -> complex:
        if not self.radicand:
            return 0j
        return complex(self.re_num / self.den, self.im_num / self.den) * math.sqrt(self.radicand)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RadicalCoefficient:
            return NotImplemented
        return (
            self.radicand == other.radicand
            and self.re_num == other.re_num
            and self.im_num == other.im_num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.re_num, self.im_num, self.den, self.radicand))

    def __repr__(self) -> str:
        return f"RadicalCoefficient({self.rational!r}, {self.radicand})"

    def __str__(self) -> str:
        if not self.radicand:
            return "0"
        if self.radicand == 1:
            return format_gaussian(self)
        return f"({format_gaussian(self)})*sqrt({self.radicand})"


RADICAL_ZERO = _raw_radical(0, 0, 1, 0)
RADICAL_ONE = _raw_radical(1, 0, 1, 1)


def radical_normalize(rational, radicand) -> RadicalCoefficient:
    """Public canonicalization entry point (see RadicalCoefficient.normalize)."""
    return RadicalCoefficient.normalize(rational, radicand)
