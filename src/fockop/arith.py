"""Exact numeric substrate: multi-indices, rising products, one exact scalar.

Scalars stay exact end to end and are plain Python integers underneath.
The package has one exact scalar, ``RadicalCoefficient``, the flat
four-integer form ``(re_num + im_num*i) / den * sqrt(radicand)``; a
Gaussian rational, such as a symbol coefficient, is the same form with
radicand 1.  One normalizing constructor keeps every value canonical:

* ``den > 0`` and ``gcd(re_num, im_num, den) == 1``;
* ``radicand`` is a square-free positive integer, and ``radicand == 0``
  exactly for zero, which is ``(0, 0, 1, 0)``.

Square factors of a radicand move into the rational part, and a
fractional radicand ``p/q`` becomes ``sqrt(p*q)/q``, so every square
class of rationals has one representative.  The form is closed under
every coefficient computation the operator engine performs (sums within
one square class, products, rational scaling, conjugation).  Because it
is canonical, equal values have equal fields: structural equality is
value equality, and same-class contributions merge exactly.
``fractions.Fraction`` appears only at the edges: the constructor, the
``re`` and ``im`` views, ``abs_sq()`` and text formatting.

No operation mutates a value after construction, so all of it is safe
to share between threads.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add
from typing import Iterable

from .errors import InputError, InternalInvariantError


# ---------------------------------------------------------------------------
# multi-indices


class MultiIndex(tuple):
    """A tuple of nonnegative integers indexing monomials and basis vectors."""

    __slots__ = ()

    def __new__(cls, components: Iterable[int]) -> "MultiIndex":
        items = tuple(map(int, components))
        if not items:
            raise InputError("a multi-index needs at least one component")
        if min(items) < 0:
            raise InputError(f"multi-index components must be >= 0, got {items}")
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
        if len(self) != len(other):
            check_same_dimension(len(self), len(other))
        return tuple.__new__(MultiIndex, map(add, self, other))

    def scaled_add(self, t: int, direction: "MultiIndex") -> "MultiIndex":
        """Return ``self + t * direction``."""
        check_same_dimension(len(self), len(direction))
        if t < 0:
            raise InputError("scale must be >= 0")
        return MultiIndex(a + t * d for a, d in zip(self, direction))

    @staticmethod
    def zero(dimension: int) -> "MultiIndex":
        return MultiIndex((0,) * dimension)

    @staticmethod
    def ones(dimension: int) -> "MultiIndex":
        return MultiIndex((1,) * dimension)


def check_same_dimension(*dims) -> None:
    """Raise ``InputError`` unless all ``dims`` are equal.

    The package's one dimension check: every operation on operands of
    different dimensions n fails here (and a subtraction of expansions in
    different spaces, whose ``SpaceParams`` it compares).  Hot paths
    compare inline and call it only to raise.
    """
    if dims.count(dims[0]) != len(dims):
        shown = " vs ".join(map(str, dict.fromkeys(dims)))
        raise InputError(f"dimensions differ: {shown}")


def check_index(n: int, index) -> None:
    """Raise ``InputError`` unless ``index`` has ``n`` components, none negative:
    the check of a key a public constructor takes as a multi-index."""
    if len(index) != n:
        check_same_dimension(n, len(index))
    if min(index) < 0:
        raise InputError(f"multi-index components must be >= 0, got {tuple(index)}")


# ---------------------------------------------------------------------------
# rising products


def rising_product(start: int, count: int) -> int:
    """(start+1) * (start+2) * ... * (start+count), i.e. (start+count)!/start!,
    for ``start, count >= 0``; an empty product (``count == 0``) is 1."""
    return math.perm(start + count, count)


# ---------------------------------------------------------------------------
# square-free bookkeeping


# One command splits few distinct integers: at most 13 in a benchmark
# `cli-queries` operation, and a `dense-ray-norms` command or a passing
# closed-form sweep looks up none (seed 1, 600, 60 and 2 operations).  The
# run integers of one image's targets overlap, and near |alpha| = 10^9 one
# split trial-divides up to about 31,623 steps.  The bound only keeps a
# long-lived process from growing without limit.
SQUARE_FREE_CACHE_SIZE = 4096


@lru_cache(maxsize=SQUARE_FREE_CACHE_SIZE)
def square_free_split(k: int) -> "tuple[int, int]":
    """Split k >= 1 as root**2 * squarefree; returns (root, squarefree)."""
    if k < 1:
        raise InputError("square_free_split needs k >= 1")
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
    """(root, squarefree) split of the product of integers >= 1, folded
    from each factor's ``square_free_split``."""
    root = 1
    sf = 1
    for k in factors:
        r, s = square_free_split(k)
        g = gcd(sf, s)
        root *= r * g
        sf = (sf // g) * (s // g)
    return root, sf


# ---------------------------------------------------------------------------
# radical coefficients

_new = object.__new__


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


# ---------------------------------------------------------------------------
# decimal text of exact values
#
# ``int`` converts at most ``sys.get_int_max_str_digits()`` digits to or from
# text, a limit the environment sets (``PYTHONINTMAXSTRDIGITS``, as low as
# ``sys.int_info.str_digits_check_threshold`` = 640).  The package converts
# longer numbers in pieces of _DIGIT_PIECE digits, below any such limit, so
# what it reads and prints never depends on it.
_DIGIT_PIECE = sys.int_info.str_digits_check_threshold // 2
# An int of at most this many bits has at most _DIGIT_PIECE digits (8 < 10).
_SHORT_BITS = 3 * _DIGIT_PIECE


def exact_text(x: "int | Fraction") -> str:
    """``str(x)`` of an int or a Fraction, with every digit however many
    there are: the text every exact value that reaches output is written in."""
    if isinstance(x, int):
        return _int_text(x)
    text = _int_text(x.numerator)
    return text if x.denominator == 1 else f"{text}/{_int_text(x.denominator)}"


def _int_text(x: int) -> str:
    if x.bit_length() <= _SHORT_BITS:
        return str(x)
    if x < 0:
        return "-" + _digits(-x, 0)
    return _digits(x, 0)


def _digits(x: int, width: int) -> str:
    """The digits of ``x >= 0``, zero-padded on the left to ``width``:
    split at about half its digits until each part is short."""
    bits = x.bit_length()
    if bits <= _SHORT_BITS:
        return str(x).zfill(width)
    k = bits * 3 // 20  # about half of the bits * log10(2) digits
    high, low = divmod(x, 10**k)
    return _digits(high, width - k) + _digits(low, k)


def int_from_digits(digits: str) -> int:
    """The int of a string of ASCII digits, however long, read in pieces."""
    if len(digits) <= _DIGIT_PIECE:
        return int(digits)
    value = 0
    for i in range(0, len(digits), _DIGIT_PIECE):
        piece = digits[i : i + _DIGIT_PIECE]
        value = value * 10 ** len(piece) + int(piece)
    return value


def format_gaussian(c: "RadicalCoefficient") -> str:
    """Render the rational factor ``(re_num + im_num*i) / den`` of ``c``
    like '3', '-2/5', '3*i', '1/2-2*i', '0' (see ``exact_text``)."""
    if not c.im_num:
        return exact_text(c.re)
    im = c.im
    im_mag = "i" if abs(im) == 1 else f"{exact_text(abs(im))}*i"
    if not c.re_num:
        return im_mag if im > 0 else f"-{im_mag}"
    sign = "+" if im > 0 else "-"
    return f"{exact_text(c.re)}{sign}{im_mag}"


class RadicalCoefficient:
    """Exact scalar ``(re_num + im_num*i) / den * sqrt(radicand)``, canonical.

    ``RadicalCoefficient(re, radicand=1, *, im=0)`` canonicalizes
    ``(re + im*i) * sqrt(radicand)`` for int or ``Fraction`` ``re`` and
    ``im`` and a rational ``radicand >= 0`` (see the module notes); a zero
    value is the shared ``RADICAL_ZERO``.  With radicand 1 it is a
    Gaussian rational, the form of every symbol coefficient.
    """

    __slots__ = ("re_num", "im_num", "den", "radicand")

    def __new__(cls, re, radicand=1, *, im=0) -> "RadicalCoefficient":
        re, im, radicand = Fraction(re), Fraction(im), Fraction(radicand)
        if radicand < 0:
            raise InputError("radicand must be >= 0")
        if not (re or im) or not radicand:
            return RADICAL_ZERO
        rd, id_ = re.denominator, im.denominator
        d = rd // gcd(rd, id_) * id_  # lcm of the two denominators
        root = cls.from_sqrt_ratio([radicand.numerator], [radicand.denominator])
        return _radical(
            re.numerator * (d // rd) * root.re_num,
            im.numerator * (d // id_) * root.re_num,
            d * root.den,
            root.radicand,
        )

    def __reduce__(self):  # ``__new__`` takes arguments; pickle the canonical fields
        return _raw_radical, (self.re_num, self.im_num, self.den, self.radicand)

    @staticmethod
    def from_sqrt_ratio(num_factors, den_factors) -> "RadicalCoefficient":
        """Canonical ``sqrt(prod(num_factors)/prod(den_factors))``, the
        package's one square root of a ratio.

        The factors are positive integers small enough to factor by trial
        division; each is split by the cached ``square_free_split`` and
        the splits are folded.  Every orthonormal coefficient the operator
        engine reads comes here through ``operators._norm_ratio``, with
        runs of consecutive integers as the factors.
        """
        root_n, sf_n = _fold_square_free(num_factors)
        root_d, sf_d = _fold_square_free(den_factors)
        g = gcd(sf_n, sf_d)
        if g != 1:
            sf_n //= g
            sf_d //= g
        # sqrt(rn^2 sn / (rd^2 sd)) = rn / (rd sd) * sqrt(sn sd), sn and sd coprime
        return _radical(root_n, 0, root_d * sf_d, sf_n * sf_d)

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
            raise InternalInvariantError(
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
        """Multiply by an int or a ``Fraction``."""
        return self.scale_ratio(c.numerator, c.denominator)

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
        return f"RadicalCoefficient({self.re!r}, {self.radicand}, im={self.im!r})"

    def __str__(self) -> str:
        if not self.radicand:
            return "0"
        if self.radicand == 1:
            return format_gaussian(self)
        return f"({format_gaussian(self)})*sqrt({exact_text(self.radicand)})"


RADICAL_ZERO = _raw_radical(0, 0, 1, 0)
RADICAL_ONE = _raw_radical(1, 0, 1, 1)

