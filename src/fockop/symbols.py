"""Polynomial symbols in z and conj(z) on C^n: representation, parsing, structure.

A symbol is stored flat, as a finite map from exponent pairs
``(beta, gamma)`` (powers of ``z`` and of ``conj(z)``) to nonzero
Gaussian-rational coefficients, ``RadicalCoefficient``s with radicand 1.
Products in the input grammar are expanded at parse time; like terms are
always merged and zero terms dropped, so equal symbols have equal term
maps.

The parser builds these canonical values directly, with no validating
constructor: each parse makes ``z_j`` and ``conj(z_j)`` once and shares
them between the factors that name them, makes constants from the
integers of the text, and sums an expression's terms into one new dict.
No value the parser returns shares its term map with another.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .arith import (
    RADICAL_ONE,
    MultiIndex,
    RadicalCoefficient,
    _radical,
    check_index,
    check_same_dimension,
    format_gaussian,
)
from .errors import InputError, SymbolSyntaxError

TermKey = Tuple[MultiIndex, MultiIndex]

# Largest dimension n.  Every multi-index holds n ints, and the Monte Carlo
# oracle draws each chunk of up to oracle.MC_CHUNK = 2^18 samples as 2n
# floats per sample and folds them into n moduli |z_j|^2, about 6 MB per
# unit of n; only an off-diagonal case adds a complex view, 4 MB more per
# unit of n.
MAX_DIMENSION = 32


def check_dimension(n: int) -> None:
    """Reject a dimension n outside 1..MAX_DIMENSION."""
    if n < 1:
        raise InputError("dimension n must be >= 1")
    if n > MAX_DIMENSION:
        raise InputError(f"dimension n = {n} exceeds MAX_DIMENSION = {MAX_DIMENSION}")


class SymbolPolynomial:
    """Finite linear combination of monomials z^beta * conj(z)^gamma.

    Every coefficient is a nonzero Gaussian rational (radicand 1); the
    text form has no square roots.  ``SymbolPolynomial(n, terms)`` checks
    that each key is a pair of indices of n nonnegative components, stores
    it as a pair of ``MultiIndex``, and checks that each coefficient has
    radicand 1; the algebra, whose results keep these properties, builds
    them with ``_symbol`` and skips the checks.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms: Dict[TermKey, RadicalCoefficient]):
        check_dimension(dimension)
        checked: Dict[TermKey, RadicalCoefficient] = {}
        for (beta, gamma), c in terms.items():
            check_index(dimension, beta)
            check_index(dimension, gamma)
            if c.radicand != 1:
                raise InputError(f"symbol coefficients must be nonzero Gaussian rationals, got {c}")
            # a plain tuple key would concatenate under + where MultiIndex adds
            checked[_as_index(beta), _as_index(gamma)] = c
        self.dimension = dimension
        self.terms = checked

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero(dimension: int) -> "SymbolPolynomial":
        return SymbolPolynomial(dimension, {})

    @staticmethod
    def constant(dimension: int, value) -> "SymbolPolynomial":
        if not isinstance(value, RadicalCoefficient):
            value = RadicalCoefficient(value)
        if value.is_zero():
            return SymbolPolynomial.zero(dimension)
        z = MultiIndex.zero(dimension)
        return SymbolPolynomial(dimension, {(z, z): value})

    @staticmethod
    def monomial(dimension: int, beta, gamma) -> "SymbolPolynomial":
        """z^beta conj(z)^gamma with coefficient 1."""
        b = MultiIndex(beta)
        g = MultiIndex(gamma)
        check_same_dimension(dimension, b.dimension, g.dimension)
        return SymbolPolynomial(dimension, {(b, g): RADICAL_ONE})

    @staticmethod
    def from_terms(dimension: int, items: Iterable[Tuple[TermKey, RadicalCoefficient]]) -> "SymbolPolynomial":
        return SymbolPolynomial(dimension, _merged(items))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        """True iff every term has beta = gamma = 0 (the zero symbol counts)."""
        return all(b.order == 0 and g.order == 0 for b, g in self.terms)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SymbolPolynomial") -> "SymbolPolynomial":
        check_same_dimension(self.dimension, other.dimension)
        return _symbol(self.dimension, _merged(chain(self.terms.items(), other.terms.items())))

    def __neg__(self) -> "SymbolPolynomial":
        return _symbol(self.dimension, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "SymbolPolynomial") -> "SymbolPolynomial":
        return self + (-other)

    def __mul__(self, other: "SymbolPolynomial") -> "SymbolPolynomial":
        check_same_dimension(self.dimension, other.dimension)
        # _merged's loop, inlined: feeding it a generator costs about 1 us more
        # per single-term product, a few percent of the closed-form sweep.
        acc: Dict[TermKey, RadicalCoefficient] = {}
        for (b1, g1), c1 in self.terms.items():
            for (b2, g2), c2 in other.terms.items():
                key = (b1 + b2, g1 + g2)
                c = c1 * c2
                prev = acc.get(key)
                total = c if prev is None else prev + c
                if total.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = total
        return _symbol(self.dimension, acc)

    def __pow__(self, exponent: int) -> "SymbolPolynomial":
        if exponent < 0:
            raise InputError("negative exponents are not representable")
        if not exponent:
            return SymbolPolynomial.constant(self.dimension, RADICAL_ONE)
        # repeated squaring from base^(2^k), k the exponent's lowest set bit:
        # no product is by the constant 1
        base = self
        while not exponent & 1:
            base = base * base
            exponent >>= 1
        out = base
        exponent >>= 1
        while exponent:
            base = base * base
            if exponent & 1:
                out = out * base
            exponent >>= 1
        return out

    def conjugate(self) -> "SymbolPolynomial":
        """Complex conjugation: (beta, gamma) -> (gamma, beta), coefficient conjugated."""
        return _symbol(self.dimension, {(g, b): c.conjugate() for (b, g), c in self.terms.items()})

    def holomorphic_split(self) -> "tuple[SymbolPolynomial, SymbolPolynomial]":
        """(pure holomorphic part, remainder); the parts sum to self."""
        holo: Dict[TermKey, RadicalCoefficient] = {}
        rest: Dict[TermKey, RadicalCoefficient] = {}
        for key, coeff in self.terms.items():
            (holo if key[1].order == 0 else rest)[key] = coeff
        return _symbol(self.dimension, holo), _symbol(self.dimension, rest)

    # -- inspection ---------------------------------------------------------

    def sorted_terms(self) -> "list[tuple[TermKey, RadicalCoefficient]]":
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolPolynomial)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    __hash__ = None  # mutable mapping inside; identity hashing would mislead

    def __repr__(self) -> str:
        return f"SymbolPolynomial(n={self.dimension}, {self.pretty()!r})"

    def pretty(self) -> str:
        """Canonical text form; parsing it back yields an equal symbol."""
        if not self.terms:
            return "0"
        pieces = []
        for (beta, gamma), coeff in self.sorted_terms():
            mono = _monomial_text(beta, gamma, self.dimension)
            sign, body = _coefficient_text(coeff, bool(mono))
            pieces.append((sign, f"{body}*{mono}" if body and mono else (mono or body)))
        head_sign, head = pieces[0]
        out = ("-" if head_sign == "-" else "") + head
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


def _as_index(index) -> MultiIndex:
    """``index`` as a ``MultiIndex``; a checked key that is one already is kept."""
    return index if type(index) is MultiIndex else MultiIndex(index)


def _symbol(dimension: int, terms: Dict[TermKey, RadicalCoefficient]) -> SymbolPolynomial:
    """The symbol with ``terms``, built from valid symbols' terms (internal):
    the checks of ``SymbolPolynomial(dimension, terms)`` are skipped."""
    s = object.__new__(SymbolPolynomial)
    s.dimension = dimension
    s.terms = terms
    return s


def _merged(items: Iterable[Tuple[TermKey, RadicalCoefficient]]) -> Dict[TermKey, RadicalCoefficient]:
    """The terms ``items`` sum to: like terms merged, zero sums dropped."""
    acc: Dict[TermKey, RadicalCoefficient] = {}
    _merge_into(acc, items)
    return acc


def _merge_into(acc: Dict[TermKey, RadicalCoefficient], items: Iterable[Tuple[TermKey, RadicalCoefficient]]) -> None:
    """Add ``items`` to the terms ``acc`` in place: like terms merged, zero
    sums dropped, a new key inserted last."""
    for key, coeff in items:
        prev = acc.get(key)
        total = coeff if prev is None else prev + coeff
        if total.is_zero():
            acc.pop(key, None)
        else:
            acc[key] = total


def _monomial_text(beta: MultiIndex, gamma: MultiIndex, dimension: int) -> str:
    def var(j: int) -> str:
        return "z" if dimension == 1 else f"z{j + 1}"

    parts = []
    for j, e in enumerate(beta):
        if e == 1:
            parts.append(var(j))
        elif e > 1:
            parts.append(f"{var(j)}^{e}")
    for j, e in enumerate(gamma):
        if e == 1:
            parts.append(f"conj({var(j)})")
        elif e > 1:
            parts.append(f"conj({var(j)})^{e}")
    return "*".join(parts)


def _coefficient_text(c: RadicalCoefficient, has_monomial: bool) -> "tuple[str, str]":
    """Return (sign, body) where body omits a leading minus."""
    if c.re and c.im:
        return "+", f"({format_gaussian(c)})"
    if c.im:
        sign = "+" if c.im > 0 else "-"
        mag = abs(c.im)
        body = "i" if mag == 1 else f"{mag}*i"
        return sign, body
    sign = "+" if c.re >= 0 else "-"
    mag = abs(c.re)
    if has_monomial and mag == 1:
        return sign, ""
    return sign, str(mag)


# ---------------------------------------------------------------------------
# parser
#
# One grammar and one tokenizer: ``parse_symbol`` starts at ``expr`` and
# ``operators.parse_operator`` at ``op``.  The two operator productions live in
# a ``_Parser`` subclass there, because this module cannot import the operator
# types.  A syntax error carries its position in the whole text parsed.
#
# op      := atom ("*" atom)* ;
# atom    := "T" "(" expr ")" | "HP" "(" expr ";" expr ")" ;
# expr    := ["-"] term (("+"|"-") term)* ;
# term    := factor ("*" factor)* ;
# factor  := base ("^" uint)? ;
# base    := var | "conj(" var ")" | number | "i" | "(" expr ")" ;
# var     := "z" uint | "z" (n=1 only) ;
# number  := uint | uint "/" uint ;

# Bound on max(1, degree of the base) * exponent in ``factor``, checked before
# the power is expanded.  A constant base counts as degree 1: its power grows
# the coefficient's integers instead.
MAX_SYMBOL_DEGREE = 256

# Bound on the term pairs, len(a) * len(b), of one symbol product the parser
# asks for, checked before multiplying; it bounds the product's terms too.
# A power is expanded by repeated squaring from the base
# (``SymbolPolynomial.__pow__``); ``_power_pairs`` bounds every product of
# that expansion before it starts, with base^j counted at its most possible
# terms: C(k+j-1, j) for a k-term base, the monomials of degree j in k
# unknowns.  It counts one product more, 1 * base^j, as if the expansion
# started from the constant 1.  That product is never larger than the
# squaring before it, except for base^1, so a base of more terms than the
# bound is rejected under every exponent >= 1.  At 20_000 every power of a
# two-term base that MAX_SYMBOL_DEGREE allows still parses (at most
# 129^2 = 16641 pairs).
MAX_SYMBOL_TERMS = 20_000

# Bound on the parentheses open at once in ``base``, checked where a "(" opens.
# Each level is four frames of the recursive descent (expr, term, factor,
# base): the deepest text allowed takes about 400 of Python's default limit
# of 1000 frames.
MAX_SYMBOL_NESTING = 100


def _power_pairs(k: int, e: int) -> int:
    """An upper bound on the term pairs of one product in
    ``SymbolPolynomial.__pow__`` for a base of k >= 1 terms to the power e:
    the most of one product of the expansion from the constant 1."""

    def most_terms(j: int) -> int:
        return comb(k + j - 1, j)

    worst, have, square = 0, 0, 1  # out = base^have, base^square
    while e:
        if e & 1:
            worst = max(worst, most_terms(have) * most_terms(square))
            have += square
        if e > 1:
            worst = max(worst, most_terms(square) ** 2)
            square *= 2
        e >>= 1
    return worst


_T_INT = "int"
_T_VAR = "var"
_T_CONJ = "conj"
_T_IMAG = "imag"
_T_OPERATOR = "operator"
_T_OP = "op"
_T_END = "end"
_NAMES = {"conj": _T_CONJ, "i": _T_IMAG, "T": _T_OPERATOR, "HP": _T_OPERATOR}
_IMAGINARY_UNIT = _radical(0, 1, 1, 1)


class _Token(NamedTuple):
    kind: str
    value: object
    pos: int


def _read_int(text: str, i: int, j: int) -> int:
    try:
        return int(text[i:j])
    except ValueError:  # more digits than the interpreter converts from text
        raise SymbolSyntaxError("number too long", text, i) from None


def _is_digit(ch: str) -> bool:
    """ASCII 0-9 only: ``str.isdigit`` also accepts '²' and other scripts' digits."""
    return "0" <= ch <= "9"


def _tokenize(text: str) -> "list[_Token]":
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_digit(ch):
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            tokens.append(_Token(_T_INT, _read_int(text, i, j), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word == "z":
                k = j
                while k < n and _is_digit(text[k]):
                    k += 1
                index = _read_int(text, j, k) if k > j else None
                tokens.append(_Token(_T_VAR, index, i))
                i = k
                continue
            kind = _NAMES.get(word)
            if kind is None:
                raise SymbolSyntaxError(f"unknown name '{word}'", text, i)
            tokens.append(_Token(kind, word, i))
            i = j
            continue
        if ch in "+-*/^();":
            tokens.append(_Token(_T_OP, ch, i))
            i += 1
            continue
        raise SymbolSyntaxError(f"unexpected character '{ch}'", text, i)
    tokens.append(_Token(_T_END, None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, dimension: int):
        check_dimension(dimension)
        self.text = text
        self.dimension = dimension
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open in ``parse_base``
        self.zero = MultiIndex._wrap((0,) * dimension)
        self.variables: Dict[Tuple[int, bool], SymbolPolynomial] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != _T_OP or tok.value != op:
            raise SymbolSyntaxError(f"expected '{op}'", self.text, tok.pos)
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == _T_OP and tok.value in ops

    def parse(self) -> SymbolPolynomial:
        poly = self.parse_expr()
        tail = self.peek()
        if tail.kind != _T_END:
            raise SymbolSyntaxError("trailing input after expression", self.text, tail.pos)
        return poly

    def parse_expr(self) -> SymbolPolynomial:
        """The sum of the terms, added one by one into one new dict (the
        terms it returns are never those of a shared variable)."""
        negate = self.at_op("-")
        if negate:
            self.next()
        acc: Dict[TermKey, RadicalCoefficient] = {}
        while True:
            terms = self.parse_term().terms.items()
            _merge_into(acc, ((key, -c) for key, c in terms) if negate else terms)
            if not self.at_op("+", "-"):
                return _symbol(self.dimension, acc)
            negate = self.next().value == "-"

    def check_product(self, a: SymbolPolynomial, b: SymbolPolynomial, tok: _Token) -> None:
        """Reject a product of more than MAX_SYMBOL_TERMS term pairs at ``tok``."""
        if len(a.terms) * len(b.terms) > MAX_SYMBOL_TERMS:
            message = (
                f"product of {len(a.terms)} and {len(b.terms)} terms exceeds "
                f"MAX_SYMBOL_TERMS = {MAX_SYMBOL_TERMS} term pairs"
            )
            raise SymbolSyntaxError(message, self.text, tok.pos)

    def parse_term(self) -> SymbolPolynomial:
        poly = self.parse_factor()
        while self.at_op("*"):
            tok = self.next()
            rhs = self.parse_factor()
            self.check_product(poly, rhs, tok)
            poly = poly * rhs
        return poly

    def parse_factor(self) -> SymbolPolynomial:
        base = self.parse_base()
        if self.at_op("^"):
            self.next()
            tok = self.next()
            if tok.kind != _T_INT:
                raise SymbolSyntaxError("exponent must be a nonnegative integer", self.text, tok.pos)
            degree = max((b.order + g.order for b, g in base.terms), default=0) or 1
            if degree * tok.value > MAX_SYMBOL_DEGREE:
                message = f"degree {degree} * exponent {tok.value} exceeds MAX_SYMBOL_DEGREE = {MAX_SYMBOL_DEGREE}"
                raise SymbolSyntaxError(message, self.text, tok.pos)
            k = max(len(base.terms), 1)
            pairs = _power_pairs(k, tok.value)
            if pairs > MAX_SYMBOL_TERMS:
                message = (
                    f"a {k}-term base to the power {tok.value} needs {pairs} term pairs in one "
                    f"product, more than MAX_SYMBOL_TERMS = {MAX_SYMBOL_TERMS}"
                )
                raise SymbolSyntaxError(message, self.text, tok.pos)
            return base ** tok.value
        return base

    def parse_base(self) -> SymbolPolynomial:
        tok = self.next()
        if tok.kind == _T_INT:
            value = _radical(tok.value, 0, 1, 1)
            if self.at_op("/"):
                self.next()
                den = self.next()
                if den.kind != _T_INT:
                    raise SymbolSyntaxError("expected denominator digits", self.text, den.pos)
                if den.value == 0:
                    raise SymbolSyntaxError("zero denominator", self.text, den.pos)
                value = _radical(tok.value, 0, den.value, 1)
            return self.constant(value)
        if tok.kind == _T_IMAG:
            return self.constant(_IMAGINARY_UNIT)
        if tok.kind == _T_VAR:
            return self.variable(self._variable_index(tok), False)
        if tok.kind == _T_CONJ:
            self.expect_op("(")
            var = self.next()
            if var.kind != _T_VAR:
                raise SymbolSyntaxError("conj(...) takes a variable", self.text, var.pos)
            j = self._variable_index(var)
            self.expect_op(")")
            return self.variable(j, True)
        if tok.kind == _T_OP and tok.value == "(":
            if self.depth == MAX_SYMBOL_NESTING:
                message = f"more than MAX_SYMBOL_NESTING = {MAX_SYMBOL_NESTING} nested parentheses"
                raise SymbolSyntaxError(message, self.text, tok.pos)
            self.depth += 1
            poly = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return poly
        raise SymbolSyntaxError("expected a variable, number, 'i' or '('", self.text, tok.pos)

    def constant(self, value: RadicalCoefficient) -> SymbolPolynomial:
        """The constant symbol ``value`` (radicand 1)."""
        if value.is_zero():
            return _symbol(self.dimension, {})
        return _symbol(self.dimension, {(self.zero, self.zero): value})

    def variable(self, j: int, conj: bool) -> SymbolPolynomial:
        """z_j, or conj(z_j) if ``conj``, for a 0-based j: made once per
        parse and shared by every factor that names it, which the algebra
        may do because it never changes an operand."""
        sym = self.variables.get((j, conj))
        if sym is None:
            zero = self.zero
            unit = MultiIndex._wrap(zero[:j] + (1,) + zero[j + 1 :])
            sym = _symbol(self.dimension, {(zero, unit) if conj else (unit, zero): RADICAL_ONE})
            self.variables[j, conj] = sym
        return sym

    def _variable_index(self, tok: _Token) -> int:
        index: Optional[int] = tok.value  # type: ignore[assignment]
        if index is None:
            if self.dimension != 1:
                raise SymbolSyntaxError(
                    "bare 'z' is only valid in dimension 1; use z1..zn", self.text, tok.pos
                )
            return 0
        if not 1 <= index <= self.dimension:
            raise SymbolSyntaxError(
                f"variable index {index} out of 1..{self.dimension}", self.text, tok.pos
            )
        return index - 1


def parse_symbol(text: str, dimension: int) -> SymbolPolynomial:
    """Parse a polynomial symbol in z1..zn (bare 'z' allowed when n=1)."""
    return _Parser(text, dimension).parse()
