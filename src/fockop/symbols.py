"""Polynomial symbols in z and conj(z) on C^n: representation, parsing, structure.

A symbol is stored flat, as a finite map from exponent pairs
``(beta, gamma)`` (powers of ``z`` and of ``conj(z)``) to nonzero
Gaussian-rational coefficients, ``RadicalCoefficient``s with radicand 1.
Products in the input grammar are expanded at parse time; like terms are
always merged and zero terms dropped, so equal symbols have equal term
maps.

The parser builds these canonical values directly, with no validating
constructor.  It reads the text in one scan, at a cursor, with compiled
regular expressions: there is no token list.  One ``fullmatch`` first
checks that the whole text is lexically valid; when it is not, the
tokenizer runs to raise the first lexical error, so that error beats any
earlier grammar error.  A product term with no nested parenthesis (a
flat term) is matched whole, and its factors (``z_j``, ``conj(z_j)``,
integers, ``a/b``, ``i`` and a Gaussian-integer constant ``(a±b*i)``,
each with an optional power) fold straight from the text into one
monomial held as integers: the exponents of beta and gamma are added and
the coefficient is multiplied as integer fields, canonicalized once per
term.  Any other term, or a flat term that breaks a rule of the grammar,
is read token by token by the recursive descent, from the same position.
There the same fold applies to every factor but a parenthesized one,
which is a symbol; only those are multiplied as symbols.  An
expression's terms are summed into one new dict, so no value the parser
returns shares its term map with another.
"""

from __future__ import annotations

import re
import sys
from itertools import chain
from math import comb, gcd
from struct import Struct
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .arith import (
    RADICAL_ONE,
    MultiIndex,
    RadicalCoefficient,
    _radical,
    check_index,
    check_same_dimension,
    exact_text,
    format_gaussian,
    int_from_digits,
)
from .errors import InputError, SymbolSyntaxError

TermKey = Tuple[MultiIndex, MultiIndex]

# Largest dimension n.  Every multi-index holds n ints, and the Monte Carlo
# oracle draws each chunk of up to oracle.MC_CHUNK = 2^15 samples as 2n
# floats per sample and folds them into n moduli |z_j|^2, 0.75 MB per unit
# of n (24 MB at n = 32); an off-diagonal case adds a complex view, 0.5 MB
# more per unit of n.
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

    ``_action`` is None until the operator engine first applies the
    symbol; it then holds the terms' table for the basis action
    (``operators._action_terms``), derived once from ``terms``.  It is
    not part of the value: ``==`` and ``pretty`` read ``terms`` alone.
    """

    __slots__ = ("dimension", "terms", "_action")

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
        self._action = None

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

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        """True iff every term has beta = gamma = 0 (the zero symbol counts)."""
        return all(b.order == 0 and g.order == 0 for b, g in self.terms)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SymbolPolynomial") -> "SymbolPolynomial":
        check_same_dimension(self.dimension, other.dimension)
        terms = dict(self.terms)
        _merge_into(terms, other.terms.items())
        return _symbol(self.dimension, terms)

    def __mul__(self, other: "SymbolPolynomial") -> "SymbolPolynomial":
        check_same_dimension(self.dimension, other.dimension)
        if len(self.terms) == 1 or len(other.terms) == 1:  # no two pairs share a key
            out = {}
            for (b1, g1), c1 in self.terms.items():
                for (b2, g2), c2 in other.terms.items():
                    out[b1 + b2, g1 + g2] = c1 * c2
            return _symbol(self.dimension, out)
        # Each key's contributions are summed as the integer fields
        # [re, im, den] of (re + im*i)/den (coefficients have radicand 1) and
        # canonicalized once.  A sum that reaches zero drops its key, and its
        # next contribution inserts the key again, last, as in ``_merge_into``.
        # A key is the term's exponents beta then gamma, packed into one int
        # (see _PACKED_EXPONENT_BOUND), so a product's key is one int add;
        # past the bound it is their 2n-component MultiIndex, whose + also
        # adds componentwise.
        n = self.dimension
        packed = max(map(max, chain(*self.terms, *other.terms)), default=0) < _PACKED_EXPONENT_BOUND
        fields = _KEY_FIELDS[n]

        def encode(beta, gamma):
            if packed:
                return int.from_bytes(fields.pack(*beta, *gamma), "little")
            return MultiIndex._wrap((*beta, *gamma))

        sums: Dict[object, list] = {}
        right = [(encode(b2, g2), c2.re_num, c2.im_num, c2.den) for (b2, g2), c2 in other.terms.items()]
        for (b1, g1), c1 in self.terms.items():
            k1, a1, i1, d1 = encode(b1, g1), c1.re_num, c1.im_num, c1.den
            for k2, a2, i2, d2 in right:
                key = k1 + k2
                re, im, den = a1 * a2 - i1 * i2, a1 * i2 + i1 * a2, d1 * d2
                acc = sums.get(key)
                if acc is None:  # the product of two nonzero coefficients is nonzero
                    sums[key] = [re, im, den]
                    continue
                g = gcd(acc[2], den)
                x, y = den // g, acc[2] // g
                acc[:] = acc[0] * x + re * y, acc[1] * x + im * y, acc[2] * x
                if not (acc[0] or acc[1]):
                    del sums[key]
        out = {}
        width = 16 * n
        for key, (re, im, den) in sums.items():
            exps = fields.unpack(key.to_bytes(width, "little")) if packed else key
            out[MultiIndex._wrap(exps[:n]), MultiIndex._wrap(exps[n:])] = _radical(re, im, den, 1)
        return _symbol(n, out)

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


# A product's term key packs the exponents beta, then gamma, into one
# integer, 64 bits per exponent: ``sum e_k << (64*k)`` over the 2n
# exponents (packed exponent vectors, as in Monagan and Pearce, CASC 2007).
# Two exponents below the bound sum below 2**64, so the key of a product of
# terms is the sum of their keys, no field carrying into the next.
_PACKED_EXPONENT_BOUND = 2**63
_KEY_FIELDS = [Struct(f"<{2 * n}Q") for n in range(MAX_DIMENSION + 1)]


def _as_index(index) -> MultiIndex:
    """``index`` as a ``MultiIndex``; a checked key that is one already is kept."""
    return index if type(index) is MultiIndex else MultiIndex(index)


def _symbol(dimension: int, terms: Dict[TermKey, RadicalCoefficient]) -> SymbolPolynomial:
    """The symbol with ``terms``, built from valid symbols' terms (internal):
    the checks of ``SymbolPolynomial(dimension, terms)`` are skipped."""
    s = object.__new__(SymbolPolynomial)
    s.dimension = dimension
    s.terms = terms
    s._action = None
    return s


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
        body = "i" if mag == 1 else f"{exact_text(mag)}*i"
        return sign, body
    sign = "+" if c.re >= 0 else "-"
    mag = abs(c.re)
    if has_monomial and mag == 1:
        return sign, ""
    return sign, exact_text(mag)


# ---------------------------------------------------------------------------
# parser
#
# One grammar and one scanner: ``parse_symbol`` starts at ``expr`` and
# ``operators.parse_operator`` at ``op``.  The two operator productions live in
# a ``_Parser`` subclass there, because this module cannot import the operator
# types.  ``_scan`` reads the token at a position of the text; ``_tokenize``,
# the list of them, runs only to raise a lexical error that ``_LEXICAL``, the
# check of the whole text, has found.  ``parse_expr`` matches each flat term
# (``_FLAT_TERM``) whole, and folds it in only when it ends at a term boundary
# and breaks no rule below; else ``parse_term`` reads it token by token and
# raises the error.  A syntax error carries its position in the whole text
# parsed.
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
# Each level is three frames of the recursive descent (``parse_expr``,
# ``parse_term``, ``parse_group``): the deepest text allowed takes about 300
# of Python's default limit of 1000 frames.
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


class _Token(NamedTuple):
    kind: str
    value: object
    pos: int


# The token at a position, past any whitespace (``\s`` is exactly
# ``str.isspace``): digits (ASCII 0-9 only: ``str.isdigit`` also accepts
# '²' and other scripts' digits), 'z' and its index digits, a name, an
# operator, or else one character that starts no token (none at the end).
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(z[0-9]*)|(conj|HP|T|i)|([-+*/^();])|(.?))", re.S)

# A text with no lexical error and no number too long for ``int()`` under
# any limit the interpreter allows (``sys.int_info``): ASCII whitespace and
# operators, letter runs that are exactly a name, and digit runs of at most
# str_digits_check_threshold digits.  Only such a text has its flat terms
# folded with ``int()``; any other is read token by token, each number by
# ``_read_int``.  A run of whitespace and operators
# ends where a name or digits start, and a name or a digit run is matched
# whole, so a text that fails backtracks over each character once.
_LEXICAL = re.compile(
    r"(?:[-+*/^();\t-\r\x1c- ]*(?:(?:conj|HP|T|i|z)(?![A-Za-z])|[0-9]{1,%d}(?![0-9])))*[-+*/^();\t-\r\x1c- ]*"
    % sys.int_info.str_digits_check_threshold
)


# Most digits of one number in the grammar: a bound of its own (the
# interpreter's default limit on int-string conversion), so a text is
# accepted or rejected the same under any limit the interpreter runs under.
MAX_NUMBER_DIGITS = 4300


def _read_int(text: str, i: int, j: int) -> int:
    if j - i > MAX_NUMBER_DIGITS:
        raise SymbolSyntaxError(f"number too long: more than MAX_NUMBER_DIGITS = {MAX_NUMBER_DIGITS} digits", text, i)
    return int_from_digits(text[i:j])


def _scan(text: str, i: int) -> "tuple[_Token, int]":
    """The token that starts at ``i`` or after the whitespace there, and
    the index just past it; a lexical error raises ``SymbolSyntaxError``."""
    m = _TOKEN.match(text, i)
    k = m.lastindex
    start, end = m.span(k)
    if k == 4:
        return tuple.__new__(_Token, (_T_OP, text[start], start)), end
    if k == 1:
        return tuple.__new__(_Token, (_T_INT, _read_int(text, start, end), start)), end
    if k == 5:
        if start == end:
            return tuple.__new__(_Token, (_T_END, None, start)), end
        if not text[start].isalpha():
            raise SymbolSyntaxError(f"unexpected character '{text[start]}'", text, start)
    # a name, a 'z' or another letter: its run of letters must be the name
    word_end = start + 1 if k == 2 else end
    letters = word_end
    while letters < len(text) and text[letters].isalpha():
        letters += 1
    if k == 5 or letters > word_end:
        raise SymbolSyntaxError(f"unknown name '{text[start:letters]}'", text, start)
    if k == 2:
        index = _read_int(text, word_end, end) if end > word_end else None
        return tuple.__new__(_Token, (_T_VAR, index, start)), end
    return tuple.__new__(_Token, (_NAMES[text[start:end]], text[start:end], start)), end


def _tokenize(text: str) -> "list[_Token]":
    """The tokens of ``text`` that ``_scan`` reads one after another, the
    last ``_T_END``; the first lexical error raises ``SymbolSyntaxError``."""
    tokens: "list[_Token]" = []
    i = 0
    while True:
        tok, i = _scan(text, i)
        tokens.append(tok)
        if tok.kind == _T_END:
            return tokens


# A factor of a flat term: z_j, conj(z_j), a, a/b, i or a Gaussian-integer
# constant (a+b*i), (a-b*i), (a+i) or (a-i), with an optional power.  "{g}"
# is "" in ``_FLAT_FACTOR``, whose groups are the factor's fields, and "?:"
# inside ``_FLAT_TERM``.
_FACTOR = (
    r"(?:({g}z[0-9]*)|conj\s*\(\s*({g}z[0-9]*)\s*\)|({g}[0-9]+)(?:\s*/\s*({g}[0-9]+))?|({g}i)"
    r"|\(\s*({g}[0-9]+)\s*({g}[-+])\s*(?:({g}[0-9]+)\s*\*\s*)?i\s*\))(?:\s*\^\s*({g}[0-9]+))?"
)
_FLAT_FACTOR = re.compile(_FACTOR.format(g=""))
# A flat term, group 1, that ends at a term boundary: the sign of the next
# term (group 2, read), ';' or ')' (not read) or the end of the text.
_FLAT_TERM = re.compile(r"\s*({0}(?:\s*\*\s*{0})*)\s*(?:([-+])|(?=[;)])|\Z)".format(_FACTOR.format(g="?:")))

# Per dimension n, the position in beta of each variable the flat-term
# fold reads: z1..zn, and bare 'z' at n = 1.  Any other spelling ('z' at
# n > 1, 'z0', 'z01', an index past n) leaves the term to the general path.
_VARIABLE_SLOTS = [{}] + [
    {f"z{j + 1}": j for j in range(n)} | ({"z": 0} if n == 1 else {}) for n in range(1, MAX_DIMENSION + 1)
]


class _Parser:
    """A recursive-descent parser over ``_scan``'s tokens: ``tok`` is the
    token at the cursor and ``end`` the index just past it."""

    def __init__(self, text: str, dimension: int):
        check_dimension(dimension)
        # flat terms fold with int(), so only a text whose numbers it reads
        # under any limit: one with a longer digit run is read by tokens
        self.fold = _LEXICAL.fullmatch(text) is not None
        if not self.fold:
            _tokenize(text)  # raises the text's first lexical error, if it has one
        self.text = text
        self.dimension = dimension
        self.tok, self.end = _scan(text, 0)
        self.depth = 0  # parentheses open in ``parse_group``

    def peek(self) -> _Token:
        return self.tok

    def next(self) -> _Token:
        tok = self.tok
        self.tok, self.end = _scan(self.text, self.end)
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != _T_OP or tok.value != op:
            raise SymbolSyntaxError(f"expected '{op}'", self.text, tok.pos)
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.tok
        return tok.kind == _T_OP and tok.value in ops

    def parse(self) -> SymbolPolynomial:
        poly = self.parse_expr()
        tail = self.peek()
        if tail.kind != _T_END:
            raise SymbolSyntaxError("trailing input after expression", self.text, tail.pos)
        return poly

    def parse_expr(self) -> SymbolPolynomial:
        """The sum of the terms, added one by one into one new dict.

        A flat term is read straight from the text (``fold_flat_term``),
        with the sign after it and no token, unless the text has a digit
        run too long for ``int()`` under some limit (``fold`` is False).
        Any other term is read token by token (``parse_term``), from the
        cursor moved to where it starts."""
        negate = self.at_op("-")
        if negate:
            self.next()
        acc: Dict[TermKey, RadicalCoefficient] = {}
        text, pos, fold = self.text, self.tok.pos, self.fold
        while True:
            m = _FLAT_TERM.match(text, pos) if fold else None
            if m is not None and self.fold_flat_term(m.span(1), acc, negate):
                sign, pos = m.group(2), m.end()
                if sign is not None:
                    negate = sign == "-"
                    continue
                self.tok, self.end = _scan(text, pos)
                return _symbol(self.dimension, acc)
            self.tok, self.end = _scan(text, pos)
            self.parse_term(acc, negate)
            if not self.at_op("+", "-"):
                return _symbol(self.dimension, acc)
            negate = self.next().value == "-"
            pos = self.tok.pos

    def fold_flat_term(self, span: "tuple[int, int]", acc: Dict[TermKey, RadicalCoefficient], negate: bool) -> bool:
        """Add the flat term at ``span`` of the text, negated if ``negate``,
        into the terms ``acc``, as ``parse_term`` would.

        Its factors fold into one monomial held as integers, the exponents
        of beta and gamma and the coefficient's fields (re + im*i)/den,
        canonicalized once.  Adds nothing and returns False when a factor
        breaks a rule of the grammar (an unknown variable, a zero
        denominator, a power past MAX_SYMBOL_DEGREE, a Gaussian constant's
        '(' past MAX_SYMBOL_NESTING): ``parse_term`` then raises the error.
        """
        n = self.dimension
        slots = _VARIABLE_SLOTS[n]
        exps = [0] * (2 * n)  # beta, then gamma
        re, im, den = (-1 if negate else 1), 0, 1
        for var, conj, num, denom, imag, g_re, g_sign, g_im, power in _FLAT_FACTOR.findall(self.text, *span):
            e = int(power) if power else 1
            if e > MAX_SYMBOL_DEGREE:
                return False
            if var:
                j = slots.get(var)
                if j is None:
                    return False
                exps[j] += e
            elif conj:
                j = slots.get(conj)
                if j is None:
                    return False
                exps[j + n] += e
            elif num:
                a = int(num) ** e
                if denom:
                    b = int(denom)
                    if not b:
                        return False
                    den *= b**e
                re, im = re * a, im * a
            elif imag:
                for _ in range(e % 4):
                    re, im = -im, re
            else:
                if self.depth == MAX_SYMBOL_NESTING:
                    return False
                a, b = int(g_re), (int(g_im) if g_im else 1)
                if g_sign == "-":
                    b = -b
                for _ in range(e):
                    re, im = re * a - im * b, re * b + im * a
        if re or im:
            key = (MultiIndex._wrap(exps[:n]), MultiIndex._wrap(exps[n:]))
            _merge_into(acc, ((key, _radical(re, im, den, 1)),))
        return True

    def check_product(self, left: int, right: int, tok: _Token) -> None:
        """Reject a product of a ``left``-term and a ``right``-term symbol,
        more than MAX_SYMBOL_TERMS term pairs, at ``tok``."""
        if left * right > MAX_SYMBOL_TERMS:
            message = f"product of {left} and {right} terms exceeds MAX_SYMBOL_TERMS = {MAX_SYMBOL_TERMS} term pairs"
            raise SymbolSyntaxError(message, self.text, tok.pos)

    def parse_term(self, acc: Dict[TermKey, RadicalCoefficient], negate: bool) -> None:
        """Add the term, negated if ``negate``, into the terms ``acc``.

        Every factor but a parenthesized one folds into one running
        monomial: a variable's exponent into the integers of beta or gamma,
        a number or ``i`` into the integer fields (re + im*i)/den of the
        coefficient.  The parenthesized factors are multiplied left to right
        into ``poly``, and the monomial multiplies their product once, at
        the end.  A product with a one-term symbol keeps the other's term
        order, so the terms come out in the order of multiplying the factors
        left to right.  The product bound is checked at each '*' with the
        term counts of that left-to-right product.
        """
        n = self.dimension
        exps = [0] * (2 * n)  # beta, then gamma
        re, im, den = (-1 if negate else 1), 0, 1
        poly: Optional[SymbolPolynomial] = None  # the parenthesized factors' product
        star: Optional[_Token] = None  # the '*' before the factor being read
        while True:
            # terms of the product so far, for the bound at the next '*'
            left = (1 if poly is None else len(poly.terms)) if re or im else 0
            tok = self.next()
            kind = tok.kind
            size = 1  # terms of this factor
            if kind == _T_VAR or kind == _T_CONJ:
                j = self.parse_variable(tok)
                exps[j] += self.parse_power(1, 1)
            elif kind == _T_INT:
                num, denom = tok.value, 1
                if self.at_op("/"):
                    self.next()
                    tok = self.next()
                    if tok.kind != _T_INT:
                        raise SymbolSyntaxError("expected denominator digits", self.text, tok.pos)
                    if tok.value == 0:
                        raise SymbolSyntaxError("zero denominator", self.text, tok.pos)
                    denom = tok.value
                e = self.parse_power(1, 1)
                num, denom = num**e, denom**e
                re, im, den, size = re * num, im * num, den * denom, 1 if num else 0
            elif kind == _T_IMAG:
                for _ in range(self.parse_power(1, 1) % 4):
                    re, im = -im, re
            elif kind == _T_OP and tok.value == "(":
                factor = self.parse_group(tok, bool(re or im))
                size = len(factor.terms)
            else:
                raise SymbolSyntaxError("expected a variable, number, 'i' or '('", self.text, tok.pos)
            if star is not None:
                self.check_product(left, size, star)
            if kind == _T_OP and (re or im):  # a zero term multiplies nothing more
                poly = factor if poly is None else poly * factor
            if not self.at_op("*"):
                break
            star = self.next()
        if re or im:
            c = _radical(re, im, den, 1)
            beta, gamma = MultiIndex._wrap(exps[:n]), MultiIndex._wrap(exps[n:])
            if poly is None:
                _merge_into(acc, (((beta, gamma), c),))
            else:
                _merge_into(acc, (((b + beta, g + gamma), a * c) for (b, g), a in poly.terms.items()))

    def parse_power(self, degree: int, k: int) -> int:
        """The exponent of a factor whose base has ``degree`` (at least 1)
        and ``k`` terms (at least 1); 1 without a '^'.  Both bounds are
        checked at the exponent, before the power is expanded."""
        if not self.at_op("^"):
            return 1
        self.next()
        tok = self.next()
        if tok.kind != _T_INT:
            raise SymbolSyntaxError("exponent must be a nonnegative integer", self.text, tok.pos)
        e: int = tok.value  # type: ignore[assignment]
        if degree * e > MAX_SYMBOL_DEGREE:
            message = f"degree {degree} * exponent {e} exceeds MAX_SYMBOL_DEGREE = {MAX_SYMBOL_DEGREE}"
            raise SymbolSyntaxError(message, self.text, tok.pos)
        if k > 1:  # a one-term base needs one term pair per product
            pairs = _power_pairs(k, e)
            if pairs > MAX_SYMBOL_TERMS:
                message = (
                    f"a {k}-term base to the power {e} needs {pairs} term pairs in one "
                    f"product, more than MAX_SYMBOL_TERMS = {MAX_SYMBOL_TERMS}"
                )
                raise SymbolSyntaxError(message, self.text, tok.pos)
        return e

    def parse_group(self, tok: _Token, expand: bool) -> SymbolPolynomial:
        """'(' expr ')' and its power, the '(' at ``tok`` already read.

        Without ``expand`` (the term's coefficient is already zero, so the
        factor multiplies nothing) the power's bounds are still checked,
        but the base is returned unexpanded."""
        if self.depth == MAX_SYMBOL_NESTING:
            message = f"more than MAX_SYMBOL_NESTING = {MAX_SYMBOL_NESTING} nested parentheses"
            raise SymbolSyntaxError(message, self.text, tok.pos)
        self.depth += 1
        base = self.parse_expr()
        self.expect_op(")")
        self.depth -= 1
        degree = max((b.order + g.order for b, g in base.terms), default=0) or 1
        e = self.parse_power(degree, max(len(base.terms), 1))
        return base**e if expand and e != 1 else base

    def parse_variable(self, tok: _Token) -> int:
        """The position in beta, then gamma, of ``z_j`` or ``conj(z_j)``, which starts at ``tok``."""
        conj = tok.kind == _T_CONJ
        if conj:
            self.expect_op("(")
            tok = self.next()
            if tok.kind != _T_VAR:
                raise SymbolSyntaxError("conj(...) takes a variable", self.text, tok.pos)
        index: Optional[int] = tok.value  # type: ignore[assignment]
        if index is None:
            if self.dimension != 1:
                raise SymbolSyntaxError("bare 'z' is only valid in dimension 1; use z1..zn", self.text, tok.pos)
            index = 1
        elif not 1 <= index <= self.dimension:
            raise SymbolSyntaxError(f"variable index {index} out of 1..{self.dimension}", self.text, tok.pos)
        if conj:
            self.expect_op(")")
        return index - 1 + (self.dimension if conj else 0)


def parse_symbol(text: str, dimension: int) -> SymbolPolynomial:
    """Parse a polynomial symbol in z1..zn (bare 'z' allowed when n=1)."""
    return _Parser(text, dimension).parse()
