"""Test-side references: exact quantities the tests check the program
against, computed from the package's public operators, the per-term
radical Toeplitz action and the per-case Hankel closed form (each
formula stated apart from the engine's), the closed-form sweep's
per-case loop (one engine apply per alpha), the default ray of an
operator, its validity base over every term pair, the symbol tokenizer
and parser that multiply factor by factor, a float Toeplitz coefficient
from the oracle's quadrature, the recursive adaptive Simpson routine the
oracle's level walk must match bit for bit, and the earlier float
arithmetic of the Monte Carlo oracle."""

import math
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from fockop import verify
from fockop.analysis import RaySpec, default_base, geometric_ts, log_fraction
from fockop.arith import (
    RADICAL_ONE,
    MultiIndex,
    RadicalCoefficient,
    _radical,
    check_same_dimension,
    rising_product,
)
from fockop.errors import InputError, SymbolSyntaxError
from fockop.operators import (
    MAX_OPERATOR_FACTORS,
    BasisExpansion,
    Composition,
    HankelProductOp,
    OperatorExpr,
    SpaceParams,
    ToeplitzOp,
    _norm_ratio,
    closed_form_min_alpha,
    hankel_product_apply,
)
from fockop.oracle import (
    MAX_QUAD_DEPTH,
    _gamma_tail_bound,
    _quadrature_span,
    gamma_recurrence,
    quadrature_norm_sq,
)
from fockop.symbols import (
    _NAMES,
    _T_CONJ,
    _T_END,
    _T_IMAG,
    _T_INT,
    _T_OP,
    _T_OPERATOR,
    _T_VAR,
    MAX_SYMBOL_DEGREE,
    MAX_SYMBOL_NESTING,
    MAX_SYMBOL_TERMS,
    SymbolPolynomial,
    TermKey,
    _merge_into,
    _power_pairs,
    _read_int,
    _symbol,
    _Token,
    check_dimension,
)


def default_ray(expr: OperatorExpr, t_values: Optional[Sequence[int]] = None) -> RaySpec:
    """The ray from the operator's validity base along (1, ..., 1), at
    ``t_values`` (by default those of ``norms``' ``--t 64:4096:geometric``)."""
    ts = tuple(t_values) if t_values is not None else geometric_ts(64, 4096, 2)
    return RaySpec(default_base(expr), MultiIndex.ones(expr.dimension), ts)


def pairwise_validity_base(f: SymbolPolynomial, g: SymbolPolynomial) -> MultiIndex:
    """Smallest alpha admitted by the closed form for every term pair of
    (f, g): the componentwise max of ``closed_form_min_alpha`` over the pairs."""
    comps = [0] * f.dimension
    for beta, gamma in f.terms:
        for mu, nu in g.terms:
            comps = list(map(max, comps, closed_form_min_alpha(beta, gamma, mu, nu)))
    return MultiIndex(comps)


def symbol_from_terms(dimension: int, items) -> SymbolPolynomial:
    """The symbol the ``(key, coefficient)`` pairs ``items`` sum to, like
    terms merged and zero sums dropped, checked as ``SymbolPolynomial``
    checks its terms."""
    acc: Dict[TermKey, RadicalCoefficient] = {}
    _merge_into(acc, items)
    return SymbolPolynomial(dimension, acc)


def radical_to_complex(c: RadicalCoefficient) -> complex:
    """The float value of ``c``."""
    return complex(c.re_num / c.den, c.im_num / c.den) * math.sqrt(c.radicand)


def toeplitz_mono_reference(
    beta: MultiIndex, gamma: MultiIndex, alpha: MultiIndex, sp: SpaceParams
) -> Optional[Tuple[MultiIndex, RadicalCoefficient]]:
    """Image of e_alpha under the Toeplitz operator of z^beta conj(z)^gamma,
    on the orthonormal basis, one term at a time.

    Returns ``(target, coefficient)``, or ``None`` when any component of
    ``tau = alpha + beta - gamma`` is negative.  The coefficient
    ``||z^(alpha+beta)||^2 / (||z^alpha|| ||z^tau||)`` is the rational
    prod_j (a_j+1)...(a_j+b_j) * (A+|beta|+1)...(A+|beta|+m) / ((A+1)...(A+m)),
    A = n-1+|alpha|, times ``_norm_ratio(tau, alpha)`` = ||z^alpha||/||z^tau||:
    a rational that shares no factor with ``operators._add_image``'s.
    """
    n = sp.n
    if not (len(beta) == len(gamma) == len(alpha) == n):
        check_same_dimension(n, len(beta), len(gamma), len(alpha))
    tau = tuple(a + b - g for a, b, g in zip(alpha, beta, gamma))
    if min(tau) < 0:
        return None
    order = n - 1 + sum(alpha)
    rational = rising_product(order + sum(beta), sp.m)
    for a, b in zip(alpha, beta):
        rational *= rising_product(a, b)
    tau = MultiIndex(tau)
    return tau, _norm_ratio(tau, alpha, sp).scale_ratio(rational, rising_product(order, sp.m))


def closed_form_case_reference(
    beta: MultiIndex,
    gamma: MultiIndex,
    mu: MultiIndex,
    nu: MultiIndex,
    alpha: MultiIndex,
    sp: SpaceParams,
) -> Tuple[MultiIndex, RadicalCoefficient]:
    """Closed form of H*_f H_g e_alpha for f = z^beta conj(z)^gamma and
    g = z^mu conj(z)^nu, one case at a time, on the orthonormal basis:
    ``(target, coefficient)``, target = alpha+gamma+mu-beta-nu.

    The coefficient is ``||z^alpha||/||z^target||`` times the rational
    ``(term1*denom - second) / (denom*weight)`` of the two composition
    routes, each factor a rising product formed from the exponents: no
    factor is shared with ``operators._closed_form_monomial_coeffs``, which
    works in the monomial basis.  Requires alpha >=
    closed_form_min_alpha(beta, gamma, mu, nu) componentwise.
    """
    n = sp.n
    if not (len(beta) == len(gamma) == len(mu) == len(nu) == len(alpha) == n):
        check_same_dimension(n, len(beta), len(gamma), len(mu), len(nu), len(alpha))
    for a, k in zip(alpha, closed_form_min_alpha(beta, gamma, mu, nu)):
        if a < k:
            raise InputError("alpha outside the closed form's validity range; use the composition path")
    m = sp.m
    tau = MultiIndex(a + g_ + u - b - w for a, b, g_, u, w in zip(alpha, beta, gamma, mu, nu))
    # empty rising products (count 0) are 1 and skipped
    term1 = second = 1
    for a, g_, u, w in zip(alpha, gamma, mu, nu):
        if g_ or u:
            term1 *= rising_product(a, g_ + u)
        if u:
            second *= rising_product(a, u)
        if g_:
            second *= rising_product(a + u - w, g_)
    denom = weight = 1
    if m:
        order_a = sum(alpha)
        order_gm = order_a + sum(gamma) + sum(mu)
        term1 *= rising_product(n - 1 + order_gm, m)
        order_am = order_a + sum(mu)
        order_amn = order_am - sum(nu)
        order_agmn = order_amn + sum(gamma)
        second *= rising_product(n - 1 + order_am, m)
        second *= rising_product(n - 1 + order_agmn, m)
        denom = rising_product(n - 1 + order_amn, m)
        weight = rising_product(n - 1 + order_a, m)
    return tau, _norm_ratio(tau, alpha, sp).scale_ratio(term1 * denom - second, denom * weight)


def hankel_vector_norm_sq(f: SymbolPolynomial, alpha: MultiIndex, sp: SpaceParams) -> Fraction:
    """Exact ||H_f e_alpha||^2 = <H*_f H_f e_alpha, e_alpha>."""
    image = hankel_product_apply(f, f, BasisExpansion.basis_vector(sp, alpha))
    c = image.coefficient(alpha)
    if c.is_zero():
        return Fraction(0)
    assert c.radicand == 1 and not c.im_num, f"diagonal Hankel-product entry must be a real rational, got {c}"
    return c.re


def closed_form_sweep_block(task) -> verify.ClosedFormSweep:
    """``verify._sweep_block`` one case at a time: the engine's composition
    route ``hankel_product_apply`` runs on each tuple's whole symbols and
    each e_alpha alone, so a vanishing case (gamma = 0 or nu = 0) still
    runs the composition, and the target's coefficient is read with
    ``coefficient``; a case whose image holds any other monomial is stray
    support.  The closed form is ``closed_form_case_reference``, looked up
    on this module at each call, so a test can replace it here."""
    n, m, beta, max_component, max_alpha = task
    sp = SpaceParams(n, m)
    beta = MultiIndex(beta)
    exps = verify.indices_by_component(n, max_component)
    out = verify.ClosedFormSweep()

    def label() -> str:
        return (
            f"n={n} m={m} beta={tuple(beta)} gamma={tuple(gamma)} "
            f"mu={tuple(mu)} nu={tuple(nu)} alpha={tuple(alpha)}"
        )

    for gamma in exps:
        gamma_zero = gamma.order == 0
        f = SymbolPolynomial.monomial(n, beta, gamma)
        for mu in exps:
            for nu in exps:
                out.tuples += 1
                need = closed_form_min_alpha(beta, gamma, mu, nu)
                if max(need) > max_alpha:
                    continue
                expect_zero = gamma_zero or nu.order == 0
                degenerate = m == 0 and sum(x * y for x, y in zip(gamma, nu)) == 0
                g = SymbolPolynomial.monomial(n, mu, nu)
                for comps in product(*(range(k, max_alpha + 1) for k in need)):
                    alpha = MultiIndex(comps)
                    out.cases += 1
                    target, closed = closed_form_case_reference(beta, gamma, mu, nu, alpha, sp)
                    image = hankel_product_apply(f, g, BasisExpansion.basis_vector(sp, alpha))
                    comp = image.coefficient(target)
                    if closed != comp:
                        out.mismatches.append(f"{label()}: closed {closed} vs composition {comp}")
                    if len(image.monomials) > (0 if comp.is_zero() else 1):
                        out.stray_support.append(label())
                    if expect_zero:
                        if not closed.is_zero():
                            out.vanish_false_nonzero.append(label())
                    elif closed.is_zero():
                        if degenerate:
                            out.degenerate_zero_cases += 1
                        else:
                            out.vanish_false_zero_strict.append(label())
                    elif degenerate:
                        out.degenerate_nonzero.append(label())
    return out


def ratio_stabilization(
    samples: Sequence[Tuple[int, Fraction]], exponent: Fraction
) -> List[Tuple[int, float]]:
    """For every (t, 2t) pair present: ||.e_(2t)|| / (||.e_t|| * 2^exponent).

    Constants cancel in the ratio, so stabilization near 1 checks the
    exponent alone.
    """
    by_t = {t: v for t, v in samples}
    out = []
    for t, v in samples:
        w = by_t.get(2 * t)
        if w is None:
            continue
        if v == 0 or w == 0:
            continue
        log_ratio = 0.5 * (log_fraction(w) - log_fraction(v)) - float(exponent) * math.log(2.0)
        out.append((t, math.exp(log_ratio)))
    return out


def _basis_constant_sq(alpha: MultiIndex, sp: SpaceParams) -> float:
    """Squared normalizing constant of e_alpha, via the float Gamma path."""
    n, m = sp.n, sp.m
    num = gamma_recurrence(m + n) * gamma_recurrence(n + alpha.order)
    den = gamma_recurrence(n)
    for a in alpha:
        den *= gamma_recurrence(a + 1)
    den *= gamma_recurrence(m + n + alpha.order)
    return num / den


def oracle_toeplitz_coeff(beta: MultiIndex, gamma: MultiIndex, alpha: MultiIndex, sp: SpaceParams) -> float:
    """Float <T_{z^beta conj(z)^gamma} e_alpha, e_tau> with tau = alpha + beta - gamma
    (n = 1): the quadrature of ||z^(alpha + beta)||^2 times the normalizing
    constants of e_alpha and e_tau; 0.0 when a component of tau is negative."""
    comps = []
    for x, b_, g_ in zip(alpha, beta, gamma):
        t = x + b_ - g_
        if t < 0:
            return 0.0
        comps.append(t)
    tau = MultiIndex(comps)
    inner = quadrature_norm_sq(alpha + beta, sp)
    scale = math.sqrt(_basis_constant_sq(alpha, sp)) * math.sqrt(_basis_constant_sq(tau, sp))
    return inner * scale


def _simpson(a: float, fa: float, b: float, fb: float, fm: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a, fa, b, fb, fm, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0
    lv, le = _adaptive_simpson(f, a, fa, m, fm, flm, left, tol / 2.0, depth - 1)
    rv, re = _adaptive_simpson(f, m, fm, b, fb, frm, right, tol / 2.0, depth - 1)
    return lv + rv, le + re


def recursive_simpson(f, a: float, b: float, tol: float, depth: int) -> Tuple[float, float]:
    """(value, error estimate) of adaptive Simpson on [a, b], one Python call
    of ``f`` per point: what ``oracle._simpson_levels`` must return bit for bit."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(a, fa, b, fb, fm)
    return _adaptive_simpson(f, a, fa, b, fb, fm, whole, tol, depth)


def gamma_integrand(k: int):
    """u -> u**k * exp(-u) on one Python float."""

    def f(u: float) -> float:
        return u**k * math.exp(-u)

    return f


def recursive_gamma_integral_quadrature(k: int, rel_tol: float) -> Tuple[float, float]:
    """(value, absolute error bound) for int_0^inf u^k e^-u du by recursive
    adaptive Simpson to relative tolerance ``rel_tol``: at
    ``oracle.QUAD_REL_TOL``, the pair ``oracle.gamma_integral_quadrature``
    must return bit for bit."""
    scale, upper = _quadrature_span(k)
    value, err = recursive_simpson(gamma_integrand(k), 0.0, upper, rel_tol * scale, MAX_QUAD_DEPTH)
    return value, err + _gamma_tail_bound(k, upper)


def complex_product_mc_sums(a, b, m, weight, n, seed_seq, count, chunk):
    """Monte Carlo sums of one case ``(a, b, m, weight)`` in complex arithmetic.

    Each chunk of draws is made from a fresh generator seeded by
    ``seed_seq``; w = z^a conj(z)^b R^m * weight is formed as a complex
    product of complex powers (R = |z|^2), as the oracle did before it
    split w into a real modulus and a complex phase.  Returns
    ``(re, re^2, im, im^2)`` sums and ``(|w|, |w|^2)`` sums, which scale
    a rounding bound against the oracle's sums.
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    sums = np.zeros(4)
    abs_sums = np.zeros(2)
    done = 0
    while done < count:
        size = min(chunk, count - done)
        xy = rng.standard_normal((size, 2 * n)) * math.sqrt(0.5)
        z = xy[:, :n] + 1j * xy[:, n:]
        w = np.ones(size, dtype=np.complex128)
        for j in range(n):
            if a[j]:
                w *= z[:, j] ** a[j]
            if b[j]:
                w *= np.conj(z[:, j]) ** b[j]
        if m:
            w *= np.sum(xy * xy, axis=1) ** m
        w *= weight
        sums += [np.sum(w.real), np.sum(w.real**2), np.sum(w.imag), np.sum(w.imag**2)]
        abs_w = np.abs(w)
        abs_sums += [np.sum(abs_w), np.sum(abs_w**2)]
        done += size
    return sums, abs_sums


# ---------------------------------------------------------------------------
# The symbol grammar as it was parsed factor by factor: every factor a
# symbol, every '*' a product of symbols, every product summed term pair by
# term pair in ``RadicalCoefficient`` arithmetic.


def pairwise_product(a: SymbolPolynomial, b: SymbolPolynomial) -> SymbolPolynomial:
    """a * b, each term pair's product added to its key's sum as a
    ``RadicalCoefficient``; a sum that reaches zero drops its key, and a
    later contribution inserts it again, last."""
    acc: Dict[TermKey, RadicalCoefficient] = {}
    for (b1, g1), c1 in a.terms.items():
        for (b2, g2), c2 in b.terms.items():
            key = (b1 + b2, g1 + g2)
            c = c1 * c2
            prev = acc.get(key)
            total = c if prev is None else prev + c
            if total.is_zero():
                acc.pop(key, None)
            else:
                acc[key] = total
    return _symbol(a.dimension, acc)


def pairwise_power(base: SymbolPolynomial, exponent: int) -> SymbolPolynomial:
    """base ** exponent by repeated squaring with ``pairwise_product``."""
    if not exponent:
        return SymbolPolynomial.constant(base.dimension, RADICAL_ONE)
    while not exponent & 1:
        base = pairwise_product(base, base)
        exponent >>= 1
    out = base
    exponent >>= 1
    while exponent:
        base = pairwise_product(base, base)
        if exponent & 1:
            out = pairwise_product(out, base)
        exponent >>= 1
    return out


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def reference_tokenize(text: str) -> "list[_Token]":
    """The token list of ``text``, one character test at a time."""
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


class ReferenceParser:
    """The package's grammar with every factor parsed to a symbol: a
    variable or constant is a one-term symbol, a power is expanded by
    ``pairwise_power`` and each '*' multiplies by ``pairwise_product``.
    It shares no parser code with the package: the token cursor and the
    product bound are stated here too."""

    def __init__(self, text: str, dimension: int):
        check_dimension(dimension)
        self.text = text
        self.dimension = dimension
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.depth = 0
        self.zero = MultiIndex._wrap((0,) * dimension)

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

    def check_product(self, left: int, right: int, tok: _Token) -> None:
        """Reject a product of a ``left``-term and a ``right``-term symbol,
        more than MAX_SYMBOL_TERMS term pairs, at ``tok``."""
        if left * right > MAX_SYMBOL_TERMS:
            message = f"product of {left} and {right} terms exceeds MAX_SYMBOL_TERMS = {MAX_SYMBOL_TERMS} term pairs"
            raise SymbolSyntaxError(message, self.text, tok.pos)

    def parse_expr(self) -> SymbolPolynomial:
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

    def parse_term(self) -> SymbolPolynomial:
        poly = self.parse_factor()
        while self.at_op("*"):
            tok = self.next()
            rhs = self.parse_factor()
            self.check_product(len(poly.terms), len(rhs.terms), tok)
            poly = pairwise_product(poly, rhs)
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
            return pairwise_power(base, tok.value)
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
            return self.constant(_radical(0, 1, 1, 1))
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

    def constant(self, value: RadicalCoefficient) -> SymbolPolynomial:
        if value.is_zero():
            return _symbol(self.dimension, {})
        return _symbol(self.dimension, {(self.zero, self.zero): value})

    def variable(self, j: int, conj: bool) -> SymbolPolynomial:
        zero = self.zero
        unit = MultiIndex._wrap(zero[:j] + (1,) + zero[j + 1 :])
        return _symbol(self.dimension, {(zero, unit) if conj else (unit, zero): RADICAL_ONE})


class ReferenceOperatorParser(ReferenceParser):
    """The package's operator productions on top of ``ReferenceParser``."""

    def parse(self) -> OperatorExpr:
        expr = self.parse_atom()
        factors = 1
        while self.peek().kind != _T_END:
            star = self.expect_op("*")
            if factors == MAX_OPERATOR_FACTORS:
                message = f"more than MAX_OPERATOR_FACTORS = {MAX_OPERATOR_FACTORS} composed factors"
                raise SymbolSyntaxError(message, self.text, star.pos)
            expr = Composition(expr, self.parse_atom())
            factors += 1
        return expr

    def parse_atom(self) -> OperatorExpr:
        tok = self.next()
        if tok.kind != _T_OPERATOR:
            raise SymbolSyntaxError("expected T(...) or HP(...; ...)", self.text, tok.pos)
        self.expect_op("(")
        left = self.parse_expr()
        if tok.value == "HP":
            semicolon = self.expect_op(";")
            right = self.parse_expr()
            self.check_product(len(left.terms), len(right.terms), semicolon)  # HP(f; g) applies T_{conj(f) g}
            self.expect_op(")")
            return HankelProductOp(left, right)
        self.expect_op(")")
        return ToeplitzOp(left)


def reference_parse_symbol(text: str, dimension: int) -> SymbolPolynomial:
    return ReferenceParser(text, dimension).parse()


def reference_parse_operator(text: str, dimension: int) -> OperatorExpr:
    return ReferenceOperatorParser(text, dimension).parse()
