"""Exact operator engine on the weighted entire-function Hilbert space.

The monomials ``z^alpha`` normalize to an orthonormal basis ``e_alpha``;
every operator here is represented by its exact action on finite linear
combinations of the ``e_alpha``.  Multiplication-then-projection by a
monomial symbol sends ``e_alpha`` to a single ``e_tau`` with a
coefficient of the form integer * sqrt(rational), which stays inside
the RadicalCoefficient closure, so compositions, Hankel-type products
and norms all evaluate exactly.

Hankel products are never materialized through the projection
complement; the product ``H*_f H_g`` is evaluated through the operator
identity ``T_{conj(f) g} - T_{conj(f)} T_g``, which holds with no
restriction on the input vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, Optional, Tuple

from .arith import (
    GAUSSIAN_ONE,
    FactorialRatio,
    MultiIndex,
    RADICAL_ONE,
    RADICAL_ZERO,
    RadicalCoefficient,
    rising_product,
)
from .errors import (
    DimensionMismatchError,
    InputError,
    SymbolSyntaxError,
    ValidityRangeError,
)
from .symbols import _T_END, _T_OPERATOR, SymbolPolynomial, _Parser


class SpaceParams:
    """Ambient dimension n >= 1 and integer weight order m >= 0.

    Immutable; its hash is computed once, since it is part of the
    ``_sqrt_transition`` cache key of every basis action.
    """

    __slots__ = ("n", "m", "_hash")

    def __init__(self, n: int, m: int):
        if n < 1:
            raise InputError("dimension n must be >= 1")
        if m < 0:
            raise InputError("weight order m must be >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_hash", hash((n, m)))

    def __setattr__(self, name, value):
        raise AttributeError(f"SpaceParams is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not SpaceParams:
            return NotImplemented
        return self.n == other.n and self.m == other.m

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SpaceParams(n={self.n!r}, m={self.m!r})"

    def __reduce__(self):
        return SpaceParams, (self.n, self.m)


# ---------------------------------------------------------------------------
# basis constants


def monomial_inner(a: MultiIndex, b: MultiIndex, sp: SpaceParams) -> Fraction:
    """Exact inner product <z^a, z^b> in the weighted space; 0 unless a == b."""
    if a.dimension != sp.n or b.dimension != sp.n:
        raise DimensionMismatchError("multi-index dimension must equal n")
    if a != b:
        return Fraction(0)
    ratio = FactorialRatio(
        numerator_terms=(*a, sp.n - 1, sp.m + sp.n - 1 + a.order),
        denominator_terms=(sp.m + sp.n - 1, sp.n - 1 + a.order),
    )
    return ratio.value()


def basis_coefficient(alpha: MultiIndex, sp: SpaceParams) -> RadicalCoefficient:
    """Normalizing constant of e_alpha: 1/sqrt(<z^alpha, z^alpha>)."""
    if alpha.dimension != sp.n:
        raise DimensionMismatchError("multi-index dimension must equal n")
    ratio = FactorialRatio(
        numerator_terms=(sp.m + sp.n - 1, sp.n - 1 + alpha.order),
        denominator_terms=(*alpha, sp.n - 1, sp.m + sp.n - 1 + alpha.order),
    )
    num, den = ratio.cancelled_factors()
    return RadicalCoefficient.from_sqrt_ratio(GAUSSIAN_ONE, num, den)


def _sqrt_transition_factors(alpha: MultiIndex, tau: MultiIndex, sp: SpaceParams):
    """Factor lists for the square-root factor shared by all basis actions.

    The radicand is
    alpha! (n-1+|alpha|)! (n-1+|tau|)! / (tau! (m+n-1+|alpha|)! (m+n-1+|tau|)!)
    and depends only on the source and target indices.
    """
    num: list = []
    den: list = []
    for a, t in zip(alpha, tau):
        if a > t:
            num.extend(range(t + 1, a + 1))
        elif t > a:
            den.extend(range(a + 1, t + 1))
    base_a = sp.n - 1 + sum(alpha)
    base_t = sp.n - 1 + sum(tau)
    den.extend(range(base_a + 1, base_a + sp.m + 1))
    den.extend(range(base_t + 1, base_t + sp.m + 1))
    return num, den


@lru_cache(maxsize=200_000)
def _sqrt_transition(alpha: MultiIndex, tau: MultiIndex, sp: SpaceParams) -> RadicalCoefficient:
    """Canonical sqrt factor for the source->target transition (cached)."""
    num, den = _sqrt_transition_factors(alpha, tau, sp)
    return RadicalCoefficient.from_sqrt_ratio(GAUSSIAN_ONE, num, den)


def toeplitz_mono_apply(
    beta: MultiIndex, gamma: MultiIndex, alpha: MultiIndex, sp: SpaceParams
) -> Optional[Tuple[MultiIndex, RadicalCoefficient]]:
    """Image of e_alpha under multiplication by z^beta conj(z)^gamma + projection.

    Returns ``(target, coefficient)``, or ``None`` when any component of
    ``alpha + beta - gamma`` is negative (the image is the zero vector).
    """
    n = sp.n
    if not (len(beta) == len(gamma) == len(alpha) == n):
        raise DimensionMismatchError("multi-index dimension must equal n")
    tau_comps = []
    for a, b, g in zip(alpha, beta, gamma):
        t = a + b - g
        if t < 0:
            return None
        tau_comps.append(t)
    tau = MultiIndex._wrap(tuple(tau_comps))
    rational = 1
    for a, b in zip(alpha, beta):
        if b:
            rational *= rising_product(a, b)
    if sp.m:
        rational *= rising_product(n - 1 + sum(alpha) + sum(beta), sp.m)
    coeff = _sqrt_transition(alpha, tau, sp)
    if rational != 1:
        coeff = coeff.scale(rational)
    return tau, coeff


# ---------------------------------------------------------------------------
# expansions


class BasisExpansion:
    """Finite vector sum(coeffs[alpha] * e_alpha); coefficients are nonzero."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: SpaceParams, coeffs: Dict[MultiIndex, RadicalCoefficient]):
        self.space = space
        self.coeffs = coeffs

    @staticmethod
    def zero(space: SpaceParams) -> "BasisExpansion":
        return BasisExpansion(space, {})

    @staticmethod
    def basis_vector(space: SpaceParams, alpha: MultiIndex) -> "BasisExpansion":
        alpha = MultiIndex(alpha)
        if alpha.dimension != space.n:
            raise DimensionMismatchError("multi-index dimension must equal n")
        return BasisExpansion(space, {alpha: RADICAL_ONE})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, alpha: MultiIndex) -> RadicalCoefficient:
        return self.coeffs.get(MultiIndex(alpha), RADICAL_ZERO)

    def squared_norm(self) -> Fraction:
        """Exact Parseval sum of |coefficient|^2 over the orthonormal basis."""
        num, den = 0, 1
        for c in self.coeffs.values():
            a, b, d = c.re_num, c.im_num, c.den
            term = (a * a + b * b) * c.radicand
            d *= d
            if d == den:
                num += term
            else:
                g = gcd(den, d)
                num = num * (d // g) + term * (den // g)
                den = den // g * d
        return Fraction(num, den)

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BasisExpansion)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{tuple(a)}: {c}" for a, c in self.sorted_items())
        return f"BasisExpansion(n={self.space.n}, m={self.space.m}, {{{inner}}})"


def _merge_into(out: Dict[MultiIndex, RadicalCoefficient], key: MultiIndex, value: RadicalCoefficient) -> None:
    prev = out.get(key)
    total = value if prev is None else prev + value
    if total.is_zero():
        out.pop(key, None)
    else:
        out[key] = total


def toeplitz_apply(f: SymbolPolynomial, v: BasisExpansion) -> BasisExpansion:
    """Apply the multiplication-projection operator with symbol f termwise.

    Contributions landing on one target from one source share their
    radicand by construction; unlike radicands on a merge would mean the
    input expansion mixed incompatible square classes and are rejected.
    """
    sp = v.space
    if f.dimension != sp.n:
        raise DimensionMismatchError(
            f"symbol dimension {f.dimension} does not match space dimension {sp.n}"
        )
    out: Dict[MultiIndex, RadicalCoefficient] = {}
    for alpha, c in v.coeffs.items():
        for (beta, gamma), a in f.terms.items():
            hit = toeplitz_mono_apply(beta, gamma, alpha, sp)
            if hit is None:
                continue
            tau, k = hit
            contrib = c * k
            if a.im_num or a.re_num != a.den:
                contrib = contrib.scale(a)
            _merge_into(out, tau, contrib)
    return BasisExpansion(sp, out)


def expansion_sub(u: BasisExpansion, v: BasisExpansion) -> BasisExpansion:
    if u.space != v.space:
        raise DimensionMismatchError("expansions live in different spaces")
    out = dict(u.coeffs)
    for key, c in v.coeffs.items():
        _merge_into(out, key, -c)
    return BasisExpansion(u.space, out)


def hankel_product_apply(
    f: SymbolPolynomial,
    g: SymbolPolynomial,
    v: BasisExpansion,
    *,
    f_conj: Optional[SymbolPolynomial] = None,
    f_conj_g: Optional[SymbolPolynomial] = None,
) -> BasisExpansion:
    """Exact H*_f H_g via T_{conj(f) g} - T_{conj(f)} T_g; valid for every v.

    ``f_conj`` = conj(f) and ``f_conj_g`` = conj(f) * g are built here
    unless the caller built them already (``HankelProductOp`` does, once).
    """
    if f_conj is None:
        f_conj = f.conjugate()
    if f_conj_g is None:
        f_conj_g = f_conj * g
    first = toeplitz_apply(f_conj_g, v)
    second = toeplitz_apply(f_conj, toeplitz_apply(g, v))
    return expansion_sub(first, second)


def hankel_coeff_closed_form(
    beta: MultiIndex,
    gamma: MultiIndex,
    mu: MultiIndex,
    nu: MultiIndex,
    alpha: MultiIndex,
    sp: SpaceParams,
) -> RadicalCoefficient:
    """Closed-form coefficient of H*_f H_g e_alpha for monomial symbols.

    Here f = z^beta conj(z)^gamma, g = z^mu conj(z)^nu, and the result is
    the coefficient on e_{alpha+gamma+mu-beta-nu}.  Requires
    alpha_j >= |gamma_j - beta_j| + |mu_j - nu_j| for every j; outside
    that range use hankel_product_apply, which has no restriction.
    The coefficient vanishes exactly when the bracket of the two
    composition routes cancels (for gamma = 0 or nu = 0 in particular).
    """
    n = sp.n
    if not (len(beta) == len(gamma) == len(mu) == len(nu) == len(alpha) == n):
        raise DimensionMismatchError("multi-index dimension must equal n")
    for a, b, g_, u, w in zip(alpha, beta, gamma, mu, nu):
        if a < abs(g_ - b) + abs(u - w):
            raise ValidityRangeError(
                "alpha outside the closed form's validity range; "
                "use the composition path"
            )
    m = sp.m
    tau = MultiIndex._wrap(
        tuple(a + g_ + u - b - w for a, b, g_, u, w in zip(alpha, beta, gamma, mu, nu))
    )

    # empty rising products (count 0) are 1 and skipped
    term1 = second = 1
    for a, g_, u, w in zip(alpha, gamma, mu, nu):
        if g_ or u:
            term1 *= rising_product(a, g_ + u)
        if u:
            second *= rising_product(a, u)
        if g_:
            second *= rising_product(a + u - w, g_)
    denom = 1
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
    return _sqrt_transition(alpha, tau, sp).scale_ratio(term1 * denom - second, denom)


def hankel_product_target(
    beta: MultiIndex, gamma: MultiIndex, mu: MultiIndex, nu: MultiIndex, alpha: MultiIndex
) -> Optional[MultiIndex]:
    """Target index alpha+gamma+mu-beta-nu, or None if any component is negative."""
    comps = []
    for a, b, g_, u, w in zip(alpha, beta, gamma, mu, nu):
        t = a + g_ + u - b - w
        if t < 0:
            return None
        comps.append(t)
    return MultiIndex(comps)


# ---------------------------------------------------------------------------
# operator expressions


class OperatorExpr:
    """Abstract operator expression; evaluated by apply_operator."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class ToeplitzOp(OperatorExpr):
    symbol: SymbolPolynomial

    @property
    def dimension(self) -> int:
        return self.symbol.dimension


@dataclass(frozen=True)
class HankelProductOp(OperatorExpr):
    """H*_left H_right for two polynomial symbols.

    ``left_conj`` = conj(left) and ``left_conj_right`` = conj(left) * right
    are built once, here, for every vector the operator is applied to.
    """

    left: SymbolPolynomial
    right: SymbolPolynomial
    left_conj: SymbolPolynomial = field(init=False, repr=False, compare=False)
    left_conj_right: SymbolPolynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.left.dimension != self.right.dimension:
            raise DimensionMismatchError("Hankel product symbols must share a dimension")
        fbar = self.left.conjugate()
        object.__setattr__(self, "left_conj", fbar)
        object.__setattr__(self, "left_conj_right", fbar * self.right)

    @property
    def dimension(self) -> int:
        return self.left.dimension


@dataclass(frozen=True)
class Composition(OperatorExpr):
    """Composition outer o inner: applies ``inner`` first."""

    outer: OperatorExpr
    inner: OperatorExpr

    def __post_init__(self):
        if self.outer.dimension != self.inner.dimension:
            raise DimensionMismatchError("composed operators must share a dimension")

    @property
    def dimension(self) -> int:
        return self.outer.dimension


def apply_operator(expr: OperatorExpr, v: BasisExpansion) -> BasisExpansion:
    if isinstance(expr, ToeplitzOp):
        return toeplitz_apply(expr.symbol, v)
    if isinstance(expr, HankelProductOp):
        return hankel_product_apply(
            expr.left, expr.right, v, f_conj=expr.left_conj, f_conj_g=expr.left_conj_right
        )
    if isinstance(expr, Composition):
        return apply_operator(expr.outer, apply_operator(expr.inner, v))
    raise TypeError(f"unknown operator expression: {expr!r}")


def matrix_entry(
    expr: OperatorExpr, alpha: MultiIndex, eta: MultiIndex, sp: SpaceParams
) -> RadicalCoefficient:
    """<expr e_alpha, e_eta> extracted from the exact expansion."""
    image = apply_operator(expr, BasisExpansion.basis_vector(sp, alpha))
    return image.coefficient(eta)


# ---------------------------------------------------------------------------
# operator productions of the grammar in symbols.py: T(<symbol>),
# HP(<symbol>; <symbol>), '*' composition


class _OperatorParser(_Parser):
    def parse(self) -> OperatorExpr:
        expr = self.parse_atom()
        while self.peek().kind != _T_END:
            self.expect_op("*")
            expr = Composition(expr, self.parse_atom())
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
            self.check_product(left, right, semicolon)  # HP(f; g) applies T_{conj(f) g}
            self.expect_op(")")
            return HankelProductOp(left, right)
        self.expect_op(")")
        return ToeplitzOp(left)


def parse_operator(text: str, dimension: int) -> OperatorExpr:
    """Parse an operator expression; '*' composes, the right factor applies first."""
    return _OperatorParser(text, dimension).parse()
