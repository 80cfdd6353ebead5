"""Boundedness/compactness classifiers and growth-rate analysis.

The classifiers are purely symbolic: they look only at term support
(constant? holomorphic? conjugate-linear tail in one variable?) and
return a verdict with the matched rule.  The growth-rate side samples
exact squared norms along rays ``alpha(t) = base + t*direction`` and
fits the amplitude exponent on a log-log scale; the caller compares the
fit with the Stirling-predicted rational exponent (``predicted_exponent``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import add, sub
from typing import List, Optional, Sequence, Tuple

from .arith import MultiIndex, check_same_dimension
from .errors import InputError, InternalInvariantError
from .operators import (
    BasisExpansion,
    Composition,
    HankelProductOp,
    OperatorExpr,
    SpaceParams,
    apply_operator,
)
from .parallel import fan_out
from .symbols import SymbolPolynomial, _monomial_text


# ---------------------------------------------------------------------------
# verdicts


class VerdictCase(Enum):
    ZERO_OPERATOR = "ZeroOperator"
    BOTH_CONSTANT = "BothConstant"
    CONSTANT_SYMBOL = "ConstantSymbol"
    NON_CONSTANT_SYMBOL = "NonConstantSymbol"
    F_HOLOMORPHIC = "FHolomorphic"
    G_HOLOMORPHIC = "GHolomorphic"
    N1_CONJUGATE_LINEAR = "N1ConjugateLinear"
    HOLOMORPHIC = "Holomorphic"
    NON_HOLOMORPHIC_PAIR = "NonHolomorphicPair"
    NON_HOLOMORPHIC_SYMBOL = "NonHolomorphicSymbol"


_CASE_IS_BOUNDED = {
    VerdictCase.ZERO_OPERATOR: True,
    VerdictCase.BOTH_CONSTANT: True,
    VerdictCase.CONSTANT_SYMBOL: True,
    VerdictCase.NON_CONSTANT_SYMBOL: False,
    VerdictCase.F_HOLOMORPHIC: True,
    VerdictCase.G_HOLOMORPHIC: True,
    VerdictCase.N1_CONJUGATE_LINEAR: True,
    VerdictCase.HOLOMORPHIC: True,
    VerdictCase.NON_HOLOMORPHIC_PAIR: False,
    VerdictCase.NON_HOLOMORPHIC_SYMBOL: False,
}


@dataclass(frozen=True)
class Verdict:
    """Classification outcome: the matched case and its witness text."""

    matched_case: VerdictCase
    witness: Optional[str] = None

    @property
    def bounded(self) -> bool:
        """The queried property (boundedness, or compactness for the
        compactness question), which the case decides."""
        return _CASE_IS_BOUNDED[self.matched_case]


class SingleOperatorKind(Enum):
    TOEPLITZ = "toeplitz"
    HANKEL = "hankel"
    HANKEL_COMPACT = "hankel-compact"


def _first_nonconstant_term(p: SymbolPolynomial) -> str:
    for (beta, gamma), _ in p.sorted_terms():
        if beta.order or gamma.order:
            return _monomial_text(beta, gamma, p.dimension)
    raise InternalInvariantError("no nonconstant term in a nonconstant symbol")


def _first_bad_remainder_term(p: SymbolPolynomial) -> str:
    """A remainder term other than the plain conjugate-linear one."""
    unit = (MultiIndex.zero(p.dimension), MultiIndex.ones(p.dimension)) if p.dimension == 1 else None
    for (beta, gamma), _ in p.sorted_terms():
        if gamma.order and (beta, gamma) != unit:
            return _monomial_text(beta, gamma, p.dimension)
    raise InternalInvariantError("no offending term found")


def _is_conjugate_linear(p: SymbolPolynomial) -> bool:
    """True iff the nonzero n=1 symbol p is a*conj(z)."""
    return list(p.terms) == [(MultiIndex((0,)), MultiIndex((1,)))]


def classify_toeplitz_product(f: SymbolPolynomial, g: SymbolPolynomial) -> Verdict:
    """Bounded iff both symbols are constants (zero symbols give the zero operator)."""
    check_same_dimension(f.dimension, g.dimension)
    if f.is_zero() or g.is_zero():
        which = "f" if f.is_zero() else "g"
        return Verdict(VerdictCase.ZERO_OPERATOR, f"{which} = 0, so the product is the zero operator")
    if f.is_constant() and g.is_constant():
        return Verdict(VerdictCase.BOTH_CONSTANT, "both symbols are constants")
    bad = "f" if not f.is_constant() else "g"
    term = _first_nonconstant_term(f if bad == "f" else g)
    return Verdict(VerdictCase.NON_CONSTANT_SYMBOL, f"{bad} contains the nonconstant term {term}")


def classify_hankel_product(f: SymbolPolynomial, g: SymbolPolynomial) -> Verdict:
    """Bounded iff f or g is holomorphic, or n=1 with conjugate-linear remainders.

    The three rules overlap; the first matching one (in that order) is
    reported.
    """
    check_same_dimension(f.dimension, g.dimension)
    _, f_rest = f.holomorphic_split()
    if f_rest.is_zero():
        return Verdict(VerdictCase.F_HOLOMORPHIC, "f is holomorphic, so its Hankel operator vanishes")
    _, g_rest = g.holomorphic_split()
    if g_rest.is_zero():
        return Verdict(VerdictCase.G_HOLOMORPHIC, "g is holomorphic, so its Hankel operator vanishes")
    if f.dimension == 1 and _is_conjugate_linear(f_rest) and _is_conjugate_linear(g_rest):
        return Verdict(
            VerdictCase.N1_CONJUGATE_LINEAR,
            "n=1 and both non-holomorphic parts are multiples of conj(z)",
        )
    if f.dimension == 1:
        bad = f_rest if not _is_conjugate_linear(f_rest) else g_rest
        which = "f" if bad is f_rest else "g"
        term = _first_bad_remainder_term(bad)
        return Verdict(
            VerdictCase.NON_HOLOMORPHIC_PAIR,
            f"{which} has non-holomorphic term {term} beyond a conj(z) multiple",
        )
    return Verdict(
        VerdictCase.NON_HOLOMORPHIC_PAIR,
        f"neither symbol is holomorphic and n={f.dimension} > 1 "
        f"(f: {_first_bad_remainder_term(f_rest)}, g: {_first_bad_remainder_term(g_rest)})",
    )


def classify_single(kind: SingleOperatorKind, f: SymbolPolynomial) -> Verdict:
    if kind is SingleOperatorKind.TOEPLITZ:
        if f.is_constant():
            return Verdict(VerdictCase.CONSTANT_SYMBOL, "constant symbols give bounded multiplication")
        return Verdict(
            VerdictCase.NON_CONSTANT_SYMBOL,
            f"f contains the nonconstant term {_first_nonconstant_term(f)}",
        )
    _, rest = f.holomorphic_split()
    if rest.is_zero():
        return Verdict(VerdictCase.HOLOMORPHIC, "f is holomorphic, so the Hankel operator vanishes")
    if kind is SingleOperatorKind.HANKEL:
        if f.dimension == 1 and _is_conjugate_linear(rest):
            return Verdict(VerdictCase.N1_CONJUGATE_LINEAR, "n=1 and f = holomorphic + a*conj(z)")
        return Verdict(
            VerdictCase.NON_HOLOMORPHIC_SYMBOL,
            f"f has non-holomorphic term {_first_bad_remainder_term(rest)}",
        )
    if kind is SingleOperatorKind.HANKEL_COMPACT:
        return Verdict(
            VerdictCase.NON_HOLOMORPHIC_SYMBOL,
            "f is not holomorphic, so the Hankel operator is not compact",
        )
    raise InternalInvariantError(f"unknown operator kind {kind}")


# ---------------------------------------------------------------------------
# rays and exact norm sweeps


@dataclass(frozen=True)
class RaySpec:
    """Family alpha(t) = base + t*direction with strictly increasing t."""

    base: MultiIndex
    direction: MultiIndex
    t_values: Tuple[int, ...]

    def __post_init__(self):
        check_same_dimension(self.base.dimension, self.direction.dimension)
        if any(d < 1 for d in self.direction):
            raise InputError("ray direction components must be >= 1")
        ts = self.t_values
        if not ts or any(t <= 0 for t in ts) or any(a >= b for a, b in zip(ts, ts[1:])):
            raise InputError("t values must be strictly increasing positive integers")

    def alpha_at(self, t: int) -> MultiIndex:
        return self.base.scaled_add(t, self.direction)


def geometric_ts(lo: int, hi: int, factor: int) -> Tuple[int, ...]:
    """lo, lo*factor, lo*factor^2, ... up to hi."""
    if lo <= 0 or hi < lo or factor < 2:
        raise InputError("need 0 < lo <= hi and factor >= 2")
    out = []
    t = lo
    while t <= hi:
        out.append(t)
        t *= factor
    return tuple(out)


def hankel_validity_base(f: SymbolPolynomial, g: SymbolPolynomial) -> MultiIndex:
    """Smallest alpha admitted by the closed form for every term pair of (f, g).

    A pair of terms z^beta conj(z)^gamma of f and z^mu conj(z)^nu of g
    needs alpha_j >= |gamma_j - beta_j| + |mu_j - nu_j|
    (``closed_form_min_alpha``); the largest over the pairs is the largest
    first part over f's terms plus the largest second part over g's.  With
    no pair (f or g zero) it is the zero index.
    """
    check_same_dimension(f.dimension, g.dimension)
    if not (f.terms and g.terms):
        return MultiIndex.zero(f.dimension)
    return MultiIndex(map(add, _widest_gaps(f), _widest_gaps(g)))


def _widest_gaps(p: SymbolPolynomial) -> "list[int]":
    """Componentwise max of |gamma - beta| over the terms of p."""
    comps = [0] * p.dimension
    for beta, gamma in p.terms:
        comps = list(map(max, comps, map(abs, map(sub, gamma, beta))))
    return comps


def default_base(expr: OperatorExpr) -> MultiIndex:
    """Componentwise max of the validity bases of all Hankel-product nodes."""
    dim = expr.dimension
    comps = [0] * dim

    def walk(node: OperatorExpr) -> None:
        if isinstance(node, HankelProductOp):
            b = hankel_validity_base(node.left, node.right)
            for j in range(dim):
                comps[j] = max(comps[j], b[j])
        elif isinstance(node, Composition):
            walk(node.outer)
            walk(node.inner)

    walk(expr)
    return MultiIndex(comps)


def norm_squared_samples(
    expr: OperatorExpr, ray: RaySpec, sp: SpaceParams, jobs: int = 1
) -> List[Tuple[int, Fraction]]:
    """Exact ||expr e_alpha(t)||^2 for each t, in t order.

    The t values are spread over up to ``jobs`` processes
    (``parallel.fan_out``); the result does not depend on ``jobs``.
    """
    check_same_dimension(sp.n, ray.base.dimension)
    tasks = [(expr, sp, t, ray.alpha_at(t)) for t in ray.t_values]
    return fan_out(_norm_squared_at, tasks, jobs)


def _norm_squared_at(task) -> Tuple[int, Fraction]:
    expr, sp, t, alpha = task
    image = apply_operator(expr, BasisExpansion.basis_vector(sp, alpha))
    return t, image.squared_norm()


# ---------------------------------------------------------------------------
# Stirling-rate prediction and log-log fitting


class RateKind(Enum):
    TOEPLITZ_MONO_PRODUCT = "toeplitz-mono-product"
    HANKEL_MONO_PRODUCT = "hankel-mono-product"


@dataclass(frozen=True)
class PredictedRate:
    """Amplitude exponent along a componentwise-increasing ray; None when
    the leading asymptotic coefficient vanishes identically."""

    exponent: Optional[Fraction]

    @property
    def degenerate(self) -> bool:
        return self.exponent is None


def predicted_exponent(
    kind: RateKind,
    exponents: Tuple[MultiIndex, MultiIndex, MultiIndex, MultiIndex],
) -> PredictedRate:
    """Predicted growth exponent of the coefficient amplitude in t.

    For a composition of two monomial multiplication-projection operators
    the amplitude grows like t^(|sum of the four exponents|/2); for a
    monomial Hankel product the leading coefficient carries an extra
    1/alpha_j factor, lowering the exponent by one.  Every ray direction
    has components >= 1, so each alpha_j(t) is linear in t and the
    per-component log-slope is 1.
    """
    a, b, c, d = exponents
    check_same_dimension(a.dimension, b.dimension, c.dimension, d.dimension)
    total = a.order + b.order + c.order + d.order
    if kind is RateKind.TOEPLITZ_MONO_PRODUCT:
        return PredictedRate(Fraction(total, 2))
    if kind is RateKind.HANKEL_MONO_PRODUCT:
        coupling = sum(x * y for x, y in zip(b, d))
        if coupling == 0:
            return PredictedRate(None)
        return PredictedRate(Fraction(total, 2) - 1)
    raise InternalInvariantError(f"unknown rate kind {kind}")


@dataclass(frozen=True)
class ExponentReport:
    """A fit; ``fitted_exponent`` and ``residual`` are None for a degenerate
    ray, one with a zero norm."""

    fitted_exponent: Optional[float]
    residual: Optional[float]

    @property
    def degenerate(self) -> bool:
        return self.fitted_exponent is None


def log_fraction(x: Fraction) -> float:
    """log of a positive rational, safe for huge numerators/denominators."""
    if x <= 0:
        raise InputError("log_fraction needs a positive rational")
    return math.log(x.numerator) - math.log(x.denominator)


def fit_exponent(
    samples: Sequence[Tuple[int, Fraction]],
) -> ExponentReport:
    """Least-squares amplitude exponent from (t, squared norm) samples.

    The fit runs on (log t, 1/2 log ||.||^2); the residual is the largest
    relative deviation of the sampled amplitudes from the fitted power
    law.  A zero norm anywhere means the operator annihilates the ray;
    that is reported as a degenerate fit rather than an exponent.
    """
    samples = tuple((int(t), Fraction(v)) for t, v in samples)
    if len(samples) < 4:
        raise InputError("need at least 4 samples to fit an exponent")
    ts = [t for t, _ in samples]
    if any(t <= 0 for t in ts) or any(x >= y for x, y in zip(ts, ts[1:])):
        raise InputError("sample t values must be strictly increasing and positive")
    if any(v < 0 for _, v in samples):
        raise InputError("squared norms cannot be negative")
    if any(v == 0 for _, v in samples):
        return ExponentReport(None, None)
    xs = [math.log(t) for t, _ in samples]
    ys = [0.5 * log_fraction(v) for _, v in samples]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = max(
        abs(math.exp(y - (intercept + slope * x)) - 1.0) for x, y in zip(xs, ys)
    )
    return ExponentReport(slope, residual)
