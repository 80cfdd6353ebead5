"""Boundedness/compactness classifiers and growth-rate analysis.

The classifiers are purely symbolic: they look only at term support
(constant? holomorphic? conjugate-linear tail in one variable?) and
return a verdict with the matched rule.  The growth-rate side samples
exact squared norms along rays ``alpha(t) = base + t*direction`` and
fits the amplitude exponent on a log-log scale, to be compared against
the Stirling-predicted rational exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arith import MultiIndex
from .errors import DimensionMismatchError, InputError, InternalInvariantError
from .operators import (
    BasisExpansion,
    Composition,
    HankelProductOp,
    OperatorExpr,
    SpaceParams,
    apply_operator,
    hankel_product_apply,
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
    """Classification outcome; ``bounded`` carries the queried property
    (boundedness, or compactness for the compactness question)."""

    bounded: bool
    matched_case: VerdictCase
    witness: Optional[str] = None

    def __post_init__(self):
        if _CASE_IS_BOUNDED[self.matched_case] != self.bounded:
            raise InternalInvariantError(
                f"case {self.matched_case} is inconsistent with bounded={self.bounded}"
            )


class SingleOperatorKind(Enum):
    TOEPLITZ = "toeplitz"
    HANKEL = "hankel"
    HANKEL_COMPACT = "hankel-compact"


def _verdict(case: VerdictCase, witness: Optional[str] = None) -> Verdict:
    return Verdict(_CASE_IS_BOUNDED[case], case, witness)


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
    """True iff p is a*conj(z) in dimension 1 (a may be zero: empty symbol)."""
    if p.dimension != 1:
        return False
    if p.is_zero():
        return True
    if len(p.terms) != 1:
        return False
    (beta, gamma), _ = next(iter(p.terms.items()))
    return beta == MultiIndex((0,)) and gamma == MultiIndex((1,))


def classify_toeplitz_product(f: SymbolPolynomial, g: SymbolPolynomial) -> Verdict:
    """Bounded iff both symbols are constants (zero symbols give the zero operator)."""
    if f.dimension != g.dimension:
        raise DimensionMismatchError("symbols must share a dimension")
    if f.is_zero() or g.is_zero():
        which = "f" if f.is_zero() else "g"
        return _verdict(VerdictCase.ZERO_OPERATOR, f"{which} = 0, so the product is the zero operator")
    if f.is_constant() and g.is_constant():
        return _verdict(VerdictCase.BOTH_CONSTANT, "both symbols are constants")
    bad = "f" if not f.is_constant() else "g"
    term = _first_nonconstant_term(f if bad == "f" else g)
    return _verdict(VerdictCase.NON_CONSTANT_SYMBOL, f"{bad} contains the nonconstant term {term}")


def classify_hankel_product(f: SymbolPolynomial, g: SymbolPolynomial) -> Verdict:
    """Bounded iff f or g is holomorphic, or n=1 with conjugate-linear remainders.

    The three rules overlap; the first matching one (in that order) is
    reported.
    """
    if f.dimension != g.dimension:
        raise DimensionMismatchError("symbols must share a dimension")
    _, f_rest = f.holomorphic_split()
    if f_rest.is_zero():
        return _verdict(VerdictCase.F_HOLOMORPHIC, "f is holomorphic, so its Hankel operator vanishes")
    _, g_rest = g.holomorphic_split()
    if g_rest.is_zero():
        return _verdict(VerdictCase.G_HOLOMORPHIC, "g is holomorphic, so its Hankel operator vanishes")
    if f.dimension == 1 and _is_conjugate_linear(f_rest) and _is_conjugate_linear(g_rest):
        return _verdict(
            VerdictCase.N1_CONJUGATE_LINEAR,
            "n=1 and both non-holomorphic parts are multiples of conj(z)",
        )
    if f.dimension == 1:
        bad = f_rest if not _is_conjugate_linear(f_rest) else g_rest
        which = "f" if bad is f_rest else "g"
        term = _first_bad_remainder_term(bad)
        return _verdict(
            VerdictCase.NON_HOLOMORPHIC_PAIR,
            f"{which} has non-holomorphic term {term} beyond a conj(z) multiple",
        )
    return _verdict(
        VerdictCase.NON_HOLOMORPHIC_PAIR,
        f"neither symbol is holomorphic and n={f.dimension} > 1 "
        f"(f: {_first_bad_remainder_term(f_rest)}, g: {_first_bad_remainder_term(g_rest)})",
    )


def classify_single(kind: SingleOperatorKind, f: SymbolPolynomial) -> Verdict:
    if kind is SingleOperatorKind.TOEPLITZ:
        if f.is_constant():
            return _verdict(VerdictCase.CONSTANT_SYMBOL, "constant symbols give bounded multiplication")
        return _verdict(
            VerdictCase.NON_CONSTANT_SYMBOL,
            f"f contains the nonconstant term {_first_nonconstant_term(f)}",
        )
    _, rest = f.holomorphic_split()
    if rest.is_zero():
        return _verdict(VerdictCase.HOLOMORPHIC, "f is holomorphic, so the Hankel operator vanishes")
    if kind is SingleOperatorKind.HANKEL:
        if f.dimension == 1 and _is_conjugate_linear(rest):
            return _verdict(VerdictCase.N1_CONJUGATE_LINEAR, "n=1 and f = holomorphic + a*conj(z)")
        return _verdict(
            VerdictCase.NON_HOLOMORPHIC_SYMBOL,
            f"f has non-holomorphic term {_first_bad_remainder_term(rest)}",
        )
    if kind is SingleOperatorKind.HANKEL_COMPACT:
        return _verdict(
            VerdictCase.NON_HOLOMORPHIC_SYMBOL,
            "f is not holomorphic, so the Hankel operator is not compact",
        )
    raise InputError(f"unknown operator kind {kind}")


# ---------------------------------------------------------------------------
# rays and exact norm sweeps


@dataclass(frozen=True)
class RaySpec:
    """Family alpha(t) = base + t*direction with strictly increasing t."""

    base: MultiIndex
    direction: MultiIndex
    t_values: Tuple[int, ...]

    def __post_init__(self):
        if self.base.dimension != self.direction.dimension:
            raise DimensionMismatchError("ray base and direction dimensions differ")
        if any(d < 1 for d in self.direction):
            raise InputError("ray direction components must be >= 1")
        ts = self.t_values
        if not ts or any(t <= 0 for t in ts) or any(a >= b for a, b in zip(ts, ts[1:])):
            raise InputError("t values must be strictly increasing positive integers")

    def alpha_at(self, t: int) -> MultiIndex:
        return self.base.scaled_add(t, self.direction)

    def alphas(self) -> List[MultiIndex]:
        return [self.alpha_at(t) for t in self.t_values]


def geometric_ts(lo: int = 64, hi: int = 4096, factor: int = 2) -> Tuple[int, ...]:
    if lo <= 0 or hi < lo or factor < 2:
        raise InputError("need 0 < lo <= hi and factor >= 2")
    out = []
    t = lo
    while t <= hi:
        out.append(t)
        t *= factor
    return tuple(out)


def hankel_validity_base(f: SymbolPolynomial, g: SymbolPolynomial) -> MultiIndex:
    """Smallest alpha admitted by the closed form for every term pair of (f, g)."""
    if f.dimension != g.dimension:
        raise DimensionMismatchError("symbols must share a dimension")
    dim = f.dimension
    comps = [0] * dim
    for beta, gamma in f.terms:
        for mu, nu in g.terms:
            for j in range(dim):
                need = abs(gamma[j] - beta[j]) + abs(mu[j] - nu[j])
                if need > comps[j]:
                    comps[j] = need
    return MultiIndex(comps)


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


def default_ray(expr: OperatorExpr, t_values: Optional[Sequence[int]] = None) -> RaySpec:
    ts = tuple(t_values) if t_values is not None else geometric_ts()
    return RaySpec(default_base(expr), MultiIndex.ones(expr.dimension), ts)


def norm_squared_samples(
    expr: OperatorExpr, ray: RaySpec, sp: SpaceParams, jobs: int = 1
) -> List[Tuple[int, Fraction]]:
    """Exact ||expr e_alpha(t)||^2 for each t, in t order.

    The t values are spread over up to ``jobs`` processes
    (``parallel.fan_out``); the result does not depend on ``jobs``.
    """
    if ray.base.dimension != sp.n:
        raise DimensionMismatchError("ray dimension must equal n")
    tasks = [(expr, sp, t, ray.alpha_at(t)) for t in ray.t_values]
    return fan_out(_norm_squared_at, tasks, jobs)


def _norm_squared_at(task) -> Tuple[int, Fraction]:
    expr, sp, t, alpha = task
    image = apply_operator(expr, BasisExpansion.basis_vector(sp, alpha))
    return t, image.squared_norm()


def hankel_vector_norm_sq(f: SymbolPolynomial, alpha: MultiIndex, sp: SpaceParams) -> Fraction:
    """Exact ||H_f e_alpha||^2 = <H*_f H_f e_alpha, e_alpha>."""
    image = hankel_product_apply(f, f, BasisExpansion.basis_vector(sp, alpha))
    c = image.coefficient(alpha)
    if c.is_zero():
        return Fraction(0)
    if c.radicand != 1 or c.im_num:
        raise InternalInvariantError(
            f"diagonal Hankel-product entry must be a real rational, got {c}"
        )
    return c.re


# ---------------------------------------------------------------------------
# Stirling-rate prediction and log-log fitting


class RateKind(Enum):
    TOEPLITZ_MONO_PRODUCT = "toeplitz-mono-product"
    HANKEL_MONO_PRODUCT = "hankel-mono-product"


@dataclass(frozen=True)
class PredictedRate:
    """Amplitude exponent along a componentwise-increasing ray.

    ``exponent`` is None exactly when ``degenerate`` is set (the leading
    asymptotic coefficient vanishes identically)."""

    exponent: Optional[Fraction]
    degenerate: bool


def predicted_exponent(
    kind: RateKind,
    exponents: Tuple[MultiIndex, MultiIndex, MultiIndex, MultiIndex],
    ray: Optional[RaySpec] = None,
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
    dim = a.dimension
    if not (b.dimension == c.dimension == d.dimension == dim):
        raise DimensionMismatchError("exponent multi-indices must share a dimension")
    if ray is not None and ray.base.dimension != dim:
        raise DimensionMismatchError("ray dimension must match the exponents")
    total = a.order + b.order + c.order + d.order
    if kind is RateKind.TOEPLITZ_MONO_PRODUCT:
        return PredictedRate(Fraction(total, 2), False)
    if kind is RateKind.HANKEL_MONO_PRODUCT:
        coupling = sum(x * y for x, y in zip(b, d))
        if coupling == 0:
            return PredictedRate(None, True)
        return PredictedRate(Fraction(total, 2) - 1, False)
    raise InputError(f"unknown rate kind {kind}")


@dataclass(frozen=True)
class ExponentReport:
    predicted_exponent: Optional[Fraction]
    fitted_exponent: Optional[float]
    residual: Optional[float]
    samples: Tuple[Tuple[int, Fraction], ...]
    degenerate: bool = False


def log_fraction(x: Fraction) -> float:
    """log of a positive rational, safe for huge numerators/denominators."""
    if x <= 0:
        raise ValueError("log_fraction needs a positive rational")
    return math.log(x.numerator) - math.log(x.denominator)


def fit_exponent(
    samples: Sequence[Tuple[int, Fraction]],
    predicted: Optional[Fraction] = None,
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
        return ExponentReport(predicted, None, None, samples, degenerate=True)
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
    return ExponentReport(predicted, slope, residual, samples)


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
