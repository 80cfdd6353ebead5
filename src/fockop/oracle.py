"""Independent floating-point verification of the exact engine.

Nothing here touches the exact big-integer/rational code paths: inner
products come from adaptive quadrature of the radial integral (n = 1),
from float Gamma-function recurrences grown out of Gamma(1) = 1, or
from seeded importance-sampled Monte Carlo against the standard complex
Gaussian (n >= 2).  Agreement of these routes with the exact engine is
the point; sharing code with it would verify nothing.

Monte Carlo cases of one dimension share their draws (common random
numbers): each chunk of samples is drawn once and every case is
evaluated on it, so a case's estimate is the same whether it is asked
for alone or with others.  Quadratures are memoized per (k, tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .arith import MultiIndex
from .errors import DimensionMismatchError, InputError
from .operators import SpaceParams


class OracleMethod(Enum):
    RADIAL_QUADRATURE = "radial-quadrature"
    GAMMA_IDENTITY = "gamma-identity"
    MONTE_CARLO = "monte-carlo"


DEFAULT_SEED = 20417


@dataclass(frozen=True)
class OracleConfig:
    seed: int = DEFAULT_SEED
    samples: int = 200_000
    quad_tol: float = 1e-13
    workers: int = 1
    chunk: int = 1 << 18


@dataclass(frozen=True)
class OracleEstimate:
    value: float
    method: OracleMethod
    error_bound: Optional[float] = None
    standard_error: Optional[float] = None
    samples: Optional[int] = None
    imag_value: Optional[float] = None
    imag_standard_error: Optional[float] = None


# ---------------------------------------------------------------------------
# float Gamma recurrence (integer arguments only)


def gamma_recurrence(k: int) -> float:
    """Gamma(k) for integer k >= 1 via the recurrence from Gamma(1) = 1."""
    if k < 1:
        raise InputError("gamma_recurrence needs k >= 1")
    out = 1.0
    for i in range(1, k):
        out *= i
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


# ---------------------------------------------------------------------------
# adaptive quadrature of int_0^inf u^k e^-u du


def _gamma_tail_bound(k: int, upper: float) -> float:
    """Upper bound for int_upper^inf u^k e^-u du, valid for upper > k."""
    if upper <= k:
        return math.inf
    return upper**k * math.exp(-upper) / (1.0 - k / upper)


def _simpson(f, a: float, fa: float, b: float, fb: float, fm: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a, fa, b, fb, fm, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, flm)
    right = _simpson(f, m, fm, b, fb, frm)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0
    lv, le = _adaptive_simpson(f, a, fa, m, fm, flm, left, tol / 2.0, depth - 1)
    rv, re = _adaptive_simpson(f, m, fm, b, fb, frm, right, tol / 2.0, depth - 1)
    return lv + rv, le + re


# Smallest relative tolerance ``gamma_integral_quadrature`` accepts.  Below
# float64 resolution adaptive Simpson never meets it and subdivides to its
# depth limit, 2^48 panels.
MIN_QUAD_TOL = 1e-15

# Integrals kept by ``gamma_integral_quadrature``; one n=1 check needs
# max_order + max(m) + 1 of them (14 for the default orders 0..10, m 0..3).
QUADRATURE_CACHE_SIZE = 256


# Largest k = |a| + m of an n = 1 oracle check.  Beyond it float64
# overflows: the Gamma route's a! (m+a)! at m = 0 from k = 99, and the
# quadrature's tail bound upper**k from k = 115.
MAX_QUAD_ORDER = 98


@lru_cache(maxsize=QUADRATURE_CACHE_SIZE)
def gamma_integral_quadrature(k: int, rel_tol: float = 1e-13) -> Tuple[float, float]:
    """(value, absolute error bound) for int_0^inf u^k e^-u du."""
    if not 0 <= k <= MAX_QUAD_ORDER:
        raise InputError(f"quadrature order k must be in 0..{MAX_QUAD_ORDER}, got {k}")
    if not MIN_QUAD_TOL <= rel_tol < math.inf:
        raise InputError(f"quadrature tolerance must be finite and >= {MIN_QUAD_TOL}, got {rel_tol}")

    def f(u: float) -> float:
        return u**k * math.exp(-u)

    # crude scale for absolute tolerances (Stirling; only used for scaling)
    scale = math.sqrt(2.0 * math.pi * k) * (k / math.e) ** k if k > 0 else 1.0
    upper = float(max(4 * k + 40, 60))
    while _gamma_tail_bound(k, upper) > 1e-16 * scale:
        upper *= 2.0
    a, b = 0.0, upper
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(f, a, fa, b, fb, fm)
    value, err = _adaptive_simpson(f, a, fa, b, fb, fm, whole, rel_tol * scale, 48)
    return value, err + _gamma_tail_bound(k, upper)


# ---------------------------------------------------------------------------
# Monte Carlo with importance sampling from the standard complex Gaussian


@dataclass(frozen=True)
class MonteCarloBatch:
    """Estimates for several cases of one dimension n, in case order, all
    taken from the same draws."""

    estimates: Tuple[OracleEstimate, ...]

    @property
    def samples(self) -> int:
        """Samples summed over the cases (each case is evaluated on every draw)."""
        return sum(est.samples for est in self.estimates)


def _mc_worker(cases, n: int, seed_seq: "np.random.SeedSequence", count: int, chunk: int):
    """Sums (re, re^2, im, im^2) per case over ``count`` draws.

    Each chunk of at most ``chunk`` draws is made once and every case
    ``(a, b, m, weight)`` is evaluated on it.  Cases with the same (a, b)
    share the product z^a conj(z)^b, which m and the weight only scale;
    each case still takes the same float operations in the same order,
    whichever cases share its chunk.
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    orders = sorted({m for _, _, m, _ in cases if m})
    groups = {}  # (a, b) -> [(case row, m, weight)]
    for row, (a, b, m, weight) in enumerate(cases):
        groups.setdefault((a, b), []).append((row, m, weight))
    sums = np.zeros((len(cases), 4))
    done = 0
    while done < count:
        size = min(chunk, count - done)
        xy = rng.standard_normal((size, 2 * n)) * math.sqrt(0.5)
        z = xy[:, :n] + 1j * xy[:, n:]
        if orders:
            r2 = np.sum(xy * xy, axis=1)
            radial = {m: r2**m for m in orders}
            del r2
        del xy
        for (a, b), members in groups.items():
            angular = np.ones(size, dtype=np.complex128)
            for j in range(n):
                if a[j]:
                    angular *= z[:, j] ** a[j]
                if b[j]:
                    angular *= np.conj(z[:, j]) ** b[j]
            for row, m, weight in members:
                w = angular * radial[m] if m else angular.copy()
                w *= weight
                out = sums[row]
                out[0] += float(np.sum(w.real))
                out[1] += float(np.sum(w.real**2))
                out[2] += float(np.sum(w.imag))
                out[3] += float(np.sum(w.imag**2))
        done += size
    return sums


def _mc_inner(
    cases: Sequence[Tuple[MultiIndex, MultiIndex, SpaceParams]], cfg: OracleConfig
) -> MonteCarloBatch:
    """Monte Carlo estimates of <z^a, z^b> in sp for every case ``(a, b, sp)``,
    all from one set of seeded draws."""
    total = cfg.samples
    if total < 2:
        raise InputError("Monte Carlo needs at least 2 samples")
    if not cases:
        return MonteCarloBatch(())
    n = cases[0][2].n
    if any(sp.n != n or a.dimension != n or b.dimension != n for a, b, sp in cases):
        raise DimensionMismatchError("Monte Carlo cases must share one dimension n")
    # importance weight: dv-measure density over the sampling density,
    # times the normalizing constant of the weighted measure
    work = [(a, b, sp.m, gamma_recurrence(n) / gamma_recurrence(sp.m + n)) for a, b, sp in cases]
    workers = max(1, cfg.workers)
    counts = [total // workers] * workers
    counts[0] += total - sum(counts)
    seeds = np.random.SeedSequence(cfg.seed).spawn(workers)
    partials = [_mc_worker(work, n, s, c, cfg.chunk) for s, c in zip(seeds, counts)]
    estimates = []
    for sums in np.sum(np.stack(partials), axis=0):
        mean_re = sums[0] / total
        var_re = max(sums[1] / total - mean_re**2, 0.0)
        mean_im = sums[2] / total
        var_im = max(sums[3] / total - mean_im**2, 0.0)
        estimates.append(
            OracleEstimate(
                value=mean_re,
                method=OracleMethod.MONTE_CARLO,
                standard_error=math.sqrt(var_re / total),
                samples=total,
                imag_value=mean_im,
                imag_standard_error=math.sqrt(var_im / total),
            )
        )
    return MonteCarloBatch(tuple(estimates))


# ---------------------------------------------------------------------------
# public operations


def oracle_inner(
    a: MultiIndex,
    b: MultiIndex,
    sp: SpaceParams,
    method: OracleMethod,
    cfg: OracleConfig = OracleConfig(),
) -> OracleEstimate:
    """Numerical estimate of <z^a, z^b> in the weighted space."""
    if a.dimension != sp.n or b.dimension != sp.n:
        raise DimensionMismatchError("multi-index dimension must equal n")
    if method is OracleMethod.RADIAL_QUADRATURE:
        if sp.n != 1:
            raise InputError("radial quadrature is a one-dimensional method")
        if a != b:
            # distinct monomials: the angular integral vanishes identically
            return OracleEstimate(0.0, method, error_bound=0.0)
        k = a[0] + sp.m
        val_num, err_num = gamma_integral_quadrature(k, cfg.quad_tol)
        val_den, err_den = gamma_integral_quadrature(sp.m, cfg.quad_tol)
        value = val_num / val_den
        bound = value * (err_num / val_num + err_den / val_den)
        return OracleEstimate(value, method, error_bound=bound)
    if method is OracleMethod.GAMMA_IDENTITY:
        if a != b:
            return OracleEstimate(0.0, method, error_bound=0.0)
        num = gamma_recurrence(sp.n) * gamma_recurrence(sp.m + sp.n + a.order)
        den = gamma_recurrence(sp.m + sp.n) * gamma_recurrence(sp.n + a.order)
        for comp in a:
            num *= gamma_recurrence(comp + 1)
        value = num / den
        # float recurrences: ~1 ulp per multiplication
        ops = 2 * (sp.m + sp.n + a.order) + 8
        return OracleEstimate(value, method, error_bound=abs(value) * ops * 2.3e-16)
    if method is OracleMethod.MONTE_CARLO:
        return _mc_inner([(a, b, sp)], cfg).estimates[0]
    raise InputError(f"unknown oracle method {method}")


def oracle_toeplitz_coeff(
    beta: MultiIndex,
    gamma: MultiIndex,
    alpha: MultiIndex,
    sp: SpaceParams,
    method: OracleMethod = OracleMethod.RADIAL_QUADRATURE,
    cfg: OracleConfig = OracleConfig(),
) -> OracleEstimate:
    """Numerical <T_{z^beta conj(z)^gamma} e_alpha, e_target> via the oracle path."""
    comps = []
    for x, b_, g_ in zip(alpha, beta, gamma):
        t = x + b_ - g_
        if t < 0:
            return OracleEstimate(0.0, method, error_bound=0.0)
        comps.append(t)
    tau = MultiIndex(comps)
    power = alpha + beta
    inner = oracle_inner(power, power, sp, method, cfg)
    c_alpha = math.sqrt(_basis_constant_sq(alpha, sp))
    c_tau = math.sqrt(_basis_constant_sq(tau, sp))
    scale = c_alpha * c_tau
    out = replace(inner, value=inner.value * scale)
    if inner.error_bound is not None:
        out = replace(out, error_bound=inner.error_bound * scale + abs(out.value) * 1e-14)
    if inner.standard_error is not None:
        out = replace(out, standard_error=inner.standard_error * scale)
    return out
