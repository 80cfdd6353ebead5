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
for alone or with others.  A case's integrand is a real modulus times a
complex phase; a diagonal case <z^a, z^a> has no phase, runs in real
float64 arithmetic and reports an imaginary part of exactly 0.
Quadratures are memoized per (k, tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .arith import MultiIndex, check_same_dimension
from .errors import InputError, InternalInvariantError
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
    whole = _simpson(a, fa, b, fb, fm)
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


def _mc_sums(cases, n: int, seed_seq: "np.random.SeedSequence", count: int, chunk: int):
    """Sums (re, re^2, im, im^2) per case over ``count`` draws from one
    generator seeded by ``seed_seq``.

    Each chunk of at most ``chunk`` draws is made once and every case
    ``(a, b, m, weight)`` is evaluated on it as a real modulus times a
    complex phase:

        z^a conj(z)^b = prod_j r_j^min(a_j, b_j) * prod_j u_j^|a_j - b_j|

    with r_j = |z_j|^2, and u_j = z_j where a_j > b_j, conj(z_j) otherwise.
    The modulus, R^m (R = |z|^2) and the weight are multiplied in real
    float64.  Only a case with a phase (a != b) forms a complex array; a
    diagonal case sums in real arrays and its imaginary sums are exactly 0.
    Cases with the same (a, b) share the modulus and the phase; each case
    still takes the same float operations in the same order, whichever
    cases share its chunk.  Sums are numpy's pairwise ``np.sum``, which,
    unlike a BLAS dot, does not depend on the thread count.
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    groups = {}  # (a, b) -> [(case row, m, weight)]
    for row, (a, b, m, weight) in enumerate(cases):
        groups.setdefault((a, b), []).append((row, m, weight))
    scales = {(m, weight) for _, _, m, weight in cases if m}
    phased = any(a != b for a, b in groups)
    sums = np.zeros((len(cases), 4))
    done = 0
    # at large m (300 at n = 3) R**m overflows and the weight underflows to 0;
    # the estimate turns inf or nan and its check fails, so numpy's warnings
    # would only repeat that on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        while done < count:
            size = min(chunk, count - done)
            xy = rng.standard_normal((size, 2 * n))
            xy *= math.sqrt(0.5)
            z = xy[:, :n] + 1j * xy[:, n:] if phased else None
            np.square(xy, out=xy)
            r = np.empty((n, size))  # r[j] = |z_j|^2, one contiguous row per j
            np.add(xy[:, :n].T, xy[:, n:].T, out=r)
            del xy
            radial = {}  # (m, weight) -> R**m * weight
            if scales:
                big_r = r.sum(axis=0)
                for m, weight in scales:
                    radial[m, weight] = big_r**m
                    radial[m, weight] *= weight
                del big_r
            buf = np.empty(size)
            for (a, b), members in groups.items():
                modulus = phase = None
                for j in range(n):
                    low, gap = min(a[j], b[j]), abs(a[j] - b[j])
                    if low:
                        f = r[j] ** low
                        modulus = f if modulus is None else np.multiply(modulus, f, out=modulus)
                    if gap:
                        f = (z[:, j] if a[j] > b[j] else np.conj(z[:, j])) ** gap
                        phase = f if phase is None else np.multiply(phase, f, out=phase)
                for row, m, weight in members:
                    w = np.multiply(1.0 if modulus is None else modulus, radial.get((m, weight), weight), out=buf)
                    out = sums[row]
                    if phase is None:
                        out[0] += float(np.sum(w))
                        out[1] += float(np.sum(np.square(w, out=w)))
                    else:
                        w = phase * w
                        out[0] += float(np.sum(w.real))
                        out[1] += float(np.sum(w.real**2))
                        out[2] += float(np.sum(w.imag))
                        out[3] += float(np.sum(w.imag**2))
            done += size
    return sums


# Fewest Monte Carlo samples per case: the standard error of a mean needs
# a sample variance.
MIN_MC_SAMPLES = 2


def check_mc_samples(samples: int) -> None:
    """Raise ``InputError`` unless ``samples >= MIN_MC_SAMPLES``."""
    if samples < MIN_MC_SAMPLES:
        raise InputError(f"Monte Carlo needs at least {MIN_MC_SAMPLES} samples")


def _mc_inner(
    cases: Sequence[Tuple[MultiIndex, MultiIndex, SpaceParams]], cfg: OracleConfig
) -> MonteCarloBatch:
    """Monte Carlo estimates of <z^a, z^b> in sp for every case ``(a, b, sp)``,
    all from one stream of draws seeded by ``cfg.seed``."""
    total = cfg.samples
    check_mc_samples(total)
    if cfg.chunk < 1:
        raise InputError(f"Monte Carlo chunk must be >= 1 sample, got {cfg.chunk}")
    if not cases:
        return MonteCarloBatch(())
    n = cases[0][2].n
    check_same_dimension(*(d for a, b, sp in cases for d in (sp.n, a.dimension, b.dimension)))
    # importance weight: dv-measure density over the sampling density,
    # times the normalizing constant of the weighted measure
    work = [(a, b, sp.m, gamma_recurrence(n) / gamma_recurrence(sp.m + n)) for a, b, sp in cases]
    # the seed's first child stream; the pinned oracle estimates depend on it
    stream = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    estimates = []
    for sums in _mc_sums(work, n, stream, total, cfg.chunk):
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
    check_same_dimension(sp.n, a.dimension, b.dimension)
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
    raise InternalInvariantError(f"unknown oracle method {method}")


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
