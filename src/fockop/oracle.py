"""Independent floating-point verification of the exact engine.

Nothing here touches the exact big-integer/rational code paths.  Each
route is its own function: ``quadrature_norm_sq`` integrates the radial
integral adaptively (n = 1), ``gamma_norm_sq`` multiplies float
Gamma-function recurrences grown out of Gamma(1) = 1, and
``_mc_inner(cases, seed, samples)`` takes seeded importance-sampled
Monte Carlo against the standard complex Gaussian (n >= 2).  Agreement
of these routes with the exact engine is the point; sharing code with
it would verify nothing.

Monte Carlo cases of one dimension share their draws (common random
numbers): each chunk of ``MC_CHUNK`` samples is drawn once and every
case is evaluated on it, so a case's estimate is the same whether it is
asked for alone or with others.  The chunk size does fix an estimate's
last bits: each chunk is summed pairwise and the chunk sums are added
in turn, so another ``MC_CHUNK`` moves every estimate by a few units in
the last place.  It is sized for the cache, not for the arithmetic (see
its comment).  A case's integrand is a real modulus
times a complex phase; a diagonal case <z^a, z^a> has no phase, runs in
real float64 arithmetic and reports an imaginary part of exactly 0.

The n = 1 quadrature is adaptive Simpson (Lyness, J. ACM 16, 1969),
walked breadth-first: each level of the subdivision tree is a set of
numpy arrays, and one call of the integrand covers the level.  It
returns the (value, bound) pair of the one-call-per-panel recursion bit
for bit, because numpy's elementwise float64 arithmetic rounds as Python
floats do and the integrand still calls libm's ``pow`` and ``exp`` one
point at a time (numpy's vectorized ``np.power`` and ``np.exp`` round
some points differently).  Its relative tolerance is fixed at
``QUAD_REL_TOL``, and quadratures are memoized per k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Sequence, Tuple

import numpy as np

from .arith import MultiIndex, check_same_dimension
from .errors import InputError
from .operators import SpaceParams

# The defaults of ``verify oracle``'s ``--seed`` and ``--samples``.
DEFAULT_SEED = 20417
DEFAULT_SAMPLES = 200_000


@dataclass(frozen=True)
class OracleEstimate:
    """A Monte Carlo estimate of <z^a, z^b>: real and imaginary means with
    their standard errors."""

    value: float
    standard_error: float
    samples: int
    imag_value: float
    imag_standard_error: float


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


def gamma_norm_sq(a: MultiIndex, sp: SpaceParams) -> float:
    """<z^a, z^a> in sp from float Gamma recurrences:
    Gamma(n) Gamma(m + n + |a|) prod_j a_j! / (Gamma(m + n) Gamma(n + |a|))."""
    check_same_dimension(sp.n, a.dimension)
    num = gamma_recurrence(sp.n) * gamma_recurrence(sp.m + sp.n + a.order)
    den = gamma_recurrence(sp.m + sp.n) * gamma_recurrence(sp.n + a.order)
    for comp in a:
        num *= gamma_recurrence(comp + 1)
    return num / den


# ---------------------------------------------------------------------------
# adaptive quadrature of int_0^inf u^k e^-u du


def _gamma_tail_bound(k: int, upper: float) -> float:
    """Upper bound for int_upper^inf u^k e^-u du, valid for upper > k."""
    if upper <= k:
        return math.inf
    return upper**k * math.exp(-upper) / (1.0 - k / upper)


def _quadrature_span(k: int) -> Tuple[float, float]:
    """(scale, upper) for int_0^inf u^k e^-u du: a crude scale for absolute
    tolerances (Stirling; only used for scaling) and the upper limit of
    integration, past which the tail is below 1e-16 * scale."""
    scale = math.sqrt(2.0 * math.pi * k) * (k / math.e) ** k if k > 0 else 1.0
    upper = float(max(4 * k + 40, 60))
    while _gamma_tail_bound(k, upper) > 1e-16 * scale:
        upper *= 2.0
    return scale, upper


def _simpson_levels(f, a: float, b: float, tol: float, depth: int) -> Tuple[float, float]:
    """(value, error estimate) of adaptive Simpson on [a, b], walked one
    level of the subdivision tree at a time.

    Each level holds its open panels as arrays, left to right; one call of
    ``f`` covers all of the level's quarter points.  A panel is accepted
    when ``abs(delta) <= 15 * tol`` or ``depth <= 0``, and keeps
    ``left + right + delta / 15`` and ``abs(delta) / 15``; otherwise its two
    halves go to the next level, left before right, with ``tol / 2``.  The
    tree is then summed bottom-up, each split panel the sum of its left and
    right child, for the value and for the error.  Elementwise float64
    ``+ - * /`` rounds as Python floats do, so this returns what the
    recursive routine (one call per panel) returns, bit for bit.
    """
    a, b = np.array([a]), np.array([b])
    fa, fm, fb = np.split(f(np.concatenate((a, 0.5 * (a + b), b))), 3)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    levels = []  # per level: (split mask, value and error of every panel as a leaf)
    while True:
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        quarter = f(np.concatenate((lm, rm)))
        flm, frm = quarter[: len(lm)], quarter[len(lm) :]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        split = ~(np.abs(delta) <= 15.0 * tol) if depth > 0 else np.zeros(len(a), bool)
        levels.append((split, left + right + delta / 15.0, np.abs(delta) / 15.0))
        if not split.any():
            break
        # each split panel's left child, then its right child
        kids = np.array(((a, m), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right)))
        a, b, fa, fm, fb, whole = kids[:, :, split].transpose(0, 2, 1).reshape(6, -1)
        tol /= 2.0
        depth -= 1
    value = error = None
    for split, leaf_value, leaf_error in reversed(levels):
        if value is not None:
            leaf_value[split] = value[0::2] + value[1::2]
            leaf_error[split] = error[0::2] + error[1::2]
        value, error = leaf_value, leaf_error
    return float(value[0]), float(error[0])


# Relative tolerance of ``gamma_integral_quadrature``.  Its worst relative
# error over k = 0..MAX_QUAD_ORDER is 6.1e-13, well inside the n=1 check's
# pass bound ``verify.DETERMINISTIC_REL_TOL`` = 1e-10; a tolerance near that
# bound (1e-9) fails a correct engine, and a smaller one only costs time.
QUAD_REL_TOL = 1e-13

# Halvings of [0, upper] below which a Simpson panel is accepted whatever
# its error estimate.
MAX_QUAD_DEPTH = 48


# Largest k = |a| + m of an n = 1 oracle check.  Beyond it float64
# overflows: the Gamma route's a! (m+a)! at m = 0 from k = 99, and the
# quadrature's tail bound upper**k from k = 115.
MAX_QUAD_ORDER = 98


@lru_cache(maxsize=MAX_QUAD_ORDER + 1)
def gamma_integral_quadrature(k: int) -> Tuple[float, float]:
    """(value, absolute error bound) for int_0^inf u^k e^-u du.

    Adaptive Simpson on [0, upper] to absolute tolerance ``QUAD_REL_TOL`` times a
    Stirling scale, walked one tree level at a time (``_simpson_levels``);
    the bound adds ``_gamma_tail_bound`` for the cut-off tail.  The
    integrand u**k * exp(-u) goes through libm one point at a time, as
    Python's float ``**`` and ``math.exp`` compute it, so the pair equals
    that of the recursive routine to the last bit.
    """
    if not 0 <= k <= MAX_QUAD_ORDER:
        raise InputError(f"quadrature order k must be in 0..{MAX_QUAD_ORDER}, got {k}")

    power = float(k)

    def f(u: np.ndarray) -> np.ndarray:
        # libm pow and exp one point at a time: numpy's np.power and np.exp
        # round some points differently
        powers = np.fromiter(map(pow, u.tolist(), repeat(power)), float, len(u))
        return powers * np.fromiter(map(math.exp, (-u).tolist()), float, len(u))

    scale, upper = _quadrature_span(k)
    value, err = _simpson_levels(f, 0.0, upper, QUAD_REL_TOL * scale, MAX_QUAD_DEPTH)
    return value, err + _gamma_tail_bound(k, upper)


def quadrature_norm_sq(a: MultiIndex, sp: SpaceParams) -> float:
    """<z^a, z^a> in sp (n = 1 only) as the quotient of two adaptive
    quadratures of int_0^inf u^k e^-u du."""
    check_same_dimension(sp.n, a.dimension)
    if sp.n != 1:
        raise InputError("radial quadrature is a one-dimensional method")
    val_num, _ = gamma_integral_quadrature(a[0] + sp.m)
    val_den, _ = gamma_integral_quadrature(sp.m)
    return val_num / val_den


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
    # every chunk writes its draws, moduli and real products into the same
    # three arrays: allocated afresh per chunk, arrays of this size stay in
    # the malloc heap and fragment it (the `oracle-mc` benchmark's peak RSS
    # rose by 1 MB)
    full = min(chunk, count)
    draws, moduli, products = np.empty((full, 2 * n)), np.empty((n, full)), np.empty(full)
    done = 0
    # at large m (300 at n = 3) R**m overflows and the weight underflows to 0;
    # the estimate turns inf or nan and its check fails, so numpy's warnings
    # would only repeat that on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        while done < count:
            size = min(chunk, count - done)
            xy = rng.standard_normal(out=draws[:size])
            xy *= math.sqrt(0.5)
            z = xy[:, :n] + 1j * xy[:, n:] if phased else None
            np.square(xy, out=xy)
            r = moduli[:, :size]  # r[j] = |z_j|^2, one contiguous row per j
            np.add(xy[:, :n].T, xy[:, n:].T, out=r)
            radial = {}  # (m, weight) -> R**m * weight
            if scales:
                big_r = r.sum(axis=0)
                for m, weight in scales:
                    radial[m, weight] = big_r**m
                    radial[m, weight] *= weight
                del big_r
            buf = products[:size]
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


# Most Monte Carlo samples drawn at once; each chunk holds 2n float64
# draws per sample.  A chunk's arrays (1 MB of draws, 256 KB per modulus
# or product at n = 2) fit a 4 MB L2 cache; at 2^18 the 200 000 default
# samples were one chunk, whose 6.4 MB of draws and ten or so live 1.6 MB
# arrays did not.  The `oracle-mc` benchmark (`bench/run.py --workload
# oracle-mc --seed 1 --seconds 15`, 2-core Xeon VM) ran at 873-936 cases/s
# at 2^18, 1011-1013 at 2^14, 1060-1100 at 2^15 and 972-1022 at 2^16, two
# runs each, with every pinned digest matching at each size; ten pairs of
# 2^15 against 2^18 are in BENCH_29.json.
MC_CHUNK = 1 << 15

# Fewest Monte Carlo samples per case: the standard error of a mean needs
# a sample variance.
MIN_MC_SAMPLES = 2


def check_mc_samples(samples: int) -> None:
    """Raise ``InputError`` unless ``samples`` is an integer >= ``MIN_MC_SAMPLES``."""
    try:
        operator.index(samples)
    except TypeError as exc:
        raise InputError(f"Monte Carlo samples must be an integer, got {samples!r}") from exc
    if samples < MIN_MC_SAMPLES:
        raise InputError(f"Monte Carlo needs at least {MIN_MC_SAMPLES} samples")


def _mc_inner(
    cases: Sequence[Tuple[MultiIndex, MultiIndex, SpaceParams]], seed: int, samples: int
) -> MonteCarloBatch:
    """Monte Carlo estimates of <z^a, z^b> in sp for every case ``(a, b, sp)``,
    each from the same ``samples`` draws of one stream seeded by ``seed``."""
    check_mc_samples(samples)
    if not cases:
        return MonteCarloBatch(())
    n = cases[0][2].n
    check_same_dimension(*(d for a, b, sp in cases for d in (sp.n, a.dimension, b.dimension)))
    # importance weight: dv-measure density over the sampling density,
    # times the normalizing constant of the weighted measure
    work = [(a, b, sp.m, gamma_recurrence(n) / gamma_recurrence(sp.m + n)) for a, b, sp in cases]
    # the seed's first child stream; the pinned oracle estimates depend on it
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    estimates = []
    for sums in _mc_sums(work, n, stream, samples, MC_CHUNK):
        mean_re = sums[0] / samples
        var_re = max(sums[1] / samples - mean_re**2, 0.0)
        mean_im = sums[2] / samples
        var_im = max(sums[3] / samples - mean_im**2, 0.0)
        estimates.append(
            OracleEstimate(
                value=mean_re,
                standard_error=math.sqrt(var_re / samples),
                samples=samples,
                imag_value=mean_im,
                imag_standard_error=math.sqrt(var_im / samples),
            )
        )
    return MonteCarloBatch(tuple(estimates))
