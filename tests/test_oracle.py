import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from reference import complex_product_mc_sums, oracle_toeplitz_coeff, recursive_gamma_integral_quadrature

from fockop import oracle
from fockop.arith import MultiIndex
from fockop.errors import InputError
from fockop.operators import SpaceParams, monomial_inner, toeplitz_mono_apply
from fockop.oracle import (
    MAX_QUAD_ORDER,
    QUADRATURE_CACHE_SIZE,
    OracleConfig,
    OracleEstimate,
    _mc_inner,
    _mc_sums,
    gamma_integral_quadrature,
    gamma_norm_sq,
    gamma_recurrence,
    quadrature_norm_sq,
)
from fockop.verify import indices_up_to_order, verify_oracle_deterministic, verify_oracle_monte_carlo


def mi(*comps):
    return MultiIndex(comps)


def mc_estimate(a, b, sp, cfg):
    """The Monte Carlo estimate of <z^a, z^b> in sp, asked for alone."""
    return _mc_inner([(a, b, sp)], cfg).estimates[0]


def test_oracle_config_holds_the_cli_settings_only():
    assert [f.name for f in dataclasses.fields(OracleConfig)] == ["seed", "samples", "quad_tol"]


def test_gamma_recurrence_small_values():
    assert gamma_recurrence(1) == 1.0
    assert gamma_recurrence(2) == 1.0
    assert gamma_recurrence(5) == 24.0
    with pytest.raises(InputError):
        gamma_recurrence(0)


def test_quadrature_matches_factorials():
    for k in range(14):
        value, bound = gamma_integral_quadrature(k)
        exact = math.factorial(k)
        assert abs(value - exact) / exact < 1e-12
        assert bound >= 0
        assert abs(value - exact) <= max(bound, 1e-12 * exact)


@pytest.mark.parametrize("rel_tol", [1e-15, 1e-13, 1e-10, 1e-6])
def test_quadrature_level_walk_matches_the_recursion_bit_for_bit(rel_tol):
    # tuple ==: the same value and the same error bound, to the last bit
    for k in range(MAX_QUAD_ORDER + 1):
        assert gamma_integral_quadrature(k, rel_tol) == recursive_gamma_integral_quadrature(k, rel_tol), k


def test_oracle_inner_norm_of_constant():
    assert abs(quadrature_norm_sq(mi(0), SpaceParams(1, 0)) - 1.0) <= 1e-12


def test_oracle_inner_gaussian_moment():
    assert abs(quadrature_norm_sq(mi(2), SpaceParams(1, 0)) - 2.0) <= 1e-12


def test_oracle_two_deterministic_routes_agree():
    for m in range(4):
        sp = SpaceParams(1, m)
        for a in range(11):
            quad = quadrature_norm_sq(mi(a), sp)
            gamma = gamma_norm_sq(mi(a), sp)
            exact = float(monomial_inner(mi(a), mi(a), sp))
            assert abs(quad - exact) / exact < 1e-10
            assert abs(gamma - exact) / exact < 1e-10
            assert abs(quad - gamma) / exact < 1e-10


def test_gamma_identity_multidimensional():
    sp = SpaceParams(3, 2)
    a = mi(2, 0, 1)
    exact = float(monomial_inner(a, a, sp))
    assert abs(gamma_norm_sq(a, sp) - exact) / exact < 1e-12


def test_quadrature_rejected_for_higher_dimensions():
    with pytest.raises(InputError):
        quadrature_norm_sq(mi(1, 0), SpaceParams(2, 0))


def test_monte_carlo_brackets_exact_value():
    sp = SpaceParams(2, 1)
    a = mi(1, 0)
    cfg = OracleConfig(seed=11, samples=200_000)
    est = mc_estimate(a, a, sp, cfg)
    exact = float(monomial_inner(a, a, sp))  # 3/2
    assert est.standard_error is not None and est.standard_error > 0
    assert abs(est.value - exact) <= 3 * est.standard_error
    assert est.samples == 200_000


def test_monte_carlo_off_diagonal_is_noise_around_zero():
    sp = SpaceParams(2, 1)
    cfg = OracleConfig(seed=7, samples=100_000)
    est = mc_estimate(mi(1, 0), mi(0, 1), sp, cfg)
    assert abs(est.value) <= 3 * est.standard_error
    assert abs(est.imag_value) <= 3 * est.imag_standard_error


def test_monte_carlo_is_deterministic_given_seed():
    sp = SpaceParams(2, 0)
    a = mi(2, 1)
    cfg = OracleConfig(seed=123, samples=50_000)
    est1 = mc_estimate(a, a, sp, cfg)
    est2 = mc_estimate(a, a, sp, cfg)
    assert est1 == est2


def test_oracle_toeplitz_coeff_matches_engine():
    sp = SpaceParams(1, 0)
    assert abs(oracle_toeplitz_coeff(mi(1), mi(0), mi(3), sp) - 2.0) <= 1e-10

    sp1 = SpaceParams(1, 1)
    value = oracle_toeplitz_coeff(mi(1), mi(1), mi(2), sp1)
    _, coeff = toeplitz_mono_apply(mi(1), mi(1), mi(2), sp1)
    assert abs(value - coeff.to_complex().real) <= 1e-10

    assert oracle_toeplitz_coeff(mi(0), mi(1), mi(0), sp) == 0.0


# ---------------------------------------------------------------------------
# shared Monte Carlo draws: bit-identical to the per-case loop


def _per_case_worker(a, b, sp, weight, seed_seq, count, chunk):
    """The batched kernel's arithmetic for one case: each case draws its own
    chunks from a fresh generator and takes w = z^a conj(z)^b R^m * weight
    as the real modulus prod_j r_j^min(a_j, b_j) times (R^m * weight),
    times the phase prod_j u_j^|a_j - b_j| when a != b."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    n = sp.n
    sums = np.zeros(4)
    done = 0
    while done < count:
        size = min(chunk, count - done)
        xy = rng.standard_normal((size, 2 * n)) * math.sqrt(0.5)
        x, y = xy[:, :n], xy[:, n:]
        r = x * x + y * y  # column j is |z_j|^2
        modulus = np.ones(size)
        phase = None
        for j in range(n):
            low, gap = min(a[j], b[j]), abs(a[j] - b[j])
            if low:
                modulus = modulus * r[:, j] ** low
            if gap:
                u = x[:, j] + 1j * y[:, j]
                f = (u if a[j] > b[j] else np.conj(u)) ** gap
                phase = f if phase is None else phase * f
        w = modulus * (np.sum(r, axis=1) ** sp.m * weight if sp.m else weight)
        if phase is None:
            sums[:2] += [np.sum(w), np.sum(w * w)]
        else:
            w = phase * w
            sums += [np.sum(w.real), np.sum(w.real**2), np.sum(w.imag), np.sum(w.imag**2)]
        done += size
    return sums


def _stream(cfg):
    """The oracle's stream for ``cfg``: the seed's first child."""
    return np.random.SeedSequence(cfg.seed).spawn(1)[0]


def _per_case_estimate(a, b, sp, cfg, chunk):
    total = cfg.samples
    weight = gamma_recurrence(sp.n) / gamma_recurrence(sp.m + sp.n)
    sums = _per_case_worker(a, b, sp, weight, _stream(cfg), total, chunk)
    mean_re = sums[0] / total
    mean_im = sums[2] / total
    return OracleEstimate(
        value=mean_re,
        standard_error=math.sqrt(max(sums[1] / total - mean_re**2, 0.0) / total),
        samples=total,
        imag_value=mean_im,
        imag_standard_error=math.sqrt(max(sums[3] / total - mean_im**2, 0.0) / total),
    )


def _mc_cases(n):
    cases = [(a, a, SpaceParams(n, m)) for m in range(4) for a in indices_up_to_order(n, 2)]
    off = (mi(*([1] + [0] * (n - 1))), mi(*([0] * (n - 1) + [1])))
    cases.append((off[0], off[1], SpaceParams(n, 1)))
    cases.append((mi(*([2] * n)), off[0], SpaceParams(n, 2)))
    return cases


MC_BATCHES = pytest.mark.parametrize(
    "n, cfg, chunk",
    [
        (2, OracleConfig(seed=5, samples=3_000), oracle.MC_CHUNK),
        (2, OracleConfig(seed=6, samples=2_500), 1_000),  # three chunks, the last one short
        (3, OracleConfig(seed=8, samples=2_000), 700),
    ],
    ids=["n2-one-chunk", "n2-partial-chunk", "n3-chunks"],
)


@MC_BATCHES
def test_batched_monte_carlo_is_bit_identical_to_per_case(n, cfg, chunk, monkeypatch):
    monkeypatch.setattr(oracle, "MC_CHUNK", chunk)
    cases = _mc_cases(n)
    batch = _mc_inner(cases, cfg)
    assert len(batch.estimates) == len(cases)
    assert batch.samples == len(cases) * cfg.samples
    for (a, b, sp), est in zip(cases, batch.estimates):
        ref = _per_case_estimate(a, b, sp, cfg, chunk)
        assert est.value == ref.value
        assert est.standard_error == ref.standard_error
        assert est.imag_value == ref.imag_value
        assert est.imag_standard_error == ref.imag_standard_error
        assert est == ref
        assert mc_estimate(a, b, sp, cfg) == ref


@pytest.mark.parametrize("cfg, chunk", [(OracleConfig(seed=3, samples=4_000), 1_500)], ids=["chunks"])
def test_monte_carlo_agreement_matches_per_case_loop(cfg, chunk, monkeypatch):
    monkeypatch.setattr(oracle, "MC_CHUNK", chunk)
    n, m_values, max_order, sigmas = 2, (0, 1, 2), 3, 1.0  # low enough that some cases fail
    cases = 0
    failures = []
    max_sigmas = 0.0
    for m in m_values:
        sp = SpaceParams(n, m)
        for a in indices_up_to_order(n, max_order):
            exact = float(monomial_inner(a, a, sp))
            est = _per_case_estimate(a, a, sp, cfg, chunk)
            cases += 1
            if est.standard_error == 0:
                if est.value != exact:
                    failures.append(f"m={m} a={tuple(a)}: zero spread but off")
                continue
            pull = abs(est.value - exact) / est.standard_error
            max_sigmas = max(max_sigmas, pull)
            if pull > sigmas:
                failures.append(
                    f"m={m} a={tuple(a)}: {est.value:.8f} vs exact {exact:.8f} "
                    f"is {pull:.2f} standard errors (> {sigmas})"
                )
    out = verify_oracle_monte_carlo(n, m_values, max_order, sigmas, cfg)
    assert out.cases == cases
    assert out.max_sigmas == max_sigmas
    assert out.failures == failures


# float64 unit roundoff
UNIT_ROUNDOFF = 2.0**-53


@MC_BATCHES
def test_modulus_phase_sums_match_the_complex_product_within_rounding(n, cfg, chunk):
    """The kernel's sums against the complex-product loop it replaced.

    Both routes compute the same w per sample from the same draws, each to
    a relative error of at most k unit roundoffs u (first order):

    * complex product: at most |a| + |b| complex multiplications, each
      within sqrt(5) u (Brent, Percival and Zimmermann, 2007); R, a sum of
      2n squares, within 2n u, so (2n m + 1) u for R^m; 2 u for the two
      real scalings;
    * modulus and phase: r_j = x_j^2 + y_j^2 within 2 u, so
      (2 min(a_j, b_j) + 1) u per modulus power and n - 1 products; at
      most |a_j - b_j| complex multiplications per phase factor, each
      within sqrt(5) u; R, the sum of the r_j, within (n + 1) u, so
      (m (n + 1) + 1) u for R^m; 3 u for the three products.

    Both fit k = 3 (|a| + |b|) + 2n (m + 1) + 4, since 2 min(a_j, b_j) +
    sqrt(5) |a_j - b_j| <= 3 (a_j + b_j).  np.sum adds a chunk of s terms
    at a depth of at most ceil(log2 s) + 25 (numpy's pairwise blocks of
    128 with 8 accumulators, and a sequential tail), plus one per buffer of
    8192 and one per chunk accumulated.  Each route's sum of w is then
    within (k + depth) u sum|w| of the exact sum, so the two differ by
    at most 2 (k + depth) u sum|w|; a square adds one rounding and doubles
    the relative error, so the sums of squares differ by at most
    4 (k + depth + 1) u sum|w|^2.  A factor 1.005 covers the second-order
    terms, as (k + depth) u < 1e-13.
    """
    cases = _mc_cases(n)
    work = [(a, b, sp.m, gamma_recurrence(n) / gamma_recurrence(sp.m + n)) for a, b, sp in cases]
    sums = _mc_sums(work, n, _stream(cfg), cfg.samples, chunk)
    size = min(chunk, cfg.samples)
    chunks = math.ceil(cfg.samples / chunk)
    depth = math.ceil(math.log2(size)) + 25 + math.ceil(size / 8192) + chunks
    for (a, b, m, weight), new in zip(work, sums):
        old, (abs_sum, abs_sq_sum) = complex_product_mc_sums(a, b, m, weight, n, _stream(cfg), cfg.samples, chunk)
        k = 3 * (a.order + b.order) + 2 * n * (m + 1) + 4
        bound = 1.005 * 2 * (k + depth) * UNIT_ROUNDOFF * abs_sum
        sq_bound = 1.005 * 4 * (k + depth + 1) * UNIT_ROUNDOFF * abs_sq_sum
        label = (tuple(a), tuple(b), m)
        assert abs(new[0] - old[0]) <= bound, label
        assert abs(new[2] - old[2]) <= bound, label
        assert abs(new[1] - old[1]) <= sq_bound, label
        assert abs(new[3] - old[3]) <= sq_bound, label


@pytest.mark.parametrize("n", [2, 3])
def test_monte_carlo_diagonal_cases_are_exactly_real(n, monkeypatch):
    monkeypatch.setattr(oracle, "MC_CHUNK", 900)
    cases = [(a, b, sp) for a, b, sp in _mc_cases(n) if a == b]
    for est in _mc_inner(cases, OracleConfig(seed=9, samples=2_000)).estimates:
        assert est.imag_value == 0.0
        assert est.imag_standard_error == 0.0


def test_monte_carlo_working_memory_is_bounded():
    # the 45 default n=2 cases of `verify oracle` in one chunk of 200 000
    # samples: at most 112 bytes per sample, what the complex-product kernel took
    cases = [(a, a, SpaceParams(2, m)) for m in (0, 1, 2) for a in indices_up_to_order(2, 4)]
    cfg = OracleConfig(samples=200_000)
    _mc_inner(cases[:1], OracleConfig(samples=2))  # numpy's first-call allocations
    tracemalloc.start()
    try:
        _mc_inner(cases, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 112 * cfg.samples, peak


@pytest.mark.parametrize("samples", [2.5, 10.0, "10", None])
def test_monte_carlo_rejects_non_integer_samples(samples):
    with pytest.raises(InputError, match="samples must be an integer"):
        mc_estimate(mi(1, 0), mi(1, 0), SpaceParams(2, 0), OracleConfig(samples=samples))


def test_monte_carlo_accepts_numpy_integer_samples():
    cfg = OracleConfig(seed=4, samples=np.int64(1_000))
    assert mc_estimate(mi(1, 0), mi(1, 0), SpaceParams(2, 0), cfg) == mc_estimate(
        mi(1, 0), mi(1, 0), SpaceParams(2, 0), OracleConfig(seed=4, samples=1_000)
    )


def test_monte_carlo_needs_one_dimension_per_batch():
    with pytest.raises(InputError, match="dimensions differ: 2 vs 1"):
        _mc_inner([(mi(1, 0), mi(1, 0), SpaceParams(2, 0)), (mi(1), mi(1), SpaceParams(1, 0))], OracleConfig())


def test_quadrature_is_memoized_per_distinct_k():
    gamma_integral_quadrature.cache_clear()
    verify_oracle_deterministic((0, 1, 2, 3), 10)
    info = gamma_integral_quadrature.cache_info()
    assert info.misses == 14  # k = order + m in 0..13, the k = m denominators among them
    assert info.hits == 2 * 44 - 14
    assert info.maxsize == QUADRATURE_CACHE_SIZE
