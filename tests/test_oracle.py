import math

import numpy as np
import pytest

from fockop.arith import MultiIndex
from fockop.errors import DimensionMismatchError, InputError
from fockop.operators import SpaceParams, monomial_inner, toeplitz_mono_apply
from fockop.oracle import (
    QUADRATURE_CACHE_SIZE,
    OracleConfig,
    OracleEstimate,
    OracleMethod,
    _mc_inner,
    gamma_integral_quadrature,
    gamma_recurrence,
    oracle_inner,
    oracle_toeplitz_coeff,
)
from fockop.verify import indices_up_to_order, verify_oracle_deterministic, verify_oracle_monte_carlo


def mi(*comps):
    return MultiIndex(comps)


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


def test_oracle_inner_norm_of_constant():
    est = oracle_inner(mi(0), mi(0), SpaceParams(1, 0), OracleMethod.RADIAL_QUADRATURE)
    assert abs(est.value - 1.0) <= 1e-12


def test_oracle_inner_gaussian_moment():
    est = oracle_inner(mi(2), mi(2), SpaceParams(1, 0), OracleMethod.RADIAL_QUADRATURE)
    assert abs(est.value - 2.0) <= 1e-12


def test_oracle_two_deterministic_routes_agree():
    for m in range(4):
        sp = SpaceParams(1, m)
        for a in range(11):
            quad = oracle_inner(mi(a), mi(a), sp, OracleMethod.RADIAL_QUADRATURE)
            gamma = oracle_inner(mi(a), mi(a), sp, OracleMethod.GAMMA_IDENTITY)
            exact = float(monomial_inner(mi(a), mi(a), sp))
            assert abs(quad.value - exact) / exact < 1e-10
            assert abs(gamma.value - exact) / exact < 1e-10
            assert abs(quad.value - gamma.value) / exact < 1e-10


def test_gamma_identity_multidimensional():
    sp = SpaceParams(3, 2)
    a = mi(2, 0, 1)
    est = oracle_inner(a, a, sp, OracleMethod.GAMMA_IDENTITY)
    exact = float(monomial_inner(a, a, sp))
    assert abs(est.value - exact) / exact < 1e-12


def test_quadrature_rejected_for_higher_dimensions():
    with pytest.raises(InputError):
        oracle_inner(mi(1, 0), mi(1, 0), SpaceParams(2, 0), OracleMethod.RADIAL_QUADRATURE)


def test_monte_carlo_brackets_exact_value():
    sp = SpaceParams(2, 1)
    a = mi(1, 0)
    cfg = OracleConfig(seed=11, samples=200_000)
    est = oracle_inner(a, a, sp, OracleMethod.MONTE_CARLO, cfg)
    exact = float(monomial_inner(a, a, sp))  # 3/2
    assert est.standard_error is not None and est.standard_error > 0
    assert abs(est.value - exact) <= 3 * est.standard_error
    assert est.samples == 200_000


def test_monte_carlo_off_diagonal_is_noise_around_zero():
    sp = SpaceParams(2, 1)
    cfg = OracleConfig(seed=7, samples=100_000)
    est = oracle_inner(mi(1, 0), mi(0, 1), sp, OracleMethod.MONTE_CARLO, cfg)
    assert abs(est.value) <= 3 * est.standard_error
    assert abs(est.imag_value) <= 3 * est.imag_standard_error


def test_monte_carlo_is_deterministic_given_seed_and_workers():
    sp = SpaceParams(2, 0)
    a = mi(2, 1)
    cfg = OracleConfig(seed=123, samples=50_000)
    est1 = oracle_inner(a, a, sp, OracleMethod.MONTE_CARLO, cfg)
    est2 = oracle_inner(a, a, sp, OracleMethod.MONTE_CARLO, cfg)
    assert est1 == est2
    two = OracleConfig(seed=123, samples=50_000, workers=2)
    est3 = oracle_inner(a, a, sp, OracleMethod.MONTE_CARLO, two)
    est4 = oracle_inner(a, a, sp, OracleMethod.MONTE_CARLO, two)
    assert est3 == est4
    # different partition, same target: statistically compatible
    assert abs(est3.value - est1.value) <= 6 * (est1.standard_error + est3.standard_error)


def test_oracle_toeplitz_coeff_matches_engine():
    sp = SpaceParams(1, 0)
    est = oracle_toeplitz_coeff(mi(1), mi(0), mi(3), sp, OracleMethod.RADIAL_QUADRATURE)
    assert abs(est.value - 2.0) <= 1e-10

    sp1 = SpaceParams(1, 1)
    est = oracle_toeplitz_coeff(mi(1), mi(1), mi(2), sp1, OracleMethod.RADIAL_QUADRATURE)
    _, coeff = toeplitz_mono_apply(mi(1), mi(1), mi(2), sp1)
    assert abs(est.value - coeff.to_complex().real) <= 1e-10

    est = oracle_toeplitz_coeff(mi(0), mi(1), mi(0), sp, OracleMethod.RADIAL_QUADRATURE)
    assert est.value == 0.0 and est.error_bound == 0.0


# ---------------------------------------------------------------------------
# shared Monte Carlo draws: bit-identical to the per-case loop


def _per_case_worker(a, b, sp, weight, seed_seq, count, chunk):
    """The per-case Monte Carlo loop the batched worker replaced: each case
    draws its own chunks from a fresh generator."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    n = sp.n
    sums = np.zeros(4)
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
        if sp.m:
            r2 = np.sum(xy * xy, axis=1)
            w *= r2**sp.m
        w *= weight
        sums[0] += float(np.sum(w.real))
        sums[1] += float(np.sum(w.real**2))
        sums[2] += float(np.sum(w.imag))
        sums[3] += float(np.sum(w.imag**2))
        done += size
    return sums


def _per_case_estimate(a, b, sp, cfg):
    total = cfg.samples
    workers = max(1, cfg.workers)
    weight = gamma_recurrence(sp.n) / gamma_recurrence(sp.m + sp.n)
    counts = [total // workers] * workers
    counts[0] += total - sum(counts)
    seeds = np.random.SeedSequence(cfg.seed).spawn(workers)
    partials = [_per_case_worker(a, b, sp, weight, s, c, cfg.chunk) for s, c in zip(seeds, counts)]
    sums = np.sum(np.stack(partials), axis=0)
    mean_re = sums[0] / total
    mean_im = sums[2] / total
    return OracleEstimate(
        value=mean_re,
        method=OracleMethod.MONTE_CARLO,
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


@pytest.mark.parametrize(
    "n, cfg",
    [
        (2, OracleConfig(seed=5, samples=3_000)),
        (2, OracleConfig(seed=6, samples=2_500, chunk=1_000)),  # three chunks, the last one short
        (2, OracleConfig(seed=7, samples=3_001, chunk=1_000, workers=2)),
        (3, OracleConfig(seed=8, samples=2_000, chunk=700)),
    ],
    ids=["n2-one-chunk", "n2-partial-chunk", "n2-two-workers", "n3-chunks"],
)
def test_batched_monte_carlo_is_bit_identical_to_per_case(n, cfg):
    cases = _mc_cases(n)
    batch = _mc_inner(cases, cfg)
    assert len(batch.estimates) == len(cases)
    assert batch.samples == len(cases) * cfg.samples
    for (a, b, sp), est in zip(cases, batch.estimates):
        ref = _per_case_estimate(a, b, sp, cfg)
        assert est.value == ref.value
        assert est.standard_error == ref.standard_error
        assert est.imag_value == ref.imag_value
        assert est.imag_standard_error == ref.imag_standard_error
        assert est == ref
        assert oracle_inner(a, b, sp, OracleMethod.MONTE_CARLO, cfg) == ref


@pytest.mark.parametrize(
    "cfg",
    [OracleConfig(seed=3, samples=4_000, chunk=1_500), OracleConfig(seed=4, samples=3_000, workers=2)],
    ids=["chunks", "two-workers"],
)
def test_monte_carlo_agreement_matches_per_case_loop(cfg):
    n, m_values, max_order, sigmas = 2, (0, 1, 2), 3, 1.0  # low enough that some cases fail
    cases = 0
    failures = []
    max_sigmas = 0.0
    for m in m_values:
        sp = SpaceParams(n, m)
        for a in indices_up_to_order(n, max_order):
            exact = float(monomial_inner(a, a, sp))
            est = _per_case_estimate(a, a, sp, cfg)
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


def test_monte_carlo_needs_one_dimension_per_batch():
    with pytest.raises(DimensionMismatchError):
        _mc_inner([(mi(1, 0), mi(1, 0), SpaceParams(2, 0)), (mi(1), mi(1), SpaceParams(1, 0))], OracleConfig())


def test_quadrature_is_memoized_per_distinct_k():
    gamma_integral_quadrature.cache_clear()
    verify_oracle_deterministic((0, 1, 2, 3), 10)
    info = gamma_integral_quadrature.cache_info()
    assert info.misses == 14  # k = order + m in 0..13, the k = m denominators among them
    assert info.hits == 2 * 44 - 14
    assert info.maxsize == QUADRATURE_CACHE_SIZE
