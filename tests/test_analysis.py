import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockop.analysis import (
    RaySpec,
    RateKind,
    SingleOperatorKind,
    VerdictCase,
    classify_hankel_product,
    classify_single,
    classify_toeplitz_product,
    default_base,
    fit_exponent,
    geometric_ts,
    hankel_validity_base,
    norm_squared_samples,
    predicted_exponent,
)
from fockop.arith import MultiIndex, RadicalCoefficient
from fockop.errors import InputError
from fockop.operators import SpaceParams, parse_operator
from fockop.symbols import SymbolPolynomial, parse_symbol
from reference import (
    closed_form_case_reference,
    default_ray,
    hankel_vector_norm_sq,
    pairwise_validity_base,
    ratio_stabilization,
    symbol_from_terms,
)


def mi(*comps):
    return MultiIndex(comps)


# ---------------------------------------------------------------------------
# classifiers


def test_toeplitz_product_constants_bounded():
    v = classify_toeplitz_product(parse_symbol("3", 1), parse_symbol("5", 1))
    assert v.bounded and v.matched_case is VerdictCase.BOTH_CONSTANT


def test_toeplitz_product_nonconstant_unbounded():
    v = classify_toeplitz_product(parse_symbol("z1", 2), parse_symbol("1", 2))
    assert not v.bounded and v.matched_case is VerdictCase.NON_CONSTANT_SYMBOL
    assert "z1" in v.witness


def test_toeplitz_product_zero_symbol_gives_zero_operator():
    v = classify_toeplitz_product(parse_symbol("0", 1), parse_symbol("conj(z)", 1))
    assert v.bounded and v.matched_case is VerdictCase.ZERO_OPERATOR


def test_hankel_product_holomorphic_cases():
    v = classify_hankel_product(parse_symbol("z1^2", 2), parse_symbol("z1*conj(z1)", 2))
    assert v.bounded and v.matched_case is VerdictCase.F_HOLOMORPHIC
    v = classify_hankel_product(parse_symbol("z1*conj(z1)", 2), parse_symbol("z1^2", 2))
    assert v.bounded and v.matched_case is VerdictCase.G_HOLOMORPHIC


def test_hankel_product_conjugate_linear_case_needs_dimension_one():
    v = classify_hankel_product(parse_symbol("z + 2*conj(z)", 1), parse_symbol("z^3 - conj(z)", 1))
    assert v.bounded and v.matched_case is VerdictCase.N1_CONJUGATE_LINEAR
    v = classify_hankel_product(parse_symbol("conj(z1)", 2), parse_symbol("conj(z1)", 2))
    assert not v.bounded and v.matched_case is VerdictCase.NON_HOLOMORPHIC_PAIR


def test_hankel_product_higher_conjugate_power_unbounded():
    v = classify_hankel_product(parse_symbol("conj(z)^2", 1), parse_symbol("conj(z)", 1))
    assert not v.bounded
    assert "conj(z)^2" in v.witness


def test_classify_single_examples():
    v = classify_single(SingleOperatorKind.TOEPLITZ, parse_symbol("conj(z2)", 2))
    assert not v.bounded and v.matched_case is VerdictCase.NON_CONSTANT_SYMBOL
    v = classify_single(SingleOperatorKind.TOEPLITZ, parse_symbol("7/2", 3))
    assert v.bounded and v.matched_case is VerdictCase.CONSTANT_SYMBOL
    v = classify_single(SingleOperatorKind.HANKEL, parse_symbol("z^5 + 7*conj(z)", 1))
    assert v.bounded and v.matched_case is VerdictCase.N1_CONJUGATE_LINEAR
    v = classify_single(SingleOperatorKind.HANKEL_COMPACT, parse_symbol("z^5 + 7*conj(z)", 1))
    assert not v.bounded and v.matched_case is VerdictCase.NON_HOLOMORPHIC_SYMBOL
    v = classify_single(SingleOperatorKind.HANKEL_COMPACT, parse_symbol("z1^3*z2", 2))
    assert v.bounded and v.matched_case is VerdictCase.HOLOMORPHIC


@given(st.integers(-50, 50).filter(bool), st.integers(1, 9))
def test_verdicts_are_scale_invariant(num, den):
    c = f"{num}/{den}"
    fixtures = [
        ("toeplitz-product", "3", "5", 1),
        ("toeplitz-product", "z1", "1", 2),
        ("hankel-product", "z1^2", "z1*conj(z1)", 2),
        ("hankel-product", "z + 2*conj(z)", "z^3 - conj(z)", 1),
        ("hankel-product", "conj(z1)", "conj(z1)", 2),
    ]
    for kind, f_text, g_text, n in fixtures:
        f = parse_symbol(f_text, n)
        g = parse_symbol(g_text, n)
        f_scaled = parse_symbol(f"({c})*({f_text})", n)
        classify = (
            classify_toeplitz_product if kind == "toeplitz-product" else classify_hankel_product
        )
        assert classify(f_scaled, g).bounded == classify(f, g).bounded


# ---------------------------------------------------------------------------
# rays


def test_ray_spec_validation():
    ray = RaySpec(mi(2), mi(1), (1, 2, 4))
    assert ray.alpha_at(4) == mi(6)
    with pytest.raises(InputError):
        RaySpec(mi(0), mi(0), (1, 2))
    with pytest.raises(InputError):
        RaySpec(mi(0), mi(1), (2, 2))
    with pytest.raises(InputError):
        RaySpec(mi(0), mi(1), (0, 1))


def test_geometric_ts():
    assert geometric_ts(64, 4096, 2) == (64, 128, 256, 512, 1024, 2048, 4096)
    assert geometric_ts(3, 30, 3) == (3, 9, 27)


def test_validity_base_and_default_ray():
    f = parse_symbol("conj(z)^2", 1)
    assert hankel_validity_base(f, f) == mi(4)
    expr = parse_operator("HP(conj(z)^2; conj(z)^2)", 1)
    assert default_base(expr) == mi(4)
    assert default_base(parse_operator("T(z*conj(z))", 1)) == mi(0)
    ray = default_ray(expr)
    assert ray.t_values == geometric_ts(64, 4096, 2)
    assert ray.direction == mi(1)


def random_symbol(rng, n):
    """0-12 terms of exponents 0-5 and coefficient 1: the validity base reads the support only."""
    return symbol_from_terms(
        n,
        [
            ((tuple(rng.randrange(6) for _ in range(n)), tuple(rng.randrange(6) for _ in range(n))), RadicalCoefficient(1))
            for _ in range(rng.randrange(13))
        ],
    )


def test_validity_base_matches_the_pairwise_maximum():
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(1, 4)
        f, g = random_symbol(rng, n), random_symbol(rng, n)
        assert hankel_validity_base(f, g) == pairwise_validity_base(f, g)
    zero = SymbolPolynomial.zero(2)
    f = parse_symbol("z1^3*conj(z2) + conj(z1)", 2)
    assert hankel_validity_base(f, zero) == hankel_validity_base(zero, f) == mi(0, 0)
    assert type(hankel_validity_base(f, f)) is MultiIndex and hankel_validity_base(f, f) == mi(6, 2)


# ---------------------------------------------------------------------------
# predicted exponents


def test_predicted_exponent_toeplitz_radial_pair():
    rate = predicted_exponent(
        RateKind.TOEPLITZ_MONO_PRODUCT, (mi(1), mi(1), mi(1), mi(1))
    )
    assert rate.exponent == 2 and not rate.degenerate


def test_predicted_exponent_hankel_pairs():
    rate = predicted_exponent(RateKind.HANKEL_MONO_PRODUCT, (mi(0), mi(1), mi(0), mi(1)))
    assert rate.exponent == 0
    rate = predicted_exponent(RateKind.HANKEL_MONO_PRODUCT, (mi(0), mi(2), mi(0), mi(2)))
    assert rate.exponent == 1
    degenerate = predicted_exponent(
        RateKind.HANKEL_MONO_PRODUCT, (mi(0, 0), mi(1, 0), mi(0, 0), mi(0, 1))
    )
    assert degenerate.degenerate and degenerate.exponent is None


# ---------------------------------------------------------------------------
# fitting


def test_fit_exponent_quartic_growth():
    samples = [(t, Fraction((t + 1) ** 4)) for t in geometric_ts(64, 4096, 2)]
    report = fit_exponent(samples)
    assert abs(report.fitted_exponent - 2.0) <= 0.05
    assert report.residual < 0.05


def test_fit_exponent_constant_sequence():
    samples = [(t, Fraction(1)) for t in (1, 2, 4, 8, 16)]
    report = fit_exponent(samples)
    assert report.fitted_exponent == pytest.approx(0.0, abs=1e-12)
    assert report.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_exponent_degenerate_on_zero_norm():
    samples = [(1, Fraction(1)), (2, Fraction(0)), (4, Fraction(1)), (8, Fraction(1))]
    report = fit_exponent(samples)
    assert report.degenerate and report.fitted_exponent is None


def test_fit_exponent_input_validation():
    with pytest.raises(InputError):
        fit_exponent([(1, Fraction(1)), (2, Fraction(1)), (4, Fraction(1))])
    with pytest.raises(InputError):
        fit_exponent([(1, Fraction(1)), (1, Fraction(1)), (2, Fraction(1)), (3, Fraction(1))])
    with pytest.raises(InputError):
        fit_exponent([(1, Fraction(1)), (2, Fraction(-1)), (3, Fraction(1)), (4, Fraction(1))])


def test_ratio_stabilization_cancels_constants():
    samples = [(t, Fraction(7 * t * t)) for t in (512, 1024, 2048, 4096)]
    ratios = ratio_stabilization(samples, Fraction(1))
    assert len(ratios) == 3
    for _, r in ratios:
        assert r == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# exact sweeps


def test_norm_samples_radial_pair_growth():
    sp = SpaceParams(1, 0)
    expr = parse_operator("T(z*conj(z)) * T(z*conj(z))", 1)
    ray = RaySpec(mi(0), mi(1), (4, 8, 16, 32))
    samples = norm_squared_samples(expr, ray, sp)
    assert samples == [(t, Fraction((t + 1) ** 4)) for t in (4, 8, 16, 32)]
    threaded = norm_squared_samples(expr, ray, sp, jobs=3)
    assert threaded == samples


def test_hankel_vector_norm_is_constant_for_conjugate_linear_symbol():
    sp = SpaceParams(1, 0)
    zbar = parse_symbol("conj(z)", 1)
    for a in (0, 1, 5, 40):
        assert hankel_vector_norm_sq(zbar, mi(a), sp) == 1


def test_hankel_vector_norm_grows_for_higher_conjugate_power():
    sp = SpaceParams(1, 0)
    f = parse_symbol("conj(z)^2", 1)
    values = [hankel_vector_norm_sq(f, mi(a), sp) for a in (4, 8, 16)]
    assert values == [Fraction(4 * 4 + 2), Fraction(4 * 8 + 2), Fraction(4 * 16 + 2)]


# ---------------------------------------------------------------------------
# Stirling-rate agreement across all monomial pairs with small components


def _toeplitz_pair_expr(n, th, vt, ph, ps):
    from fockop.operators import Composition, ToeplitzOp
    from fockop.symbols import SymbolPolynomial

    return Composition(
        ToeplitzOp(SymbolPolynomial.monomial(n, th, vt)),
        ToeplitzOp(SymbolPolynomial.monomial(n, ph, ps)),
    )


def test_toeplitz_rate_agreement_all_small_pairs():
    from itertools import product as iproduct

    from fockop.operators import SpaceParams

    pool = [mi(c) for c in range(3)]
    for m in (0, 2):
        sp = SpaceParams(1, m)
        for th, vt, ph, ps in iproduct(pool, repeat=4):
            expr = _toeplitz_pair_expr(1, th, vt, ph, ps)
            pred = predicted_exponent(RateKind.TOEPLITZ_MONO_PRODUCT, (th, vt, ph, ps))
            ray = default_ray(expr)
            samples = norm_squared_samples(expr, ray, sp)
            fit = fit_exponent(samples)
            assert abs(fit.fitted_exponent - float(pred.exponent)) <= 0.05, (m, th, vt, ph, ps, fit)
            ratios = [r for t, r in ratio_stabilization(samples, pred.exponent) if t >= 1024]
            assert all(0.98 <= r <= 1.02 for r in ratios), (m, th, vt, ph, ps, ratios)


def test_hankel_rate_agreement_all_small_pairs():
    from itertools import product as iproduct

    from fockop.operators import SpaceParams

    pool = [mi(c) for c in range(3)]
    for m in (0, 1, 2):
        sp = SpaceParams(1, m)
        for be, ga, mu, nu in iproduct(pool, repeat=4):
            pred = predicted_exponent(RateKind.HANKEL_MONO_PRODUCT, (be, ga, mu, nu))
            if pred.degenerate:
                continue
            base = mi(abs(ga[0] - be[0]) + abs(mu[0] - nu[0]))
            ray = RaySpec(base, mi(1), geometric_ts(64, 4096, 2))
            samples = [
                (t, closed_form_case_reference(be, ga, mu, nu, ray.alpha_at(t), sp)[1].abs_sq())
                for t in ray.t_values
            ]
            fit = fit_exponent(samples)
            assert abs(fit.fitted_exponent - float(pred.exponent)) <= 0.05, (m, be, ga, mu, nu, fit)
            ratios = [r for t, r in ratio_stabilization(samples, pred.exponent) if t >= 1024]
            assert all(0.98 <= r <= 1.02 for r in ratios), (m, be, ga, mu, nu, ratios)


def test_rate_agreement_two_dimensional_subset():
    from itertools import product as iproduct

    from fockop.operators import SpaceParams

    pool = [MultiIndex(c) for c in iproduct(range(2), repeat=2)]
    sp = SpaceParams(2, 1)
    for th, vt, ph, ps in iproduct(pool, repeat=4):
        pred = predicted_exponent(RateKind.TOEPLITZ_MONO_PRODUCT, (th, vt, ph, ps))
        expr = _toeplitz_pair_expr(2, th, vt, ph, ps)
        samples = norm_squared_samples(expr, default_ray(expr), sp)
        fit = fit_exponent(samples)
        assert abs(fit.fitted_exponent - float(pred.exponent)) <= 0.05, (th, vt, ph, ps, fit)


def test_hankel_rate_agreement_two_dimensional_subset():
    from itertools import product as iproduct

    from fockop.operators import SpaceParams

    pool = [MultiIndex(c) for c in iproduct(range(2), repeat=2)]
    sp = SpaceParams(2, 1)
    for be, ga, mu, nu in iproduct(pool, repeat=4):
        pred = predicted_exponent(RateKind.HANKEL_MONO_PRODUCT, (be, ga, mu, nu))
        if pred.degenerate:
            continue
        base = MultiIndex(
            abs(g - b) + abs(u - w) for b, g, u, w in zip(be, ga, mu, nu)
        )
        ray = RaySpec(base, MultiIndex.ones(2), geometric_ts(64, 4096, 2))
        samples = [
            (t, closed_form_case_reference(be, ga, mu, nu, ray.alpha_at(t), sp)[1].abs_sq())
            for t in ray.t_values
        ]
        fit = fit_exponent(samples)
        assert abs(fit.fitted_exponent - float(pred.exponent)) <= 0.05, (be, ga, mu, nu, fit)
