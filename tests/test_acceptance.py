"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Two narrow claims from the source material are provably false
and are pinned here as strict xfails with the exact counterexample
values asserted alongside (see notes in the repository docs):

* the coefficient-vanishing converse fails for m = 0 in dimension >= 2
  when the two conjugate exponents have disjoint supports (the product
  operator is then identically zero on the validity range);
* the conjugate-linear pair identity H*H e_alpha = e_alpha fails at
  alpha = 0 for m >= 1 (the exact value is (m+1) e_0), and the
  conjugate-pair product in dimension >= 2 has exactly bounded basis
  norms, so no growth exponent >= 0.4 exists for that truth-table row.
"""

import pytest

from fockop.analysis import (
    RaySpec,
    SingleOperatorKind,
    classify_hankel_product,
    classify_single,
    classify_toeplitz_product,
    default_ray,
    fit_exponent,
    geometric_ts,
    hankel_validity_base,
    hankel_vector_norm_sq,
    norm_squared_samples,
    predicted_exponent,
    ratio_stabilization,
    RateKind,
)
from fockop.arith import MultiIndex, RADICAL_ONE
from fockop.operators import (
    BasisExpansion,
    SpaceParams,
    hankel_coeff_closed_form,
    hankel_product_apply,
    parse_operator,
)
from fockop.oracle import DEFAULT_SEED, OracleConfig
from fockop.parallel import usable_cpus
from fockop.symbols import parse_symbol
from fockop.verify import (
    sweep_hankel_closed_form,
    verify_oracle_deterministic,
    verify_oracle_monte_carlo,
    verify_orthonormality,
)


def mi(*comps):
    return MultiIndex(comps)


def report(line: str) -> None:
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# criterion 1: exact orthonormality


def test_criterion_1_orthonormality():
    result = verify_orthonormality(n_values=(1, 2, 3), m_values=(0, 1, 2, 3), max_order=8)
    assert result.passed, result.failures[:3]
    report(
        f"ACCEPTANCE 1 orthonormality: PASS "
        f"({result.pairs_checked} basis pairs, exact rational equality)"
    )


# ---------------------------------------------------------------------------
# criterion 2: closed form == composition, vanishing bookkeeping


@pytest.fixture(scope="module")
def closed_form_sweep():
    # the same grid at any job count: results merge in the serial order
    return sweep_hankel_closed_form(
        n_values=(1, 2), m_values=(0, 1, 2), max_component=2, max_alpha=12, jobs=usable_cpus()
    )


def test_criterion_2_closed_form_equals_composition(closed_form_sweep):
    sweep = closed_form_sweep
    assert sweep.closed_form_matches, sweep.mismatches[:3] + sweep.stray_support[:3]
    # vanishing criterion: the stated directions, with the one documented
    # exception family (m=0, disjoint conjugate supports) asserted exactly
    assert not sweep.vanish_false_nonzero, sweep.vanish_false_nonzero[:3]
    assert not sweep.vanish_false_zero_strict, sweep.vanish_false_zero_strict[:3]
    assert not sweep.degenerate_nonzero, sweep.degenerate_nonzero[:3]
    assert sweep.degenerate_zero_cases > 0  # the documented family is real
    report(
        f"ACCEPTANCE 2 closed form == composition: PASS "
        f"({sweep.cases} cases exact; vanishing criterion holds except the "
        f"documented m=0 disjoint-support family, {sweep.degenerate_zero_cases} "
        f"cases asserted identically zero)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="vanishing converse is false at m=0 for disjoint conjugate supports "
    "(e.g. H*_(conj z1) H_(conj z2) is identically zero on classical Fock of C^2); "
    "counterexample pinned in test_documented_m0_disjoint_counterexample",
)
def test_criterion_2_vanishing_criterion_as_stated(closed_form_sweep):
    assert closed_form_sweep.vanishing_as_stated


def test_documented_m0_disjoint_counterexample():
    # exact ladder computation: unequal-variable conjugate pair at m=0
    sp = SpaceParams(2, 0)
    f = parse_symbol("conj(z1)", 2)
    g = parse_symbol("conj(z2)", 2)
    for alpha in [(2, 2), (5, 1), (12, 12)]:
        image = hankel_product_apply(f, g, BasisExpansion.basis_vector(sp, mi(*alpha)))
        assert image.is_zero()
    # the same pair at m=1 is nonzero, matching the stated criterion there
    sp1 = SpaceParams(2, 1)
    image = hankel_product_apply(f, g, BasisExpansion.basis_vector(sp1, mi(5, 5)))
    assert not image.is_zero()


# ---------------------------------------------------------------------------
# criterion 3: conjugate-linear pair identity


def test_criterion_3_conjugate_pair_identity():
    zbar = parse_symbol("conj(z)", 1)
    checked = 0
    for m in range(4):
        sp = SpaceParams(1, m)
        start = 0 if m == 0 else 1
        for a in range(start, 51):
            image = hankel_product_apply(zbar, zbar, BasisExpansion.basis_vector(sp, mi(a)))
            assert image == BasisExpansion(sp, {mi(a): RADICAL_ONE}), (m, a)
            checked += 1
        # closed form agrees on its validity range
        for a in range(2, 51):
            assert hankel_coeff_closed_form(mi(0), mi(1), mi(0), mi(1), mi(a), sp) == RADICAL_ONE
        # boundary alpha = 0 for m >= 1: exact value is (m+1) e_0
        if m >= 1:
            image = hankel_product_apply(zbar, zbar, BasisExpansion.basis_vector(sp, mi(0)))
            coeff = image.coefficient(mi(0))
            assert coeff.radicand == 1 and coeff.rational.re == m + 1
    report(
        f"ACCEPTANCE 3 conjugate-pair identity: PASS ({checked} exact identities; "
        f"alpha=0 boundary for m>=1 pinned at (m+1)e_0, outside the closed form's range)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the identity fails at alpha=0 for m>=1: the exact image is (m+1) e_0",
)
def test_criterion_3_alpha_zero_literal():
    zbar = parse_symbol("conj(z)", 1)
    for m in (1, 2, 3):
        sp = SpaceParams(1, m)
        image = hankel_product_apply(zbar, zbar, BasisExpansion.basis_vector(sp, mi(0)))
        assert image == BasisExpansion(sp, {mi(0): RADICAL_ONE})


# ---------------------------------------------------------------------------
# criterion 4: oracle agreement


def test_criterion_4_oracle_agreement():
    det = verify_oracle_deterministic(m_values=(0, 1, 2, 3), max_order=10, rel_tol=1e-10)
    assert det.passed, det.failures[:3]
    cfg = OracleConfig(seed=DEFAULT_SEED, samples=10_000_000)
    mc = verify_oracle_monte_carlo(n=2, m_values=(0, 1, 2), max_order=4, cfg=cfg)
    assert mc.passed, mc.failures[:3]
    report(
        f"ACCEPTANCE 4 oracle agreement: PASS ({det.cases} deterministic cases, "
        f"max rel err {det.max_relative_error:.2e}; {mc.cases} Monte Carlo cases, "
        f"max pull {mc.max_sigmas:.2f} standard errors at 1e7 samples, seed {cfg.seed})"
    )


# ---------------------------------------------------------------------------
# criterion 5: Toeplitz-product growth rate


def test_criterion_5_toeplitz_product_rate():
    expr = parse_operator("T(z*conj(z)) * T(z*conj(z))", 1)
    predicted = predicted_exponent(
        RateKind.TOEPLITZ_MONO_PRODUCT, (mi(1), mi(1), mi(1), mi(1))
    )
    assert predicted.exponent == 2
    details = []
    for m in (0, 2):
        sp = SpaceParams(1, m)
        ray = default_ray(expr)
        samples = norm_squared_samples(expr, ray, sp)
        fit = fit_exponent(samples, predicted.exponent)
        assert abs(fit.fitted_exponent - 2.0) <= 0.05, (m, fit.fitted_exponent)
        ratios = [r for t, r in ratio_stabilization(samples, predicted.exponent) if t >= 1024]
        assert ratios and all(0.98 <= r <= 1.02 for r in ratios), (m, ratios)
        details.append(f"m={m}: fit {fit.fitted_exponent:.4f}, ratios {min(ratios):.4f}..{max(ratios):.4f}")
    report("ACCEPTANCE 5 Toeplitz-product rate = 2 +/- 0.05, 2% ratio window: PASS (" + "; ".join(details) + ")")


# ---------------------------------------------------------------------------
# criterion 6: Hankel growth rates


def test_criterion_6_hankel_rates():
    sp = SpaceParams(1, 0)
    details = []

    expr2 = parse_operator("HP(conj(z)^2; conj(z)^2)", 1)
    pred2 = predicted_exponent(RateKind.HANKEL_MONO_PRODUCT, (mi(0), mi(2), mi(0), mi(2)))
    assert pred2.exponent == 1
    samples = norm_squared_samples(expr2, default_ray(expr2), sp)
    fit2 = fit_exponent(samples, pred2.exponent)
    assert abs(fit2.fitted_exponent - 1.0) <= 0.05, fit2.fitted_exponent
    details.append(f"conj(z)^2 pair: fit {fit2.fitted_exponent:.4f}")

    expr1 = parse_operator("HP(conj(z); conj(z))", 1)
    pred1 = predicted_exponent(RateKind.HANKEL_MONO_PRODUCT, (mi(0), mi(1), mi(0), mi(1)))
    assert pred1.exponent == 0
    samples = norm_squared_samples(expr1, default_ray(expr1), sp)
    fit1 = fit_exponent(samples, pred1.exponent)
    assert abs(fit1.fitted_exponent) <= 0.02, fit1.fitted_exponent
    details.append(f"conj(z) pair: fit {fit1.fitted_exponent:.4f}")

    report("ACCEPTANCE 6 Hankel rates (1 +/- 0.05, 0 +/- 0.02): PASS (" + "; ".join(details) + ")")


# ---------------------------------------------------------------------------
# criterion 7: classifier truth table with numeric corroboration


# (kind, n, m, f, g, expected, numeric profile)
TRUTH_TABLE = [
    ("toeplitz-product", 1, 0, "3", "5", True, "bounded"),
    ("toeplitz-product", 2, 1, "z1", "1", False, "growing"),
    ("toeplitz-product", 1, 0, "z*conj(z)", "z*conj(z)", False, "growing"),
    ("toeplitz-product", 1, 2, "0", "conj(z)", True, "zero"),
    ("toeplitz", 2, 0, "conj(z2)", None, False, "growing"),
    ("toeplitz", 3, 1, "7/2", None, True, "bounded"),
    ("hankel-product", 2, 1, "z1^2", "z1*conj(z1)", True, "zero"),
    ("hankel-product", 1, 0, "z+2*conj(z)", "z^3-conj(z)", True, "bounded"),
    ("hankel-product", 2, 0, "conj(z1)", "conj(z1)", False, "counterexample"),
    ("hankel-product", 1, 1, "conj(z)^2", "conj(z)^2", False, "growing"),
    ("hankel", 1, 0, "z^5+7*conj(z)", None, True, "bounded"),
    ("hankel", 2, 2, "conj(z1)*z2", None, False, "growing"),
    ("hankel-compact", 1, 3, "z^5+7*conj(z)", None, False, "bounded-positive"),
    ("hankel-compact", 2, 0, "z1^3*z2", None, True, "zero"),
    ("hankel-compact", 1, 0, "conj(z)^2", None, False, "growing"),
    ("hankel", 1, 2, "z^2*conj(z)", None, False, "growing"),
]


def _classify_row(kind, n, f_text, g_text):
    f = parse_symbol(f_text, n)
    if kind == "toeplitz-product":
        return classify_toeplitz_product(f, parse_symbol(g_text, n))
    if kind == "hankel-product":
        return classify_hankel_product(f, parse_symbol(g_text, n))
    single = {
        "toeplitz": SingleOperatorKind.TOEPLITZ,
        "hankel": SingleOperatorKind.HANKEL,
        "hankel-compact": SingleOperatorKind.HANKEL_COMPACT,
    }[kind]
    return classify_single(single, f)


def _row_norm_samples(kind, n, m, f_text, g_text):
    """Squared norms along the default ray for the row's operator."""
    sp = SpaceParams(n, m)
    ts = geometric_ts()
    if kind in ("toeplitz-product", "hankel-product", "toeplitz"):
        if kind == "toeplitz-product":
            op = f"T({f_text}) * T({g_text})"
        elif kind == "hankel-product":
            op = f"HP({f_text}; {g_text})"
        else:
            op = f"T({f_text})"
        expr = parse_operator(op, n)
        return norm_squared_samples(expr, default_ray(expr, ts), sp)
    # single Hankel rows: ||H_f e_alpha||^2 from the product's diagonal
    f = parse_symbol(f_text, n)
    ray = RaySpec(hankel_validity_base(f, f), MultiIndex.ones(n), ts)
    return [(t, hankel_vector_norm_sq(f, ray.alpha_at(t), sp)) for t in ts]


def _check_numeric_profile(profile, samples):
    values = [v for _, v in samples]
    if profile == "zero":
        assert all(v == 0 for v in values)
        return "exactly zero"
    if profile in ("bounded", "bounded-positive"):
        assert values[0] > 0
        assert max(values) <= 4 * values[0]
        if profile == "bounded-positive":
            assert min(values) > 0
        return f"bounded ({min(values)}..{max(values)})"
    if profile == "growing":
        fit = fit_exponent(samples)
        assert fit.fitted_exponent is not None and fit.fitted_exponent >= 0.4, fit
        return f"exponent {fit.fitted_exponent:.3f} >= 0.4"
    raise AssertionError(f"unknown profile {profile}")


def test_criterion_7_truth_table():
    assert len(TRUTH_TABLE) >= 12
    lines = []
    for kind, n, m, f_text, g_text, expected, profile in TRUTH_TABLE:
        verdict = _classify_row(kind, n, f_text, g_text)
        assert verdict.bounded == expected, (kind, f_text, g_text, verdict)
        if profile == "counterexample":
            # verdict follows the stated classification rule; the growth check is
            # provably impossible (see the strict xfail below) and the true
            # constant norm sequence is pinned here instead
            samples = _row_norm_samples(kind, n, m, f_text, g_text)
            assert all(v == 1 for _, v in samples)
            note = "constant 1 (see xfail note)"
        else:
            samples = _row_norm_samples(kind, n, m, f_text, g_text)
            note = _check_numeric_profile(profile, samples)
        if kind == "hankel-compact":
            word = "compact" if expected else "not compact"
        else:
            word = "bounded" if expected else "unbounded"
        lines.append(f"  {kind} n={n} m={m} f={f_text}" + (f" g={g_text}" if g_text else "") + f": {word}, {note}")
    report("ACCEPTANCE 7 truth table: PASS (" + str(len(TRUTH_TABLE)) + " rows)\n" + "\n".join(lines))


@pytest.mark.xfail(
    strict=True,
    reason="H*_(conj z1) H_(conj z1) on C^2 has exactly constant basis norms "
    "(it is the identity at m=0), so the 'unbounded implies growth >= 0.4' "
    "corroboration cannot hold for this stated truth-table row",
)
def test_criterion_7_conjugate_pair_growth_literal():
    samples = _row_norm_samples("hankel-product", 2, 0, "conj(z1)", "conj(z1)")
    fit = fit_exponent(samples)
    assert fit.fitted_exponent is not None and fit.fitted_exponent >= 0.4
