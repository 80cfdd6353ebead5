import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fockop.arith import (
    MultiIndex,
    RADICAL_ONE,
    RADICAL_ZERO,
    RadicalCoefficient,
    rising_product,
)
from fockop.errors import InputError, InternalInvariantError, SymbolSyntaxError
from fockop.operators import (
    BasisExpansion,
    Composition,
    HankelProductOp,
    SpaceParams,
    ToeplitzOp,
    _norm_ratio,
    apply_operator,
    basis_coefficient,
    hankel_coeff_closed_form,
    hankel_product_apply,
    monomial_inner,
    parse_operator,
    toeplitz_apply,
    toeplitz_mono_apply,
)
from fockop.oracle import OracleMethod, oracle_inner, oracle_toeplitz_coeff
from fockop.symbols import SymbolPolynomial, parse_symbol
from fockop.verify import indices_up_to_order


def mi(*comps):
    return MultiIndex(comps)


def e(sp, *comps):
    return BasisExpansion.basis_vector(sp, mi(*comps))


def rational_coeff(value) -> RadicalCoefficient:
    return RadicalCoefficient(Fraction(value), 1)


# ---------------------------------------------------------------------------
# inner products and basis constants


def test_space_params_value_semantics():
    import pickle

    sp = SpaceParams(2, 3)
    assert sp == SpaceParams(n=2, m=3) and hash(sp) == hash(SpaceParams(2, 3))
    assert sp != SpaceParams(3, 2) and sp != (2, 3)
    assert repr(sp) == "SpaceParams(n=2, m=3)"
    assert pickle.loads(pickle.dumps(sp)) == sp
    with pytest.raises(AttributeError):
        sp.m = 4
    with pytest.raises(InputError, match="dimension n must be >= 1"):
        SpaceParams(0, 0)
    with pytest.raises(InputError, match="weight order m must be >= 0"):
        SpaceParams(1, -1)


def test_constant_function_has_norm_one_any_weight():
    for n in (1, 2, 3):
        for m in (0, 1, 2, 3):
            zero = MultiIndex.zero(n)
            assert monomial_inner(zero, zero, SpaceParams(n, m)) == 1


def test_monomial_inner_frozen_value_and_quadrature_oracle():
    # independent oracle first: (1/pi) int |z|^4 e^{-|z|^2} dv = 2
    sp = SpaceParams(1, 0)
    est = oracle_inner(mi(2), mi(2), sp, OracleMethod.RADIAL_QUADRATURE)
    assert abs(est.value - 2.0) <= 1e-10
    assert monomial_inner(mi(2), mi(2), sp) == 2


def test_monomial_inner_orthogonality():
    assert monomial_inner(mi(1, 0), mi(0, 1), SpaceParams(2, 3)) == 0


def test_monomial_inner_closed_value_general():
    # a!(n-1)!(m+n-1+|a|)! / ((m+n-1)!(n-1+|a|)!) via direct big integers
    f = math.factorial
    for n, m in product((1, 2, 3), range(7)):
        sp = SpaceParams(n, m)
        for a in indices_up_to_order(n, 8):
            expected = Fraction(
                math.prod(f(c) for c in a) * f(n - 1) * f(m + n - 1 + sum(a)),
                f(m + n - 1) * f(n - 1 + sum(a)),
            )
            assert monomial_inner(a, a, sp) == expected
            assert basis_coefficient(a, sp).abs_sq() == 1 / expected


def test_basis_coefficient_values():
    assert basis_coefficient(mi(0), SpaceParams(1, 2)) == RADICAL_ONE
    assert basis_coefficient(mi(0, 0), SpaceParams(2, 1)) == RADICAL_ONE
    assert basis_coefficient(mi(1), SpaceParams(1, 0)) == RADICAL_ONE
    # displayed constant at alpha=(2), n=1, m=1 evaluates to sqrt(1/6)
    c = basis_coefficient(mi(2), SpaceParams(1, 1))
    f = math.factorial
    assert c.abs_sq() == Fraction(f(1) * f(2), f(2) * f(0) * f(3)) == Fraction(1, 6)
    assert c == RadicalCoefficient(Fraction(1, 6), 6)


def test_basis_normalizes_monomial_inner():
    for n, m in product((1, 2, 3), (0, 1, 2)):
        sp = SpaceParams(n, m)
        for comps in product(range(3), repeat=n):
            alpha = MultiIndex(comps)
            c = basis_coefficient(alpha, sp)
            assert c.abs_sq() * monomial_inner(alpha, alpha, sp) == 1


def test_orthonormality_small_grid_exact():
    sp = SpaceParams(2, 2)
    pool = [MultiIndex(c) for c in product(range(3), repeat=2)]
    for alpha in pool:
        for eta in pool:
            value = (basis_coefficient(alpha, sp) * basis_coefficient(eta, sp)).scale(
                monomial_inner(alpha, eta, sp)
            )
            assert value == (RADICAL_ONE if alpha == eta else RADICAL_ZERO)


# ---------------------------------------------------------------------------
# monomial Toeplitz action


def test_mono_apply_classical_creation():
    # m=0, n=1 reduces to the classical creation action sqrt(alpha+1)
    sp = SpaceParams(1, 0)
    est = oracle_toeplitz_coeff(mi(1), mi(0), mi(3), sp, OracleMethod.RADIAL_QUADRATURE)
    assert abs(est.value - 2.0) <= 1e-10
    target, coeff = toeplitz_mono_apply(mi(1), mi(0), mi(3), sp)
    assert target == mi(4)
    assert coeff == rational_coeff(2)


def test_mono_apply_annihilates_below_zero():
    for m in (0, 1, 3):
        assert toeplitz_mono_apply(mi(0), mi(2), mi(1), SpaceParams(1, m)) is None


def test_mono_apply_weighted_value():
    # m=1: coefficient is 2/sqrt(2) = sqrt(2); cross-checked by the oracle
    sp = SpaceParams(1, 1)
    target, coeff = toeplitz_mono_apply(mi(1), mi(0), mi(0), sp)
    assert target == mi(1)
    assert coeff.abs_sq() == 2
    est = oracle_toeplitz_coeff(mi(1), mi(0), mi(0), sp, OracleMethod.RADIAL_QUADRATURE)
    assert abs(est.value - math.sqrt(2)) <= 1e-10


def test_mono_apply_ladder_identities():
    sp = SpaceParams(1, 0)
    for a in range(0, 30):
        up = toeplitz_mono_apply(mi(1), mi(0), mi(a), sp)
        assert up[0] == mi(a + 1) and up[1].abs_sq() == a + 1
        if a:
            down = toeplitz_mono_apply(mi(0), mi(1), mi(a), sp)
            assert down[0] == mi(a - 1) and down[1].abs_sq() == a


def _transition_factor_lists(alpha, tau, sp):
    """The radicand of ||z^alpha|| / (||z^tau|| (A+1)...(A+m)), A = n-1+|alpha|,
    as explicit integer factors:
    alpha! (n-1+|alpha|)! (n-1+|tau|)! / (tau! (m+n-1+|alpha|)! (m+n-1+|tau|)!)."""
    num, den = [], []
    for a, t in zip(alpha, tau):
        num.extend(range(t + 1, a + 1))  # empty unless a > t
        den.extend(range(a + 1, t + 1))  # empty unless t > a
    for order in (sum(alpha), sum(tau)):
        base = sp.n - 1 + order
        den.extend(range(base + 1, base + sp.m + 1))
    return num, den


@st.composite
def _transitions(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from((0, 1, 7, 40)))
    alpha = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    # each target component is the source's, or any other
    tau = [a if draw(st.booleans()) else draw(st.integers(0, 15)) for a in alpha]
    return mi(*alpha), mi(*tau), SpaceParams(n, m)


@given(_transitions())
@example((mi(4, 4, 4), mi(4, 4, 4), SpaceParams(3, 40)))
@example((mi(0), mi(0), SpaceParams(1, 0)))
@example((mi(3, 9), mi(3, 2), SpaceParams(2, 7)))
def test_run_cached_transition_matches_the_factor_lists(case):
    alpha, tau, sp = case
    expected = RadicalCoefficient.from_sqrt_ratio(*_transition_factor_lists(alpha, tau, sp))
    weight = rising_product(sp.n - 1 + alpha.order, sp.m)
    assert _norm_ratio.__wrapped__(tau, alpha, sp).scale_ratio(1, weight) == expected
    assert _norm_ratio(tau, alpha, sp).scale_ratio(1, weight) == expected


def test_adjoint_symmetry_exact():
    # <T_{z^b conj(z)^g} e_a, e_h> == conj(<T_{z^g conj(z)^b} e_h, e_a>)
    for n, m in ((1, 0), (1, 2), (2, 1)):
        sp = SpaceParams(n, m)
        pool = [MultiIndex(c) for c in product(range(3), repeat=n)]
        small = [MultiIndex(c) for c in product(range(2), repeat=n)]
        for beta, gamma in product(small, small):
            op = ToeplitzOp(SymbolPolynomial.monomial(n, beta, gamma))
            op_conj = ToeplitzOp(SymbolPolynomial.monomial(n, gamma, beta))
            for alpha, eta in product(pool, pool):
                lhs = apply_operator(op, e(sp, *alpha)).coefficient(eta)
                rhs = apply_operator(op_conj, e(sp, *eta)).coefficient(alpha).conjugate()
                assert lhs == rhs


# ---------------------------------------------------------------------------
# applying polynomial symbols


def test_identity_symbol_acts_trivially():
    sp = SpaceParams(2, 1)
    v = e(sp, 3, 1)
    assert toeplitz_apply(parse_symbol("1", 2), v) == v


def test_constant_symbol_scales_by_its_coefficient():
    sp = SpaceParams(2, 1)
    v = e(sp, 3, 1)
    for c in (RADICAL_ONE, RadicalCoefficient(Fraction(-3, 2)), RadicalCoefficient(0, im=1),
              RadicalCoefficient(Fraction(2, 5), im=-3)):
        assert toeplitz_apply(SymbolPolynomial.constant(2, c), v) == BasisExpansion(sp, {mi(3, 1): c})


def test_radial_symbol_is_diagonal():
    sp = SpaceParams(1, 0)
    out = toeplitz_apply(parse_symbol("z*conj(z)", 1), e(sp, 3))
    assert out == BasisExpansion(sp, {mi(3): rational_coeff(4)})


def test_mixed_symbol_annihilates_partially():
    sp = SpaceParams(1, 0)
    out = toeplitz_apply(parse_symbol("z + conj(z)", 1), e(sp, 0))
    assert out == BasisExpansion(sp, {mi(1): RADICAL_ONE})


def test_apply_merges_contributions_to_one_target():
    # all three terms hit e_alpha; merge must stay exact
    sp = SpaceParams(1, 1)
    f = parse_symbol("z^2*conj(z)^2 + 2*z*conj(z) + 3", 1)
    out = toeplitz_apply(f, e(sp, 4))
    total = RADICAL_ZERO
    for term, coeff in [("z^2*conj(z)^2", 1), ("z*conj(z)", 2), ("1", 3)]:
        part = toeplitz_apply(parse_symbol(term, 1), e(sp, 4)).coefficient(mi(4))
        total = total + part.scale(coeff)
    assert out == BasisExpansion(sp, {mi(4): total})


def test_unlike_square_classes_are_rejected_on_merge():
    # T_{z^2+1} on (e_0 + e_2) funnels sqrt(2)-class and rational-class
    # contributions onto e_2: outside the engine's closure, must abort
    sp = SpaceParams(1, 0)
    v = BasisExpansion(sp, {mi(0): RADICAL_ONE, mi(2): RADICAL_ONE})
    with pytest.raises(InternalInvariantError, match="unlike radicands"):
        toeplitz_apply(parse_symbol("z^2 + 1", 1), v)


def _reference_toeplitz_apply(f, v):
    """T_f v as the merged sum of (c * k) * a over the images
    k e_tau = toeplitz_mono_apply(beta, gamma, alpha) of every pair of a
    source term c e_alpha and a symbol term a z^beta conj(z)^gamma."""
    out = {}
    for alpha, c in v.coeffs.items():
        for (beta, gamma), a in f.terms.items():
            hit = toeplitz_mono_apply(beta, gamma, alpha, v.space)
            if hit is not None:
                tau, k = hit
                out[tau] = out.get(tau, RADICAL_ZERO) + (c * k) * a
    return BasisExpansion(v.space, {tau: c for tau, c in out.items() if not c.is_zero()})


@pytest.mark.parametrize("n, m, first, second, source", [
    # a first T gives coefficients with square roots; the second acts on them
    (2, 1, "z1^2 + 3*z2*conj(z1)", "(1/2-3*i)*z1*conj(z2)", (2, 1)),
    (2, 6, "z1*z2 - i*conj(z2)^2 + 2", "(1/2-3*i)*z1*conj(z2) + 7*z2 - (2/3)*i*conj(z1)^2", (3, 2)),
    (3, 7, "z1 + z2*conj(z3) - z3^2", "(1/2-3*i)*z1*conj(z2) + z3*conj(z3) - 5/4", (1, 2, 3)),
    (1, 12, "(1+i)*z + conj(z)^2 + z^3", "z^2*conj(z) - (3/7)*i*z + 1", (4,)),
])
def test_fused_apply_matches_the_monomial_reference(n, m, first, second, source):
    sp = SpaceParams(n, m)
    f, g = parse_symbol(first, n), parse_symbol(second, n)
    v = toeplitz_apply(f, e(sp, *source))
    assert v == _reference_toeplitz_apply(f, e(sp, *source))
    assert any(c.radicand != 1 for c in v.coeffs.values())
    assert any(a.im_num for a in g.terms.values())
    assert toeplitz_apply(g, v) == _reference_toeplitz_apply(g, v)


def test_fused_apply_drops_merges_that_cancel():
    # n=1, m=0: T_{z conj(z)} e_a = (a+1) e_a, so z*conj(z) - 3 kills e_2,
    # here sqrt(2) e_2 = T_z e_1, and keeps sqrt(3) e_3 = T_z e_2 (4 - 3 = 1)
    sp = SpaceParams(1, 0)
    v = toeplitz_apply(parse_symbol("z", 1), BasisExpansion(sp, {mi(1): RADICAL_ONE, mi(2): RADICAL_ONE}))
    assert v.coefficient(mi(2)) == RadicalCoefficient(1, 2)
    f = parse_symbol("z*conj(z) - 3", 1)
    out = toeplitz_apply(f, v)
    assert out == _reference_toeplitz_apply(f, v)
    assert mi(2) not in out.coeffs
    assert out == BasisExpansion(sp, {mi(3): RadicalCoefficient(1, 3)})
    # two sources and two symbol terms cancel on e_2: z^2 sends e_0 to
    # sqrt(2) e_2, and -1 sends sqrt(2) e_2 to -sqrt(2) e_2
    w = BasisExpansion(sp, {mi(0): RADICAL_ONE, mi(2): RadicalCoefficient(1, 2)})
    h = parse_symbol("z^2 - 1", 1)
    out = toeplitz_apply(h, w)
    assert out == _reference_toeplitz_apply(h, w)
    assert out == BasisExpansion(sp, {mi(0): RadicalCoefficient(-1), mi(4): RadicalCoefficient(2, 6)})


@pytest.mark.parametrize(
    "build",
    [
        lambda: BasisExpansion(SpaceParams(2, 0), {mi(1): RADICAL_ONE}),
        lambda: BasisExpansion(SpaceParams(2, 0), {(1, -1): RADICAL_ONE}),
        lambda: SymbolPolynomial(2, {((1, 0), (0, -1)): RADICAL_ONE}),
        lambda: SymbolPolynomial(2, {(mi(1, 0), mi(0, 0, 1)): RADICAL_ONE}),
    ],
    ids=["short-index", "negative-index", "negative-exponent", "long-exponent"],
)
def test_public_constructors_reject_malformed_keys(build):
    with pytest.raises(InputError):
        build()


def test_symbol_constructor_stores_plain_tuple_keys_as_multi_indices():
    s = SymbolPolynomial(1, {((1,), (0,)): RADICAL_ONE})
    assert all(type(index) is MultiIndex for key in s.terms for index in key)
    assert not s.is_constant()
    assert s * s == parse_symbol("z^2", 1)
    assert (s * s).pretty() == "z^2"


def test_apply_dimension_mismatch():
    with pytest.raises(InputError, match="dimensions differ: 1 vs 2"):
        toeplitz_apply(parse_symbol("z1", 2), e(SpaceParams(1, 0), 0))


# ---------------------------------------------------------------------------
# Hankel products


def test_hankel_closed_form_conjugate_linear_pair_is_one():
    sp = SpaceParams(1, 0)
    assert hankel_coeff_closed_form(mi(0), mi(1), mi(0), mi(1), mi(5), sp) == (mi(5), RADICAL_ONE)


def test_hankel_closed_form_zero_when_nu_vanishes():
    sp = SpaceParams(2, 1)
    _, c = hankel_coeff_closed_form(mi(1, 0), mi(2, 1), mi(1, 1), mi(0, 0), mi(9, 9), sp)
    assert c is RADICAL_ZERO


def test_hankel_closed_form_frozen_composition_value():
    # oracle first: the composition route (two ladder steps and a
    # subtraction) gives X_6 = 26 for the conj(z)^2 pair at alpha = 6, m = 0
    sp = SpaceParams(1, 0)
    f = parse_symbol("conj(z)^2", 1)
    composed = hankel_product_apply(f, f, e(sp, 6))
    assert composed == BasisExpansion(sp, {mi(6): rational_coeff(26)})
    assert hankel_coeff_closed_form(mi(0), mi(2), mi(0), mi(2), mi(6), sp) == (mi(6), rational_coeff(26))


def test_hankel_closed_form_validity_range_enforced():
    sp = SpaceParams(1, 0)
    with pytest.raises(InputError, match="outside the closed form's validity range"):
        hankel_coeff_closed_form(mi(0), mi(1), mi(0), mi(1), mi(1), sp)


def test_hankel_product_vanishes_for_holomorphic_left_symbol():
    sp = SpaceParams(2, 1)
    f = parse_symbol("z1^2", 2)
    for g_text in ("z1*conj(z1)", "conj(z2)^2", "3"):
        g = parse_symbol(g_text, 2)
        for alpha in [(0, 0), (2, 3)]:
            assert hankel_product_apply(f, g, e(sp, *alpha)).is_zero()


def test_hankel_product_outside_closed_form_range():
    # alpha = 0 is outside the closed form's range; composition still works
    sp = SpaceParams(1, 0)
    zbar = parse_symbol("conj(z)", 1)
    assert hankel_product_apply(zbar, zbar, e(sp, 0)) == BasisExpansion(
        sp, {mi(0): RADICAL_ONE}
    )


def test_hankel_product_weighted_identity_case():
    sp = SpaceParams(1, 2)
    zbar = parse_symbol("conj(z)", 1)
    assert hankel_product_apply(zbar, zbar, e(sp, 10)) == BasisExpansion(
        sp, {mi(10): RADICAL_ONE}
    )


def test_closed_form_matches_composition_on_validity_range():
    # above m = 2 the weight runs of a norm ratio are shorter than m
    for n, m in ((1, 0), (1, 2), (2, 1), (1, 1000), (2, 40)):
        sp = SpaceParams(n, m)
        pool = [MultiIndex(c) for c in product(range(2), repeat=n)]
        for beta, gamma, mu, nu in product(pool, repeat=4):
            f = SymbolPolynomial.monomial(n, beta, gamma)
            g = SymbolPolynomial.monomial(n, mu, nu)
            need = [abs(x - y) + abs(u - w) for y, x, u, w in zip(beta, gamma, mu, nu)]
            for comps in product(range(5), repeat=n):
                alpha = MultiIndex(comps)
                if any(a < k for a, k in zip(alpha, need)):
                    continue
                target, closed = hankel_coeff_closed_form(beta, gamma, mu, nu, alpha, sp)
                image = hankel_product_apply(f, g, BasisExpansion.basis_vector(sp, alpha))
                assert target == MultiIndex(a + x + u - y - w for a, y, x, u, w in zip(alpha, beta, gamma, mu, nu))
                assert image.coefficient(target) == closed


# ---------------------------------------------------------------------------
# expressions, norms, matrix entries


def test_apply_operator_composition_order():
    sp = SpaceParams(1, 0)
    ident = ToeplitzOp(parse_symbol("1", 1))
    assert apply_operator(Composition(ident, ident), e(sp, 2)) == e(sp, 2)
    # T_zbar T_z e_0 = e_0 (apply the right factor first)
    expr = Composition(ToeplitzOp(parse_symbol("conj(z)", 1)), ToeplitzOp(parse_symbol("z", 1)))
    assert apply_operator(expr, e(sp, 0)) == e(sp, 0)
    hp = HankelProductOp(parse_symbol("conj(z)", 1), parse_symbol("conj(z)", 1))
    assert apply_operator(hp, e(sp, 0)) == e(sp, 0)


def test_squared_norm_parseval():
    sp = SpaceParams(1, 0)
    assert e(sp, 5).squared_norm() == 1
    v = BasisExpansion(sp, {mi(0): rational_coeff(2), mi(1): rational_coeff(3)})
    assert v.squared_norm() == 13
    expr = parse_operator("T(z*conj(z)) * T(z*conj(z))", 1)
    image = apply_operator(expr, e(sp, 3))
    assert image.squared_norm() == 256


def test_matrix_entries():
    sp = SpaceParams(1, 0)
    t_z = ToeplitzOp(parse_symbol("z", 1))
    t_zbar = ToeplitzOp(parse_symbol("conj(z)", 1))
    assert apply_operator(t_z, e(sp, 0)).coefficient(mi(1)) == RADICAL_ONE
    assert apply_operator(t_z, e(sp, 0)).coefficient(mi(0)) is RADICAL_ZERO
    assert apply_operator(t_zbar, e(sp, 1)).coefficient(mi(0)) == RADICAL_ONE


def test_parse_operator_mini_language():
    expr = parse_operator("T(z*conj(z)) * T(z*conj(z))", 1)
    assert isinstance(expr, Composition)
    assert isinstance(expr.outer, ToeplitzOp) and isinstance(expr.inner, ToeplitzOp)
    hp = parse_operator("HP(z + 2*conj(z); z^3 - conj(z))", 1)
    assert isinstance(hp, HankelProductOp)
    assert hp.left == parse_symbol("z + 2*conj(z)", 1)
    chain = parse_operator("T(1) * HP(conj(z1); conj(z2)) * T(z1)", 2)
    assert isinstance(chain, Composition) and chain.dimension == 2
    with pytest.raises(SymbolSyntaxError):
        parse_operator("T(z) *", 1)
    with pytest.raises(SymbolSyntaxError):
        parse_operator("HP(z)", 1)
    with pytest.raises(SymbolSyntaxError):
        parse_operator("Q(z)", 1)
    with pytest.raises(SymbolSyntaxError):
        parse_operator("T(z", 1)


@pytest.mark.parametrize(
    "text, pos",
    [
        ("HP(z;zz)", 5),
        ("T(z) * T(z + )", 13),
        ("T(z)*HP(z; conj(z); z)", 18),
        ("HP(z; z", 7),
    ],
)
def test_parse_operator_errors_carry_absolute_positions(text, pos):
    with pytest.raises(SymbolSyntaxError) as info:
        parse_operator(text, 1)
    assert info.value.text == text
    assert info.value.pos == pos


# Symbol text in the style of the benchmark's generator: sums of a
# coefficient times powers of z_j and conj(z_j).
_COEFFS = ("1", "2", "3", "1/2", "3/4", "5/3", "i", "(1-2*i)")


@st.composite
def symbol_texts(draw, n):
    terms = []
    for k in range(draw(st.integers(1, 4))):
        factors = []
        for _ in range(draw(st.integers(0, 3))):
            j = draw(st.integers(1, n))
            var = "z" if n == 1 else f"z{j}"
            var = f"conj({var})" if draw(st.booleans()) else var
            power = draw(st.integers(1, 3))
            factors.append(var if power == 1 else f"{var}^{power}")
        sign = draw(st.sampled_from(("", "-"))) if k else ""
        terms.append(sign + "*".join([draw(st.sampled_from(_COEFFS))] + factors))
    return " + ".join(terms).replace("+ -", "- ")


_SHAPES = {
    "T({f})": lambda f, g: ToeplitzOp(f),
    "HP({f}; {g})": HankelProductOp,
    "T({f}) * T({g})": lambda f, g: Composition(ToeplitzOp(f), ToeplitzOp(g)),
}


@st.composite
def operator_texts(draw):
    n = draw(st.integers(1, 3))
    f = draw(symbol_texts(n))
    g = draw(symbol_texts(n))
    shape = draw(st.sampled_from(sorted(_SHAPES)))
    return n, f, g, shape


@given(operator_texts())
def test_parse_operator_agrees_with_parse_symbol(case):
    n, f_text, g_text, shape = case
    expected = _SHAPES[shape](parse_symbol(f_text, n), parse_symbol(g_text, n))
    assert parse_operator(shape.format(f=f_text, g=g_text), n) == expected


@given(operator_texts(), st.data())
def test_parse_operator_corruption_fails_with_a_position(case, data):
    n, f_text, g_text, shape = case
    text = shape.format(f=f_text, g=g_text)
    k = data.draw(st.integers(0, len(text)))
    ch = data.draw(st.sampled_from("()*;^+-/ 0123456789zicTHPQ$"))
    how = data.draw(st.sampled_from(("insert", "replace", "delete")))
    if how == "insert":
        bad = text[:k] + ch + text[k:]
    elif how == "replace":
        bad = text[:k] + ch + text[k + 1 :]
    else:
        bad = text[:k] + text[k + 1 :]
    try:
        parse_operator(bad, n)
    except SymbolSyntaxError as err:
        assert err.text == bad
        assert 0 <= err.pos <= len(bad)


# ---------------------------------------------------------------------------
# the monomial-basis engine against the per-term radical reference


def _reference_apply(shape, f, g, v):
    """The operator ``_SHAPES[shape](f, g)`` applied to v on the per-term
    radical path of ``_reference_toeplitz_apply``.  For ``HP`` the
    contributions of T_{conj(f) g} v and of -T_{conj(f)} (T_g v) are
    merged in one sum, in that order, as the engine merges them."""
    if shape == "T({f})":
        return _reference_toeplitz_apply(f, v)
    if shape == "T({f}) * T({g})":
        return _reference_toeplitz_apply(f, _reference_toeplitz_apply(g, v))
    f_conj = f.conjugate()
    out = {}
    for sign, h, u in ((1, f_conj * g, v), (-1, f_conj, _reference_toeplitz_apply(g, v))):
        for alpha, c in u.coeffs.items():
            for (beta, gamma), a in h.terms.items():
                hit = toeplitz_mono_apply(beta, gamma, alpha, v.space)
                if hit is not None:
                    tau, k = hit
                    out[tau] = out.get(tau, RADICAL_ZERO) + ((c * k) * a).scale(sign)
    return BasisExpansion(v.space, {tau: c for tau, c in out.items() if not c.is_zero()})


@st.composite
def _engine_cases(draw):
    n = draw(st.integers(1, 3))
    sp = SpaceParams(n, draw(st.sampled_from((0, 1, 7, 40, 1000))))
    f = parse_symbol(draw(symbol_texts(n)), n)
    g = parse_symbol(draw(symbol_texts(n)), n)
    index = st.lists(st.integers(0, 6), min_size=n, max_size=n).map(MultiIndex)
    if draw(st.booleans()):
        v = BasisExpansion.basis_vector(sp, draw(index))
    else:  # hand-built, its coefficients of any square classes
        value = st.builds(
            RadicalCoefficient,
            st.fractions(-3, 3, max_denominator=4),
            st.sampled_from((1, 2, 3, 6, Fraction(1, 5))),
            im=st.sampled_from((0, 1, Fraction(-2, 3))),
        ).filter(lambda c: not c.is_zero())
        v = BasisExpansion(sp, draw(st.dictionaries(index, value, min_size=1, max_size=3)))
    return draw(st.sampled_from(sorted(_SHAPES))), f, g, v


@given(_engine_cases())
@example(("T({f})", parse_symbol("z^2 + 1", 1), parse_symbol("1", 1),
          BasisExpansion(SpaceParams(1, 1000), {mi(0): RADICAL_ONE, mi(2): RADICAL_ONE})))
@example(("HP({f}; {g})", parse_symbol("conj(z1)*z2 + z1", 2), parse_symbol("conj(z2)^2 + 1", 2),
          BasisExpansion.basis_vector(SpaceParams(2, 1000), mi(3, 4))))
@example(("T({f}) * T({g})", parse_symbol("z1 + z2*conj(z3) - z3^2", 3), parse_symbol("conj(z1)*z2 - 2", 3),
          BasisExpansion(SpaceParams(3, 40), {mi(1, 2, 3): RADICAL_ONE, mi(2, 1, 3): RadicalCoefficient(1, 2)})))
def test_engine_matches_the_per_term_radical_reference(case):
    shape, f, g, v = case
    try:
        expected = _reference_apply(shape, f, g, v)
    except InternalInvariantError:  # the input mixes square classes that meet
        with pytest.raises(InternalInvariantError, match="unlike radicands"):
            apply_operator(_SHAPES[shape](f, g), v)
        return
    image = apply_operator(_SHAPES[shape](f, g), v)
    # one coefficient at a time first, then the whole expansion
    for tau, c in expected.coeffs.items():
        assert image.coefficient(tau) == c
    assert len(image.monomials) == len(expected.coeffs)
    assert image.squared_norm() == sum(c.abs_sq() for c in expected.coeffs.values())
    assert image == expected


def test_norm_samples_take_no_square_root():
    from fockop.analysis import default_ray, norm_squared_samples
    from fockop.arith import run_square_free_split

    expr = parse_operator("HP(conj(z1)*z2 + z1; conj(z2)^2 + 1) * T(z1 - (1/2)*i*conj(z2))", 2)
    sp = SpaceParams(2, 1000)
    caches = (_norm_ratio, run_square_free_split)

    def lookups():
        return [info.hits + info.misses for info in (c.cache_info() for c in caches)]

    ray = default_ray(expr, (1, 2, 3))
    before = lookups()
    samples = norm_squared_samples(expr, ray, sp)
    assert lookups() == before
    # the values the radical path gives, one square root per coefficient
    for t, value in samples:
        image = apply_operator(expr, BasisExpansion.basis_vector(sp, ray.alpha_at(t)))
        assert value == sum(c.abs_sq() for c in image.coeffs.values())
    assert lookups() != before
