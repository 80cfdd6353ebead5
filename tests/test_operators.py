import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockop.arith import (
    GaussianRational,
    MultiIndex,
    RADICAL_ONE,
    RADICAL_ZERO,
    RadicalCoefficient,
)
from fockop.errors import (
    DimensionMismatchError,
    InputError,
    RadicandMismatchError,
    SymbolSyntaxError,
    ValidityRangeError,
)
from fockop.operators import (
    BasisExpansion,
    Composition,
    HankelProductOp,
    SpaceParams,
    ToeplitzOp,
    apply_operator,
    basis_coefficient,
    hankel_coeff_closed_form,
    hankel_product_apply,
    hankel_product_target,
    matrix_entry,
    monomial_inner,
    parse_operator,
    toeplitz_apply,
    toeplitz_mono_apply,
)
from fockop.oracle import OracleMethod, oracle_inner, oracle_toeplitz_coeff
from fockop.symbols import SymbolPolynomial, parse_symbol


def mi(*comps):
    return MultiIndex(comps)


def e(sp, *comps):
    return BasisExpansion.basis_vector(sp, mi(*comps))


def rational_coeff(value) -> RadicalCoefficient:
    return RadicalCoefficient.normalize(Fraction(value), 1)


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
    for n, m, a in [(2, 1, (1, 0)), (2, 2, (3, 1)), (3, 1, (2, 0, 1))]:
        sp = SpaceParams(n, m)
        aa = MultiIndex(a)
        f = math.factorial
        expected = Fraction(
            math.prod(f(c) for c in a) * f(n - 1) * f(m + n - 1 + sum(a)),
            f(m + n - 1) * f(n - 1 + sum(a)),
        )
        assert monomial_inner(aa, aa, sp) == expected


def test_basis_coefficient_values():
    assert basis_coefficient(mi(0), SpaceParams(1, 2)) == RADICAL_ONE
    assert basis_coefficient(mi(0, 0), SpaceParams(2, 1)) == RADICAL_ONE
    assert basis_coefficient(mi(1), SpaceParams(1, 0)) == RADICAL_ONE
    # displayed constant at alpha=(2), n=1, m=1 evaluates to sqrt(1/6)
    c = basis_coefficient(mi(2), SpaceParams(1, 1))
    f = math.factorial
    assert c.abs_sq() == Fraction(f(1) * f(2), f(2) * f(0) * f(3)) == Fraction(1, 6)
    assert c == RadicalCoefficient(GaussianRational.of(Fraction(1, 6)), 6)


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
                lhs = matrix_entry(op, alpha, eta, sp)
                rhs = matrix_entry(op_conj, eta, alpha, sp).conjugate()
                assert lhs == rhs


# ---------------------------------------------------------------------------
# applying polynomial symbols


def test_identity_symbol_acts_trivially():
    sp = SpaceParams(2, 1)
    v = e(sp, 3, 1)
    assert toeplitz_apply(parse_symbol("1", 2), v) == v


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
    with pytest.raises(RadicandMismatchError):
        toeplitz_apply(parse_symbol("z^2 + 1", 1), v)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        toeplitz_apply(parse_symbol("z1", 2), e(SpaceParams(1, 0), 0))


# ---------------------------------------------------------------------------
# Hankel products


def test_hankel_closed_form_conjugate_linear_pair_is_one():
    sp = SpaceParams(1, 0)
    assert hankel_coeff_closed_form(mi(0), mi(1), mi(0), mi(1), mi(5), sp) == RADICAL_ONE


def test_hankel_closed_form_zero_when_nu_vanishes():
    sp = SpaceParams(2, 1)
    c = hankel_coeff_closed_form(mi(1, 0), mi(2, 1), mi(1, 1), mi(0, 0), mi(9, 9), sp)
    assert c is RADICAL_ZERO


def test_hankel_closed_form_frozen_composition_value():
    # oracle first: the composition route (two ladder steps and a
    # subtraction) gives X_6 = 26 for the conj(z)^2 pair at alpha = 6, m = 0
    sp = SpaceParams(1, 0)
    f = parse_symbol("conj(z)^2", 1)
    composed = hankel_product_apply(f, f, e(sp, 6))
    assert composed == BasisExpansion(sp, {mi(6): rational_coeff(26)})
    assert hankel_coeff_closed_form(mi(0), mi(2), mi(0), mi(2), mi(6), sp) == rational_coeff(26)


def test_hankel_closed_form_validity_range_enforced():
    sp = SpaceParams(1, 0)
    with pytest.raises(ValidityRangeError):
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
    for n, m in ((1, 0), (1, 2), (2, 1)):
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
                closed = hankel_coeff_closed_form(beta, gamma, mu, nu, alpha, sp)
                image = hankel_product_apply(f, g, BasisExpansion.basis_vector(sp, alpha))
                target = hankel_product_target(beta, gamma, mu, nu, alpha)
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
    assert matrix_entry(t_z, mi(0), mi(1), sp) == RADICAL_ONE
    assert matrix_entry(t_z, mi(0), mi(0), sp) is RADICAL_ZERO
    assert matrix_entry(t_zbar, mi(1), mi(0), sp) == RADICAL_ONE


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
