from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockop.arith import GaussianRational, MultiIndex
from fockop.errors import InputError, SymbolSyntaxError
from fockop.operators import parse_operator
from fockop.symbols import (
    MAX_SYMBOL_DEGREE,
    MAX_SYMBOL_TERMS,
    SymbolPolynomial,
    graded_decompose,
    parse_symbol,
)


def mi(*comps):
    return MultiIndex(comps)


def g(re, im=0):
    return GaussianRational.of(re, im)


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_term():
    p = parse_symbol("z1*conj(z1)", 1)
    assert p.terms == {(mi(1), mi(1)): g(1)}


def test_parse_collects_terms():
    p = parse_symbol("2 + 3*i*z2^2", 2)
    assert p.terms == {
        (mi(0, 0), mi(0, 0)): g(2),
        (mi(0, 2), mi(0, 0)): g(0, 3),
    }


def test_parse_cancellation_gives_zero():
    p = parse_symbol("z1 - z1", 1)
    assert p.is_zero()
    assert p.terms == {}


def test_parse_bare_z_only_in_dimension_one():
    assert parse_symbol("z", 1) == parse_symbol("z1", 1)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z", 2)


def test_parse_rationals_products_powers():
    p = parse_symbol("3/4*z^2*conj(z)^3 - (1/2 - i)*z", 1)
    assert p.terms == {
        (mi(2), mi(3)): g(Fraction(3, 4)),
        (mi(1), mi(0)): g(Fraction(-1, 2), 1),
    }


def test_parse_power_of_parenthesized_expression():
    p = parse_symbol("(z + conj(z))^2", 1)
    assert p.terms == {
        (mi(2), mi(0)): g(1),
        (mi(1), mi(1)): g(2),
        (mi(0), mi(2)): g(1),
    }


def test_parse_errors_carry_positions():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("z1 + $", 2)
    assert err.value.pos == 5
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z3", 2)  # index out of 1..2
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z0", 2)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z^-1", 1)  # negative exponent
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("1/0", 1)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("conj(3)", 1)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z1 z2", 2)  # missing '*'
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("w", 1)


def test_power_degree_bound_is_checked_before_expanding():
    assert parse_symbol(f"z^{MAX_SYMBOL_DEGREE}", 1) == SymbolPolynomial.monomial(
        1, (MAX_SYMBOL_DEGREE,), (0,)
    )
    assert parse_symbol(f"(z*conj(z))^{MAX_SYMBOL_DEGREE // 2}", 1).terms
    for text, pos in (
        ("z^100000000", 2),
        (f"(z*conj(z))^{MAX_SYMBOL_DEGREE // 2 + 1}", 12),
        (f"1 + 2^{MAX_SYMBOL_DEGREE + 1}", 6),  # a constant counts as degree 1
        ("((z^16)^16)^2", 12),
    ):
        with pytest.raises(SymbolSyntaxError) as err:
            parse_symbol(text, 1)
        assert err.value.pos == pos
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("1" * 5000, 1)  # past the interpreter's int-from-text limit
    assert err.value.pos == 0


def _powers_of_z1(count):
    return "+".join(f"z1^{i}" for i in range(count))


def test_term_bound_is_checked_before_expanding():
    # degree 40 passes MAX_SYMBOL_DEGREE, but the power has millions of terms
    text = "(z1+z2+z3+conj(z1)+conj(z2)+conj(z3)+1)^40"
    with pytest.raises(SymbolSyntaxError, match="MAX_SYMBOL_TERMS") as err:
        parse_symbol(text, 3)
    assert err.value.pos == text.index("40")
    # every power of a two-term base that the degree bound allows still parses
    assert len(parse_symbol(f"(z1+conj(z1))^{MAX_SYMBOL_DEGREE}", 2).terms) == MAX_SYMBOL_DEGREE + 1
    width = MAX_SYMBOL_TERMS // 100
    wide = _powers_of_z1(width)
    assert len(parse_symbol(f"({wide})*({_powers_of_z1(100)})", 2).terms) == width + 99
    text = f"({wide})*({_powers_of_z1(101)})"
    with pytest.raises(SymbolSyntaxError, match="MAX_SYMBOL_TERMS") as err:
        parse_symbol(text, 2)
    assert err.value.pos == len(wide) + 2
    text = f"HP({wide}; {_powers_of_z1(101)})"  # applying it multiplies the two symbols
    with pytest.raises(SymbolSyntaxError, match="MAX_SYMBOL_TERMS") as err:
        parse_operator(text, 2)
    assert err.value.pos == text.index(";")


@st.composite
def dense_symbol_texts(draw, n):
    """Sums of 1-20 monomials of degree <= 4 with small coefficients, the
    shape of the symbols the benchmark draws."""
    terms = []
    for k in range(draw(st.integers(1, 20))):
        factors = []
        for _ in range(draw(st.integers(0, 4))):
            var = f"z{draw(st.integers(1, n))}"
            factors.append(f"conj({var})" if draw(st.booleans()) else var)
        sign = draw(st.sampled_from(("", "-"))) if k else ""
        coeff = draw(st.sampled_from(("1", "3", "1/2", "5/3", "i", "(1-2*i)")))
        terms.append(sign + "*".join([coeff] + factors))
    return "+".join(terms).replace("+-", "-")


@given(st.data())
def test_dense_symbols_stay_within_the_term_bound(data):
    n = data.draw(st.integers(2, 3))
    f, g = data.draw(dense_symbol_texts(n)), data.draw(dense_symbol_texts(n))
    assert parse_symbol(f"({f})*({g})", n) == parse_symbol(f, n) * parse_symbol(g, n)
    parse_operator(f"T({f}) * T({g})", n)
    parse_operator(f"HP({f}; {g})", n)


# ---------------------------------------------------------------------------
# structure operations


def test_conjugate_examples():
    assert parse_symbol("conj(z)", 1).conjugate() == parse_symbol("z", 1)
    p = parse_symbol("3*i*z1^2*conj(z2)", 2).conjugate()
    assert p == parse_symbol("-3*i*conj(z1)^2*z2", 2)
    five = parse_symbol("5", 3)
    assert five.conjugate() == five


def test_holomorphic_split_examples():
    p = parse_symbol("z^2 + z*conj(z)", 1)
    holo, rest = p.holomorphic_split()
    assert holo == parse_symbol("z^2", 1)
    assert rest == parse_symbol("z*conj(z)", 1)

    holo, rest = parse_symbol("conj(z)", 1).holomorphic_split()
    assert holo.is_zero() and rest == parse_symbol("conj(z)", 1)

    holo, rest = parse_symbol("7", 1).holomorphic_split()
    assert holo == parse_symbol("7", 1) and rest.is_zero()


def test_is_constant_examples():
    assert parse_symbol("5", 1).is_constant()
    assert not parse_symbol("z1", 2).is_constant()
    assert SymbolPolynomial.zero(1).is_constant()


def test_graded_decompose_z_plus_zbar():
    dec = graded_decompose(parse_symbol("z + conj(z)", 1), 1)
    assert (dec.min_degree, dec.max_degree) == (-1, 1)
    by_deg = {p.degree: p.piece for p in dec.pieces}
    assert by_deg[1] == parse_symbol("z", 1)
    assert by_deg[-1] == parse_symbol("conj(z)", 1)
    assert by_deg[0].is_zero()


def test_graded_decompose_mixed():
    dec = graded_decompose(parse_symbol("z*conj(z) + z^2*conj(z)", 1), 1)
    assert (dec.min_degree, dec.max_degree) == (0, 1)
    by_deg = {p.degree: p.piece for p in dec.pieces}
    assert by_deg[0] == parse_symbol("z*conj(z)", 1)
    assert by_deg[1] == parse_symbol("z^2*conj(z)", 1)


def test_graded_decompose_constant():
    dec = graded_decompose(parse_symbol("4", 1), 1)
    assert (dec.min_degree, dec.max_degree) == (0, 0)
    assert dec.pieces[0].piece == parse_symbol("4", 1)


def test_graded_decompose_rejects_zero_and_foreign_variables():
    with pytest.raises(InputError):
        graded_decompose(SymbolPolynomial.zero(1), 1)
    with pytest.raises(InputError):
        graded_decompose(parse_symbol("z1*z2", 2), 1)
    # single-variable symbol in higher dimension is fine
    dec = graded_decompose(parse_symbol("z2 + conj(z2)^2", 2), 2)
    assert (dec.min_degree, dec.max_degree) == (-2, 1)


def test_graded_pieces_reconstruct_symbol():
    p = parse_symbol("z^3*conj(z) + 2*z*conj(z) + conj(z)^2 - 5", 1)
    dec = graded_decompose(p, 1)
    total = SymbolPolynomial.zero(1)
    for piece in dec.pieces:
        total = total + piece.piece
        for (beta, gamma), _ in piece.piece.terms.items():
            assert beta[0] - gamma[0] == piece.degree
    assert total == p


# ---------------------------------------------------------------------------
# round-trip property


@st.composite
def symbols(draw):
    dim = draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, 4))
    terms = []
    for _ in range(n_terms):
        beta = MultiIndex([draw(st.integers(0, 3)) for _ in range(dim)])
        gamma = MultiIndex([draw(st.integers(0, 3)) for _ in range(dim)])
        re = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        im = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        terms.append(((beta, gamma), GaussianRational.of(re, im)))
    return SymbolPolynomial.from_terms(dim, terms), dim


@given(symbols())
def test_pretty_parse_round_trip(sym_dim):
    sym, dim = sym_dim
    assert parse_symbol(sym.pretty(), dim) == sym


@given(symbols())
def test_conjugate_involution(sym_dim):
    sym, _ = sym_dim
    assert sym.conjugate().conjugate() == sym


@given(symbols())
def test_split_parts_sum_and_disjoint(sym_dim):
    sym, _ = sym_dim
    holo, rest = sym.holomorphic_split()
    assert holo + rest == sym
    assert not (holo.terms.keys() & rest.terms.keys())
