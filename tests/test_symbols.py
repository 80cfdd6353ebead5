from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    pairwise_product,
    reference_parse_operator,
    reference_parse_symbol,
    reference_tokenize,
    symbol_from_terms,
)

from fockop import arith
from fockop.arith import MultiIndex, RadicalCoefficient
from fockop.errors import InputError, SymbolSyntaxError
from fockop.operators import MAX_OPERATOR_FACTORS, Composition, HankelProductOp, ToeplitzOp, parse_operator
from fockop.symbols import (
    MAX_SYMBOL_DEGREE,
    MAX_SYMBOL_NESTING,
    MAX_SYMBOL_TERMS,
    SymbolPolynomial,
    _PACKED_EXPONENT_BOUND,
    _Parser,
    _tokenize,
    parse_symbol,
)


def mi(*comps):
    return MultiIndex(comps)


def g(re, im=0):
    return RadicalCoefficient(re, im=im)


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


# Messages and positions of the tokenizer's errors on text outside ASCII:
# only ASCII digits are digits, a letter of any script extends a name.
@pytest.mark.parametrize(
    "text, n, message, pos",
    [
        ("z^\u00b2", 1, "unexpected character '\u00b2'", 2),
        ("\u0661*z", 1, "unexpected character '\u0661'", 0),
        ("z\u00e9", 1, "unknown name 'z\u00e9'", 0),
        ("\uff5a1", 2, "unknown name '\uff5a'", 0),
        ("z1 + \u00e9", 2, "unknown name '\u00e9'", 5),
        ("z\u00bd", 1, "unexpected character '\u00bd'", 1),
    ],
    ids=["superscript-two", "arabic-indic-one", "latin-e-acute", "fullwidth-z", "later-token", "vulgar-half"],
)
def test_tokenizer_errors_outside_ascii(text, n, message, pos):
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol(text, n)
    assert (err.value.message, err.value.pos) == (message, pos)


def test_ascii_sum_parses():
    assert parse_symbol("z1 + z2", 2).terms == {(mi(1, 0), mi(0, 0)): g(1), (mi(0, 1), mi(0, 0)): g(1)}


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


def test_nesting_bound_counts_the_parentheses_open_at_once():
    deepest = "(" * MAX_SYMBOL_NESTING + "z" + ")" * MAX_SYMBOL_NESTING
    assert parse_symbol(f"-{deepest}^2", 1) == parse_symbol("-z^2", 1)
    # parentheses side by side do not add up
    assert parse_symbol(" + ".join([deepest] * 3), 1) == parse_symbol("3*z", 1)
    text = "2*(" + deepest + ")"
    with pytest.raises(SymbolSyntaxError, match="MAX_SYMBOL_NESTING = 100 nested") as err:
        parse_symbol(text, 1)
    assert err.value.pos == len("2*") + MAX_SYMBOL_NESTING
    prefix = "T(z) * HP(z; "
    text = prefix + "(" + deepest + "))"
    with pytest.raises(SymbolSyntaxError, match="MAX_SYMBOL_NESTING") as err:
        parse_operator(text, 1)
    assert err.value.pos == len(prefix) + MAX_SYMBOL_NESTING


def test_factor_bound_is_checked_at_the_star_past_it():
    factors = ["T(z)", "HP(conj(z); z)"] * (MAX_OPERATOR_FACTORS // 2)
    expr = parse_operator(" * ".join(factors), 1)
    depth = 1
    while isinstance(expr, Composition):
        expr, depth = expr.outer, depth + 1
    assert depth == MAX_OPERATOR_FACTORS
    text = " * ".join(factors + ["T(conj(z))"])
    with pytest.raises(SymbolSyntaxError, match="MAX_OPERATOR_FACTORS = 100 composed factors") as err:
        parse_operator(text, 1)
    assert err.value.pos == text.rindex("*")


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
    fg = parse_symbol(f"({f})*({g})", n)
    assert fg == parse_symbol(f, n) * parse_symbol(g, n)
    toeplitz = parse_operator(f"T({f}) * T({g})", n)
    hankel = parse_operator(f"HP({f}; {g})", n)
    # symbol coefficients are Gaussian rationals: the text form has no sqrt
    symbols = (
        parse_symbol(f, n),
        parse_symbol(f, n).conjugate(),
        fg,
        toeplitz.outer.symbol,
        toeplitz.inner.symbol,
        hankel.left_conj,
        hankel.left_conj_right,
        hankel.right_nh,
    )
    for sym in symbols:
        assert all(c.radicand == 1 for c in sym.terms.values())


@given(st.data())
def test_parsed_symbols_are_canonical_and_not_aliased(data):
    n = data.draw(st.integers(1, 3))
    text = data.draw(dense_symbol_texts(n))
    if n == 1:
        text = text.replace("z1", "z")
    p = parse_symbol(text, n)
    # the validating constructor leaves the parser's terms as they are
    assert SymbolPolynomial(n, dict(p.terms)) == p
    for key, c in p.terms.items():
        assert type(key) is tuple and len(key) == 2
        assert all(type(index) is MultiIndex and len(index) == n for index in key)
        assert c.radicand == 1 and c == RadicalCoefficient(c.re, im=c.im)
    # no two parses share a term map
    q = parse_symbol(text, n)
    assert q.terms is not p.terms
    key = (MultiIndex([7] * n), MultiIndex([0] * n))
    q.terms[key] = g(1)
    for k in list(q.terms)[:-1]:
        del q.terms[k]
    assert p == parse_symbol(text, n)
    assert parse_symbol(text, n).terms.keys() == p.terms.keys()
    # a term map that a parse shared would change its later uses
    v = "z" if n == 1 else "z1"
    assert parse_symbol(f"{v} + ({text})*{v} - {v}", n) == p * parse_symbol(v, n)


# Twenty terms of the benchmark's dense symbols: every kind of coefficient
# (integer, fraction, i, Gaussian), powers, conjugates and a constant term.
DENSE_TWENTY = (
    "3*z1^2*conj(z2) + 1/2*z1*z2 - 5/3*conj(z1)^2 + i*z2^3 - (1-2*i)*z1*conj(z1)"
    " + 2*conj(z2)^2*z1 - 3/4*z2 + z1^4 - i*conj(z1)*conj(z2) + 7"
    " + 2*z2^2*conj(z2)^2 - 1/2*conj(z1) + (3+i)*z1^3*z2 - z2*conj(z2)"
    " + 5/3*z1*z2*conj(z1)*conj(z2) + 3*conj(z2)^4 - 2*i*z1^2 + 1/3*z2^2*conj(z1)"
    " + (1-2*i)*conj(z2) + 4*z1*conj(z2)^3"
)


def test_parsing_builds_no_coefficient_through_the_constructor(monkeypatch):
    calls = []
    new = RadicalCoefficient.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(RadicalCoefficient, "__new__", counted)
    p = parse_symbol(DENSE_TWENTY, 2)
    op = parse_operator(f"HP({DENSE_TWENTY}; {DENSE_TWENTY}) * T({DENSE_TWENTY})", 2)
    assert calls == []
    monkeypatch.undo()
    assert len(p.terms) == 20
    assert op.inner.symbol == p


def test_flat_terms_are_folded_straight_from_the_text(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr("fockop.symbols._tokenize", spy("_tokenize", _tokenize))
    monkeypatch.setattr(_Parser, "parse_term", spy("parse_term", _Parser.parse_term))
    hankel = "HP((1-2*i)*z1*conj(z2) + 3/4*z2^2; conj(z1)^2 - i*z2)"
    p = parse_symbol(DENSE_TWENTY, 2)
    op = parse_operator(hankel, 2)
    assert calls == []
    # the spies fire where the fast path does not reach
    parse_symbol("(z1 + z2)*z1", 2)
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("z1 + $", 2)
    assert calls == ["parse_term", "_tokenize"]
    monkeypatch.undo()
    assert terms(p) == terms(reference_parse_symbol(DENSE_TWENTY, 2))
    assert operator_terms(op) == operator_terms(reference_parse_operator(hankel, 2))


# ---------------------------------------------------------------------------
# the parser against the factor-by-factor reference (tests/reference.py)


def terms(sym):
    """A symbol's terms in their order, with the types of the keys."""
    return sym.dimension, [(tuple(map(type, key)), key, c) for key, c in sym.terms.items()]


def operator_terms(expr):
    if isinstance(expr, Composition):
        return operator_terms(expr.outer) + operator_terms(expr.inner)
    if isinstance(expr, ToeplitzOp):
        return [("T", terms(expr.symbol))]
    assert isinstance(expr, HankelProductOp)
    return [("HP", terms(expr.left), terms(expr.right))]


def hankel_nodes(expr):
    if isinstance(expr, Composition):
        return hankel_nodes(expr.outer) + hankel_nodes(expr.inner)
    return [expr] if isinstance(expr, HankelProductOp) else []


def outcome(parse, text, n, view):
    """``view`` of what ``parse`` returns, or the message and position it rejects ``text`` at."""
    try:
        return "parsed", view(parse(text, n))
    except SymbolSyntaxError as err:
        return "rejected", err.message, err.pos


# Pieces of text that reach every branch of the tokenizer and every error of
# the grammar: digits of other scripts, letters outside ASCII, Unicode spaces.
FRAGMENTS = (
    "z", "z1", "z2", "z3", "z0", "z4", "conj(", "conj", "i", "T(", "HP(", "w", "zz",
    "0", "1", "2", "7", "12", "256", "257", "/", "/0", "^", "^2", "^256", "^257",
    "(", ")", "*", "+", "-", ";", " ", "\t", "\u00a0", "\u3000",
    "\u00b2", "\u0663", "\u00e9", "\u00bd", "$",
)
fragment_texts = st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join)


def symbol_texts(n):
    """Symbol texts, mostly well formed: variables in and out of range,
    numbers, fractions with zero denominators, i, powers up to and past
    the degree bound, sums, products and nested parentheses."""
    valid = [f"z{j}" for j in range(1, n + 1)] if n > 1 else ["z", "z1"]
    var = st.sampled_from(valid * 4 + ["z", "z0", f"z{n + 1}"])
    number = st.one_of(
        st.sampled_from(["0", "1", "2", "3", "12", "i"]),
        st.tuples(st.integers(0, 9), st.integers(0, 12)).map(lambda p: f"{p[0]}/{p[1]}"),
    )
    leaf = st.one_of(var, var.map(lambda v: f"conj({v})"), number)
    power = st.one_of(st.integers(0, 5), st.sampled_from([64, 128, 255, 256, 257]))
    powered_leaf = st.one_of(leaf, st.tuples(leaf, power).map(lambda p: f"{p[0]}^{p[1]}"))

    def extend(inner):
        return st.one_of(
            st.lists(inner, min_size=2, max_size=4).map("*".join),
            st.lists(st.tuples(st.sampled_from([" + ", " - ", "-"]), inner), min_size=2, max_size=4).map(
                lambda parts: "".join(sign + body for sign, body in parts).lstrip(" +")
            ),
            inner.map(lambda body: f"({body})"),
            st.tuples(inner, st.integers(0, 4)).map(lambda p: f"({p[0]})^{p[1]}"),
        )

    return st.recursive(powered_leaf, extend, max_leaves=10)


def spliced(draw, text):
    """``text``, now and then with a fragment put in at a drawn place."""
    if not draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]
    return text


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_tokens_and_symbols_match_the_reference(data):
    n = data.draw(st.integers(1, 3))
    text = data.draw(st.one_of(fragment_texts, symbol_texts(n), symbol_texts(n)))
    text = spliced(data.draw, text)
    assert outcome(lambda t, _: _tokenize(t), text, n, list) == outcome(
        lambda t, _: reference_tokenize(t), text, n, list
    )
    assert outcome(parse_symbol, text, n, terms) == outcome(reference_parse_symbol, text, n, terms)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_operators_match_the_reference(data):
    n = data.draw(st.integers(1, 3))
    atom = st.one_of(
        symbol_texts(n).map(lambda f: f"T({f})"),
        st.tuples(symbol_texts(n), symbol_texts(n)).map(lambda p: f"HP({p[0]}; {p[1]})"),
    )
    text = " * ".join(data.draw(st.lists(atom, min_size=1, max_size=3)))
    text = spliced(data.draw, text)
    got = outcome(parse_operator, text, n, operator_terms)
    assert got == outcome(reference_parse_operator, text, n, operator_terms)
    if got[0] == "parsed":
        for node in hankel_nodes(parse_operator(text, n)):
            assert terms(node.left_conj_right) == terms(pairwise_product(node.left_conj, node.right_nh))


# Five terms of the benchmark's shape, every kind of flat factor among them.
SPLICED_SYMBOL = "3*z1^2*conj(z2) - (1-2*i)*z2 + 1/2*z1*z2 - i*conj(z1)^3 + 5/3"


@pytest.mark.parametrize(
    "text", [SPLICED_SYMBOL, f"HP({SPLICED_SYMBOL}; conj(z1)*z2^2 - (3+i)*z1)"], ids=["symbol", "hankel-product"]
)
def test_every_fragment_spliced_in_matches_the_reference(text):
    for at in range(len(text) + 1):
        for fragment in FRAGMENTS:
            assert_same_outcome(text[:at] + fragment + text[at:], 2)


def test_a_lexical_error_beats_an_earlier_grammar_error():
    for parse in (parse_symbol, reference_parse_symbol):
        with pytest.raises(SymbolSyntaxError) as err:
            parse("z1 + + $", 2)
        assert (err.value.message, err.value.pos) == ("unexpected character '$'", 7)


DEEPEST = "(" * MAX_SYMBOL_NESTING + "z1" + ")" * MAX_SYMBOL_NESTING

# Texts at each bound of the grammar, in symbols and operators of dimension 2.
BOUND_TEXTS = [
    f"z1^{MAX_SYMBOL_DEGREE}", f"z1^{MAX_SYMBOL_DEGREE + 1}", f"i^{MAX_SYMBOL_DEGREE}*3/2^255",
    f"(z1*conj(z2))^{MAX_SYMBOL_DEGREE // 2}", f"(z1*conj(z2))^{MAX_SYMBOL_DEGREE // 2 + 1}",
    f"1 + 2^{MAX_SYMBOL_DEGREE + 1}", "0^0 + 0^3*z1 + z2^0", "((z1^16)^16)^2", "1" * 5000,
    "(z1+z2+conj(z1)+conj(z2)+1)^40", f"({_powers_of_z1(200)})*({_powers_of_z1(101)})",
    DEEPEST, f"-{DEEPEST}^2*{DEEPEST}", f"2*({DEEPEST})", f"T(z1) * HP(z1; ({DEEPEST}))",
    f"HP({_powers_of_z1(200)}; {_powers_of_z1(101)})",
    " * ".join(["T(z1)", "HP(conj(z1); z2)"] * (MAX_OPERATOR_FACTORS // 2)),
    " * ".join(["T(z1)", "HP(conj(z1); z2)"] * (MAX_OPERATOR_FACTORS // 2) + ["T(z2)"]),
    # a Gaussian-integer constant's '(' is a nesting level, in a flat term too
    "(" * (MAX_SYMBOL_NESTING - 1) + "(1-2*i)^2*z1" + ")" * (MAX_SYMBOL_NESTING - 1),
    "(" * MAX_SYMBOL_NESTING + "(1-2*i)^2*z1" + ")" * MAX_SYMBOL_NESTING,
]

# Under a term bound of 50: a sum of more terms than the bound, products and
# powers on each side of it, and products whose left or right side is zero.
SMALL_TERM_BOUND = 50
WIDE = " + ".join(f"z1^{a}*conj(z2)^{b}" for a in range(8) for b in range(8))
SMALL_BOUND_TEXTS = [
    f"({WIDE})", f"({WIDE})^1", f"({WIDE})^0", f"({WIDE})*2", f"2*({WIDE})", f"z2*({WIDE})*z1",
    f"({WIDE})*0*({WIDE})", f"0*({WIDE})*({WIDE})", f"(z1 - z1)*({WIDE})*({WIDE})", f"({WIDE})*0^0",
    f"({_powers_of_z1(10)})*({_powers_of_z1(5)})", f"({_powers_of_z1(10)})*3*({_powers_of_z1(6)})",
    "(z1 + conj(z1))^12", "(z1 + conj(z1))^13", "(z1 + z2 + 1)^3", "(z1 + z2 + 1)^4", "(1 + z1)^2*(z2 - 1)^6",
    f"HP({_powers_of_z1(10)}; {_powers_of_z1(6)})", f"HP({_powers_of_z1(10)}; {_powers_of_z1(5)})",
]


def assert_same_outcome(text, n):
    if text.startswith(("T(", "HP(")):
        assert outcome(parse_operator, text, n, operator_terms) == outcome(
            reference_parse_operator, text, n, operator_terms
        )
    else:
        assert outcome(parse_symbol, text, n, terms) == outcome(reference_parse_symbol, text, n, terms)


@pytest.mark.parametrize("text", BOUND_TEXTS, ids=range(len(BOUND_TEXTS)))
def test_bounds_fire_where_the_reference_fires_them(text):
    assert_same_outcome(text, 2)


@pytest.mark.parametrize("text", SMALL_BOUND_TEXTS, ids=range(len(SMALL_BOUND_TEXTS)))
def test_term_bound_fires_where_the_reference_fires_it(text, monkeypatch):
    monkeypatch.setattr("fockop.symbols.MAX_SYMBOL_TERMS", SMALL_TERM_BOUND)
    monkeypatch.setattr("reference.MAX_SYMBOL_TERMS", SMALL_TERM_BOUND)
    assert_same_outcome(text, 2)


@st.composite
def cancelling_symbols(draw, n):
    """A symbol of 4-8 terms of low degree in few variables with
    coefficients +-1, mostly, so that the pair products of two of them often
    share keys, cancel and come back."""
    items = []
    for _ in range(draw(st.integers(4, 8))):
        beta = MultiIndex([draw(st.integers(0, 4)) for _ in range(n)])
        gamma = MultiIndex([draw(st.integers(0, 1)) for _ in range(n)])
        c = draw(st.sampled_from([(1, 0), (-1, 0)] * 4 + [(0, 1), (0, -1), (Fraction(1, 2), 0), (-2, 3)]))
        items.append(((beta, gamma), RadicalCoefficient(c[0], im=c[1])))
    return symbol_from_terms(n, items)


@given(st.data())
def test_product_matches_the_pairwise_reference_in_order(data):
    n = data.draw(st.integers(1, 2))
    a, b = data.draw(cancelling_symbols(n)), data.draw(cancelling_symbols(n))
    assert terms(a * b) == terms(pairwise_product(a, b))


def test_product_inserts_a_cancelled_key_again_last():
    # z^2 cancels at z * -z and comes back last, from z^2 * 1
    a = parse_symbol("1 + z + z^2", 1)
    b = parse_symbol("z^2 - z + 1", 1)
    assert [key for key, _ in (a * b).terms.items()] == [(mi(0), mi(0)), (mi(4), mi(0)), (mi(2), mi(0))]
    assert terms(a * b) == terms(pairwise_product(a, b))


def test_product_of_exponents_at_and_past_the_packed_bound_matches_the_pairwise_reference():
    # the constructor takes any exponent; a key at or past the packed field's
    # bound is summed as a tuple, with the same terms in the same order
    for big in (2**40, _PACKED_EXPONENT_BOUND - 1, _PACKED_EXPONENT_BOUND, 2**64, 2**70):
        a = symbol_from_terms(
            2,
            [
                ((mi(big, 0), mi(0, 1)), g(1)),
                ((mi(0, 0), mi(0, 0)), g(-1)),
                ((mi(1, big), mi(big, 0)), g(Fraction(1, 2), 3)),
            ],
        )
        b = symbol_from_terms(
            2,
            [((mi(0, 0), mi(0, 0)), g(1)), ((mi(big, 0), mi(0, 1)), g(1)), ((mi(0, 2), mi(3, big)), g(0, -1))],
        )
        assert terms(a * b) == terms(pairwise_product(a, b))
        assert terms(b * a) == terms(pairwise_product(b, a))
        assert terms(a * a) == terms(pairwise_product(a, a))


def test_monomial_terms_parse_with_no_symbol_product(monkeypatch):
    products = []
    mul = SymbolPolynomial.__mul__

    def counted(a, b):
        products.append((len(a.terms), len(b.terms)))
        return mul(a, b)

    monkeypatch.setattr(SymbolPolynomial, "__mul__", counted)
    monomials = " - ".join(f"{k + 1}/3*i*z1^{k}*conj(z2)*z2^2*conj(z1)^3" for k in range(20))
    assert len(parse_symbol(monomials, 2).terms) == 20
    # one parenthesized factor per term, as in the benchmark's symbols, is not multiplied either
    assert len(parse_symbol(DENSE_TWENTY, 2).terms) == 20
    assert products == []
    assert len(parse_symbol("(z1 + z2)*2*(z1 - conj(z2))*z1", 2).terms) == 4
    assert products == [(2, 2)]


def test_zero_term_expands_no_power(monkeypatch):
    calls = []
    mul, power = SymbolPolynomial.__mul__, SymbolPolynomial.__pow__

    def counted(name, fn):
        def wrapper(a, b):
            calls.append(name)
            return fn(a, b)

        return wrapper

    monkeypatch.setattr(SymbolPolynomial, "__mul__", counted("mul", mul))
    monkeypatch.setattr(SymbolPolynomial, "__pow__", counted("pow", power))
    assert parse_symbol("0*(z1+conj(z1))^256", 2).is_zero()
    assert calls == []
    # the power's bounds are still checked at its exponent
    with pytest.raises(SymbolSyntaxError, match="MAX_SYMBOL_DEGREE") as err:
        parse_symbol("0*(z1+conj(z1))^257", 2)
    assert err.value.pos == len("0*(z1+conj(z1))^")
    # a nonzero term still expands it
    assert len(parse_symbol("1*(z1+conj(z1))^2", 2).terms) == 3
    assert calls == ["pow", "mul"]


def test_product_canonicalizes_each_key_once(monkeypatch):
    a = parse_symbol(DENSE_TWENTY, 2)
    b = parse_symbol("(1-2*i)*z1 + 1/2*conj(z2) - 3/4*i + 5/3*z1*z2 - conj(z1)^2", 2)
    calls = []
    radical = arith._radical

    def counted(*fields):
        calls.append(fields)
        return radical(*fields)

    # symbols calls it directly, RadicalCoefficient arithmetic through arith
    monkeypatch.setattr(arith, "_radical", counted)
    monkeypatch.setattr("fockop.symbols._radical", counted)
    product = a * b
    monkeypatch.undo()
    assert 0 < len(calls) <= len(product.terms) < len(a.terms) * len(b.terms)
    assert terms(product) == terms(pairwise_product(a, b))


def test_symbol_rejects_a_coefficient_with_a_square_root():
    # the text form has no square roots: pretty() would print sqrt(2) as 1
    with pytest.raises(InputError, match="Gaussian rationals"):
        SymbolPolynomial.constant(1, RadicalCoefficient(1, 2))
    with pytest.raises(InputError, match="Gaussian rationals"):
        symbol_from_terms(2, [((mi(1, 0), mi(0, 0)), RadicalCoefficient(3, 5))])


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
        terms.append(((beta, gamma), RadicalCoefficient(re, im=im)))
    return symbol_from_terms(dim, terms), dim


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
