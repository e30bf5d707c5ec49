import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_coeff, rand_series
from hahnseries.coeffs import Coefficient
from hahnseries.errors import HahnSeriesError, ParseError
from hahnseries.exponents import as_exponent
from hahnseries.parsing import parse_expression
from hahnseries.series import SeriesPolynomial, TruncatedSeries

a1 = Coefficient.alpha(1)


def parse(text, **kw):
    return parse_expression(text, **kw)


def test_series_with_o_clause():
    v = parse("1 + t^(1/2) + O(t^2)")
    assert isinstance(v, TruncatedSeries)
    assert v.prec == as_exponent(2)
    assert v.coefficient(0) == Coefficient.one()
    assert v.coefficient(Fraction(1, 2)) == Coefficient.one()


def test_polynomial():
    v = parse("y^2 - (1+t)")
    assert isinstance(v, SeriesPolynomial)
    assert v.degree == 2
    assert v.coeffs[0].coefficient(0) == Coefficient.const(-1)


def test_zero_denominator_literal_is_a_parse_error():
    for text, column in [("t^(1/0)", 6), ("O(t^(1/0))", 8), ("1 + t^-3/0", 10)]:
        with pytest.raises(ParseError, match="zero denominator in a rational literal") as info:
            parse(text)
        assert (info.value.line, info.value.column) == (1, column)
    with pytest.raises(ParseError) as info:
        parse("1 +\n t^(2, 1/0)", rank=2, default_prec=(5, 0))
    assert (info.value.line, info.value.column) == (2, 10)
    # written as an expression, 1/0 divides by a zero coefficient
    with pytest.raises(ZeroDivisionError):
        parse("1/0")
    with pytest.raises(ZeroDivisionError):
        parse("t*(2/0)")


def test_syntax_error_position():
    with pytest.raises(ParseError) as info:
        parse("t^^2")
    assert info.value.column == 3
    with pytest.raises(ParseError):
        parse("1 + ")
    with pytest.raises(ParseError) as info:
        parse("q + 1")
    assert "unknown identifier" in str(info.value)


def test_coefficient_expressions():
    assert parse("(a1^2-1)/(a1-1)") == a1 + 1
    assert parse("3/2") == Coefficient.const(Fraction(3, 2))
    assert parse("a1*a3/a3") == a1


def test_division_and_precedence():
    v = parse("1/(1-t)", default_prec=5)
    assert v == TruncatedSeries({i: 1 for i in range(5)}, 5)
    assert parse("2*t^2") == TruncatedSeries({2: 2}, 10)
    # ^ binds tighter than *
    assert parse("3*t^2") == parse("3*(t^2)")


def test_unary_minus():
    assert parse("-t + 2") == TruncatedSeries({0: 2, 1: -1}, 10)
    assert parse("--3") == Coefficient.const(3)
    assert parse("2 - -3") == Coefficient.const(5)


def test_o_clause_caps_precision():
    v = parse("t + O(t^20)", default_prec=10)
    assert v.prec == as_exponent(10)
    v = parse("t + O(t^3)", default_prec=10)
    assert v.prec == as_exponent(3)


def test_rank2_parsing():
    v = parse("t^(3/2, -1) + O(t^(5, 0))", rank=2, default_prec=(5, 0))
    assert v.prec == as_exponent((5, 0))
    assert str(v) == "t^(3/2, -1) + O(t^(5, 0))"
    with pytest.raises(ParseError):
        parse("t^(1, 2)", rank=1)


def test_fractional_power_restrictions():
    assert parse("(t^2)^(1/2)") == parse("t")
    with pytest.raises(ParseError):
        parse("(1+t)^(1/2)")
    with pytest.raises(ParseError):
        parse("y^(1/2)")


def test_negative_powers():
    assert parse("t^-1") == TruncatedSeries({-1: 1}, 10)
    assert parse("a1^-2") == Coefficient.one() / (a1 * a1)
    with pytest.raises(ParseError):
        parse("y^-1")


def test_exponent_tuple_errors_name_their_token():
    with pytest.raises(ParseError) as info:
        parse("t^(1, 2)", rank=1)
    assert str(info.value) == "exponent tuple of length 2 at rank 1 (line 1, column 2)"
    with pytest.raises(ParseError) as info:
        parse("1 + O(t^(1, 2, 3))", rank=2, default_prec=(5, 0))
    assert str(info.value) == "exponent tuple of length 3 at rank 2 (line 1, column 5)"


def test_integer_powers_equal_explicit_products():
    # v(base) < 0 and prec <= 0 must not lose precision to a leading factor 1
    cases = [
        ("(t^-4 + O(t^0))^2", "(t^-4 + O(t^0))*(t^-4 + O(t^0))", "t^(-8) + O(t^(-4))"),
        ("(t^-1 + 1)^2", "(t^-1 + 1)*(t^-1 + 1)", "t^(-2) + 2*t^(-1) + 1 + O(t^4)"),
        (
            "(t + t^2)^-2",
            "(t + t^2)^-1*(t + t^2)^-1",
            "t^(-2) - 2*t^(-1) + 3 - 4*t + O(t^2)",
        ),
    ]
    for power, product, printed in cases:
        v = parse(power, default_prec=5)
        assert v == parse(product, default_prec=5)
        assert str(v) == printed
    assert parse("(1 + t)^0", default_prec=5) == TruncatedSeries.one(5)
    assert parse("(y + t)^0", default_prec=5) == SeriesPolynomial([TruncatedSeries.one(5)])
    with pytest.raises(ParseError, match="negative power of a polynomial in y"):
        parse("(y + 1)^-2")


def _power_by_products(value, n):
    """f^n for n >= 1 by n - 1 products from the left: the reference for the
    parser's repeated squaring."""
    out = value
    for _ in range(n - 1):
        out = out * value
    return out


@pytest.mark.parametrize(
    "text, rank, prec",
    [
        ("t^-1 + 1 + a1*t", 1, 6),  # negative valuation, Q(a1) coefficients
        ("2*t^(1/2) - t^(3/2)/a2", 1, 5),  # fractional valuation
        ("1 + t", 1, 5),  # valuation zero
        ("t + O(t^3)", 1, 8),
        ("t^(-1/3) + 3", 1, 2),
        ("(a1 + 1)/a2 + t^2", 1, 4),
        ("t^(1, -1) + t^(0, 2)", 2, (3, 0)),  # rank 2
        ("O(t^2)", 1, 5),  # zero at precision
        ("1 + t", 1, 0),
    ],
)
def test_series_powers_match_repeated_products(text, rank, prec):
    base = parse(text, rank=rank, default_prec=prec)
    for n in range(1, 14):
        for sign, factor in (("", base), ("-", base.inv() if base.terms else None)):
            if factor is None:
                continue
            got = parse(f"({text})^{sign}{n}", rank=rank, default_prec=prec)
            want = _power_by_products(factor, n)
            assert got.terms == want.terms and got.prec == want.prec, (text, sign, n)


def test_a_large_power_takes_logarithmically_many_products(monkeypatch):
    products = []
    real = TruncatedSeries.__mul__

    def counting(self, other):
        products.append(other)
        return real(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    v = parse("(1 + t)^1000000", default_prec=5)
    assert v == TruncatedSeries({k: comb(10**6, k) for k in range(5)}, 5)
    assert len(products) <= 2 * (10**6).bit_length()


def test_poly_division_by_series():
    v = parse("(y^2 - 1)/2", default_prec=4)
    assert isinstance(v, SeriesPolynomial)
    assert v.coeffs[2].coefficient(0) == Coefficient.const(Fraction(1, 2))
    with pytest.raises(ParseError):
        parse("1/y")


def test_value_roundtrip_series(rng):
    for _ in range(200):
        s = rand_series(rng, prec=8, variables=(1, 2), lo=-2, hi=7)
        text = str(s)
        assert parse(text, default_prec=8) == s


def test_value_roundtrip_coefficients(rng):
    for _ in range(200):
        c = rand_coeff(rng, (1, 2))
        assert parse(str(c)) == c


def test_value_roundtrip_polynomials(rng):
    for _ in range(50):
        coeffs = [rand_series(rng, prec=6, variables=(1,), lo=0, hi=4) for _ in range(3)]
        p = SeriesPolynomial(coeffs)
        if p.is_zero():
            continue
        assert parse(str(p), default_prec=6) == p


def test_string_roundtrip_reparse(rng):
    # parse -> print -> parse is the identity on emitted forms
    texts = [
        "1 + t^(1/2) + O(t^2)",
        "3/2*t^(1/2) + a1*t^2 + O(t^5)",
        "t^(-1) + 2 + 3*t",
        "(a1 + 1)/(a2)*t^2 + O(t^4)",
        "y^2 - (1+t)*y + t^3",
        "1 - t + O(t^4)",
    ]
    for text in texts:
        v = parse(text, default_prec=10)
        printed = str(v)
        assert parse(printed, default_prec=10) == v


@pytest.mark.parametrize(
    "text, column", [("t^\u00b2", 3), ("a\u0661", 2), ("t^(1/\u0663)", 6)]
)
def test_non_ascii_digits_and_letters_are_parse_errors(text, column):
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse(text)
    assert (info.value.line, info.value.column) == (1, column)


# grammar tokens plus non-ASCII digits, a letter and a space; one-digit
# integers keep every power, and so every case, small
_FUZZ_TOKENS = [
    "t", "y", "a1", "a2", "O", "(", ")", "+", "-", "*", "/", "^", ",", " ", "\n",
    *"0123456789", "\u00b2", "\u0661", "\u0663", "\u00e9", "\u00a0",
]
_fuzz_texts = (
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=12)
    .map("".join)
    .filter(lambda text: not re.search("[0-9]{2}", text))
)


@settings(max_examples=300, deadline=None)
@given(_fuzz_texts)
def test_parser_gives_a_value_or_a_typed_error(text):
    try:
        str(parse(text, default_prec=4))
    except (HahnSeriesError, ZeroDivisionError):
        pass
