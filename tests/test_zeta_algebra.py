"""Expression algebra: parsing, display, canonical form, evaluation."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddeuler.zeta_algebra import (ExprSyntaxError, ZetaExpr, ZetaMonomial,
                                   canonicalize, combine, even_zeta_ratio,
                                   evaluate, format_expr, multiply,
                                   parse_expr)

from conftest import FROZEN_SUMS


def test_parse_format_round_trip():
    for text in ("35/4*z2*z3 - 31/2*z5",
                 "z3 + 10*z2 - 24*ln2",
                 "49/8*z3^2 - 945/128*z6",
                 "7/4*z3",
                 "-21/16*z2*z3 + 93/32*z5",
                 "3/2*z2 - 2*ln2"):
        assert format_expr(parse_expr(text)) == text or \
            parse_expr(format_expr(parse_expr(text))) == parse_expr(text)


def test_display_order_weight_then_lex():
    e = parse_expr("ln2 + z5 + z2*z3 + z2 + z3^2")
    assert format_expr(e) == "z3^2 + z2*z3 + z5 + z2 + ln2"


def test_display_exact_strings():
    assert format_expr(parse_expr("- 31/2*z5 + 35/4*z2*z3")) \
        == "35/4*z2*z3 - 31/2*z5"
    assert format_expr(parse_expr("10*z2 - 24*ln2 + z3")) \
        == "z3 + 10*z2 - 24*ln2"


def test_z1_rejected_with_position():
    with pytest.raises(ExprSyntaxError, match="zeta\\(1\\) divergent"):
        parse_expr("z1")
    try:
        parse_expr("7/4*z3 + z1")
    except ExprSyntaxError as exc:
        assert exc.pos == 9
    else:
        pytest.fail("z1 accepted")


def test_zeta_index_capped_with_position():
    # zeta(n)'s constant stops converging for large n, so text may ask
    # for no index above MAX_POWER
    assert parse_expr("z100") == ZetaExpr.zeta(100)
    for text, pos in (("z101", 0), ("7/4*z3 + 2*z650", 11), ("z2*z5000^2", 3)):
        with pytest.raises(ExprSyntaxError, match="zeta indices must be <= 100") as err:
            parse_expr(text)
        assert err.value.pos == pos, text


def test_malformed_inputs_position_tagged():
    for text, pos in (("", 0), ("7/", 2), ("z", 0), ("z2^", 3),
                      ("z2 + + z3", 5), ("q4", 0), ("3*", 2)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text)
        assert err.value.pos == pos, text


def test_structural_equality():
    a = parse_expr("z2*z3 + z5")
    b = parse_expr("z5 + z2*z3")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_expr("z5 + 2*z2*z3")


def test_arithmetic():
    a = parse_expr("z3 + 2*z2")
    b = parse_expr("z3 - 2*z2")
    assert a + b == parse_expr("2*z3")
    assert a - b == parse_expr("4*z2")
    assert -(a - b) == parse_expr("-4*z2")
    assert a.scale(Fraction(1, 2)) == parse_expr("1/2*z3 + z2")
    prod = multiply(a, b)
    assert prod == parse_expr("z3^2 - 4*z2^2")
    assert a.pow_int(2) == multiply(a, a)
    assert a.pow_int(0) == ZetaExpr.const(1)


def test_combine():
    got = combine([Fraction(2), Fraction(-1)],
                  [parse_expr("z2"), parse_expr("z3")])
    assert got == parse_expr("2*z2 - z3")


def test_even_zeta_ratio():
    assert even_zeta_ratio(1) == 1
    assert even_zeta_ratio(2) == Fraction(2, 5)
    assert even_zeta_ratio(3) == Fraction(8, 35)
    assert even_zeta_ratio(4) == Fraction(24, 175)


def test_canonicalize():
    got = canonicalize(parse_expr("945/128*z6"))
    assert got == parse_expr("27/16*z2^3")
    assert canonicalize(got) == got
    # mixed: even powers inside monomials rewrite too
    got = canonicalize(parse_expr("z4*z3"))
    assert got == parse_expr("2/5*z2^2*z3")


def test_canonicalize_preserves_value():
    e = parse_expr("3/4*z8 - 2*z4*z2 + z6*z3")
    with mp.workdps(40):
        before = evaluate(e, 40)
        after = evaluate(canonicalize(e), 40)
        assert abs(before - after) < mp.mpf("1e-35")


def test_evaluate_weight6_value():
    e = parse_expr("49/8*z3^2 - 945/128*z6")
    with mp.workdps(40):
        got = evaluate(e, 40)
        assert abs(got - mp.mpf(FROZEN_SUMS["h1*h2/k^3"])) < mp.mpf("1e-37")


def test_monomial_weight_and_text():
    m = ZetaMonomial.from_parts({1: 1, 2: 2, 3: 1})
    assert m.factors == ((1, 1), (2, 2), (3, 1))
    assert m.weight == 8
    assert m.text() == "ln2*z2^2*z3"
    assert ZetaMonomial.one().weight == 0
    assert ZetaMonomial.one().text() == ""


def test_monomial_validation():
    with pytest.raises(ValueError):
        ZetaMonomial.from_parts({1: -1})
    # zero exponents are normalized away, not rejected
    assert ZetaMonomial.from_parts({2: 0}) == ZetaMonomial.one()


@pytest.mark.parametrize("factors", [((3, 1), (2, 1)), ((2, 1), (2, 1)), ((1, 2), (1, 1)),
                                     ((0, 1),), ((2, 0),)])
def test_repeated_unsorted_or_empty_letters_raise(factors):
    with pytest.raises(ValueError):
        ZetaMonomial(factors)


def test_zeta_below_two_raises():
    # letter 1 is ln 2, so zeta(1) and zeta(0) have no letter
    for n in (1, 0):
        with pytest.raises(ValueError, match=f"zeta\\({n}\\)"):
            ZetaExpr.zeta(n)


def test_evaluate_below_ten_digits_raises():
    # even a constant expression, which asks for no letter's value
    with pytest.raises(ValueError, match="digits must be >= 10"):
        evaluate(ZetaExpr.const(1), 5)


# one term for every way ln 2 and zeta letters mix up to weight 5
MIXED = ("z3 + ln2^3 + ln2*z2 + z2*z3 - ln2^2*z3 + 7/4*ln2*z4 + z5 - 3*ln2^5"
         " + ln2^2*z2^2 + z4*ln2")


def test_display_order_of_mixed_letters_as_text():
    # heaviest first, then ln 2 before every zeta, letter by letter; the
    # strings are literal so that no sort key checks itself
    shown = "ln2^2*z2^2 - 3*ln2^5 - ln2^2*z3 + {} + z2*z3 + z5 + ln2^3 + ln2*z2 + z3"
    assert format_expr(parse_expr(MIXED)) == shown.format("11/4*ln2*z4")
    assert format_expr(canonicalize(parse_expr(MIXED))) == shown.format("11/10*ln2*z2^2")


_coef = st.fractions(min_value=-8, max_value=8, max_denominator=16)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(c1=_coef, c2=_coef, c3=_coef)
def test_ring_axioms_property(c1, c2, c3):
    a = ZetaExpr.zeta(2, c1) + ZetaExpr.ln2(c2)
    b = ZetaExpr.zeta(3, c3) + ZetaExpr.const(1)
    c = ZetaExpr.zeta(2) + ZetaExpr.zeta(3)
    assert multiply(a, b) == multiply(b, a)
    assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)
    assert a + b == b + a
    assert a - a == ZetaExpr.zero()
