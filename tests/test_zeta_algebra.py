"""Expression algebra: parsing, display, canonical form, evaluation."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddeuler import cli
from oddeuler.highfloat import dps_to_prec
from oddeuler.numerics import constant, ln2
from oddeuler.zeta_algebra import (MAX_POWER, ExprSyntaxError, ZetaExpr, ZetaMonomial,
                                   canonicalize, even_zeta_ratio, evaluate,
                                   format_expr, parse_expr)

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
    assert parse_expr("z100") == ZetaExpr.from_terms([(ZetaMonomial(((100, 1),)), 1)])
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
    assert parse_expr("1/2") * a == parse_expr("1/2*z3 + z2")
    prod = a * b
    assert prod == parse_expr("z3^2 - 4*z2^2")
    assert a.pow_int(2) == a * a
    assert a.pow_int(0) == parse_expr("1")


def test_linear_combination():
    got = parse_expr("2") * parse_expr("z2") + parse_expr("-1") * parse_expr("z3")
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
        before = evaluate(e.terms, 40)
        after = evaluate(canonicalize(e).terms, 40)
        assert abs(before - after) < mp.mpf("1e-35")


def test_evaluate_weight6_value():
    e = parse_expr("49/8*z3^2 - 945/128*z6")
    with mp.workdps(40):
        got = evaluate(e.terms, 40)
        assert abs(got - mp.mpf(FROZEN_SUMS["h1*h2/k^3"])) < mp.mpf("1e-37")


def test_monomial_weight_and_text():
    m = ZetaMonomial.from_parts({1: 1, 2: 2, 3: 1})
    assert m.factors == ((1, 1), (2, 2), (3, 1))
    assert m.weight == 8
    assert m.text() == "ln2*z2^2*z3"
    assert ZetaMonomial().weight == 0
    assert ZetaMonomial().text() == ""


def test_monomial_validation():
    with pytest.raises(ValueError):
        ZetaMonomial.from_parts({1: -1})
    # zero exponents are normalized away, not rejected
    assert ZetaMonomial.from_parts({2: 0}) == ZetaMonomial()


@pytest.mark.parametrize("factors", [((3, 1), (2, 1)), ((2, 1), (2, 1)), ((1, 2), (1, 1)),
                                     ((0, 1),), ((2, 0),)])
def test_repeated_unsorted_or_empty_letters_raise(factors):
    with pytest.raises(ValueError):
        ZetaMonomial(factors)


def test_zeta_below_two_raises():
    # letter 1 is ln 2, so zeta(1) and zeta(0) have no letter
    for n in (1, 0):
        with pytest.raises(ExprSyntaxError, match=f"zeta\\({n}\\)"):
            parse_expr(f"z{n}")


def test_evaluate_below_ten_digits_raises():
    # even a constant expression, which asks for no letter's value
    with pytest.raises(ValueError, match="digits must be >= 10"):
        evaluate(parse_expr("1").terms, 5)


def _within_evaluate_bound(pairs: list, digits: int) -> bool:
    # evaluate's stated bound against mpmath: before its rounding at
    # digits the total is within 2^(top - p) sum (4 L + 1) of
    # sum c prod x^e at the letters' constants x (p the bits of
    # digits + 5, 2^top < 4 max |term| up to the powers' rounding), and
    # that rounding moves it by at most 2^-bits(digits) of itself
    got = evaluate(pairs, digits)
    with mp.workdps(3 * digits + 60):
        terms = [mp.mpf(coef.numerator) / coef.denominator
                 * mp.fprod(mp.mpf(ln2(digits) if n == 1 else constant(n, digits)) ** e
                            for n, e in mono.factors) for mono, coef in pairs]
        scale = 4.001 * max(abs(term) for term in terms) * mp.mpf(2) ** -dps_to_prec(digits + 5)
        bound = scale * sum(4 * len(mono.factors) + 1 for mono, _ in pairs) + \
            abs(mp.mpf(got)) * mp.mpf(2) ** -dps_to_prec(digits)
        return abs(mp.mpf(got) - mp.fsum(terms)) <= bound


def test_evaluate_meets_its_bound_on_a_seeded_grid():
    # coefficients from 10^-80 to 10^40, letter powers up to MAX_POWER
    # (mostly low, so that terms meet), digits 20 to 500, and a pair that
    # cancels exactly at the letters' true values; each case also as
    # unmerged pairs, from a second generator so that the cases stay put:
    # every term split in two parts of its sign plus a zero coefficient,
    # which must not set the scale, and then an int coefficient as well
    rng, split = random.Random(3401), random.Random(3402)
    for digits in (20, 33, 40, 57, 100, 250, 500):
        for _ in range(6):
            expr = ZetaExpr.from_terms(
                (ZetaMonomial.from_parts({n: rng.choice((1, 2, 3, rng.randint(4, MAX_POWER)))
                                          for n in rng.sample((1, 2, 3, 5, 8, 11, 100),
                                                              rng.randint(0, 3))}),
                 Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12))
                 * Fraction(10) ** rng.randint(-80, 40))
                for _ in range(rng.randint(1, 5)))
            assert _within_evaluate_bound(expr.terms, digits), (digits, format_expr(expr))
            part = Fraction(split.randint(1, 99), 100)
            pairs = [(mono, c) for mono, coef in expr.terms for c in (part * coef, coef - part * coef)]
            pairs.append((expr.terms[0][0], 0))
            assert _within_evaluate_bound(pairs, digits), (digits, pairs)
            pairs.append((ZetaMonomial(), split.randint(-9, 9) or 1))
            assert _within_evaluate_bound(pairs, digits), (digits, pairs)
        assert _within_evaluate_bound(parse_expr("z4 - 2/5*z2^2").terms, digits), digits


@pytest.mark.parametrize("text, printed", (
    ("1/1" + "0" * 75 + "*z3", "1.202056903159594285399738161511449990765e-75"),
    ("1/1" + "0" * 44 + "*z5", "1.036927755143369926331365486457034168057e-44")))
def test_a_tiny_coefficient_keeps_every_digit(capsys, text, printed):
    # the fixed-point sum takes its scale from its largest term, not from
    # 2^-prec, so a lone term far below 1 prints as it always did
    assert cli.main(["eval-expr", text]) == 0
    assert capsys.readouterr().out == f"value = {printed}\ndigits = 40\n"


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
    a = ZetaExpr.from_terms([(ZetaMonomial(((2, 1),)), c1), (ZetaMonomial(((1, 1),)), c2)])
    b = ZetaExpr.from_terms([(ZetaMonomial(((3, 1),)), c3), (ZetaMonomial(), 1)])
    c = parse_expr("z2 + z3")
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == ZetaExpr()
