"""Series-accelerated summation against frozen oracle values."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddeuler.harmonic import HarmonicKind
from oddeuler.summation import (EvalOptions, SumSpec, SumSpecSyntaxError,
                                evaluate_sum, format_sumspec, parse_sumspec,
                                reciprocal_sum_closed_form, term_exact)
from oddeuler.numerics import ConstantsTable
from oddeuler.zeta_algebra import evaluate, format_expr, parse_expr

from conftest import FROZEN_SUMS, FROZEN_SUMS_30

OPTS40 = EvalOptions(digits=40, K=10 ** 4)


def test_parse_format_round_trip():
    for text in ("h1*h2/k^3", "H3/(2k-1)^2", "1/(k^3*(2k-1)^2)",
                 "h2/k^5", "H2/(2k-1)^3", "h1/(k^2*(2k-1))"):
        spec = parse_sumspec(text)
        assert parse_sumspec(format_sumspec(spec)) == spec


def test_factor_order_normalized():
    assert parse_sumspec("h2*h1/k^3") == parse_sumspec("h1*h2/k^3")
    assert format_sumspec(parse_sumspec("h2*h1/k^3")) == "h1*h2/k^3"


def test_parse_errors_position_tagged():
    for text in ("", "h1", "h1/", "h1/q^2", "g1/k^2",
                 "h1*/k^2", "h1/k^2*"):
        with pytest.raises(SumSpecSyntaxError) as err:
            parse_sumspec(text)
        assert "position" in str(err.value)


def test_divergent_rejected():
    with pytest.raises(SumSpecSyntaxError, match="diverges"):
        parse_sumspec("h1/k")
    with pytest.raises(SumSpecSyntaxError, match="diverges"):
        parse_sumspec("h1/k^0")
    with pytest.raises(ValueError, match="diverges"):
        SumSpec((HarmonicKind.odd(1),), 1, 0)


def test_term_exact_examples():
    assert term_exact(parse_sumspec("h1*h2/k^3"), 2) == Fraction(5, 27)
    assert term_exact(parse_sumspec("h2/k^3"), 1) == Fraction(1)
    assert term_exact(parse_sumspec("H2/(2k-1)^3"), 2) == Fraction(5, 108)


def test_eval_options_validation():
    with pytest.raises(ValueError):
        EvalOptions(digits=19)
    with pytest.raises(ValueError):
        EvalOptions(K=99)
    with pytest.raises(ValueError):
        EvalOptions(tail_terms=0)
    with pytest.raises(ValueError):
        EvalOptions(tail_terms=9)


@pytest.mark.parametrize("text", sorted(FROZEN_SUMS))
def test_sums_match_frozen_oracles(text):
    res = evaluate_sum(parse_sumspec(text), OPTS40)
    with mp.workdps(60):
        err = abs(res.value - mp.mpf(FROZEN_SUMS[text]))
        assert err < mp.mpf("1e-35")
        # the error estimate must never under-promise
        assert err <= res.err_estimate


@pytest.mark.parametrize("text", sorted(FROZEN_SUMS_30))
def test_sums_match_independent_30_digit_oracles(text):
    res = evaluate_sum(parse_sumspec(text), EvalOptions(digits=30))
    with mp.workdps(40):
        assert abs(res.value - mp.mpf(FROZEN_SUMS_30[text])) < mp.mpf("1e-27")


# Every frozen reference with the rounding of its printed decimal: the
# 30-digit references are good to 1e-29, the 52-digit ones far beyond
# any digits setting below.
FROZEN_WITH_ROUNDING = ([(text, value, "0") for text, value in sorted(FROZEN_SUMS.items())]
                        + [(text, value, "1e-29")
                           for text, value in sorted(FROZEN_SUMS_30.items())])


@pytest.mark.parametrize("tail_terms", (1, 8))
@pytest.mark.parametrize("K", (100, 1000))
@pytest.mark.parametrize("digits", (20, 52))
@pytest.mark.parametrize("text,frozen,rounding", FROZEN_WITH_ROUNDING,
                         ids=[entry[0] for entry in FROZEN_WITH_ROUNDING])
def test_err_estimate_bounds_true_error(text, frozen, rounding, digits, K, tail_terms):
    res = evaluate_sum(parse_sumspec(text), EvalOptions(digits, K, tail_terms))
    with mp.workdps(70):
        error = abs(res.value - mp.mpf(frozen)) - mp.mpf(rounding)
        assert error <= res.err_estimate


def test_result_metadata():
    res = evaluate_sum(parse_sumspec("h1/k^2"), EvalOptions(digits=25,
                                                            K=2000))
    assert res.digits == 25
    assert res.K == 2000
    assert res.err_estimate > 0


def test_k_doubling_within_error_estimate():
    for text in ("h1*h2/k^3", "H3/(2k-1)^2", "h2/k^5"):
        spec = parse_sumspec(text)
        base = evaluate_sum(spec, EvalOptions(digits=30, K=1000))
        double = evaluate_sum(spec, EvalOptions(digits=30, K=2000))
        with mp.workdps(40):
            assert abs(base.value - double.value) <= base.err_estimate


def test_tail_terms_affect_estimate_not_value_much():
    spec = parse_sumspec("h2/k^3")
    lo = evaluate_sum(spec, EvalOptions(digits=30, tail_terms=2))
    hi = evaluate_sum(spec, EvalOptions(digits=30, tail_terms=6))
    with mp.workdps(40):
        assert abs(lo.value - hi.value) <= lo.err_estimate + hi.err_estimate


def test_reciprocal_closed_forms_exact():
    cases = {(2, 0): "z2", (0, 3): "7/8*z3", (1, 2): "3/2*z2 - 2*ln2",
             (3, 2): "z3 + 10*z2 - 24*ln2", (0, 2): "3/4*z2"}
    for (p, q), want in cases.items():
        assert reciprocal_sum_closed_form(p, q) == parse_expr(want)


def test_reciprocal_rejects_divergent():
    with pytest.raises(ValueError):
        reciprocal_sum_closed_form(1, 0)
    with pytest.raises(ValueError):
        reciprocal_sum_closed_form(0, 0)
    with pytest.raises(ValueError):
        reciprocal_sum_closed_form(-1, 3)


def test_reciprocal_closed_vs_sum_spot_checks():
    for p, q in ((2, 0), (1, 1), (2, 3), (4, 1)):
        expr = reciprocal_sum_closed_form(p, q)
        if q == 0:
            text = f"1/k^{p}"
        elif p == 0:
            text = f"1/(2k-1)^{q}"
        else:
            text = f"1/(k^{p}*(2k-1)^{q})"
        res = evaluate_sum(parse_sumspec(text), EvalOptions(digits=30))
        with mp.workdps(40):
            want = evaluate(expr, ConstantsTable(40))
            assert abs(res.value - want) < mp.mpf("1e-25")


_kinds = st.builds(HarmonicKind,
                   st.sampled_from(["even", "odd"]),
                   st.integers(min_value=1, max_value=5))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(factors=st.lists(_kinds, max_size=2),
       p=st.integers(min_value=0, max_value=6),
       q=st.integers(min_value=0, max_value=6))
def test_spec_round_trip_property(factors, p, q):
    if p + q < 2:
        return
    spec = SumSpec(tuple(factors), p, q)
    assert parse_sumspec(format_sumspec(spec)) == spec


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=50))
def test_partial_sums_bound_value_property(k_terms):
    # partial sums of positive terms stay below the full value
    spec = parse_sumspec("h2/k^3")
    partial = sum((term_exact(spec, k) for k in range(1, k_terms + 1)),
                  Fraction(0))
    full = evaluate_sum(spec, EvalOptions(digits=25))
    with mp.workdps(30):
        approx = mp.mpf(partial.numerator) / partial.denominator
        assert approx < full.value
