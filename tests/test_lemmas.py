"""Kernel lemmas: truncated two-sided sums against closed forms."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from oddeuler import summation
from oddeuler.harmonic import EXACT_LIMIT, HarmonicKind, harmonic_exact
from oddeuler.numerics import constant
from oddeuler.summation import (EvalOptions, lemma1_aux, lemma1_f, lemma2_g,
                                lemma3_f, recip_kernel_closed,
                                shifted_kernel_closed)
from oddeuler.zeta_algebra import parse_expr

from conftest import FROZEN_LEMMAS

OPTS = EvalOptions(digits=30)
TOL = mp.mpf("1e-9")


def test_shifted_kernel_frozen_values():
    with mp.workdps(40):
        got = shifted_kernel_closed(2, 5, EvalOptions(digits=35))
        assert abs(got - mp.mpf(FROZEN_LEMMAS[("shifted", 2, 5)])) \
            < mp.mpf("1e-30")
        got = shifted_kernel_closed(3, 12, EvalOptions(digits=35))
        assert abs(got - mp.mpf(FROZEN_LEMMAS[("shifted", 3, 12)])) \
            < mp.mpf("1e-30")


def test_lemma1_truncated_equals_closed():
    with mp.workdps(40):
        for k in range(1, 21):
            trunc, closed = lemma1_aux(k, OPTS)
            assert abs(trunc - closed) < mp.mpf("1e-12"), k


def test_lemma1_f_special_value():
    with mp.workdps(40):
        trunc, closed = lemma1_f(1, OPTS)
        want = 2 * mp.log(2) - 3
        assert abs(closed - want) < mp.mpf("1e-25")
        assert abs(trunc - closed) < mp.mpf("1e-12")
        assert abs(closed - mp.mpf(FROZEN_LEMMAS[("cross", 1, 1)])) \
            < mp.mpf("1e-25")


def test_lemma2_special_values():
    with mp.workdps(40):
        z2 = constant("zeta(2)", 40)
        _, c11 = lemma2_g(1, 1, OPTS)
        assert abs(c11 - (z2 - 2)) < mp.mpf("1e-25")
        _, c12 = lemma2_g(1, 2, OPTS)
        assert abs(c12 - z2 / 2) < mp.mpf("1e-25")


def test_closed_sides_are_exact_expressions(monkeypatch):
    # each closed side is one ZetaExpr, valued once at digits + 15; the
    # docstrings' special values hold as structures, not only as numbers
    seen = []
    real_evaluate = summation.evaluate
    monkeypatch.setattr(summation, "evaluate", lambda expr, digits: seen.append(
        (expr, digits)) or real_evaluate(expr, digits))
    for closed_side, text in ((lambda: lemma2_g(1, 1, OPTS)[1], "z2 - 2"),
                              (lambda: lemma2_g(1, 2, OPTS)[1], "1/2*z2"),
                              (lambda: lemma1_f(1, OPTS)[1], "2*ln2 - 3"),
                              # the odd-part zeta term sits outside the sign
                              (lambda: shifted_kernel_closed(2, 1, OPTS),
                               "3/2*z2 - 2*ln2")):
        seen.clear()
        value = closed_side()
        assert seen == [(parse_expr(text), OPTS.digits + 15)], text
        with mp.workdps(OPTS.digits):
            assert value == mp.mpf(real_evaluate(parse_expr(text), OPTS.digits + 15))


def test_ladder_memo_matches_the_direct_sum():
    # the running ladder answers k in any order with the sum from i = 2
    summation._ladders.clear()
    asks = [(n, k) for n in (1, 2, 3, 4) for k in range(1, 51)]
    random.Random(7).shuffle(asks)
    for n, k in asks:
        direct = sum((harmonic_exact(HarmonicKind.even(1), i - 1) / (2 * i - 1) ** n
                      for i in range(2, k + 1)), Fraction(0))
        assert summation._ladder(n, k) == direct, (n, k)
    assert sorted(map(len, summation._ladders.values())) == [51] * 4
    with pytest.raises(ValueError, match="capped"):
        summation._ladder(1, EXACT_LIMIT + 1)


def test_lemma2_frozen_values():
    with mp.workdps(40):
        assert abs(recip_kernel_closed(4, 7, EvalOptions(digits=35))
                   - mp.mpf(FROZEN_LEMMAS[("recip", 4, 7)])) < mp.mpf("1e-30")
        assert abs(recip_kernel_closed(6, 7, EvalOptions(digits=35))
                   - mp.mpf(FROZEN_LEMMAS[("recip", 6, 7)])) < mp.mpf("1e-30")
        # the truncated sides, summed head plus tail, hit the frozen values
        for n in (2, 3):
            trunc, _ = lemma2_g(n, 7, EvalOptions(digits=35))
            assert abs(trunc - mp.mpf(FROZEN_LEMMAS[("recip", 2 * n, 7)])) \
                < mp.mpf("1e-30"), n


@pytest.mark.parametrize("n", (1, 2, 3))
def test_lemma2_truncated_equals_closed(n):
    with mp.workdps(40):
        for k in range(1, 21):
            trunc, closed = lemma2_g(n, k, OPTS)
            assert abs(trunc - closed) < TOL, (n, k)


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_lemma3_truncated_equals_closed(m):
    n, parity = (m + 1) // 2, ("odd" if m % 2 else "even")
    with mp.workdps(40):
        for k in range(1, 21):
            trunc, closed = lemma3_f(n, parity, k, OPTS)
            assert abs(trunc - closed) < TOL, (m, k)


def test_lemma3_frozen_values():
    opts = EvalOptions(digits=35)
    with mp.workdps(40):
        for key, (trunc, closed) in (
                (("cross", 2, 4), lemma3_f(1, "even", 4, opts)),
                (("cross", 3, 9), lemma3_f(2, "odd", 9, opts)),
                (("cross", 1, 1), lemma1_f(1, opts))):
            frozen = mp.mpf(FROZEN_LEMMAS[key])
            assert abs(closed - frozen) < mp.mpf("1e-30"), key
            assert abs(trunc - frozen) < mp.mpf("1e-30"), key


def test_lemma_argument_validation():
    with pytest.raises(ValueError):
        lemma3_f(1, "sideways", 3)
    with pytest.raises(ValueError):
        lemma3_f(0, "odd", 3)
    with pytest.raises(ValueError):
        lemma3_f(1, "odd", 0)
    with pytest.raises(ValueError):
        lemma2_g(0, 3)
    with pytest.raises(ValueError):
        recip_kernel_closed(1, 3)
    with pytest.raises(ValueError):
        shifted_kernel_closed(0, 3)


def test_lemma_precision_scales():
    # residuals land well inside each working precision, and the closed
    # values agree across precisions to the coarser one
    with mp.workdps(60):
        t20, c20 = lemma3_f(2, "even", 6, EvalOptions(digits=20))
        t45, c45 = lemma3_f(2, "even", 6, EvalOptions(digits=45))
        assert abs(t20 - c20) < mp.mpf("1e-15")
        assert abs(t45 - c45) < mp.mpf("1e-35")
        assert abs(c45 - c20) < mp.mpf("1e-15")
