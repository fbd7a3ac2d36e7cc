"""Kernel lemmas: truncated two-sided sums against closed forms."""

import functools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from oddeuler import summation
from oddeuler.harmonic import EXACT_LIMIT, HarmonicKind, harmonic_exact
from oddeuler.numerics import constant
from oddeuler.summation import (EvalOptions, lemma1_aux, lemma2_g, lemma3_f,
                                recip_kernel_closed, shifted_kernel_closed)
from oddeuler.zeta_algebra import ZetaExpr, parse_expr

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
        trunc, closed = lemma3_f(1, "odd", 1, OPTS)
        want = 2 * mp.log(2) - 3
        assert abs(closed - want) < mp.mpf("1e-25")
        assert abs(trunc - closed) < mp.mpf("1e-12")
        assert abs(closed - mp.mpf(FROZEN_LEMMAS[("cross", 1, 1)])) \
            < mp.mpf("1e-25")


def test_lemma2_special_values():
    with mp.workdps(40):
        z2 = constant(2, 40)
        _, c11 = lemma2_g(1, 1, OPTS)
        assert abs(c11 - (z2 - 2)) < mp.mpf("1e-25")
        _, c12 = lemma2_g(1, 2, OPTS)
        assert abs(c12 - z2.div(2, 40)) < mp.mpf("1e-25")


def test_closed_sides_are_exact_expressions(monkeypatch):
    # each closed side is one list of exact terms, valued once at
    # digits + 15; merged, the terms give the docstrings' special values
    # as structures, not only as numbers
    seen = []
    real_evaluate = summation.evaluate
    monkeypatch.setattr(summation, "evaluate", lambda pairs, digits: seen.append(
        (ZetaExpr.from_terms(pairs), digits)) or real_evaluate(pairs, digits))
    for closed_side, text in ((lambda: lemma2_g(1, 1, OPTS)[1], "z2 - 2"),
                              (lambda: lemma2_g(1, 2, OPTS)[1], "1/2*z2"),
                              (lambda: lemma3_f(1, "odd", 1, OPTS)[1], "2*ln2 - 3"),
                              # the odd-part zeta term sits outside the sign
                              (lambda: shifted_kernel_closed(2, 1, OPTS),
                               "3/2*z2 - 2*ln2")):
        seen.clear()
        value = closed_side()
        assert seen == [(parse_expr(text), OPTS.digits + 15)], text
        with mp.workdps(OPTS.digits):
            assert value == mp.mpf(real_evaluate(parse_expr(text).terms, OPTS.digits + 15))


@pytest.mark.parametrize("row", (lemma1_aux, functools.partial(lemma2_g, 1),
                                 functools.partial(lemma3_f, 1, "odd")),
                         ids=("lemma1_aux", "lemma2_g", "lemma3_f"))
@pytest.mark.parametrize("k", (0, -3))
def test_a_row_below_k_one_is_refused(row, k):
    # each row refuses k < 1 before it sums anything
    with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
        row(k, OPTS)


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
                (("cross", 1, 1), lemma3_f(1, "odd", 1, opts))):
            frozen = mp.mpf(FROZEN_LEMMAS[key])
            assert abs(closed - frozen) < mp.mpf("1e-30"), key
            assert abs(trunc - frozen) < mp.mpf("1e-30"), key


def test_lemma_checks_sum_each_check_in_one_walk_before_its_rows(monkeypatch):
    # one _heads walk per check, over all its k, made before its first row
    # and none while its rows are read; each row is the row summed alone
    opts, ks = EvalOptions(digits=25), range(1, 6)
    alone = {"lemma1_aux": lemma1_aux,
             **{f"lemma2_g n={n}": functools.partial(lemma2_g, n) for n in (1, 2, 3)},
             **{f"lemma3_f m={m}": functools.partial(lemma3_f, (m + 1) // 2,
                                                      "odd" if m % 2 else "even")
                for m in (1, 2, 3, 4)}}
    summation._sums.clear()
    walks, real = [], summation._heads
    monkeypatch.setattr(summation, "_heads",
                        lambda batch, prec: walks.append(len(batch)) or real(batch, prec))
    rows = []
    for name, row in summation.lemma_checks(ks, opts):
        rows.append((name, row, len(walks)))
    assert walks == [len(ks)] * len(alone)
    assert [name for name, _, _ in rows] == [name for name in alone for _ in ks]
    assert [walked for _, _, walked in rows] == [i for i in range(1, len(alone) + 1) for _ in ks]
    for name, (k, trunc, closed), _ in rows:
        summation._sums.clear()
        lone = alone[name](k, opts)
        assert (trunc._mpf_, closed._mpf_) == (lone[0]._mpf_, lone[1]._mpf_), (name, k)
    assert [row[0] for _, row, _ in rows] == list(ks) * len(alone)


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


ROWS = {"lemma1_aux": lemma1_aux,
        **{f"lemma2_g n={n}": functools.partial(lemma2_g, n) for n in (1, 2, 3)},
        **{f"lemma3_f m={m}": functools.partial(lemma3_f, (m + 1) // 2, "odd" if m % 2 else "even")
           for m in (1, 2, 3, 4)}}


KERNELS = {"lemma1_aux": summation.AUX_KERNEL,
           **{f"lemma2_g n={n}": summation.g_kernel(n) for n in (1, 2, 3)},
           **{f"lemma3_f m={m}": summation.f_kernel(m) for m in (1, 2, 3, 4)}}


def _errors(monkeypatch, name: str, ks, digits: int) -> list:
    # |sum - closed| per k: the truncated side at its working digits,
    # before it is rounded to digits, against the closed side at
    # digits + 30, valued without summing the kernel there
    opts = EvalOptions(digits)
    sums = summation._sum_batch([summation._kernel_series(KERNELS[name], k, digits)
                                 for k in ks], opts)
    with monkeypatch.context() as patch:
        patch.setattr(summation, "_kernel_truncated", lambda *args: None)
        closed = [ROWS[name](k, EvalOptions(digits + 30))[1] for k in ks]
    with mp.workdps(digits + 40):
        return [abs(mp.mpf(value) - mp.mpf(side)) for (value, _), side in zip(sums, closed)]


@pytest.mark.parametrize("digits", (25, 40, 100))
@pytest.mark.parametrize("name", ROWS)
def test_truncated_sides_meet_the_planned_target_in_every_band(monkeypatch, name, digits):
    # within 10^-(digits + 2) at both edges of the first three bands and
    # deep in the fifth: the 4-term tail at a fixed end of 50 k left
    # 1.4e-37 at k = 1 and digits 40 and 100, and a series cap sized from
    # end alone, not from end / k, was off by 2.1e-32 at lemma1_aux(200)
    ks = (1, 20, 40, 41, 80, 81, 100, 200)
    for k, error in zip(ks, _errors(monkeypatch, name, ks, digits)):
        assert error < mp.mpf(10) ** -(digits + 2), k


@pytest.mark.parametrize("name", ROWS)
def test_truncated_sides_meet_the_planned_target_at_500_digits(monkeypatch, name):
    error, = _errors(monkeypatch, name, (1,), 500)
    assert error < mp.mpf(10) ** -502


# forced plans: few corrections at the parent's series caps, where the
# Euler-Maclaurin part shows, and a J well below the planner's 35, where
# the cap part does
@pytest.mark.parametrize("plan", (None, (13, 4, 49), (8, 3, 60), (50, 3, 33), (12, 7, 20),
                                  (30, 7, 12)), ids=str)
def test_each_rows_planned_bound_covers_its_true_error(monkeypatch, plan):
    # digits 40, the default rows and the band's last, k = 40, where
    # k / end = 1 / ratio: every row's error is within _kernel_bound of
    # its plan, the planner's own or a forced one; and the worst row comes
    # within three digits of the bound, so the bound says something
    if plan:
        monkeypatch.setattr(summation, "_kernel_plan", lambda digits: plan)
    summation._sums.clear()  # a forced plan may share a planned row's end
    ks = (*range(1, 21), 40)
    try:
        worst = -math.inf
        for name, kernel in KERNELS.items():
            bound = summation._kernel_bound(40, kernel[2], *summation._kernel_plan(40))
            for k, error in zip(ks, _errors(monkeypatch, name, ks, 40)):
                assert error and float(mp.log10(error)) < bound, (name, k)
                worst = max(worst, float(mp.log10(error)) - bound)
        assert worst > -3
    finally:
        summation._sums.clear()
