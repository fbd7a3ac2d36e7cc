"""Series-accelerated summation against frozen oracle values."""

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddeuler import numerics, summation
from oddeuler.cli import LEMMA_KMAX
from oddeuler.harmonic import HarmonicKind, harmonic_exact
from oddeuler.summation import (HEAD_BLOCK, MAX_K, MAX_POWER, SUMS_MAX, EvalOptions, SumSpec,
                                SumSpecSyntaxError, _guard_bits, _heads, _log_series, _series_cap,
                                _spec_series, _sum_batch, _sums, _table_tail, evaluate_sum,
                                parse_sumspec, reciprocal_sum_closed_form, sum_specs)
from oddeuler.numerics import bernoulli
from oddeuler.zeta_algebra import evaluate, parse_expr

from conftest import FROZEN_SUMS, FROZEN_SUMS_30

OPTS40 = EvalOptions(digits=40, K=10 ** 4)


def test_parse_format_round_trip():
    for text in ("h1*h2/k^3", "H3/(2k-1)^2", "1/(k^3*(2k-1)^2)",
                 "h2/k^5", "H2/(2k-1)^3", "h1/(k^2*(2k-1))"):
        spec = parse_sumspec(text)
        assert parse_sumspec(spec.text()) == spec


def test_factor_order_normalized():
    assert parse_sumspec("h2*h1/k^3") == parse_sumspec("h1*h2/k^3")
    assert parse_sumspec("h2*h1/k^3").text() == "h1*h2/k^3"


def test_whitespace_skipped_between_tokens():
    # whitespace is skipped between all tokens, in sum specs as in closed forms
    assert parse_sumspec("h1/k^3 * (2k-1)") == parse_sumspec("h1/k^3*(2k-1)")
    assert parse_sumspec(" h1 * h2 / ( k ^ 3 ) ") == parse_sumspec("h1*h2/k^3")


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


def test_divergent_spec_error_has_position():
    # the position is that of the denominator's first token
    for text, pos in (("h1/k", 3), ("h2/k]5", 3), ("1/(k*(2k-1)^0)", 2)):
        with pytest.raises(SumSpecSyntaxError, match="diverges") as err:
            parse_sumspec(text)
        assert err.value.pos == pos, text


def test_denominator_power_capped():
    # refused when built, so no refused spec is ever summed
    assert MAX_POWER == 100
    assert parse_sumspec("h1/k^100").k_power == 100
    assert parse_sumspec("1/(k^60*(2k-1)^40)").odd_power == 40
    for text in ("h1/k^101", "h1/k^20000", "H2/(k^60*(2k-1)^41)"):
        with pytest.raises(SumSpecSyntaxError, match="<= 100") as err:
            parse_sumspec(text)
        assert err.value.pos == 3, text
    with pytest.raises(ValueError, match="<= 100"):
        SumSpec((), 0, 101)


def term_exact(spec: SumSpec, k: int) -> Fraction:
    """The exact k-th summand of spec, from exact harmonic prefixes."""
    value = Fraction(1, k ** spec.k_power * (2 * k - 1) ** spec.odd_power)
    for kind in spec.factors:
        value *= harmonic_exact(kind, k)
    return value


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
    # a cost guard: only the refusal is run
    with pytest.raises(ValueError, match=f"K must be <= {MAX_K}"):
        EvalOptions(K=MAX_K + 1)


def _count_walks(monkeypatch) -> list:
    # the series of every _heads walk from here on, one list per walk
    walks, real = [], summation._heads
    monkeypatch.setattr(summation, "_heads",
                        lambda batch, prec: walks.append(list(batch)) or real(batch, prec))
    return walks


def _bits(res):
    # an mpf's repr follows the global 53-bit precision, not the value's
    return res.value._mpf_, res.err_estimate._mpf_


def test_equal_sums_run_the_head_once(monkeypatch):
    _sums.clear()
    walks = _count_walks(monkeypatch)
    opts = EvalOptions(digits=25, K=300)
    first = evaluate_sum(parse_sumspec("h1*h2/k^3"), opts)
    # factor order is normalized by SumSpec, so this is the same entry
    again = evaluate_sum(parse_sumspec("h2*h1/k^3"), opts)
    assert list(map(len, walks)) == [1]
    assert len(_sums) == 1
    assert repr(again) == repr(first)
    assert _bits(again) == _bits(first)


@pytest.mark.parametrize("other", (EvalOptions(digits=40, K=100),
                                   EvalOptions(digits=30, K=1000)))
def test_different_options_get_their_own_entry(monkeypatch, other):
    _sums.clear()
    walks = _count_walks(monkeypatch)
    spec = parse_sumspec("h1*h2/k^3")
    base = evaluate_sum(spec, EvalOptions(digits=30, K=100))
    moved = evaluate_sum(spec, other)
    assert list(map(len, walks)) == [1, 1]
    assert len(_sums) == 2
    assert moved.value != base.value


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


def _mpf(fraction):
    return mp.mpf(fraction.numerator) / fraction.denominator


# The mpf reference below shares no code with the fixed-point route: it
# takes only the Bernoulli numbers from the package, mpmath's constants,
# and its own calculus on log-power series {(a, s): c}, which stand for
# sum c (ln x)^a x^-s.


def _derivative(series):
    out = {}
    for (a, s), c in series.items():
        if a:
            out[(a - 1, s + 1)] = out.get((a - 1, s + 1), 0) + a * c
        if s:
            out[(a, s + 1)] = out.get((a, s + 1), 0) - s * c
    return out


def _integral(series):
    # by parts: the integral of (ln x)^a x^-s is (ln x)^a x^(1-s) / (1-s)
    # minus a / (1-s) times the integral of (ln x)^(a-1) x^-s; at s = 1 it
    # is (ln x)^(a+1) / (a+1)
    out = {}
    for (a, s), c in series.items():
        if s == 1:
            out[(a + 1, 0)] = out.get((a + 1, 0), 0) + c / (a + 1)
            continue
        for e in range(a, -1, -1):
            out[(e, s - 1)] = out.get((e, s - 1), 0) + c / (1 - s)
            c = -c * e / (1 - s)
    return out


def _mpf_groups(series):
    # Euler-Maclaurin groups with their scales applied: the antiderivative
    # plus f/2, then B_2r/(2r)! f^(2r-1)
    group = _integral(series)
    for key, c in series.items():
        group[key] = group.get(key, 0) + c / 2
    yield group
    deriv = _derivative(series)
    for r in itertools.count(1):
        scale = _mpf(bernoulli(2 * r) / math.factorial(2 * r))
        yield {key: scale * c for key, c in deriv.items()}
        deriv = _derivative(_derivative(deriv))


def _mpf_value(series, x, lnx):
    return mp.fsum(c * lnx ** a * x ** -s for (a, s), c in series.items())


def _mpf_series(factors, c, b, a, q, s_cap):
    # the tail's series with mpf coefficients: the power series from exact
    # Fractions, each factor's value series from _mpf_groups and the
    # x -> 2x split
    coef, series = Fraction(1, b ** q), {}
    for j in range(s_cap - c - q + 1):
        series[(0, c + q + j)] = _mpf(coef)
        coef = coef * a * (q + j) / ((j + 1) * b)
    for kind in factors:
        value = {(0, 0): mp.euler if kind.order == 1 else mp.zeta(kind.order)}
        for group in _mpf_groups({(0, kind.order): mp.mpf(1)}):
            kept = {key: v for key, v in group.items() if key[1] <= s_cap}
            if not kept:
                break
            value.update(kept)
        if kind.parity == "odd":
            split = {}
            for (e, s), v in value.items():
                for j in range(e + 1):
                    split[(e - j, s)] = split.get((e - j, s), 0) + \
                        v * 2 ** -s * math.comb(e, j) * mp.ln2 ** j
                split[(e, s)] -= v * 2 ** -kind.order
            value = split
        product = {}
        for (e1, s1), v1 in series.items():
            for (e2, s2), v2 in value.items():
                if s1 + s2 <= s_cap:
                    key = (e1 + e2, s1 + s2)
                    product[key] = product.get(key, 0) + v1 * v2
        series = product
    return series


def _mpf_tail(factors, c, b, a, q, end, opts):
    # the mpf reference at the working precision: (tail, |first omitted
    # group|) like _table_tail
    wp = opts.digits + 15
    with mp.workdps(wp):
        series = _mpf_series(factors, c, b, a, q, _series_cap(c, q, end, opts.digits))
        x, lnx = mp.mpf(end), mp.log(end)
        values = [_mpf_value(group, x, lnx)
                  for group in itertools.islice(_mpf_groups(series), opts.tail_terms + 2)]
        return -mp.fsum(values[:-1]), abs(values[-1])


# every caller's (factors, c, b, a, q) and its k: evaluate_sum is
# (p, 2, 1, q), the shifted kernel (1, 1, -k, 1) and the two-sided kernels
# (c, -1, -k, 1)
TAIL_SHAPES = {
    "h1*H2/(k^3*(2k-1))": (((HarmonicKind.odd(1), HarmonicKind.even(2)), 3, 2, 1, 1), 0),
    "H1/k^2": (((HarmonicKind.even(1),), 2, 2, 1, 0), 0),
    "shifted h1, k=3": (((HarmonicKind.odd(1),), 1, 1, -3, 1), 3),
    "two-sided 1/i^2, k=5": (((), 2, -1, -5, 1), 5),
    "two-sided h2, k=4": (((HarmonicKind.odd(2),), 1, -1, -4, 1), 4),
}


@pytest.mark.parametrize("tail_terms", (1, 4, 8))
@pytest.mark.parametrize("digits", (20, 40, 52))
@pytest.mark.parametrize("end", ("100", "2000+k", "10^4"))
@pytest.mark.parametrize("shape", sorted(TAIL_SHAPES))
def test_fixed_point_tail_matches_mpf_route(shape, end, digits, tail_terms):
    args, k = TAIL_SHAPES[shape]
    end = {"100": 100, "2000+k": 2000 + k, "10^4": 10 ** 4}[end]
    opts = EvalOptions(digits, 10 ** 4, tail_terms)
    wp_bits = mp.libmp.dps_to_prec(digits + 15)
    prec = wp_bits + end.bit_length() + 16
    series = _log_series(*args, _series_cap(args[1], args[4], end, digits), digits, prec)
    tail, omitted = _table_tail(series, end, prec, tail_terms, digits + 15)
    want_tail, want_omitted = _mpf_tail(*args, end, opts)
    with mp.workdps(digits + 40):
        assert abs(mp.mpf((tail, -prec)) - want_tail) <= mp.mpf(2) ** -wp_bits
        assert abs(omitted - want_omitted) <= \
            mp.mpf(10) ** -(digits + 5) * want_omitted


def test_five_factors_meet_the_rounding_bound():
    # at end = 2*10^4, m X^(m-1) + 2 is about 7e4 for five factors, more
    # than a fixed 16 guard bits cover per term; the value must still be
    # within 2^-(bits of wp) of an mpf head plus the mpf tail
    factors, end = (HarmonicKind.odd(1),) * 5, 2 * 10 ** 4
    opts = EvalOptions(digits=20, K=end)
    wp = opts.digits + 15
    (value, _), = _sum_batch([(factors, 7, 2, 1, 0, end)], opts)
    with mp.workdps(wp + 20):
        prefix, head = mp.mpf(0), mp.mpf(0)
        for i in range(1, end + 1):
            prefix += mp.mpf(1) / (2 * i - 1)
            head += prefix ** 5 / mp.mpf(i) ** 7
    want_tail, _ = _mpf_tail(factors, 7, 2, 1, 0, end, opts)
    with mp.workdps(wp + 20):
        assert abs(value - head - want_tail) <= mp.mpf(2) ** -mp.libmp.dps_to_prec(wp)


def test_the_series_cap_is_planned_once_for_guard_bits_and_tail(monkeypatch):
    # _plan alone calls _series_cap, once per new series, and the cap it
    # returns, here a patched one, is the cap _guard_bits sizes and
    # _log_series keeps; memo hits and repeats plan nothing
    _sums.clear()
    caps, guards, tails = [], [], []
    real_cap, real_guard, real_series = _series_cap, _guard_bits, _log_series
    monkeypatch.setattr(summation, "_series_cap",
                        lambda *args: caps.append(real_cap(*args) + 3) or caps[-1])
    monkeypatch.setattr(summation, "_guard_bits", lambda m, end, s_cap, terms:
                        guards.append(s_cap) or real_guard(m, end, s_cap, terms))
    monkeypatch.setattr(summation, "_log_series", lambda *args: tails.append(args[5]) or
                        real_series(*args))
    opts = EvalOptions(digits=25, K=300)
    specs = [parse_sumspec(t) for t in ("h1/k^3", "h1*h2/k^3", "H1/(2k-1)^3")]
    sum_specs(specs + specs[:1], opts)
    sum_specs(specs, opts)
    _sums.clear()  # its sums were taken with the patched cap
    assert caps == [real_cap(c, q, opts.K, opts.digits) + 3
                    for c, q in ((3, 0), (3, 0), (0, 3))]
    assert guards == tails == caps


def test_guard_bits_grow_past_four_factors():
    # up to four factors the default 16 bits hold at end = 10^6; five do not
    s_cap = _series_cap(7, 0, 10 ** 6, 40)
    assert _guard_bits(4, 10 ** 6, s_cap, 4) == 16
    assert _guard_bits(5, 10 ** 6, s_cap, 4) > 16
    x_bound = 1 + math.log(10 ** 6)
    assert 2 ** _guard_bits(5, 10 ** 6, s_cap, 4) > 5 * x_bound ** 4 + 2


# the eight lemma-check kernels: shifted h1, and two-sided 1/i^2n and h_m
KERNELS = ([summation.AUX_KERNEL] + [summation.g_kernel(n) for n in (1, 2, 3)]
           + [summation.f_kernel(m) for m in (1, 2, 3, 4)])
# the default rows, and the band-edge rows of --kmax 200
BASIS_KS = sorted({*range(1, 21), 40, 41, 80, 81, 120, 121, 160, 161, 200})


@pytest.mark.parametrize("digits", (25, 40, 100))
@pytest.mark.parametrize("kernel", KERNELS, ids=str)
def test_band_basis_matches_the_direct_tail(kernel, digits):
    # each row's tail from its band's basis against the row's own series
    # dotted with the table (_table_tail) at the same end, prec, s_cap and
    # planned terms: each route is within _guard_bits' floor count times
    # X^m units of the same truncated series' tail, and both give the
    # omitted group to its working digits
    opts = EvalOptions(digits)
    bases = {}
    for k in BASIS_KS:
        series = summation._kernel_series(kernel, k, digits)
        prec, s_cap, terms = summation._plan(series, opts)
        assert terms == summation._kernel_plan(digits)[1]
        end, band = series[5], summation._band(series)
        if band not in bases:
            bases[band] = summation._basis(kernel[0], kernel[1], end, digits, prec, s_cap, terms)
        tail, omitted = summation._basis_tail(bases[band], series, prec, digits + 15)
        want, want_omitted = _table_tail(_log_series(*series[:5], s_cap, digits, prec), end,
                                         prec, terms, digits + 15)
        m = len(kernel[0])
        floors = (m + 1) * s_cap * (2 * m + 1) + 2 * (m + 3 * math.factorial(m) + terms + 7)
        assert abs(tail - want) <= 2 * floors * (1 + math.log(end)) ** m, k
        with mp.workdps(digits + 40):
            assert abs(mp.mpf(omitted) - mp.mpf(want_omitted)) <= \
                mp.mpf(10) ** -(digits + 5) * mp.mpf(want_omitted), k
    assert len(bases) == 5  # one per band


@pytest.mark.parametrize("kernel", KERNELS, ids=str)
def test_kernel_rows_share_end_cap_and_prec_per_band(kernel):
    # band n holds k in ((n - 1) 40, n 40]; each row's end is at least
    # the planner's ratio times k, its series keeps x^-(c + 1 + J), and
    # the check at kmax sums to ceil(kmax / 40) ends
    for digits in (25, 40, 100):
        opts, plans = EvalOptions(digits), {}
        ratio, terms, top = summation._kernel_plan(digits)
        for k in range(1, LEMMA_KMAX + 1):
            series = summation._kernel_series(kernel, k, digits)
            assert series[5] >= ratio * k, k
            plan = summation._plan(series, opts)
            assert plan[1:] == (kernel[1] + 1 + top, terms), k
            plans.setdefault(-(-k // summation.KERNEL_BAND), set()).add((series[5], plan))
        assert all(len(plan) == 1 for plan in plans.values())
        assert len(plans) == LEMMA_KMAX // summation.KERNEL_BAND
        for kmax in (1, 20, 40, 41, 100, LEMMA_KMAX):
            ends = {summation._kernel_series(kernel, k, digits)[5] for k in range(1, kmax + 1)}
            assert len(ends) == math.ceil(kmax / summation.KERNEL_BAND), kmax


def _reference_head(prec, factors, c, b, a, q, end):
    # the head one term at a time: add floor(2^prec / base^n) to each
    # factor's own prefix, multiply the prefixes, shift, then one floor
    # division, skipping a zero denominator
    one, shift = 1 << prec, prec * (len(factors) - 1)
    prefixes = [0] * len(factors)
    num, head = one, 0
    for i in range(1, end + 1):
        if factors:
            prefixes = [prefix + one // (i if kind.parity == "even" else 2 * i - 1) ** kind.order
                        for prefix, kind in zip(prefixes, factors)]
            num = math.prod(prefixes) >> shift
        den = i ** c * (b * i - a) ** q
        if den:
            head += num // den
    return head


def _head_prec(end: int) -> int:
    return mp.libmp.dps_to_prec(55) + end.bit_length() + 20


_h1, _h3 = HarmonicKind.odd(1), HarmonicKind.odd(3)
HEAD_GRID = [(spec.factors, spec.k_power, 2, 1, spec.odd_power, 1000) for spec in map(
    parse_sumspec, ("1/(2k-1)^3", "1/k^3", "h1*h1/k^3", "h1*h1*h3/(k^2*(2k-1)^3)",
                    "h1*h1*h1*h1*h1/k^2", "H2*H2*h1/(k^4*(2k-1))"))]
HEAD_GRID += [summation._kernel_series(kernel, k, 40) for k in (1, 2, 200)
              for kernel in (((_h1,), 1, 1), ((), 2, -1), ((_h3,), 1, -1))]


@pytest.mark.parametrize("args", HEAD_GRID, ids=str)
def test_head_matches_the_scalar_loop_bit_for_bit(args):
    # the same floors in the same order: the lazy head equals the scalar
    # reference exactly, repeated kinds and the two-sided pole included
    end = args[5]
    new, = _heads([args], _head_prec(end))
    assert new == _reference_head(_head_prec(end), *args)


def _traced_peaks(monkeypatch, run) -> tuple[list, list]:
    # (walks, peaks): run(K) once untraced at each K, so the constants and
    # value series are warm, then traced with the memo cleared.  A list
    # kept per term holds at least an 8-byte pointer per term, so the
    # peaks of K = 2,000 and 8,000 then differ by over 6,000 * 8 bytes
    _sums.clear()
    for K in (2000, 8000):
        run(K)
    walks, peaks = _count_walks(monkeypatch), []
    for K in (2000, 8000):
        _sums.clear()
        tracemalloc.start()
        try:
            run(K)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return walks, peaks


def test_head_memory_is_flat_in_K(monkeypatch):
    # every stage of the head is lazy: a K-long list of ~230-bit ints
    # would add about 60 bytes a term, and break both bounds
    spec = parse_sumspec("h1*h1*h3/(k^2*(2k-1)^3)")
    walks, peaks = _traced_peaks(monkeypatch, lambda K: evaluate_sum(spec, EvalOptions(K=K)))
    assert list(map(len, walks)) == [1, 1]
    assert peaks[1] < 2 ** 20
    assert peaks[1] - peaks[0] < 6000 * 8


_H2 = HarmonicKind.even(2)
_EDGE = HEAD_BLOCK
# every distinct single sum of the shipped catalog plus eq67's terms: h1
# over k^2..k^8 chains c in steps of 2, h2 and H2 over (2k-1)^3 and ^5
# chain q, h1..h5 and H1, H2, H3, H5 chain the columns, c = 0 carries
# q > 0, and 1/k^3 shares its first stage with 1/(k^3*(2k-1)^2)
CATALOG_SPECS = [parse_sumspec(t) for t in (
    "h1*h2/k^3", "h1*h2/k^5", "h1/k^2", "h1/k^4", "h1/k^6", "h1/k^8", "H1/k^4", "H2/k^3",
    "H3/k^2", "h2/k^3", "h2/k^5", "h2/k^7", "h3/k^4", "h3/k^6", "h4/k^5", "H3/(2k-1)^2",
    "H5/(2k-1)^2", "h2/(2k-1)^3", "h2/(2k-1)^5", "h3/(2k-1)^2", "h5/(2k-1)^2", "h3/k^2",
    "h5/k^2", "H2/(2k-1)^3", "H2/(2k-1)^5", "1/(k^3*(2k-1)^2)", "1/k^3")]
BATCH_GRID = {
    # different ends, most of them mid-block, mixed c and q, repeated kinds
    "mixed": [((_h1,), 2, 2, 1, 0, 1500), ((_h1,), 3, 2, 1, 1, 700),
              ((_h1, _h1), 2, 2, 1, 2, 1100), ((), 0, 2, 1, 3, _EDGE + 1),
              ((_h1, _h3), 1, 2, 1, 1, 2 * _EDGE), ((_h1,), 3, 2, 1, 4, 333),
              ((_h1, _h1, _h3), 2, 2, 1, 3, 900), ((_h1,) * 5, 2, 2, 1, 0, 300),
              ((_H2, _H2, _h1), 4, 2, 1, 1, 1300)],
    # two-sided poles at i = k: on the first term, on both sides of a block
    # edge, on the last term and past end; q = 2 and q = 3 move the sign
    "poles": [((_h3,), 1, -1, -1, 1, 1200), ((_h3,), 1, -1, -_EDGE, 1, 1000),
              ((_h3,), 1, -1, -_EDGE - 1, 1, 1700), ((_h3,), 1, -1, -700, 1, 700),
              ((_h3,), 1, -1, -3000, 1, 1500), ((), 4, -1, -_EDGE, 1, 800),
              ((_h1,), 1, -1, -600, 2, 800), ((_h1,), 0, -1, -5, 3, 600),
              ((_h3,), 1, 1, -7, 1, 999)],
    # b i - a below zero for small i, with and without a pole
    "below": [((_h1,), 1, 2, 5, 1, 800), ((_h1,), 1, 3, 6, 2, 700),
              ((_h1,), 2, 3, 6, 3, 650), ((), 2, 1, 40, 1, 1000)],
    # the catalog's division tree, ending mid-block
    "catalog": [_spec_series(spec, 2 * HEAD_BLOCK + 77) for spec in CATALOG_SPECS],
    # chains across ends: q = 1..3 on both sides of a pole, where odd and
    # even q keep their own chain past it, an equal q at another end, and
    # q = 0 beside them, which keeps the pole's term
    "chains": [((_h1,), 1, -1, -600, 1, 800), ((_h1,), 1, -1, -600, 2, 700),
               ((_h1,), 1, -1, -600, 3, 1300), ((_h1,), 1, -1, -600, 3, 900),
               ((_h1,), 1, -1, -600, 0, 1000), ((_h1,), 3, 2, 1, 2, 500),
               ((_h1,), 3, 2, 1, 4, 1200), ((_h1,), 5, 2, 1, 1, 1100)],
    # q = 0..3 where b i - a < 0 up to end: odd and even q share the one
    # run, so only the sign in a chain's key keeps their chains apart
    "signs": [((_h1,), 1, 1, 700, q, 600) for q in range(4)],
}
# the series of four cases in one batch, shuffled: numerators, signs, c,
# (b, a) and q interleave in the input, so the walk's chains must restart
# between groups
BATCH_GRID["interleaved"] = [series for name in ("mixed", "poles", "below", "chains")
                             for series in BATCH_GRID[name]]
random.Random(2103).shuffle(BATCH_GRID["interleaved"])


@pytest.mark.parametrize("name", BATCH_GRID)
def test_batched_heads_match_the_scalar_loop(name):
    # one walk over the whole batch at one prec equals each series' own
    # scalar loop at that prec, bit for bit
    batch = BATCH_GRID[name]
    prec = _head_prec(max(series[5] for series in batch))
    heads = _heads(batch, prec)
    want = [_reference_head(prec, *series) for series in batch]
    assert heads == want


def test_batched_heads_fill_the_memo(monkeypatch):
    # sum_specs sums the heads once, in one walk as the three share a
    # scale; evaluate_sum then only hits the memo
    _sums.clear()
    walks = _count_walks(monkeypatch)
    opts = EvalOptions(digits=25, K=300)
    specs = [parse_sumspec(t) for t in ("h1/k^3", "h1*h2/k^3", "H1/(2k-1)^3")]
    sum_specs(specs + specs[:1], opts)
    assert walks == [[_spec_series(spec, opts.K) for spec in specs]]
    assert len(_sums) == 3
    batched = [evaluate_sum(spec, opts) for spec in specs]
    assert len(walks) == 1
    _sums.clear()
    lone = [evaluate_sum(spec, opts) for spec in specs]
    assert list(map(repr, lone)) == list(map(repr, batched))
    assert list(map(_bits, lone)) == list(map(_bits, batched))
    assert list(map(len, walks)) == [3, 1, 1, 1]


def test_batch_past_the_memo_bound_returns_its_own_sums(monkeypatch):
    # 297 new series take the memo past SUMS_MAX: it is cleared first, then
    # keeps the whole batch, and the batch's sums (a memo hit among them)
    # are those of lone runs
    opts = EvalOptions(digits=20, K=100)
    specs = [spec for n in range(2, 101) for spec in (
        SumSpec((), n, 0), SumSpec((), 0, n), SumSpec((HarmonicKind.odd(1),), n, 0))]
    batch = [_spec_series(spec, opts.K) for spec in specs]
    _sums.clear()
    hit, = _sum_batch(batch[:1], opts)
    walks = _count_walks(monkeypatch)
    pairs = _sum_batch(batch + batch[:1], opts)
    assert sum(map(len, walks)) == len(batch) - 1 == 296
    assert len(batch) - 1 > SUMS_MAX
    assert list(_sums) == [(series, opts) for series in batch[1:]]
    assert pairs[0] == pairs[-1] == hit
    for spec in specs[1:]:
        evaluate_sum(spec, opts)
    assert sum(map(len, walks)) == 296
    lone = []
    for series in batch:
        _sums.clear()
        lone.append(_sum_batch([series], opts)[0])
    assert [repr(pair) for pair in pairs[:-1]] == [repr(pair) for pair in lone]
    assert [[x._mpf_ for x in pair] for pair in pairs[:-1]] == \
        [[x._mpf_ for x in pair] for pair in lone]


def test_batch_memory_is_flat_in_K(monkeypatch):
    # a block of columns, numerators and quotients is a few hundred KB at
    # most; the K-long lists of the three specs would grow with K
    specs = [parse_sumspec(t) for t in ("h1*h1*h3/(k^2*(2k-1)^3)", "h1/k^3", "H2*h3/(2k-1)^2")]
    walks, peaks = _traced_peaks(monkeypatch, lambda K: sum_specs(specs, EvalOptions(K=K)))
    assert list(map(len, walks)) == [3, 3]
    assert peaks[1] < 2 ** 20
    assert peaks[1] - peaks[0] < 6000 * 8


def test_catalog_batch_memory_is_flat_in_K(monkeypatch):
    # the catalog's division tree holds a block of columns, powers and
    # quotients at a time; one K-long list of its ~230-bit prefixes would
    # add about 60 bytes a term
    walks, peaks = _traced_peaks(monkeypatch,
                                 lambda K: sum_specs(CATALOG_SPECS, EvalOptions(K=K)))
    assert list(map(len, walks)) == [len(CATALOG_SPECS)] * 2
    assert peaks[1] < 2 ** 20
    assert peaks[1] - peaks[0] < 6000 * 8


def test_tail_asks_factors_only_for_the_powers_it_keeps():
    # the power series of h1/k^300 starts at x^-300, so h1's value series
    # is needed only to x^-(s_cap - 300), and the Bernoulli numbers only
    # to B_(s_cap - 298); to x^-s_cap they would run to B_(s_cap + 2),
    # which for h1/k^2000 takes about a minute
    opts, end = EvalOptions(digits=20, K=100), 100
    s_cap = _series_cap(300, 0, end, opts.digits)
    prec = mp.libmp.dps_to_prec(opts.digits + 15) + end.bit_length() + 16
    del numerics._bernoulli_cache[2:]
    series = _log_series((HarmonicKind.odd(1),), 300, 2, 1, 0, s_cap, opts.digits, prec)
    _table_tail(series, end, prec, opts.tail_terms, opts.digits + 15)
    assert len(numerics._bernoulli_cache) - 1 <= s_cap - 300 + 2


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
            want = evaluate(expr.terms, 40)
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
    assert parse_sumspec(spec.text()) == spec


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


@functools.lru_cache(maxsize=None)
def _plan_grid(digits: int) -> tuple:
    # every (ratio, terms, J) with end >= J + N + 6 whose modelled cost is
    # below the cheapest plan met so far, by ratio, then terms, then J, with
    # the log10 of its two-sided bound: the cost grows with each of them,
    # so no cheaper plan is passed over; and that cheapest plan
    best, grid = None, {}
    for ratio in summation._RATIOS:
        head, end = ratio * summation.HEAD_COST, summation.KERNEL_BAND * ratio
        if best and head >= best[0]:
            break
        for terms in itertools.count(2):
            if 2 * terms + 8 > end:
                break
            for top in itertools.count(0):
                cost = head + top * (top + 2 * terms)
                if best and cost >= best[0] or top + 2 * terms + 8 > end:
                    break
                grid[ratio, terms, top] = summation._kernel_bound(digits, -1, ratio, terms, top)
                if grid[ratio, terms, top] < -(digits + 2):
                    best = cost, ratio, terms, top
                    break
    return best, grid


@pytest.mark.parametrize("digits", (25, 40, 100))
def test_kernel_plan_is_the_cheapest_pair_that_meets_the_target(digits):
    # the brute force over (ratio, terms, J) by the planner's cost
    best, _ = _plan_grid(digits)
    assert summation._kernel_plan(digits) == best[1:]


@pytest.mark.parametrize("digits", (25, 40, 100))
def test_the_two_sided_bound_covers_the_shifted_kernel(digits):
    # each part grows with w, so b = 1 (w = 1) is bounded by b = -1, and
    # one plan serves both kernel sides
    for (ratio, terms, top), bound in _plan_grid(digits)[1].items():
        assert summation._kernel_bound(digits, 1, ratio, terms, top) <= bound
