"""Constants and exact rationals against independent oracles."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache, partial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddeuler import numerics, summation
from oddeuler.highfloat import HighFloat, dps_to_prec, ln_fixed
from oddeuler.numerics import bernoulli, constant, ln2
from oddeuler.harmonic import HarmonicKind, value_series
from oddeuler.identities import FormalCombination, Identity, VerificationReport
from oddeuler.summation import (EvalOptions, EvalResult, SumSpec,
                                reciprocal_sum_closed_form)
from oddeuler.zeta_algebra import MAX_POWER, ZetaExpr, ZetaMonomial, evaluate, parse_expr

from conftest import FROZEN_CONSTANTS, close

KNOWN_BERNOULLI = {
    0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
    4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
    10: Fraction(5, 66), 12: Fraction(-691, 2730), 3: Fraction(0),
    5: Fraction(0), 7: Fraction(0),
}


def test_bernoulli_exact_values():
    for n, want in KNOWN_BERNOULLI.items():
        assert bernoulli(n) == want


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


@lru_cache(maxsize=None)
def _bernoulli_recurrence(n_max):
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 solved for B_m
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


@pytest.mark.parametrize("order", ("ascending", "B150 first", "after cuts"))
def test_bernoulli_matches_the_recurrence_to_200(order):
    # the tangent-number row must follow the cache however it is grown or cut
    want = _bernoulli_recurrence(200)
    del numerics._bernoulli_cache[2:]
    if order == "B150 first":
        assert bernoulli(150) == want[150]
    elif order == "after cuts":
        bernoulli(200)
        del numerics._bernoulli_cache[7:]
        assert [bernoulli(n) for n in range(201)] == want
        del numerics._bernoulli_cache[2:]
    assert [bernoulli(n) for n in range(201)] == want


@pytest.mark.parametrize("digits", (10, 20, 40, 100, 300, 500))
def test_ln2_within_one_ulp_of_mpmath(digits):
    # the guarded value too, at its own precision: rounding to digits would
    # hide lost guard bits
    wp = dps_to_prec(digits + 10) + 16
    for got, dps in ((ln2(digits), digits),
                     (HighFloat(ln_fixed(2, wp), -wp).round(digits + 10), digits + 10)):
        with mp.workdps(dps):
            ulp = mp.mpf(2) ** -mp.mp.prec  # ln 2 lies in [1/2, 1)
        with mp.workdps(dps + 20):
            assert abs(got - mp.log(2)) <= ulp


# about 30 digit counts over the range the package asks for (fit's re-check
# takes constants at twice the digits), both ends included
BIT_DIGITS = sorted({10, 1010, *random.Random(2310).sample(range(11, 1010), 28)})


@pytest.mark.parametrize("digits", BIT_DIGITS)
def test_constants_are_mpmaths_bit_for_bit(digits):
    # ln 2 and gamma at every sampled count, zeta(n) at every fourth, and
    # up to the top order, MAX_POWER, at the first and the last count
    zetas = (2, 3, 5, 8, 13, 25) if BIT_DIGITS.index(digits) % 4 == 0 else ()
    if digits in (BIT_DIGITS[0], BIT_DIGITS[-1]):
        zetas = (2, 3, 4, 5, 8, 13, 25, 64, MAX_POWER)
    with mp.workprec(dps_to_prec(digits)):
        assert ln2(digits)._mpf_ == (+mp.ln2)._mpf_
        assert constant(1, digits)._mpf_ == (+mp.euler)._mpf_
        for n in zetas:
            assert constant(n, digits)._mpf_ == mp.zeta(n)._mpf_, n


@pytest.mark.parametrize("dps", (20, 114, 1010))
@pytest.mark.parametrize("s", (2, 3, 100))
def test_borwein_zeta_within_its_stated_bound(s, dps):
    # the unrounded fixed-point zeta(s) lies within 6 n + 2 units of 2^-wp
    # (the truncation plus 3 n floor units, at most doubled by the last
    # division, and its floor), and 16 guard bits lie past that bound
    wp = numerics._zeta_prec(dps)
    bound = 6 * len(numerics._borwein_weights(wp)) + 2
    assert bound < 1 << wp - dps_to_prec(dps) - 16
    with mp.workprec(wp + 20):
        err = mp.mpf(numerics._borwein_zeta(s, wp)) - mp.ldexp(mp.zeta(s), wp)
    assert abs(err) <= bound, (err, bound)


# the frozen table's names, as calls at a digit count
FROZEN_CALLS = {"ln2": ln2, "euler_gamma": partial(constant, 1),
                **{f"zeta({n})": partial(constant, n) for n in range(2, 10)}}


@pytest.mark.parametrize("name", sorted(FROZEN_CONSTANTS))
def test_constants_against_frozen(name):
    got = FROZEN_CALLS[name](50)
    assert close(got, FROZEN_CONSTANTS[name], "1e-48")


def test_constants_against_mpmath_oracle():
    with mp.workdps(45):
        assert close(constant(5, 40), mp.nstr(mp.zeta(5), 45), "1e-38")
        assert close(ln2(40), mp.nstr(mp.log(2), 45), "1e-38")
        assert close(constant(1, 40), mp.nstr(+mp.euler, 45), "1e-38")


def test_order_below_one_rejected():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"order must be >= 1, got {n}"):
            constant(n, 40)


def test_low_precision_rejected():
    # both functions, at 5 digits and at 9, the edge; 10 digits is taken
    for digits in (5, 9):
        with pytest.raises(ValueError, match="precision too low"):
            ln2(digits)
        with pytest.raises(ValueError, match="precision too low"):
            constant(2, digits)
    assert ln2(10).text(10) == "0.6931471806"
    assert constant(2, 10).text(10) == "1.644934067"


def test_constants_table():
    for name in ("zeta(3)", "ln2", "euler_gamma"):
        assert close(FROZEN_CALLS[name](45), FROZEN_CONSTANTS[name], "1e-43")


def test_lambda_matches_definition():
    # lambda(n) = (1 - 2^-n) zeta(n) is never a stored symbol: it is the
    # closed form of sum 1/(2k-1)^n, valued by zeta_algebra.evaluate
    with mp.workdps(45):
        for n in range(2, 9):
            lam = evaluate(reciprocal_sum_closed_form(0, n).terms, 40)
            want = (1 - mp.mpf(2) ** (-n)) * mp.mpf(
                FROZEN_CONSTANTS[f"zeta({n})"])
            assert abs(lam - want) < mp.mpf("1e-38")


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.integers(min_value=2, max_value=12),
       digits=st.integers(min_value=15, max_value=55))
def test_zeta_matches_mpmath_everywhere(n, digits):
    got = constant(n, digits)
    with mp.workdps(digits + 10):
        want = mp.zeta(n)
        assert abs(mp.mpf(got) - want) < mp.mpf(10) ** (2 - digits)


# ---- the frozen records -----------------------------------------------------

_SPEC = SumSpec((HarmonicKind.odd(1),), 2, 0)
_ONE = parse_expr("1")
# one instance's fields per record class, in declaration order
RECORDS = (
    (HarmonicKind, {"parity": "odd", "order": 3}),
    (ZetaMonomial, {"factors": ((1, 1), (3, 1))}),
    (ZetaExpr, {"terms": ((ZetaMonomial(), Fraction(7, 4)),)}),
    (SumSpec, {"factors": (HarmonicKind.odd(1),), "k_power": 2, "odd_power": 1}),
    (EvalOptions, {"digits": 30, "K": 1000, "tail_terms": 5}),
    (EvalResult, {"value": mp.mpf(2), "err_estimate": mp.mpf(0), "K": 100, "digits": 20}),
    (FormalCombination, {"parts": ((_ONE, _SPEC, 1),), "constant": _ONE}),
    (Identity, {"id": "x", "lhs": _SPEC, "rhs": _ONE, "source": "s", "expected": "must_pass"}),
    (VerificationReport, {"id": "x", "lhs_value": mp.mpf(1), "rhs_value": mp.mpf(1),
                          "residual": mp.mpf(0), "tolerance": mp.mpf(1), "verdict": "pass",
                          "digits": 20, "K": 100, "err_estimate": mp.mpf(0)}),
)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_equality_hash_and_construction(cls, fields):
    obj = cls(**fields)
    same = cls(*fields.values())
    assert obj == same and not obj != same
    assert hash(obj) == hash(same) == hash(tuple(fields.values()))
    assert [getattr(obj, name) for name in fields] == list(fields.values())
    assert obj != tuple(fields.values())
    for other, other_fields in RECORDS:
        if other is not cls:
            assert obj != other(**other_fields)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_is_frozen(cls, fields):
    obj = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, name) == value


@pytest.mark.parametrize("short,full", (
    (ZetaMonomial(), ZetaMonomial(())),
    (ZetaExpr(), ZetaExpr(())),
    (SumSpec(k_power=2), SumSpec((), 2, 0)),
    (EvalOptions(K=1000), EvalOptions(40, 1000, 4)),
    (FormalCombination(((_ONE, _SPEC, 1),)), FormalCombination(((_ONE, _SPEC, 1),), ZetaExpr())),
), ids=("ZetaMonomial", "ZetaExpr", "SumSpec", "EvalOptions", "FormalCombination"))
def test_record_defaults_are_the_class_attributes(short, full):
    assert short == full


def test_record_repr():
    assert repr(EvalOptions()) == "EvalOptions(digits=40, K=10000, tail_terms=4)"
    assert repr(HarmonicKind.odd(3)) == "HarmonicKind(parity='odd', order=3)"
    assert repr(SumSpec(k_power=2)) == "SumSpec(factors=(), k_power=2, odd_power=0)"
    # a method the class defines itself is kept
    assert repr(parse_expr("7/4*z3")) == "ZetaExpr('7/4*z3')"


def test_record_runs_post_init():
    with pytest.raises(ValueError, match="order must be >= 1"):
        HarmonicKind("odd", 0)
    # __post_init__ may set a field through object.__setattr__
    assert SumSpec((HarmonicKind.even(1), HarmonicKind.odd(1)), 2).factors == (
        HarmonicKind.odd(1), HarmonicKind.even(1))


# ---- the Euler-Maclaurin groups, bit for bit -------------------------------
#
# The reference builds group r as the engine did before its derivative
# kernels: 2r - 1 chained derivatives of the whole series, then one int per
# power of 1/x and the Horner floors.  Its antiderivative and halves floor
# as the engine's do, so the two must agree exactly.


def _ref_deriv(series):
    out = {}
    for (a, s), c in series.items():
        if a:
            out[(a - 1, s + 1)] = out.get((a - 1, s + 1), 0) + c * a
        if s:
            out[(a, s + 1)] = out.get((a, s + 1), 0) - c * s
    return out


def _ref_groups(series):
    group = {}
    for (a, s), c in series.items():
        if s == 1:
            group[(a + 1, 0)] = group.get((a + 1, 0), 0) + c // (a + 1)
            continue
        for j in range(a + 1):
            group[(a - j, s - 1)] = group.get((a - j, s - 1), 0) + \
                (-c * math.perm(a, j)) // (s - 1) ** (j + 1)
    for key, c in series.items():
        group[key] = group.get(key, 0) + c // 2
    yield Fraction(1), group
    deriv = _ref_deriv(series)
    for r in itertools.count(1):
        yield bernoulli(2 * r) / math.factorial(2 * r), deriv
        deriv = _ref_deriv(_ref_deriv(deriv))


EM_PREC = 200


# ---- the table of monomial tails --------------------------------------------
#
# Each entry against its groups taken exactly, from chained derivatives in
# Fractions valued at ln x = lnx 2^-prec, within the floors that
# numerics.monomial_tails states; then against mpmath's Hurwitz zeta.


def _entry_floors(a, s, x, terms):
    # the stated floors of an entry's w and v, in units of 2^-prec
    big_x = 1 + math.log(x)

    def size(n):
        return sum(abs(k) * big_x ** b for b, k in enumerate(numerics._deriv_kernel(n, s, a)))

    spread = 1 if s == 1 else sum(math.perm(a, j) / (s - 1) ** (j + 1) for j in range(a))
    rest = sum(size(2 * r - 1) / x ** (2 * r) for r in range(1, terms + 1))
    return a + 4 + spread + rest, 1 + size(2 * terms + 1)


def _exact_entry(a, s, x, lam, terms):
    # (w, v) of (ln x)^a x^-s in Fractions at ln x = lam: group 0 is the
    # antiderivative plus f/2, group r B_2r/(2r)! times 2r - 1 chained
    # derivatives; w relative to x^-(s-1), v to x^-(s+2 terms+1)
    if s == 1:
        group = {(a + 1, 0): Fraction(1, a + 1)}
    else:
        group = {(a - j, s - 1): Fraction(-math.perm(a, j), (s - 1) ** (j + 1))
                 for j in range(a + 1)}
    group[(a, s)] = group.get((a, s), 0) + Fraction(1, 2)

    def value(series):
        return sum(c * lam ** e / Fraction(x) ** t for (e, t), c in series.items())

    w, deriv = value(group), _ref_deriv({(a, s): Fraction(1)})
    for r in range(1, terms + 2):
        g = bernoulli(2 * r) / math.factorial(2 * r) * value(deriv)
        w += g if r <= terms else 0
        deriv = _ref_deriv(_ref_deriv(deriv))
    return w * x ** (s - 1), g * x ** (s + 2 * terms + 1)


@pytest.mark.parametrize("terms", (0, 1, 4, 8))
@pytest.mark.parametrize("x", (100, 2007, 10 ** 4))
def test_monomial_tails_match_chained_derivatives(x, terms):
    keys = [(a, s) for a in range(4) for s in range(1, 9)]
    table = numerics.monomial_tails(keys, x, EM_PREC, terms)
    lam = Fraction(ln_fixed(x, EM_PREC), 1 << EM_PREC)
    for a, s in keys:
        want_w, want_v = _exact_entry(a, s, x, lam, terms)
        w, v = table[a, s]
        w_floors, v_floors = _entry_floors(a, s, x, terms)
        assert abs(w - want_w * 2 ** EM_PREC) <= w_floors, (a, s)
        assert abs(v - want_v * 2 ** EM_PREC) <= v_floors, (a, s)
    # one table per (end, prec, terms): asking again computes nothing
    assert numerics.monomial_tails(keys[:3], x, EM_PREC, terms) is table


@pytest.mark.parametrize("digits", (40, 100))
@pytest.mark.parametrize("end", (480, 1000, 10 ** 4))
def test_monomial_tails_against_hurwitz_zeta(end, digits):
    # sum_{i>end} (ln i)^a i^-s is (-1)^a zeta^(a)(s, end + 1), from
    # mpmath: each entry's tail, its groups with the sign turned, is within
    # its first omitted group plus the stated floors and the floor of ln end
    # itself, worth a X^a units at most, at the kernel planner's terms.
    # mpmath's Hurwitz zeta loses about (s - 1) log10(end) digits, so each
    # is taken that much above the entry's precision
    terms = summation._kernel_plan(digits)[1]
    prec = dps_to_prec(digits + 15) + end.bit_length() + 16
    keys = [(a, s) for a in range(3) for s in range(2, 41)]
    table = numerics.monomial_tails(keys, end, prec, terms)
    for a, s in keys:
        with mp.workdps(digits + 30 + math.ceil((s - 1) * math.log10(end))):
            w, v = table[a, s]
            true = (-1) ** a * mp.zeta(s, end + 1, a) * mp.mpf(end) ** (s - 1) * mp.mpf(2) ** prec
            omitted = abs(v) / mp.mpf(end) ** (2 * terms + 2)
            floors = _entry_floors(a, s, end, terms)[0] + a * (1 + math.log(end)) ** a
            assert abs(true + w) <= omitted + floors, (a, s)


def _ref_power_groups(n, s_cap, prec):
    # each group's terms to x^-s_cap, scaled and floored, up to the first
    # group with none left
    out = {}
    for scale, group in _ref_groups({(0, n): 1 << prec}):
        kept = {key: c * scale.numerator // scale.denominator
                for key, c in group.items() if key[1] <= s_cap}
        if not kept:
            return out
        out.update(kept)


@pytest.mark.parametrize("n", (*range(1, 13), 50, 100))
def test_power_groups_match_chained_derivatives(n):
    # the same keys in the same order and the same floors, for caps below
    # group 0's x^-(n-1), at n and up to n + 20
    for s_cap in range(max(0, n - 4), n + 21):
        got = numerics.power_groups(n, s_cap, EM_PREC)
        assert list(got.items()) == list(_ref_power_groups(n, s_cap, EM_PREC).items())


def _ref_value_series(kind, s_cap, digits, prec):
    n = kind.order
    even = {(0, 0): mp.libmp.to_fixed(constant(n, digits)._mpf_, prec),
            **_ref_power_groups(n, s_cap, prec)}
    if kind.parity == "even":
        return even
    # h(n, x) = H(n, 2x) - 2^-n H(n, x), with (ln 2x)^a expanded binomially
    log2 = mp.libmp.to_fixed(ln2(digits)._mpf_, prec)
    out = {}
    for (a, s), c in even.items():
        for j in range(a + 1):
            out[(a - j, s)] = out.get((a - j, s), 0) + \
                (math.comb(a, j) * c * log2 ** j >> (s + prec * j))
        out[(a, s)] -= c >> n
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("digits, prec", ((20, 100), (55, 230)))
@pytest.mark.parametrize("parity", ("even", "odd"))
def test_value_series_is_its_constant_plus_power_groups(parity, digits, prec):
    for n in (1, 2, 3, 7, 20):
        for s_cap in (0, n - 1, n, n + 1, n + 8, 40):
            kind = HarmonicKind(parity, n)
            want = _ref_value_series(kind, s_cap, digits, prec)
            assert list(value_series(kind, s_cap, digits, prec).items()) == list(want.items())


@pytest.mark.parametrize("a", range(4))
@pytest.mark.parametrize("s", range(4))
def test_deriv_kernel_against_numerical_derivatives(s, a):
    x = mp.mpf("1.7")
    with mp.workdps(40):
        for n in range(7):
            kernel = numerics._deriv_kernel(n, s, a)
            assert len(kernel) == a + 1
            got = x ** (-s - n) * mp.fsum(k * mp.log(x) ** b for b, k in enumerate(kernel))
            want = mp.diff(lambda t: mp.log(t) ** a * t ** -s, x, n)
            assert abs(got - want) <= mp.mpf(10) ** -25 * max(1, abs(want))
