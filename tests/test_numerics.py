"""Constants and exact rationals against independent oracles."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddeuler import numerics, summation
from oddeuler.highfloat import HighFloat, dps_to_prec, ln_fixed
from oddeuler.numerics import bernoulli, constant
from oddeuler.harmonic import HarmonicKind, value_series
from oddeuler.identities import FormalCombination, Identity, VerificationReport
from oddeuler.summation import (EvalOptions, EvalResult, SumSpec,
                                reciprocal_sum_closed_form)
from oddeuler.zeta_algebra import ZetaExpr, ZetaMonomial, evaluate, parse_expr

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
    for got, dps in ((constant("ln2", digits), digits),
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
    # ln 2 and gamma at every sampled count, and zeta(n) at every fourth
    zetas = (2, 3, 5, 8, 13, 25) if BIT_DIGITS.index(digits) % 4 == 0 else ()
    with mp.workprec(dps_to_prec(digits)):
        assert constant("ln2", digits)._mpf_ == (+mp.ln2)._mpf_
        assert constant("euler_gamma", digits)._mpf_ == (+mp.euler)._mpf_
        for n in zetas:
            assert constant(f"zeta({n})", digits)._mpf_ == mp.zeta(n)._mpf_, n


@pytest.mark.parametrize("name", sorted(FROZEN_CONSTANTS))
def test_constants_against_frozen(name):
    got = constant(name, 50)
    assert close(got, FROZEN_CONSTANTS[name], "1e-48")


def test_constants_against_mpmath_oracle():
    with mp.workdps(45):
        assert close(constant("zeta(5)", 40), mp.nstr(mp.zeta(5), 45), "1e-38")
        assert close(constant("ln2", 40), mp.nstr(mp.log(2), 45), "1e-38")
        assert close(constant("euler_gamma", 40), mp.nstr(+mp.euler, 45),
                     "1e-38")


def test_zeta_one_rejected():
    with pytest.raises(ValueError, match="zeta\\(1\\) divergent"):
        constant("zeta(1)", 40)


def test_low_precision_rejected():
    with pytest.raises(ValueError, match="precision too low"):
        constant("ln2", 5)


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        constant("pi", 40)


def test_constants_table():
    for name in ("zeta(3)", "ln2", "euler_gamma"):
        assert close(constant(name, 45), FROZEN_CONSTANTS[name], "1e-43")


def test_lambda_matches_definition():
    # lambda(n) = (1 - 2^-n) zeta(n) is never a stored symbol: it is the
    # closed form of sum 1/(2k-1)^n, valued by zeta_algebra.evaluate
    with mp.workdps(45):
        for n in range(2, 9):
            lam = evaluate(reciprocal_sum_closed_form(0, n), 40)
            want = (1 - mp.mpf(2) ** (-n)) * mp.mpf(
                FROZEN_CONSTANTS[f"zeta({n})"])
            assert abs(lam - want) < mp.mpf("1e-38")


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.integers(min_value=2, max_value=12),
       digits=st.integers(min_value=15, max_value=55))
def test_zeta_matches_mpmath_everywhere(n, digits):
    got = constant(f"zeta({n})", digits)
    with mp.workdps(digits + 10):
        want = mp.zeta(n)
        assert abs(mp.mpf(got) - want) < mp.mpf(10) ** (2 - digits)


# ---- the frozen records -----------------------------------------------------

_SPEC = SumSpec((HarmonicKind.odd(1),), 2, 0)
_ONE = ZetaExpr.const(1)
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
    (FormalCombination(((_ONE, _SPEC, 1),)), FormalCombination(((_ONE, _SPEC, 1),), ZetaExpr.zero())),
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


def _ref_fixed(series, x, lnx, prec):
    powers = [1 << prec]
    for _ in range(max(a for a, _ in series) + 1):
        powers.append(powers[-1] * lnx >> prec)
    for scale, group in _ref_groups(series):
        by_power = {}
        for (a, t), c in group.items():
            by_power[t] = by_power.get(t, 0) + c * powers[a]
        low, acc = min(by_power), 0
        for t in range(max(by_power), low - 1, -1):
            acc = acc // x + by_power.get(t, 0)
        yield acc * scale.numerator // (scale.denominator << prec), low


EM_PREC = 200


def _em_series(name):
    one = 1 << EM_PREC
    if name == "x^-2":
        return {(0, 2): one}
    if name == "logs 0-3, s from 0":
        # every log power at every s, s = 0 log keys included, mixed signs
        return {(a, s): (-1) ** (a + s) * (3 * a + 5 * s + 7) * one // 11
                for a in range(4) for s in range(6) if a or s}
    if name == "a constant and gaps":
        # the constant is the only s = 0 key: its vanishing derivatives add
        # no power of 1/x
        return {(0, 0): one // 3, (1, 1): -one // 7, (3, 4): one // 5, (0, 9): -one}
    if name in ("H1", "h1"):
        # value series of the prefixes: only some powers of 1/x occur
        kind = HarmonicKind.even(1) if name == "H1" else HarmonicKind.odd(1)
        return value_series(kind, 24, 55, EM_PREC)
    # a lemma tail's series: the shifted kernel's power series times h1's
    power = summation._power_series(2, 1, -7, 1, 24, EM_PREC)
    return summation._series_mul(power, value_series(HarmonicKind.odd(1), 22, 55, EM_PREC),
                                 24, EM_PREC)


EM_NAMES = ("x^-2", "logs 0-3, s from 0", "a constant and gaps", "H1", "h1", "h1 tail")


@pytest.mark.parametrize("x", (100, 2007, 10 ** 4))
@pytest.mark.parametrize("name", EM_NAMES)
def test_euler_maclaurin_fixed_matches_chained_derivatives(name, x):
    series = _em_series(name)
    lnx = mp.libmp.to_fixed(mp.libmp.mpf_log(mp.libmp.from_int(x), EM_PREC + 8), EM_PREC)
    got = list(itertools.islice(numerics.euler_maclaurin_fixed(series, x, lnx, EM_PREC), 30))
    assert got == list(itertools.islice(_ref_fixed(series, x, lnx, EM_PREC), 30))


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
    const = constant("euler_gamma" if n == 1 else f"zeta({n})", digits)
    even = {(0, 0): mp.libmp.to_fixed(const._mpf_, prec), **_ref_power_groups(n, s_cap, prec)}
    if kind.parity == "even":
        return even
    # h(n, x) = H(n, 2x) - 2^-n H(n, x), with (ln 2x)^a expanded binomially
    ln2 = mp.libmp.to_fixed(constant("ln2", digits)._mpf_, prec)
    out = {}
    for (a, s), c in even.items():
        for j in range(a + 1):
            out[(a - j, s)] = out.get((a - j, s), 0) + \
                (math.comb(a, j) * c * ln2 ** j >> (s + prec * j))
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
