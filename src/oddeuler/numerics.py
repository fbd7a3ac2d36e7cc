"""Exact rationals, precision-tagged floats, and self-contained constants.

Two number kinds flow through the rest of the package: `Rational` (exact,
never rounded) and mpmath floats created at an explicit decimal precision.
The constants zeta(n), ln 2 and Euler's gamma are computed here from
head sums and the Euler-Maclaurin core below (shared with the harmonic
and summation modules) rather than pulled from a library table, so the
test suite can cross-check them against a second, independent route.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

# Exact arithmetic is deliberately the standard library type: lowest terms
# and positive denominators are guaranteed by construction.
Rational = Fraction

# High precision floats are mpmath floats.  Every public function that
# returns one takes an explicit decimal digit count; nothing in this
# package reads or mutates the global mpmath precision outside a workdps
# block.
HighFloat = mp.mpf

_GUARD = 10
_MIN_DIGITS = 10


# ---- Bernoulli numbers -------------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    >>> bernoulli(2)
    Fraction(1, 6)
    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        if m % 2 == 1:
            _bernoulli_cache.append(Fraction(0))
            continue
        # sum_{j=0}^{m} C(m+1, j) B_j = 0 solved for B_m
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


# ---- log-power series and the Euler-Maclaurin core ----------------------
#
# A series is a dict {(a, s): c} standing for sum c (ln x)^a x^{-s}, with
# mpf coefficients (exact integers also work and keep derivatives exact).
# All series code assumes an mpmath working precision is already active.


def series_deriv(series: dict) -> dict:
    """d/dx of a log-power series."""
    out: dict = {}
    for (a, s), c in series.items():
        if a:
            out[(a - 1, s + 1)] = out.get((a - 1, s + 1), 0) + c * a
        if s:
            out[(a, s + 1)] = out.get((a, s + 1), 0) - c * s
    return out


def series_eval(series: dict, x: HighFloat, lnx: HighFloat | None) -> HighFloat:
    """Value of a series at x; lnx may be None when no term carries a log."""
    total = mp.mpf(0)
    for (a, s), c in series.items():
        total += c * lnx ** a * x ** (-s) if a else c * x ** (-s)
    return total


def _series_antideriv(series: dict) -> dict:
    # (ln x)^a / x integrates to (ln x)^{a+1}/(a+1); for s != 1, parts give
    # -sum_j a!/(a-j)! (ln x)^{a-j} x^{1-s} / (s-1)^{j+1}, which is minus
    # the integral over (x, inf) whenever s > 1
    out: dict = {}
    for (a, s), c in series.items():
        if s == 1:
            out[(a + 1, 0)] = out.get((a + 1, 0), 0) + mp.mpf(c) / (a + 1)
            continue
        coef = -mp.mpf(c) / (s - 1)
        for j in range(a + 1):
            out[(a - j, s - 1)] = out.get((a - j, s - 1), 0) + coef
            coef = coef * (a - j) / (s - 1)
    return out


def euler_maclaurin(series: dict):
    """Euler-Maclaurin expansion of sum_{k<=x} f(k), one group at a time.

    f is a log-power series.  Group 0 is the antiderivative of f plus f/2;
    group r >= 1 is B_{2r}/(2r)! f^{(2r-1)}.  The constant of summation is
    the caller's: for a decaying f the groups add up to minus the tail
    sum_{k>x} f(k).  The expansion is asymptotic; at fixed x its groups
    shrink until r is about pi x and then grow.

    >>> with mp.workdps(20):
    ...     groups = euler_maclaurin({(0, 2): mp.mpf(1)})
    ...     [mp.nstr(series_eval(next(groups), mp.mpf(10), None), 8)
    ...      for _ in range(3)]
    ['-0.095', '-0.00016666667', '3.3333333e-7']
    """
    group = _series_antideriv(series)
    for key, c in series.items():
        group[key] = group.get(key, 0) + mp.mpf(c) / 2
    yield group
    deriv = series_deriv(series)
    for r in itertools.count(1):
        b = bernoulli(2 * r)
        scale = mp.mpf(b.numerator) / (b.denominator * math.factorial(2 * r))
        yield {key: scale * c for key, c in deriv.items()}
        deriv = series_deriv(series_deriv(deriv))


# ---- constants from scratch --------------------------------------------


def _require_digits(digits: int) -> None:
    if digits < _MIN_DIGITS:
        raise ValueError(f"precision too low: digits must be >= {_MIN_DIGITS}, got {digits}")


def _ln2_series(dps: int) -> mp.mpf:
    # ln 2 = 2 atanh(1/3); the ratio test gives one digit per ~0.95 terms.
    with mp.workdps(dps):
        target = mp.mpf(10) ** (-(dps + 2))
        x2 = mp.mpf(1) / 9
        power = mp.mpf(1) / 3
        total = mp.mpf(0)
        for j in itertools.count():
            term = power / (2 * j + 1)
            total += term
            if term < target:
                return 2 * total
            power *= x2


def _em_constant(n: int, big_k: int, dps: int) -> mp.mpf:
    # Constant of summation of 1/k^n (zeta(n), or gamma at n = 1): the head
    # sum to big_k minus the Euler-Maclaurin groups of x^{-n} at big_k.
    # The head is summed in fixed point with 16 guard bits.  Groups are
    # taken until one drops below the target, with at least four
    # corrections applied.  ln K only enters at n = 1, where K must be a
    # power of two so that ln K is an integer multiple of ln 2.
    with mp.workdps(dps):
        lnk = (big_k.bit_length() - 1) * _ln2_series(dps) if n == 1 else None
        wp = mp.mp.prec + 16
        total = mp.mpf((sum((1 << wp) // k ** n for k in range(1, big_k + 1)), -wp))
        target = mp.mpf(10) ** (-(dps + 2))
        x = mp.mpf(big_k)
        groups = euler_maclaurin({(0, n): 1})
        total -= series_eval(next(groups), x, lnk)
        prev = mp.inf
        for r, group in enumerate(groups, 1):
            term = series_eval(group, x, lnk)
            if abs(term) >= prev:
                raise ArithmeticError("correction terms stopped decreasing")
            total -= term
            prev = abs(term)
            if r >= 4 and abs(term) < target:
                return total


@lru_cache(maxsize=None)
def _constant_cached(name: str, digits: int) -> mp.mpf:
    dps = digits + _GUARD
    if name == "ln2":
        value = _ln2_series(dps)
    elif name == "euler_gamma":
        value = _em_constant(1, 2 ** max(7, int(math.ceil(math.log2(2 * dps)))), dps)
    elif name.startswith("zeta(") and name.endswith(")"):
        inner = name[5:-1]
        try:
            n = int(inner)
        except ValueError:
            raise ValueError(f"unknown constant {name!r}") from None
        if n == 1:
            raise ValueError("zeta(1) divergent")
        if n < 1:
            raise ValueError(f"zeta argument must be >= 2, got {n}")
        value = _em_constant(n, max(100, 2 * dps), dps)
    else:
        raise ValueError(f"unknown constant {name!r}")
    with mp.workdps(digits):
        return +value


def constant(name: str, digits: int) -> HighFloat:
    """Named constant at the requested decimal precision.

    Accepted names: ``zeta(n)`` for integer n >= 2, ``ln2``,
    ``euler_gamma``.  Asking for ``zeta(1)`` raises (divergent), as does
    any request below 10 digits.

    >>> mp.nstr(constant("zeta(2)", 17), 17)
    '1.6449340668482264'
    >>> mp.nstr(constant("ln2", 17), 17)
    '0.69314718055994531'
    """
    _require_digits(digits)
    return _constant_cached(name, digits)


class ConstantsTable:
    """Lazy cache of the constants needed to evaluate closed forms.

    All values share one digit count fixed at construction.  The table is
    cheap to build; individual constants are computed on first use and
    memoised process-wide.
    """

    def __init__(self, digits: int = 40):
        _require_digits(digits)
        self.digits = digits

    def zeta(self, n: int) -> HighFloat:
        return constant(f"zeta({n})", self.digits)

    @property
    def ln2(self) -> HighFloat:
        return constant("ln2", self.digits)

    @property
    def euler_gamma(self) -> HighFloat:
        return constant("euler_gamma", self.digits)

    def lam(self, n: int) -> HighFloat:
        """Odd-denominator zeta value sum over (2k-1)^{-n}, n >= 2.

        Kept as a derived quantity: (1 - 2^{-n}) zeta(n).  It is never a
        standalone symbol anywhere in the package.
        """
        if n < 2:
            raise ValueError("lam requires n >= 2")
        with mp.workdps(self.digits):
            return (1 - mp.mpf(2) ** (-n)) * self.zeta(n)

    def __repr__(self) -> str:
        return f"ConstantsTable(digits={self.digits})"
