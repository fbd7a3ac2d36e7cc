"""Exact rationals, frozen records, and self-contained constants.

Two number kinds flow through the rest of the package: `Rational` (exact,
never rounded) and `highfloat.HighFloat`, a binary float rounded only
where a caller names a digit count; every function here that returns one
takes that count.  The constants zeta(n), ln 2 and Euler's gamma are
computed here from head sums and the Euler-Maclaurin core below (shared
with the harmonic and summation modules) rather than pulled from a
library table, so the test suite can cross-check them against a second,
independent route.  The cold-start kernels are int-only: Bernoulli
numbers come from a growing row of integer tangent numbers, and ln 2,
like gamma's ln K, from highfloat.ln_fixed.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .highfloat import HighFloat, dps_to_prec, ln_fixed

# Exact arithmetic is deliberately the standard library type: lowest terms
# and positive denominators are guaranteed by construction.
Rational = Fraction

_GUARD = 10
_MIN_DIGITS = 10


# ---- frozen records ----------------------------------------------------


def record(cls):
    """Class decorator: a frozen record over the annotated fields, in order.

    It does what dataclass(frozen=True) does here, without importing
    dataclasses, which brings in inspect, ast and dis on every start-up.
    Class attributes are the defaults, and __init__ ends by calling
    __post_init__ when the class has one.  __eq__ holds only between
    instances of one class, __hash__ is the hash of the field tuple, and
    repr has the dataclass form.  Assigning or deleting an attribute
    raises AttributeError.  A method the class defines itself is kept.
    The methods are compiled once per class, as dataclasses does, not
    closures: records are dict keys throughout the engine, and a closure
    __eq__ or __hash__ costs up to twice as much per call.

    >>> @record
    ... class Point:
    ...     x: int
    ...     y: int = 0
    >>> p = Point(1)
    >>> p, p == Point(x=1, y=0), hash(p) == hash((1, 0))
    (Point(x=1, y=0), True, True)
    >>> p.x = 2
    Traceback (most recent call last):
    ...
    AttributeError: cannot assign to field 'x'
    """
    names = list(cls.__dict__.get("__annotations__", ()))
    params = ", ".join(f"{n}=_cls.{n}" if n in cls.__dict__ else n for n in names)
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = "\n".join([
        f"def __init__(self, {params}):",
        *(f"    _set(self, {n!r}, {n})" for n in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __repr__(self):",
        f"    return self.__class__.__qualname__ + f'({shown})'",
        "def __setattr__(self, name, value):",
        "    raise AttributeError(f'cannot assign to field {name!r}')",
        "def __delattr__(self, name):",
        "    raise AttributeError(f'cannot delete field {name!r}')"])
    namespace = {"_cls": cls, "_set": object.__setattr__}
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        if name not in cls.__dict__:
            fn = namespace[name]
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
    return cls


# ---- Bernoulli numbers -------------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
# Brent and Harvey's tangent-number table (arXiv:1108.0286), one column k
# at a time: T^(1)[k] = (k-1)!, T^(i)[k] = (k-i) T^(i)[k-1] + (k-i+2)
# T^(i-1)[k], and T_k = T^(k)[k].  The row is column k of the cache's last
# B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
_tangent_row: list[int] = []


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    >>> bernoulli(2)
    Fraction(1, 6)
    >>> bernoulli(12)
    Fraction(-691, 2730)
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    row = _tangent_row
    if len(row) != (len(_bernoulli_cache) - 1) // 2:  # the cache was cut
        _bernoulli_cache[:] = [Fraction(1), Fraction(-1, 2)]
        row.clear()
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        if m % 2 == 1:
            _bernoulli_cache.append(Fraction(0))
            continue
        k = m // 2
        row.append(0)  # T^(k)[k-1] is outside the table; its factor is 0
        row[0] = row[0] * (k - 1) if k > 1 else 1
        for i in range(1, k):
            row[i] = (k - i - 1) * row[i] + (k - i + 1) * row[i - 1]
        _bernoulli_cache.append(Fraction((-1) ** (k - 1) * 2 * k * row[-1], 4 ** k * (4 ** k - 1)))
    return _bernoulli_cache[n]


# ---- log-power series and the Euler-Maclaurin core ----------------------
#
# A series is a dict {(a, s): c} standing for sum c (ln x)^a x^{-s}, with
# int coefficients: fixed point, scaled by 2^prec.  The core is int-only;
# a HighFloat enters where a caller values a series.


@lru_cache(maxsize=None)
def _group_scale(r: int) -> Fraction:
    return bernoulli(2 * r) / math.factorial(2 * r)


@lru_cache(maxsize=None)
def _deriv_kernel(n: int, s: int, a: int) -> tuple:
    """The ints K[b], b = 0..a, with d^n/dx^n (ln x)^a x^-s equal to
    x^(-s-n) sum_b K[b] (ln x)^b.

    One derivative maps K at x^-t to K'[b] = (b + 1) K[b + 1] - t K[b];
    order n takes two such steps from order n - 2, which the groups ask
    for first, so the cache fills one step of two at a time.

    >>> _deriv_kernel(3, 1, 2)  # (ln x)^2 / x, three times
    (-12, 22, -6)
    """
    if not n:
        return (0,) * a + (1,)
    step = min(n, 2)
    kernel = _deriv_kernel(n - step, s, a)
    for t in range(s + n - step, s + n):
        kernel = (*[(b + 1) * kernel[b + 1] - t * kernel[b] for b in range(a)], -t * kernel[a])
    return kernel


def _group0(series: dict) -> dict:
    # The antiderivative plus f/2.  (ln x)^a / x integrates to
    # (ln x)^{a+1}/(a+1); for s != 1, parts give -sum_j a!/(a-j)! (ln x)^{a-j}
    # x^{1-s} / (s-1)^{j+1}, which is minus the integral over (x, inf)
    # whenever s > 1.  Divisions floor, the halves too.
    group: dict = {}
    for (a, s), c in series.items():
        if s == 1:
            group[(a + 1, 0)] = group.get((a + 1, 0), 0) + c // (a + 1)
            continue
        for j in range(a + 1):
            key = (a - j, s - 1)
            group[key] = group.get(key, 0) + (-c * math.perm(a, j)) // (s - 1) ** (j + 1)
    for key, c in series.items():
        group[key] = group.get(key, 0) + c // 2
    return group


def power_groups(n: int, s_cap: int, prec: int) -> dict:
    """The Euler-Maclaurin groups of x^-n as one series, kept to x^-s_cap.

    Fixed point: int coefficients scaled by 2^prec.  Group 0 is the
    antiderivative plus x^-n / 2, floored; group r >= 1 is B_{2r}/(2r)!
    times the (2r-1)-th derivative, -n (n + 1) ... (n + 2r - 2) x^-s at
    s = n + 2r - 1, with the scale applied once and floored.  The groups
    add up to the prefix sum_{k<=x} k^-n less its constant of summation.

    >>> {key: c / 2 ** 60 for key, c in power_groups(2, 5, 60).items()}
    {(0, 1): -1.0, (0, 2): 0.5, (0, 3): -0.16666666666666666, (0, 5): 0.03333333333333333}
    """
    groups = {key: c for key, c in _group0({(0, n): 1 << prec}).items() if key[1] <= s_cap}
    for r, s in enumerate(range(n + 1, s_cap + 1, 2), 1):
        scale = _group_scale(r)
        groups[(0, s)] = (-math.perm(s - 1, s - n) << prec) * scale.numerator // scale.denominator
    return groups


def euler_maclaurin_fixed(series: dict, x: int, lnx: int, prec: int):
    """The Euler-Maclaurin groups of series valued at the integer x.

    Fixed point throughout: the coefficients of series are ints scaled by
    2^prec, and lnx is ln x scaled the same way (any int when no term
    carries a log).  Group 0's divisions floor; the derivatives are exact
    integer multiples.  Each group's (ln x)^a factors collapse into one
    int per power of 1/x, Horner runs in 1/x from the highest power down,
    and the group's B_{2r}/(2r)! is applied once, as an exact rational.
    Group r >= 1 is valued straight from the series: a term with a log
    adds c sum_b K[b] (ln x)^b, K its _deriv_kernel, to its power of 1/x,
    and a term without one c K[0] 2^prec, K[0] being minus a falling
    factorial.

    Each group comes as (v, t) with value v 2^-prec x^-t, where x^-t is
    the group's lowest power: v // x**t is the value to within one unit
    of 2^-prec, and v itself keeps the group's relative precision.

    >>> groups = euler_maclaurin_fixed({(0, 2): 1 << 60}, 10, 0, 60)
    >>> [(v / 2.0 ** 60, t) for v, t in (next(groups), next(groups))]
    [(-0.95, 1), (-0.16666666666666666, 3)]
    """
    # (ln x)^a up to one past the series' top power: the antiderivative
    # of (ln x)^a / x raises a
    powers = [1 << prec]
    for _ in range(max(a for a, _ in series) + 1):
        powers.append(powers[-1] * lnx >> prec)
    by_power: dict = {}
    for (a, t), c in _group0(series).items():
        by_power[t] = by_power.get(t, 0) + c * powers[a]
    # the terms with a log, and those without: the (2r-1)-th derivative
    # of x^-s is -s (s + 1) ... (s + 2r - 2) x^(-s-2r+1), and its dot with
    # powers a shift; a constant's derivatives vanish
    logs = [(a, s, c) for (a, s), c in series.items() if a]
    flat = [(s, c) for (a, s), c in series.items() if s and not a]
    scale = Fraction(1)
    for r in itertools.count(1):
        low = min(by_power)
        acc = 0
        for t in range(max(by_power), low - 1, -1):
            acc = acc // x + by_power.get(t, 0)
        yield acc * scale.numerator // (scale.denominator << prec), low
        n, scale = 2 * r - 1, _group_scale(r)
        by_power = {s + n: -c * math.perm(s + n - 1, n) << prec for s, c in flat}
        for a, s, c in logs:
            by_power[s + n] = by_power.get(s + n, 0) + \
                c * sum(map(operator.mul, _deriv_kernel(n, s, a), powers))


# ---- constants from scratch --------------------------------------------


def _require_digits(digits: int) -> None:
    if digits < _MIN_DIGITS:
        raise ValueError(f"precision too low: digits must be >= {_MIN_DIGITS}, got {digits}")


def _em_constant(n: int, dps: int) -> HighFloat:
    # Constant of summation of 1/k^n (zeta(n), or gamma at n = 1): the head
    # sum to K = max(100, 2 dps) minus the Euler-Maclaurin groups of x^{-n}
    # at K, all in fixed point with 16 guard bits and rounded once.  Groups
    # are taken until one drops below the target, with at least four
    # corrections applied; each comes as v 2^-wp K^-t, so the size tests
    # compare exact ints.
    wp = dps_to_prec(dps) + 16
    big_k = max(100, 2 * dps)
    total = sum((1 << wp) // k ** n for k in range(1, big_k + 1))
    lnk = ln_fixed(big_k, wp) if n == 1 else 0
    groups = euler_maclaurin_fixed({(0, n): 1 << wp}, big_k, lnk, wp)
    v, t = next(groups)
    total -= v // big_k ** t
    prev_v = prev_t = None
    for r, (v, t) in enumerate(groups, 1):
        # |v| big_k^-t >= |prev_v| big_k^-prev_t
        if prev_v is not None and abs(v) * big_k ** prev_t >= abs(prev_v) * big_k ** t:
            raise ArithmeticError("correction terms stopped decreasing")
        total -= v // big_k ** t
        prev_v, prev_t = v, t
        # |v| 2^-wp big_k^-t < 10^-(dps + 2), the target
        if r >= 4 and abs(v) * 10 ** (dps + 2) < big_k ** t << wp:
            return HighFloat(total, -wp).round(dps)


@lru_cache(maxsize=None)
def _constant_cached(name: str, digits: int) -> HighFloat:
    dps = digits + _GUARD
    if name == "ln2":
        wp = dps_to_prec(dps) + 16
        value = HighFloat(ln_fixed(2, wp), -wp).round(dps)
    elif name == "euler_gamma":
        value = _em_constant(1, dps)
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
        value = _em_constant(n, dps)
    else:
        raise ValueError(f"unknown constant {name!r}")
    return value.round(digits)


def constant(name: str, digits: int) -> HighFloat:
    """Named constant at the requested decimal precision.

    Accepted names: ``zeta(n)`` for integer n >= 2, ``ln2``,
    ``euler_gamma``.  Asking for ``zeta(1)`` raises (divergent), as does
    any request below 10 digits.

    >>> constant("zeta(2)", 17).text(17)
    '1.6449340668482264'
    >>> constant("ln2", 17).text(17)
    '0.69314718055994531'
    """
    _require_digits(digits)
    return _constant_cached(name, digits)

