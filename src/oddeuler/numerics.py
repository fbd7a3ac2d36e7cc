"""Exact rationals, frozen records, and self-contained constants.

Two number kinds flow through the rest of the package: the standard
library's `Fraction` (exact, never rounded) and `highfloat.HighFloat`, a
binary float rounded only where a caller names a digit count; every
function here that returns one takes that count.  The constants are
computed here rather than pulled from a library table, so the test suite
can cross-check them against a second, independent route: zeta(n) from
Borwein's alternating sum over one list of integer weights per
precision, Euler's gamma from a head sum and an entry of the
Euler-Maclaurin table below (which the summation module's tails read, as
the harmonic module reads power_groups).  The cold-start
kernels are int-only: Bernoulli numbers come from a growing row of
integer tangent numbers, and ln 2, like gamma's ln K, from
highfloat.ln_fixed.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .highfloat import HighFloat, dps_to_prec, ln_fixed

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


# ---- log-power series and the Euler-Maclaurin table ---------------------
#
# A series is a dict {(a, s): c} standing for sum c (ln x)^a x^{-s}, with
# int coefficients: fixed point, scaled by 2^prec.  Its Euler-Maclaurin
# groups at an integer end are its coefficients dotted with one table of
# monomial tails (monomial_tails), whose entries are int-only; the table
# and power_groups apply every Bernoulli scale and derivative of the
# package.  A HighFloat enters where a caller values a series.


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
    one = 1 << prec
    # group 0: ln x + 1 / (2x) at n = 1, else -x^(1-n) / (n - 1) + x^-n / 2
    first = {(1, 0): one, (0, 1): one // 2} if n == 1 else \
        {(0, n - 1): -one // (n - 1), (0, n): one // 2}
    groups = {key: c for key, c in first.items() if key[1] <= s_cap}
    for r, s in enumerate(range(n + 1, s_cap + 1, 2), 1):
        scale = _group_scale(r)
        groups[(0, s)] = (-math.perm(s - 1, s - n) << prec) * scale.numerator // scale.denominator
    return groups


@lru_cache(maxsize=64)
def _tail_scales(prec: int, terms: int) -> tuple:
    # floor(B_2r / (2r)! 2^prec) for r = 1..terms + 1: a table's Bernoulli
    # scales, in fixed point
    return tuple((scale.numerator << prec) // scale.denominator
                 for scale in map(_group_scale, range(1, terms + 2)))


@lru_cache(maxsize=64)
def _tail_table(end: int, prec: int, terms: int) -> dict:
    # the entries of one table, which monomial_tails fills as they are asked for
    return {}


def monomial_tails(keys, end: int, prec: int, terms: int) -> dict:
    """The Euler-Maclaurin table at end: {(a, s): (w, v)}, holding every
    (a, s) in keys, s >= 1, for the monomial (ln x)^a x^-s.

    The monomial's groups 0..terms at end are w 2^-prec end^-(s-1), and
    its first omitted group is v 2^-prec end^-(s+2 terms+1).  Each group
    is in closed form, on the powers of ln end p_b =
    floor(ln_fixed(end, prec)^b 2^(-prec (b-1))):
    - group 0 is the antiderivative plus x^-s / 2: (ln x)^(a+1) / (a+1)
      at s = 1, and -sum_j a!/(a-j)! (ln x)^(a-j) x^(1-s) / (s-1)^(j+1)
      above; each of its terms is floored once;
    - group r >= 1 is B_2r/(2r)! times the (2r-1)-th derivative,
      x^-(s+2r-1) sum_b K[b] (ln x)^b with K from _deriv_kernel, and for
      a = 0 K[0] = -s (s + 1) ... (s + 2r - 2), stepped in r by two
      small-int products.  Its scale is floor(B_2r/(2r)! 2^prec), and
      groups 1..terms are summed by Horner in 1/end^2 at 2^-2prec, then
      floored once to 2^-prec.
    So, in units of 2^-prec and with lnx taken as exact, w is within
    a + 4 + A + R of its value, A = sum_{j<a} a!/(a-j)! (s-1)^-(j+1)
    (A = 1 at s = 1) and R = sum_{r<=terms} end^-2r sum_b |K_(2r-1)[b]|
    X^b with X = 1 + ln end (the floors of p_b and of the scales), and v
    within 1 + sum_b |K_(2 terms+1)[b]| X^b.  There is one table per
    (end, prec, terms), kept, and each entry is computed the first time
    it is asked for.

    >>> [c / 2.0 ** 60 for c in monomial_tails([(0, 2)], 10, 60, 1)[0, 2]]
    [-0.9516666666666667, 0.03333333333333334]
    """
    table = _tail_table(end, prec, terms)
    new = [key for key in dict.fromkeys(keys) if key not in table]
    if not new:
        return table
    top = max(a + (s == 1) for a, s in new)
    lnx = ln_fixed(end, prec) if top else 0
    powers = [1 << prec] + [lnx ** b >> prec * (b - 1) for b in range(1, top + 1)]
    scales, end2 = _tail_scales(prec, terms), end * end
    for a, s in new:
        if s == 1:
            w = powers[a + 1] // (a + 1)
        else:
            w = sum(-math.perm(a, j) * powers[a - j] // (s - 1) ** (j + 1) for j in range(a + 1))
        w += powers[a] // (2 * end)
        groups, k0 = [], -s << prec
        for r, scale in enumerate(scales, 1):
            if a:
                groups.append(scale * sum(map(operator.mul, _deriv_kernel(2 * r - 1, s, a), powers)))
            else:
                groups.append(scale * k0)
                k0 *= (s + 2 * r - 1) * (s + 2 * r)
        acc = 0
        for group in reversed(groups[:-1]):
            acc = group + acc // end2
        table[a, s] = w + (acc // end2 >> prec), groups[-1] >> prec
    return table


# ---- constants from scratch --------------------------------------------
#
# zeta(s), s >= 2, is Borwein's alternating sum ("An efficient algorithm
# for the Riemann zeta function", 2000, algorithm 2): with n terms and the
# ints d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), (1 - 2^(1-s))
# zeta(s) is sum_{k<n} (-1)^k (1 - d_k / d_n) / (k+1)^s to within
# 2 (3 + sqrt 8)^-n / Gamma(s).  The weights depend on the precision
# alone, so every order shares them.  The bound, in units of 2^-wp: the
# least n with (3 + sqrt 8)^n >= 2^(wp+3) keeps the truncation of zeta
# under 1/2; each term takes three floors (two in its weight, one in its
# division), so the sum is off by at most 3 n units, which the last
# division at most doubles and floors once more: zeta within 6 n + 2.


def _require_digits(digits: int) -> None:
    if digits < _MIN_DIGITS:
        raise ValueError(f"precision too low: digits must be >= {_MIN_DIGITS}, got {digits}")


def _borwein_terms(wp: int) -> int:
    return math.ceil((wp + 3) * math.log(2) / math.log(3 + math.sqrt(8)))


def _zeta_prec(dps: int) -> int:
    # 16 guard bits past the bound's 6 n + 2 units; n is taken 48 bits up,
    # which covers wp while the bound has at most 32 bits
    prec = dps_to_prec(dps)
    return prec + 16 + (6 * _borwein_terms(prec + 48) + 2).bit_length()


@lru_cache(maxsize=None)
def _borwein_weights(wp: int) -> tuple:
    # c_k = 2^wp - floor(d_k floor(2^(wp+b) / d_n) / 2^b), k < n, with
    # d_n < 2^b: one reciprocal, and c_k in [2^wp (1 - d_k / d_n), +2).
    # t_i = d_i - d_(i-1) runs t_0 = 1, t_i = t_(i-1) 4 (n+i-1) (n-i+1)
    # / ((2i-1) 2i), exact in ints.
    n = _borwein_terms(wp)
    d, t = [1], 1
    for i in range(1, n + 1):
        t = t * (4 * (n + i - 1) * (n - i + 1)) // ((2 * i - 1) * 2 * i)
        d.append(d[-1] + t)
    b = d[-1].bit_length()
    inv = (1 << wp + b) // d[-1]
    return tuple((1 << wp) - (dk * inv >> b) for dk in d[:-1])


def _borwein_zeta(s: int, wp: int) -> int:
    # zeta(s) 2^wp, s >= 2, within 6 n + 2 of it (the bound above)
    c = _borwein_weights(wp)
    total = sum(map(operator.floordiv, c[::2], (k ** s for k in range(1, len(c) + 1, 2)))) - \
        sum(map(operator.floordiv, c[1::2], (k ** s for k in range(2, len(c) + 1, 2))))
    return (total << s - 1) // ((1 << s - 1) - 1)


def _em_constant(dps: int) -> HighFloat:
    # Euler's gamma, the constant of summation of 1/k: the head sum to
    # K = max(100, 2 dps) minus the Euler-Maclaurin groups of 1/x at K,
    # entry (0, 1) of the table at K, all in fixed point with 16 guard bits
    # and rounded once.  Its corrections run to the first, from the fourth
    # on, whose size |B_2r| / (2r) K^-2r is below the target
    # 10^-(dps + 2), an exact test; each is smaller than the one before, as
    # (2r + 1) 2r < (2 pi K)^2 for every r taken.
    wp = dps_to_prec(dps) + 16
    big_k = max(100, 2 * dps)
    terms = next(r for r in itertools.count(4)
                 if abs(bernoulli(2 * r)) * 10 ** (dps + 2) < 2 * r * big_k ** (2 * r))
    w, _ = monomial_tails([(0, 1)], big_k, wp, terms)[0, 1]
    total = sum((1 << wp) // k for k in range(1, big_k + 1)) - w
    return HighFloat(total, -wp).round(dps)


@lru_cache(maxsize=None)
def constant(n: int, digits: int) -> HighFloat:
    """The constant of summation of 1/k^n at digits: Euler's gamma at
    n = 1, from the Euler-Maclaurin groups, and zeta(n) above, from
    Borwein's weights at the working precision.  It is computed at
    digits + 10 and rounded once more at digits; n < 1 and digits < 10
    are refused.

    >>> constant(2, 17).text(17)
    '1.6449340668482264'
    >>> constant(1, 17).text(17)
    '0.57721566490153286'
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    _require_digits(digits)
    dps = digits + _GUARD
    if n == 1:
        return _em_constant(dps).round(digits)
    wp = _zeta_prec(dps)
    return HighFloat(_borwein_zeta(n, wp), -wp).round(dps).round(digits)


@lru_cache(maxsize=None)
def ln2(digits: int) -> HighFloat:
    """ln 2 at digits, from highfloat.ln_fixed at digits + 10, rounded at
    those digits and once more at digits.

    >>> ln2(17).text(17)
    '0.69314718055994531'
    """
    _require_digits(digits)
    wp = dps_to_prec(digits + _GUARD) + 16
    return HighFloat(ln_fixed(2, wp), -wp).round(digits + _GUARD).round(digits)
