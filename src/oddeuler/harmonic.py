"""Harmonic-type prefix sums, exact and streamed.

Two families, one over all integers and one over odd integers only:

    H(n, k) = sum_{i<=k} 1/i^n          (parity 'even', meaning full range)
    h(n, k) = sum_{i<=k} 1/(2i-1)^n     (parity 'odd')

Both are empty (zero) at k = 0 by convention, and the two are linked by
the exact split H(n, 2k) = h(n, k) + 2^{-n} H(n, k), which is also how
every odd-kind asymptotic expansion here is produced from the even one.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate, count, repeat, tee
from operator import floordiv

from .highfloat import HighFloat, dps_to_prec, ln_fixed
from .numerics import Rational, _require_digits, constant, power_groups, record

EXACT_LIMIT = 10 ** 5

_PARITIES = ("even", "odd")


@record
class HarmonicKind:
    """One prefix-sum family: parity ('even' full / 'odd') and order n >= 1."""

    parity: str
    order: int

    def __post_init__(self):
        if self.parity not in _PARITIES:
            raise ValueError(f"parity must be one of {_PARITIES}, got {self.parity!r}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")

    @staticmethod
    def even(n: int) -> "HarmonicKind":
        return HarmonicKind("even", n)

    @staticmethod
    def odd(n: int) -> "HarmonicKind":
        return HarmonicKind("odd", n)

    @property
    def label(self) -> str:
        return ("H" if self.parity == "even" else "h") + str(self.order)

    @staticmethod
    def from_label(text: str) -> "HarmonicKind":
        if len(text) >= 2 and text[0] in "hH" and text[1:].isdigit():
            return HarmonicKind("even" if text[0] == "H" else "odd", int(text[1:]))
        raise ValueError(f"not a harmonic label: {text!r}")

    def term(self, i: int) -> Fraction:
        base = i if self.parity == "even" else 2 * i - 1
        return Fraction(1, base ** self.order)


# ---- exact prefixes ------------------------------------------------------

_prefix_cache: dict[HarmonicKind, list[Fraction]] = {}


def harmonic_exact(kind: HarmonicKind, k: int) -> Rational:
    """Exact prefix value as a Fraction; prefixes are memoised per kind.

    >>> harmonic_exact(HarmonicKind.even(1), 4)
    Fraction(25, 12)
    >>> harmonic_exact(HarmonicKind.odd(1), 3)
    Fraction(23, 15)
    >>> harmonic_exact(HarmonicKind.odd(2), 2)
    Fraction(10, 9)
    """
    if k == 0:
        raise ValueError("empty sum: exact prefix is zero at k = 0 by convention, "
                         "pass k >= 1")
    if k < 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > EXACT_LIMIT:
        raise ValueError(f"exact rationals are capped at k = {EXACT_LIMIT}; "
                         "use evaluate_sum for larger k")
    prefix = _prefix_cache.setdefault(kind, [Fraction(0)])
    while len(prefix) <= k:
        prefix.append(prefix[-1] + kind.term(len(prefix)))
    return prefix[k]


def even_odd_split(n: int, k: int) -> tuple[Rational, Rational]:
    """Both sides of H(n, 2k) = h(n, k) + 2^{-n} H(n, k), exactly.

    Returns (lhs, rhs); the two Fractions are equal for every n, k.
    """
    lhs = harmonic_exact(HarmonicKind.even(n), 2 * k)
    rhs = harmonic_exact(HarmonicKind.odd(n), k) + \
        Fraction(1, 2 ** n) * harmonic_exact(HarmonicKind.even(n), k)
    return lhs, rhs


# ---- streamed prefixes ---------------------------------------------------


def columns(kinds, prec: int) -> dict:
    """Lazy prefixes of each of kinds at 1, 2, ...: sums of floor(2^prec / base^n).

    The one definition of the floors.  Per parity each order's terms are
    divided out of those of the next lower order m present,
    floor(2^prec / base^n) = floor(floor(2^prec / base^m) / base^(n-m)),
    as floor(floor(x / u) / v) = floor(x / (u v)) for any int x and
    positive u and v; so every term is the one-floor term, bit for bit.
    Between orders one apart the divisor is base itself, a single 30-bit
    digit below 2^30, which CPython divides by fastest.
    """
    out = {}
    for parity in _PARITIES:
        orders = sorted({kind.order for kind in kinds if kind.parity == parity})
        terms, low = repeat(1 << prec), 0
        for n, higher in zip(orders, orders[1:] + [0]):
            bases = count(1, 2) if parity == "odd" else count(1)
            step = map(floordiv, terms, bases if n - low == 1 else
                       map(pow, bases, repeat(n - low)))
            # a higher order reads this order's terms as they go by
            terms, step = tee(step) if higher else (None, step)
            out[HarmonicKind(parity, n)] = accumulate(step)
            low = n
    return out


class PrefixStream:
    """Fixed-point prefixes for several kinds at once, advanced together.

    Each prefix is an int scaled by 2^prec: one advance() steps every
    kind's column of columns(), adding the floor of 2^prec / base^n, so
    after k advances a prefix lies in [exact - k 2^-prec, exact].  prec
    is the binary precision of `digits` plus terms.bit_length() + guard
    bits, where `terms` is the number of advances the caller plans and
    `guard` covers what the caller does with the prefixes.
    """

    def __init__(self, kinds: tuple[HarmonicKind, ...], digits: int, terms: int = 1,
                 guard: int = 16):
        _require_digits(digits)
        self.kinds = tuple(kinds)
        self.digits = digits
        self.prec = dps_to_prec(digits) + terms.bit_length() + guard
        self.one = 1 << self.prec
        self.prefixes = [0] * len(self.kinds)
        self._columns = columns(self.kinds, self.prec)
        self._k = 0

    @property
    def k(self) -> int:
        return self._k

    def advance(self) -> int:
        self._k += 1
        step = {kind: next(column) for kind, column in self._columns.items()}
        self.prefixes[:] = map(step.__getitem__, self.kinds)
        return self._k

    def value(self, kind: HarmonicKind) -> HighFloat:
        """The prefix of kind, rounded to the stream's digits."""
        return HighFloat(self.prefixes[self.kinds.index(kind)], -self.prec).round(self.digits)


# ---- asymptotic expansions ----------------------------------------------


@functools.lru_cache(maxsize=256)
def value_series(kind: HarmonicKind, s_cap: int, digits: int, prec: int) -> dict:
    """Asymptotic log-power series of the prefix H(n, x) or h(n, x).

    Terms run up to x^{-s_cap}, in fixed point: int coefficients scaled by
    2^prec.  H(n, x) is its constant (zeta(n), or gamma at n = 1) at digits,
    rounded once, plus numerics.power_groups(n).  The odd kind comes from
    the even one through h(n, x) = H(n, 2x) - 2^{-n} H(n, x).  The dict is
    memoized per (kind, s_cap, digits, prec) and shared between callers, so
    it is read-only.
    """
    n = kind.order
    const = constant("euler_gamma" if n == 1 else f"zeta({n})", digits)
    even = {(0, 0): const.fixed(prec), **power_groups(n, s_cap, prec)}
    if kind.parity == "even":
        return even
    # x -> 2x: (ln 2x)^a expands binomially, x^{-s} halves s times
    ln2 = constant("ln2", digits).fixed(prec)
    out: dict = {}
    for (a, s), c in even.items():
        for j in range(a + 1):
            key = (a - j, s)
            out[key] = out.get(key, 0) + \
                (math.comb(a, j) * c * ln2 ** j >> (s + prec * j))
        out[(a, s)] -= c >> n
    return {k: v for k, v in out.items() if v}


def _expansion_pieces(n: int, x: int, digits: int) -> list:
    # Monomials of the H(n, x) value series valued at x, leading first,
    # each product rounded at digits.  For n >= 2 they are negated and
    # zeta(n) dropped, so that they add up to the tail zeta(n) - H(n, x);
    # for n = 1 they add up to H(1, x) itself.  The series comes in fixed
    # point with 16 guard bits.
    prec = dps_to_prec(digits) + 16
    series = {key: HighFloat(c, -prec).round(digits) for key, c in
              value_series(HarmonicKind.even(n), n + 7, digits, prec).items()}
    if n > 1:
        series = {key: -c for key, c in series.items() if key != (0, 0)}
    lnx = HighFloat(ln_fixed(x, prec), -prec).round(digits)
    pieces = []
    for (a, s), c in sorted(series.items(), key=lambda kv: (kv[0][1], -kv[0][0])):
        if a:
            c = (c * lnx.pow(a, digits)).round(digits)
        pieces.append((c * HighFloat(x).pow(-s, digits)).round(digits))
    return pieces


def tail_expansion(kind: HarmonicKind, k: int, terms: int, digits: int = 40) -> HighFloat:
    """Truncated asymptotic expansion with `terms` leading pieces.

    Order 1 returns the expansion of the prefix value itself; order >= 2
    returns the expansion of the remaining tail (limit minus prefix).
    Odd kinds are always assembled from the even expansion through the
    split identity, never expanded independently.  The pieces are
    rounded at digits + 5, their sum once more, and that at digits.

    >>> tail_expansion(HarmonicKind.even(2), 10, 3).text(16)
    '0.09516666666666667'
    """
    if k < 10:
        raise ValueError(f"k must be at least 10 for the asymptotic tail, got {k}")
    if not 1 <= terms <= 6:
        raise ValueError(f"terms must be between 1 and 6, got {terms}")
    _require_digits(digits)
    n, wp = kind.order, digits + 5
    pieces = _expansion_pieces(n, k, wp)
    if kind.parity == "odd":
        pieces = [(a - b / 2 ** n).round(wp)
                  for a, b in zip(_expansion_pieces(n, 2 * k, wp), pieces)]
    return sum(pieces[:terms], HighFloat()).round(wp).round(digits)
