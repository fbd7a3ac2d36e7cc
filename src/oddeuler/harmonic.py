"""Harmonic-type prefix sums, exact and streamed.

Two families, one over all integers and one over odd integers only:

    H(n, k) = sum_{i<=k} 1/i^n          (parity 'even', meaning full range)
    h(n, k) = sum_{i<=k} 1/(2i-1)^n     (parity 'odd')

Both are empty (zero) at k = 0 by convention, and the two are linked by
the exact split H(n, 2k) = h(n, k) + 2^{-n} H(n, k), which is also how
every odd-kind asymptotic expansion here is produced from the even one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .numerics import (ConstantsTable, HighFloat, Rational, euler_maclaurin,
                       series_eval)

_EXACT_LIMIT = 10 ** 5

_PARITIES = ("even", "odd")


@dataclass(frozen=True)
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
    if k > _EXACT_LIMIT:
        raise ValueError(f"exact rationals are capped at k = {_EXACT_LIMIT}; "
                         "use PrefixStream for larger k")
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


class PrefixStream:
    """Incrementally updated float prefixes for several kinds at once.

    Values live at a fixed decimal precision chosen at construction; one
    advance() appends the k-th term of every kind.  The stream never
    rounds twice: each increment is computed and added at the working
    precision.
    """

    def __init__(self, kinds: tuple[HarmonicKind, ...], digits: int):
        if digits < 10:
            raise ValueError("precision too low: digits must be >= 10")
        self.kinds = tuple(kinds)
        self.digits = digits
        self._k = 0
        with mp.workdps(digits):
            self._vals = [mp.mpf(0) for _ in self.kinds]

    @property
    def k(self) -> int:
        return self._k

    def advance(self) -> int:
        self._k += 1
        i = self._k
        with mp.workdps(self.digits):
            for idx, kind in enumerate(self.kinds):
                base = i if kind.parity == "even" else 2 * i - 1
                self._vals[idx] += mp.mpf(base) ** (-kind.order)
        return self._k

    def value(self, kind: HarmonicKind) -> HighFloat:
        return self._vals[self.kinds.index(kind)]

    def values(self) -> tuple[HighFloat, ...]:
        return tuple(self._vals)


# ---- asymptotic expansions ----------------------------------------------


def _even_value_series(n: int, s_cap: int, table: ConstantsTable) -> dict:
    # H(n, x) = (zeta(n), or gamma at n = 1) + Euler-Maclaurin groups of
    # x^{-n}, keeping the terms up to x^{-s_cap}
    out = {(0, 0): +(table.euler_gamma if n == 1 else table.zeta(n))}
    for group in euler_maclaurin({(0, n): 1}):
        kept = {key: c for key, c in group.items() if key[1] <= s_cap}
        if not kept:
            return out
        out.update(kept)


def value_series(kind: HarmonicKind, s_cap: int, table: ConstantsTable) -> dict:
    """Asymptotic log-power series of the prefix H(n, x) or h(n, x).

    Terms run up to x^{-s_cap}; coefficients are at the table's precision,
    and an mpmath working precision must be active.  The odd kind comes
    from the even one through h(n, x) = H(n, 2x) - 2^{-n} H(n, x).
    """
    even = _even_value_series(kind.order, s_cap, table)
    if kind.parity == "even":
        return even
    # x -> 2x: (ln 2x)^a expands binomially, x^{-s} scales
    ln2 = +table.ln2
    shrink = mp.mpf(2) ** (-kind.order)
    out: dict = {}
    for (a, s), c in even.items():
        scale = c * mp.mpf(2) ** (-s)
        for j in range(a + 1):
            key = (a - j, s)
            out[key] = out.get(key, mp.mpf(0)) + scale * math.comb(a, j) * ln2 ** j
        out[(a, s)] -= shrink * c
    return {k: v for k, v in out.items() if v}


def _expansion_pieces(n: int, x: HighFloat, table: ConstantsTable) -> list:
    # Monomials of the H(n, x) series valued at x, leading first.  For
    # n >= 2 they are negated and zeta(n) dropped, so that they add up to
    # the tail zeta(n) - H(n, x); for n = 1 they add up to H(1, x) itself.
    series = _even_value_series(n, n + 7, table)
    if n > 1:
        series = {key: -c for key, c in series.items() if key != (0, 0)}
    lnx = mp.log(x) if n == 1 else None
    return [series_eval({key: series[key]}, x, lnx)
            for key in sorted(series, key=lambda key: (key[1], -key[0]))]


def tail_expansion(kind: HarmonicKind, k: int, terms: int, digits: int = 40) -> HighFloat:
    """Truncated asymptotic expansion with `terms` leading pieces.

    Order 1 returns the expansion of the prefix value itself; order >= 2
    returns the expansion of the remaining tail (limit minus prefix).
    Odd kinds are always assembled from the even expansion through the
    split identity, never expanded independently.

    >>> v = tail_expansion(HarmonicKind.even(2), 10, 3)
    >>> abs(v - mp.mpf('0.0951666666666666')) < 1e-15
    True
    """
    if k < 10:
        raise ValueError(f"k must be at least 10 for the asymptotic tail, got {k}")
    if not 1 <= terms <= 6:
        raise ValueError(f"terms must be between 1 and 6, got {terms}")
    if digits < 10:
        raise ValueError("precision too low: digits must be >= 10")
    n = kind.order
    with mp.workdps(digits + 5):
        table = ConstantsTable(digits + 5)
        pieces = _expansion_pieces(n, mp.mpf(k), table)
        if kind.parity == "odd":
            at_2k = _expansion_pieces(n, mp.mpf(2 * k), table)
            scale = mp.mpf(2) ** (-n)
            pieces = [a - scale * b for a, b in zip(at_2k, pieces)]
        total = mp.fsum(pieces[:terms])
    with mp.workdps(digits):
        return +total
