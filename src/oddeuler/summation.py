"""Numeric evaluation of Euler-type sums over harmonic prefixes.

A sum here is sum_{k>=1} f(k) with

    f(k) = product of harmonic prefixes at k / (k^p (2k-1)^q),

convergent whenever p + q >= 2 (the numerator only contributes powers of
log).  Evaluation is a direct partial sum to K, in fixed-point integers
on the harmonic prefix columns, walked a block of terms at a time for
a whole batch of series that share their columns and quotients,
followed by an Euler-Maclaurin tail: the summand is expanded into a
log-power series of monomials c * (ln x)^a * x^{-s} (the harmonic
factors' expansions times a binomial expansion of the denominator),
whose coefficients are dotted with one table of monomial tails at K
(numerics.monomial_tails, each entry's groups in closed form), so the
result carries 30+ correct digits at the default K.  The tail is fixed
point as well, at the head's scale 2^-prec: coefficients are rounded to
ints once, the dot sums by Horner in 1/K at 2^-2prec, and head plus tail
is rounded to a HighFloat once.  The first omitted group, which becomes
the error estimate, is the same dot with each entry's first omitted
group, rounded on its own so that it keeps its relative precision.

Every sum goes through _sum_batch and its one memo, filled by batches;
the lemma evaluators at the bottom compare its kernel sums with closed
forms kept as exact term lists and valued by zeta_algebra.evaluate.  The
rows of a lemma check differ only in a = -k, so each band of them takes
its tails from one Euler-Maclaurin basis (_basis).  A kernel row's cutoff
is internal and never printed, so it is planned: _kernel_plan picks the
band's end (a ratio times its largest k), its tail terms and J, the last
power of (b x + k)^-1 its series keeps, as the cheapest triple whose
stated bound (_kernel_bound) is below 10^-(digits + 2).  That bound covers
both kernel sides, so there is one plan per digit count.  A sum spec keeps
the K and tail terms it is given, _series_cap sizes its series, and its
tail is that series dotted with the table (_table_tail); the bands and
the specs at one (end, prec, terms) read one table.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import count, islice, repeat
from operator import floordiv, mul, rshift

from .harmonic import EXACT_LIMIT, HarmonicKind, columns, harmonic_exact, value_series
from .highfloat import HighFloat, dps_to_prec
from .numerics import monomial_tails, record
from .zeta_algebra import (MAX_POWER, ExprSyntaxError, ZetaExpr, ZetaMonomial, evaluate, expect,
                           take, tokenize)


class SumSpecSyntaxError(ExprSyntaxError):
    """Malformed sum spec text; carries the offending position."""


# largest direct-summation cutoff: at K = 10^6 one sum takes about 2 s, and
# the head's fixed-point guard bits are sized up to it
MAX_K = 10 ** 6


@record
class SumSpec:
    """Shape of one sum: numerator factors and denominator powers.

    Factors are stored sorted (order, then odd before even), so two specs
    that differ only in factor order compare equal.
    """

    factors: tuple[HarmonicKind, ...] = ()
    k_power: int = 0
    odd_power: int = 0

    def __post_init__(self):
        if self.k_power < 0 or self.odd_power < 0:
            raise ValueError("denominator powers must be nonnegative")
        if self.k_power + self.odd_power < 2:
            raise ValueError("sum diverges: need k and (2k-1) powers totalling >= 2")
        if self.k_power + self.odd_power > MAX_POWER:
            raise ValueError(f"k and (2k-1) powers must total <= {MAX_POWER}")
        ordered = tuple(sorted(self.factors,
                               key=lambda f: (f.order, f.parity == "even", f.label)))
        object.__setattr__(self, "factors", ordered)

    def text(self) -> str:
        numer = "*".join(f.label for f in self.factors) or "1"
        parts = []
        if self.k_power:
            parts.append("k" if self.k_power == 1 else f"k^{self.k_power}")
        if self.odd_power:
            parts.append("(2k-1)" if self.odd_power == 1 else f"(2k-1)^{self.odd_power}")
        denom = "*".join(parts)
        if len(parts) > 1:
            denom = f"({denom})"
        return f"{numer}/{denom}"


def read_sumspec(toks: list) -> SumSpec:
    """Read one sum spec (zeta_algebra's spec rule) from the front of the
    tokens, leaving what follows it; raises SumSpecSyntaxError."""
    factors = []
    if toks[0][:2] == ("int", 1):
        toks.pop(0)
    else:
        while True:
            kind, label, pos = toks.pop(0)
            try:
                factors.append(HarmonicKind.from_label(label if kind == "harmonic" else ""))
            except ValueError:
                raise SumSpecSyntaxError("expected h<n> or H<n> factor", pos) from None
            if factors[-1].order > MAX_POWER:
                raise SumSpecSyntaxError(f"harmonic orders must be <= {MAX_POWER}", pos)
            if not take(toks, "*"):
                break
    expect(toks, "/", "'/' between numerator and denominator", SumSpecSyntaxError)
    den_pos = toks[0][2]
    grouped = take(toks, "(")
    powers = {"k": 0, "(2k-1)": 0}
    while True:
        kind, _, pos = toks.pop(0)
        if kind not in powers:
            raise SumSpecSyntaxError("expected 'k' or '(2k-1)' in denominator", pos)
        if powers[kind]:
            raise SumSpecSyntaxError(f"repeated {kind} factor in denominator", pos)
        powers[kind] = expect(toks, "int", "integer exponent",
                              SumSpecSyntaxError)[1] if take(toks, "^") else 1
        if not take(toks, "*"):
            break
    if grouped:
        expect(toks, ")", "')' closing the denominator", SumSpecSyntaxError)
    kind, _, pos = toks[0]
    if kind not in ("end", "]"):
        # nothing else may follow a spec: a syntax error outranks SumSpec's
        raise SumSpecSyntaxError("expected '*' or the end of the sum spec", pos)
    try:
        return SumSpec(tuple(factors), powers["k"], powers["(2k-1)"])
    except ValueError as exc:
        raise SumSpecSyntaxError(str(exc), den_pos) from None


def parse_sumspec(text: str) -> SumSpec:
    """Parse forms like h1*h2/k^3, H3/(2k-1)^2, 1/(k^3*(2k-1)^2)."""
    toks = tokenize(text, SumSpecSyntaxError)
    spec = read_sumspec(toks)
    expect(toks, "end", "end of sum spec", SumSpecSyntaxError)
    return spec


@record
class EvalOptions:
    """Evaluation knobs shared across the package."""

    digits: int = 40
    K: int = 10 ** 4
    tail_terms: int = 4

    def __post_init__(self):
        if self.digits < 20:
            raise ValueError(f"digits must be >= 20, got {self.digits}")
        if self.K < 100:
            raise ValueError(f"K must be >= 100, got {self.K}")
        if self.K > MAX_K:
            raise ValueError(f"K must be <= {MAX_K}, got {self.K}")
        if not 1 <= self.tail_terms <= 8:
            raise ValueError(f"tail_terms must be in 1..8, got {self.tail_terms}")


DEFAULT_OPTS = EvalOptions()


@record
class EvalResult:
    value: HighFloat
    err_estimate: HighFloat
    K: int
    digits: int


# ---- log-power series and the one summation routine ---------------------
#
# A series here is a dict {(a, s): c} standing for sum c (ln x)^a x^{-s},
# with int coefficients scaled by 2^prec; the Euler-Maclaurin core and
# the harmonic value series live in numerics and harmonic.  _sum_batch
# sums every infinite series; each caller picks (c, b, a, q).


def _series_mul(sa: dict, sb: dict, s_cap: int, prec: int) -> dict:
    # exact products summed per term, then one floor each
    out: dict = {}
    for (a1, s1), c1 in sa.items():
        for (a2, s2), c2 in sb.items():
            s = s1 + s2
            if s <= s_cap:
                key = (a1 + a2, s)
                out[key] = out.get(key, 0) + c1 * c2
    return {key: c >> prec for key, c in out.items()}


def _power_series(c: int, b: int, a: int, q: int, s_cap: int, prec: int) -> dict:
    # x^{-c} (b - a/x)^{-q} = sum_j C(q+j-1, j) a^j b^{-q-j} x^{-c-j}; num
    # is the exact numerator C(q+j-1, j) a^j, floored once per coefficient
    out = {}
    num = 1
    for j in range(s_cap - c + 1):
        out[(0, c + j)] = (num << prec) // b ** (q + j)
        num = num * a * (q + j) // (j + 1)
        if not num:
            break
    return out


def _series_cap(c: int, q: int, end: int, digits: int) -> int:
    # a spec's x^{-c} (b x - a)^{-q} = x^{-c-q} (b - a/x)^{-q}, kept to every
    # power still worth 10^-(digits + 12) when each power falls by 1/end
    return c + q + int(math.ceil((digits + 12) / math.log10(end))) + 2


def _guard_bits(m: int, end: int, s_cap: int, tail_terms: int) -> int:
    # Guard bits, beyond end.bit_length(), for a head over m prefixes and
    # its tail (the bound is stated in _sum_batch): 2^guard covers
    # m X^(m-1) + 2 units per head term plus X^m units for each tail
    # floor, spread over the end terms.  A tail dots a series with the
    # table of numerics.monomial_tails.  The series has at most
    # (m + 1) s_cap pairs (a, s), each floored once in the power series
    # and twice per factor.  The table's floors count as
    # m + 4 + 3 m! + tail_terms, and the dot's as 2.  A kernel row's basis
    # tail (_basis, _basis_tail) floors V's pairs twice per factor, as a
    # series does; then, for each U_j, the table's floors, the dot's two
    # and the Horner step's one, each weighted by k^j end^-(c + j) <=
    # ratio^-j end^-c, and sum_j ratio^-j <= 2 for the planner's
    # ratio >= 2: 2 (m + 3 m! + tail_terms + 7) covers both.  Never fewer
    # than the stream's default 16.
    x_bound = 1 + math.log(end)
    floors = (m + 1) * s_cap * (2 * m + 1) + 2 * (m + 3 * math.factorial(m) + tail_terms + 7)
    units = m * x_bound ** (m - 1) + 2 + floors * x_bound ** m / end
    return max(16, math.ceil(math.log2(units)))


def _log_series(factors: tuple, c: int, b: int, a: int, q: int, s_cap: int, digits: int,
                prec: int) -> dict:
    # the log-power series of f(x) / (x^c (b x - a)^q), f the product of
    # the factors' value series, kept to x^-s_cap: the power series from
    # exact numerators, times each factor's value_series, each product
    # floored once per term
    series = _power_series(c + q, b, a, q, s_cap, prec)
    for kind in factors:
        # the power series starts at x^-(c+q), so no factor term
        # beyond x^-(s_cap-c-q) survives the product
        series = _series_mul(series, value_series(kind, s_cap - c - q, digits + 15, prec),
                             s_cap, prec)
    return series


def _dot(terms: list, table: dict, end: int, shift: int) -> tuple[int, int]:
    # (W, V) for sum c (ln x)^a x^-(s+shift) over terms ((a, s), c), s
    # ascending from s0: its groups 0..T at end are W 2^-2prec
    # end^-(s0+shift-1), and its first omitted group is V 2^-2prec
    # end^-(s0+shift+2T+1), T the table's terms.  Each coefficient weights
    # its table entry, and the powers are summed by Horner in 1/end from
    # the top down, all at 2^-2prec
    acc = om = 0
    at = terms[-1][0][1]
    for (a, s), c in reversed(terms):
        if s < at:
            acc, om, at = acc // end ** (at - s), om // end ** (at - s), s
        w, v = table[a, s + shift]
        acc += c * w
        om += c * v
    return acc, om


def _table_tail(series: dict, end: int, prec: int, terms: int, wp: int) -> tuple[int, HighFloat]:
    """(tail, |first omitted group|) of a series at end, from the table.

    The tail is sum_{i>end} of the series, Euler-Maclaurin groups 0..terms
    with their sign turned, as an int scaled by 2^prec: the series dotted
    with numerics.monomial_tails at (end, prec, terms), floored once more.
    The omitted group is rounded at wp digits on its own, keeping its
    relative precision, since it becomes the printed error estimate.
    """
    ordered = sorted(series.items(), key=lambda term: term[0][1])
    low = ordered[0][0][1]
    w, v = _dot(ordered, monomial_tails(series, end, prec, terms), end, 0)
    return -(w // end ** (low - 1) >> prec), \
        abs(HighFloat(v, -2 * prec).round(wp).div(end ** (low + 2 * terms + 1), wp))


def _band(series: tuple) -> tuple | None:
    # a lemma kernel row (a = -k, q = 1, from _kernel_series) shares its
    # tail's basis with every row of its band, the series that differ from
    # it only in a; a sum spec (a = 1) has no band and dots its own series
    factors, c, b, a, q, end = series
    return (factors, c, b, end) if a < 0 and q == 1 else None


def _basis(factors: tuple, c: int, end: int, digits: int, prec: int, s_cap: int,
           terms: int) -> tuple[int, list]:
    """The Euler-Maclaurin basis of a band: (u, [(W_j, v_j)]) for
    j = 0..s_cap - c - 1.

    U_j is x^-(c+1+j) V(x), V the product of the factors' value series,
    kept to x^-s_cap, so that x^-c (b x - a)^-1 V(x) is
    sum_j a^j b^-(j+1) U_j for every row of the band, term by term and
    with the same powers kept as _log_series.  The tail of U_j, groups
    0..terms, is W_j 2^-prec end^-(c+j), and its first omitted group,
    whose lowest power is u + j with u = c + 2 terms + 2, is
    v_j 2^-prec end^-(u+j).  Both are V's terms dotted with the entries of
    the band's table (numerics.monomial_tails), floored once to 2^-prec.
    """
    vf = _log_series(factors, 0, 1, 0, 0, s_cap - c - 1, digits, prec)  # V, with c = q = 0
    ordered = sorted(vf.items(), key=lambda term: term[0][1])  # U_j keeps a prefix
    lows = {a: s for (a, s), _ in reversed(ordered)}  # each log power's lowest s in V
    table = monomial_tails([(a, t) for a, s in lows.items() for t in range(s + c + 1, s_cap + 1)],
                           end, prec, terms)
    rows, kept = [], len(ordered)
    for j in range(s_cap - c):
        while ordered[kept - 1][0][1] + c + 1 + j > s_cap:
            kept -= 1
        w, v = _dot(ordered[:kept], table, end, c + 1 + j)
        rows.append((w >> prec, v >> prec))
    return c + 2 * terms + 2, rows


def _basis_tail(basis: tuple, series: tuple, prec: int, wp: int) -> tuple[int, HighFloat]:
    # (tail, |first omitted group|) of a row from its band's basis, as
    # _table_tail gives them: sum_j a^j b^-(j+1) U_j by Horner in
    # a / (b end), the top j first, on the basis's relative values, which
    # floors once per step; |a / (b end)| <= 1/ratio <= 1/2 scales each
    # floor down, so the floors grow neither with k nor with the band's
    # other rows
    _, c, b, a, _, end = series
    u, rows = basis
    acc = om = 0
    for w, v in reversed(rows):
        acc = w + acc * a // (b * end)
        om = v + om * a // (b * end)
    return -(acc // (b * end ** c)), abs(HighFloat(om, -prec).round(wp).div(abs(b) * end ** u, wp))


# terms per block of the batched head walk: a block holds one list this
# long per kind, numerator, power and quotient in use, so memory is flat
# in end
HEAD_BLOCK = 512


def _runs(b: int, a: int, q: int, end: int) -> list:
    # (lo, hi, s): the i in [lo, hi) within 1..end where b i - a has sign
    # s, below a/b and above it, so a zero at b i = a is in neither run
    if not q:
        return [(1, end + 1, 1)]
    side = 1 if b > 0 else -1
    runs = ((max(1, lo), min(hi, end + 1), s)
            for lo, hi, s in ((1, -(-a // b), -side), (a // b + 1, end + 1, side)))
    return [run for run in runs if run[0] < run[1]]


def _den(powers: dict, b: int, a: int, s: int, x: int, y: int, d: int):
    # |b i - a|^d for i in [x, y), where b i - a has sign s: the range
    # itself at d = 1, else a list built once per block and shared
    # through powers
    base = range(s * (b * x - a), s * (b * y - a), s * b)
    if d == 1:
        return base
    key = b, a, s, x, y, d
    if key not in powers:
        powers[key] = list(map(pow, base, repeat(d)))
    return powers[key]


def _heads(batch: list, prec: int) -> list[int]:
    """Heads of the series in batch, summed in one blocked walk.

    A series (factors, c, b, a, q, end) has the head
    sum_{i=1}^{end} floor(N_i / (i^c (b i - a)^q)) as an int scaled by
    2^prec, skipping a zero denominator, where N_i is the product of the
    factors' columns at i shifted down to one factor of 2^prec.

    Per block of HEAD_BLOCK terms the walk is one division tree, built on
    floor(floor(x / m) / n) = floor(x / (m n)), which holds for any int
    x and positive m and n:
    - harmonic.columns divides each column's terms out of the next lower
      order of its parity;
    - a series is a piece per run [x, y) of _runs at its own end, with
      sign the sign of (b i - a)^q there, and the pieces are sorted by
      chain (factors, sign, c, b, a, x, y), then q;
    - every divisor is positive and no dividend is below -1: a run of
      sign -1 divides N_i - 1 and sums its terms as -ceil, since
      floor(-N / D) = -((N - 1) // D) - 1, so its piece adds
      -sum(quot) - (y - x);
    - a running first stage floor(N'_i / i^c), N'_i being N_i or N_i - 1,
      over the block restarts with (factors, sign) and steps up in c by
      i^(c - c'), a power list shared by every numerator; a running
      second stage floor(Q_i / |b i - a|^q) over the run restarts with
      the chain and steps up in q by |b i - a|^(q - q').
    Every quotient is thus the one-floor quotient exactly, and the head
    is that of one floor per term, bit for bit.  CPython divides a
    nonnegative dividend fastest, and at end <= 10^4 most steps divide
    by i^2 or (2i-1)^2, a single 30-bit digit.  A quotient list is kept
    only when the next piece continues its chain, and each block's lists
    go with the block.
    """
    # factors are keyed by their labels, as HarmonicKind has no order
    pieces = sorted((tuple(kind.label for kind in factors), s if q % 2 else 1,
                     c, b, a, x, y, q, s, n)
                    for n, (factors, c, b, a, q, end) in enumerate(batch)
                    for x, y, s in _runs(b, a, q, end))
    cols = columns({kind for series in batch for kind in series[0]}, prec)
    heads, top = [0] * len(batch), max(series[5] for series in batch)
    for lo in range(1, top + 1, HEAD_BLOCK):
        hi = min(lo + HEAD_BLOCK, top + 1)
        block = {kind: list(islice(column, hi - lo)) for kind, column in cols.items()}
        powers: dict = {}
        numer = stage = chain = None  # the keys of the running numerators and stages
        for piece, after in zip(pieces, pieces[1:] + [()]):
            labels, sign, c, b, a, x, y, q, s, n = piece
            x, y = max(x, lo), min(y, hi)
            if x >= y:
                continue
            if labels != numer:
                factors = batch[n][0]
                nums = functools.reduce(functools.partial(map, mul), [
                    block[kind] if factors.count(kind) == 1 else
                    map(pow, block[kind], repeat(factors.count(kind)))
                    for kind in dict.fromkeys(factors)] or [repeat(1 << prec)])
                if len(factors) > 1:
                    nums = map(rshift, nums, repeat(prec * (len(factors) - 1)))
                numer, nums = labels, list(islice(nums, hi - lo))
            if piece[:2] != stage:
                stage, c0, first = piece[:2], 0, nums if sign > 0 else [v - 1 for v in nums]
            if c > c0:
                c0, first = c, list(map(floordiv, first, _den(powers, 1, 0, 1, lo, hi, c - c0)))
            if piece[:7] != chain:
                chain, q0, quot = piece[:7], 0, islice(first, x - lo, y - lo)
            if q > q0:
                q0, quot = q, map(floordiv, quot, _den(powers, b, a, s, x, y, q - q0))
            if after[:7] == chain:  # the next piece reads it
                quot = list(quot)
            heads[n] += sum(quot) if sign > 0 else -sum(quot) - (y - x)
        del block, powers  # before the next block's are built
    return heads


def _plan(series: tuple, opts: EvalOptions) -> tuple[int, int, int]:
    # (prec, s_cap, terms): the fixed-point scale a series is summed at (the
    # bits of digits + 15, end.bit_length() and _guard_bits), the last power
    # its tail keeps and the corrections it takes, set only here, so the
    # guard bits cover the series the tail builds (the bound is stated in
    # _sum_batch).  Each power of a spec's series falls by 1/end at least,
    # since a/b = 1/2, and a spec takes _series_cap and opts.tail_terms; a
    # kernel row's falls by its band's largest k / end <= 1/ratio, and the
    # row keeps the powers j <= J of (b x + k)^-1 and the terms of the
    # planner's (ratio, terms, J), so every row of a band gets one cap and prec
    factors, c, _, _, q, end = series
    if _band(series) is None:
        s_cap, terms = _series_cap(c, q, end, opts.digits), opts.tail_terms
    else:
        _, terms, top = _kernel_plan(opts.digits)
        s_cap = c + 1 + top
    return dps_to_prec(opts.digits + 15) + end.bit_length() + _guard_bits(
        len(factors), end, s_cap, terms), s_cap, terms


_sums: dict = {}  # (series, opts) -> (value, omitted); only _sum_batch writes it
SUMS_MAX = 256


def _sum_batch(batch: list, opts: EvalOptions) -> list[tuple[HighFloat, HighFloat]]:
    """(sum_{i>=1} f(i) / (i^c (b i - a)^q), |first omitted correction|)
    for each series (factors, c, b, a, q, end) in batch.

    f is the product of the prefixes in factors (1 without any); a term
    with a zero denominator is skipped.  The head to end and the tail
    are fixed-point ints at one scale 2^-prec, so head plus tail is
    rounded once.  A sum spec's tail is _table_tail of its own series; a
    lemma kernel row's is _basis_tail of its band's basis, built once per
    batch.  Both read numerics.monomial_tails, one table per (end, prec,
    terms) for every series of a batch and every band at that end.  The
    series not in _sums yet are
    summed, one _heads walk per scale.  Both values are at the working
    precision digits + 15, and stay in _sums, the whole batch
    (cleared whole before new series would pass SUMS_MAX, so it holds at
    most SUMS_MAX or the largest batch): equal arguments (SumSpec sorts
    its factors) sum the series once.
    """
    # In units of 2^-prec each prefix is at most i low at term i, so the
    # product of m prefixes, each below X = 1 + ln(end), is at most
    # m i X^(m-1) off; the shift and the division (two stages, one floor
    # exactly) floor once more each.
    # Every caller's |denominator| is at least i, so the head is at most
    # end (m X^(m-1) + 2) units off.  A tail is a series dotted with the
    # table, so its floors are of three kinds:
    # - a unit in a series coefficient of (ln x)^a x^-s is weighted by its
    #   entry w end^(1-s) 2^-prec, about X^a end^(1-s), under X^m as
    #   s >= 2;
    # - an entry's own floors, a + 4 + A + R units (numerics.monomial_tails)
    #   are weighted by |coefficient| end^(1-s), and these weights sum to
    #   at most X^m, as each factor's series, its coefficients made
    #   positive, is under X at end and the denominator's under
    #   end^(1-c-q).  A <= 3 a! - 1, and R <= tail_terms X^a / end wherever
    #   the weight is above 2^-prec: each (s + 1) ... (s + 2r - 1) is under
    #   end^(2r-1) for a kernel row (end >= s + 2 tail_terms) and under
    #   end^(2r+s-2) for a spec (end >= 100, tail_terms <= 8), and
    #   sum_b |K[b]| X^b <= X^a (s + 1) ... (s + n).  So the table moves
    #   the tail by at most (m + 4 + 3 m! + tail_terms) X^m units;
    # - the dot sums at 2^-2prec and floors twice more.
    # In a basis tail a unit of V's (ln x)^a x^-s reaches every U_j,
    # weighted by k^j, so by at most X^a end^-(s+c) sum_j (k / end)^j,
    # under 2 X^m / end as c >= 1 and k / end <= 1/ratio <= 1/2, and the
    # table's floors for U_j, and the floors of U_j and of the Horner step
    # at j, by ratio^-j as much: _guard_bits counts them.  prec
    # carries end.bit_length() + guard bits, and _guard_bits makes
    # end 2^guard exceed both together, so head plus tail is within
    # 2^-(bits of wp) for any number of factors.
    done = {series: _sums[series, opts] for series in batch if (series, opts) in _sums}
    new = [series for series in dict.fromkeys(batch) if series not in done]
    if new and len(_sums) + len(new) > SUMS_MAX:
        _sums.clear()
    groups: dict = {}  # prec -> {series: (s_cap, terms)}
    for series in new:
        prec, s_cap, terms = _plan(series, opts)
        groups.setdefault(prec, {})[series] = s_cap, terms
    for prec, plans in groups.items():
        bases: dict = {}  # band -> its basis
        for (series, (s_cap, terms)), head in zip(plans.items(), _heads(list(plans), prec)):
            band = _band(series)
            if band is None:
                tail, omitted = _table_tail(_log_series(*series[:5], s_cap, opts.digits, prec),
                                            series[5], prec, terms, opts.digits + 15)
            else:
                if band not in bases:
                    bases[band] = _basis(series[0], series[1], series[5], opts.digits, prec, s_cap,
                                         terms)
                tail, omitted = _basis_tail(bases[band], series, prec, opts.digits + 15)
            done[series] = HighFloat(head + tail, -prec).round(opts.digits + 15), omitted
            _sums[series, opts] = done[series]
    return [done[series] for series in batch]


# ---- the evaluator --------------------------------------------------------


def err_floor(digits: int) -> HighFloat:
    """10^(8 - digits), the smallest error estimate reported at digits."""
    return HighFloat(10).pow(8 - digits, digits)


def _spec_series(spec: SumSpec, K: int) -> tuple:
    return spec.factors, spec.k_power, 2, 1, spec.odd_power, K


def evaluate_sum(spec: SumSpec, opts: EvalOptions = DEFAULT_OPTS) -> EvalResult:
    """Partial sum to K plus Euler-Maclaurin tail.

    The error estimate is ten times the first omitted correction term,
    floored at err_floor(digits); doubling K moves the value by less
    than that estimate.
    """
    (value, omitted), = _sum_batch([_spec_series(spec, opts.K)], opts)
    err = max((10 * omitted).round(opts.digits), err_floor(opts.digits))
    return EvalResult(value.round(opts.digits), err, opts.K, opts.digits)


def sum_specs(specs, opts: EvalOptions = DEFAULT_OPTS) -> None:
    """Memoize the sums of several specs, their heads summed together.

    evaluate_sum on any of them then reuses the memo; the values are
    those evaluate_sum computes alone, bit for bit.
    """
    _sum_batch([_spec_series(spec, opts.K) for spec in specs], opts)


# ---- closed forms for pure reciprocal sums --------------------------------


def reciprocal_sum_closed_form(p: int, q: int) -> ZetaExpr:
    """Exact closed form of sum_k 1/(k^p (2k-1)^q).

    Partial fractions split the summand into 1/k^i and 1/(2k-1)^j pieces;
    the two divergent pieces (i = j = 1) always pair up into a multiple
    of ln 2, and everything else is a zeta value or its odd-part variant
    (1 - 2^{-j}) zeta(j), expanded here so no new symbol is needed.

    >>> from .zeta_algebra import format_expr
    >>> format_expr(reciprocal_sum_closed_form(2, 0))
    'z2'
    >>> format_expr(reciprocal_sum_closed_form(0, 3))
    '7/8*z3'
    >>> format_expr(reciprocal_sum_closed_form(1, 2))
    '3/2*z2 - 2*ln2'
    """
    if p < 0 or q < 0 or p + q < 2:
        raise ValueError("need nonnegative powers with p + q >= 2")
    # 1/(k^p (2k-1)^q) = sum_i A_i/k^i + sum_j B_j/(2k-1)^j
    if q == 0:
        a = {p: Fraction(1)}
        b = {}
    elif p == 0:
        a = {}
        b = {q: Fraction(1)}
    else:
        a = {i: Fraction((-1) ** q * 2 ** (p - i) * math.comb(q + p - i - 1, p - i))
             for i in range(1, p + 1)}
        b = {j: Fraction(2 ** p * (-1) ** (q - j) * math.comb(p + q - j - 1, q - j))
             for j in range(1, q + 1)}
    a1 = a.get(1, Fraction(0))
    b1 = b.get(1, Fraction(0))
    if a1 != -b1 / 2:
        raise AssertionError("divergent pieces failed to pair up")
    return ZetaExpr.from_terms([(_z(1), b1)] + [(_z(i), coef) for i, coef in a.items() if i >= 2] +
                               # (1 - 2^{-j}) zeta(j), kept expanded
                               [(_z(j), coef * (1 - Fraction(1, 2 ** j)))
                                for j, coef in b.items() if j >= 2])


# ---- lemma evaluators ------------------------------------------------------
#
# Each returns a (truncated, closed) pair at the option's precision.  The
# truncated side really sums the series (direct head plus Euler-Maclaurin
# tail), so agreement is evidence and not circularity.  The closed side is
# exact: (monomial, Fraction) pairs on 1, ln 2 and zeta values from exact
# prefixes at k, valued as they stand by zeta_algebra.evaluate.


# A lemma's truncated side sums the kernel f(i) / (i^c (b i + k)) over i,
# f a prefix or 1; the kernel is (factors, c, b).  b = 1 is the shifted
# kernel, b = -1 the two-sided one, whose i = k pole is skipped.
AUX_KERNEL = ((HarmonicKind.odd(1),), 1, 1)


def g_kernel(n: int) -> tuple:
    return (), 2 * n, -1


def f_kernel(m: int) -> tuple:
    return (HarmonicKind.odd(m),), 1, -1


# A check's rows come in bands of KERNEL_BAND values of k: band n, k in
# ((n - 1) 40, n 40], sums to end = ratio 40 n, ratio from _kernel_plan,
# so each row's end is at least ratio k, and the rows of a band share end,
# s_cap, prec and tail terms, hence one Euler-Maclaurin basis (_basis).
KERNEL_BAND = 40
# the ratios _kernel_plan tries: every one to 20, then about 10% apart
_RATIOS = (*range(2, 20), *range(20, 50, 2), *range(50, 100, 5), *range(100, 300, 10),
           *range(300, 1000, 25), *range(1000, 2001, 100))
# a plan's head, KERNEL_BAND / 2 rows (the default check) to
# end = 40 ratio, in basis products per unit of ratio: a head term costs
# about a fifth of a product (0.16 against 0.7 us at digits 40 and 100,
# Python 3.11 on a 2-vCPU VM)
HEAD_COST = KERNEL_BAND ** 2 // 10


def _kernel_bound(digits: int, b: int, ratio: int, terms: int, top: int) -> float:
    """log10 of the stated bound on the error of a kernel row's sum at
    digits, summed to end = ratio 40 n with terms corrections and its
    series kept to the powers j <= top = J of (b x + k)^-1.

    The row is sum_{i>=1} F(i), F(x) = V(x) x^-c / (b x + k), b = +-1,
    V = 1 or one odd prefix h(m, x) with m <= 4, c <= 6 (the lemma
    kernels), k <= end / ratio.  Its value is the head to end plus
    EM_T(S), the Euler-Maclaurin groups 0..T of S, the series of F kept
    to x^-s_cap, s_cap = c + 1 + J, so that the binomial expansion of
    (b x + k)^-1 keeps j <= J, at x = end.  With
    (s)_n = s (s + 1) ... (s + n - 1), N = 2 T + 2, w = ratio / (ratio - 1)
    for b = -1 and 1 for b = 1, and |B_2r| / (2r)! = 2 zeta(2r) / (2 pi)^2r
    <= 4 (2 pi)^-2r, the error is at most the sum of three parts:
    - EM: sum_{i>end} F(i) - EM_T(F) is group T + 1 plus the remainder
      of T + 1 corrections, int B_N({x}) / N! F^(N)(x) dx over
      (end, inf), so at most 4 (2 pi)^-N (|F^(N-1)(end)| +
      int |F^(N)|).  By Leibniz, with |(x^-c / (x + k))^(j)| <=
      (c + 1)_j x^-(c+1+j) (for b = -1, |x - k| >= x / w costs w per
      derivative, P = w^(N+2) in all), |h(1, x)^(i)| = |psi^(i)(x + 1/2)| / 2 <=
      (i - 1)! (1 + i / x) / (2 x^i), h(m, x) <= 1.24 for m >= 2 with
      smaller derivatives, and sum_i C(n, i) (i - 1)! (c + 1)_(n-i) <=
      (c + 1)_n H_n: |F^(n)(x)| <= P (c + 1)_n x^-(c+1+n) Lambda, with
      Lambda = (ln end + H_N (1 + N / end) + 1 / (N + 1)) / 2 + 1, which
      also covers int ln x x^-(N+2).  c = 1 is the largest once
      end >= N + 6, so EM <= 8 (2 pi)^-N P N! end^-(N+1) Lambda.
    - Cap: EM_T(F - S), the first dropped power carried through the groups
      the tail keeps.  F - S is F (-k / (b x))^(J+1), the binomial
      remainder, a kernel like F with c + J + 1 for c and k^(J+1) as
      factor, plus V's own truncation under each kept j: V's coefficient
      at x^-t is at most 4 t! / pi^t, and its remainder after x^-t, with
      its derivatives, at most twice the first omitted term.  Both parts
      start at x^-(c+J+2), k^j <= (end / ratio)^j and end >= 40 ratio, so
      Cap <= ratio^-(J+1) end^-1 (Lambda + delta) Q, with
      delta = sum_{t<=J+1} 8 t! / (40 pi)^t, and Q = w / (J + 2) +
      w / (2 end) + sum_{r=1..T} 4 (2 pi / w)^-2r (J + 3)_(2r-1) end^-2r
      the groups 0..T of x^-(J+3) relative to end^-(J+2), given
      end >= J + N + 6.
    - Floors: the head and basis floors, which _guard_bits sizes, and the
      rounding to digits + 15: 5 2^-(bits of digits + 15) for values
      below 4.
    Each part falls as end grows, so band 1, end = 40 ratio, is the worst,
    and grows with w, so the bound at b = -1 covers b = 1.  The parts are
    summed from their logs, as J may reach end.  Returns +inf where the
    conditions above fail.
    """
    end, n = KERNEL_BAND * ratio, 2 * terms + 2
    if ratio < 2 or end < top + n + 6:
        return math.inf
    tau, lend = 2 * math.pi, math.log(end)
    # H_N <= 1 + ln N
    lam = (lend + (1 + math.log(n)) * (1 + n / end) + 1 / (n + 1)) / 2 + 1
    w = ratio / (ratio - 1) if b < 0 else 1.0
    em = math.log(8 * lam) + (n + 2) * math.log(w) + math.lgamma(n + 1) - n * math.log(tau) - \
        (n + 1) * lend
    # Q's corrections fall by (w (J + N) / (2 pi end))^2 < 1/9 a step
    q = w / (top + 2) + w / (2 * end) + 4.5 * (top + 3) * (w / (tau * end)) ** 2
    cap = -(top + 1) * math.log(ratio) - lend + math.log(q)
    # delta's terms fall and then rise, so the larger end term bounds each
    delta = math.log(8 * (top + 1)) + max(-math.log(KERNEL_BAND * math.pi), math.lgamma(top + 2) -
                                          (top + 1) * math.log(KERNEL_BAND * math.pi))
    parts = em, cap + math.log(lam), cap + delta, math.log(5) - dps_to_prec(digits + 15) * math.log(2)
    peak = max(parts)
    return (peak + math.log(sum(math.exp(part - peak) for part in parts))) / math.log(10)


@functools.lru_cache(maxsize=None)
def _kernel_plan(digits: int) -> tuple[int, int, int]:
    """(ratio, terms, J): the cheapest band plan whose stated bound
    (_kernel_bound) at b = -1, which covers both kernel sides, is below
    10^-(digits + 2), so every band at one digit count has one end.

    A plan costs, in basis products, ratio HEAD_COST for its head and
    about J (J + 2 terms) for its basis.  Cheapest first by their cost at
    low, a J short of which the cap part alone (Lambda >= 1, delta >= 0,
    Q >= w / end) misses the target, each ratio raises terms from 2 while
    low is still cheaper than the best plan.  The bound falls as J grows
    (while end >= J + N + 6), so a terms' least J is found by bisection,
    below the least J of fewer terms: more terms at no smaller J cost more.
    """
    def meets(terms: int, top: int) -> bool:
        return _kernel_bound(digits, -1, ratio, terms, top) < -(digits + 2)

    # -1 keeps low a lower bound through the float rounding
    lows = {ratio: max(1, int(((digits + 2) * math.log(10) - 2 * math.log(KERNEL_BAND * ratio) +
                               math.log(ratio / (ratio - 1))) / math.log(ratio)) - 1)
            for ratio in _RATIOS}
    best = (math.inf,)  # (cost, ratio, terms, J)
    for least, ratio in sorted((ratio * HEAD_COST + low * (low + 4), ratio)
                               for ratio, low in lows.items()):
        if least >= best[0]:
            break
        low, top = lows[ratio], None
        for terms in count(2):
            hi = KERNEL_BAND * ratio - 2 * terms - 8 if top is None else top - 1
            if hi < low or ratio * HEAD_COST + low * (low + 2 * terms) >= best[0]:
                break
            if not meets(terms, hi):
                continue
            lo = low
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if meets(terms, mid) else (mid + 1, hi)
            top = lo
            best = min(best, (ratio * HEAD_COST + top * (top + 2 * terms), ratio, terms, top))
    if best[0] == math.inf:
        raise ValueError(f"no kernel plan reaches {digits} digits")
    return best[1:]


def _kernel_series(kernel: tuple, k: int, digits: int) -> tuple:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    factors, c, b = kernel
    return factors, c, b, -k, 1, _kernel_plan(digits)[0] * KERNEL_BAND * -(-k // KERNEL_BAND)


def _kernel_truncated(kernel: tuple, k: int, opts: EvalOptions) -> HighFloat:
    (total, _), = _sum_batch([_kernel_series(kernel, k, opts.digits)], opts)
    return total.round(opts.digits)


def _closed(terms: list, opts: EvalOptions) -> HighFloat:
    return evaluate(terms, opts.digits + 15).round(opts.digits)


def _h(n: int, k: int) -> Fraction:
    return harmonic_exact(HarmonicKind.odd(n), k)


def _z(t: int) -> ZetaMonomial:
    # letter t alone: ln 2 at t = 1, zeta(t) above
    return ZetaMonomial(((t, 1),))


_ladders: dict[int, list[Fraction]] = {}


def _ladder(n: int, k: int) -> Fraction:
    """sum_{i=2}^{k} H(1, i - 1) / (2i - 1)^n, exactly (from i = 2, as
    H(1, 0) = 0); one running ladder per n is memoised and capped at
    EXACT_LIMIT, like the exact prefixes."""
    if k > EXACT_LIMIT:
        raise ValueError(f"exact rationals are capped at k = {EXACT_LIMIT}")
    ladder = _ladders.setdefault(n, [Fraction(0), Fraction(0)])
    while len(ladder) <= k:
        i = len(ladder)
        ladder.append(ladder[-1] + harmonic_exact(HarmonicKind.even(1), i - 1) / (2 * i - 1) ** n)
    return ladder[k]


def _shifted_terms(n: int, k: int) -> list:
    # the sign of n rides on the ladder and the ln 2 block only; each
    # (1 - 2^-t) zeta(t) term carries (-1)^(n-t)
    sign = Fraction(1 if n % 2 == 1 else -1, k)
    return [(ZetaMonomial(), sign * _ladder(n, k)), (_z(1), 2 * sign * _h(n, k))] + \
        [(_z(t), 2 * (-1) ** (n - t) * (1 - Fraction(1, 2 ** t)) * _h(n + 1 - t, k) / k)
         for t in range(2, n + 1)]


def shifted_kernel_closed(n: int, k: int, opts: EvalOptions = DEFAULT_OPTS) -> HighFloat:
    """Closed form of sum_i h(n, i) / (i (i + k)) for k >= 1.

    Finite data only: a ladder of full-harmonic over odd-power terms up
    to k, one ln 2 block, and lower-order odd prefixes weighted by the
    odd-part zeta values.  The alternating sign pattern here is the one
    fixed by the truncated-versus-closed consistency check in the tests.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _closed(_shifted_terms(n, k), opts)


def lemma1_aux(k: int, opts: EvalOptions = DEFAULT_OPTS) -> tuple[HighFloat, HighFloat]:
    """(truncated, closed) for sum_i h(1, i) / (i (i + k))."""
    return (_kernel_truncated(AUX_KERNEL, k, opts),
            shifted_kernel_closed(1, k, opts))


def recip_kernel_closed(p: int, k: int, opts: EvalOptions = DEFAULT_OPTS) -> HighFloat:
    """Closed form of the two-sided sum_{i != k} 1/(i^p (k - i)), p >= 2."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    const = harmonic_exact(HarmonicKind.even(1), k) / k ** p - Fraction(p + 1, k ** (p + 1))
    return _closed([(ZetaMonomial(), const)]
                   + [(_z(p + 1 - j), Fraction(1, k ** j)) for j in range(1, p)], opts)


def lemma2_g(n: int, k: int, opts: EvalOptions = DEFAULT_OPTS) -> tuple[HighFloat, HighFloat]:
    """(truncated, closed) for the two-sided sum_{i != k} 1/(i^{2n} (k - i)).

    The closed side at (n, k) = (1, 1) is zeta(2) - 2 and at (1, 2) is
    zeta(2)/2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (_kernel_truncated(g_kernel(n), k, opts),
            recip_kernel_closed(2 * n, k, opts))


def lemma3_f(n: int, parity: str, k: int, opts: EvalOptions = DEFAULT_OPTS) \
        -> tuple[HighFloat, HighFloat]:
    """(truncated, closed) for the two-sided cross sum of order m.

    parity 'odd' takes m = 2n - 1 and parity 'even' takes m = 2n; the
    order-1 case (1, 'odd') has the closed side 2 ln 2 - 3 at k = 1.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = 2 * n - 1 if parity == "odd" else 2 * n
    # the shifted-kernel block enters with sign +1 for odd m, -1 for even m
    closed = [(mono, c if m % 2 == 1 else -c) for mono, c in _shifted_terms(m, k)]
    closed.append((ZetaMonomial(), -2 * m * _h(m + 1, k) / k - _h(m, k) / k ** 2))
    closed += [(_z(2 * i), 4 * (1 - Fraction(1, 4 ** i)) * _h(m + 1 - 2 * i, k) / k)
               for i in range(1, m // 2 + 1)]
    return (_kernel_truncated(f_kernel(m), k, opts),
            _closed(closed, opts))


def lemma_checks(ks, opts: EvalOptions = DEFAULT_OPTS):
    """(name, (k, truncated, closed)) for the eight kernel checks at each k
    in ks, in report order; each check's truncated sides are summed in one
    batch, sharing their prefix columns, before its first row."""
    ks = tuple(ks)  # each check reads it twice
    checks = [("lemma1_aux", AUX_KERNEL, lemma1_aux)]
    checks += [(f"lemma2_g n={n}", g_kernel(n), functools.partial(lemma2_g, n)) for n in (1, 2, 3)]
    checks += [(f"lemma3_f m={m}", f_kernel(m), functools.partial(lemma3_f, n, parity))
               for m, n, parity in ((1, 1, "odd"), (2, 1, "even"), (3, 2, "odd"), (4, 2, "even"))]
    for name, kernel, row in checks:
        _sum_batch([_kernel_series(kernel, k, opts.digits) for k in ks], opts)
        for k in ks:
            yield name, (k, *row(k, opts))
