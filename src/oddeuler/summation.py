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
which the shared Euler-Maclaurin core in numerics integrates and
corrects exactly, so the result carries 30+ correct digits at the
default K.  The tail is fixed point as well, at the head's scale
2^-prec: coefficients are rounded to ints once, the derivatives are
exact integer multiples, each group is a Horner sum in 1/K with its
Bernoulli factor applied once as an exact rational, and head plus tail
is rounded to a HighFloat once.  ln K is highfloat.ln_fixed, and the
first omitted group, which becomes the error estimate, is rounded on its
own so that it keeps its relative precision.

Every sum goes through _sum_batch and its one memo, filled by batches;
the lemma evaluators at the bottom compare its kernel sums with closed
forms kept as exact ZetaExprs and valued by zeta_algebra.evaluate.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import islice, repeat
from operator import floordiv, mul, rshift

from .harmonic import EXACT_LIMIT, HarmonicKind, columns, harmonic_exact, value_series
from .highfloat import HighFloat, dps_to_prec, ln_fixed
from .numerics import Rational, euler_maclaurin_fixed, record
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
        return format_sumspec(self)

    __str__ = text


def format_sumspec(spec: SumSpec) -> str:
    numer = "*".join(f.label for f in spec.factors) or "1"
    parts = []
    if spec.k_power:
        parts.append("k" if spec.k_power == 1 else f"k^{spec.k_power}")
    if spec.odd_power:
        parts.append("(2k-1)" if spec.odd_power == 1 else f"(2k-1)^{spec.odd_power}")
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


def term_exact(spec: SumSpec, k: int) -> Rational:
    """Exact k-th summand as a Fraction."""
    if k < 1:
        raise ValueError(f"term index must be >= 1, got {k}")
    value = Fraction(1, k ** spec.k_power * (2 * k - 1) ** spec.odd_power)
    for kind in spec.factors:
        value *= harmonic_exact(kind, k)
    return value


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
    # x^{-c} (b x - a)^{-q} = x^{-c-q} (b - a/x)^{-q}, kept to every power
    # still worth 10^-(digits + 12) at end
    return c + q + int(math.ceil((digits + 12) / math.log10(end))) + 2


def _guard_bits(m: int, end: int, s_cap: int, tail_terms: int) -> int:
    # Guard bits, beyond end.bit_length(), for a head over m prefixes and
    # its tail (the bound is stated in _sum_batch): 2^guard covers
    # m X^(m-1) + 2 units per head term plus X^m units for each tail
    # floor, spread over the end terms.  terms bounds the (a, s) pairs of
    # the series and of every group the tail values; each pair is floored
    # once in the power series, twice per factor and m + 1 times by group
    # 0's antiderivative, and each group floors twice more.  Never fewer
    # than the stream's default 16.
    x_bound = 1 + math.log(end)
    terms = (m + 1) * (s_cap + 2 * tail_terms + 2)
    floors = terms * (3 * m + 2) + 2 * (tail_terms + 2)
    units = m * x_bound ** (m - 1) + 2 + floors * x_bound ** m / end
    return max(16, math.ceil(math.log2(units)))


def _em_tail(factors: tuple, c: int, b: int, a: int, q: int, end: int,
             opts: EvalOptions, prec: int) -> tuple[int, HighFloat]:
    """(tail, |first omitted group|) for sum_{i>end} f(i) / (i^c (b i - a)^q).

    The tail is Euler-Maclaurin group 0 plus opts.tail_terms corrections,
    as an int scaled by 2^prec.  The series is built in fixed point: the
    power series from exact numerators, times each factor's value_series,
    each product floored once per term, and ln(end) is highfloat.ln_fixed.
    The omitted group is rounded at digits + 15 on its own, keeping its
    relative precision, since it becomes the printed error estimate.
    """
    wp = opts.digits + 15
    s_cap = _series_cap(c, q, end, opts.digits)
    series = _power_series(c + q, b, a, q, s_cap, prec)
    for kind in factors:
        # the power series starts at x^-(c+q), so no factor term
        # beyond x^-(s_cap-c-q) survives the product
        series = _series_mul(series, value_series(kind, s_cap - c - q, wp, prec), s_cap, prec)
    groups = euler_maclaurin_fixed(series, end, ln_fixed(end, prec) if factors else 0, prec)
    tail = 0
    for _ in range(opts.tail_terms + 1):
        v, t = next(groups)
        tail -= v // end ** t
    v, t = next(groups)
    return tail, abs(HighFloat(v, -prec).round(wp).div(end ** t, wp))


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


def _prec(series: tuple, opts: EvalOptions) -> int:
    # the fixed-point scale a series is summed at: the bits of digits + 15,
    # plus end.bit_length() and _guard_bits (the bound is stated in _sum_batch)
    factors, c, _, _, q, end = series
    return dps_to_prec(opts.digits + 15) + end.bit_length() + _guard_bits(
        len(factors), end, _series_cap(c, q, end, opts.digits), opts.tail_terms)


_sums: dict = {}  # (series, opts) -> (value, omitted); only _sum_batch writes it
SUMS_MAX = 256


def _sum_batch(batch: list, opts: EvalOptions) -> list[tuple[HighFloat, HighFloat]]:
    """(sum_{i>=1} f(i) / (i^c (b i - a)^q), |first omitted correction|)
    for each series (factors, c, b, a, q, end) in batch.

    f is the product of the prefixes in factors (1 without any); a term
    with a zero denominator is skipped.  The head to end and the tail
    (_em_tail) are fixed-point ints at one scale 2^-prec, so head plus
    tail is rounded once.  The series not in _sums yet are
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
    # end (m X^(m-1) + 2) units off.  Each floor of the tail moves it by
    # at most X^m units, since a unit in a coefficient of (ln x)^a x^-s
    # is weighted by at most (ln end)^a end^(1-s) with s >= 2.  prec
    # carries end.bit_length() + guard bits, and _guard_bits makes
    # end 2^guard exceed both together, so head plus tail is within
    # 2^-(bits of wp) for any number of factors.
    done = {series: _sums[series, opts] for series in batch if (series, opts) in _sums}
    new = [series for series in dict.fromkeys(batch) if series not in done]
    if new and len(_sums) + len(new) > SUMS_MAX:
        _sums.clear()
    groups: dict = {}
    for series in new:
        groups.setdefault(_prec(series, opts), []).append(series)
    for prec, members in groups.items():
        for series, head in zip(members, _heads(members, prec)):
            tail, omitted = _em_tail(*series, opts, prec)
            done[series] = HighFloat(head + tail, -prec).round(opts.digits + 15), omitted
            _sums[series, opts] = done[series]
    return [done[series] for series in batch]


# ---- the evaluator --------------------------------------------------------


def err_floor(digits: int) -> HighFloat:
    """10^(8 - digits), the smallest error estimate reported at digits."""
    return HighFloat(10).pow(8 - digits, digits)


def _spec_series(spec: SumSpec, K: int) -> tuple:
    return spec.factors, spec.k_power, 2, 1, spec.odd_power, K


def evaluate_sum(spec: SumSpec, opts: EvalOptions | None = None) -> EvalResult:
    """Partial sum to K plus Euler-Maclaurin tail.

    The error estimate is ten times the first omitted correction term,
    floored at err_floor(digits); doubling K moves the value by less
    than that estimate.
    """
    opts = opts or DEFAULT_OPTS
    (value, omitted), = _sum_batch([_spec_series(spec, opts.K)], opts)
    err = max((10 * omitted).round(opts.digits), err_floor(opts.digits))
    return EvalResult(value.round(opts.digits), err, opts.K, opts.digits)


def sum_specs(specs, opts: EvalOptions | None = None) -> None:
    """Memoize the sums of several specs, their heads summed together.

    evaluate_sum on any of them then reuses the memo; the values are
    those evaluate_sum computes alone, bit for bit.
    """
    opts = opts or DEFAULT_OPTS
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
    total = ZetaExpr.ln2(b1) if b1 else ZetaExpr.zero()
    for i, coef in a.items():
        if i >= 2:
            total = total + ZetaExpr.zeta(i, coef)
    for j, coef in b.items():
        if j >= 2:
            # (1 - 2^{-j}) zeta(j), kept expanded
            total = total + ZetaExpr.zeta(j, coef * (1 - Fraction(1, 2 ** j)))
    return total


# ---- lemma evaluators ------------------------------------------------------
#
# Each returns a (truncated, closed) pair at the option's precision.  The
# truncated side really sums the series (direct head plus Euler-Maclaurin
# tail), so agreement is evidence and not circularity.  The closed side is
# exact: (monomial, Fraction) pairs on 1, ln 2 and zeta values from exact
# prefixes at k, summed once into a ZetaExpr and valued by zeta_algebra.evaluate.


# A lemma's truncated side sums the kernel f(i) / (i^c (b i + k)) over i,
# f a prefix or 1; the kernel is (factors, c, b).  b = 1 is the shifted
# kernel, b = -1 the two-sided one, whose i = k pole is skipped.
AUX_KERNEL = ((HarmonicKind.odd(1),), 1, 1)


def g_kernel(n: int) -> tuple:
    return (), 2 * n, -1


def f_kernel(m: int) -> tuple:
    return (HarmonicKind.odd(m),), 1, -1


def _kernel_series(kernel: tuple, k: int) -> tuple:
    # the two-sided head runs k longer, to end past its pole as far
    factors, c, b = kernel
    return factors, c, b, -k, 1, max(2000, 50 * k) + (k if b < 0 else 0)


def sum_kernels(kernel: tuple, ks, opts: EvalOptions | None = None) -> None:
    """Memoize a kernel's truncated side at every k in ks, the heads
    summed together; the lemma evaluators then reuse the memo."""
    opts = opts or DEFAULT_OPTS
    _sum_batch([_kernel_series(kernel, k) for k in ks], opts)


def _kernel_truncated(kernel: tuple, k: int, opts: EvalOptions | None) -> HighFloat:
    opts = opts or DEFAULT_OPTS
    (total, _), = _sum_batch([_kernel_series(kernel, k)], opts)
    return total.round(opts.digits)


def _closed(terms: list, opts: EvalOptions | None) -> HighFloat:
    digits = (opts or DEFAULT_OPTS).digits
    return evaluate(ZetaExpr.from_terms(terms), digits + 15).round(digits)


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


def shifted_kernel_closed(n: int, k: int, opts: EvalOptions | None = None) -> HighFloat:
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


def lemma1_aux(k: int, opts: EvalOptions | None = None) -> tuple[HighFloat, HighFloat]:
    """(truncated, closed) for sum_i h(1, i) / (i (i + k))."""
    return (_kernel_truncated(AUX_KERNEL, k, opts),
            shifted_kernel_closed(1, k, opts))


def recip_kernel_closed(p: int, k: int, opts: EvalOptions | None = None) -> HighFloat:
    """Closed form of the two-sided sum_{i != k} 1/(i^p (k - i)), p >= 2."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    const = harmonic_exact(HarmonicKind.even(1), k) / k ** p - Fraction(p + 1, k ** (p + 1))
    return _closed([(ZetaMonomial(), const)]
                   + [(_z(p + 1 - j), Fraction(1, k ** j)) for j in range(1, p)], opts)


def lemma2_g(n: int, k: int, opts: EvalOptions | None = None) -> tuple[HighFloat, HighFloat]:
    """(truncated, closed) for the two-sided sum_{i != k} 1/(i^{2n} (k - i)).

    The closed side at (n, k) = (1, 1) is zeta(2) - 2 and at (1, 2) is
    zeta(2)/2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (_kernel_truncated(g_kernel(n), k, opts),
            recip_kernel_closed(2 * n, k, opts))


def lemma3_f(n: int, parity: str, k: int, opts: EvalOptions | None = None) \
        -> tuple[HighFloat, HighFloat]:
    """(truncated, closed) for the two-sided cross sum of order m.

    parity 'odd' takes m = 2n - 1 and parity 'even' takes m = 2n, so
    (1, 'odd') is the order-1 case also exposed as lemma1_f.
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


def lemma1_f(k: int, opts: EvalOptions | None = None) -> tuple[HighFloat, HighFloat]:
    """Order-1 cross sum; closed side at k = 1 is 2 ln 2 - 3."""
    return lemma3_f(1, "odd", k, opts)


def lemma_checks():
    """(name, kernel, row) for the eight kernel checks, in report order;
    row(k, opts) gives the (truncated, closed) pair at k, and the kernel
    is the one its truncated side sums."""
    yield "lemma1_aux", AUX_KERNEL, lemma1_aux
    for n in (1, 2, 3):
        yield f"lemma2_g n={n}", g_kernel(n), functools.partial(lemma2_g, n)
    for m in (1, 2, 3, 4):
        yield (f"lemma3_f m={m}", f_kernel(m),
               functools.partial(lemma3_f, (m + 1) // 2, "odd" if m % 2 else "even"))
