"""Numeric evaluation of Euler-type sums over harmonic prefixes.

A sum here is sum_{k>=1} f(k) with

    f(k) = product of harmonic prefixes at k / (k^p (2k-1)^q),

convergent whenever p + q >= 2 (the numerator only contributes powers of
log).  Evaluation is a direct partial sum to K followed by an
Euler-Maclaurin tail: the summand is expanded into a log-power series
of monomials c * (ln x)^a * x^{-s} (the harmonic factors' expansions
times a binomial expansion of the denominator), which the shared
Euler-Maclaurin core in numerics integrates and corrects exactly, so
the result carries 30+ correct digits at the default K.

The lemma evaluators at the bottom compare one truncated two-sided
kernel sum against closed forms; its tail goes through the same routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .harmonic import HarmonicKind, PrefixStream, harmonic_exact, value_series
from .numerics import (ConstantsTable, HighFloat, Rational, euler_maclaurin,
                       series_eval)
from .zeta_algebra import ZetaExpr


class SumSpecSyntaxError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (position {pos})"
        super().__init__(message)
        self.pos = pos


@dataclass(frozen=True)
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
        ordered = tuple(sorted(self.factors,
                               key=lambda f: (f.order, f.parity == "even", f.label)))
        object.__setattr__(self, "factors", ordered)

    def text(self) -> str:
        return format_sumspec(self)

    def __str__(self) -> str:
        return self.text()


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


def parse_sumspec(text: str) -> SumSpec:
    """Parse forms like h1*h2/k^3, H3/(2k-1)^2, 1/(k^3*(2k-1)^2)."""
    s = text.strip()
    if not s:
        raise SumSpecSyntaxError("empty sum spec", 0)
    slash = s.find("/")
    if slash < 0:
        raise SumSpecSyntaxError("missing '/' between numerator and denominator",
                                 len(text))
    numer, denom = s[:slash], s[slash + 1:]
    base = text.find(s)  # offset of stripped text for positions

    factors = []
    n = numer.strip()
    if n != "1":
        pos = base
        for piece in n.split("*"):
            piece = piece.strip()
            try:
                factors.append(HarmonicKind.from_label(piece))
            except ValueError:
                raise SumSpecSyntaxError(
                    f"expected h<n> or H<n> factor, got {piece!r}", pos) from None
            pos += len(piece) + 1

    d = denom.strip()
    dpos = base + slash + 1
    if d.startswith("(") and not d.startswith("(2k-1)"):
        if not d.endswith(")"):
            raise SumSpecSyntaxError("unbalanced parentheses in denominator", dpos)
        d = d[1:-1].strip()
        dpos += 1
    if not d:
        raise SumSpecSyntaxError("empty denominator", dpos)

    k_power = 0
    odd_power = 0
    i = 0
    expect_factor = True
    while i < len(d):
        if d[i] == "*":
            if expect_factor:
                raise SumSpecSyntaxError("misplaced '*' in denominator", dpos + i)
            expect_factor = True
            i += 1
            continue
        if not expect_factor:
            raise SumSpecSyntaxError("expected '*' between denominator factors",
                                     dpos + i)
        if d.startswith("(2k-1)", i):
            head, width = "odd", 6
        elif d[i] == "k":
            head, width = "k", 1
        else:
            raise SumSpecSyntaxError(
                f"expected 'k' or '(2k-1)' in denominator, got {d[i:]!r}", dpos + i)
        i += width
        exp = 1
        if i < len(d) and d[i] == "^":
            i += 1
            j = i
            while j < len(d) and d[j].isdigit():
                j += 1
            if j == i:
                raise SumSpecSyntaxError("expected integer exponent", dpos + i)
            exp = int(d[i:j])
            i = j
        if head == "k":
            if k_power:
                raise SumSpecSyntaxError("repeated k factor in denominator", dpos + i)
            k_power = exp
        else:
            if odd_power:
                raise SumSpecSyntaxError("repeated (2k-1) factor in denominator",
                                         dpos + i)
            odd_power = exp
        expect_factor = False
    if expect_factor:
        raise SumSpecSyntaxError("dangling '*' in denominator", dpos + len(d))
    try:
        return SumSpec(tuple(factors), k_power, odd_power)
    except ValueError as exc:
        raise SumSpecSyntaxError(str(exc)) from None


@dataclass(frozen=True)
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
        if not 1 <= self.tail_terms <= 8:
            raise ValueError(f"tail_terms must be in 1..8, got {self.tail_terms}")


@dataclass(frozen=True)
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


# ---- log-power series ----------------------------------------------------
#
# A series is a dict {(a, s): mpf} standing for sum c (ln x)^a x^{-s}; the
# Euler-Maclaurin core and the harmonic value series live in numerics and
# harmonic.  All series code assumes an mpmath working precision is
# already active.


def _series_mul(sa: dict, sb: dict, s_cap: int) -> dict:
    out: dict = {}
    for (a1, s1), c1 in sa.items():
        for (a2, s2), c2 in sb.items():
            s = s1 + s2
            if s > s_cap:
                continue
            key = (a1 + a2, s)
            out[key] = out.get(key, mp.mpf(0)) + c1 * c2
    return out


def _power_series(c: int, b: int, a: int, q: int, s_cap: int) -> dict:
    # x^{-c} (b - a/x)^{-q} = sum_j C(q+j-1, j) a^j b^{-q-j} x^{-c-j},
    # coefficients exact until the final rounding
    out = {}
    coef = Fraction(1, b ** q)
    for j in range(s_cap - c + 1):
        out[(0, c + j)] = mp.mpf(coef.numerator) / coef.denominator
        coef = coef * a * (q + j) / ((j + 1) * b)
        if not coef:
            break
    return out


def _em_tail(lead: int, build, cutoff: int, m_at: int,
             opts: EvalOptions) -> tuple[HighFloat, HighFloat]:
    """(sum_{k > m_at} of a summand, |first omitted correction|).

    The summand's series starts at x^{-lead}; build(s_cap) returns it up
    to x^{-s_cap}, where s_cap keeps every power still worth
    10^-(digits + 12) at the summation cutoff.  The tail is Euler-Maclaurin
    group 0 plus opts.tail_terms corrections.
    """
    extra = int(math.ceil((opts.digits + 12) / math.log10(cutoff))) + 2
    groups = euler_maclaurin(build(lead + extra))
    x = mp.mpf(m_at)
    lnx = mp.log(x)
    total = mp.mpf(0)
    for _ in range(opts.tail_terms + 1):
        total -= series_eval(next(groups), x, lnx)
    return total, abs(series_eval(next(groups), x, lnx))


def _summand_series(kinds: tuple, series: dict, s_cap: int,
                    table: ConstantsTable) -> dict:
    # a series times the value series of every harmonic factor
    for kind in kinds:
        series = _series_mul(series, value_series(kind, s_cap, table), s_cap)
    return series


# ---- the evaluator --------------------------------------------------------

_ERR_FLOOR_OFFSET = 8


def evaluate_sum(spec: SumSpec, opts: EvalOptions | None = None) -> EvalResult:
    """Partial sum to K plus Euler-Maclaurin tail.

    The error estimate is ten times the first omitted correction term,
    floored at 10^(8 - digits); doubling K moves the value by less than
    that estimate.
    """
    opts = opts or EvalOptions()
    wp = opts.digits + 15
    with mp.workdps(wp):
        table = ConstantsTable(wp)
        kinds = tuple(dict.fromkeys(spec.factors))
        counts = [spec.factors.count(kind) for kind in kinds]
        stream = PrefixStream(kinds, wp)
        partial = mp.mpf(0)
        for k in range(1, opts.K + 1):
            stream.advance()
            term = mp.mpf(k) ** (-spec.k_power)
            if spec.odd_power:
                term *= mp.mpf(2 * k - 1) ** (-spec.odd_power)
            for idx, kind in enumerate(kinds):
                v = stream.value(kind)
                term *= v if counts[idx] == 1 else v ** counts[idx]
            partial += term

        # x^{-p} (2x-1)^{-q} = x^{-p-q} (2 - 1/x)^{-q}
        lead = spec.k_power + spec.odd_power
        tail, omitted = _em_tail(lead, lambda cap: _summand_series(
            spec.factors, _power_series(lead, 2, 1, spec.odd_power, cap), cap, table),
            opts.K, opts.K, opts)
        value = partial + tail
        err = max(10 * omitted, mp.mpf(10) ** (_ERR_FLOOR_OFFSET - opts.digits))
    with mp.workdps(opts.digits):
        return EvalResult(+value, +err, opts.K, opts.digits)


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
# truncated side really sums the series (two-sided, split at i = k, with
# an Euler-Maclaurin tail), so agreement is evidence and not circularity.


def _lemma_table(opts: EvalOptions) -> tuple[int, ConstantsTable]:
    wp = opts.digits + 15
    return wp, ConstantsTable(wp)


def _harmonic_mpf(kind: HarmonicKind, k: int) -> HighFloat:
    if k == 0:
        return mp.mpf(0)
    v = harmonic_exact(kind, k)
    return mp.mpf(v.numerator) / v.denominator


def _kernel_truncated(kind: HarmonicKind | None, c: int, k0: int,
                      opts: EvalOptions) -> HighFloat:
    # Truncated side of every lemma: the two-sided sum over i >= 1, i != k0,
    # of f(i) / (i^c (k0 - i)), with f the prefix of kind (1 without one).
    # Direct to a cutoff past max(k0, 0), then minus the Euler-Maclaurin
    # tail of the series of f(x) x^{-c-1} (1 - k0/x)^{-1}.
    wp, table = _lemma_table(opts)
    with mp.workdps(wp):
        cutoff = max(2000, 50 * abs(k0))
        end = max(k0, 0) + cutoff
        stream = PrefixStream((kind,), wp) if kind else None
        f = mp.mpf(1)
        total = mp.mpf(0)
        for i in range(1, end + 1):
            if stream:
                stream.advance()
                f = stream.values()[0]
            if i != k0:
                total += f / (i ** c * (k0 - i))
        tail, _ = _em_tail(c + 1, lambda cap: _summand_series(
            (kind,) if kind else (), _power_series(c + 1, 1, k0, 1, cap), cap, table),
            cutoff, end, opts)
        total -= tail
    with mp.workdps(opts.digits):
        return +total


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
    opts = opts or EvalOptions()
    wp, table = _lemma_table(opts)
    sign = 1 if n % 2 == 1 else -1
    with mp.workdps(wp):
        ladder = mp.mpf(0)
        for i in range(1, k + 1):
            ladder += _harmonic_mpf(HarmonicKind.even(1), i - 1) * \
                mp.mpf(2 * i - 1) ** (-n)
        total = sign * (ladder + 2 * table.ln2 * _harmonic_mpf(HarmonicKind.odd(n), k))
        for t in range(2, n + 1):
            tsign = 1 if (n - t) % 2 == 0 else -1
            total += 2 * tsign * table.lam(t) * \
                _harmonic_mpf(HarmonicKind.odd(n + 1 - t), k)
        total /= k
    with mp.workdps(opts.digits):
        return +total


def lemma1_aux(k: int, opts: EvalOptions | None = None) -> tuple[HighFloat, HighFloat]:
    """(truncated, closed) for sum_i h(1, i) / (i (i + k))."""
    opts = opts or EvalOptions()
    # the shifted kernel is minus the two-sided one at k0 = -k
    with mp.workdps(opts.digits):
        truncated = -_kernel_truncated(HarmonicKind.odd(1), 1, -k, opts)
    return truncated, shifted_kernel_closed(1, k, opts)


def recip_kernel_closed(p: int, k: int, opts: EvalOptions | None = None) -> HighFloat:
    """Closed form of the two-sided sum_{i != k} 1/(i^p (k - i)), p >= 2."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    opts = opts or EvalOptions()
    wp, table = _lemma_table(opts)
    with mp.workdps(wp):
        kf = mp.mpf(k)
        total = _harmonic_mpf(HarmonicKind.even(1), k) * kf ** (-p)
        total -= (p + 1) * kf ** (-(p + 1))
        for j in range(1, p):
            total += table.zeta(p + 1 - j) * kf ** (-j)
    with mp.workdps(opts.digits):
        return +total


def lemma2_g(n: int, k: int, opts: EvalOptions | None = None) -> tuple[HighFloat, HighFloat]:
    """(truncated, closed) for the two-sided sum_{i != k} 1/(i^{2n} (k - i)).

    The closed side at (n, k) = (1, 1) is zeta(2) - 2 and at (1, 2) is
    zeta(2)/2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    opts = opts or EvalOptions()
    return (_kernel_truncated(None, 2 * n, k, opts),
            recip_kernel_closed(2 * n, k, opts))


def _cross_kernel_closed(m: int, k: int, opts: EvalOptions) -> HighFloat:
    # the shifted-kernel block enters with sign +1 for odd m, -1 for even m
    wp, table = _lemma_table(opts)
    with mp.workdps(wp):
        kf = mp.mpf(k)
        shifted = shifted_kernel_closed(m, k, EvalOptions(opts.digits + 15, opts.K,
                                                          opts.tail_terms))
        hm = _harmonic_mpf(HarmonicKind.odd(m), k)
        hm1 = _harmonic_mpf(HarmonicKind.odd(m + 1), k)
        sign = 1 if m % 2 == 1 else -1
        total = sign * shifted - 2 * m * hm1 / kf - hm / kf ** 2
        for i in range(1, m // 2 + 1):
            total += 4 * (1 - mp.mpf(4) ** (-i)) * table.zeta(2 * i) * \
                _harmonic_mpf(HarmonicKind.odd(m + 1 - 2 * i), k) / kf
    with mp.workdps(opts.digits):
        return +total


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
    opts = opts or EvalOptions()
    m = 2 * n - 1 if parity == "odd" else 2 * n
    return (_kernel_truncated(HarmonicKind.odd(m), 1, k, opts),
            _cross_kernel_closed(m, k, opts))


def lemma1_f(k: int, opts: EvalOptions | None = None) -> tuple[HighFloat, HighFloat]:
    """Order-1 cross sum; closed side at k = 1 is 2 ln 2 - 3."""
    return lemma3_f(1, "odd", k, opts)
