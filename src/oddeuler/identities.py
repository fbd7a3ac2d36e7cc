"""Identity catalog, verifier, reduction engine, and coefficient fitting.

The catalog ships as a line-delimited data file: one record per identity
with a stable id, a left side (a sum spec, or a bracketed linear
combination of sum specs for the handful of combined identities), a
closed form, a source tag, and an expectation marker.  Entries marked
``must_pass`` are the ones the verifier must confirm; entries marked
``adjudicate`` are transcribed claims whose truth the toolkit judges
rather than assumes, and several of them fail by design.

Reductions replay derivation steps in exact rational arithmetic: a rule
emits a formal combination of catalogued base sums, which can be
evaluated numerically or collapsed symbolically via substitute_bases.
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
import json
import math
import os
from fractions import Fraction

from .highfloat import HighFloat, dps_to_prec, parse_real
from .numerics import record
from .summation import (DEFAULT_OPTS, EvalOptions, EvalResult, SumSpec, err_floor,
                        evaluate_sum, parse_sumspec, read_sumspec, sum_specs)
from .zeta_algebra import (ZetaExpr, ZetaMonomial, canonicalize, evaluate, expect,
                           format_terms, parse_expr, parse_terms, read_posint, take,
                           tokenize)

_EXPECTED = ("must_pass", "adjudicate")
# verify's pass/fail residual threshold, as text
DEFAULT_TOLERANCE = "1e-11"

# Reference decimal anchors shipped alongside the catalog (transcribed
# values the sums are reported to equal; the verifier treats them as
# claims, not as truth).
REFERENCE_ANCHORS = {
    "s1": "1.3394093155989435",
    "s2": "1.0567810227967086",
    "T1_2_2": "1.01413007995319209",
    "T1_3_4": "1.08556003490415209",
    "T1_3_6": "1.01800033232122239",
    "T1_4_5": "1.0373935033868233",
}


# ---- formal combinations --------------------------------------------------


@record
class FormalCombination:
    """constant + sum of coef * (sum value)^power over base SumSpecs."""

    parts: tuple[tuple[ZetaExpr, SumSpec, int], ...]
    constant: ZetaExpr = ZetaExpr()

    def text(self) -> str:
        terms = [(c, mono.text()) for mono, c in self.constant.terms]
        for coef, spec, power in self.parts:
            if len(coef.terms) != 1:
                raise ValueError("part coefficients must be single terms")
            mono, c = coef.terms[0]
            body = f"[{spec.text()}]" if power == 1 else f"[{spec.text()}]^{power}"
            if mono.text():
                body = f"{mono.text()}*{body}"
            terms.append((c, body))
        return format_terms(terms)


def _read_bracket(toks: list) -> tuple[SumSpec, int]:
    # '[' spec ']' ['^' posint]: the sum factor of one combination term
    toks.pop(0)
    spec = read_sumspec(toks)
    expect(toks, "]", "']' after the sum spec")
    return spec, read_posint(toks, "exponent") if take(toks, "^") else 1


def parse_combination(text: str) -> FormalCombination:
    """Parse the bracketed combination grammar used for combined entries.

    Example: ``1/4*[h1/k^4] - 1/2*z2*[1/k^3] + 1/2*[h2/k^3]``.
    """
    parts, constant = [], []
    for coef, mono, bracket in parse_terms(tokenize(text), _read_bracket):
        if bracket:
            parts.append((ZetaExpr.from_terms([(mono, coef)]), *bracket))
        else:
            constant.append((mono, coef))
    return FormalCombination(tuple(parts), ZetaExpr.from_terms(constant))


def evaluate_combination(comb: FormalCombination,
                         opts: EvalOptions = DEFAULT_OPTS) -> EvalResult:
    """Numeric value of a formal combination, with propagated error."""
    wp = opts.digits + 10  # every step rounds here, the results at digits
    total, err = evaluate(comb.constant.terms, wp), HighFloat()
    for coef, spec, power in comb.parts:
        r = evaluate_sum(spec, opts)
        cval = evaluate(coef.terms, wp)
        total = (total + (cval * r.value.pow(power, wp)).round(wp)).round(wp)
        term = ((abs(cval) * power).round(wp) * abs(r.value).pow(power - 1, wp)).round(wp)
        err = (err + (term * r.err_estimate).round(wp)).round(wp)
    err = max(err, err_floor(opts.digits))
    return EvalResult(total.round(opts.digits), err.round(opts.digits), opts.K, opts.digits)


# ---- catalog ---------------------------------------------------------------


@record
class Identity:
    id: str
    lhs: SumSpec | FormalCombination
    rhs: ZetaExpr
    source: str
    expected: str

    def __post_init__(self):
        if self.expected not in _EXPECTED:
            raise ValueError(f"expected must be one of {_EXPECTED}")


_FIELDS = ("id", "lhs", "rhs", "source", "expected")


@functools.lru_cache(maxsize=1024)  # entries are frozen: parse each line once
def _parse_entry(line: str) -> Identity:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:  # json's line is always 1; catalog() names the file's
        raise ValueError(f"{exc.msg} (column {exc.colno})") from None
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object with string fields {', '.join(_FIELDS)}")
    for name in _FIELDS:
        if name not in rec:
            raise ValueError(f"missing field {name!r}")
        if not isinstance(rec[name], str):
            raise ValueError(f"field {name!r} must be a string, got {rec[name]!r}")
    lhs_text = rec["lhs"]
    lhs = parse_combination(lhs_text) if "[" in lhs_text else parse_sumspec(lhs_text)
    return Identity(rec["id"], lhs, parse_expr(rec["rhs"]), rec["source"],
                    rec["expected"])


# read with open() next to this file: importlib.resources would import
# pathlib and tempfile on every start-up
_SHIPPED = os.path.join(os.path.dirname(__file__), "data", "catalog.jsonl")


def catalog(extra_paths: tuple[str, ...] = ()) -> list[Identity]:
    """The shipped catalog plus any supplementary files, in file order.

    A line that does not parse raises ValueError naming its path and line."""
    entries: list[Identity] = []
    lines: list[tuple[str, int, str]] = []
    for path in (_SHIPPED, *extra_paths):
        with open(path, encoding="utf-8") as fh:
            lines += [(path, n, ln) for n, ln in enumerate(fh.read().splitlines(), 1)
                      if ln.strip()]
    seen = set()
    for path, lineno, ln in lines:
        try:
            entry = _parse_entry(ln)
            if entry.id in seen:
                raise ValueError(f"duplicate catalog id {entry.id!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        seen.add(entry.id)
        entries.append(entry)
    return entries


def catalog_by_id(extra_paths: tuple[str, ...] = ()) -> dict[str, Identity]:
    return {e.id: e for e in catalog(extra_paths)}


# ---- verification ----------------------------------------------------------


@record
class VerificationReport:
    id: str
    lhs_value: HighFloat
    rhs_value: HighFloat
    residual: HighFloat
    tolerance: HighFloat
    verdict: str
    digits: int
    K: int
    err_estimate: HighFloat  # the lhs evaluation's own error estimate


def read_tolerance(text, digits: int) -> HighFloat:
    """The tolerance typed as text, read at digits + 10; ValueError
    unless it is a positive finite number."""
    try:
        tol = parse_real(str(text), digits + 10)
    except (ValueError, ZeroDivisionError):  # inf, nan, p/0 or not a number
        tol = None
    if tol is None or not tol > 0:
        raise ValueError(f"tolerance must be a positive finite number, got {text}")
    return tol


def verify(identity: Identity | str, opts: EvalOptions = DEFAULT_OPTS,
           tolerance=DEFAULT_TOLERANCE) -> VerificationReport:
    """Evaluate both sides and compare; verdict pass iff residual <= tolerance.

    tolerance is the text of a number, read once by read_tolerance.
    """
    if isinstance(identity, str):
        try:
            identity = catalog_by_id()[identity]
        except KeyError:
            raise KeyError(f"no catalog entry with id {identity!r}") from None
    digits, wp = opts.digits, opts.digits + 10
    tol = read_tolerance(tolerance, digits)
    try:
        evaluate_lhs = (evaluate_sum if isinstance(identity.lhs, SumSpec)
                        else evaluate_combination)
        lhs_result = evaluate_lhs(identity.lhs, opts)
        lhs, rhs = lhs_result.value, evaluate(identity.rhs.terms, wp)
        residual = abs(lhs - rhs).round(wp)
        verdict = "pass" if residual <= tol else "fail"
        return VerificationReport(identity.id, lhs.round(digits), rhs.round(digits),
                                  residual.round(digits), tol.round(digits), verdict, digits,
                                  opts.K, lhs_result.err_estimate.round(digits))
    except (ValueError, ArithmeticError) as exc:
        raise RuntimeError(f"{identity.id}: {exc}") from exc


def select(entries: list[Identity], ids=(), family: str | None = None) -> list[Identity]:
    """The entries named in ids (all when empty) whose id matches the glob
    family; KeyError names unknown ids in the order given."""
    if ids:
        known = {e.id for e in entries}
        missing = [i for i in ids if i not in known]
        if missing:
            raise KeyError(f"unknown identity ids: {missing}")
        wanted = set(ids)
        entries = [e for e in entries if e.id in wanted]
    if family:
        entries = [e for e in entries if fnmatch.fnmatchcase(e.id, family)]
        if not entries:
            raise KeyError(f"no identities match family {family!r}")
    return entries


def verify_all(opts: EvalOptions = DEFAULT_OPTS, tolerance=DEFAULT_TOLERANCE,
               entries: list[Identity] | None = None) -> list[VerificationReport]:
    """Verify the entries (the catalog when None), reports sorted by id;
    their sums are summed together first, so each verify reads them from
    the memo."""
    entries = catalog() if entries is None else entries
    sum_specs([spec for e in entries for spec in
               ([e.lhs] if isinstance(e.lhs, SumSpec) else [p[1] for p in e.lhs.parts])],
              opts)
    reports = [verify(e, opts, tolerance) for e in entries]
    return sorted(reports, key=lambda r: r.id)


def summarize(reports: list[VerificationReport],
              entries: list[Identity] | None = None) -> dict:
    """Pass/fail counts plus the list of must_pass failures."""
    expected = {e.id: e.expected for e in (entries if entries is not None
                                           else catalog())}
    passed = sum(1 for r in reports if r.verdict == "pass")
    hard_failures = [r.id for r in reports
                     if r.verdict == "fail" and expected.get(r.id) == "must_pass"]
    return {"total": len(reports), "pass": passed, "fail": len(reports) - passed,
            "must_pass_failures": hard_failures}


# ---- reduction rules -------------------------------------------------------


# rule id -> (combination, target)
_FIXED_RULES = {
    "T1_3_4": ("3/4*z2*[h1/k^4] + 1/2*z2*[h2/k^3] - 5/4*[h2/k^5]", "h3/k^4"),
    "T1_3_6": ("3/4*z2*[h1/k^6] + 1/2*z4*[h2/k^3] + 1/2*z2*[h2/k^5] + 7/2*[h2/k^7]",
               "h3/k^6"),
    "T1_4_5": ("1/3*z4*[h3/k^2] + 1/2*z2*[h2/k^5] + 1/3*z2*[h3/k^4] - [h3/k^6]",
               "h4/k^5"),
    "T5": ("11/2*z5 - 2*z2*z3 - [h3/(2k-1)^2] - 1/8*[H3/(2k-1)^2] - 1/32*[H3/k^2]"
           " + 1/8*[1/(k^3*(2k-1)^2)]", "h3/k^2"),
    "s1_pair": ("1/2*[h1/k^2]^2 - 3/2*[h1/k^4]", "h1*h2/k^3"),
}


def _rule(rule: str, m: int | None) -> tuple[str, str]:
    """The texts of a rule's combination and of its target sum: the
    parametric T1_2 needs m in 1..6, a fixed rule takes none."""
    if rule == "T1_2":
        if m is None:
            raise ValueError("T1_2 rule needs the parameter m")
        if not 1 <= m <= 6:
            raise ValueError(f"T1_2 rule supports m in 1..6, got {m}")
        terms = " + ".join(f"z{2 * j}*[h1/k^{2 * m + 2 - 2 * j}]" for j in range(1, m + 1))
        return f"{terms} - {m + 1}*[h1/k^{2 * m + 2}]", f"h2/k^{2 * m + 1}"
    if rule not in _FIXED_RULES:
        raise KeyError(f"unknown reduction rule {rule!r}")
    if m is not None:
        raise ValueError(f"rule {rule!r} takes no parameter")
    return _FIXED_RULES[rule]


def reduce(rule: str, m: int | None = None, opts: EvalOptions = DEFAULT_OPTS,
           tolerance=DEFAULT_TOLERANCE) -> FormalCombination:
    """Emit a rule's combination of catalogued base sums.

    The parametric T1_2 family generalizes beyond its first two printed
    instances; emissions with m >= 3 are numerically verified against
    the target sum, within tolerance (the text of a number, read by
    read_tolerance), before being returned.  Fixed-instance rules return
    exactly the transcribed combination, verified or not: three of them
    are adjudication subjects that do NOT equal their nominal target.
    """
    text, target = _rule(rule, m)
    comb = parse_combination(text)
    if rule == "T1_2" and m >= 3:
        got = evaluate_combination(comb, opts).value
        want = evaluate_sum(parse_sumspec(target), opts).value
        if abs(got - want) > read_tolerance(tolerance, opts.digits):
            raise ArithmeticError(f"T1_2 emission at m={m} failed numeric verification")
    return comb


def substitute_bases(comb: FormalCombination,
                     entries: list[Identity] | None = None) -> ZetaExpr:
    """Collapse a combination using must_pass catalog closed forms, exactly.

    Purely symbolic: each referenced sum is replaced by its catalogued
    expression, powers and coefficients multiplied out, and the result
    canonicalized.  A referenced sum with no must_pass entry is an error.
    """
    entries = catalog() if entries is None else entries
    closed: dict[SumSpec, ZetaExpr] = {}
    for e in entries:
        if e.expected == "must_pass" and isinstance(e.lhs, SumSpec):
            closed.setdefault(e.lhs, e.rhs)
    total = comb.constant
    for coef, spec, power in comb.parts:
        if spec not in closed:
            raise ValueError(f"no must_pass closed form catalogued for "
                             f"{spec.text()!r}")
        total = total + coef * closed[spec].pow_int(power)
    return canonicalize(total)


# ---- coefficient fitting ---------------------------------------------------


def _fit_basis(weight: int, include_ln2: bool) -> list:
    # the weight-w monomials, sorted: each multiset of odd zetas whose rest
    # is even, times zeta(2)^(rest/2); with ln 2, the lower weights' single
    # zetas (even ones as powers of zeta(2)) and ln 2 follow
    basis = sorted((ZetaMonomial.from_parts({**{n: odds.count(n) for n in odds},
                                             2: (weight - sum(odds)) // 2})
                    for r in range(weight // 3 + 1)
                    for odds in itertools.combinations_with_replacement(range(3, weight + 1, 2), r)
                    if sum(odds) <= weight and (weight - sum(odds)) % 2 == 0),
                   key=lambda mo: (-mo.weight, mo.sort_key()))
    if include_ln2:
        basis += [ZetaMonomial.from_parts({2: j // 2} if j % 2 == 0 else {j: 1})
                  for j in range(2, weight)] + [ZetaMonomial.from_parts({1: 1})]
    return list(dict.fromkeys(basis))


def _giant_steps(start: int, target: int) -> list[int]:
    # precisions [start, ..., target/4, target/2, target], each step just
    # under double the last
    steps = [target]
    while steps[-1] > 2 * start:
        steps.append(steps[-1] // 2 + 2)
    return steps[::-1]


def isqrt_fast(x: int) -> int:
    """mpmath 1.3.0's isqrt_fast (its python backend), whose floor(sqrt(x))
    may be one unit low: below 2^800 a float root and up to three Newton
    steps, above it a division-free Newton iteration for 1/sqrt(x) with 10
    guard bits.  It is not math.isqrt, which PSLQ's steps would not match."""
    if x < 1 << 800:
        y = int(x ** 0.5)
        if x >= 1 << 100:
            y = (y + x // y) >> 1
            if x >= 1 << 200:
                y = (y + x // y) >> 1
                if x >= 1 << 400:
                    y = (y + x // y) >> 1
        return y
    guard = 10
    x <<= 2 * guard
    bc = x.bit_length()
    bc += bc & 1
    half = bc // 2
    start = min(50, half)
    r = int(2.0 ** (2 * start) * (x >> (bc - 2 * start)) ** -0.5)
    prev = start
    for p in _giant_steps(start, half):
        r2 = (r * r) >> (2 * prev - p)  # r^2 at scale 2^p
        xr2 = ((x >> (bc - p)) * r2) >> p  # x r^2, near 1, at scale 2^p
        r = (r * ((3 << p) - xr2)) >> (prev + 1)
        prev = p
    return (r * (x >> half)) >> (p + guard)


def sqrt_fixed(x: int, prec: int) -> int:
    """The fixed-point square root of x 2^-prec, at scale 2^prec."""
    return isqrt_fast(x << prec)


def _first_largest(gs: list[int], est: list[float], H: list[list[int]], prec: int) -> int:
    """The first i with the largest gs[i] |H_ii| >> prec*i: PSLQ's row to swap.
    est[i] is its float log2, or -inf at H_ii = 0, good to far below 2^-16:
    once the largest is past 2^64, a row more than 2^-16 under it is smaller
    by more than 1, and so is its floor.  So only the rows within 2^-16 of
    the top are multiplied out, and every row when the top is below 2^64,
    where floors may tie."""
    top = max(est)
    cut = top - 2 ** -16 if top > 64 else -math.inf
    rows = [i for i, v in enumerate(est) if v >= cut]
    return rows[0] if len(rows) == 1 else max(rows, key=lambda i: gs[i] * abs(H[i][i]) >> prec * i)


def _pslq(x: list, prec: int, tol=None, maxcoeff: int = 1000,
          maxsteps: int = 100) -> list[int] | None:
    """mpmath 1.3.0's ``pslq`` at a working precision of prec bits: the same
    fixed-point integer operations in the same order on every value that is
    read, so the same result bit for bit.  The entries of x and tol are
    HighFloats or values of mpmath, each rounded to prec bits first as
    mpmath rounds it; maxcoeff is a positive int.  H is a list of rows
    without its always-zero last column, B is kept transposed, mpmath's A,
    never read, is dropped, and the roots are sqrt_fixed, looked up at each
    call.  It skips work whose result it knows:
    - t = round(H_ij/H_jj) is a multiple of 2^prec, so y, H and B (in units
      of 2^-prec) change in place by (t >> prec)*v, and not at all at t = 0.
      At 2|H_ij| < |H_jj| the quotient is in (-1/2, 1/2): t = 0, no division.
    - est, the row choice's log2 estimates, is refreshed only at m and m + 1:
      the swap and rotation change the columns m and m + 1, and a reduction
      of row i writes only left of H_ii.
    - mpmath stops at ((2^(2 prec) // R) >> prec) // 100 >= maxcoeff, R the
      largest |H_ij|; the floors nest to floor(2^prec / (100 R)), so that
      holds exactly at R <= small = 2^prec // (100 maxcoeff).
    """
    n = len(x)
    if n < 2:
        raise ValueError("n cannot be less than 2")
    if prec < 53:
        raise ValueError("prec cannot be less than 53")
    tol = HighFloat(1, -int(prec * 0.75)) if tol is None else HighFloat.of(tol)
    x = [HighFloat.of(xk).round_bits(prec) for xk in x]
    prec += 60
    tol = tol.fixed(prec)
    if not tol:  # mpmath asserts this
        raise ValueError("tol is below the fixed-point resolution")
    x = [xk.fixed(prec) for xk in x]
    minx = min(map(abs, x))
    if not minx:
        raise ValueError("PSLQ requires a vector of nonzero numbers")
    if minx < tol // 100:
        return None
    g = sqrt_fixed((4 << prec) // 3, prec)
    gs = [g ** i for i in range(1, n)]
    half, small = 1 << (prec - 1), (1 << prec) // (100 * maxcoeff)
    sq = [xk ** 2 >> prec for xk in x]
    s = [sqrt_fixed(sum(sq[k:]), prec) for k in range(n)]
    y = [(xk << prec) // s[0] for xk in x]
    s = [(sk << prec) // s[0] for sk in s]
    H = []
    for i in range(n):
        row = [((-y[i] * y[j]) << prec) // (s[j] * s[j + 1]) if s[j] * s[j + 1] else 0
               for j in range(i)]
        if i < n - 1:
            row.append((s[i + 1] << prec) // s[i] if s[i] else 0)
        H.append(row + [0] * (n - 2 - i))
    B = [[int(i == j) for j in range(n)] for i in range(n)]

    def estimate(i):
        h = H[i][i]
        return math.log2(gs[i]) - prec * i + math.log2(abs(h)) if h else -math.inf

    def reduce_row(i, top, stop):
        Hi, Bi = H[i], B[i]
        for j in range(top, -1, -1):
            Hj, Bj = H[j], B[j]
            if not Hj[j]:
                if stop:
                    return
                continue
            if 2 * abs(Hi[j]) < abs(Hj[j]):
                continue
            t = ((Hi[j] << prec) // Hj[j] + half) >> prec
            if t:
                y[j] += t * y[i]
                for k in range(j + 1):
                    Hi[k] -= t * Hj[k]
                for k in range(n):
                    Bj[k] += t * Bi[k]

    for i in range(1, n):
        reduce_row(i, i - 1, False)
    est = [estimate(i) for i in range(n - 1)]
    for _ in range(maxsteps):
        # swap the rows m, m + 1 at the first largest g^(i+1) |H_ii|
        m = _first_largest(gs, est, H, prec)
        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        B[m], B[m + 1] = B[m + 1], B[m]
        if m <= n - 3:
            a, b = H[m][m], H[m][m + 1]
            t0 = sqrt_fixed((a * a + b * b) >> prec, prec)
            if not t0:  # precision exhausted
                break
            t1, t2 = (a << prec) // t0, (b << prec) // t0
            for row in H[m:]:
                t3, t4 = row[m], row[m + 1]
                row[m], row[m + 1] = (t1 * t3 + t2 * t4) >> prec, (-t2 * t3 + t1 * t4) >> prec
        for i in range(m, min(m + 2, n - 1)):
            est[i] = estimate(i)
        for i in range(m + 1, n):
            reduce_row(i, min(i - 1, m + 1), True)
        for yi, Bi in zip(y, B):
            if -tol < yi < tol and max(map(abs, Bi)) < maxcoeff:
                return Bi
        # stop once mpmath's lower bound on a relation's norm reaches maxcoeff
        if not any(abs(h) > small for row in H for h in row):
            break
    return None


def fit_value(value: HighFloat, weight: int, include_ln2: bool = False,
              max_den: int = 256, digits: int = 40) -> ZetaExpr | None:
    """Rational-coefficient fit of a numeric value over a monomial basis.

    Finds an integer relation between the value and the basis monomials,
    turns it into rational coefficients, and keeps the result only if
    every denominator stays within max_den and a higher-precision
    re-evaluation agrees to 10^(10 - digits).  Returns None when no such
    expression exists.
    """
    basis = _fit_basis(weight, include_ln2)
    if not basis:
        raise ValueError(f"empty fitting basis at weight {weight}")
    vec = [value] + [evaluate([(mono, 1)], digits) for mono in basis]
    rel = _pslq(vec, dps_to_prec(digits), maxcoeff=10 ** 14, maxsteps=20000)
    if not rel or rel[0] == 0:
        return None
    coeffs = [Fraction(-c, rel[0]) for c in rel[1:]]
    if all(c == 0 for c in coeffs):
        return None
    if any(c.denominator > max_den for c in coeffs):
        return None
    expr = ZetaExpr.from_terms(
        [(mono, c) for mono, c in zip(basis, coeffs) if c])
    check_digits = 2 * digits
    again = evaluate(expr.terms, check_digits)
    if abs(again - value).round(check_digits) > HighFloat(10).pow(10 - digits, check_digits):
        return None
    return expr


def fit_closed_form(spec: SumSpec, weight: int, include_ln2: bool = False,
                    max_den: int = 256,
                    opts: EvalOptions = DEFAULT_OPTS) -> ZetaExpr | None:
    """Evaluate the sum, then fit its value; None when nothing matches."""
    value = evaluate_sum(spec, opts).value
    return fit_value(value, weight, include_ln2, max_den, opts.digits)


# ---- adjudication findings -------------------------------------------------


def finite_rearrangement_check(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact check of a transcribed finite rearrangement identity.

    Returns (lhs, rhs, rhs - lhs) as exact rationals for

        lhs = sum_{i<k} h_i / (k - i)
        rhs = H_k h_k - sum_{i<=k} h_i / i + h2_k + h_k^2

    As transcribed the two sides are NOT equal: the deficit rhs - lhs
    equals 2 h2_k exactly for every k checked (2..50 in the tests), so
    the identity fails by exactly twice the order-2 odd prefix.
    """
    from .harmonic import HarmonicKind, harmonic_exact
    if k < 2:
        raise ValueError("need k >= 2")
    h1 = HarmonicKind.odd(1)
    lhs = sum((harmonic_exact(h1, i) / (k - i) for i in range(1, k)),
              Fraction(0))
    rhs = harmonic_exact(HarmonicKind.even(1), k) * harmonic_exact(h1, k) \
        - sum((harmonic_exact(h1, i) / Fraction(i) for i in range(1, k + 1)),
              Fraction(0)) \
        + harmonic_exact(HarmonicKind.odd(2), k) + harmonic_exact(h1, k) ** 2
    return lhs, rhs, rhs - lhs


def adjudication_findings(reports: list[VerificationReport],
                          opts: EvalOptions = DEFAULT_OPTS) -> list[str]:
    """Human-readable notes for the adjudicated entries present in reports.

    Derived from already-computed reports plus exact algebra only, so
    this never re-evaluates a sum.
    """
    digits = opts.digits
    by_id = {r.id: r for r in reports}
    notes = []

    def fmt(x, n=20):
        # n digits of x rounded at the run's digits
        return x.round(digits).text(n)

    r41 = by_id.get("T1_2_2_eq41")
    rtrue = by_id.get("T1_2_2")
    if r41 is not None:
        anchor = parse_real(REFERENCE_ANCHORS["T1_2_2"], digits)
        red = substitute_bases(reduce("T1_2", 2))
        red_val = evaluate(red.terms, digits)
        engine = r41.lhs_value
        notes.append(
            "finding T1_2_2_eq41: engine value "
            f"{fmt(engine)} vs transcribed closed form "
            f"{fmt(r41.rhs_value)} (residual {fmt(r41.residual, 8)}); "
            f"printed reference anchor {REFERENCE_ANCHORS['T1_2_2']} differs from the "
            f"engine by {fmt(abs(engine - anchor), 8)}; the T1_2 reduction at m=2 "
            f"gives {fmt(red_val)} agreeing with the engine to "
            f"{fmt(abs(engine - red_val), 8)}. The transcribed form, the "
            "printed anchor, and the reduction are mutually inconsistent; "
            "the reduction self-validates and is the reference.")
        if rtrue is not None and rtrue.verdict == "pass":
            notes.append(
                "finding T1_2_2: the fitted closed form in entry T1_2_2 "
                "matches both the engine and the reduction; entry "
                "T1_2_2_eq41 preserves the transcribed variant.")
    r38 = by_id.get("eq38_intermediate")
    if r38 is not None:
        notes.append(
            "finding eq38_intermediate: the squared-pair combination gives "
            f"{fmt(r38.rhs_value)} against the engine value {fmt(r38.lhs_value)} "
            f"(residual {fmt(r38.residual, 8)}); inconsistent as transcribed "
            "with the must_pass entry s1 for the same sum.")
    r87 = by_id.get("T1_3_6_eq87")
    if r87 is not None:
        notes.append(
            "finding T1_3_6_eq87: the transcribed reduction evaluates to "
            f"{fmt(r87.rhs_value)} against the engine value {fmt(r87.lhs_value)} "
            f"(residual {fmt(r87.residual, 8)}); the fitted closed form in "
            "entry T1_3_6 is the reference.")
    r81 = by_id.get("T5_1_eq81")
    if r81 is not None:
        notes.append(
            "finding T5_1_eq81: the transcribed combination gives exactly one "
            "quarter of the sum (residual "
            f"{fmt(r81.residual, 8)} = three quarters of the value); entry "
            "T5_1 carries the consistent closed form.")
    if "s2" in by_id:
        gap = abs(by_id["s2"].lhs_value - parse_real(REFERENCE_ANCHORS["s2"], digits))
        if gap.round(digits) > HighFloat(10).pow(-12, digits):
            notes.append(
                "finding s2 anchor: the printed reference decimal "
                f"{REFERENCE_ANCHORS['s2']} differs from the engine by "
                f"{fmt(gap, 8)} (a dropped digit); the closed form itself "
                "verifies, so entry s2 stays must_pass.")
    return notes
