"""Exact polynomials in zeta values and ln 2.

Closed forms are carried as rational-coefficient sums of monomials
``ln2^a * zeta(n1)^e1 * ...``.  Arithmetic is exact end to end; numbers
only appear when an expression is evaluated against a ConstantsTable.

The text form follows a small grammar::

    expr    := ['-'] term (('+' | '-') term)*
    term    := coef | coef '*' factors | factors
    factors := factor ('*' factor)*
    factor  := symbol ('^' posint)?
    symbol  := 'z' int | 'ln2'
    coef    := int ('/' posint)?

so ``49/8*z3^2 - 945/128*z6`` and ``10*z2 - 24*ln2`` read back exactly.
A leading minus is accepted on parse even though formatting only emits
one when the leading coefficient is itself negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

import mpmath as mp

from .numerics import ConstantsTable, HighFloat, Rational, bernoulli


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (position {pos})"
        super().__init__(message)
        self.pos = pos


# ---- monomials ----------------------------------------------------------


@dataclass(frozen=True)
class ZetaMonomial:
    """One product ln2^a * zeta(n1)^e1 * ... with n ascending."""

    ln2_exp: int = 0
    zeta_exps: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.ln2_exp < 0:
            raise ValueError("negative ln2 exponent")
        seen = set()
        last = 0
        for n, e in self.zeta_exps:
            if n < 2:
                raise ValueError(f"zeta({n}) is not a valid factor")
            if e <= 0:
                raise ValueError("zeta exponents must be positive")
            if n <= last or n in seen:
                raise ValueError("zeta factors must be sorted and distinct")
            seen.add(n)
            last = n

    @staticmethod
    def one() -> "ZetaMonomial":
        return ZetaMonomial()

    @staticmethod
    def from_parts(ln2_exp: int, zeta_exps: dict[int, int]) -> "ZetaMonomial":
        items = tuple(sorted((n, e) for n, e in zeta_exps.items() if e))
        return ZetaMonomial(ln2_exp, items)

    @property
    def weight(self) -> int:
        return self.ln2_exp + sum(n * e for n, e in self.zeta_exps)

    def sort_key(self) -> tuple:
        # ln 2 sorts before every zeta factor; zetas by argument.
        expanded = [(0,)] * self.ln2_exp
        for n, e in self.zeta_exps:
            expanded.extend([(1, n)] * e)
        return tuple(expanded)

    def text(self) -> str:
        parts = []
        if self.ln2_exp:
            parts.append("ln2" if self.ln2_exp == 1 else f"ln2^{self.ln2_exp}")
        for n, e in self.zeta_exps:
            parts.append(f"z{n}" if e == 1 else f"z{n}^{e}")
        return "*".join(parts)


def _merge_monomials(a: ZetaMonomial, b: ZetaMonomial) -> ZetaMonomial:
    exps: dict[int, int] = dict(a.zeta_exps)
    for n, e in b.zeta_exps:
        exps[n] = exps.get(n, 0) + e
    return ZetaMonomial.from_parts(a.ln2_exp + b.ln2_exp, exps)


# ---- expressions --------------------------------------------------------


def _display_key(item: tuple[ZetaMonomial, Fraction]) -> tuple:
    mono = item[0]
    return (-mono.weight, mono.sort_key())


@dataclass(frozen=True)
class ZetaExpr:
    """Rational combination of monomials, stored in display order.

    Equality is structural, so two expressions compare equal exactly when
    they have identical terms; use canonicalize() first when even zeta
    arguments may differ only by the zeta(2)-power rewrite.
    """

    terms: tuple[tuple[ZetaMonomial, Fraction], ...] = ()

    @staticmethod
    def from_terms(items: Iterable[tuple[ZetaMonomial, Rational]]) -> "ZetaExpr":
        acc: dict[ZetaMonomial, Fraction] = {}
        for mono, coef in items:
            c = acc.get(mono, Fraction(0)) + Fraction(coef)
            if c:
                acc[mono] = c
            elif mono in acc:
                del acc[mono]
        return ZetaExpr(tuple(sorted(acc.items(), key=_display_key)))

    @staticmethod
    def zero() -> "ZetaExpr":
        return ZetaExpr()

    @staticmethod
    def const(value: Rational) -> "ZetaExpr":
        value = Fraction(value)
        if not value:
            return ZetaExpr()
        return ZetaExpr(((ZetaMonomial.one(), value),))

    @staticmethod
    def zeta(n: int, coef: Rational = 1) -> "ZetaExpr":
        return ZetaExpr.from_terms([(ZetaMonomial(0, ((n, 1),)), Fraction(coef))])

    @staticmethod
    def ln2(coef: Rational = 1) -> "ZetaExpr":
        return ZetaExpr.from_terms([(ZetaMonomial(1, ()), Fraction(coef))])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ZetaExpr") -> "ZetaExpr":
        return ZetaExpr.from_terms(list(self.terms) + list(other.terms))

    def __sub__(self, other: "ZetaExpr") -> "ZetaExpr":
        return self + (-other)

    def __neg__(self) -> "ZetaExpr":
        return ZetaExpr(tuple((m, -c) for m, c in self.terms))

    def scale(self, factor: Rational) -> "ZetaExpr":
        factor = Fraction(factor)
        if not factor:
            return ZetaExpr()
        return ZetaExpr(tuple((m, c * factor) for m, c in self.terms))

    def __mul__(self, other: "ZetaExpr") -> "ZetaExpr":
        out = []
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                out.append((_merge_monomials(ma, mb), ca * cb))
        return ZetaExpr.from_terms(out)

    def pow_int(self, e: int) -> "ZetaExpr":
        if e < 0:
            raise ValueError("negative powers are not representable")
        result = ZetaExpr.const(1)
        for _ in range(e):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"ZetaExpr({format_expr(self)!r})"


def combine(coeffs: Sequence[Rational], exprs: Sequence[ZetaExpr]) -> ZetaExpr:
    """Exact linear combination sum(c_i * e_i)."""
    if len(coeffs) != len(exprs):
        raise ValueError("coefficient and expression counts differ")
    total = ZetaExpr.zero()
    for c, e in zip(coeffs, exprs):
        total = total + e.scale(c)
    return total


def multiply(a: ZetaExpr, b: ZetaExpr) -> ZetaExpr:
    return a * b


def even_zeta_ratio(m: int) -> Fraction:
    """Exact zeta(2m) / zeta(2)^m.

    >>> even_zeta_ratio(2)
    Fraction(2, 5)
    >>> even_zeta_ratio(3)
    Fraction(8, 35)
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    sign = 1 if m % 2 == 1 else -1
    return Fraction(sign * bernoulli(2 * m) * Fraction(24) ** m, 2 * factorial(2 * m))


def canonicalize(expr: ZetaExpr) -> ZetaExpr:
    """Rewrite every even zeta(2m), m >= 2, as a rational times zeta(2)^m.

    Idempotent and evaluation-preserving; after it, structural equality is
    a sound test for equality of closed forms within this algebra.
    """
    out = []
    for mono, coef in expr.terms:
        z2 = 0
        rest: dict[int, int] = {}
        c = coef
        for n, e in mono.zeta_exps:
            if n == 2:
                z2 += e
            elif n % 2 == 0:
                m = n // 2
                c *= even_zeta_ratio(m) ** e
                z2 += m * e
            else:
                rest[n] = rest.get(n, 0) + e
        if z2:
            rest[2] = rest.get(2, 0) + z2
        out.append((ZetaMonomial.from_parts(mono.ln2_exp, rest), c))
    return ZetaExpr.from_terms(out)


def evaluate(expr: ZetaExpr, table: ConstantsTable) -> HighFloat:
    """Numeric value at the table's precision."""
    with mp.workdps(table.digits + 5):
        total = mp.mpf(0)
        for mono, coef in expr.terms:
            v = mp.mpf(coef.numerator) / coef.denominator
            if mono.ln2_exp:
                v *= table.ln2 ** mono.ln2_exp
            for n, e in mono.zeta_exps:
                v *= table.zeta(n) ** e
            total += v
    with mp.workdps(table.digits):
        return +total


# ---- text form ----------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "z":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExprSyntaxError("expected digits after 'z'", i)
            toks.append(("zeta", int(text[i + 1 : j]), i))
            i = j
            continue
        if text.startswith("ln2", i):
            toks.append(("ln2", None, i))
            i += 3
            continue
        if ch in "+-*/^":
            toks.append((ch, None, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse_expr(self) -> ZetaExpr:
        terms = []
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        while True:
            coef, mono = self.parse_term()
            terms.append((mono, sign * coef))
            kind, _, pos = self.peek()
            if kind == "end":
                break
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                raise ExprSyntaxError("expected '+' or '-' between terms", pos)
            self.take()
        return ZetaExpr.from_terms(terms)

    def parse_term(self) -> tuple[Fraction, ZetaMonomial]:
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            coef = Fraction(value)
            if self.peek()[0] == "/":
                self.take()
                dkind, dval, dpos = self.take()
                if dkind != "int" or dval == 0:
                    raise ExprSyntaxError("expected positive integer denominator", dpos)
                coef /= dval
            if self.peek()[0] == "*":
                self.take()
                return coef, self.parse_factors()
            return coef, ZetaMonomial.one()
        if kind in ("zeta", "ln2"):
            return Fraction(1), self.parse_factors()
        raise ExprSyntaxError("expected a coefficient or symbol", pos)

    def parse_factors(self) -> ZetaMonomial:
        mono = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            if self.peek()[0] not in ("zeta", "ln2"):
                kind, _, pos = self.peek()
                raise ExprSyntaxError("expected symbol after '*'", pos)
            mono = _merge_monomials(mono, self.parse_factor())
        return mono

    def parse_factor(self) -> ZetaMonomial:
        kind, value, pos = self.take()
        if kind == "zeta":
            if value == 1:
                raise ExprSyntaxError("zeta(1) divergent", pos)
            if value < 1:
                raise ExprSyntaxError(f"zeta({value}) is not a valid symbol", pos)
            base = ZetaMonomial(0, ((value, 1),))
        elif kind == "ln2":
            base = ZetaMonomial(1, ())
        else:
            raise ExprSyntaxError("expected 'z<n>' or 'ln2'", pos)
        if self.peek()[0] == "^":
            self.take()
            ekind, evalue, epos = self.take()
            if ekind != "int" or evalue <= 0:
                raise ExprSyntaxError("expected positive integer exponent", epos)
            if kind == "zeta":
                base = ZetaMonomial(0, ((value, evalue),))
            else:
                base = ZetaMonomial(evalue, ())
        return base


def parse_expr(text: str) -> ZetaExpr:
    """Parse the text form; raises ExprSyntaxError with a position."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(_tokenize(text)).parse_expr()


def format_terms(terms) -> str:
    """Join (coefficient, body) pairs as signed "magnitude*body" terms; a
    unit magnitude is left out, an empty body shows it alone."""
    pieces = []
    for coef, body in terms:
        mag = -coef if coef < 0 else coef
        if not body:
            rendered = str(mag)
        elif mag == 1:
            rendered = body
        else:
            rendered = f"{mag}*{body}"
        if not pieces:
            pieces.append(f"-{rendered}" if coef < 0 else rendered)
        else:
            pieces.append(f" - {rendered}" if coef < 0 else f" + {rendered}")
    return "".join(pieces) if pieces else "0"


def format_expr(expr: ZetaExpr) -> str:
    """Render with terms in descending weight, ties in symbol order.

    parse_expr(format_expr(e)) == e for every expression, and formatting
    a parsed catalog string reproduces term content exactly (order is
    normalized to the display order).
    """
    return format_terms((coef, mono.text()) for mono, coef in expr.terms)
