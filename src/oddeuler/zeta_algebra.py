"""Exact polynomials in zeta values and ln 2.

Closed forms are carried as rational-coefficient sums of monomials
``ln2^a * zeta(n1)^e1 * ...``, each a tuple of letters: 1 for ln 2, n for
zeta(n).  Arithmetic is exact end to end; numbers only appear when an
expression is evaluated at a digit count.

One tokenizer and one term reader serve three text forms: closed forms,
sum specs (summation.parse_sumspec) and bracketed combinations of sums
(identities.parse_combination).  Whitespace between tokens is ignored::

    terms  := ['-'] term (('+' | '-') term)*
    term   := coef | [coef '*'] factor ('*' factor)* ['*' sum] | [coef '*'] sum
    coef   := int ['/' posint]
    factor := ('z' int | 'ln2') ['^' posint]
    sum    := '[' spec ']' ['^' posint]          (combinations only)
    spec   := ('1' | harm ('*' harm)*) '/' (den | '(' den ')')
    den    := ('k' | '(2k-1)') ['^' int] ['*' den]      (each at most once)
    harm   := ('h' | 'H') int

Zeta indices, harmonic orders and the two denominator powers together
are each at most MAX_POWER.  A closed form is terms without a sum, so
``49/8*z3^2 - 945/128*z6`` and ``10*z2 - 24*ln2`` read back exactly; a
combination has at most one sum per term, last, as in
``1/2*[h1/k^2]^2 - 3/2*[h1/k^4]``.  A leading minus is accepted on parse
even though formatting only emits one when the leading coefficient is
itself negative.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import factorial

from .highfloat import HighFloat
from .numerics import Rational, _require_digits, bernoulli, constant, record


# largest zeta index, harmonic order and k plus (2k-1) power that text may
# ask for: the Euler-Maclaurin constant of zeta(n) diverges from n near 650
# at 20 digits (an order's value series needs its zeta as well), and a
# sum's head takes i^power for every i, about 2.5 s at power 100 and
# K = 10^6, and 8 s at power 1000 already at 10^5
MAX_POWER = 100


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (position {pos})"
        super().__init__(message)
        self.pos = pos


# ---- monomials ----------------------------------------------------------


@record
class ZetaMonomial:
    """One product of letters, each to a positive power.

    factors holds (letter, power) pairs in ascending letter order: letter
    1 is ln 2 and letter n >= 2 is zeta(n), so a letter's weight is n.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = 0
        for n, e in self.factors:
            if e <= 0:
                raise ValueError("powers must be positive")
            if n <= last:  # ascending from letter 1, hence distinct
                raise ValueError("letters must be sorted, distinct and >= 1")
            last = n

    @staticmethod
    def one() -> "ZetaMonomial":
        return ZetaMonomial()

    @staticmethod
    def from_parts(powers: dict[int, int]) -> "ZetaMonomial":
        return ZetaMonomial(tuple(sorted((n, e) for n, e in powers.items() if e)))

    @property
    def weight(self) -> int:
        return sum(n * e for n, e in self.factors)

    def sort_key(self) -> tuple:
        # the letters, each repeated by its power: ln 2 before every zeta
        expanded = []
        for n, e in self.factors:
            expanded += [n] * e
        return tuple(expanded)

    def text(self) -> str:
        parts = []
        for n, e in self.factors:
            name = "ln2" if n == 1 else f"z{n}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


def _merge_monomials(a: ZetaMonomial, b: ZetaMonomial) -> ZetaMonomial:
    powers: dict[int, int] = dict(a.factors)
    for n, e in b.factors:
        powers[n] = powers.get(n, 0) + e
    return ZetaMonomial.from_parts(powers)


# ---- expressions --------------------------------------------------------


@record
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
        # display order: heaviest first, then by monomial
        return ZetaExpr(tuple(sorted(acc.items(),
                                     key=lambda kv: (-kv[0].weight, kv[0].sort_key()))))

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
        if n < 2:
            raise ValueError(f"zeta({n}) is not a valid factor")
        return ZetaExpr.from_terms([(ZetaMonomial(((n, 1),)), Fraction(coef))])

    @staticmethod
    def ln2(coef: Rational = 1) -> "ZetaExpr":
        return ZetaExpr.from_terms([(ZetaMonomial(((1, 1),)), Fraction(coef))])

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
        powers: dict[int, int] = {}
        for n, e in mono.factors:
            if n > 2 and n % 2 == 0:  # zeta(n)^e as a rational times zeta(2)^(n/2 e)
                coef *= even_zeta_ratio(n // 2) ** e
                n, e = 2, n // 2 * e
            powers[n] = powers.get(n, 0) + e
        out.append((ZetaMonomial.from_parts(powers), coef))
    return ZetaExpr.from_terms(out)


def evaluate(expr: ZetaExpr, digits: int) -> HighFloat:
    """Numeric value at digits, each letter's constant taken at digits.

    Each coefficient, power, product and partial sum is rounded at
    digits + 5, and the total once more at digits.
    """
    _require_digits(digits)
    wp = digits + 5
    total = HighFloat()
    for mono, coef in expr.terms:
        v = HighFloat(coef.numerator).round(wp).div(coef.denominator, wp)
        for n, e in mono.factors:
            v = (v * constant("ln2" if n == 1 else f"zeta({n})", digits).pow(e, wp)).round(wp)
        total = (total + v).round(wp)
    return total.round(digits)


# ---- text form ----------------------------------------------------------


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<zeta>z\d*)|(?P<harmonic>[hH]\d+)"
                    r"|(?P<symbol>ln2|\(2k-1\)|[-+*/^()\[\]k])|(?P<bad>\S))")


def tokenize(text: str, error=ExprSyntaxError) -> list[tuple[str, object, int]]:
    """(kind, value, position) for each token of text, ending in ("end",
    None, len(text)); whitespace between tokens is skipped.

    "int" carries its value, "zeta" its argument and "harmonic" its label
    (h1, H3, ...); each symbol ln2, (2k-1), k, + - * / ^ ( ) [ ] is its own
    kind, with value None.  Any other character raises error there.
    """
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, pos = m.group(kind), m.start(kind)
        if word == "z":
            raise error("expected digits after 'z'", pos)
        if kind == "bad":
            raise error(f"unexpected character {word!r}", pos)
        if kind == "symbol":
            toks.append((word, None, pos))
        else:
            toks.append((kind, word if kind == "harmonic" else int(word.lstrip("z")), pos))
    toks.append(("end", None, len(text)))
    return toks


def take(toks: list, kind: str):
    """Pop and return the next token if it is of kind, else None."""
    return toks.pop(0) if toks[0][0] == kind else None


def expect(toks: list, kind: str, what: str, error=ExprSyntaxError):
    """Pop the next token, which must be of kind; else raise 'expected what'."""
    if toks[0][0] != kind:
        raise error(f"expected {what}", toks[0][2])
    return toks.pop(0)


def read_posint(toks: list, what: str) -> int:
    """Pop the next token, which must be a positive int, and return it."""
    kind, value, pos = toks.pop(0)
    if kind != "int" or not value:
        raise ExprSyntaxError(f"expected positive integer {what}", pos)
    return value


def _read_term(toks: list, part) -> tuple:
    # coef | [coef '*'] factor ('*' factor)* ['*' '['...] | [coef '*'] '['...;
    # factor exponents add up by letter, 1 standing for ln2
    coef, exps, bracket, what = Fraction(1), {}, None, "a coefficient or symbol"
    if toks[0][0] == "int":
        coef = Fraction(toks.pop(0)[1])
        if take(toks, "/"):
            coef /= read_posint(toks, "denominator")
        if not take(toks, "*"):
            return coef, ZetaMonomial.one(), None
        what = "symbol after '*'"
    while True:
        kind, value, pos = toks[0]
        if kind == "[" and part:
            bracket = part(toks)
            break
        if kind not in ("zeta", "ln2"):
            raise ExprSyntaxError(f"expected {what}", pos)
        if kind == "zeta" and value < 2:
            raise ExprSyntaxError("zeta(1) divergent" if value else
                                  "zeta(0) is not a valid symbol", pos)
        if kind == "zeta" and value > MAX_POWER:
            raise ExprSyntaxError(f"zeta indices must be <= {MAX_POWER}", pos)
        toks.pop(0)
        n = value if kind == "zeta" else 1
        exps[n] = exps.get(n, 0) + (read_posint(toks, "exponent") if take(toks, "^") else 1)
        if not take(toks, "*"):
            break
        what = "symbol after '*'"
    return coef, ZetaMonomial.from_parts(exps), bracket


def parse_terms(toks: list, part=None) -> list[tuple[Fraction, ZetaMonomial, object]]:
    """Read ['-'] term (('+' | '-') term)* up to the end of toks.

    Each term comes as (signed coefficient, monomial, bracket).  part, if
    given, is called with the tokens when a term reaches a '[', and what
    it returns is that term's bracket (None elsewhere); without part a
    '[' is a syntax error.
    """
    sign = -1 if take(toks, "-") else 1
    terms = []
    while True:
        coef, mono, bracket = _read_term(toks, part)
        terms.append((sign * coef, mono, bracket))
        kind, _, pos = toks.pop(0)
        if kind == "end":
            return terms
        if kind not in ("+", "-"):
            raise ExprSyntaxError("expected '+' or '-' between terms", pos)
        sign = 1 if kind == "+" else -1


def parse_expr(text: str) -> ZetaExpr:
    """Parse the text form; raises ExprSyntaxError with a position."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return ZetaExpr.from_terms((mono, coef) for coef, mono, _ in parse_terms(tokenize(text)))


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
