"""Binary floats at explicit digit counts, and the logarithms they need.

A HighFloat is man 2^exp for int man and exp.  Sums, differences and
products are exact; a value is rounded where a caller names a digit
count, as mpmath rounds inside workdps(digits).  The kernels here are
ports of mpmath 1.3.0's libmpf (rounding, division, integer powers,
radix conversion and text parsing), so each rounded value, printed text
and parsed number is mpmath's bit for bit, and mpmath can stay the
outside reference of the tests without being imported by the package.
ln_fixed takes logarithms of integers from an ln 2 series and an atanh
series.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, partialmethod


def dps_to_prec(digits: int) -> int:
    """The bits of a decimal digit count, by mpmath's map.

    >>> dps_to_prec(15), dps_to_prec(40)
    (53, 136)
    """
    return max(1, int(round((digits + 1) * 3.3219280948873626)))


# rounding directions, on the magnitude: to nearest with ties to even,
# toward zero, away from zero
NEAREST, DOWN, UP = "n", "d", "u"
_LOG2_10 = math.log(10, 2)


def _rounded(man: int, exp: int, prec: int, rnd: str = NEAREST) -> HighFloat:
    # man 2^exp with its magnitude rounded to prec bits
    mag = abs(man)
    n = mag.bit_length() - prec
    if n > 0:
        if rnd == NEAREST:
            t = mag >> (n - 1)
            mag = (t >> 1) + 1 if t & 1 and (t & 2 or mag & ((1 << (n - 1)) - 1)) else t >> 1
        else:
            mag = mag >> n if rnd == DOWN else -(-mag >> n)
        exp += n
    return HighFloat(-mag if man < 0 else mag, exp)


def _div(a: HighFloat, b: HighFloat, prec: int, rnd: str = NEAREST) -> HighFloat:
    # mpf_div: the quotient to prec + 5 bits or more, odd when inexact, rounded once
    if not b.man:
        raise ZeroDivisionError
    s, t = abs(a.man), abs(b.man)
    extra = max(prec - s.bit_length() + t.bit_length() + 5, 5)
    quot, rem = divmod(s << extra, t)
    if rem:
        quot, extra = quot << 1 | 1, extra + 1
    return _rounded(-quot if (a.man < 0) != (b.man < 0) else quot, a.exp - b.exp - extra, prec, rnd)


def _pow(x: HighFloat, n: int, prec: int, rnd: str = NEAREST) -> HighFloat:
    # mpf_pow_int: x^-n is 1 / x^n, x^n at 5 more bits rounded the other
    # way; x^n is exact below 1000 bits of mantissa power, else binary
    # powering at prec + 4 bitlen(n) + 4 bits, truncated (or, rounding up,
    # raised) at each step
    if n == -1:
        return _div(HighFloat(1), x, prec, rnd)
    if n < 0:
        return _div(HighFloat(1), _pow(x, -n, prec + 5, {DOWN: UP, UP: DOWN}.get(rnd, rnd)),
                    prec, rnd)
    man, exp = abs(x.man), x.exp
    if n < 3 or man == 1 or man.bit_length() * n < 1000:
        return _rounded(x.man ** n, exp * n, prec, rnd)
    sign = -1 if x.man < 0 and n & 1 else 1
    work, pm, pe = prec + 4 * n.bit_length() + 4, 1, 0
    while True:
        if n & 1:
            pm, pe = pm * man, pe + exp
            cut = pm.bit_length() - work
            if cut > 0:
                pm, pe = -(-pm >> cut) if rnd == UP else pm >> cut, pe + cut
            n -= 1
            if not n:
                return _rounded(sign * pm, pe, prec, rnd)
        man, exp = man * man, exp + exp
        cut = man.bit_length() - work
        if cut > 0:
            man, exp = -(-man >> cut) if rnd == UP else man >> cut, exp + cut
        n //= 2


class HighFloat:
    """A binary float man 2^exp: an int mantissa, odd or 0, and an int
    exponent; zero is (0, 0).

    +, -, * and unary minus are exact.  round, div and pow round at a
    decimal digit count, to the bits dps_to_prec gives it, ties to even.
    Comparisons are exact.  An int takes part as itself; a value of
    mpmath, which reads _mpf_, is left to mpmath's own operators.

    >>> third = HighFloat(1).div(3, 15)
    >>> third._mpf_, third.text(20)
    ((0, 6004799503160661, -54, 53), '0.33333333333333331483')
    >>> (third * 3 - 1).text(5), third < HighFloat(1, -1)
    ('-5.5511e-17', True)
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: int = 0, exp: int = 0):
        zeros = (man & -man).bit_length() - 1  # -1 at 0
        if zeros:
            man, exp = (man >> zeros, exp + zeros) if man else (0, 0)
        self.man, self.exp = man, exp

    @staticmethod
    def of(x) -> HighFloat:
        """x exactly: a HighFloat, an int, or a finite value of mpmath."""
        if isinstance(x, (int, HighFloat)):
            return HighFloat(x) if isinstance(x, int) else x
        sign, man, exp, _ = x._mpf_
        if not man and exp:
            raise ValueError("not a finite number")
        return HighFloat(-man if sign else man, exp)

    @property
    def _mpf_(self) -> tuple:
        # mpmath's raw form: sign bit, odd magnitude, exponent, bit count
        mag = abs(self.man)
        return int(self.man < 0), mag, self.exp, mag.bit_length()

    def round(self, digits: int) -> HighFloat:
        return self.round_bits(dps_to_prec(digits))

    def round_bits(self, prec: int) -> HighFloat:
        return _rounded(self.man, self.exp, prec)

    def div(self, other, digits: int) -> HighFloat:
        return _div(self, HighFloat.of(other), dps_to_prec(digits))

    def pow(self, n: int, digits: int) -> HighFloat:
        return _pow(self, n, dps_to_prec(digits))

    def fixed(self, prec: int) -> int:
        """floor(self 2^prec), mpmath's to_fixed."""
        shift = self.exp + prec
        return self.man << shift if shift >= 0 else self.man >> -shift

    def text(self, n: int) -> str:
        """n significant digits, as mpmath's nstr(x, n) prints them: the
        digits to n + 3 are taken toward zero and rounded half up to n,
        fixed point while the exponent lies in (min(-n // 3, -5), n),
        trailing zeros stripped."""
        if not self.man:
            return "0.0"
        digits, exponent = _digits_exp(abs(self), n + 3)
        if len(digits) > n and digits[n] in "56789":
            digits = str(int(digits[:n]) + 1)
            if len(digits) > n:  # 99...9 carried into one more digit
                digits, exponent = digits[:n], exponent + 1
        else:
            digits = digits[:n]
        split = 1
        if min(-(n // 3), -5) < exponent < n:
            if exponent < 0:
                digits = "0" * -exponent + digits
            else:
                split = exponent + 1
                digits += "0" * (split - n)
            exponent = 0
        digits = (digits[:split] + "." + digits[split:]).rstrip("0")
        text = ("-" if self.man < 0 else "") + digits + ("0" if digits[-1] == "." else "")
        return f"{text}e{exponent:+d}" if exponent else text

    def __repr__(self) -> str:
        return f"HighFloat('{self.text(int(abs(self.man).bit_length() / _LOG2_10) + 2)}')"

    def __add__(self, other):
        if not isinstance(other, (int, HighFloat)):
            return NotImplemented
        other = HighFloat.of(other)
        a, b = (self, other) if self.exp <= other.exp else (other, self)
        return HighFloat(a.man + (b.man << b.exp - a.exp), a.exp) if a.man and b.man else a or b

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, (int, HighFloat)) else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, (int, HighFloat)):
            return NotImplemented
        other = HighFloat.of(other)
        return HighFloat(self.man * other.man, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self):
        return HighFloat(-self.man, self.exp)

    def __abs__(self):
        return self if self.man >= 0 else -self

    def __bool__(self):
        return bool(self.man)

    def _cmp(self, other, op):
        # op(sign of self - other, 0): signs first, then the top bits, and at
        # one top bit the exponents differ by less than the longer mantissa
        if not isinstance(other, (int, HighFloat)):
            return NotImplemented
        other = HighFloat.of(other)
        a, b = self.man, other.man
        sign, other_sign = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sign != other_sign or not sign:
            return op(sign, other_sign)
        top = self.exp + abs(a).bit_length() - other.exp - abs(b).bit_length()
        if top:
            return op(sign * top, 0)
        shift = self.exp - other.exp
        return op(a << shift, b) if shift > 0 else op(a, b << -shift)

    __eq__ = partialmethod(_cmp, op=operator.eq)
    __lt__ = partialmethod(_cmp, op=operator.lt)
    __le__ = partialmethod(_cmp, op=operator.le)
    __gt__ = partialmethod(_cmp, op=operator.gt)
    __ge__ = partialmethod(_cmp, op=operator.ge)

    def __hash__(self):
        # the hash of the equal int or Fraction
        modulus = (1 << 61) - 1
        h = abs(self.man) * pow(2, self.exp, modulus) % modulus
        h = -h if self.man < 0 else h
        return -2 if h == -1 else h


def _digits_exp(x: HighFloat, dps: int) -> tuple[str, int]:
    # mpmath's to_digits_exp for x > 0: at least dps digits of x, taken
    # toward zero, and the decimal exponent of the first.  Beyond 2^+-3500
    # x is first divided by 10^b, b = int(exp ln 2 / ln 10) from ln 2 and
    # ln 10 truncated to bitlen(exp) + 5 bits, as mpmath finds it
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(x.exp + x.man.bit_length()) > 3500:
        p = abs(x.exp).bit_length() + 5
        ratio = _div(HighFloat(x.exp * ln_fixed(2, p), -p), HighFloat(ln_fixed(10, p - 2), 2 - p),
                     p, DOWN)
        exponent = ratio.fixed(0) if ratio.man >= 0 else -(-ratio).fixed(0)
        x = _div(x, _pow(HighFloat(10), exponent, bitprec, DOWN), bitprec, DOWN)
    fixprec = max(bitprec - x.exp - x.man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    digits = str(x.fixed(fixprec) * 10 ** fixdps >> fixprec)
    return digits, exponent + len(digits) - fixdps - 1


def parse_real(text: str, digits: int) -> HighFloat:
    """The number text names, rounded at digits as mpmath's mpf(text) is:
    a float literal or p/q (an int over a nonzero int).  inf and nan raise
    ValueError, as does any text that is not a number; q = 0 raises
    ZeroDivisionError.

    >>> parse_real("1/3", 15) == HighFloat(1).div(3, 15), parse_real("2.5e-1", 15).text(5)
    (True, '0.25')
    """
    prec = dps_to_prec(digits)
    x = text.lower().strip()
    if x in ("inf", "+inf", "-inf", "nan"):
        raise ValueError(f"not a finite number: {text!r}")
    if "/" in x:
        p, q = x.split("/")
        return _div(HighFloat(int(p.rstrip("l"))), HighFloat(int(q.rstrip("l"))), prec)
    x = x.rstrip("l")
    float(x)  # a float literal, or ValueError
    mantissa, _, power = x.partition("e")
    whole, point, frac = mantissa.partition(".")
    frac = frac.rstrip("0")
    man, exp = int(whole + frac), (int(power) if power else 0) - len(frac)
    if abs(exp) > 400:
        # mpmath rounds both factors toward zero at 10 more bits
        return (_rounded(man, 0, prec + 10, DOWN) * _pow(HighFloat(10), exp, prec + 10, DOWN)
                ).round_bits(prec)
    if exp >= 0:
        return _rounded(man * 10 ** exp, 0, prec)
    return _div(HighFloat(man), HighFloat(10 ** -exp), prec)


def _atanh_fixed(p: int, q: int, prec: int) -> int:
    # atanh(p/q) 2^prec for 0 <= p < q, each term floored
    z = (p << prec) // q
    z2, total, j = z * z >> prec, 0, 1
    while z:
        total += z // j
        z, j = z * z2 >> prec, j + 2
    return total


@lru_cache(maxsize=None)
def _ln2_fixed(prec: int) -> int:
    # ln 2 = 2 atanh(1/3) = sum 2 / (j 3^j) over odd j: power is 2^(prec+1) /
    # 3^j floored, exactly, and each term floors once
    power, total, j = (2 << prec) // 3, 0, 1
    while power:
        total += power // j
        power, j = power // 9, j + 2
    return total


@lru_cache(maxsize=None)
def ln_fixed(n: int, prec: int) -> int:
    """floor(ln(n) 2^prec) for an int n >= 1.

    ln n = e ln 2 + 2 atanh((n - 2^e) / (n + 2^e)), with 2^e the power of
    two for which n / 2^e lies in [3/4, 3/2), is summed with 64 guard bits;
    its error, some hundreds of units at the guarded scale, moves the
    floor only when ln(n) 2^prec lies that close above an integer.  Over
    ln(end) this is mpmath's to_fixed(mpf_log(end, prec + 8), prec), both
    roundings being toward zero.

    >>> ln_fixed(10, 20) / 2 ** 20
    2.302584648132324
    """
    wp = prec + 64
    e = (4 * n // 3).bit_length() - 1
    atanh = _atanh_fixed(abs(n - (1 << e)), n + (1 << e), wp)
    return (e * _ln2_fixed(wp) + (2 * atanh if n >= 1 << e else -2 * atanh)) >> 64
