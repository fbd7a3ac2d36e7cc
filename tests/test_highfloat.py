"""HighFloat and its kernels against mpmath.

Each kernel is a port of mpmath 1.3.0, so each is held to mpmath's result
bit for bit (or character for character) on a seeded grid.
"""

import random

import mpmath as mp
import pytest

from oddeuler import highfloat
from oddeuler.highfloat import HighFloat, parse_real


def _text_grid():
    # (value, n): mantissas of 1 to 1800 bits at exponents spread from
    # beyond 2^-3500 to beyond 2^3500, values just below a power of ten
    # (the rounding carries into one more digit), and decimal exponents on
    # both sides of the switch from fixed point to an exponent; both signs
    rng = random.Random(11)
    for n in (2, 8, 15, 20, 40, 52, 100, 500):
        yield HighFloat(0), n
        for _ in range(150):
            bits = rng.randint(1, 1800)
            man = (rng.getrandbits(bits) | 1) * rng.choice((1, -1))
            kind = rng.random()
            if kind < 0.3:
                exp = rng.choice((rng.randint(-bits - 40, 40), rng.randint(-13000, 13000)))
                yield HighFloat(man, exp), n
                continue
            # a power of ten less a few units in the last of `bits` bits, or
            # a value near 10^e at the edges of the fixed-point window
            e = rng.choice((rng.randint(-80, 80), min(-(n // 3), -5) + rng.randint(-1, 1),
                            n + rng.randint(-1, 1)))
            with mp.workprec(bits + 20):
                v = mp.mpf(10) ** e
                v *= 1 - mp.mpf(rng.randint(1, 4)) * 2 ** -bits if kind < 0.7 else \
                    1 + mp.mpf(rng.random())
            yield HighFloat.of(v) * rng.choice((1, -1)), n


def test_text_matches_mpmath_nstr():
    for x, n in _text_grid():
        assert x.text(n) == mp.nstr(x, n) == mp.libmp.to_str(x._mpf_, n), (x._mpf_, n)


def test_text_carries_into_one_more_digit():
    nines = HighFloat(10 ** 22 - 1).div(10 ** 22, 20)
    assert nines.text(20) == mp.nstr(nines, 20) == "1.0"
    assert HighFloat(1).div(10 ** 24, 20).text(20) == "1.0e-24"


def test_mpf_tuple_round_trips_through_mpmath():
    rng = random.Random(12)
    for _ in range(500):
        man = rng.getrandbits(rng.randint(1, 600)) * rng.choice((1, -1))
        x = HighFloat(man << rng.randint(0, 5), rng.randint(-3000, 3000))
        back = mp.mpf(x)  # through _mpf_, at mpmath's working precision
        with mp.workprec(max(1, abs(man).bit_length())):
            exact = mp.mpf(x._mpf_)
        assert exact._mpf_ == x._mpf_ and HighFloat.of(exact) == x
        assert back == mp.mpf(x._mpf_) and mp.nstr(x, 30) == mp.nstr(exact, 30)
        assert hash(x) == hash(exact) and (x == 0) == (man == 0)
    assert HighFloat(0)._mpf_ == mp.mpf(0)._mpf_ == (0, 0, 0, 0)


def test_rounding_division_and_powers_match_mpmath():
    rng = random.Random(13)
    lib = mp.libmp
    for _ in range(2000):
        x, y = (HighFloat((rng.getrandbits(rng.randint(1, 700)) | 1) * rng.choice((1, -1)),
                          rng.randint(-2000, 2000)) for _ in range(2))
        digits = rng.randint(1, 520)
        prec = lib.dps_to_prec(digits)
        n = rng.choice((rng.randint(-30, 30), rng.randint(-3000, 3000)))
        assert highfloat.dps_to_prec(digits) == prec
        assert x.round(digits)._mpf_ == lib.mpf_pos(x._mpf_, prec, "n")
        assert (x + y).round(digits)._mpf_ == lib.mpf_add(x._mpf_, y._mpf_, prec, "n")
        assert (x * y).round(digits)._mpf_ == lib.mpf_mul(x._mpf_, y._mpf_, prec, "n")
        assert x.div(y, digits)._mpf_ == lib.mpf_div(x._mpf_, y._mpf_, prec, "n")
        assert x.pow(n, digits)._mpf_ == lib.mpf_pow_int(x._mpf_, n, prec, "n")
        for rnd in ("d", "u"):  # the directions the formatter and parser take
            assert highfloat._pow(x, n, prec, rnd)._mpf_ == lib.mpf_pow_int(x._mpf_, n, prec, rnd)
            assert highfloat._div(x, y, prec, rnd)._mpf_ == lib.mpf_div(x._mpf_, y._mpf_, prec, rnd)
        assert (x < y) == (mp.mpf(x) < mp.mpf(y)) and x.fixed(prec) == lib.to_fixed(x._mpf_, prec)
        assert (x / y)._mpf_ == lib.mpf_div(x._mpf_, y._mpf_, max(53, abs(x.man).bit_length(),
                                                                 abs(y.man).bit_length()), "n")


def _tolerance_texts():
    rng = random.Random(14)
    yield from ("1/3", "1e-400", "1e-401", "1e-5000", "-2.5e700", "0", "0.0", "1e-11", "10",
                "1.5L", " 1 / 7 ", "1_000", "+.5", "5.", "1E+05", "1e99999", "0e500", "-1/3",
                "123456789012345678901234567890e-450", "1/-3")
    for _ in range(300):
        yield f"{rng.randint(-10 ** rng.randint(1, 40), 10 ** rng.randint(1, 40))}e{rng.randint(-900, 900)}"
        yield f"{rng.randint(1, 999)}.{rng.randint(0, 10 ** rng.randint(1, 30))}e{rng.randint(-500, 500)}"
        yield f"{rng.randint(-999, 999)}/{rng.randint(1, 999)}"


def test_parse_real_matches_mpmath_mpf():
    for text in _tolerance_texts():
        for digits in (15, 57):  # 53 bits, as the CLI reads --tolerance; and 193
            with mp.workdps(digits):
                want = mp.mpf(text)._mpf_
            assert parse_real(text, digits)._mpf_ == want, (text, digits)


@pytest.mark.parametrize("text,error", (
    ("inf", ValueError), ("-inf", ValueError), ("nan", ValueError), ("abc", ValueError),
    ("", ValueError), ("1e5e3", ValueError), ("1/2/3", ValueError), ("infinity", ValueError),
    ("0x10", ValueError), ("1/0", ZeroDivisionError), ("0/0", ZeroDivisionError)))
def test_parse_real_refuses_what_mpmath_does_not_read_as_a_finite_number(text, error):
    with pytest.raises(error):
        parse_real(text, 15)
    if text in ("inf", "-inf", "nan"):  # mpmath reads these, as no finite number
        assert not mp.isfinite(mp.mpf(text))
    else:
        with pytest.raises(error):
            mp.mpf(text)


def test_ln_fixed_matches_mpmath_log():
    # summation takes ln(end) as mpmath's to_fixed(mpf_log(end, prec + 8), prec)
    rng = random.Random(15)
    lib = mp.libmp
    for _ in range(400):
        end = rng.choice((rng.randint(2, 10 ** 6), rng.randint(100, 5000), 2 ** rng.randint(1, 20)))
        prec = rng.randint(60, 2000)
        assert highfloat.ln_fixed(end, prec) == \
            lib.to_fixed(lib.mpf_log(lib.from_int(end), prec + 8), prec), (end, prec)
