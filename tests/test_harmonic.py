"""Exact prefixes, the even/odd split, streams, and the tail expansions of the value series."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddeuler.harmonic import HarmonicKind, PrefixStream, columns, harmonic_exact, value_series
from oddeuler.highfloat import HighFloat, dps_to_prec, ln_fixed

from conftest import FROZEN_CONSTANTS


def test_exact_prefix_examples():
    assert harmonic_exact(HarmonicKind.even(1), 4) == Fraction(25, 12)
    assert harmonic_exact(HarmonicKind.odd(1), 3) == Fraction(23, 15)
    assert harmonic_exact(HarmonicKind.odd(2), 2) == Fraction(10, 9)
    assert harmonic_exact(HarmonicKind.even(2), 3) == Fraction(49, 36)
    assert harmonic_exact(HarmonicKind.odd(1), 1) == 1


def test_empty_prefix_rejected():
    with pytest.raises(ValueError, match="empty sum"):
        harmonic_exact(HarmonicKind.even(1), 0)


def test_exact_cap():
    with pytest.raises(ValueError, match="capped"):
        harmonic_exact(HarmonicKind.even(1), 10 ** 5 + 1)


def test_labels_round_trip():
    for label in ("H1", "H3", "h2", "h5"):
        assert HarmonicKind.from_label(label).label == label
    with pytest.raises(ValueError):
        HarmonicKind.from_label("g2")
    with pytest.raises(ValueError):
        HarmonicKind.from_label("H0")


def test_term_values():
    assert HarmonicKind.odd(2).term(3) == Fraction(1, 25)
    assert HarmonicKind.even(3).term(2) == Fraction(1, 8)


def test_split_identity_small():
    # H_{2k}^(n) = h_k^(n) + 2^{-n} H_k^(n), exactly, with each prefix
    # also summed term by term
    for n in (1, 2, 3):
        for k in (1, 2, 5, 17):
            lhs = harmonic_exact(HarmonicKind.even(n), 2 * k)
            odd = harmonic_exact(HarmonicKind.odd(n), k)
            even = harmonic_exact(HarmonicKind.even(n), k)
            assert lhs == odd + Fraction(1, 2 ** n) * even
            assert lhs == sum(Fraction(1, j ** n) for j in range(1, 2 * k + 1))
            assert odd == sum(Fraction(1, (2 * j - 1) ** n) for j in range(1, k + 1))


def test_prefix_stream_matches_exact():
    kinds = (HarmonicKind.odd(1), HarmonicKind.even(2))
    stream = PrefixStream(kinds, digits=30)
    for k in range(1, 1001):
        stream.advance()
    assert stream.k == 1000
    with mp.workdps(40):
        for kind in kinds:
            want = harmonic_exact(kind, 1000)
            got = stream.value(kind)
            assert abs(got - mp.mpf(want.numerator) / want.denominator) \
                < mp.mpf(10) ** (6 - 30)


@pytest.mark.parametrize("parity", ("even", "odd"))
def test_prefix_stream_floor_bound(parity):
    # each advance floors one term, so after k advances every integer
    # prefix is at most k units of 2^-prec below the exact value
    kinds = tuple(HarmonicKind(parity, n) for n in (1, 2, 3))
    stream = PrefixStream(kinds, digits=20, terms=500)
    for k in range(1, 501):
        stream.advance()
        for kind, prefix in zip(kinds, stream.prefixes):
            gap = harmonic_exact(kind, k) * 2 ** stream.prec - prefix
            assert 0 <= gap <= k


@pytest.mark.parametrize("parity", ("even", "odd"))
def test_columns_floor_bound_and_stream_agree(parity):
    # orders 1, 2 and 5 chain two ways: 2 divides 1's terms by base, 5
    # divides 2's by base^3; each prefix lies within k units of 2^-prec
    # below the exact value, and is PrefixStream's after k advances
    kinds = tuple(HarmonicKind(parity, n) for n in (1, 2, 5))
    stream = PrefixStream(kinds, digits=20, terms=500)
    cols = columns(kinds, stream.prec)
    for k in range(1, 501):
        stream.advance()
        for kind, streamed in zip(kinds, stream.prefixes):
            prefix = next(cols[kind])
            scaled = harmonic_exact(kind, k) * 2 ** stream.prec
            assert scaled - k <= prefix <= scaled
            assert prefix == streamed


def tail_expansion(kind: HarmonicKind, k: int, terms: int, digits: int = 40) -> HighFloat:
    """The leading `terms` pieces of the kind's own value series to
    k^-(n+9), valued at k: the lowest power of 1/k first, and within a
    power the higher power of ln k.  Order 1 expands the prefix itself:
    ln k, gamma, 1/k, 1/k^2, ... for the even kind, and ln k / 2,
    gamma / 2 + ln 2, 1/k^2, 1/k^4, ... for the odd.  Order n >= 2
    expands the tail, limit minus prefix: k^(1-n), k^-n, k^(-1-n),
    k^(-3-n), ... for the even kind, and the same without k^-n, which
    cancels, for the odd.  Each piece is rounded at digits + 5, their sum
    once more, and that at digits."""
    n, wp = kind.order, digits + 5
    prec = dps_to_prec(wp) + 16
    series = {key: HighFloat(c, -prec).round(wp) for key, c in
              value_series(kind, n + 9, wp, prec).items()}
    if n > 1:
        series = {key: -c for key, c in series.items() if key != (0, 0)}
    lnk = HighFloat(ln_fixed(k, prec), -prec).round(wp)
    pieces = []
    for (a, s), c in sorted(series.items(), key=lambda kv: (kv[0][1], -kv[0][0]))[:terms]:
        if a:
            c = (c * lnk.pow(a, wp)).round(wp)
        pieces.append((c * HighFloat(k).pow(-s, wp)).round(wp))
    return sum(pieces, HighFloat()).round(wp).round(digits)


def test_tail_expansion_even_order2_example():
    # three correction terms of the order-2 tail at k = 10
    val = tail_expansion(HarmonicKind.even(2), 10, 3)
    assert val.text(16) == "0.09516666666666667"
    with mp.workdps(30):
        want = mp.mpf(1) / 10 - mp.mpf("0.005") + mp.mpf(1) / 6000
        assert abs(val - want) < mp.mpf("1e-25")


def test_tail_expansion_order1_value_form():
    # at order 1 the expansion carries ln k and gamma
    val = tail_expansion(HarmonicKind.even(1), 100, 4)
    with mp.workdps(40):
        want = mp.log(100) + mp.mpf(FROZEN_CONSTANTS["euler_gamma"]) \
            + mp.mpf(1) / 200 - mp.mpf(1) / 120000
        assert abs(val - want) < mp.mpf("1e-30")


def test_tail_expansion_accuracy_improves():
    # against the true tail zeta(2) - H_k^(2)
    with mp.workdps(50):
        true_tail = mp.mpf(FROZEN_CONSTANTS["zeta(2)"])
        exact = harmonic_exact(HarmonicKind.even(2), 40)
        true_tail -= mp.mpf(exact.numerator) / exact.denominator
        errs = []
        for terms in (2, 4, 6):
            errs.append(abs(tail_expansion(HarmonicKind.even(2), 40, terms,
                                           digits=45) - true_tail))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < mp.mpf("1e-18")


def test_tail_expansion_odd_consistency():
    # the odd tail from its own series, against lambda(3) - h(3, 25)
    with mp.workdps(40):
        lam3 = (1 - mp.mpf(2) ** -3) * mp.mpf(FROZEN_CONSTANTS["zeta(3)"])
        exact = harmonic_exact(HarmonicKind.odd(3), 25)
        true_tail = lam3 - mp.mpf(exact.numerator) / exact.denominator
        got = tail_expansion(HarmonicKind.odd(3), 25, 5, digits=40)
        assert abs(got - true_tail) < mp.mpf("1e-12")


def _even_piece(n, j, x):
    # piece j of the even kind's tail_expansion at x, leading first: ln x,
    # gamma, 1/(2x) at order 1; x^(1-n)/(n-1), -x^-n/2 at order n >= 2;
    # then the Euler-Maclaurin terms B_2r/(2r)! n(n+1)...(n+2r-2)
    # x^(1-n-2r), negated at order 1, where the expansion is of the value
    x = mp.mpf(x)
    head = [mp.log(x), +mp.euler, 1 / (2 * x)] if n == 1 else \
        [x ** (1 - n) / (n - 1), -x ** -n / 2]
    if j < len(head):
        return head[j]
    r = j - len(head) + 1
    term = mp.bernoulli(2 * r) / mp.factorial(2 * r) * mp.rf(n, 2 * r - 1) * x ** (1 - n - 2 * r)
    return -term if n == 1 else term


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_odd_tail_expansion_against_the_split_identity(n):
    # h(n, x) = H(n, 2x) - 2^-n H(n, x) taken piece by piece: the split of
    # the even expansions differs from the odd kind's own by at most the
    # first piece that the split leaves out (a piece that cancels in the
    # split, x^-n, counts as one there but not in the odd series), and the
    # odd expansion's error falls as terms grows, strictly from 5 to 6
    odd, even = HarmonicKind.odd(n), HarmonicKind.even(n)
    with mp.workdps(50):
        lam = (1 - mp.mpf(2) ** -n) * mp.zeta(n) if n > 1 else 0
        for k in (10, 25, 100):
            exact = harmonic_exact(odd, k)
            true = abs(lam - mp.mpf(exact.numerator) / exact.denominator)
            errs = []
            for terms in range(2, 7):
                got = tail_expansion(odd, k, terms)
                split = tail_expansion(even, 2 * k, terms) - \
                    tail_expansion(even, k, terms).div(2 ** n, 50)
                omitted = _even_piece(n, terms, 2 * k) - _even_piece(n, terms, k) / 2 ** n
                assert abs(got - split) <= abs(omitted) + mp.mpf("1e-36"), (k, terms)
                errs.append(abs(got - true))
            assert errs == sorted(errs, reverse=True), k
            assert errs[0] > errs[2] > errs[4], k
            assert errs[3] > errs[4], k  # the sixth piece counts


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=6),
       k=st.integers(min_value=1, max_value=120))
def test_split_identity_property(n, k):
    lhs = harmonic_exact(HarmonicKind.even(n), 2 * k)
    rhs = harmonic_exact(HarmonicKind.odd(n), k) + \
        Fraction(1, 2 ** n) * harmonic_exact(HarmonicKind.even(n), k)
    assert lhs == rhs


@settings(max_examples=20, deadline=None, derandomize=True)
@given(kind_order=st.integers(min_value=1, max_value=4),
       parity=st.sampled_from(["even", "odd"]),
       k=st.integers(min_value=1, max_value=300))
def test_prefix_monotone_property(kind_order, parity, k):
    kind = HarmonicKind(parity, kind_order)
    assert harmonic_exact(kind, k + 1) - harmonic_exact(kind, k) \
        == kind.term(k + 1)
