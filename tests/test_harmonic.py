"""Exact prefixes, the even/odd split, streams, and tail expansions."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddeuler.harmonic import (HarmonicKind, PrefixStream, even_odd_split,
                               harmonic_exact, tail_expansion)

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
    # H_{2k}^(n) = h_k^(n) + 2^{-n} H_k^(n), exactly; the helper returns
    # both sides
    for n in (1, 2, 3):
        for k in (1, 2, 5, 17):
            lhs, rhs = even_odd_split(n, k)
            assert lhs == rhs
            assert lhs == harmonic_exact(HarmonicKind.even(n), 2 * k)
            assert rhs == harmonic_exact(HarmonicKind.odd(n), k) \
                + Fraction(1, 2 ** n) \
                * harmonic_exact(HarmonicKind.even(n), k)


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


def test_tail_expansion_even_order2_example():
    # three correction terms of the order-2 tail at k = 10
    val = tail_expansion(HarmonicKind.even(2), 10, 3)
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
    # odd tail = even tail at 2k minus 2^{-n} times even tail at k
    with mp.workdps(40):
        lam3 = (1 - mp.mpf(2) ** -3) * mp.mpf(FROZEN_CONSTANTS["zeta(3)"])
        exact = harmonic_exact(HarmonicKind.odd(3), 25)
        true_tail = lam3 - mp.mpf(exact.numerator) / exact.denominator
        got = tail_expansion(HarmonicKind.odd(3), 25, 5, digits=40)
        assert abs(got - true_tail) < mp.mpf("1e-12")


def test_tail_expansion_validation():
    with pytest.raises(ValueError):
        tail_expansion(HarmonicKind.even(2), 5, 3)
    with pytest.raises(ValueError):
        tail_expansion(HarmonicKind.even(2), 50, 0)
    with pytest.raises(ValueError):
        tail_expansion(HarmonicKind.even(2), 50, 7)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=6),
       k=st.integers(min_value=1, max_value=120))
def test_split_identity_property(n, k):
    lhs, rhs = even_odd_split(n, k)
    assert lhs == rhs
    assert lhs == harmonic_exact(HarmonicKind.even(n), 2 * k)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(kind_order=st.integers(min_value=1, max_value=4),
       parity=st.sampled_from(["even", "odd"]),
       k=st.integers(min_value=1, max_value=300))
def test_prefix_monotone_property(kind_order, parity, k):
    kind = HarmonicKind(parity, kind_order)
    assert harmonic_exact(kind, k + 1) - harmonic_exact(kind, k) \
        == kind.term(k + 1)
