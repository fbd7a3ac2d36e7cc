"""Acceptance gate: one test per shipping criterion.

Each test prints a single [PASS]/[FAIL] line for its criterion (visible
with -s or on failure).  Criterion 1 is split: four of the five printed
reference decimals reproduce to 1e-12, but the fifth (the weight-8
product sum) drops a digit in print and can never match at that
tolerance; that sub-check is marked xfail(strict) and documented in the
decisions ledger rather than weakened.
"""

import time
from fractions import Fraction

import mpmath as mp
import pytest

from oddeuler.cli import LEMMA_CONVENTION
from oddeuler.harmonic import HarmonicKind, harmonic_exact
from oddeuler.identities import (REFERENCE_ANCHORS, adjudication_findings,
                                 catalog, fit_closed_form, fit_value, reduce, select,
                                 substitute_bases, summarize, verify, verify_all)
from oddeuler.summation import (EvalOptions, evaluate_sum, lemma1_aux,
                                lemma2_g, lemma3_f, parse_sumspec,
                                reciprocal_sum_closed_form)
from oddeuler.zeta_algebra import ZetaExpr, evaluate, format_expr, parse_expr

OPTS = EvalOptions(digits=40, K=10 ** 4)


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}", flush=True)


# -- criterion 1: printed numeric anchors -------------------------------------


GOOD_ANCHORS = (
    ("s1", "h1*h2/k^3", "1.3394093155989435"),
    ("T1_3_4", "h3/k^4", "1.08556003490415209"),
    ("T1_3_6", "h3/k^6", "1.01800033232122239"),
    ("T1_4_5", "h4/k^5", "1.0373935033868233"),
)


def test_criterion_1_printed_anchors_reproduce():
    ok = True
    with mp.workdps(50):
        for ident, spec, printed in GOOD_ANCHORS:
            start = time.monotonic()
            value = evaluate_sum(parse_sumspec(spec), OPTS).value
            elapsed = time.monotonic() - start
            residual = abs(value - mp.mpf(printed))
            ok = ok and residual <= mp.mpf("1e-12") and elapsed <= 60
            assert residual <= mp.mpf("1e-12"), (ident, mp.nstr(residual, 5))
            assert elapsed <= 60, ident
    _report("criterion 1: four printed anchors reproduce to 1e-12, "
            "each evaluation under 60 s", ok)


@pytest.mark.xfail(strict=True,
                   reason="the printed fifth-power product anchor drops a "
                          "digit; the engine value differs from it by ~7e-10 "
                          "and matching to 1e-12 is unattainable")
def test_criterion_1_s2_printed_anchor():
    with mp.workdps(50):
        value = evaluate_sum(parse_sumspec("h1*h2/k^5"), OPTS).value
        residual = abs(value - mp.mpf("1.0567810227967086"))
        _report("criterion 1: fifth-power product anchor as printed "
                f"(residual {mp.nstr(residual, 5)}, needs <= 1e-12)",
                residual <= mp.mpf("1e-12"))
        assert residual <= mp.mpf("1e-12")


# -- criterion 2: closed-form verification ------------------------------------


CRITERION_2_IDS = ["s1", "s2", "T1_2_1", "T3_1", "T3_2", "eq70", "T4_1",
                   "T4_2", "T5_1", "T5_2", "H3_2", "T2_1", "T6_1", "T1_3_4"]


def test_criterion_2_closed_forms_verify():
    reports = verify_all(OPTS, tolerance="1e-11", entries=select(catalog(), CRITERION_2_IDS))
    bad = [r.id for r in reports if r.verdict != "pass"]
    _report("criterion 2: all listed closed forms verify to 1e-11", not bad)
    assert not bad, bad


# -- criterion 3: adjudication findings ---------------------------------------


def test_criterion_3_adjudications_fail_stably():
    settings = (EvalOptions(digits=40, K=10 ** 4),
                EvalOptions(digits=40, K=2 * 10 ** 4),
                EvalOptions(digits=50, K=10 ** 4))
    ok = True
    with mp.workdps(60):
        for ident in ("eq38_intermediate", "T1_3_6_eq87"):
            residuals = [verify(ident, o).residual for o in settings]
            for r in residuals:
                assert mp.mpf("1e-2") <= r <= mp.mpf("1e2"), (ident,
                                                              mp.nstr(r, 5))
            spread = max(residuals) - min(residuals)
            assert spread < mp.mpf("1e-8"), (ident, mp.nstr(spread, 5))
            ok = ok and spread < mp.mpf("1e-8")
    _report("criterion 3a: squared-pair and expanded-reduction claims fail "
            "with O(1e-2)..O(1) residuals, stable under K doubling and "
            "+10 digits", ok)


def test_criterion_3_mutual_inconsistency_reported():
    with mp.workdps(50):
        engine = evaluate_sum(parse_sumspec("h2/k^5"), OPTS).value
        reduced = substitute_bases(reduce("T1_2", 2))
        red_val = evaluate(reduced.terms, 50)
        self_validating = abs(engine - red_val) <= mp.mpf("1e-11")
        assert self_validating
        anchor_gap = abs(engine - mp.mpf(REFERENCE_ANCHORS["T1_2_2"]))
        transcribed = verify("T1_2_2_eq41", OPTS)
        assert transcribed.verdict == "fail"
        assert anchor_gap > mp.mpf("1e-3")
        assert transcribed.residual > mp.mpf("1")
    reports = verify_all(OPTS, entries=select(catalog(), ["T1_2_2", "T1_2_2_eq41"]))
    notes = "\n".join(adjudication_findings(reports, OPTS))
    assert "mutually inconsistent" in notes
    assert "self-validates" in notes
    _report("criterion 3b: transcribed fifth-power closed form, printed "
            "anchor, and replayed reduction are mutually inconsistent; the "
            "reduction self-validates to 1e-11", True)


# -- criterion 4: exact identities --------------------------------------------


def test_criterion_4_split_identity_exact():
    # H(n, 2k) = h(n, k) + 2^-n H(n, k), both sides from exact prefixes
    for n in range(1, 7):
        for k in range(1, 201):
            lhs = harmonic_exact(HarmonicKind.even(n), 2 * k)
            rhs = harmonic_exact(HarmonicKind.odd(n), k) + \
                Fraction(1, 2 ** n) * harmonic_exact(HarmonicKind.even(n), k)
            assert lhs == rhs, (n, k)
    _report("criterion 4a: even/odd split holds exactly for k <= 200, "
            "n <= 6", True)


def test_criterion_4_substitution_structural_equality():
    got = substitute_bases(reduce("T1_2", 1))
    want = parse_expr("35/4*z2*z3 - 31/2*z5")
    assert got == want
    assert format_expr(got) == "35/4*z2*z3 - 31/2*z5"
    _report("criterion 4b: substituted first reduction structurally equals "
            "the catalogued cubic closed form", True)


# -- criterion 5: lemma suite --------------------------------------------------


def test_criterion_5_lemma_suite():
    opts = EvalOptions(digits=25)
    tol = mp.mpf("1e-9")
    worst = mp.mpf(0)
    with mp.workdps(40):
        for k in range(1, 21):
            checks = [lemma1_aux(k, opts)]
            checks += [lemma2_g(n, k, opts) for n in (1, 2, 3)]
            for m in (1, 2, 3, 4):
                n, parity = (m + 1) // 2, ("odd" if m % 2 else "even")
                checks.append(lemma3_f(n, parity, k, opts))
            for trunc, closed in checks:
                worst = max(worst, abs(trunc - closed))
        assert worst < tol, mp.nstr(worst, 5)
    assert "sign +1 for odd order m and -1 for even order m" \
        in LEMMA_CONVENTION
    print(LEMMA_CONVENTION, flush=True)
    _report("criterion 5: lemma suite agrees truncated-vs-closed below 1e-9 "
            f"for k <= 20 (worst {mp.nstr(worst, 3)}); sign convention "
            "documented above", True)


# -- criterion 6: partial-fraction engine --------------------------------------


def test_criterion_6_reciprocal_sums():
    worst = mp.mpf(0)
    with mp.workdps(50):
        for total in range(2, 8):
            for p in range(0, total + 1):
                q = total - p
                expr = reciprocal_sum_closed_form(p, q)
                if q == 0:
                    text = f"1/k^{p}"
                elif p == 0:
                    text = f"1/(2k-1)^{q}"
                else:
                    text = f"1/(k^{p}*(2k-1)^{q})"
                value = evaluate_sum(parse_sumspec(text), OPTS).value
                want = evaluate(expr.terms, 50)
                worst = max(worst, abs(value - want))
        assert worst <= mp.mpf("1e-12"), mp.nstr(worst, 5)
    _report("criterion 6: reciprocal closed forms match summation to 1e-12 "
            f"for all p+q <= 7 including (3,2) (worst {mp.nstr(worst, 3)})",
            True)


# -- criterion 7: fitting engine ------------------------------------------------


def test_criterion_7_fitting():
    got = fit_closed_form(parse_sumspec("h1/k^2"), 3, max_den=256, opts=OPTS)
    assert got == parse_expr("7/4*z3")
    got = fit_closed_form(parse_sumspec("h1*h2/k^3"), 6, max_den=256,
                          opts=OPTS)
    coeffs = {mono.text(): coef for mono, coef in got.terms}
    assert coeffs == {"z3^2": Fraction(49, 8), "z2^3": Fraction(-27, 16)}

    import random
    rng = random.Random(8128)
    from oddeuler.identities import _fit_basis
    done = 0
    while done < 20:
        weight = rng.choice([2, 3, 4, 5, 6, 7])
        basis = _fit_basis(weight, include_ln2=False)
        terms = []
        for mono in basis:
            if rng.random() < 0.55:
                num = rng.randint(-30, 30)
                den = rng.choice([1, 2, 4, 8, 16, 32, 64])
                if num:
                    terms.append((mono, Fraction(num, den)))
        if not terms:
            continue
        expr = ZetaExpr.from_terms(terms)
        with mp.workdps(40):
            value = evaluate(expr.terms, 40)
        back = fit_value(value, weight, max_den=64, digits=40)
        assert back == expr, format_expr(expr)
        done += 1
    _report("criterion 7: fitting recovers 7/4*z3, the weight-6 product "
            "coefficients (49/8, -27/16), and 20 random round-trips exactly",
            True)


# -- criterion 8: engine self-consistency ---------------------------------------


def test_criterion_8_k_doubling_and_runtime():
    specs = set()
    for entry in catalog():
        if hasattr(entry.lhs, "factors"):
            specs.add(entry.lhs)
        else:
            specs.update(spec for _, spec, _ in entry.lhs.parts)
    assert len(specs) >= 25
    with mp.workdps(50):
        for spec in sorted(specs, key=lambda s: s.text()):
            base = evaluate_sum(spec, OPTS)
            double = evaluate_sum(spec, EvalOptions(digits=40, K=2 * 10 ** 4))
            assert abs(base.value - double.value) <= base.err_estimate, \
                spec.text()

    start = time.monotonic()
    reports = verify_all(OPTS)
    elapsed = time.monotonic() - start
    stats = summarize(reports)
    assert stats["must_pass_failures"] == []
    assert elapsed <= 15 * 60, elapsed
    _report("criterion 8: K-doubling stays within err_estimate across the "
            f"catalog; full verify_all took {elapsed:.1f}s (limit 900s)",
            True)
