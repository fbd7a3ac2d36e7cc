"""Catalog loading, verification, reductions, and adjudication findings."""

import json
from fractions import Fraction
from importlib import resources

import mpmath as mp
import pytest

from oddeuler.harmonic import HarmonicKind, harmonic_exact
from oddeuler.identities import (REFERENCE_ANCHORS, FormalCombination,
                                 adjudication_findings, catalog,
                                 catalog_by_id, evaluate_combination,
                                 finite_rearrangement_check,
                                 parse_combination, reduce,
                                 reduction_residual, reduction_target,
                                 substitute_bases, summarize, verify,
                                 verify_all)
from oddeuler.summation import EvalOptions, SumSpec, evaluate_sum, parse_sumspec
from oddeuler.zeta_algebra import ExprSyntaxError, format_expr, parse_expr

OPTS = EvalOptions(digits=40, K=10 ** 4)


# ---- catalog ----------------------------------------------------------------


def test_catalog_loads_and_is_consistent():
    entries = catalog()
    assert len(entries) == 32
    assert len({e.id for e in entries}) == 32
    for e in entries:
        assert e.expected in ("must_pass", "adjudicate")
        assert e.source
        assert e.rhs.terms


def test_catalog_has_expected_families():
    ids = {e.id for e in catalog()}
    for required in ("s1", "s2", "B2", "B4", "H1_4", "H2_3", "H3_2",
                     "T1_2_1", "T1_2_2", "T1_2_2_eq41", "T1_3_4", "T1_3_6",
                     "T1_4_5", "T2_1", "T3_1", "T4_1", "T5_1", "T6_1",
                     "eq38_intermediate", "eq67", "eq70", "recip_3_2"):
        assert required in ids, required


def test_supplementary_catalog(tmp_path):
    extra = tmp_path / "extra.jsonl"
    extra.write_text(json.dumps({
        "id": "extra_b2", "lhs": "h1/k^2", "rhs": "7/4*z3",
        "source": "test", "expected": "must_pass"}) + "\n")
    entries = catalog((str(extra),))
    assert len(entries) == 33
    assert entries[-1].id == "extra_b2"


def test_duplicate_id_rejected(tmp_path):
    extra = tmp_path / "dup.jsonl"
    extra.write_text(json.dumps({
        "id": "s1", "lhs": "h1/k^2", "rhs": "7/4*z3",
        "source": "test", "expected": "must_pass"}) + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        catalog((str(extra),))


# ---- verification -----------------------------------------------------------


def test_verify_by_id_passes():
    r = verify("s1", OPTS)
    assert r.verdict == "pass"
    assert r.id == "s1"
    assert r.digits == 40 and r.K == 10 ** 4
    with mp.workdps(40):
        assert r.residual < mp.mpf("1e-11")


def test_verify_unknown_id():
    with pytest.raises(KeyError, match="nosuch"):
        verify("nosuch")


def test_verify_transcribed_fifth_power_fails():
    r = verify("T1_2_2_eq41", OPTS)
    assert r.verdict == "fail"
    with mp.workdps(30):
        assert mp.mpf("9.0") < r.residual < mp.mpf("9.2")


def test_verify_squared_pair_combination_fails():
    r = verify("eq38_intermediate", OPTS)
    assert r.verdict == "fail"
    with mp.workdps(30):
        assert mp.mpf("0.79") < r.residual < mp.mpf("0.81")


def test_verify_quartered_combination_fails():
    r = verify("T5_1_eq81", OPTS)
    assert r.verdict == "fail"
    with mp.workdps(30):
        assert mp.mpf("1.25") < r.residual < mp.mpf("1.26")
        # residual is exactly three quarters of the sum's value
        assert abs(r.residual - 3 * r.lhs_value / 4) < mp.mpf("1e-20")


def test_verify_all_sorted_and_counted():
    reports = verify_all(OPTS, ids=["T3_1", "B2", "s1", "T1_2_2_eq41"])
    assert [r.id for r in reports] == ["B2", "T1_2_2_eq41", "T3_1", "s1"]
    stats = summarize(reports)
    assert stats["total"] == 4
    assert stats["pass"] == 3
    assert stats["fail"] == 1
    assert stats["must_pass_failures"] == []


def test_verify_all_unknown_ids():
    with pytest.raises(KeyError):
        verify_all(ids=["s1", "not_there"])


def test_verdict_tolerance_boundary():
    r = verify("s1", OPTS, tolerance="1e-2")
    assert r.verdict == "pass"
    r = verify("T5_1_eq81", OPTS, tolerance="10")
    assert r.verdict == "pass"


def test_combined_identities_pass():
    for ident in ("eq67", "eq70"):
        r = verify(ident, OPTS)
        assert r.verdict == "pass", ident


# ---- formal combinations ----------------------------------------------------


def test_parse_combination_round_trip():
    texts = ("z2*[h1/k^2] - 2*[h1/k^4]",
             "1/2*[h1/k^2]^2 - 3/2*[h1/k^4]",
             "-2*z2*z3 + 11/2*z5 - [h3/(2k-1)^2] - 1/8*[H3/(2k-1)^2]")
    for text in texts:
        comb = parse_combination(text)
        assert parse_combination(comb.text()).text() == comb.text()


def test_parse_combination_errors():
    with pytest.raises(ValueError):
        parse_combination("2*[h1/k^2")
    with pytest.raises(Exception):
        parse_combination("2*[h1/q^2]")
    # read as terms like a closed form: no term, a dangling or doubled
    # sign and a zeroth power are each rejected at a position
    for text, pos in (("", 0), ("-", 1), ("2+", 2), ("--1/2", 1),
                      ("z2+-z2", 3), ("[h1/k^2]^0", 9)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_combination(text)
        assert err.value.pos == pos, text


def test_spec_errors_positioned_in_the_whole_combination():
    # divergent and over-capped specs inside a bracket: the position of
    # the denominator's first token, counted from the start of the text
    for text, pos in (("1/2*[h1/k]", 8), ("z2 + [h1/k^101]", 9)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_combination(text)
        assert err.value.pos == pos, text


def test_verify_parses_each_catalog_line_once(monkeypatch, capsys):
    # verify loads the catalog, and the adjudication findings substitute
    # catalog closed forms again: each line's rhs is parsed only once
    from oddeuler import cli, identities
    parsed = []
    real_parse = identities.parse_expr
    monkeypatch.setattr(identities, "parse_expr",
                        lambda text: parsed.append(text) or real_parse(text))
    identities._parse_entry.cache_clear()
    assert cli.main(["verify", "--K", "1000", "--format", "csv"]) == 0
    assert "finding T1_2_2_eq41" in capsys.readouterr().err
    text = resources.files("oddeuler").joinpath("data/catalog.jsonl").read_text()
    assert len(parsed) == len([ln for ln in text.splitlines() if ln.strip()]) == 32


def test_catalog_sides_reparse_from_their_rendering():
    for e in catalog():
        parse = parse_sumspec if isinstance(e.lhs, SumSpec) else parse_combination
        assert parse(e.lhs.text()) == e.lhs, e.id
        assert parse_expr(format_expr(e.rhs)) == e.rhs, e.id


def test_combination_with_power_evaluates():
    comb = parse_combination("1/2*[h1/k^2]^2")
    res = evaluate_combination(comb, EvalOptions(digits=30))
    base = evaluate_sum(parse_sumspec("h1/k^2"), EvalOptions(digits=30))
    with mp.workdps(40):
        assert abs(res.value - base.value ** 2 / 2) < mp.mpf("1e-25")


# ---- reductions -------------------------------------------------------------


def test_reduce_first_instance_substitutes_exactly():
    comb = reduce("T1_2", 1)
    got = substitute_bases(comb)
    assert got == parse_expr("35/4*z2*z3 - 31/2*z5")
    assert format_expr(got) == "35/4*z2*z3 - 31/2*z5"


def test_reduce_second_instance_matches_catalog():
    got = substitute_bases(reduce("T1_2", 2))
    assert got == parse_expr(
        "7/5*z2^2*z3 + 217/4*z2*z5 - 381/4*z7")
    assert got == catalog_by_id()["T1_2_2"].rhs


def test_reduce_numeric_residuals():
    for rule, m in (("T1_2", 1), ("T1_2", 2), ("T1_3_4", None),
                    ("T1_4_5", None)):
        resid = reduction_residual(rule, m, EvalOptions(digits=30))
        with mp.workdps(40):
            assert resid < mp.mpf("1e-11"), (rule, m)
    # s1_pair reproduces a published combination whose claimed target it
    # misses by a stable finite amount; the mismatch is the point
    resid = reduction_residual("s1_pair", None, EvalOptions(digits=30))
    with mp.workdps(40):
        assert mp.mpf("0.79") < resid < mp.mpf("0.81")


def test_reduce_emission_verification_high_m():
    # m >= 3 emissions are numerically checked before being returned
    comb = reduce("T1_2", 3, EvalOptions(digits=25))
    assert len(comb.parts) == 4
    comb = reduce("T1_2", 4, EvalOptions(digits=25))
    assert len(comb.parts) == 5
    with pytest.raises(ValueError):
        reduce("T1_2", 7)


def test_reduce_transcribed_bad_instances():
    # two transcribed reductions do not equal their nominal target
    with mp.workdps(30):
        r6 = reduction_residual("T1_3_6", None, EvalOptions(digits=25))
        assert mp.mpf("5.2") < r6 < mp.mpf("5.4")
        r5 = reduction_residual("T5", None, EvalOptions(digits=25))
        assert mp.mpf("1.25") < r5 < mp.mpf("1.26")


def test_reduce_t5_substitution_is_quartered_form():
    got = substitute_bases(reduce("T5"))
    assert got == parse_expr("93/32*z5 - 21/16*z2*z3")


def test_reduce_s1_pair_matches_squared_combination():
    got = substitute_bases(reduce("s1_pair"))
    assert got == catalog_by_id()["eq38_intermediate"].rhs


def test_reduce_rule_errors():
    with pytest.raises(KeyError):
        reduce("nope")
    with pytest.raises(ValueError):
        reduce("T1_3_4", 2)
    with pytest.raises(ValueError):
        reduction_target("T1_2")


def test_substitute_missing_base_reported():
    comb = reduce("T1_2", 4, EvalOptions(digits=25))
    with pytest.raises(ValueError, match="h1/k\\^10"):
        substitute_bases(comb)


def test_reduction_targets():
    assert reduction_target("T1_2", 1) == parse_sumspec("h2/k^3")
    assert reduction_target("T1_3_6") == parse_sumspec("h3/k^6")
    assert reduction_target("s1_pair") == parse_sumspec("h1*h2/k^3")


# ---- anchors and findings ---------------------------------------------------


def test_reference_anchors_good_ones():
    with mp.workdps(45):
        for ident, spec in (("s1", "h1*h2/k^3"), ("T1_3_4", "h3/k^4"),
                            ("T1_3_6", "h3/k^6"), ("T1_4_5", "h4/k^5")):
            val = evaluate_sum(parse_sumspec(spec), OPTS).value
            assert abs(val - mp.mpf(REFERENCE_ANCHORS[ident])) \
                < mp.mpf("1e-12"), ident


def test_reference_anchor_s2_transcription_gap():
    # the printed decimal for s2 drops a digit; the gap is ~7e-10
    with mp.workdps(45):
        val = evaluate_sum(parse_sumspec("h1*h2/k^5"), OPTS).value
        gap = abs(val - mp.mpf(REFERENCE_ANCHORS["s2"]))
        assert mp.mpf("5e-10") < gap < mp.mpf("9e-10")


def test_reference_anchor_fifth_power_transposition():
    with mp.workdps(45):
        val = evaluate_sum(parse_sumspec("h2/k^5"), OPTS).value
        gap = abs(val - mp.mpf(REFERENCE_ANCHORS["T1_2_2"]))
        assert mp.mpf("0.02") < gap < mp.mpf("0.03")


def test_finite_rearrangement_deficit_is_exactly_twice_h2():
    for k in list(range(2, 21)) + [35, 50]:
        lhs, rhs, deficit = finite_rearrangement_check(k)
        assert deficit == 2 * harmonic_exact(HarmonicKind.odd(2), k), k
    with pytest.raises(ValueError):
        finite_rearrangement_check(1)


def test_adjudication_findings_content():
    reports = verify_all(OPTS, ids=["T1_2_2", "T1_2_2_eq41",
                                    "eq38_intermediate", "T1_3_6_eq87",
                                    "T5_1_eq81", "s2"])
    notes = adjudication_findings(reports, OPTS)
    joined = "\n".join(notes)
    assert "T1_2_2_eq41" in joined
    assert "mutually inconsistent" in joined
    assert "eq38_intermediate" in joined
    assert "T1_3_6_eq87" in joined
    assert "quarter" in joined
    assert "s2" in joined and "dropped digit" in joined


def test_adjudication_findings_empty_when_not_selected():
    reports = verify_all(OPTS, ids=["B2"])
    assert adjudication_findings(reports, OPTS) == []
