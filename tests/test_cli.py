"""Command-line behavior: formats, exit codes, determinism, config."""

import json
import subprocess
import sys

import mpmath as mp
import pytest

CSV_HEADER = "id,lhs_value,rhs_value,residual,tolerance,verdict,digits,K"


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "oddeuler.cli", *argv],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def test_verify_single_id_json():
    rc, out, err = run_cli("verify", "--id", "s1", "--digits", "40",
                           "--format", "json")
    assert rc == 0
    records = json.loads(out)
    assert len(records) == 1
    rec = records[0]
    assert rec["id"] == "s1"
    assert rec["verdict"] == "pass"
    assert rec["digits"] == 40
    assert rec["K"] == 10 ** 4
    # numbers arrive as decimal strings and parse back to the same values
    with mp.workdps(40):
        lhs = mp.mpf(rec["lhs_value"])
        rhs = mp.mpf(rec["rhs_value"])
        assert abs(lhs - rhs) <= mp.mpf(rec["tolerance"])


def test_json_round_trip_fields():
    rc, out, _ = run_cli("verify", "--id", "B2", "--format", "json")
    assert rc == 0
    rec = json.loads(out)[0]
    assert set(rec) == {"id", "lhs_value", "rhs_value", "residual",
                        "tolerance", "verdict", "digits", "K"}
    for key in ("lhs_value", "rhs_value", "residual", "tolerance"):
        assert isinstance(rec[key], str)
        mp.mpf(rec[key])


def test_csv_header_exact():
    rc, out, _ = run_cli("verify", "--id", "B2", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == CSV_HEADER


def test_eval_expr_divergent_exits_2():
    rc, out, err = run_cli("eval-expr", "z1")
    assert rc == 2
    assert "zeta(1) divergent" in err


def test_reduce_substitute_exact_stdout():
    rc, out, _ = run_cli("reduce", "T1_2", "--m", "1", "--substitute")
    assert rc == 0
    assert out == "35/4*z2*z3 - 31/2*z5\n"


def test_reduce_combination_text():
    rc, out, _ = run_cli("reduce", "T1_2", "--m", "1")
    assert rc == 0
    assert out.strip() == "z2*[h1/k^2] - 2*[h1/k^4]"


def test_eval_sum_reports_error_estimate():
    rc, out, _ = run_cli("eval-sum", "h1/k^2", "--digits", "25",
                         "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    with mp.workdps(35):
        want = mp.mpf("2.103599580529289999449541782645")
        assert abs(mp.mpf(rec["value"]) - want) < mp.mpf("1e-22")
        assert mp.mpf(rec["err_estimate"]) < mp.mpf("1e-15")
    assert rec["K"] == 10 ** 4
    assert rec["digits"] == 25


def test_eval_sum_malformed_exits_2():
    rc, _, err = run_cli("eval-sum", "h1/q^2")
    assert rc == 2
    assert "position" in err


def test_eval_sum_divergent_exits_2():
    rc, _, err = run_cli("eval-sum", "h1/k")
    assert rc == 2
    assert "diverges" in err


def test_unknown_subcommand_exits_2():
    rc, _, _ = run_cli("frobnicate")
    assert rc == 2


def test_unknown_flag_exits_2():
    rc, _, _ = run_cli("verify", "--bogus")
    assert rc == 2


def test_unknown_id_exits_2():
    rc, _, err = run_cli("verify", "--id", "nope")
    assert rc == 2
    assert "nope" in err


def test_must_pass_failure_exits_1(tmp_path):
    extra = tmp_path / "bad.jsonl"
    extra.write_text(json.dumps({
        "id": "bogus_claim", "lhs": "h1/k^2", "rhs": "2*z3",
        "source": "test", "expected": "must_pass"}) + "\n")
    rc, out, err = run_cli("verify", "--catalog", str(extra),
                           "--id", "bogus_claim")
    assert rc == 1
    assert "fail" in out
    assert "must_pass failures: 1" in err


def test_adjudicated_failure_keeps_exit_0():
    rc, out, _ = run_cli("verify", "--id", "T5_1_eq81")
    assert rc == 0
    assert "fail" in out


def test_stdout_byte_identical_across_runs():
    args = ("verify", "--family", "T3_*", "--format", "csv")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_family_glob_selects():
    rc, out, _ = run_cli("verify", "--family", "T3_*", "--format", "csv")
    ids = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert ids == ["T3_1", "T3_2"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 25\nformat = csv\nid = B2\n")
    rc, out, err = run_cli("verify", "--config", str(cfg), "--digits", "30")
    assert rc == 0
    assert out.splitlines()[0] == CSV_HEADER
    assert "digits=30" in err.splitlines()[0]
    assert "format=csv" in err.splitlines()[0]
    row = out.splitlines()[1].split(",")
    assert row[0] == "B2" and row[6] == "30"


def test_config_file_bad_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobs = 12\n")
    rc, _, err = run_cli("verify", "--config", str(cfg))
    assert rc == 2
    assert "frobs" in err


def test_resolved_config_echoed_to_stderr():
    rc, out, err = run_cli("eval-expr", "7/4*z3")
    assert rc == 0
    assert err.startswith("config: ")
    assert "digits=40" in err
    assert "config:" not in out


def test_findings_go_to_stderr_not_stdout():
    rc, out, err = run_cli("verify", "--id", "T1_2_2", "--id", "T1_2_2_eq41",
                           "--format", "csv")
    assert rc == 0
    assert "finding T1_2_2_eq41" in err
    assert "finding" not in out
    assert "summary:" in err


def test_list_catalog():
    rc, out, _ = run_cli("list", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "id,lhs,rhs,source,expected"
    assert len(lines) == 33
    rc, out, _ = run_cli("list", "--family", "B*", "--format", "csv")
    ids = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert ids == ["B2", "B4", "B6", "B8"]


def test_lemma_check_small():
    rc, out, _ = run_cli("lemma-check", "--kmax", "2", "--digits", "25",
                         "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# convention:")
    assert lines[1] == "check,k,truncated,closed,residual,verdict"
    assert len(lines) == 2 + 8 * 2
    assert all(line.endswith("pass") for line in lines[2:])


@pytest.mark.parametrize("kmax", ("0", "-3"))
def test_lemma_check_rejects_kmax_below_1(kmax):
    rc, out, err = run_cli("lemma-check", "--kmax", kmax)
    assert rc == 2
    assert out == ""
    assert f"error: --kmax must be >= 1, got {kmax}" in err.splitlines()


@pytest.mark.parametrize("command", (("verify",), ("eval-expr", "z3")))
@pytest.mark.parametrize("flag,value,message", (
    ("--digits", "19", "error: digits must be >= 20, got 19"),
    ("--K", "99", "error: K must be >= 100, got 99")))
def test_low_digits_and_k_exit_2(command, flag, value, message):
    rc, out, err = run_cli(*command, flag, value)
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [message]


def test_config_tolerance_overrides_lemma_default(tmp_path):
    rc, _, err = run_cli("lemma-check", "--kmax", "1", "--digits", "20")
    assert rc == 0
    assert "tolerance=1e-9" in err.splitlines()[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-3\n")
    rc, out, err = run_cli("lemma-check", "--kmax", "1", "--digits", "20",
                           "--config", str(cfg), "--format", "csv")
    assert rc == 0
    assert "tolerance=1e-3" in err.splitlines()[0]
    assert all(line.endswith("pass") for line in out.splitlines()[2:])


def test_lemma_check_convention_documented():
    rc, out, _ = run_cli("lemma-check", "--kmax", "1", "--digits", "25")
    assert rc == 0
    first = out.splitlines()[0]
    assert "sign" in first and "odd order" in first and "even order" in first


def test_table_format_aligned():
    rc, out, _ = run_cli("verify", "--id", "B2", "--format", "table")
    assert rc == 0
    header = out.splitlines()[0]
    for field in CSV_HEADER.split(","):
        assert field in header
