"""Command-line behavior: formats, exit codes, determinism, config."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from oddeuler import cli
from oddeuler.highfloat import parse_real

CSV_HEADER = "id,lhs_value,rhs_value,residual,tolerance,verdict,digits,K"

DATA = Path(__file__).parent / "data"


def run_cli(*argv, env=None):
    proc = subprocess.run([sys.executable, "-m", "oddeuler.cli", *argv],
                          capture_output=True, text=True, timeout=600, env=env)
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
    assert "error: sum diverges: need k and (2k-1) powers totalling >= 2 " \
        "(position 3)" in err.splitlines()


@pytest.mark.parametrize("argv", (("eval-sum", "h1/k^20000", "--digits", "20"),
                                  ("fit", "h1/k^101", "--weight", "6"),
                                  ("list", "--catalog", "{catalog}")))
def test_denominator_power_above_cap_exits_2(tmp_path, argv):
    # refused while parsing, before any sum is evaluated
    extra = tmp_path / "big.jsonl"
    extra.write_text(json.dumps({
        "id": "big_power", "lhs": "h1/k^101", "rhs": "z2",
        "source": "test", "expected": "must_pass"}) + "\n")
    rc, out, err = run_cli(*(a.format(catalog=extra) for a in argv))
    assert rc == 2
    assert out == ""
    # a catalog line's error names its file and line
    where = f"{extra}:1: " if "--catalog" in argv else ""
    assert f"error: {where}k and (2k-1) powers must total <= 100 (position 3)" \
        in err.splitlines()


@pytest.mark.parametrize("argv,message", (
    (("eval-expr", "z101"), "zeta indices must be <= 100 (position 0)"),
    (("eval-expr", "z650", "--digits", "20"), "zeta indices must be <= 100 (position 0)"),
    (("eval-sum", "h650/k^2"), "harmonic orders must be <= 100 (position 0)"),
    (("eval-sum", "h1*H5000/k^2"), "harmonic orders must be <= 100 (position 3)"),
    (("fit", "H101/(2k-1)^2", "--weight", "6"), "harmonic orders must be <= 100 (position 0)"),
    (("list", "--catalog", "{catalog}"), "zeta indices must be <= 100 (position 11)")))
def test_zeta_index_and_harmonic_order_above_cap_exit_2(tmp_path, argv, message):
    # refused while parsing, before any constant or sum is computed
    extra = tmp_path / "big.jsonl"
    extra.write_text(json.dumps({
        "id": "big_zeta", "lhs": "h1/k^2", "rhs": "7/4*z3 + 0*z101",
        "source": "test", "expected": "must_pass"}) + "\n")
    rc, out, err = run_cli(*(a.format(catalog=extra) for a in argv))
    assert rc == 2
    assert out == ""
    where = f"{extra}:1: " if "--catalog" in argv else ""
    assert f"error: {where}{message}" in err.splitlines()


@pytest.mark.parametrize("line,message", (
    ("[1, 2]", "expected a JSON object with string fields id, lhs, rhs, source, expected"),
    ('{"id": 5, "lhs": "h1/k^2", "rhs": "z3", "source": "t", "expected": "must_pass"}',
     "field 'id' must be a string, got 5"),
    ('{"id": "x", "rhs": "z3", "source": "t", "expected": "must_pass"}',
     "missing field 'lhs'"),
    ('{"id": "x", "lhs": "h1/k^2", "rhs": "7/4*", "source": "t", "expected": "must_pass"}',
     "expected symbol after '*' (position 4)"),
    ("{'id': 'x'}", "Expecting property name enclosed in double quotes (column 2)")),
    ids=("not-object", "id-not-string", "missing-lhs", "bad-rhs", "bad-json"))
def test_malformed_catalog_line_exits_2_naming_file_and_line(tmp_path, line, message):
    # line 3: a good entry and a blank line come first
    extra = tmp_path / "extra.jsonl"
    extra.write_text(json.dumps({"id": "ok", "lhs": "h1/k^2", "rhs": "7/4*z3",
                                 "source": "t", "expected": "must_pass"}) + "\n\n" + line + "\n")
    rc, out, err = run_cli("list", "--catalog", str(extra))
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1] == f"error: {extra}:3: {message}"


def test_zeta_index_and_harmonic_order_at_cap_accepted():
    rc, out, _ = run_cli("eval-expr", "z100", "--digits", "20")
    assert rc == 0
    assert "value = 1.0" in out
    rc, _, _ = run_cli("eval-sum", "H100/(2k-1)^2", "--digits", "20", "--K", "100")
    assert rc == 0


def test_unknown_subcommand_exits_2():
    rc, _, err = run_cli("frobnicate")
    assert rc == 2
    assert err.splitlines()[-1].startswith(
        "oddeuler: error: argument command: invalid choice: 'frobnicate'")


def test_unknown_flag_exits_2():
    # a command's leftover arguments are reported under the top-level prog
    rc, _, err = run_cli("verify", "--bogus")
    assert rc == 2
    assert err.splitlines()[-1] == "oddeuler: error: unrecognized arguments: --bogus"


def test_bad_flag_value_exits_2_under_the_command_prog():
    rc, out, err = run_cli("fit", "h1/k^2", "--weight", "x")
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1] == "oddeuler fit: error: argument --weight: invalid int value: 'x'"


def test_unknown_id_exits_2():
    rc, _, err = run_cli("verify", "--id", "nope")
    assert rc == 2
    # a KeyError's message is printed without the quotes str() would add
    assert "error: unknown identity ids: ['nope']" in err.splitlines()


def test_unknown_ids_named_in_order_given():
    rc, out, err = run_cli("verify", "--id", "nope", "--id", "gone")
    assert rc == 2
    assert out == ""
    assert "error: unknown identity ids: ['nope', 'gone']" in err.splitlines()


@pytest.mark.parametrize("flag,name", (("--config", "missing.cfg"),
                                       ("--catalog", "nope.jsonl")))
def test_missing_file_exits_2_naming_it(tmp_path, flag, name):
    rc, out, err = run_cli("list", flag, str(tmp_path / name))
    assert rc == 2
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and name in errors[0], err


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


@pytest.mark.parametrize("text,lineno,key,value", (
    ("digits = abc\n", 1, "digits", "abc"),
    ("# run\nformat = csv\nK = 1e4\n", 3, "K", "1e4"),
    ("digits = 30\nformat = xml\n", 2, "format", "xml")), ids=("digits", "K", "format"))
def test_config_file_bad_value_names_path_line_and_key(tmp_path, text, lineno, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc, out, err = run_cli("verify", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [f"error: {cfg}:{lineno}: bad value {value!r} for key {key!r}"]


def test_verify_warns_when_the_error_estimate_exceeds_the_tolerance():
    # at K = 100 each sum's own estimate is far above 1e-35, so no verdict
    # can be trusted; the report and the exit code are what they were
    rc, out, err = run_cli("verify", "--K", "100", "--tolerance", "1e-35", "--format", "csv")
    assert rc == 1
    rows = out.splitlines()[1:]
    assert len(rows) == 32 and all(row.split(",")[5] == "fail" for row in rows)
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 32
    assert ("warning: s1: error estimate 1.3e-23 exceeds the tolerance 1e-35; "
            "the verdict cannot be trusted") in warnings
    # at the defaults every estimate is far below the tolerance
    rc, _, err = run_cli("verify")
    assert rc == 0
    assert "warning" not in err


@pytest.mark.parametrize("digits", (20, 22, 24, 27, 28))
def test_a_tolerance_typed_at_the_error_floor_gives_no_warning(digits, capsys):
    # B2's estimate is the floor 10^(8 - digits); a tolerance typed equal to
    # it is read as typed, not through a double that may lie below it
    assert cli.main(["verify", "--id", "B2", "--digits", str(digits),
                     "--tolerance", f"1e-{digits - 8}", "--format", "csv"]) == 0
    assert "warning:" not in capsys.readouterr().err


def test_verify_reads_the_typed_tolerance_at_digits_plus_10(monkeypatch):
    seen = []
    emit = cli.emit_report
    monkeypatch.setattr(cli, "emit_report",
                        lambda reports, fmt: seen.extend(reports) or emit(reports, fmt))
    assert cli.main(["verify", "--id", "B2", "--digits", "40", "--tolerance", "1/3",
                     "--format", "csv"]) == 0
    assert [r.tolerance._mpf_ for r in seen] == [parse_real("1/3", 50).round(40)._mpf_]


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


@pytest.mark.parametrize("max_den", ("0", "-3"))
def test_fit_rejects_max_den_below_1(max_den):
    rc, out, err = run_cli("fit", "h1/k^2", "--weight", "3", "--max-den", max_den)
    assert rc == 2
    assert out == ""
    assert f"error: --max-den must be >= 1, got {max_den}" in err.splitlines()


def test_lemma_check_rejects_kmax_above_cap():
    rc, out, err = run_cli("lemma-check", "--kmax", "201")
    assert rc == 2
    assert out == ""
    assert "error: --kmax must be <= 200, got 201" in err.splitlines()


@pytest.mark.parametrize("command", (("verify",), ("eval-sum", "h1/k^2")))
def test_k_above_cap_exits_2(command):
    rc, out, err = run_cli(*command, "--K", "1000001")
    assert rc == 2
    assert out == ""
    assert err.splitlines() == ["error: K must be <= 1000000, got 1000001"]


# cost guards: the refusals, not the costly runs
@pytest.mark.parametrize("argv,message", (
    (("verify", "--digits", "501"), "error: digits must be <= 500, got 501"),
    (("eval-expr", "z3", "--digits", "501"), "error: digits must be <= 500, got 501"),
    (("fit", "h1/k^2", "--weight", "16"), "error: --weight must be <= 15, got 16"),
    (("lemma-check", "--digits", "500", "--kmax", "21"),
     "error: --kmax * digits must be <= 10000, got 21 * 500")))
def test_digits_and_weight_above_cap_exit_2(argv, message):
    rc, out, err = run_cli(*argv)
    assert rc == 2
    assert out == ""
    assert message in err.splitlines()


@pytest.mark.parametrize("weight", ("0", "-2"))
def test_weight_below_1_exits_2(weight):
    rc, out, err = run_cli("fit", "h1/k^2", "--weight", weight)
    assert rc == 2
    assert out == ""
    assert f"error: --weight must be >= 1, got {weight}" in err.splitlines()


def test_fit_accepts_weight_1():
    rc, out, _ = run_cli("fit", "1/(k*(2k-1))", "--weight", "1", "--include-ln2")
    assert rc == 0
    assert out == "2*ln2\n"


# inf would pass every entry and nan, 0 or -1 fail every one; nan would
# also pass lemma-check's spacing check; abc is no number at all
@pytest.mark.parametrize("command,value", (
    ("verify", "inf"), ("verify", "nan"), ("verify", "0"), ("verify", "-1"),
    ("lemma-check", "nan"), ("lemma-check", "-inf"), ("verify", "abc")))
@pytest.mark.parametrize("source", ("flag", "config"))
def test_tolerance_not_positive_finite_exits_2(command, value, source, tmp_path):
    if source == "flag":
        argv = (f"--tolerance={value}",)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tolerance = {value}\n")
        argv = ("--config", str(cfg))
    rc, out, err = run_cli(command, *argv)
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: tolerance must be a positive finite number, got {value}"]


def test_lemma_check_runs_at_the_digits_cap():
    # the closed sides work at digits + 15, so the cap may not bind below it
    rc, out, _ = run_cli("lemma-check", "--digits", "500", "--kmax", "1", "--format", "csv")
    assert rc == 0
    assert len(out.splitlines()) == 2 + 8


def _goldens():
    # tests/data/<name>.argv holds one argument per line; <name>.<ext> is
    # the stdout the CLI printed for it when the golden was saved
    for argv_file in sorted(DATA.glob("*.argv")):
        outs = [p for p in DATA.glob(argv_file.stem + ".*") if p.suffix != ".argv"]
        assert len(outs) == 1, f"{argv_file.name} needs exactly one output file"
        argv = argv_file.read_text().splitlines()
        yield pytest.param(argv, outs[0], id=f"{argv[0]}-{outs[0].name}")


# stdout saved before a change to the summation engine: the CLI contract
# is byte-identical stdout, err_estimate digits included; a new golden is
# a data-only addition
@pytest.mark.parametrize("argv,golden", _goldens())
def test_default_csv_stdout_matches_golden(argv, golden):
    rc, out, _ = run_cli(*argv)
    assert rc == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("command", ("oddeuler", "verify", "eval-sum", "eval-expr",
                                     "reduce", "fit", "list", "lemma-check"))
def test_help_matches_golden(command):
    # tests/data/help/<command>.txt is the help at an 80-column terminal
    argv = ["-h"] if command == "oddeuler" else [command, "-h"]
    rc, out, _ = run_cli(*argv, env={**os.environ, "COLUMNS": "80"})
    assert rc == 0
    assert out == (DATA / "help" / f"{command}.txt").read_text()


@pytest.mark.parametrize("command", (("verify",), ("eval-expr", "z3")))
@pytest.mark.parametrize("flag,value,message", (
    ("--digits", "19", "error: digits must be >= 20, got 19"),
    ("--K", "99", "error: K must be >= 100, got 99")))
def test_low_digits_and_k_exit_2(command, flag, value, message):
    rc, out, err = run_cli(*command, flag, value)
    assert rc == 2
    assert out == ""
    assert err.splitlines() == [message]


def test_lemma_check_rejects_tolerance_below_printed_spacing():
    rc, out, err = run_cli("lemma-check", "--kmax", "1", "--digits", "20",
                           "--tolerance", "1e-30")
    assert rc == 2
    assert out == ""
    assert ("error: --tolerance 1e-30 is below 1e-19, the spacing of the "
            "printed values") in err.splitlines()
    # the spacing itself is accepted (the 1e-9 default is run below)
    rc, out, _ = run_cli("lemma-check", "--kmax", "1", "--digits", "20",
                         "--tolerance", "1e-19", "--format", "csv")
    assert rc == 0
    assert len(out.splitlines()) == 2 + 8


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


def test_import_skips_importlib_resources():
    # the shipped catalog is read with open(), so start-up does not import
    # importlib.resources (with pathlib and tempfile).  -S skips the site
    # hooks, which may import it themselves; the path is this process's.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path[:0] = {[src] + sys.path!r}; import oddeuler.cli; "
            "print('importlib.resources' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_start_up_and_a_fit_skip_the_record_machinery():
    # the frozen records come from numerics.record, not dataclasses (which
    # imports inspect, ast and dis), and no module imports typing; neither
    # at import nor during a command
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "\n".join([
        f"import sys; sys.path[:0] = {[src] + sys.path!r}",
        "import oddeuler.cli",
        "names = ('dataclasses', 'inspect', 'typing')",
        "at_import = [n for n in names if n in sys.modules]",
        "rc = oddeuler.cli.main(['fit', 'h1/k^2', '--weight', '3', '--K', '100'])",
        "print(at_import, [n for n in names if n in sys.modules], rc)"])
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] [] 0"


@pytest.mark.parametrize("argv", (
    ["fit", "h1/k^2", "--weight", "3"], ["eval-sum", "h1/k^2"], ["verify", "--id", "B2"],
    ["lemma-check", "--kmax", "2"], ["list"], ["reduce", "T5", "--substitute"],
    ["eval-expr", "z3"]), ids=lambda argv: argv[0])
def test_start_up_and_every_command_skip_mpmath_and_shutil(argv):
    # the package computes, rounds, parses and prints its numbers itself,
    # and sizes its help without shutil: neither module is loaded at import
    # or by the command, so none is merely imported later
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "\n".join([
        f"import sys, io, contextlib; sys.path[:0] = {[src] + sys.path!r}",
        "import oddeuler.cli",
        "names = ('mpmath', 'shutil')",
        "at_import = [n for n in names if n in sys.modules]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    rc = oddeuler.cli.main({argv!r})",
        "print(at_import, [n for n in names if n in sys.modules], rc)"])
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] [] 0"


def _subparser(name):
    # the command's parser as a subparser of the full parser
    full = cli._build_parser()
    sub, = (a for a in full._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


@pytest.mark.parametrize("name", tuple(cli._COMMANDS))
def test_one_command_parser_help_and_usage_match_the_subparser(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    one, sub = cli._command(name), _subparser(name)
    assert one.prog == sub.prog == f"oddeuler {name}"
    assert one.format_help() == sub.format_help()
    assert one.format_usage() == sub.format_usage()


@pytest.mark.parametrize("argv", (
    ("verify",),
    ("verify", "--id", "s1", "--id", "B2", "--family", "T1_*", "--digits", "30"),
    ("verify", "--catalog", "a.jsonl", "--catalog", "b.jsonl", "--config", "run.cfg"),
    ("eval-sum", "h1/k^2", "--K", "100", "--format", "json"),
    ("eval-sum", "--", "h1/k^2"),
    ("eval-expr", "7/4*z3", "--tolerance=1e-9"),
    ("reduce", "T1_2", "--m", "6", "--substitute"),
    ("fit", "h1/k^2", "--wei", "3", "--dig", "30"),
    ("fit", "--include-ln2", "h1/k^2", "--weight", "3", "--max-den", "12"),
    ("list", "--family", "B*", "--format", "csv"),
    ("lemma-check",),
    ("lemma-check", "--kmax", "3", "--tolerance", "1e-5")))
def test_one_command_parser_and_full_parser_give_the_same_namespace(argv):
    args, extra = cli._command(argv[0]).parse_known_args(argv[1:])
    assert extra == []
    full = vars(cli._build_parser().parse_args(argv))
    assert full.pop("command") == argv[0]
    assert vars(args) == full


def test_a_command_builds_only_its_own_parser(monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kw):
        made.append(kw.get("prog"))
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli.main(["fit", "h1/k^2", "--weight", "3", "--K", "100"]) == 0
    assert made == ["oddeuler fit"]
