"""Check that the CLI prints the same bytes as at a parent commit.

Usage, from the repository root:

    python3 scripts/same_bytes.py PARENT_REV

Both sides are exported once with ``bench_pairs.export``: ``git archive
PARENT_REV`` for the parent, the tracked and untracked non-ignored files
of the working tree for the change.  Every argv then runs in a fresh
``python -m oddeuler.cli`` process on each side, with ``PYTHONHASHSEED=0``
and ``COLUMNS=80``.  The argvs are the golden ones (``tests/data/*.argv``),
three ``lemma-check`` corners (``LEMMA_CORNERS``), the fit-sweep ops of
``perfbench/checks.fit_ops()`` (PSLQ on at most 7 entries), four fits
on large bases (PSLQ on 11 to 30 entries), four ``eval-sum`` corners of
the harmonic value series, typed closed forms (``eval-expr``) and
substituted reductions (``reduce --substitute``), the decimal forms of
printed values and of read tolerances (``FORMATS``), ln 2, gamma and
zeta values at digit counts off the usual grid (``CONSTANTS``), config files
(``CONFIGS``, read from the files of ``CONFIG_FILES``, which are written
into each side's directory and named by relative paths, so that the
errors that name them match), argparse's usage errors and help paths
with the edges of the table parser (``USAGE_ERRORS``), report formats,
refusals and decimal extremes that no other group reaches (``BRANCHES``),
and the eight ``-h`` pages.

It prints each argv whose stdout, stderr or exit code differs, with a
short diff of the streams that differ, then a count.  The exit code is 1
when any argv differs, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("verify", "eval-sum", "eval-expr", "reduce", "fit", "list", "lemma-check")
FIELDS = ("exit code", "stdout", "stderr")
# fits whose PSLQ vector has 16, 30, 11 and 23 entries; two find a closed form
LARGE_FITS = (("fit", "h1/k^14", "--weight", "15"),
              ("fit", "h1/k^14", "--weight", "15", "--include-ln2"),
              ("fit", "h1/k^14", "--weight", "13", "--digits", "100"),
              ("fit", "h1/k^12", "--weight", "13", "--include-ln2"))
# lemma-check corners: every band at the kmax cap, one row at the digits
# cap, where the planned ratio and tail terms are largest, and the first
# row of the second band at 100 digits
LEMMA_CORNERS = (("lemma-check", "--kmax", "200", "--format", "csv"),
                 ("lemma-check", "--digits", "500", "--kmax", "1", "--format", "csv"),
                 ("lemma-check", "--kmax", "41", "--digits", "100", "--format", "csv"))
# value-series corners: an order of 100; an order above the series cap, so
# that its group 0 is cut; two series multiplied; caps near 58 at 100 digits
SERIES_CORNERS = (("eval-sum", "H100*h1/k^2"),
                  ("eval-sum", "h20/k^2"),
                  ("eval-sum", "h9*H7/k^2"),
                  ("eval-sum", "H1*h1*h2/(2k-1)^3", "--digits", "100", "--K", "100"))
# typed closed forms and substituted reductions: ln 2 and zeta letters
# mixed up to weight 5, a zero, a lone term at 10^-75 and one near 10^40,
# a pair that cancels exactly (zeta(4) = 2/5 zeta(2)^2), every T1_2
# reduction up to the one whose closed form is not catalogued (exit 2),
# and T1_2 without its m (exit 2)
MIXED = ("z3 + ln2^3 + ln2*z2 + z2*z3 - ln2^2*z3 + 7/4*ln2*z4 + z5 - 3*ln2^5"
         " + ln2^2*z2^2 + z4*ln2")
ALGEBRA = (("eval-expr", MIXED), ("eval-expr", MIXED, "--digits", "100"),
           ("eval-expr", "49/8*z3^2 - 945/128*z6", "--format", "json"), ("eval-expr", "0"),
           ("eval-expr", "1/1" + "0" * 75 + "*z3"),
           ("eval-expr", "1" + "0" * 40 + "/7*z7^3 + z3", "--digits", "100"),
           ("eval-expr", "z4 - 2/5*z2^2", "--digits", "100"),
           *(("reduce", "T1_2", "--m", str(m), "--substitute") for m in range(1, 7)),
           *(("reduce", rule, "--substitute")
             for rule in ("T1_3_4", "T1_3_6", "T1_4_5", "T5", "s1_pair")),
           ("reduce", "T1_2", "--m", "2", "--substitute", "--format", "json"),
           ("reduce", "T1_2"))
# printed and read decimals: a value whose rounding carries into one more
# digit (1.0), one printed with an exponent (1.0e-24), 500 digits,
# --tolerance as a fraction, below 10^-400, infinite and over zero (exit 2),
# and lemma-check's --tolerance just below the spacing 1e-39 (exit 2)
FORMATS = (("eval-expr", "9999999999999999999999/10000000000000000000000", "--digits", "20"),
           ("eval-expr", "1/1000000000000000000000000", "--digits", "20"),
           ("eval-expr", "z3", "--digits", "500"),
           *(("verify", "--id", "B2", "--format", "csv", "--tolerance", tolerance)
             for tolerance in ("1/3", "1e-400", "inf", "1/0")),
           ("lemma-check", "--kmax", "1", "--tolerance", "0.99999999999999999999e-39"))
# every bit of the constants reaches stdout at digit counts off the usual
# grid: ln 2 alone, gamma through H1's value series, ln 2 at 500 digits,
# zeta values from z2 to z25, zeta(3) and ln 2 through h3's odd series,
# and zeta up to the top order, z100, at the digits cap and off the grid
CONSTANTS = (*(("eval-expr", "ln2", "--digits", str(d)) for d in (20, 57, 123, 321, 500)),
             *(("eval-sum", "H1/k^2", "--K", "100", "--digits", str(d)) for d in (20, 77, 250)),
             ("eval-expr", "z3*ln2^2", "--digits", "500"),
             *(("eval-expr", "z2*z3 + z5 + z7 + z25", "--digits", str(d)) for d in (21, 99, 333)),
             ("eval-sum", "h3/k^2", "--K", "100", "--digits", "77"),
             ("eval-expr", "z2 + z3 + z64 + z100", "--digits", "500"),
             ("eval-expr", "z4*z99 - z50", "--digits", "37"))
# config files, by name: a setting is filled and echoed for every command
# but checked only by the commands that take its flag
CONFIG_FILES = {"b2_csv_d25.cfg": "digits = 25\nformat = csv\nid = B2\n",
                "bad_key.cfg": "frobs = 12\n", "k50.cfg": "K = 50\n",
                "digits501.cfg": "digits = 501\n", "tolerance_abc.cfg": "tolerance = abc\n"}
# a flag over the file, a bad key, settings that a command does not take
# (K, digits and tolerance) and that it takes (K and tolerance, exit 2),
# and a flag over a file's bad tolerance
CONFIGS = (("verify", "--config", "b2_csv_d25.cfg", "--digits", "30"),
           ("verify", "--config", "bad_key.cfg"), ("eval-expr", "z3", "--config", "k50.cfg"),
           ("list", "--id", "B2", "--config", "digits501.cfg"),
           ("eval-sum", "h1/k^2", "--config", "tolerance_abc.cfg"),
           ("fit", "h1/k^2", "--weight", "3", "--config", "tolerance_abc.cfg"),
           ("eval-sum", "h1/k^2", "--config", "k50.cfg"),
           ("verify", "--config", "tolerance_abc.cfg"),
           ("lemma-check", "--kmax", "1", "--config", "tolerance_abc.cfg", "--tolerance", "1e-5"))
# argparse's errors and help, before and after a command name: no command,
# an invalid choice, flags ahead of the command, missing, bad, ambiguous and
# leftover arguments, abbreviations, "--" and -h among other flags; then the
# edges of what the table parser reads: a value after "=", a store_true flag
# given one, a flag with no value, a repeated flag, a negative tolerance and
# positionals that start with "-"; then each flag that a command does not read
USAGE_ERRORS = ((), ("bogus",), ("--", "eval-sum", "h1/k^2"),
                ("--digits", "40", "fit", "h1/k^2", "--weight", "3"),
                ("fit",), ("fit", "h1/k^2", "--weight", "x"),
                ("fit", "h1/k^2", "--weight", "3", "--bogus"),
                ("fit", "h1/k^2", "--weight", "3", "extra"),
                ("fit", "h1/k^2", "--wei", "3", "--dig", "30"),
                ("verify", "--format", "xml"), ("eval-sum", "--", "h1/k^2"),
                ("verify", "fit"), ("fit", "-h", "--bogus"),
                ("verify", "--f", "csv"), ("verify", "--id"), ("list", "--he"),
                ("eval-sum", "-h1/k^2"), ("eval-expr", "z3", "z5"),
                ("eval-sum", "h1/k^2", "--format=json"),
                ("fit", "h1/k^2", "--weight", "3", "--include-ln2=1"),
                ("eval-sum", "h1/k^2", "--K"),
                ("eval-expr", "z3", "--digits", "20", "--digits", "30"),
                ("verify", "--id", "B2", "--tolerance", "-1"), ("eval-expr", "-7"),
                ("eval-expr", "-7/4 * z3"),
                ("eval-sum", "h1/k^2", "--tolerance", "1e-9"),
                ("eval-sum", "h1/k^2", "--catalog", "a.jsonl"), ("eval-expr", "z3", "--K", "100"),
                ("eval-expr", "z3", "--tolerance", "1e-9"),
                ("eval-expr", "z3", "--catalog", "a.jsonl"),
                ("fit", "h1/k^2", "--weight", "3", "--tolerance", "1e-9"),
                ("fit", "h1/k^2", "--weight", "3", "--catalog", "a.jsonl"),
                ("list", "--digits", "30"), ("list", "--K", "100"), ("list", "--tolerance", "1e-9"),
                ("lemma-check", "--K", "100"), ("lemma-check", "--catalog", "a.jsonl"))
# paths that no other group reaches: JSON reports of verify, list, fit (a
# closed form and no fit) and lemma-check; CSV from eval-sum and eval-expr;
# an unmatched --family and an unknown --id (exit 2); a flag below and
# above its range and lemma-check's kmax * digits budget (exit 2); a
# tolerance read past 10^-400 and a value printed past 2^3500, which take
# highfloat's directed rounding
BRANCHES = (("verify", "--id", "B2", "--format", "json"),
            ("list", "--family", "T1_*", "--format", "json"), ("list", "--family", "nomatch*"),
            ("verify", "--id", "nosuch"), ("eval-sum", "h1/k^2", "--format", "csv"),
            ("eval-expr", "z3", "--format", "csv"),
            ("fit", "h1/k^2", "--weight", "3", "--format", "json"),
            ("fit", "h1*h1/k^5", "--weight", "7", "--format", "json"),
            ("lemma-check", "--kmax", "2", "--format", "json"),
            ("lemma-check", "--kmax", "100", "--digits", "101"),
            ("fit", "h1/k^2", "--weight", "0"), ("lemma-check", "--kmax", "201"),
            ("verify", "--id", "B2", "--tolerance", "1e-2000"), ("eval-expr", "z2^5000"))


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def argvs() -> list[tuple[str, ...]]:
    """Every argv to compare, read from the working tree."""
    golden = [tuple(path.read_text().splitlines())
              for path in sorted((ROOT / "tests" / "data").glob("*.argv"))]
    fits = [tuple(op["argv"]) for op in _load("checks", ROOT / "perfbench" / "checks.py").fit_ops()]
    helps = [("-h",)] + [(command, "-h") for command in COMMANDS]
    return golden + list(LEMMA_CORNERS) + fits + \
        list(LARGE_FITS) + list(SERIES_CORNERS) + list(ALGEBRA) + list(FORMATS) + \
        list(CONSTANTS) + list(CONFIGS) + list(USAGE_ERRORS) + list(BRANCHES) + helps


def run(side_dir: Path, argv: tuple[str, ...]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one CLI run in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(side_dir / "src"), "PYTHONHASHSEED": "0",
           "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "oddeuler.cli", *argv], cwd=side_dir,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def compare(parent: dict, change: dict) -> list[tuple[tuple, list[str]]]:
    """(argv, names of the differing fields) for each argv whose run
    differs; parent and change map an argv to (exit code, stdout, stderr)."""
    return [(argv, [name for name, p, c in zip(FIELDS, parent[argv], change[argv]) if p != c])
            for argv in parent if parent[argv] != change[argv]]


def _diff(old: str, new: str) -> list[str]:
    # up to 20 lines of the diff, past its two file headers
    lines = difflib.unified_diff(old.splitlines(), new.splitlines(), lineterm="", n=0)
    return list(lines)[2:22]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    args = parser.parse_args(argv)
    export = _load("bench_pairs", ROOT / "scripts" / "bench_pairs.py").export
    todo = argvs()
    results = {}
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        for side in ("parent", "change"):
            side_dir = Path(tmp) / side
            side_dir.mkdir()
            export(side, args.parent, side_dir)
            for name, text in CONFIG_FILES.items():
                (side_dir / name).write_text(text)
            results[side] = {argv: run(side_dir, argv) for argv in todo}
    differ = compare(results["parent"], results["change"])
    for cmd, fields in differ:
        print(f"differs in {', '.join(fields)}: {shlex.join(cmd)}")
        for field in fields:
            i = FIELDS.index(field)
            old, new = results["parent"][cmd][i], results["change"][cmd][i]
            lines = [f"parent {old}, change {new}"] if i == 0 else _diff(old, new)
            print("\n".join(f"    {line}" for line in lines))
    print(f"{len(todo)} argvs, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
