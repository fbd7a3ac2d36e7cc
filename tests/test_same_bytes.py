"""scripts/same_bytes.py: which argvs a byte comparison reports."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "scripts" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_compare_names_each_differing_argv_and_field():
    parent = {("list",): (0, "a\n", "config\n"),
              ("verify", "-h"): (0, "help\n", ""),
              ("fit", "x"): (0, "z3\n", "warn\n"),
              ("eval-sum", "h1/k"): (2, "", "error: diverges\n")}
    change = {("list",): (0, "a\n", "config\n"),
              ("verify", "-h"): (0, "help, new\n", ""),
              ("fit", "x"): (0, "z3\n", "warn, new\n"),
              ("eval-sum", "h1/k"): (1, "1.0\n", "error: diverges\n")}
    assert same_bytes.compare(parent, change) == [
        (("verify", "-h"), ["stdout"]),
        (("fit", "x"), ["stderr"]),
        (("eval-sum", "h1/k"), ["exit code", "stdout"])]


def test_compare_of_identical_runs_is_empty():
    runs = {("reduce", "T5"): (0, "T5 = ...\n", "config: digits=40\n")}
    assert same_bytes.compare(runs, dict(runs)) == []


def test_argvs_cover_goldens_fits_and_help_pages():
    argvs = same_bytes.argvs()
    assert len(argvs) == 16 + 3 + 144 + 4 + 4 + 20 + 8 + 15 + 9 + 37 + 14 + 8
    assert len(set(argvs)) == len(argvs)
    assert ("lemma-check", "--format", "csv") in argvs
    assert ("lemma-check", "--kmax", "200", "--format", "csv") in argvs
    assert set(same_bytes.LEMMA_CORNERS) < set(argvs)
    assert argvs[-8:] == [("-h",)] + [(c, "-h") for c in same_bytes.COMMANDS]
    # six usage errors, one config run and three branch runs are fits
    # with --weight too
    assert sum(argv[:1] == ("fit",) and "--weight" in argv
               for argv in argvs) == 144 + 4 + 6 + 1 + 3
    assert set(same_bytes.LARGE_FITS) < set(argvs)
    assert set(same_bytes.SERIES_CORNERS) < set(argvs)
    assert set(same_bytes.ALGEBRA) < set(argvs)
    assert set(same_bytes.FORMATS) < set(argvs)
    assert set(same_bytes.CONSTANTS) < set(argvs)
    assert set(same_bytes.CONFIGS) < set(argvs)
    # each config run names one of the files written into each side
    assert all(argv[argv.index("--config") + 1] in same_bytes.CONFIG_FILES
               for argv in same_bytes.CONFIGS)
    assert set(same_bytes.USAGE_ERRORS) < set(argvs)
    assert set(same_bytes.BRANCHES) < set(argvs)
