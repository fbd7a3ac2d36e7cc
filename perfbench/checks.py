"""Output checks for the three workloads, against reference.json.

The reference data is a copy of the shipped catalog, the frozen 52- and
30-digit sum values of the test suite, the verdicts the catalog is known
to produce, and the fit ops that print "no fit" at the seed.  Closed
sides are evaluated here with mpmath's own zeta and log, independent of
the package's constants.

``check`` judges one child result and returns an Outcome: ``ok`` when
the output is right, ``known_miss`` for a "no fit" the seed already
printed (counted against ok_share but not as a failure), and otherwise a
failure message.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
CATALOG = {e["id"]: e for e in REFERENCE["catalog"]}
VERIFY_HEADER = "id,lhs_value,rhs_value,residual,tolerance,verdict,digits,K"
LEMMA_HEADER = "check,k,truncated,closed,residual,verdict"
LEMMA_CHECKS = (["lemma1_aux"] + [f"lemma2_g n={n}" for n in (1, 2, 3)]
                + [f"lemma3_f m={m}" for m in (1, 2, 3, 4)])
LEMMA_KMAX = 20
TRUTH_DPS = 70
SUM_TOL_52 = mp.mpf("1e-35")
SUM_TOL_30 = mp.mpf("1e-28")

_FACTOR = re.compile(r"^(?:z(\d+)|ln2)(?:\^(\d+))?$")


@dataclass
class Outcome:
    ok: bool
    known_miss: bool = False
    digits: float | None = None
    message: str = ""


@lru_cache(maxsize=None)
def closed_form_value(text: str) -> mp.mpf:
    """Value of 'c*z3^2*ln2 - ...' at TRUTH_DPS digits, via mpmath."""
    with mp.workdps(TRUTH_DPS):
        total = mp.mpf(0)
        for sign, term in re.findall(r"([+-]?)\s*([^+-]+)",
                                     text.replace(" ", "")):
            value = mp.mpf(-1 if sign == "-" else 1)
            for factor in term.split("*"):
                m = _FACTOR.match(factor)
                if m is None:
                    c = Fraction(factor)
                    value *= mp.mpf(c.numerator) / c.denominator
                    continue
                base = mp.zeta(int(m.group(1))) if m.group(1) else mp.log(2)
                value *= base ** int(m.group(2) or 1)
            total += value
        return total


def _digits(error) -> float:
    """-log10 of an absolute error; an exact zero reads as TRUTH_DPS."""
    error = abs(mp.mpf(error))
    return TRUTH_DPS if error == 0 else float(-mp.log10(error))


def _parse_csv(text: str, header: str) -> list[dict] | str:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != header:
        return f"header {lines[0] if lines else ''!r} != {header!r}"
    return list(csv.DictReader(io.StringIO("\n".join(lines) + "\n")))


def check_verify(result: dict) -> Outcome:
    rows = _parse_csv(result["stdout"], VERIFY_HEADER)
    if isinstance(rows, str):
        return Outcome(False, message=rows)
    if sorted(r["id"] for r in rows) != sorted(CATALOG):
        return Outcome(False, message=f"{len(rows)} rows, ids differ from catalog")
    if len(result.get("units", rows)) != len(rows):
        return Outcome(False, message=f"{len(result['units'])} timed entries")
    failed = sorted(r["id"] for r in rows if r["verdict"] != "pass")
    if failed != sorted(REFERENCE["verify_fail_ids"]):
        return Outcome(False, message=f"fail set {failed}")
    worst = mp.mpf(0)
    with mp.workdps(TRUTH_DPS):
        for r in rows:
            entry = CATALOG[r["id"]]
            if abs(mp.mpf(r["rhs_value"]) - closed_form_value(entry["rhs"])) > SUM_TOL_52:
                return Outcome(False, message=f"{r['id']}: rhs_value off")
            lhs = entry["lhs"]
            if lhs in REFERENCE["sums_52"]:
                ref, tol = REFERENCE["sums_52"][lhs], SUM_TOL_52
            elif lhs in REFERENCE["sums_30"]:
                ref, tol = REFERENCE["sums_30"][lhs], SUM_TOL_30
            else:
                ref = None
            if ref is not None and abs(mp.mpf(r["lhs_value"]) - mp.mpf(ref)) > tol:
                return Outcome(False, message=f"{r['id']}: lhs_value off")
            if entry["expected"] == "must_pass":
                worst = max(worst, mp.mpf(r["residual"]))
    return Outcome(True, digits=_digits(worst))


def check_lemma(result: dict) -> Outcome:
    rows = _parse_csv(result["stdout"], LEMMA_HEADER)
    if isinstance(rows, str):
        return Outcome(False, message=rows)
    want = [(c, str(k)) for c in LEMMA_CHECKS for k in range(1, LEMMA_KMAX + 1)]
    if [(r["check"], r["k"]) for r in rows] != want:
        return Outcome(False, message=f"{len(rows)} rows, not the 160 expected")
    if len(result.get("units", rows)) != len(rows):
        return Outcome(False, message=f"{len(result['units'])} timed rows")
    if any(r["verdict"] != "pass" for r in rows):
        return Outcome(False, message="a lemma row fails")
    with mp.workdps(TRUTH_DPS):
        worst = max(mp.mpf(r["residual"]) for r in rows)
    return Outcome(True, digits=_digits(worst))


def fit_ops() -> list[dict]:
    """One op per (must_pass single-sum entry, digits, K): 144 ops."""
    ops = []
    for e in REFERENCE["catalog"]:
        if e["expected"] != "must_pass" or "[" in e["lhs"]:
            continue
        weight = max(sum(int(m.group(1) or 1) * int(m.group(2) or 1)
                         for m in re.finditer(r"(?:z(\d+)|ln2)(?:\^(\d+))?", term))
                     for term in re.split(r"\s[+-]\s", e["rhs"]))
        argv = ["fit", e["lhs"], "--weight", str(weight)]
        if "ln2" in e["rhs"]:
            argv.append("--include-ln2")
        for digits in (30, 40, 52):
            for K in (1000, 3000):
                ops.append({"id": e["id"], "digits": digits, "K": K,
                            "argv": argv + ["--digits", str(digits), "--K", str(K)]})
    return ops


def check_fit(op: dict, result: dict) -> Outcome:
    from oddeuler.zeta_algebra import canonicalize, parse_expr
    entry = CATALOG[op["id"]]
    values = result.get("values", [])
    if len(values) != 1:
        return Outcome(False, message=f"{len(values)} sum evaluations, want 1")
    with mp.workdps(TRUTH_DPS):
        digits = _digits(mp.mpf(values[0]) - closed_form_value(entry["rhs"]))
    text = result["stdout"].strip()
    where = f"{op['id']} digits={op['digits']} K={op['K']}"
    if text == "no fit":
        known = [op["id"], op["digits"], op["K"]] in REFERENCE["fit_known_misses"]
        return Outcome(False, known_miss=known, digits=digits,
                       message="" if known else f"{where}: new 'no fit'")
    if canonicalize(parse_expr(text)) != canonicalize(parse_expr(entry["rhs"])):
        return Outcome(False, digits=digits, message=f"{where}: wrong fit {text!r}")
    return Outcome(True, digits=digits)


def check(workload: str, op: dict, result: dict) -> Outcome:
    """Judge one child result of the workload's op."""
    if "error" in result:
        return Outcome(False, message=result["error"])
    if result["rc"] != 0:
        return Outcome(False, message=f"exit code {result['rc']}: "
                                      f"{result['stderr'][-300:]}")
    if workload == "verify-catalog":
        return check_verify(result)
    if workload == "lemma-check":
        return check_lemma(result)
    return check_fit(op, result)
