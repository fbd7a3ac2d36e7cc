"""Regenerate the shipped identity catalog.

Transcribed entries are stored verbatim.  Derived closed forms are
recomputed here from scratch: each sum is evaluated at 60 digits and its
closed form recovered by integer-relation fitting over the canonical
weight basis, then cross-checked numerically at 40 digits.  The expanded
form for the T1_3_6_eq87 entry is obtained by exact symbolic expansion
of the transcribed combination using the fitted base forms.

Run from the repository root:  python3 scripts/regen_catalog.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import mpmath as mp

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oddeuler.identities import (Identity, _parse_entry, fit_closed_form, reduce,
                                 substitute_bases, verify)  # noqa: E402
from oddeuler.summation import (EvalOptions, parse_sumspec,
                                reciprocal_sum_closed_form)  # noqa: E402
from oddeuler.zeta_algebra import format_expr, parse_expr  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "oddeuler" / \
    "data" / "catalog.jsonl"

FIT_OPTS = EvalOptions(digits=60, K=10 ** 4)
CHECK_OPTS = EvalOptions(digits=40, K=10 ** 4)

# (id, lhs, rhs, source, expected) with rhs None meaning "fit it";
# the int after None is the fitting weight.
TRANSCRIBED = [
    ("s1", "h1*h2/k^3", "49/8*z3^2 - 945/128*z6", "paper:eq8", "must_pass"),
    ("s2", "h1*h2/k^5",
     "651/8*z3*z5 - 343/16*z2*z3^2 - 1575/32*z8", "paper:eq9", "must_pass"),
    ("B2", "h1/k^2", "7/4*z3", "literature", "must_pass"),
    ("H1_4", "H1/k^4", "3*z5 - z2*z3", "literature", "must_pass"),
    ("H2_3", "H2/k^3", "3*z2*z3 - 9/2*z5", "literature", "must_pass"),
    ("H3_2", "H3/k^2", "11/2*z5 - 2*z2*z3", "paper:eq78", "must_pass"),
    ("T1_2_1", "h2/k^3", "35/4*z2*z3 - 31/2*z5", "paper:eq40", "must_pass"),
    ("T1_2_2_eq41", "h2/k^5",
     "217/4*z2*z5 - 7/2*z3*z4 - 381/4*z7", "paper:eq41", "adjudicate"),
    ("T1_3_4", "h3/k^4", "1905/16*z7 - 279/4*z2*z5", "paper:eq86",
     "must_pass"),
    ("T2_1", "H3/(2k-1)^2",
     "31/2*z5 - 8*z2*z3 + z3 + 10*z2 - 24*ln2", "paper:eq56", "must_pass"),
    ("T2_2", "H5/(2k-1)^2",
     "381/4*z7 - 107/2*z2*z5 - 7/2*z3*z4 + z5 + 4*z4 + 12*z3 + 56*z2"
     " - 160*ln2", "paper:eq57", "adjudicate"),
    ("T3_1", "h2/(2k-1)^3", "31/64*z5 + 9/32*z2*z3", "paper:eq59",
     "must_pass"),
    ("T3_2", "h2/(2k-1)^5",
     "127/256*z7 + 15/128*z2*z5 + 15/64*z3*z4", "paper:eq60", "must_pass"),
    ("T4_1", "h3/(2k-1)^2", "31/64*z5 + 3/8*z2*z3", "paper:eq72",
     "must_pass"),
    ("T4_2", "h5/(2k-1)^2",
     "127/256*z7 + 39/64*z2*z5 - 15/64*z3*z4", "paper:eq73", "must_pass"),
    ("T5_1", "h3/k^2", "93/8*z5 - 21/4*z2*z3", "paper:eq75", "must_pass"),
    ("T5_2", "h5/k^2",
     "1905/64*z7 - 93/8*z2*z5 - 105/16*z3*z4", "paper:eq76", "must_pass"),
    ("T5_1_eq81", "h3/k^2", "93/32*z5 - 21/16*z2*z3", "paper:eq81",
     "adjudicate"),
    ("T6_1", "H2/(2k-1)^3",
     "49/8*z2*z3 - 93/8*z5 + 7/2*z3 - 7*z2 + 12*ln2", "paper:eq83",
     "must_pass"),
    ("T6_2", "H2/(2k-1)^5",
     "403/32*z2*z5 + 105/16*z3*z4 - 1905/64*z7 + 31/8*z5 - 15/2*z4"
     " + 21/2*z3 - 13*z2 + 20*ln2", "paper:eq84", "adjudicate"),
    ("eq38_intermediate", "h1*h2/k^3",
     "49/32*z3^2 + 21/4*z2*z3 - 93/8*z5", "paper:eq38", "adjudicate"),
    ("eq67", "1/4*[h1/k^4] + 1/8*[H1/k^4] - 1/2*z2*[1/k^3] + 1/2*[h2/k^3]"
     " + 1/8*[H2/k^3] + 4*[h2/(2k-1)^3]",
     "35/8*z2*z3 - 65/16*z5", "paper:eq67", "must_pass"),
    ("eq70", "1/4*[h1/k^4] + 1/8*[H1/k^4] - 1/2*z2*[1/k^3] + 1/2*[h2/k^3]"
     " + 1/8*[H2/k^3]",
     "26/8*z2*z3 - 6*z5", "paper:eq70", "must_pass"),
]

TO_FIT = [
    ("B4", "h1/k^4", 5, "derived", "must_pass"),
    ("B6", "h1/k^6", 7, "derived", "must_pass"),
    ("B8", "h1/k^8", 9, "derived", "must_pass"),
    ("T1_2_2", "h2/k^5", 7, "derived", "must_pass"),
    ("T1_2_3", "h2/k^7", 9, "derived", "must_pass"),
    ("T1_3_6", "h3/k^6", 9, "derived", "must_pass"),
    ("T1_4_5", "h4/k^5", 9, "derived", "must_pass"),
]

ORDER = ["s1", "s2", "B2", "B4", "B6", "B8", "H1_4", "H2_3", "H3_2",
         "T1_2_1", "T1_2_2", "T1_2_2_eq41", "T1_2_3", "T1_3_4", "T1_3_6",
         "T1_3_6_eq87", "T1_4_5", "T2_1", "T2_2", "T3_1", "T3_2", "T4_1",
         "T4_2", "T5_1", "T5_2", "T5_1_eq81", "T6_1", "T6_2",
         "eq38_intermediate", "eq67", "eq70", "recip_3_2"]


def main() -> None:
    records = {}
    for ident, lhs, rhs, source, expected in TRANSCRIBED:
        records[ident] = {"id": ident, "lhs": lhs, "rhs": rhs,
                          "source": source, "expected": expected}

    for ident, lhs, weight, source, expected in TO_FIT:
        expr = fit_closed_form(parse_sumspec(lhs), weight, opts=FIT_OPTS)
        if expr is None:
            raise SystemExit(f"{ident}: no closed form found at weight "
                             f"{weight}")
        records[ident] = {"id": ident, "lhs": lhs, "rhs": format_expr(expr),
                          "source": source, "expected": expected}
        print(f"fit {ident}: {format_expr(expr)}")

    # expanded form of the transcribed T1_3_6 combination (the reduction
    # rule of that name), using the fitted base forms (exact symbolic
    # expansion)
    bases = [Identity(i, parse_sumspec(records[i]["lhs"]),
                      parse_expr(records[i]["rhs"]), "", "must_pass")
             for i in ("B6", "T1_2_1", "T1_2_2", "T1_2_3")]
    eq87 = substitute_bases(reduce("T1_3_6"), bases)
    records["T1_3_6_eq87"] = {"id": "T1_3_6_eq87", "lhs": "h3/k^6",
                              "rhs": format_expr(eq87),
                              "source": "paper:eq87", "expected": "adjudicate"}
    print(f"expanded T1_3_6_eq87: {format_expr(eq87)}")

    recip = reciprocal_sum_closed_form(3, 2)
    records["recip_3_2"] = {"id": "recip_3_2", "lhs": "1/(k^3*(2k-1)^2)",
                            "rhs": format_expr(recip), "source": "derived",
                            "expected": "must_pass"}
    print(f"reciprocal (3,2): {format_expr(recip)}")

    # numeric cross-check of every entry at working precision, each
    # record read back as the catalog reads it
    bad = []
    for ident in ORDER:
        rec = records[ident]
        report = verify(_parse_entry(json.dumps(rec)), CHECK_OPTS, tolerance="1e-25")
        print(f"check {ident}: residual {mp.nstr(report.residual, 6)} ({rec['expected']})")
        if rec["expected"] == "must_pass" and report.verdict == "fail":
            bad.append(ident)
    if bad:
        raise SystemExit(f"must_pass entries with large residuals: {bad}")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    with OUT.open("w", encoding="utf-8") as fh:
        for ident in ORDER:
            fh.write(json.dumps(records[ident]) + "\n")
    print(f"wrote {len(ORDER)} entries to {OUT}")


if __name__ == "__main__":
    main()
