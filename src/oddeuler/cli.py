"""Command-line front end.

Subcommands: verify, eval-sum, eval-expr, reduce, fit, list, lemma-check.
The report goes to stdout; the resolved configuration, findings, and
summary lines go to stderr, so stdout is byte-identical across reruns
with the same subcommand and configuration.

Exit codes: 0 when every selected must_pass identity passes, 1 when at
least one fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import mpmath as mp

from .identities import (Identity, adjudication_findings, catalog, reduce,
                         substitute_bases, summarize, verify_all)
from .identities import fit_closed_form
from .summation import (EvalOptions, evaluate_sum, lemma1_aux, lemma2_g,
                        lemma3_f, parse_sumspec)
from .zeta_algebra import evaluate, format_expr, parse_expr
from .numerics import ConstantsTable

REPORT_FIELDS = ("id", "lhs_value", "rhs_value", "residual", "tolerance",
                 "verdict", "digits", "K")

_FORMATS = ("table", "json", "csv")

_DEFAULTS = {"digits": 40, "K": 10 ** 4, "tolerance": "1e-11",
             "format": "table", "ids": (), "family": None, "catalog": ()}

LEMMA_CONVENTION = (
    "convention: truncated cross sums take the two-sided form "
    "sum_{i<k} - sum_{i>k} of h_i^(m) / (i (i - k)) with the i = k term "
    "excluded; the shifted-kernel block enters each closed form with "
    "sign +1 for odd order m and -1 for even order m.")


def _fmt(value, digits: int) -> str:
    with mp.workdps(digits):
        return mp.nstr(mp.mpf(value), digits)


# ---- configuration ---------------------------------------------------------


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


# config-file key -> (resolved key, parser of the file's text).  Each
# resolved key is also the argparse dest of the flag that overrides it.
_CONFIG_KEYS = {"digits": ("digits", int), "K": ("K", int),
                "tolerance": ("tolerance", str), "format": ("format", str),
                "id": ("ids", _names), "family": ("family", str),
                "catalog": ("catalog", _names)}


def _read_config_file(path: str) -> dict:
    pairs = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            pairs[key] = val.strip()
    return pairs


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the config file, overridden by flags.

    lemma-check defaults to a looser tolerance.  The evaluation options
    are built and checked once, under the "opts" key.
    """
    cfg = dict(_DEFAULTS)
    if args.command == "lemma-check":
        cfg["tolerance"] = "1e-9"
    path = getattr(args, "config", None)
    if path:
        pairs = _read_config_file(path)
        for key, (name, parse) in _CONFIG_KEYS.items():
            if key in pairs:
                cfg[name] = parse(pairs[key])
        if cfg["format"] not in _FORMATS:
            raise ValueError(f"bad format {cfg['format']!r} in {path}")
    for name, _ in _CONFIG_KEYS.values():
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = tuple(value) if isinstance(value, list) else value
    cfg["opts"] = EvalOptions(digits=cfg["digits"], K=cfg["K"])
    float(cfg["tolerance"])
    return cfg


def _echo_config(cfg: dict) -> None:
    ids = ",".join(cfg["ids"]) if cfg["ids"] else "*"
    cat = "+".join(cfg["catalog"]) if cfg["catalog"] else "builtin"
    print(f"config: digits={cfg['digits']} K={cfg['K']} "
          f"tolerance={cfg['tolerance']} format={cfg['format']} "
          f"ids={ids} family={cfg['family'] or '*'} catalog={cat}",
          file=sys.stderr)


# ---- report emission -------------------------------------------------------


def _table_text(rows: list[dict], fields) -> str:
    widths = {f: max(len(f), *(len(r[f]) for r in rows)) if rows else len(f)
              for f in fields}
    lines = ["  ".join(f.ljust(widths[f]) for f in fields).rstrip()]
    for r in rows:
        lines.append("  ".join(r[f].ljust(widths[f]) for f in fields).rstrip())
    return "\n".join(lines) + "\n"


def _csv_text(rows: list[dict], fields) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for r in rows:
        writer.writerow([r[f] for f in fields])
    return buf.getvalue()


def _rows_text(rows: list[dict], fields, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text(rows, fields)
    return _table_text(rows, fields)


def emit_report(reports, fmt: str) -> str:
    """Render VerificationReports; identical data in every format."""
    rows = []
    for r in reports:
        rows.append({"id": r.id,
                     "lhs_value": _fmt(r.lhs_value, r.digits),
                     "rhs_value": _fmt(r.rhs_value, r.digits),
                     "residual": _fmt(r.residual, r.digits),
                     "tolerance": _fmt(r.tolerance, min(r.digits, 15)),
                     "verdict": r.verdict,
                     "digits": str(r.digits),
                     "K": str(r.K)})
    if fmt == "json":
        rows = [{**row, "digits": int(row["digits"]), "K": int(row["K"])}
                for row in rows]
    return _rows_text(rows, REPORT_FIELDS, fmt)


# ---- subcommands -----------------------------------------------------------


def _select(entries: list[Identity], cfg: dict) -> list[Identity]:
    import fnmatch
    chosen = entries
    if cfg["ids"]:
        known = {e.id for e in entries}
        missing = [i for i in cfg["ids"] if i not in known]
        if missing:
            raise KeyError(f"unknown identity ids: {missing}")
        wanted = set(cfg["ids"])
        chosen = [e for e in chosen if e.id in wanted]
    if cfg["family"]:
        chosen = [e for e in chosen if fnmatch.fnmatchcase(e.id, cfg["family"])]
        if not chosen:
            raise KeyError(f"no identities match family {cfg['family']!r}")
    return chosen


def _cmd_verify(args, cfg) -> int:
    entries = _select(catalog(cfg["catalog"]), cfg)
    tol = mp.mpf(cfg["tolerance"])
    reports = verify_all(cfg["opts"], tolerance=tol, entries=entries)
    sys.stdout.write(emit_report(reports, cfg["format"]))
    for note in adjudication_findings(reports, cfg["opts"]):
        print(note, file=sys.stderr)
    stats = summarize(reports, entries)
    print(f"summary: {stats['total']} checked, {stats['pass']} pass, "
          f"{stats['fail']} fail; must_pass failures: "
          f"{len(stats['must_pass_failures'])}", file=sys.stderr)
    return 1 if stats["must_pass_failures"] else 0


def _cmd_eval_sum(args, cfg) -> int:
    spec = parse_sumspec(args.spec)
    res = evaluate_sum(spec, cfg["opts"])
    fields = {"value": _fmt(res.value, res.digits),
              "err_estimate": _fmt(res.err_estimate, res.digits),
              "K": res.K, "digits": res.digits}
    _emit_fields(fields, cfg["format"])
    return 0


def _cmd_eval_expr(args, cfg) -> int:
    expr = parse_expr(args.expr)
    with mp.workdps(cfg["digits"] + 10):
        value = evaluate(expr, ConstantsTable(cfg["digits"] + 10))
    fields = {"value": _fmt(value, cfg["digits"]), "digits": cfg["digits"]}
    _emit_fields(fields, cfg["format"])
    return 0


def _emit_fields(fields: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(fields) + "\n")
    elif fmt == "csv":
        rows = [{k: str(v) for k, v in fields.items()}]
        sys.stdout.write(_csv_text(rows, tuple(fields)))
    else:
        for key, val in fields.items():
            sys.stdout.write(f"{key} = {val}\n")


def _cmd_reduce(args, cfg) -> int:
    comb = reduce(args.rule, args.m, cfg["opts"])
    sub = format_expr(substitute_bases(comb,
                                       catalog(cfg["catalog"]))) \
        if args.substitute else None
    if cfg["format"] == "json":
        sys.stdout.write(json.dumps({"rule": args.rule, "m": args.m,
                                     "combination": comb.text(),
                                     "substituted": sub}) + "\n")
    elif args.substitute:
        sys.stdout.write(sub + "\n")
    else:
        sys.stdout.write(comb.text() + "\n")
    return 0


def _cmd_fit(args, cfg) -> int:
    spec = parse_sumspec(args.spec)
    expr = fit_closed_form(spec, args.weight, include_ln2=args.include_ln2,
                           max_den=args.max_den, opts=cfg["opts"])
    text = format_expr(expr) if expr is not None else "no fit"
    if cfg["format"] == "json":
        sys.stdout.write(json.dumps(
            {"spec": args.spec, "weight": args.weight,
             "expression": None if expr is None else text}) + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def _cmd_list(args, cfg) -> int:
    entries = _select(catalog(cfg["catalog"]), cfg)
    rows = [{"id": e.id,
             "lhs": e.lhs.text(),
             "rhs": format_expr(e.rhs),
             "source": e.source,
             "expected": e.expected} for e in entries]
    fields = ("id", "lhs", "rhs", "source", "expected")
    sys.stdout.write(_rows_text(rows, fields, cfg["format"]))
    return 0


def _lemma_rows(kmax: int, opts: EvalOptions, tol) -> list[dict]:
    rows = []
    checks = [("lemma1_aux", lemma1_aux)]
    for n in (1, 2, 3):
        checks.append((f"lemma2_g n={n}",
                       lambda k, o, n=n: lemma2_g(n, k, o)))
    for m in (1, 2, 3, 4):
        n, parity = (m + 1) // 2, ("odd" if m % 2 else "even")
        checks.append((f"lemma3_f m={m}",
                       lambda k, o, n=n, p=parity: lemma3_f(n, p, k, o)))
    for name, fn in checks:
        for k in range(1, kmax + 1):
            trunc, closed = fn(k, opts)
            resid = abs(trunc - closed)
            rows.append({"check": name, "k": str(k),
                         "truncated": _fmt(trunc, opts.digits),
                         "closed": _fmt(closed, opts.digits),
                         "residual": _fmt(resid, opts.digits),
                         "verdict": "pass" if resid <= tol else "fail"})
    return rows


def _cmd_lemma_check(args, cfg) -> int:
    if args.kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {args.kmax}")
    tol = mp.mpf(cfg["tolerance"])
    rows = _lemma_rows(args.kmax, cfg["opts"], tol)
    fields = ("check", "k", "truncated", "closed", "residual", "verdict")
    if cfg["format"] == "json":
        sys.stdout.write(json.dumps({"convention": LEMMA_CONVENTION,
                                     "rows": rows}, indent=2) + "\n")
    elif cfg["format"] == "csv":
        sys.stdout.write("# " + LEMMA_CONVENTION + "\n")
        sys.stdout.write(_csv_text(rows, fields))
    else:
        sys.stdout.write(LEMMA_CONVENTION + "\n\n")
        sys.stdout.write(_table_text(rows, fields))
    return 0 if all(r["verdict"] == "pass" for r in rows) else 1


# ---- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=None,
                        help="significant decimal digits (default 40)")
    common.add_argument("--K", type=int, default=None,
                        help="direct summation cutoff (default 10000)")
    common.add_argument("--tolerance", default=None,
                        help="pass/fail residual threshold (default 1e-11)")
    common.add_argument("--format", choices=_FORMATS,
                        default=None, help="output format (default table)")
    common.add_argument("--config", default=None,
                        help="flat 'key = value' config file")
    common.add_argument("--catalog", action="append", default=None,
                        metavar="PATH",
                        help="supplementary catalog file (repeatable)")

    parser = argparse.ArgumentParser(
        prog="oddeuler",
        description="Verify and evaluate Euler sums over odd harmonic "
                    "numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="verify catalogued identities")
    p.add_argument("--id", action="append", dest="ids", default=None,
                   help="identity id to verify (repeatable)")
    p.add_argument("--family", default=None,
                   help="glob over identity ids, e.g. 'T1_*'")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval-sum", parents=[common],
                       help="evaluate a sum given in SumSpec text form")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_eval_sum)

    p = sub.add_parser("eval-expr", parents=[common],
                       help="evaluate a closed-form expression")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_eval_expr)

    p = sub.add_parser("reduce", parents=[common],
                       help="emit a reduction as a combination of base sums")
    p.add_argument("rule")
    p.add_argument("--m", type=int, default=None,
                   help="parameter for the parametric rule family")
    p.add_argument("--substitute", action="store_true",
                   help="collapse the combination to a closed form")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("fit", parents=[common],
                       help="fit a rational closed form to a sum")
    p.add_argument("spec")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--include-ln2", action="store_true")
    p.add_argument("--max-den", type=int, default=256)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("list", parents=[common],
                       help="list the identity catalog")
    p.add_argument("--id", action="append", dest="ids", default=None)
    p.add_argument("--family", default=None)
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("lemma-check", parents=[common],
                       help="truncated vs closed residuals for the kernel "
                            "lemmas")
    p.add_argument("--kmax", type=int, default=20)
    p.set_defaults(func=_cmd_lemma_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        _echo_config(cfg)
        return args.func(args, cfg)
    except (ValueError, KeyError, ArithmeticError, RuntimeError,
            OSError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
