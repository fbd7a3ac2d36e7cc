"""Command-line front end.

Subcommands: verify, eval-sum, eval-expr, reduce, fit, list, lemma-check.
The report goes to stdout; the resolved configuration, warnings, findings and
summary lines go to stderr, so stdout is byte-identical across reruns
with the same subcommand and configuration.

Exit codes: 0 when every selected must_pass identity passes, 1 when at
least one fails, 2 on usage or parse errors.

Each command takes exactly the flags it reads, declared in its _COMMANDS
entry; the config file's keys are shared by all, and each command checks
only the settings of its own flags.  main reads a plain argv from that
table without importing argparse; argparse's full parser, built from the
same table, reads the rest and alone prints help, usage and errors.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import types

from .highfloat import HighFloat
from .identities import (DEFAULT_TOLERANCE, adjudication_findings, catalog, fit_closed_form,
                         read_tolerance, reduce, select, substitute_bases, summarize,
                         verify_all)
from .summation import EvalOptions, evaluate_sum, lemma_checks, parse_sumspec
from .zeta_algebra import evaluate, format_expr, parse_expr

REPORT_FIELDS = ("id", "lhs_value", "rhs_value", "residual", "tolerance",
                 "verdict", "digits", "K")

_FORMATS = ("table", "json", "csv")

# lemma-check's largest k: five bands of 40 rows, each row's head running
# to the planned ratio times its band's largest k (12 * 200 at the default
# digits), so a row's cost grows with k
LEMMA_KMAX = 200
# largest --digits: costs grow about quadratically, and lemma-check's
# default rows take about 3.3 s at 500 digits and 26 s at 1000
MAX_DIGITS = 500
# lemma-check's largest kmax * digits: each row's head grows with k and its
# arithmetic with digits, so the two caps alone admit runs of minutes.
# 10^4 admits the default kmax at the digits cap (20 * 500, about 3.3 s)
# and the kmax cap at the default digits (200 * 40, about 0.55 s)
LEMMA_BUDGET = 10 ** 4
# largest fit --weight: the PSLQ basis grows fast (669 terms at weight
# 41); weight 15 takes about 0.25 s at 40 digits and 7.5 s at 500, and
# with --include-ln2 (30 PSLQ entries) 0.7 s and 50 s
MAX_FIT_WEIGHT = 15

LEMMA_CONVENTION = (
    "convention: truncated cross sums take the two-sided form "
    "sum_{i<k} - sum_{i>k} of h_i^(m) / (i (i - k)) with the i = k term "
    "excluded; the shifted-kernel block enters each closed form with "
    "sign +1 for odd order m and -1 for even order m.")


def _fmt(value, digits: int) -> str:
    return value.round(digits).text(digits)


# ---- configuration ---------------------------------------------------------


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _format(text: str) -> str:
    if text not in _FORMATS:
        raise ValueError(text)
    return text


# config-file key -> (argparse dest of the flag that overrides it, parser
# of the file's text, default, text of the value in the echoed config)
_SETTINGS = {"digits": ("digits", int, EvalOptions.digits, str),
             "K": ("K", int, EvalOptions.K, str),
             "tolerance": ("tolerance", str, DEFAULT_TOLERANCE, str),
             "format": ("format", _format, "table", str),
             "id": ("ids", _names, (), lambda v: ",".join(v) if v else "*"),
             "family": ("family", str, None, lambda v: v or "*"),
             "catalog": ("catalog", _names, (), lambda v: "+".join(v) if v else "builtin")}

# (dest, name, low, high): the CLI's own caps on its integer settings;
# digits' low end and K's range are EvalOptions'
_BOUNDS = (("digits", "digits", None, MAX_DIGITS), ("weight", "--weight", 1, MAX_FIT_WEIGHT),
           ("max_den", "--max-den", 1, None), ("kmax", "--kmax", 1, LEMMA_KMAX))


def _read_config_file(path: str) -> dict:
    """The file's settings by dest; a repeated key's last line wins."""
    lines = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            lines[key] = (lineno, val.strip())
    settings = {}
    for key, (lineno, val) in lines.items():
        dest, parse = _SETTINGS[key][:2]
        try:
            settings[dest] = parse(val)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value {val!r} for key {key!r}") from None
    return settings


def _resolve_config(args) -> None:
    """Fill in every setting: a flag overrides the config file, which
    overrides the command's defaults.  Then check only the command's own,
    the dests its flags put in args: the caps in _BOUNDS first, so nothing
    is read at a refused digit count; EvalOptions' ranges, as opts (K only
    under --K); and the tolerance, as tol."""
    own = set(vars(args))
    read = _read_config_file(args.config) if args.config else {}
    for dest, _, default, _ in _SETTINGS.values():
        value = getattr(args, dest, None)
        if value is None:
            value = read.get(dest, args.defaults.get(dest, default))
        setattr(args, dest, tuple(value) if isinstance(value, list) else value)
    for dest, name, low, high in [bound for bound in _BOUNDS if bound[0] in own]:
        value = getattr(args, dest)
        if low is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"{name} must be <= {high}, got {value}")
    if "digits" in own:
        args.opts = EvalOptions(digits=args.digits, **({"K": args.K} if "K" in own else {}))
    if "tolerance" in own:
        args.tol = read_tolerance(args.tolerance, args.digits)


# ---- report emission -------------------------------------------------------


def _table_text(rows: list[dict], fields) -> str:
    widths = {f: max(len(f), *(len(r[f]) for r in rows)) if rows else len(f)
              for f in fields}
    lines = ["  ".join(f.ljust(widths[f]) for f in fields).rstrip()]
    lines += ["  ".join(r[f].ljust(widths[f]) for f in fields).rstrip() for r in rows]
    return "\n".join(lines) + "\n"


def _csv_text(rows: list[dict], fields) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([r[f] for f in fields] for r in rows)
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


def _cmd_verify(args) -> int:
    entries = select(catalog(args.catalog), args.ids, args.family)
    reports = verify_all(args.opts, tolerance=args.tolerance, entries=entries)
    sys.stdout.write(emit_report(reports, args.format))
    for r in reports:
        if r.err_estimate > r.tolerance:
            print(f"warning: {r.id}: error estimate {r.err_estimate.text(2)} exceeds "
                  f"the tolerance {args.tolerance}; the verdict cannot be trusted",
                  file=sys.stderr)
    for note in adjudication_findings(reports, args.opts):
        print(note, file=sys.stderr)
    stats = summarize(reports, entries)
    print(f"summary: {stats['total']} checked, {stats['pass']} pass, "
          f"{stats['fail']} fail; must_pass failures: "
          f"{len(stats['must_pass_failures'])}", file=sys.stderr)
    return 1 if stats["must_pass_failures"] else 0


def _cmd_eval_sum(args) -> int:
    res = evaluate_sum(parse_sumspec(args.spec), args.opts)
    fields = {"value": _fmt(res.value, res.digits),
              "err_estimate": _fmt(res.err_estimate, res.digits),
              "K": res.K, "digits": res.digits}
    _emit_fields(fields, args.format)
    return 0


def _cmd_eval_expr(args) -> int:
    value = evaluate(parse_expr(args.expr).terms, args.digits + 10)
    _emit_fields({"value": _fmt(value, args.digits), "digits": args.digits}, args.format)
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


def _cmd_reduce(args) -> int:
    comb = reduce(args.rule, args.m, args.opts, args.tolerance)
    sub = (format_expr(substitute_bases(comb, catalog(args.catalog)))
           if args.substitute else None)
    if args.format == "json":
        sys.stdout.write(json.dumps({"rule": args.rule, "m": args.m,
                                     "combination": comb.text(),
                                     "substituted": sub}) + "\n")
    elif args.substitute:
        sys.stdout.write(sub + "\n")
    else:
        sys.stdout.write(comb.text() + "\n")
    return 0


def _cmd_fit(args) -> int:
    expr = fit_closed_form(parse_sumspec(args.spec), args.weight, include_ln2=args.include_ln2,
                           max_den=args.max_den, opts=args.opts)
    text = format_expr(expr) if expr is not None else "no fit"
    if args.format == "json":
        sys.stdout.write(json.dumps(
            {"spec": args.spec, "weight": args.weight,
             "expression": None if expr is None else text}) + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def _cmd_list(args) -> int:
    rows = [{"id": e.id,
             "lhs": e.lhs.text(),
             "rhs": format_expr(e.rhs),
             "source": e.source,
             "expected": e.expected}
            for e in select(catalog(args.catalog), args.ids, args.family)]
    fields = ("id", "lhs", "rhs", "source", "expected")
    sys.stdout.write(_rows_text(rows, fields, args.format))
    return 0


def _lemma_rows(kmax: int, opts: EvalOptions, tol) -> list[dict]:
    rows = []
    for name, (k, trunc, closed) in lemma_checks(range(1, kmax + 1), opts):
        texts = _fmt(trunc, opts.digits), _fmt(closed, opts.digits)
        # the sides are compared as printed, so equal texts leave nothing
        resid = abs(trunc - closed) if texts[0] != texts[1] else HighFloat()
        rows.append({"check": name, "k": str(k), "truncated": texts[0], "closed": texts[1],
                     "residual": _fmt(resid, opts.digits),
                     "verdict": "pass" if resid <= tol else "fail"})
    return rows


def _cmd_lemma_check(args) -> int:
    if args.kmax * args.digits > LEMMA_BUDGET:
        raise ValueError(f"--kmax * digits must be <= {LEMMA_BUDGET}, "
                         f"got {args.kmax} * {args.digits}")
    # the sides are compared as printed: 10^(1 - digits) apart below 10
    spacing = f"1e{1 - args.digits}"
    if args.tol < read_tolerance(spacing, args.digits):
        raise ValueError(f"--tolerance {args.tolerance} is below {spacing}, "
                         "the spacing of the printed values")
    rows = _lemma_rows(args.kmax, args.opts, args.tol)
    fields = ("check", "k", "truncated", "closed", "residual", "verdict")
    if args.format == "json":
        sys.stdout.write(json.dumps({"convention": LEMMA_CONVENTION,
                                     "rows": rows}, indent=2) + "\n")
    elif args.format == "csv":
        sys.stdout.write("# " + LEMMA_CONVENTION + "\n")
        sys.stdout.write(_csv_text(rows, fields))
    else:
        sys.stdout.write(LEMMA_CONVENTION + "\n\n")
        sys.stdout.write(_table_text(rows, fields))
    return 0 if all(r["verdict"] == "pass" for r in rows) else 1


# ---- argument parsing ------------------------------------------------------


# (flag, add_argument keywords) of the flags that several commands read;
# each command lists exactly the flags it reads
_DIGITS = ("--digits", dict(type=int, help="significant decimal digits"))
_K = ("--K", dict(type=int, help="direct summation cutoff"))
_TOLERANCE = ("--tolerance", dict(help="pass/fail residual threshold"))
_OUTPUT = (("--format", dict(choices=_FORMATS, help="output format")),
           ("--config", dict(help="flat 'key = value' config file")))
_CATALOG = ("--catalog", dict(action="append", metavar="PATH",
                              help="supplementary catalog file (repeatable)"))
_SELECT = (_CATALOG,
           ("--id", dict(action="append", dest="ids", help="identity id to select (repeatable)")),
           ("--family", dict(help="glob over identity ids, e.g. 'T1_*'")))

# name -> (function, help text, own setting defaults under the config file's, arguments)
_COMMANDS = {
    "verify": (_cmd_verify, "verify catalogued identities", {},
               (_DIGITS, _K, _TOLERANCE, *_OUTPUT, *_SELECT)),
    "eval-sum": (_cmd_eval_sum, "evaluate a sum given in SumSpec text form", {},
                 (_DIGITS, _K, *_OUTPUT, ("spec", {}))),
    "eval-expr": (_cmd_eval_expr, "evaluate a closed-form expression", {},
                  (_DIGITS, *_OUTPUT, ("expr", {}))),
    "reduce": (_cmd_reduce, "emit a reduction as a combination of base sums", {},
               (_DIGITS, _K, _TOLERANCE, *_OUTPUT, _CATALOG, ("rule", {}),
                ("--m", dict(type=int, help="parameter for the parametric rule family")),
                ("--substitute", dict(action="store_true",
                                      help="collapse the combination to a closed form")))),
    "fit": (_cmd_fit, "fit a rational closed form to a sum", {},
            (_DIGITS, _K, *_OUTPUT, ("spec", {}),
             ("--weight", dict(type=int, required=True, help="weight of the fitted closed form")),
             ("--include-ln2", dict(action="store_true",
                                    help="add ln 2 and the lower weights' zetas to the basis")),
             ("--max-den", dict(type=int, default=256, help="largest coefficient denominator")))),
    "list": (_cmd_list, "list the identity catalog", {}, (*_OUTPUT, *_SELECT)),
    "lemma-check": (_cmd_lemma_check, "truncated vs closed residuals for the kernel lemmas",
                    {"tolerance": "1e-9"},
                    (_DIGITS, _TOLERANCE, *_OUTPUT,
                     ("--kmax", dict(type=int, default=20, help="largest k of the kernel rows")))),
}


def _parse(argv: list[str]) -> types.SimpleNamespace | None:
    """argv read from the table into the namespace the full parser would
    give it, less its command; None, for argparse to read, unless argv is a
    command name, then its flags spelled out (a value after a space or "=",
    store_true bare) and exactly its positionals, each value of its flag's
    type and choices and none starting with "-"."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, defaults, own = _COMMANDS[argv[0]]
    args, flags, positionals = {"func": func, "defaults": defaults}, {}, []
    for name, options in own:
        if not name.startswith("-"):
            positionals.append(name)
            continue
        # argparse's dest and default of an optional
        dest = options.get("dest", name[2:].replace("-", "_"))
        flags[name] = dest, options
        args[dest] = False if options.get("action") == "store_true" else options.get("default")
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            args[positionals.pop(0)] = word
            continue
        flag, eq, value = word.partition("=")
        if flag not in flags:
            return None
        dest, options = flags[flag]
        action = options.get("action")
        if action == "store_true":
            if eq:
                return None
            args[dest] = True
            continue
        value = value if eq else next(words, "-")  # a missing value is declined
        if value.startswith("-"):
            return None
        try:
            value = options.get("type", str)(value)
        except ValueError:
            return None
        if value not in options.get("choices", (value,)):
            return None
        args[dest] = (args[dest] or []) + [value] if action == "append" else value
    if positionals or any(options.get("required") and args[dest] is None
                          for dest, options in flags.values()):
        return None
    return types.SimpleNamespace(**args)


def _build_parser():
    """The full parser, argparse's, with every command as a subparser: the
    one source of help, usage and error text, built for the argvs that
    _parse declines.  The help of the flag of each setting in shown ends
    with the setting's default, the command's own over _SETTINGS', and of
    each other flag in _BOUNDS with its range and its default."""
    import argparse

    shown = ("digits", "K", "tolerance", "format")  # each its own config key and dest
    parser = argparse.ArgumentParser(
        prog="oddeuler", description="Verify and evaluate Euler sums over odd harmonic numbers.")
    sub = parser.add_subparsers(dest="command", required=True)
    bounds = {bound[0]: bound[2:] for bound in _BOUNDS}
    for name, (func, text, defaults, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, options in flags:
            action = p.add_argument(flag, **options)
            if action.dest in shown:
                _, _, default, show = _SETTINGS[action.dest]
                action.help += f" (default {show(defaults.get(action.dest, default))})"
            elif action.dest in bounds:
                low, high = bounds[action.dest]
                span = f"{low}..{high}" if high else f">= {low}"
                default = "required" if action.required else f"default {action.default}"
                action.help += f" ({span}, {default})"
        p.set_defaults(func=func, defaults=defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or _build_parser().parse_args(argv)
    try:
        _resolve_config(args)
        print("config: " + " ".join(f"{dest}={show(getattr(args, dest))}"
                                    for dest, _, _, show in _SETTINGS.values()), file=sys.stderr)
        return args.func(args)
    except (ValueError, KeyError, ArithmeticError, RuntimeError,
            OSError) as exc:
        # str() names an OSError's file; it would quote a KeyError's text
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
