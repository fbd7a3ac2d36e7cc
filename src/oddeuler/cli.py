"""Command-line front end.

Subcommands: verify, eval-sum, eval-expr, reduce, fit, list, lemma-check.
The report goes to stdout; the resolved configuration, warnings, findings and
summary lines go to stderr, so stdout is byte-identical across reruns
with the same subcommand and configuration.

Exit codes: 0 when every selected must_pass identity passes, 1 when at
least one fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from .highfloat import parse_real
from .identities import (DEFAULT_TOLERANCE, adjudication_findings, catalog, fit_closed_form,
                         reduce, select, substitute_bases, summarize, verify_all)
from .summation import EvalOptions, evaluate_sum, lemma_checks, parse_sumspec, sum_kernels
from .zeta_algebra import evaluate, format_expr, parse_expr

REPORT_FIELDS = ("id", "lhs_value", "rhs_value", "residual", "tolerance",
                 "verdict", "digits", "K")

_FORMATS = ("table", "json", "csv")
# mpmath's default 53 bits, in digits: the tolerance checks and lemma-check's
# residuals round at these, as mpmath did outside any workdps context
DOUBLE_DIGITS = 15

# lemma-check's largest k: the kernel cutoff 50k reaches the default
# K = 10^4 there, and each row's cost grows with it
LEMMA_KMAX = 200
# largest --digits: costs grow about quadratically, and lemma-check's
# default rows take about 5 s at 500 digits and 31 s at 1000
MAX_DIGITS = 500
# lemma-check's largest kmax * digits: each row's head grows with k and its
# arithmetic with digits, so the two caps alone admit runs of minutes.
# 10^4 admits the default kmax at the digits cap (20 * 500, about 5 s)
# and the kmax cap at the default digits (200 * 40, about 2 s)
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

# (dest, flag, low, high): the range of each command's own integer flag
_BOUNDS = (("weight", "--weight", 1, MAX_FIT_WEIGHT), ("max_den", "--max-den", 1, None),
           ("kmax", "--kmax", 1, LEMMA_KMAX))


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


def _resolve_config(args: argparse.Namespace) -> None:
    """Fill in every setting: a flag overrides the config file, which
    overrides the command's defaults.  Adds the checked evaluation options
    as opts and the tolerance at 53 bits as tol, and checks the command's
    own flags."""
    read = _read_config_file(args.config) if args.config else {}
    for dest, _, default, _ in _SETTINGS.values():
        value = getattr(args, dest, None)
        if value is None:
            value = read.get(dest, args.defaults.get(dest, default))
        setattr(args, dest, tuple(value) if isinstance(value, list) else value)
    if args.digits > MAX_DIGITS:
        raise ValueError(f"digits must be <= {MAX_DIGITS}, got {args.digits}")
    args.opts = EvalOptions(digits=args.digits, K=args.K)
    try:
        args.tol = parse_real(args.tolerance, DOUBLE_DIGITS)
    except ValueError:  # inf, nan or not a number
        args.tol = None
    if args.tol is None or not args.tol > 0:
        raise ValueError(f"tolerance must be a positive finite number, got {args.tolerance}")
    for dest, flag, low, high in _BOUNDS:
        value = getattr(args, dest, low)  # low passes: the command has no such flag
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"{flag} must be <= {high}, got {value}")


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
    value = evaluate(parse_expr(args.expr), args.digits + 10)
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
    comb = reduce(args.rule, args.m, args.opts)
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
    for name, kernel, fn in lemma_checks():
        # one batch per check: its rows share the prefix columns
        sum_kernels(kernel, range(1, kmax + 1), opts)
        for k in range(1, kmax + 1):
            trunc, closed = fn(k, opts)
            resid = abs(trunc - closed).round(DOUBLE_DIGITS)
            rows.append({"check": name, "k": str(k),
                         "truncated": _fmt(trunc, opts.digits),
                         "closed": _fmt(closed, opts.digits),
                         "residual": _fmt(resid, opts.digits),
                         "verdict": "pass" if resid <= tol else "fail"})
    return rows


def _cmd_lemma_check(args) -> int:
    if args.kmax * args.digits > LEMMA_BUDGET:
        raise ValueError(f"--kmax * digits must be <= {LEMMA_BUDGET}, "
                         f"got {args.kmax} * {args.digits}")
    # the sides are compared as printed: 10^(1 - digits) apart below 10
    spacing = f"1e{1 - args.digits}"
    if args.tol < parse_real(spacing, DOUBLE_DIGITS):
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


def _columns() -> int:
    # shutil.get_terminal_size's columns without importing shutil: COLUMNS
    # if positive, else the width of the terminal on stdout, else 80
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class _Help(argparse.HelpFormatter):
    """A command's help: the flag of each setting in shown ends with the
    setting's default, the command's own over _SETTINGS', and each flag in
    _BOUNDS with its range and its default.  Its width is argparse's
    default, the terminal's columns less 2, found without the shutil
    import that argparse would make."""

    shown = ("digits", "K", "tolerance", "format")  # each its own config key and dest

    def __init__(self, prog, defaults: dict):
        super().__init__(prog, width=_columns() - 2)
        self.defaults = defaults

    def _get_help_string(self, action):
        for dest, _, low, high in _BOUNDS:
            if action.dest == dest:
                span = f"{low}..{high}" if high else f">= {low}"
                default = "required" if action.required else f"default {action.default}"
                return f"{action.help} ({span}, {default})"
        if action.dest not in self.shown:
            return action.help
        _, _, default, show = _SETTINGS[action.dest]
        return f"{action.help} (default {show(self.defaults.get(action.dest, default))})"


# (flag, add_argument keywords) of the flags of every command, then of the
# commands that select catalog entries
_COMMON = (("--digits", dict(type=int, help="significant decimal digits")),
           ("--K", dict(type=int, help="direct summation cutoff")),
           ("--tolerance", dict(help="pass/fail residual threshold")),
           ("--format", dict(choices=_FORMATS, help="output format")),
           ("--config", dict(help="flat 'key = value' config file")),
           ("--catalog", dict(action="append", metavar="PATH",
                              help="supplementary catalog file (repeatable)")))
_SELECT = (("--id", dict(action="append", dest="ids", help="identity id to select (repeatable)")),
           ("--family", dict(help="glob over identity ids, e.g. 'T1_*'")))

# name -> (function, help text, own setting defaults under the config file's, arguments)
_COMMANDS = {
    "verify": (_cmd_verify, "verify catalogued identities", {}, _SELECT),
    "eval-sum": (_cmd_eval_sum, "evaluate a sum given in SumSpec text form", {}, (("spec", {}),)),
    "eval-expr": (_cmd_eval_expr, "evaluate a closed-form expression", {}, (("expr", {}),)),
    "reduce": (_cmd_reduce, "emit a reduction as a combination of base sums", {}, (("rule", {}),
        ("--m", dict(type=int, help="parameter for the parametric rule family")),
        ("--substitute", dict(action="store_true",
                              help="collapse the combination to a closed form")))),
    "fit": (_cmd_fit, "fit a rational closed form to a sum", {}, (("spec", {}),
        ("--weight", dict(type=int, required=True, help="weight of the fitted closed form")),
        ("--include-ln2", dict(action="store_true",
                               help="add ln 2 and the lower weights' zetas to the basis")),
        ("--max-den", dict(type=int, default=256, help="largest coefficient denominator")))),
    "list": (_cmd_list, "list the identity catalog", {}, _SELECT),
    "lemma-check": (_cmd_lemma_check, "truncated vs closed residuals for the kernel lemmas",
                    {"tolerance": "1e-9"},
                    (("--kmax", dict(type=int, default=20, help="largest k of the kernel rows")),)),
}


def _command(name: str, sub=None) -> argparse.ArgumentParser:
    """One command's parser: by sub.add_parser, or alone with its subparser prog."""
    func, text, defaults, flags = _COMMANDS[name]
    kw = {"formatter_class": functools.partial(_Help, defaults=defaults)}
    p = (sub.add_parser(name, help=text, **kw) if sub else
         argparse.ArgumentParser(prog="oddeuler " + name, **kw))
    for flag, options in _COMMON + flags:
        p.add_argument(flag, **options)
    p.set_defaults(func=func, defaults=defaults)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddeuler", description="Verify and evaluate Euler sums over odd harmonic numbers.",
        formatter_class=functools.partial(_Help, defaults={}))
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _command(name, sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse hands all after a leading command name to that command's parser, so only
    # it is built; the full parser takes the rest (-h, no or an invalid command, leftovers)
    args, extra = (_command(argv[0]).parse_known_args(argv[1:])
                   if argv and argv[0] in _COMMANDS else (None, True))
    if extra:
        args = _build_parser().parse_args(argv)
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
