"""Command-line interface.

Three commands, each with only the flags it reads:

    sortbounds analyze (FILE | --expr EXPR) [--format json|csv|text]
                       [--max-n N] [--enum-cap C] [--matrix-cap M]
    sortbounds verify {lemmas,polytopes,orderstats,sp,adversary,all}
                      [--seed S] [--samples K]
    sortbounds tech-constant --max-n N [--format json|csv|text]

`analyze` prints one report with every bound for the input poset; qlb and qh
are null when a block of its series-parallel decomposition has more than
--enum-cap extensions (or more than 20 elements), and adversary fields are
null then too, or when the extension count exceeds the matrix cap or n
exceeds the default counting cap 20.  It is deterministic and takes no seed
or tolerance, and a cap below 0 is a usage error.  `verify` takes S >= 0 and
1 <= K <= 10**6 (no tolerance either), and `tech-constant` 2 <= N <= 1000.
Exit codes: 1 on parse or size failures or when `analyze` runs out of memory,
2 on a usage error or when a certified property is false.  Floats are
written with 17 significant digits (by `json.dumps`, the shortest repr, in
`tech-constant --format json`), so identical configurations produce
byte-identical output.

--enum-cap bounds the extension count of each block whose QLB the ideal DP
computes; no extension is enumerated for QLB.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import cache

from .errors import LimitExceededError, SortboundsError
from .linext import DEFAULT_ENUM_CAP, DEFAULT_N_CAP
from .poset import Poset, build_poset, parse_poset_text
from .quantum import DEFAULT_MATRIX_CAP, TECH_MAX_N, BoundsReport, analyze, tech_constant
from .spexpr import parse_sp, realize
from .suites import MAX_SAMPLES, SUITES, run_suites

REPORT_KEYS = [f.name for f in dataclasses.fields(BoundsReport)]


def _fmt_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _emit_report(report: BoundsReport, fmt: str) -> str:
    vals = [_fmt_value(getattr(report, k)) for k in REPORT_KEYS]
    if fmt == "json":
        return "{" + ", ".join(f'"{k}": {v}' for k, v in zip(REPORT_KEYS, vals)) + "}"
    if fmt == "csv":
        return ",".join(REPORT_KEYS) + "\n" + ",".join(vals)
    return "\n".join(f"{k} = {v}" for k, v in zip(REPORT_KEYS, vals))


def _check_size(n: int, max_n: int) -> None:
    if n > max_n:
        raise LimitExceededError(f"n={n} exceeds --max-n {max_n}")


def load_input(args: argparse.Namespace) -> Poset:
    """The input poset, with its size checked against --max-n before any
    relation is allocated."""
    if (args.expr is None) == (args.input is None):
        raise SortboundsError("provide exactly one input: a poset file or --expr")
    if args.expr is not None:
        expr = parse_sp(args.expr)
        _check_size(expr.size, args.max_n)
        return realize(expr)
    with open(args.input, "r", encoding="ascii") as fh:
        n, pairs = parse_poset_text(fh.read())
    _check_size(n, args.max_n)
    return build_poset(n, pairs)


def exit_code_for_report(report: BoundsReport) -> int:
    return 2 if report.any_failed() else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        report = analyze(load_input(args), max_n=args.max_n, enum_cap=args.enum_cap,
                         matrix_cap=args.matrix_cap)
    except (SortboundsError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    print(_emit_report(report, args.format))
    return exit_code_for_report(report)


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed, samples=args.samples)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


def cmd_tech_constant(args: argparse.Namespace) -> int:
    tc = tech_constant(args.max_n)
    if args.format == "json":
        payload = {
            "c_min": float(tc.c_min),
            "argmin": list(tc.argmin),
            "ratios": [[int(a), int(b), r] for a, b, r in tc.table.tolist()],
        }
        print(json.dumps(payload))
        return 0
    # one write: the table has about max_n**2 / 2 rows; csv is the table alone
    rows = "".join(f"{int(a)},{int(b)},{format(r, '.17g')}\n" for a, b, r in tc.table.tolist())
    head = f"c_min = {format(tc.c_min, '.17g')}\nargmin = {tc.argmin[0]},{tc.argmin[1]}\n"
    sys.stdout.write(f"{'' if args.format == 'csv' else head}n1,n2,ratio\n{rows}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: building takes about ten times a parse, and
    # in-process callers run `main` once per op
    parser = argparse.ArgumentParser(
        prog="sortbounds",
        description="Lower bounds for sorting under partial information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    formats = ("json", "csv", "text")

    p_an = sub.add_parser("analyze", help="report every bound for one poset")
    p_an.add_argument("input", nargs="?", help="poset file (.poset format)")
    p_an.add_argument("--expr", help="inline series-parallel expression")
    p_an.add_argument("--max-n", type=int, default=DEFAULT_N_CAP)
    p_an.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p_an.add_argument("--matrix-cap", type=int, default=DEFAULT_MATRIX_CAP)
    p_an.add_argument("--format", choices=formats, default="json")
    p_an.set_defaults(func=cmd_analyze)

    p_ve = sub.add_parser("verify", help="run a named property suite")
    p_ve.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_ve.add_argument("--seed", type=int, default=42)
    p_ve.add_argument("--samples", type=int, default=10**5)
    p_ve.set_defaults(func=cmd_verify)

    p_tc = sub.add_parser("tech-constant", help="scan the harmonic merge-cost ratio")
    p_tc.add_argument("--max-n", type=int, required=True)
    p_tc.add_argument("--format", choices=formats, default="json")
    p_tc.set_defaults(func=cmd_tech_constant)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tech-constant" and not 2 <= args.max_n <= TECH_MAX_N:
        parser.error(f"--max-n must be in 2..{TECH_MAX_N}")
    if args.command == "verify" and not 1 <= args.samples <= MAX_SAMPLES:
        parser.error(f"--samples must be in 1..{MAX_SAMPLES}")
    if args.command == "verify" and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.command == "analyze":
        for flag, value, default in (
            ("--max-n", args.max_n, DEFAULT_N_CAP),
            ("--enum-cap", args.enum_cap, DEFAULT_ENUM_CAP),
            ("--matrix-cap", args.matrix_cap, DEFAULT_MATRIX_CAP),
        ):
            if value < 0:
                parser.error(f"{flag} must be nonnegative")
            if value > default:
                print(
                    f"warning: {flag} {value} exceeds the default cap {default}; "
                    "runtime and memory grow quickly beyond it",
                    file=sys.stderr,
                )
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader hung up (e.g. piping into head); suppress the final
        # flush and leave quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
