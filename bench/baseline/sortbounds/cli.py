"""Command-line interface.

Three commands:

    sortbounds analyze (FILE | --expr EXPR) [--format json|csv|text] ...
    sortbounds verify {lemmas,polytopes,orderstats,sp,adversary,all} ...
    sortbounds tech-constant --max-n N ...

`analyze` prints one report with every bound for the input poset; adversary
fields are null when the extension count exceeds the matrix cap.  Exit codes:
1 on parse or size failures, 2 when a certified property is false.
All floats are serialized with 17 significant digits, so identical
configurations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .errors import LimitExceededError, SortboundsError
from .linext import (
    DEFAULT_ENUM_CAP,
    DEFAULT_N_CAP,
    _ln_big,
    count_extensions,
    count_extensions_sp,
)
from .orderstats import harmonic_float
from .polytopes import entropy
from .poset import Poset, read_poset
from .quantum import (
    DEFAULT_MATRIX_CAP,
    BoundsReport,
    _sandwich_ok,
    build_adversary,
    max_gamma_ij_norm,
    qlb_enum,
    qlb_sp,
    spectral_norm,
    tech_constant,
    TWO_PI,
)
from .spexpr import parse_sp, realize, sp_decomposition
from .suites import SUITES, run_suites

REPORT_KEYS = [
    "n", "num_extensions", "itlb", "entropy", "lb", "qlb", "qh",
    "gamma_norm", "max_gamma_ij_norm",
    "lemma1_ok", "lemma2_ok", "lemma3_ok", "sandwich_ok",
]


@dataclass(frozen=True)
class RunConfig:
    expr: str | None
    path: str | None
    seed: int
    samples: int
    tol: float
    fmt: str
    max_n: int
    enum_cap: int
    matrix_cap: int


def _fmt_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _report_json(report: BoundsReport) -> str:
    parts = [f'"{k}": {_fmt_value(getattr(report, k))}' for k in REPORT_KEYS]
    return "{" + ", ".join(parts) + "}"


def _emit_report(report: BoundsReport, fmt: str) -> str:
    if fmt == "json":
        return _report_json(report)
    if fmt == "csv":
        head = ",".join(REPORT_KEYS)
        row = ",".join(_fmt_value(getattr(report, k)) for k in REPORT_KEYS)
        return f"{head}\n{row}"
    return "\n".join(f"{k} = {_fmt_value(getattr(report, k))}" for k in REPORT_KEYS)


def load_input(config: RunConfig) -> Poset:
    if (config.expr is None) == (config.path is None):
        raise SortboundsError("provide exactly one input: a poset file or --expr")
    if config.expr is not None:
        return realize(parse_sp(config.expr))
    return read_poset(config.path)


def analyze_poset(P: Poset, config: RunConfig) -> BoundsReport:
    """Assemble the full report, using the structural recursions for count
    and harmonic bound whenever the poset is series-parallel and falling
    back to the downset DP / enumeration within the configured caps."""
    if P.n > config.max_n:
        raise LimitExceededError(f"n={P.n} exceeds --max-n {config.max_n}")
    qlb_val: float | None = None
    decomposed = sp_decomposition(P)
    if decomposed is not None:
        num = count_extensions_sp(decomposed[0])
        qlb_val = qlb_sp(decomposed[0])
    else:
        num = count_extensions(P, max_n=config.max_n)
        if num <= config.enum_cap:
            qlb_val = qlb_enum(P, max_extensions=config.enum_cap)
    itlb_val = _ln_big(num)
    sol = entropy(P, tol=min(config.tol, 1e-8))
    lb_val = P.n * (math.log(P.n) - sol.H)
    qh_val = harmonic_float(P.n) - qlb_val / P.n if qlb_val is not None else None

    gnorm = mnorm = None
    lemma1 = lemma2 = lemma3 = None
    if num <= config.matrix_cap and qlb_val is not None:
        gamma = build_adversary(P, matrix_cap=config.matrix_cap)
        gnorm = spectral_norm(gamma)
        mnorm = max_gamma_ij_norm(gamma, P)
        lemma1 = bool(gnorm >= qlb_val * (1.0 - 1e-6))
        lemma2 = bool(mnorm <= TWO_PI + 1e-6)
        ratio = gnorm / mnorm if mnorm > 0 else 0.0
        lemma3 = bool(ratio >= qlb_val / TWO_PI - 1e-6)
    return BoundsReport(
        n=P.n,
        num_extensions=int(num),
        itlb=itlb_val,
        entropy=sol.H,
        lb=lb_val,
        qlb=qlb_val,
        qh=qh_val,
        gamma_norm=gnorm,
        max_gamma_ij_norm=mnorm,
        lemma1_ok=lemma1,
        lemma2_ok=lemma2,
        lemma3_ok=lemma3,
        sandwich_ok=_sandwich_ok(itlb_val, lb_val, 1e-6),
    )


def exit_code_for_report(report: BoundsReport) -> int:
    return 2 if report.any_failed() else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    config = RunConfig(
        expr=args.expr, path=args.input, seed=args.seed, samples=args.samples,
        tol=args.tol, fmt=args.format, max_n=args.max_n,
        enum_cap=args.enum_cap, matrix_cap=args.matrix_cap,
    )
    try:
        P = load_input(config)
        report = analyze_poset(P, config)
    except (SortboundsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_emit_report(report, config.fmt))
    return exit_code_for_report(report)


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed, samples=args.samples, tol=args.tol)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


def cmd_tech_constant(args: argparse.Namespace) -> int:
    tc = tech_constant(args.max_n, collect_table=True)
    if args.format == "json":
        payload = {
            "c_min": float(tc.c_min),
            "argmin": list(tc.argmin),
            "ratios": [[int(a), int(b), float(r)] for a, b, r in tc.table],
        }
        print(json.dumps(payload))
        return 0
    print(f"c_min = {format(tc.c_min, '.17g')}")
    print(f"argmin = {tc.argmin[0]},{tc.argmin[1]}")
    print("n1,n2,ratio")
    for a, b, r in tc.table:
        print(f"{int(a)},{int(b)},{format(float(r), '.17g')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortbounds",
        description="Lower bounds for sorting under partial information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--samples", type=int, default=10**5)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p_an = sub.add_parser("analyze", help="report every bound for one poset")
    p_an.add_argument("input", nargs="?", help="poset file (.poset format)")
    p_an.add_argument("--expr", help="inline series-parallel expression")
    p_an.add_argument("--max-n", type=int, default=DEFAULT_N_CAP)
    p_an.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    p_an.add_argument("--matrix-cap", type=int, default=DEFAULT_MATRIX_CAP)
    common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ve = sub.add_parser("verify", help="run a named property suite")
    p_ve.add_argument("suite", choices=sorted(SUITES) + ["all"])
    common(p_ve)
    p_ve.set_defaults(func=cmd_verify)

    p_tc = sub.add_parser("tech-constant", help="scan the harmonic merge-cost ratio")
    p_tc.add_argument("--max-n", type=int, required=True)
    common(p_tc)
    p_tc.set_defaults(func=cmd_tech_constant)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tech-constant" and args.max_n < 2:
        parser.error("--max-n must be at least 2")
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    if args.tol <= 0:
        parser.error("--tol must be positive")
    if args.command == "analyze":
        for flag, value, default in (
            ("--max-n", args.max_n, DEFAULT_N_CAP),
            ("--enum-cap", args.enum_cap, DEFAULT_ENUM_CAP),
            ("--matrix-cap", args.matrix_cap, DEFAULT_MATRIX_CAP),
        ):
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
