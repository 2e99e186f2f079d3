"""Benchmark operations: what one op sends to sortbounds and how its output
is checked against the recorded reference.

Every op rebuilds its poset from `.poset` text or an expression, so no
`Poset` object (and none of the caches attached to it) survives from one op
to the next.  This module imports only the standard library at import time;
sortbounds is passed in by the caller once it has been imported, so that the
set-up probe can time that import.
"""
from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Tolerances of the analyze oracle, by report field.
EXACT_FIELDS = ("n", "num_extensions", "lemma1_ok", "lemma2_ok", "lemma3_ok", "sandwich_ok")
REL_1E12_FIELDS = ("itlb", "qlb", "qh")
NORM_FIELDS = ("gamma_norm", "max_gamma_ij_norm")
SUITE_SAMPLES = 10**5
SUITE_TOL = 1e-8
SAMPLE_COUNT = 5000         # chain-polytope points per qh_mc op
MC_SIGMAS = 5.0


def load_reference() -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Op:
    """One request: `kind` is analyze, sample or suite."""

    kind: str
    name: str
    text: str = ""          # expression or .poset text
    fmt: str = "expr"       # "expr" or "poset"
    seed: int = 0           # sampler seed (sample) or suite seed (suite)
    suite: str = ""


# ---------------------------------------------------------------------------
# Corpus selection
# ---------------------------------------------------------------------------

def stratified_picks(members: list[str], picks: int, rng: random.Random) -> list[str]:
    """One member from each of `picks` contiguous strata of a list sorted by
    recorded cost, so every seed draws the same cost profile; in cost order.
    Past the pool's size every member is taken once per full round."""
    rounds, rest = divmod(picks, len(members))
    index = [i for i in range(len(members)) for _ in range(rounds)]
    bounds = [round(k * len(members) / rest) for k in range(rest + 1)] if rest else [0]
    index += [rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return [members[i] for i in sorted(index)]


def pass_cost(ref: dict, workload: str) -> float:
    """The expected cost of one pass in seconds from the recorded op costs,
    the same for every seed: the fixed inputs plus, for each pool, its picks
    times its mean member cost."""
    spec = ref["workloads"][workload]
    costs = spec["cost_s"]
    return sum(costs[name] for name in spec["fixed"]) + sum(
        pool["picks"] * sum(costs[m] for m in pool["members"]) / len(pool["members"])
        for pool in spec["pools"])


def build_passes(ref: dict, workload: str, seed: int, passes: int) -> list[list[Op]]:
    """The ops of each pass: the workload's fixed inputs, then its picks from
    each recorded pool.  A run draws `picks * passes` stratified members of a
    pool from the seed and deals each run of `passes` neighbours in cost order
    out to the passes in a seeded order.  A run thus covers many members in
    narrow cost strata, and its cost depends little on which ones a seed
    draws."""
    spec = ref["workloads"][workload]
    rng = random.Random(f"{workload}:{seed}")
    picked: list[list[str]] = [[] for _ in range(passes)]
    for pool in spec["pools"]:
        drawn = stratified_picks(pool["members"], pool["picks"] * passes, rng)
        for k in range(pool["picks"]):
            group = drawn[k * passes:(k + 1) * passes]
            rng.shuffle(group)
            for names, name in zip(picked, group):
                names.append(name)
    return [make_ops(ref, workload, [*spec["fixed"], *pass_picks], rng) for pass_picks in picked]


def make_ops(ref: dict, workload: str, names: list[str], rng: random.Random) -> list[Op]:
    """The ops of the named inputs; `rng` draws the sampler seeds.  For
    verify a name is a suite seed, which makes one op per suite, or
    `suite@seed`, which makes that one op."""
    if workload == "verify":
        out = []
        for name in names:
            suite, _, seed = name.rpartition("@")
            for s in [suite] if suite else ref["workloads"]["verify"]["suites"]:
                out.append(Op("suite", f"{s}@{seed}", seed=int(seed), suite=s))
        return out
    inputs = ref["inputs"]
    kind = "sample" if workload == "sample" else "analyze"
    return [Op(kind, name, inputs[name]["text"], inputs[name]["fmt"],
               seed=rng.randrange(2**31) if kind == "sample" else 0)
            for name in names]


def all_ops(ref: dict, workload: str) -> list[Op]:
    """One op of every input a run of the workload can draw."""
    spec = ref["workloads"][workload]
    names = [*spec["fixed"], *(m for pool in spec["pools"] for m in pool["members"])]
    return make_ops(ref, workload, names, random.Random(workload))


def warmup_op(ref: dict, workload: str) -> Op:
    """The workload's cheapest recorded input, run once before timing."""
    spec = ref["workloads"][workload]
    if workload == "verify":
        return Op("suite", "warmup", seed=int(spec["warmup"][0]), suite=spec["warmup"][1])
    name = spec["warmup"]
    entry = ref["inputs"][name]
    kind = "sample" if workload == "sample" else "analyze"
    return Op(kind, name, entry["text"], entry["fmt"], seed=1)


def write_inputs(ops: list[Op], workdir: Path) -> None:
    """Materialize the .poset inputs the CLI reads from disk."""
    workdir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.fmt == "poset":
            (workdir / f"{op.name}.poset").write_text(op.text, encoding="ascii")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def build_poset(sb, op: Op):
    if op.fmt == "poset":
        return sb.poset.poset_from_text(op.text)
    return sb.spexpr.realize(sb.spexpr.parse_sp(op.text))


def execute(sb, op: Op, workdir: Path):
    """Run one op through sortbounds' public entry points and return its raw
    output; only this call is inside the timed region."""
    if op.kind == "analyze":
        source = [str(workdir / f"{op.name}.poset")] if op.fmt == "poset" else ["--expr", op.text]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sb.cli.main(["analyze", *source, "--format", "json"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    if op.kind == "sample":
        P = build_poset(sb, op)
        return sb.quantum.qh_mc(P, SAMPLE_COUNT, op.seed)
    return sb.suites.run_suites([op.suite], op.seed, samples=SUITE_SAMPLES, tol=SUITE_TOL)


def _malloc_trim():
    """Hand freed heap back to the OS between ops, as the exit of a
    one-shot CLI process would; without it heap fragmentation left by
    earlier ops inflates the peak RSS of later ones.  glibc only."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    return lambda: trim(0)


malloc_trim = _malloc_trim()


def timed(sb, op: Op, workdir: Path) -> tuple[float, object, str | None]:
    """(latency in seconds, output, error text or None)."""
    start = time.perf_counter()
    try:
        out = execute(sb, op, workdir)
    except Exception as exc:  # a failed op is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, None


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _close(got, want, rel: float = 0.0, abs_: float = 0.0) -> bool:
    return isinstance(got, (int, float)) and not isinstance(got, bool) and (
        abs(got - want) <= max(abs_, rel * abs(want))
    )


def check_report(got: dict, want: dict) -> str | None:
    """Field-by-field comparison of an analyze report with its reference.
    A reference null is not checked; a reference value must not turn null."""
    for key, ref in want.items():
        if ref is None:
            continue
        if key not in got or got[key] is None:
            return f"{key}: missing, reference {ref!r}"
        val = got[key]
        if key in EXACT_FIELDS:
            ok = val == ref and type(val) is type(ref)
        elif key in REL_1E12_FIELDS:
            ok = _close(val, ref, rel=1e-12)
        elif key == "entropy":
            ok = _close(val, ref, abs_=1e-8)
        elif key == "lb":
            ok = _close(val, ref, abs_=want["n"] * 1e-8)
        elif key in NORM_FIELDS:
            ok = _close(val, ref, rel=1e-6)
        else:
            return f"{key}: no tolerance defined"
        if not ok:
            return f"{key}: got {val!r}, reference {ref!r}"
    return None


def check(ref: dict, op: Op, out) -> str | None:
    """None when the output is correct, else a one-line reason."""
    if op.kind == "analyze":
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"unparsable report: {exc}"
        return check_report(got, ref["inputs"][op.name]["report"])
    if op.kind == "sample":
        est, se = out
        want = ref["inputs"][op.name]["qh"]
        allowed = MC_SIGMAS * math.hypot(se, want["stderr"])
        if not abs(est - want["value"]) <= allowed:
            return f"qh estimate {est!r} off reference {want['value']!r} by more than {allowed:.3g}"
        return None
    failed = [r.line() for r in out if not r.ok]
    if failed:
        return failed[0][:200]
    missing = set(ref["workloads"]["verify"]["checks"][op.suite]) - {r.name for r in out}
    if missing:
        return f"checks missing: {sorted(missing)}"
    return None
