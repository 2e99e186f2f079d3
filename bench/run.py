"""sortbounds benchmark: one closed-loop client driving the package through
its public entry points.

    python3 bench/run.py --workload {adversary,lattice,sample,verify} \
        --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it imports sortbounds from the
checkout's `src/`.  A run measures set-up in fresh interpreters, then
makes as many passes over the workload's inputs (one op in flight, one
thread) as fit in S seconds at the op costs recorded in `reference.json`,
counting every op twice, so every run of a workload does the same work; the seed picks the pool
members of each pass.  Every op's output is checked against
`reference.json`.  With `--trace 0` every op is run first by the frozen
baseline copy of sortbounds in a worker process (`worker.py`), then by the
program, and the reported times are scaled to the machine speed at which
the baseline's latencies in `reference.json` were recorded; these are the
end-to-end metrics.  With `--trace 1` it runs each op untraced and then
traced, and reports the per-layer metrics.
The last line of stdout is the JSON result; a detailed record with
provenance and one row per op goes to `.bench_results/`.
"""
from __future__ import annotations

import os

# One BLAS thread: the run is a single-threaded closed loop, and OpenBLAS
# would otherwise start a thread per core.  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import ops  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

ROOT = ops.HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_PAIRS = 3             # set-ups of the program, each after one of the baseline
TAIL_PERCENTILE = 75
SPEED_WINDOW = 1            # baseline ops on each side of an op that set its scale


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(sb, ref, op, workdir, pass_no: int, traced: bool, baseline_s=None) -> dict:
    latency, out, err = ops.timed(sb, op, workdir)
    reason = err if err is not None else ops.check(ref, op, out)
    ops.malloc_trim()
    return {"input": op.name, "pass": pass_no, "traced": traced, "latency_s": latency,
            "baseline_s": baseline_s, "peak_rss_mb": peak_rss_mb(),
            "outcome": "ok" if reason is None else f"failed: {reason}"}


def run_passes(sb, ref, passes: list[list[ops.Op]], workdir, baseline=None, tracer=None):
    """Run the passes in order, each op right after the baseline's run of
    it when there is a baseline; returns (rows, wall seconds, per-op layer
    metrics of the traced ops)."""
    rows, layers = [], []
    start = time.perf_counter()
    for pass_no, pass_ops in enumerate(passes):
        for op in pass_ops:
            base = baseline.run(op) if baseline is not None else None
            rows.append(run_op(sb, ref, op, workdir, pass_no, False, base))
            if tracer is not None:
                tracer.reset()
                with tracer:
                    rows.append(run_op(sb, ref, op, workdir, pass_no, True))
                layers.append(spans.op_metrics(tracer.spans))
    return rows, time.perf_counter() - start, layers


def scale(rows, nominal: dict[str, float]) -> None:
    """Set each row's `scaled_s`: its latency at the recorded machine speed.
    The machine's slowness at an op is the median, over the baseline ops
    around it, of their latency over their recorded latency."""
    slow = [r["baseline_s"] / nominal[r["input"]] for r in rows]
    for i, r in enumerate(rows):
        r["nominal_s"] = nominal[r["input"]]
        r["slowness"] = statistics.median(slow[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
        r["scaled_s"] = r["latency_s"] / r["slowness"]


def quantile(latencies: list[float], percentile: float) -> float:
    """The Harrell-Davis estimate of a percentile: a weighted mean of all
    order statistics, with weights from a beta distribution centred on the
    percentile.  Unlike a single order statistic it does not jump when two
    ops of similar cost swap places around it."""
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(latencies, dtype=float))
    n, p = len(xs), percentile / 100.0
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ xs)


def end_to_end(rows, wall: float, setup: list[dict], nominal_setup: float) -> tuple[dict, dict]:
    """The metrics from latencies at the recorded machine speed; the raw
    ones go into the notes.  Each set-up of the program is scaled by the
    baseline's set-up just before it."""
    raw = [r["latency_s"] for r in rows]
    lat = [r["scaled_s"] for r in rows]
    slowness = statistics.median(r["baseline_s"] / r["nominal_s"] for r in rows)
    metrics = {
        "setup_s": statistics.median(s["raw_s"] * nominal_setup / s["baseline_s"] for s in setup),
        # the client's own checking between ops is not the program's time
        "ops_per_s": len(rows) / sum(lat),
        "op_p50_s": quantile(lat, 50),
        "op_tail_s": quantile(lat, TAIL_PERCENTILE),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"op_tail_percentile": TAIL_PERCENTILE, "op_samples": len(lat), "loop_wall_s": wall,
             "setup_samples": setup,
             "raw": {"setup_s": statistics.median(s["raw_s"] for s in setup),
                     "ops_per_s": len(rows) / sum(raw), "op_p50_s": quantile(raw, 50),
                     "op_tail_s": quantile(raw, TAIL_PERCENTILE)},
             "slowness": slowness}
    return metrics, notes


def per_layer(rows, layers: list[dict]) -> dict:
    """Means per traced op, except the maxima, rates and trace validity."""
    metrics = {k: statistics.fmean(op[k] for op in layers) for k in layers[0]}
    metrics["polytopes.duality_gap_max"] = max(op["polytopes.duality_gap_max"] for op in layers)
    qh_mc_s = sum(op["quantum.qh_mc_s"] for op in layers)
    samples = sum(op["quantum.mc_samples"] for op in layers)
    metrics["quantum.mc_samples_per_s"] = samples / qh_mc_s if qh_mc_s > 0 else 0.0
    traced = sum(r["latency_s"] for r in rows if r["traced"])
    untraced = sum(r["latency_s"] for r in rows if not r["traced"])
    covered = sum(op[k] for op in layers for k in op if k.endswith(".self_s"))
    metrics["trace.coverage"] = covered / traced
    metrics["trace.overhead"] = traced / untraced
    return metrics


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy
    import scipy

    files = sorted((SRC / "sortbounds").glob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
    }


# ---------------------------------------------------------------------------

def main() -> int:
    args = parse_args()
    if not (SRC / "sortbounds" / "__init__.py").is_file():
        print(f"error: no sortbounds package under {SRC}", file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    ref = ops.load_reference()
    if args.workload not in ref["workloads"]:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(ref['workloads'])}", file=sys.stderr)
        return 2
    # A fixed number of passes, so every run of a workload does the same
    # work: about --seconds of it on the machine that recorded the costs.
    # Every op runs twice: after the baseline's run of it, or traced.
    pass_cost = ops.pass_cost(ref, args.workload)
    passes = ops.build_passes(ref, args.workload, args.seed,
                              max(1, round(args.seconds / (2 * pass_cost))))
    # One core for this process and the processes it starts: the program
    # and the baseline then run on the same core, whose speed may differ
    # from the other cores' on a shared host.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warmup = ops.warmup_op(ref, args.workload)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        ops.write_inputs([*(op for p in passes for op in p), warmup], workdir)
        setup = [] if args.trace else [
            {"baseline_s": worker.setup_probe(args.workload, workdir, worker.BASELINE),
             "raw_s": worker.setup_probe(args.workload, workdir, SRC)}
            for _ in range(SETUP_PAIRS)]
        sys.path.insert(0, str(SRC))
        import sortbounds.cli  # noqa: F401

        sb = sys.modules["sortbounds"]
        if not os.path.realpath(sb.__file__).startswith(os.path.realpath(SRC)):
            print(f"error: imported sortbounds from {sb.__file__}, not {SRC}", file=sys.stderr)
            return 2
        warm = run_op(sb, ref, warmup, workdir, -1, traced=False)
        if warm["outcome"] != "ok":
            print(f"error: warm-up op {warmup.name} {warm['outcome']}", file=sys.stderr)
            return 1
        if args.trace:
            rows, wall, layers = run_passes(sb, ref, passes, workdir, tracer=spans.Tracer())
        else:
            with worker.Baseline(workdir) as baseline:
                baseline.run(warmup)
                rows, wall, layers = run_passes(sb, ref, passes, workdir, baseline)
            scale(rows, ref["baseline_s"][args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    failed = sum(r["outcome"] != "ok" for r in rows)
    if args.trace:
        metrics, notes = per_layer(rows, layers), {}
    else:
        metrics, notes = end_to_end(rows, wall, setup, ref["baseline_setup_s"][args.workload])
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "notes": notes, "fail_ratio": failed / len(rows),
        "ops": [{"workload": args.workload, **r} for r in rows],
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for r in rows:
        if r["outcome"] != "ok":
            print(f"FAILED {r['input']} (pass {r['pass']}): {r['outcome']}")
    print(f"{args.workload} seed {args.seed}: {len(rows)} ops in {wall:.2f} s, "
          f"{len(passes)} pass(es) of {len(passes[0])} ops")
    for k, u in units.items():
        print(f"  {k} = {metrics[k]:.6g} {u}")
    print(f"  fail_ratio = {failed / len(rows):.6g} 1 ({failed}/{len(rows)})")
    if notes:
        print(f"  op_tail_s is p{notes['op_tail_percentile']} of {notes['op_samples']} ops")
        print(f"  times above are at the recorded machine speed; the baseline ran at "
              f"{notes['slowness']:.3f}x its recorded times, and this run measured")
        for k, v in notes["raw"].items():
            print(f"  raw {k} = {v:.6g} {units[k]}")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(rows), "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
