"""Record `reference.json`: the benchmark corpus and its expected outputs.

    python3 bench/record.py && python3 bench/nominal.py

It records with the frozen copy of the reference commit's sortbounds in
`bench/baseline/`, so it gives the same result from any checkout, and it
takes several minutes; `nominal.py` then adds the baseline's latencies,
which this script does not keep.  The corpus (expressions and `.poset` texts) is
generated here, once, from fixed generator seeds, so later changes to
`sortbounds.families` cannot change the benchmark's inputs.  For each input
it stores the `analyze` report and/or the exact (or high-sample) QH, and for
each pool the recorded cost of one op, which orders the pool into the cost
strata that `ops.stratified_picks` draws from.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import ops  # noqa: E402

ROOT = ops.HERE.parent
sys.path.insert(0, str(ops.HERE / "baseline"))

import numpy as np  # noqa: E402

import sortbounds  # noqa: E402
import sortbounds.cli  # noqa: E402
from sortbounds import families, linext, poset, quantum, spexpr  # noqa: E402
from sortbounds.orderstats import harmonic  # noqa: E402

WORKDIR = ROOT / ".bench_work" / "record"

ADVERSARY_FIXED = {
    "N2": "N(2)",
    "c2x4": "chain(2)+chain(2)+chain(2)+chain(2)",
    "N1+c2+c2": "N(1)+chain(2)+chain(2)",
    "antichain6": "antichain(6)",
}
LATTICE_FIXED = {
    "N1+antichain16": "N(1)+antichain(16)",
    "N1N1+antichain12": "N(1)*N(1)+antichain(12)",
    "N5": "N(5)",
    "N2+c2+c2": "N(2)+chain(2)+chain(2)",
    "layers3x6": "*".join(["(.+.+.)"] * 6),
    "layers2x10": "*".join(["(.+.)"] * 10),
    "antichain20": "antichain(20)",
    "N1+c3x3": "N(1)+chain(3)+chain(3)+chain(3)",
    "N1+antichain12": "N(1)+antichain(12)",
    "N1+antichain14": "N(1)+antichain(14)",
    "layers4x5": "*".join(["(.+.+.+.)"] * 5),
    "layers5x4": "*".join(["(.+.+.+.+.)"] * 4),
}
SAMPLE_FIXED = ["fence20", "N5", "layers3x6", "layers2x10", "N2+c2+c2"]

# (members kept, picks per run) of each seeded pool
ADVERSARY_POOL = (64, 1)    # random_poset(7..9) with 50-4000 extensions
ADVERSARY_MAX_COST_S = 1.5   # keeps every input far below a third of a pass
# The pool member with the largest peak RSS on the reference commit, run in
# every pass, so that peak_rss_mb does not hinge on whether a seed draws it.
ADVERSARY_FIXED_RANDOM = "adv-rand19"
LATTICE_P_POOLS = {0.1: (8, 1), 0.15: (8, 1), 0.2: (8, 1), 0.3: (8, 1)}
LATTICE_SP_POOL = (12, 2)
LATTICE_MAX_COST_S = 1.0     # enumeration-heavy inputs are among the fixed ones
SAMPLE_SP_POOL = (16, 4)
SAMPLE_MIN_EXTENSIONS = 500_000  # above it qh_mc walks the DP table per sample
SAMPLE_MAX_COST_S = 1.5
VERIFY_SEEDS = range(1, 17)
VERIFY_PICKS = 2
# The suite op with the largest peak RSS on the reference commit, run in
# every pass, so that peak_rss_mb does not hinge on whether a seed draws it.
VERIFY_FIXED_OP = "polytopes@11"
QH_REFERENCE_SAMPLES = 400_000


def poset_input(P) -> dict:
    return {"fmt": "poset", "text": poset.poset_to_text(P)}


def expr_input(text: str) -> dict:
    return {"fmt": "expr", "text": text}


def analyze(inputs: dict, name: str) -> float:
    """Record the analyze report of one input; returns the op latency."""
    op = ops.Op("analyze", name, inputs[name]["text"], inputs[name]["fmt"])
    ops.write_inputs([op], WORKDIR)
    latency, out, err = ops.timed(sortbounds, op, WORKDIR)
    if err is not None or out[0] != 0:
        raise RuntimeError(f"analyze {name} failed: {err or out}")
    inputs[name]["report"] = json.loads(out[1])
    return latency


def exact_qh(P, text: str, fmt: str) -> dict | None:
    """Exact QH from the SP recurrence or by enumeration; None if neither
    applies (a non-SP poset above the enumeration cap)."""
    if fmt == "expr":
        try:
            q = harmonic(P.n) - quantum.qlb_sp_fraction(spexpr.parse_sp(text)) / P.n
            return {"value": float(q), "stderr": 0.0, "method": "qlb_sp"}
        except sortbounds.UnsupportedNBlockError:
            pass
    if linext.count_extensions(P) <= 10**6:
        return {"value": float(quantum.qh_fraction(P)), "stderr": 0.0, "method": "qh_exact"}
    return None


def sample_reference(inputs: dict, name: str) -> float:
    """Record QH for one sample input; returns the op latency."""
    entry = inputs[name]
    op = ops.Op("sample", name, entry["text"], entry["fmt"], seed=1)
    P = ops.build_poset(sortbounds, op)
    qh = exact_qh(P, entry["text"], entry["fmt"])
    if qh is None:
        est, se = quantum.qh_mc(P, QH_REFERENCE_SAMPLES, 20190218)
        qh = {"value": est, "stderr": se, "method": f"qh_mc {QH_REFERENCE_SAMPLES} samples"}
    entry["qh"] = qh
    latency, out, err = ops.timed(sortbounds, op, WORKDIR)
    if err is not None or ops.check({"inputs": inputs}, op, out) is not None:
        raise RuntimeError(f"sample {name} failed: {err or out}")
    return latency


def pool(costs: dict[str, float], picks: int) -> dict:
    """A pool sorted by recorded cost, the order its strata are cut in."""
    return {"members": sorted(costs, key=costs.get), "picks": picks}


def workload(fixed: dict[str, float], pools: list[tuple[dict[str, float], int]]) -> dict:
    costs = dict(fixed)
    for members, _ in pools:
        costs.update(members)
    return {
        "fixed": list(fixed),
        "pools": [pool(members, picks) for members, picks in pools],
        "cost_s": {k: round(v, 4) for k, v in costs.items()},
        "warmup": min(fixed, key=fixed.get),
    }


def sp_pool(inputs: dict, prefix: str, gen_seed: int, size: int, record,
            min_extensions: int = 0, max_cost: float = float("inf")) -> dict[str, float]:
    """random_sp_expr(20) members with at least `min_extensions` extensions
    whose recorded op costs at most `max_cost` seconds."""
    costs = {}
    t = 0
    while len(costs) < size:
        e = families.random_sp_expr(np.random.default_rng([gen_seed, t]), 20)
        name = f"{prefix}{t}"
        t += 1
        text = str(e)
        if not (spexpr.realize(spexpr.parse_sp(text)).rel == spexpr.realize(e).rel).all():
            raise RuntimeError(f"expression {text!r} does not round-trip")
        if linext.count_extensions_sp(e) < min_extensions:
            continue
        inputs[name] = expr_input(text)
        cost = record(inputs, name)
        if cost <= max_cost:
            costs[name] = cost
        else:
            del inputs[name]
    return costs


def main() -> None:
    started = time.perf_counter()
    inputs: dict[str, dict] = {}
    for name, text in {**ADVERSARY_FIXED, **LATTICE_FIXED}.items():
        inputs[name] = expr_input(text)
    for n in (7, 8, 20):
        inputs[f"fence{n}"] = poset_input(families.fence_poset(n))
    workloads = {}

    # adversary: the fixed inputs plus random_poset(7..9) with 50-4000
    # extensions, so that the adversary matrix is built.
    fixed = {name: analyze(inputs, name) for name in [*ADVERSARY_FIXED, "fence7", "fence8"]}
    costs: dict[str, float] = {}
    t = 0
    while len(costs) < ADVERSARY_POOL[0]:
        rng = np.random.default_rng([7, t])
        n = int(rng.integers(7, 10))
        P = families.random_poset(n, rng, p=float(rng.uniform(0.1, 0.4)))
        name = f"adv-rand{t}"
        t += 1
        if not 50 <= linext.count_extensions(P) <= 4000:
            continue
        inputs[name] = poset_input(P)
        cost = analyze(inputs, name)
        if cost <= ADVERSARY_MAX_COST_S:
            costs[name] = cost
        else:
            del inputs[name]
    fixed[ADVERSARY_FIXED_RANDOM] = costs.pop(ADVERSARY_FIXED_RANDOM)
    workloads["adversary"] = workload(fixed, [(costs, ADVERSARY_POOL[1])])
    print("adversary recorded", file=sys.stderr)

    # lattice: n = 12..20 above the matrix cap; non-SP random posets reach
    # the ideal DP inside analyze, SP ones take the product formulas.
    fixed = {name: analyze(inputs, name) for name in [*LATTICE_FIXED, "fence20"]}
    pools = []
    for k, (p, (size, picks)) in enumerate(LATTICE_P_POOLS.items()):
        costs = {}
        t = 0
        while len(costs) < size:
            P = families.random_poset(20, np.random.default_rng([20, k, t]), p=p)
            name = f"lat-rand-p{p}-{t}"
            t += 1
            if spexpr.sp_decomposition(P) is not None:
                continue
            inputs[name] = poset_input(P)
            cost = analyze(inputs, name)
            if cost <= LATTICE_MAX_COST_S:
                costs[name] = cost
            else:
                del inputs[name]
        pools.append((costs, picks))
    pools.append((sp_pool(inputs, "lat-sp", 21, LATTICE_SP_POOL[0], analyze), LATTICE_SP_POOL[1]))
    workloads["lattice"] = workload(fixed, pools)
    print("lattice recorded", file=sys.stderr)

    # sample: qh_mc on posets with more than 500k extensions (the DP walk)
    # and fewer (the enumerated branch).
    fixed = {name: sample_reference(inputs, name) for name in SAMPLE_FIXED}
    costs = sp_pool(inputs, "smp-sp", 22, SAMPLE_SP_POOL[0], sample_reference,
                    SAMPLE_MIN_EXTENSIONS, SAMPLE_MAX_COST_S)
    workloads["sample"] = workload(fixed, [(costs, SAMPLE_SP_POOL[1])])
    print("sample recorded", file=sys.stderr)

    # verify: suite seeds on which every check passes at this commit; the
    # cost of a seed is that of its five suite ops.
    suites = list(sortbounds.suites.SUITES)
    costs, checks, excluded, op_cost = {}, {}, {}, {}
    suite_cost = dict.fromkeys(suites, 0.0)
    for seed in VERIFY_SEEDS:
        total = 0.0
        for suite in suites:
            op = ops.Op("suite", f"{suite}@{seed}", seed=seed, suite=suite)
            latency, out, err = ops.timed(sortbounds, op, WORKDIR)
            if err is not None or not all(r.ok for r in out):
                excluded[str(seed)] = err or next(r.line() for r in out if not r.ok)
                break
            checks[suite] = sorted(r.name for r in out)
            op_cost[op.name] = latency
            suite_cost[suite] += latency
            total += latency
        else:
            costs[str(seed)] = total
    workloads["verify"] = {
        "fixed": [VERIFY_FIXED_OP],
        "pools": [pool(costs, VERIFY_PICKS)],
        "cost_s": {k: round(v, 4) for k, v in {**costs, VERIFY_FIXED_OP: op_cost[VERIFY_FIXED_OP]}.items()},
        "warmup": [min(costs, key=costs.get), min(suite_cost, key=suite_cost.get)],
        "suites": suites,
        "checks": checks,
        "excluded_seeds": excluded,
    }

    ref = {
        "recorded_with": {
            "sortbounds": sortbounds.__version__,
            "numpy": np.__version__,
            "seconds": round(time.perf_counter() - started, 1),
        },
        "workloads": workloads,
        "inputs": inputs,
    }
    with open(ops.REFERENCE, "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    main()
