"""Record the baseline's op latencies, `baseline_s` in `reference.json`.

    python3 bench/nominal.py [WORKLOAD ...]

Every input a run can draw is run ROUNDS times through the baseline worker
(`worker.py`), in a seeded order that differs per round, and its median
latency is stored.  `run.py` scales its latencies by these: they set the
machine speed that the reported times refer to.  Takes about ten minutes
for all workloads.
"""
from __future__ import annotations

import json
import random
import shutil
import statistics
import sys

import ops
import worker

ROUNDS = 5
SETUP_PROBES = 9


def record(ref: dict, workload: str) -> tuple[dict[str, float], float]:
    """(median latency of each op, median set-up seconds) of the baseline."""
    todo = ops.all_ops(ref, workload)
    workdir = ops.HERE.parent / ".bench_work" / f"nominal-{workload}"
    warmup = ops.warmup_op(ref, workload)
    ops.write_inputs([*todo, warmup], workdir)
    times: dict[str, list[float]] = {op.name: [] for op in todo}
    rng = random.Random(f"nominal:{workload}")
    try:
        setup = statistics.median(worker.setup_probe(workload, workdir, worker.BASELINE)
                                  for _ in range(SETUP_PROBES))
        with worker.Baseline(workdir) as baseline:
            baseline.run(warmup)
            for _ in range(ROUNDS):
                rng.shuffle(todo)
                for op in todo:
                    times[op.name].append(baseline.run(op))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ({name: round(statistics.median(ts), 6) for name, ts in sorted(times.items())},
            round(setup, 6))


def main() -> int:
    ref = ops.load_reference()
    table = ref.setdefault("baseline_s", {})
    setups = ref.setdefault("baseline_setup_s", {})
    for workload in sys.argv[1:] or list(ref["workloads"]):
        table[workload], setups[workload] = record(ref, workload)
        print(f"{workload}: {len(table[workload])} ops, "
              f"{sum(table[workload].values()):.1f} s per round", flush=True)
        with open(ops.REFERENCE, "w", encoding="ascii") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
