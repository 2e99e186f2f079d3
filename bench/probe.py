"""Set-up probe: in a fresh interpreter, time `import sortbounds` plus one
warm-up op on the workload's cheapest input, and print the seconds.

    python3 bench/probe.py WORKLOAD WORKDIR [PACKAGE_ROOT]

PACKAGE_ROOT is the directory that holds the `sortbounds` package: the
checkout's `src/` by default, or `bench/baseline/` for the baseline.
`run.py` starts it a few times per run, for the program and the baseline in
turn, and reports setup_s from their ratios.
"""
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import ops  # noqa: E402


def main() -> int:
    workload, workdir = sys.argv[1], Path(sys.argv[2])
    ref = ops.load_reference()
    op = ops.warmup_op(ref, workload)
    sys.path.insert(0, sys.argv[3] if len(sys.argv) > 3 else str(ops.HERE.parent / "src"))
    start = time.perf_counter()
    import sortbounds.cli  # noqa: F401

    _, out, err = ops.timed(sys.modules["sortbounds"], op, workdir)
    seconds = time.perf_counter() - start
    reason = err or ops.check(ref, op, out)
    if reason:
        print(f"warm-up op {op.name} failed: {reason}", file=sys.stderr)
        return 1
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
