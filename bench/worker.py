"""Baseline worker: runs benchmark ops with the frozen copy of the reference
commit's sortbounds in `bench/baseline/`, for `run.py` to time the machine
against.

    python3 bench/worker.py WORKDIR

It reads one op per line on stdin, as JSON, and writes one JSON line per op
on stdout: the op's latency and whether its output passed the oracle.  It
ends when stdin closes.  `Baseline` starts and stops it.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import ops  # noqa: E402

BASELINE = ops.HERE / "baseline"
REPLY_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 120


def setup_probe(workload: str, workdir: Path, package_root: Path) -> float:
    """Seconds of one set-up (`probe.py`) in a fresh interpreter, with the
    sortbounds package under `package_root`."""
    done = subprocess.run(
        [sys.executable, str(ops.HERE / "probe.py"), workload, str(workdir), str(package_root)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ops.HERE.parent,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1])


class Baseline:
    """A worker process running the baseline package, one op at a time.
    Only one of it and the measured program runs at any moment."""

    def __init__(self, workdir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(ops.HERE / "worker.py"), str(workdir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ops.HERE.parent,
        )

    def run(self, op: ops.Op) -> float:
        """The baseline's latency on `op`; raises if the baseline fails it."""
        self.proc.stdin.write(json.dumps(asdict(op)) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"baseline worker exited with code {self.proc.wait(REPLY_TIMEOUT_S)}")
        reply = json.loads(line)
        if reply["outcome"] != "ok":
            raise RuntimeError(f"baseline op {op.name} {reply['outcome']}")
        return reply["latency_s"]

    def close(self) -> None:
        """Stop the worker and wait until it has ended."""
        try:
            self.proc.stdin.close()
            self.proc.wait(REPLY_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Baseline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> int:
    workdir = Path(sys.argv[1])
    sys.path.insert(0, str(BASELINE))
    import sortbounds.cli  # noqa: F401

    sb = sys.modules["sortbounds"]
    if not os.path.realpath(sb.__file__).startswith(os.path.realpath(BASELINE)):
        print(f"error: imported sortbounds from {sb.__file__}, not {BASELINE}", file=sys.stderr)
        return 2
    ref = ops.load_reference()

    for line in sys.stdin:
        op = ops.Op(**json.loads(line))
        latency, out, err = ops.timed(sb, op, workdir)
        reason = err if err is not None else ops.check(ref, op, out)
        ops.malloc_trim()
        print(json.dumps({"latency_s": latency,
                          "outcome": "ok" if reason is None else f"failed: {reason}"}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
