"""Every analyze input of the benchmark corpus, through the CLI, against the
report recorded for it in bench/reference.json.

The comparison is the benchmark's own, `bench/ops.check_report`: exact for
counts and flags, relative 1e-12 for ITLB/QLB/QH, 1e-8 for the entropy, and
relative 1e-6 for the norms; a field recorded as null is not checked.  The
files under bench/ are only read.  Each report's LB and QH must also equal,
bit for bit, the library's one derivation of each: `lb(P)`, and the exact
H_n - QLB / n rounded once.  The entropy and LB may move from the recorded
values only within the certified gaps of the solved leaves.
"""
import contextlib
import io
import json
import pathlib
import sys
import types

import pytest

from sortbounds import (analyze, cli, entropy_sp, harmonic, lb, parse_sp, poset_from_text,
                        qlb_sp_fraction, realize, sp_decomposition)
from sortbounds.quantum import MATRIX_CAP

OPS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "ops.py"
# compiled from source, so that no bytecode cache is written under bench/
ops = sys.modules["bench_ops"] = types.ModuleType("bench_ops")
ops.__file__ = str(OPS)
exec(compile(OPS.read_text(encoding="utf-8"), str(OPS), "exec"), ops.__dict__)

INPUTS = {name: entry for name, entry in ops.load_reference()["inputs"].items()
          if "report" in entry}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_analyze_matches_reference(name, tmp_path):
    entry = INPUTS[name]
    if entry["fmt"] == "poset":
        path = tmp_path / f"{name}.poset"
        path.write_text(entry["text"], encoding="ascii")
        source = [str(path)]
    else:
        source = ["--expr", entry["text"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", *source, "--format", "json"])
    assert (code, err.getvalue()) == (0, "")
    rep = json.loads(out.getvalue())
    assert ops.check_report(rep, entry["report"]) is None
    # every block has at most N extensions, so QLB is known whenever N is
    # within the matrix cap: the adversary fields are null exactly past it
    assert (rep["gamma_norm"] is None) == (rep["num_extensions"] > MATRIX_CAP)
    text = entry["text"]
    P = poset_from_text(text) if entry["fmt"] == "poset" else realize(parse_sp(text))
    assert rep["lb"] == lb(P)
    if rep["qlb"] is not None:
        qlb = qlb_sp_fraction(sp_decomposition(P)[0])
        assert rep["qh"] == float(harmonic(P.n) - qlb / P.n)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_entropy_and_lb_move_within_the_certificate(name):
    # each leaf stops at a certified gap kkt_b <= 1e-8, so its H_b lies in
    # [H_b*, H_b* + kkt_b]: n H and LB move by at most g = sum_b n_b kkt_b
    # from the recorded values (1e-12 of rounding and recorded gaps)
    entry = INPUTS[name]
    want, text = entry["report"], entry["text"]
    P = poset_from_text(text) if entry["fmt"] == "poset" else realize(parse_sp(text))
    rep, fold = analyze(P), entropy_sp(sp_decomposition(P)[0])
    assert (rep.entropy, rep.lb) == (fold.H, fold.lb)
    g = sum(len(sol.z_star) * sol.kkt_residual for sol in fold.leaves)
    assert abs(rep.entropy - want["entropy"]) <= g / P.n + 1e-12
    assert abs(rep.lb - want["lb"]) <= g + 1e-12
    flags = [key for key in want if key.endswith("_ok")]
    assert len(flags) == 4
    assert {key: getattr(rep, key) for key in flags} == {key: want[key] for key in flags}
