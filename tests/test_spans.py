"""The per-layer harness, bench/spans.py, on one traced adversary op.

`bench/run.py --trace 1` reads its per-layer metrics off `spans.op_metrics`,
whose counters read the library's results (the adversary matrix's stored
entries among them), so a change of those results must keep it running.
The files under bench/ are only read.
"""
import contextlib
import io
import json
import pathlib
import sys
import types

from sortbounds import build_adversary, cli, parse_sp, realize

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
# compiled from source, so that no bytecode cache is written under bench/
spans = sys.modules["bench_spans"] = types.ModuleType("bench_spans")
spans.__file__ = str(SPANS)
exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans.__dict__)


def test_traced_adversary_op_counts_gamma_entries():
    ref = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))
    name, entry = next((name, ref["inputs"][name])
                       for name in ref["workloads"]["adversary"]["fixed"]
                       if ref["inputs"][name]["fmt"] == "expr")
    tracer = spans.Tracer()
    out = io.StringIO()
    with tracer, contextlib.redirect_stdout(out):
        code = cli.main(["analyze", "--expr", entry["text"], "--format", "json"])
    assert code == 0, name
    assert json.loads(out.getvalue())["lemma1_ok"] is True, name
    metrics = spans.op_metrics(tracer.spans)
    P = realize(parse_sp(entry["text"]))
    assert metrics["quantum.adversary_nnz"] == build_adversary(P).to_csr().nnz > 0, name
    assert metrics["quantum.adversary_build_s"] > 0, name
