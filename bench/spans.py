"""Per-layer spans recorded from outside sortbounds.

While a `Tracer` is active, every public function of the layer modules is
replaced, wherever the package refers to it (module namespaces and
module-level dicts such as `suites.SUITES`), by a wrapper that records a
span: layer, function, parent span, start, end, and a few counters read
from the arguments or result.  The layers are the package modules.
`orderstats` and `families` are not layers of their own: their time counts
to the calling layer, because `orderstats` is reached only through `suites`
and `families` only builds inputs.  Generator functions are left unwrapped,
since the work of a generator happens after it returns.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "sortbounds"
LAYERS = ("poset", "spexpr", "linext", "polytopes", "quantum", "suites", "cli")

# Counters read at a span's end: (args, kwargs, result) -> {name: number}.
COUNTERS = {
    "build_adversary": lambda a, k, r: {"nnz": len(r.vals)},
    "entropy": lambda a, k, r: {"newton_steps": r.newton_steps, "gap": r.kkt_residual},
    "chain_matrix": lambda a, k, r: {"chains": r.shape[0]},
    "extension_orders": lambda a, k, r: {"extensions": len(r)},
    "qh_mc": lambda a, k, r: {"samples": a[1] if len(a) > 1 else k["samples"]},
    "run_suites": lambda a, k, r: {"failed": sum(not c.ok for c in r)},
}
QLB_FUNCS = {"qlb_enum", "qlb_fraction", "qlb_sp", "qlb_sp_fraction", "qh_exact", "qh_fraction"}
SUITE_FUNCS = ("sp", "lemmas", "polytopes", "orderstats", "adversary")


class Span:
    __slots__ = ("layer", "func", "parent", "start", "end", "counters")

    def __init__(self, layer: str, func: str, parent: int):
        self.layer, self.func, self.parent = layer, func, parent
        self.counters: dict | None = None
        self.start = perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that installs the span wrappers and removes them on
    exit; `spans` holds the spans recorded since the last `reset`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:  # a layer merged away reads 0
                continue
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    self._wrappers[fn] = self._wrap(fn, layer, name)
        self._namespaces = [
            vars(m) for key, m in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        self._undo: list[tuple[dict, str, object]] = []

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counters = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, table: dict) -> None:
        for key, value in list(table.items()):
            if isinstance(key, str) and key.startswith("__"):
                continue
            try:
                wrapper = self._wrappers.get(value)
            except TypeError:  # unhashable value
                continue
            if wrapper is not None:
                self._undo.append((table, key, value))
                table[key] = wrapper

    def __enter__(self) -> "Tracer":
        for ns in self._namespaces:
            self._patch(ns)
            for value in list(ns.values()):
                if isinstance(value, dict) and value is not ns:
                    self._patch(value)
        return self

    def __exit__(self, *exc) -> None:
        for table, key, value in reversed(self._undo):
            table[key] = value
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()


# ---------------------------------------------------------------------------
# Per-op layer metrics
# ---------------------------------------------------------------------------

def _ancestors(spans: list[Span], span: Span):
    p = span.parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


def _outermost(spans: list[Span], funcs) -> list[Span]:
    """Spans of `funcs` not nested in another span of `funcs`."""
    return [s for s in spans if s.func in funcs
            and not any(a.func in funcs for a in _ancestors(spans, s))]


def _total(spans: list[Span], funcs) -> float:
    return sum(s.seconds for s in _outermost(spans, funcs))


def _count(spans: list[Span], func: str, key: str) -> float:
    return sum(s.counters[key] for s in spans if s.func == func and s.counters)


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of one traced op, from its spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, c in zip(spans, child):
        self_s[s.layer] += s.seconds - c
    norms = [(s, any(a.func == "max_gamma_ij_norm" for a in _ancestors(spans, s)))
             for s in spans if s.func == "spectral_norm"]
    gaps = [s.counters["gap"] for s in spans if s.func == "entropy" and s.counters]
    out = {
        "quantum.masked_norms_s": _total(spans, {"max_gamma_ij_norm"}),
        "quantum.masked_norm_calls": float(sum(m for _, m in norms)),
        "quantum.gamma_norm_s": sum(s.seconds for s, m in norms if not m),
        "quantum.adversary_build_s": _total(spans, {"build_adversary"}),
        "quantum.adversary_nnz": _count(spans, "build_adversary", "nnz"),
        "linext.count_s": _total(spans, {"count_extensions", "itlb"}),
        "linext.count_sp_s": _total(spans, {"count_extensions_sp"}),
        "linext.enumerate_s": _total(spans, {"extension_orders"}),
        "linext.extensions_enumerated": _count(spans, "extension_orders", "extensions"),
        "quantum.qlb_s": _total(spans, QLB_FUNCS),
        "polytopes.entropy_s": _total(spans, {"entropy"}),
        "polytopes.newton_steps": _count(spans, "entropy", "newton_steps"),
        "polytopes.chains": float(sum(
            s.counters["chains"] for s in spans if s.func == "chain_matrix" and s.counters
            and s.parent >= 0 and spans[s.parent].func == "entropy")),
        "polytopes.duality_gap_max": max(gaps, default=0.0),
        "quantum.qh_mc_s": _total(spans, {"qh_mc"}),
        "quantum.mc_samples": _count(spans, "qh_mc", "samples"),
        "poset.read_s": _total(spans, {"read_poset", "poset_from_text"}),
        "spexpr.realize_s": _total(spans, {"parse_sp", "realize"}),
        "spexpr.decompose_s": _total(spans, {"sp_decomposition", "recognize_sp"}),
        "suites.checks_failed": _count(spans, "run_suites", "failed"),
    }
    for suite in SUITE_FUNCS:
        out[f"suites.{suite}_s"] = _total(spans, {f"suite_{suite}"})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return out
