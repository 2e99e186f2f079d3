"""The package's import layering, read from the sources with `ast`."""
import ast
import graphlib
import pathlib

import pytest

import sortbounds

PACKAGE = pathlib.Path(sortbounds.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _package_imports(node):
    """Names of the package modules one import statement reads, or []."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            return [parts[1] if len(parts) > 1 else "__init__"] if parts[0] == "sortbounds" else []
        if node.module:
            return [node.module.split(".")[0]]
        return [alias.name for alias in node.names]  # from . import a, b
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] if "." in alias.name else "__init__"
                for alias in node.names if alias.name.split(".")[0] == "sortbounds"]
    return []


def _top_level_imports(tree):
    return {name for node in tree.body for name in _package_imports(node)}


def test_sources_found():
    assert {"orderstats", "errors", "quantum", "suites"} <= MODULES.keys()


def test_orderstats_is_a_leaf():
    # the gap law needs no poset layer: a caller reads gaps with d_vector
    tree = MODULES["orderstats"]
    assert {name for node in ast.walk(tree) for name in _package_imports(node)} == {"errors"}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_function_imports_a_package_module(module):
    # lazy imports of third-party modules (scipy.integrate in `quad`) are fine
    lazy = [(fn.name, node.lineno)
            for fn in ast.walk(MODULES[module])
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if _package_imports(node)]
    assert lazy == []


def test_import_graph_has_no_cycle():
    graph = {module: _top_level_imports(tree) for module, tree in MODULES.items()}
    assert all(deps <= MODULES.keys() for deps in graph.values())
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def _row_sorts(tree):
    """The `.sort(..., axis=1)` calls (np.sort or a method) under one node."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sort"
            and any(k.arg == "axis" and isinstance(k.value, ast.Constant) and k.value.value in (1, -1)
                    for k in node.keywords)]


def test_sample_rows_are_sorted_only_by_sorted_uniforms():
    # one home for sorted uniform rows: every sampler draws them through it
    home = next(fn for fn in MODULES["orderstats"].body
                if isinstance(fn, ast.FunctionDef) and fn.name == "sorted_uniforms")
    assert len(_row_sorts(home)) == 1
    found = {(module, node.lineno) for module, tree in MODULES.items() for node in _row_sorts(tree)}
    assert found == {("orderstats", node.lineno) for node in _row_sorts(home)}


def test_certify_sandwich_calls_no_float_function():
    # the sandwich is decided on exact rationals; no log, ulp or float may return
    fn = next(node for node in MODULES["quantum"].body
              if isinstance(node, ast.FunctionDef) and node.name == "certify_sandwich")
    called = {call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
              for call in ast.walk(fn) if isinstance(call, ast.Call)}
    assert called  # the walk found the comparison's calls
    assert not called & {"log", "log1p", "log2", "exp", "ulp", "ln_count", "_ln", "float"}
