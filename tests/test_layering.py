"""The package's import layering, read from the sources with `ast`."""
import ast
import graphlib
import inspect
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
    # a function may import a third-party module lazily, but no package module
    lazy = [(fn.name, node.lineno)
            for fn in ast.walk(MODULES[module])
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if _package_imports(node)]
    assert lazy == []


def _imported_modules(tree):
    """Absolute names of every module an import statement anywhere in tree reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_scipy_quadrature_or_optimization(module):
    # `orderstats.quad` is numpy only; scipy.integrate, which loads
    # scipy.optimize with it, is an oracle of the tests alone
    banned = ("scipy.integrate", "scipy.optimize")
    assert [name for name in _imported_modules(MODULES[module])
            if any(name == b or name.startswith(b + ".") for b in banned)] == []


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


@pytest.mark.parametrize("fn", [
    sortbounds.analyze, sortbounds.count_extensions, sortbounds.count_extensions_sp,
    sortbounds.extension_orders, sortbounds.qlb_fraction, sortbounds.qlb_sp_fraction,
    sortbounds.build_adversary,
], ids=lambda fn: fn.__name__)
def test_no_size_cap_can_be_set(fn):
    # the caps are constants (poset.MAX_N, linext.ENUM_CAP, quantum.MATRIX_CAP)
    # read where each refusal happens: every entry point takes only its input
    assert len(inspect.signature(fn).parameters) == 1


def test_no_module_reads_the_environment():
    # so no variable can set a cap either
    read = [(module, node.attr) for module, tree in MODULES.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb")]
    assert read == []


def _holders(tree, hit):
    """(innermost enclosing function or "<module>") of each node hit(node) accepts."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so inner ones overwrite
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update({id(node): fn.name for node in ast.walk(fn)})
    return {owner.get(id(node), "<module>") for node in ast.walk(tree) if hit(node)}


def _holds_size_cap(node):
    if isinstance(node, ast.Compare):
        return any(isinstance(x, ast.Name) and x.id == "MAX_N"
                   or isinstance(x, ast.Attribute) and x.attr == "MAX_N"
                   for x in (node.left, *node.comparators))
    return isinstance(node, ast.Constant) and "exceeds the size cap" in str(node.value)


def test_one_function_holds_the_size_cap():
    # every Poset has n <= MAX_N because one check guards every way to build
    # one: no other code compares with MAX_N or raises the size cap's message
    found = {(module, fn) for module, tree in MODULES.items()
             for fn in _holders(tree, _holds_size_cap)}
    assert found == {("poset", "check_size")}
