import argparse
import ast
import importlib
import pathlib
import re
import shlex

import sortbounds

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    # the Library example must only use names the package still exports,
    # and each expression line's comment must begin with the repr of its
    # value, or with the leading digits of a float shown as "1.0986..."
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    lines, scope, checked = block.splitlines(), {}, 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            continue
        got = repr(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope))
        shown = lines[stmt.end_lineno - 1].split("#", 1)[1].strip()
        digits = re.match(r"(\d+\.\d+)\.\.\.", shown)
        if digits:
            assert got.startswith(digits.group(1)), (shown, got)
        else:
            assert re.match(re.escape(got) + r"(?:$|[,:\s])", shown), (shown, got)
        checked += 1
    assert checked == 8


def test_readme_command_lines_parse():
    # every `sortbounds ...` line of the Command line block parses; none runs
    from sortbounds.cli import build_parser

    commands = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", commands, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("sortbounds ")]
    assert len(lines) == 5
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_readme_flag_lists_match_the_parser():
    # each "takes only the flags it reads" bullet names exactly the options
    # of its command's subparser, so the section cannot name a removed flag
    from sortbounds.cli import build_parser

    readme = README.read_text(encoding="utf-8")
    section = readme.split("Each command takes only the flags it reads:", 1)[1].split("\n\n")[1]
    named = {re.match(r"`([\w-]+)", b).group(1): set(re.findall(r"--[a-z][a-z-]*", b))
             for b in re.split(r"^- ", section, flags=re.M)[1:]}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert named.keys() == sub.choices.keys()
    for command, flags in named.items():
        options = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert flags == options - {"-h", "--help"}, command


def _module_constants():
    """Each top-level name assigned in a package module, with the modules
    that assign it (an import is not an assignment)."""
    package = pathlib.Path(sortbounds.__file__).parent
    owners = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name):
                    owners.setdefault(target.id, []).append(path.stem)
    return owners


def test_readme_constants_match_the_code():
    # every `NAME` = value or `module.NAME` = value the README quotes, with
    # 10^k and thousands commas, equals the value in the module assigning it
    quoted = re.findall(r"`(?:(\w+)\.)?([A-Z][A-Z0-9_]*)`\s+=\s+(\d+(?:,\d{3})*(?:\^\d+)?)",
                        README.read_text(encoding="utf-8"))
    assert {name for _, name, _ in quoted} == {
        "MAX_SAMPLES", "DENSE_MAX", "MAX_N", "ENUM_CAP", "MATRIX_CAP"}
    owners = _module_constants()
    for module, name, text in quoted:
        assert len(owners[name]) == 1, f"{name} is assigned in {owners[name]}"
        assert module in ("", owners[name][0]), f"{module}.{name} lives in {owners[name][0]}"
        base, _, power = text.replace(",", "").partition("^")
        value = int(base) ** int(power) if power else int(base)
        assert getattr(importlib.import_module(f"sortbounds.{owners[name][0]}"), name) == value, name
