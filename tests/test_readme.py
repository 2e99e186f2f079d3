import ast
import importlib
import pathlib
import re
import shlex

import sortbounds

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    # the Library example must only use names the package still exports
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_parse():
    # every `sortbounds ...` line of the Command line block parses; none runs
    from sortbounds.cli import build_parser

    commands = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", commands, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("sortbounds ")]
    assert len(lines) == 5
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


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
    assert {name for _, name, _ in quoted} == {"MAX_SAMPLES", "DENSE_MAX", "MAX_DEPTH", "MAX_CHAINS"}
    owners = _module_constants()
    for module, name, text in quoted:
        assert len(owners[name]) == 1, f"{name} is assigned in {owners[name]}"
        assert module in ("", owners[name][0]), f"{module}.{name} lives in {owners[name][0]}"
        base, _, power = text.replace(",", "").partition("^")
        value = int(base) ** int(power) if power else int(base)
        assert getattr(importlib.import_module(f"sortbounds.{owners[name][0]}"), name) == value, name
