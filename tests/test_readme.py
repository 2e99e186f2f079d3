import pathlib
import re
import shlex

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
