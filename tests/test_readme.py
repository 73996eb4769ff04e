import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

from flatdef.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The python block under the README's "Library quick start"."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _cli_commands() -> list[list[str]]:
    """The `flatdef` command lines of the fenced block under the README's
    "## CLI", continuation lines joined, as argument lists."""
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("flatdef ")]


def test_quick_start_runs():
    # the block names entry points by their signatures, so a signature
    # change that leaves it stale fails here
    exec(compile(_quick_start(), "README quick start", "exec"), {})


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # each command reads the files the ones before it wrote
    monkeypatch.chdir(tmp_path)
    commands = _cli_commands()
    assert commands
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    svgs = sorted(tmp_path.glob("*.svg"))
    assert svgs
    for path in svgs:
        ET.parse(path)
