import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

from flatdef.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# \x22 is the double quote: written so, this file's source holds nothing
# that the citation scan below would read as a citation
CITATION = re.compile(r"README, \x22([^\x22]+)\x22")
OTHER_FORM = re.compile(r"README (?:entry )?\x22([^\x22]+)\x22"
                        r"|\x22([^\x22]+)\x22 in the README")
SEE = re.compile(r"see \x22([^\x22]+)\x22")
TEST_PATH = re.compile(r"\btests/\w+\.py\b")


def _quick_start() -> str:
    """The python block under the README's Library quick start."""
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


def _layout_modules() -> set[str]:
    """The module names the fenced block under the README's Layout
    lists."""
    section = README.read_text().split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return set(re.findall(r"^  (\w+\.py) ", block, re.M))


def _joined(text: str) -> str:
    """`text` with each line break, with the indent and any comment
    marker after it, read as one space, so that a citation wrapped
    across lines matches as one."""
    return re.sub(r"\s*\n\s*(?:#+\s*)?", " ", text)


def citation_faults(readme: str, sources: dict[str, str],
                    root: Path) -> list[str]:
    """Every citation that names no README heading, every citation in
    another form than README followed by a comma and the quoted
    heading, every `see` reference of the README itself that names no
    heading, and every `tests/*.py` path of the README that `root`
    lacks.  `sources` maps a file name to its text."""
    unfenced = re.sub(r"```.*?```", "", readme, flags=re.S)
    headings = set(re.findall(r"^#+ (.+)$", unfenced, re.M))
    faults = []
    for name in sorted(sources):
        text = _joined(sources[name])
        faults += [f"{name}: cites missing heading {title!r}"
                   for title in CITATION.findall(text)
                   if title not in headings]
        faults += [f"{name}: cites {a or b!r} in another form"
                   for a, b in OTHER_FORM.findall(text)]
    faults += [f"README: see {title!r}: no such heading"
               for title in SEE.findall(_joined(readme))
               if title not in headings]
    faults += [f"README: no file {path}"
               for path in sorted(set(TEST_PATH.findall(readme)))
               if not (root / path).is_file()]
    return faults


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


def test_layout_names_every_module():
    modules = {p.name for p in (ROOT / "src" / "flatdef").glob("*.py")}
    assert _layout_modules() == modules - {"__init__.py"}


def test_citations_name_headings():
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for top in ("src", "tests", "perfbench")
               for p in (ROOT / top).rglob("*.py")}
    assert citation_faults(README.read_text(), sources, ROOT) == []


def test_citation_faults_are_found(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_here.py").write_text("")
    readme = ("# Title\n\n## Kept heading\n\n"
              "Checked by tests/test_here.py and tests/test_gone.py\n"
              "(see \x22Kept\nheading\x22; see \x22Gone\x22).\n\n"
              "```\n# fenced, not a heading\n```\n")
    sources = {
        "wrapped.py": "x = 1  # README, \x22Kept\n      # heading\x22\n",
        "missing.py": "'''As README, \x22Missing\n    heading\x22 says.'''\n",
        "fenced.py": "# README, \x22fenced, not a heading\x22\n",
        "other.py": "# README \x22Kept heading\x22; \x22Kept heading\x22 in"
                    " the README\n",
    }
    assert citation_faults(readme, sources, tmp_path) == [
        "fenced.py: cites missing heading 'fenced, not a heading'",
        "missing.py: cites missing heading 'Missing heading'",
        "other.py: cites 'Kept heading' in another form",
        "other.py: cites 'Kept heading' in another form",
        "README: see 'Gone': no such heading",
        "README: no file tests/test_gone.py",
    ]
