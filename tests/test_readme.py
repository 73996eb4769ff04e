import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The python block under the README's "Library quick start"."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    # the block names entry points by their signatures, so a signature
    # change that leaves it stale fails here
    exec(compile(_quick_start(), "README quick start", "exec"), {})
