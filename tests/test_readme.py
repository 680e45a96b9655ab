"""The README's library tour runs as written, so a removed name it still
uses fails here rather than for a reader."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, f"{README.name} (library tour)", "exec"), {})
