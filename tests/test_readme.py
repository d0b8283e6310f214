"""The README's library example prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _matches(printed: str, comment: str) -> bool:
    """Token by token: exact, except that ``~x`` is ``x`` at the digits shown."""
    got, want = printed.split(), comment.split()
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if w.startswith("~"):
            w = w[1:]
            g = f"{float(g):.{len(w.partition('.')[2])}f}"
        if g != w:
            return False
    return True


def test_library_example_prints_its_comments():
    code = _library_example()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 3
    for line, comment in zip(printed, comments):
        assert _matches(line, comment), f"printed {line!r}, README says {comment!r}"
