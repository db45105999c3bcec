"""The README's Python quick start runs and prints the numbers its comments
show, to the digits shown."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# a number with a decimal point, or a bool
TOKEN = re.compile(r"-?\d+\.\d+|True|False")


def _quick_start():
    text = README.read_text()
    start = text.index("```python\n", text.index("## Quick start")) + len("```python\n")
    return text[start:text.index("```", start)]


def test_quick_start_prints_its_comments():
    code = _quick_start()
    expected = [line.split("#", 1)[1] for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 2
    for got, want in zip(printed, expected):
        got, want = TOKEN.findall(got), TOKEN.findall(want)
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            if w in ("True", "False"):
                assert g == w
            else:
                assert f"{float(g):.{len(w.split('.')[1])}f}" == w, (g, w)
