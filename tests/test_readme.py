"""Every ``python`` block of the README runs as written.

The blocks are the library's documented examples.  Each is executed in
process, in a namespace of its own, and must print; a traceback names
the README line that failed.
"""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert len(blocks) >= 2
    for block in blocks:
        fence = text.count("\n", 0, block.start(1))  # the line of the opening fence
        # leading newlines put each statement on its README line
        exec(compile("\n" * fence + block.group(1), str(README), "exec"), {"__name__": "readme_example"})
        assert capsys.readouterr().out, f"the block below README line {fence} printed nothing"
