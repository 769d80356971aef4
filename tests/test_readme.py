"""The README's Quick start runs as written and prints what it says it prints."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    """The first ```python block after the Quick start heading."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under Quick start"
    return match.group(1)


def test_quick_start_runs_and_prints_its_comments(capsys):
    code = quick_start_code()
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["{-3: 3, -2: 2, -1: 1, 0: 1, 1: 2, 2: 3, 3: 4}", "True"]
    assert f"# {lines[0]}\n" in code  # the dims comment shows what the print prints
