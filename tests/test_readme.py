"""The README's Quick start runs as written and prints what it says it prints,
its command Examples exit 0, and its Command line synopsis and tables name the
modules, checks and pipelines that ``gtl`` has."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from gtl import cli

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


def test_command_examples_exit_zero(tmp_path, monkeypatch, capsys):
    # klein.json is the truncated_polynomial shorthand the README spells out
    text = README.read_text(encoding="utf-8")
    shorthand = re.search(r'`(\{"truncated_polynomial".*?\}\})`', text).group(1)
    (tmp_path / "klein.json").write_text(shorthand, encoding="utf-8")
    block = re.search(r"Examples:\n\n```sh\n(.*?)```", text, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) == 4 and all(argv[0] == "gtl" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def command_line_table(header: str) -> dict[str, list[dict[str, str]]]:
    """The Command line table whose first column is ``header``: each row's name
    mapped to, per further column, the options it names with their defaults."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [line.strip() for line in section.splitlines()]
    start = next(k for k, line in enumerate(lines) if line.startswith(f"| {header} |"))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = line.strip("|").split("|")
        name = re.search(r"`([^`]+)`", cells[0]).group(1)
        rows[name] = [dict(re.findall(r"`--([a-z]+)`(?: \(([^):]*))?", cell)) for cell in cells[1:]]
    return rows


def _default(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value).lower()


def test_command_line_tables_match_the_checks_and_pipelines():
    checks = command_line_table("check")
    assert list(checks) == list(cli.CHECKS)
    for name, (_, required, defaults) in cli.CHECKS.items():
        assert checks[name] == [dict.fromkeys(required, ""), {opt: _default(v) for opt, v in defaults.items()}]
    pipelines = command_line_table("pipeline")
    assert list(pipelines) == list(cli.PIPELINES)
    for name, (_, required, defaults) in cli.PIPELINES.items():
        assert required == ()
        assert pipelines[name] == [{opt: _default(v) for opt, v in defaults.items()}]


def test_tate_synopsis_names_the_module_choices():
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    choices = re.search(r"gtl tate \S+ \[--module ([a-z|]+)\]", text).group(1)
    assert choices.split("|") == list(cli.MODULES)
