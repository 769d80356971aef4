"""Every name a gtl module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gtl

SOURCES = sorted(p for p in Path(gtl.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_sources_are_found():
    assert {"stmod.py", "graded.py", "exactlin.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.Module) -> list[str]:
    """Lines where a module reads the process environment through ``os``."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                hits.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits += [f"from os import {a.name} (line {node.lineno})" for a in node.names if a.name in ENV_READERS]
    return hits


def test_environment_reads_are_detected():
    tree = ast.parse("import os\nfrom os import getenv\nos.environ.get('X')\nos.getenv('Y')\n")
    assert len(environment_reads(tree)) == 3


@pytest.mark.parametrize("path", sorted(Path(gtl.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_environment_variables(path):
    # Behaviour is set by arguments and options only, never by a hidden env-var knob.
    assert environment_reads(ast.parse(path.read_text())) == []
