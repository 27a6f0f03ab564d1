"""Every import in the package and the scripts is used.

No linter runs on this repository, so an import left behind when its
last caller goes would stay.  The sources are read with `ast`: a name
counts as used when the module reads it (a bare name, or the base of an
attribute chain) or lists it in ``__all__``.  An import statement with
``# noqa: F401`` on one of its lines is exempt, and kept for the
benchmark's tracer alone: every name it brings in that the module never
reads must be one that ``SPAN_TARGETS`` in `perfbench/tracing.py` patches
on that module.

A bare ``import teleportsim`` loads the simulator and its verification
suite alone: the run drivers, their config parser, PyYAML and `csv` load
with the command line, never with the library.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_tracing_targets import span_targets

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "teleportsim").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])


def unread_imports(path: Path) -> tuple[list[str], list[str]]:
    """The imported names ``path`` never reads: those on plain import statements, then the exempt ones."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported: dict[str, tuple[int, bool]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            exempt = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = (node.lineno, exempt)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unread = [(name, line, exempt) for name, (line, exempt) in imported.items() if name not in used]
    return (
        [f"{name} (line {line})" for name, line, exempt in unread if not exempt],
        [name for name, _, exempt in unread if exempt],
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unread_imports(path)[0] == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_exempt_imports_are_the_tracer_targets(path):
    # a name kept for the tracer must be one it patches on this module
    traced = {attribute for owner, attribute in span_targets() if owner == path.stem}
    assert sorted(set(unread_imports(path)[1]) - traced) == []


def test_package_import_loads_no_run_driver_or_config_parser():
    # a fresh interpreter: this session has imported the drivers already
    probe = "import sys, teleportsim; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "teleportsim" in loaded
    unwanted = ("yaml", "csv", "teleportsim.config", "teleportsim.runner")
    assert [name for name in unwanted if name in loaded] == []
