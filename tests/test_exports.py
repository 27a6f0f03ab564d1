"""Every exported name has a caller in the package or the scripts, or a README entry.

A name in `teleportsim.__all__` that only tests call is public API that
nothing uses and nobody documents.  Callers are found by reading the
sources with `ast`, so a mention in a docstring or a comment is not one;
`__init__.py` only re-exports and is skipped.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import teleportsim

ROOT = Path(__file__).resolve().parent.parent


def referenced_names() -> set[str]:
    names: set[str] = set()
    sources = [*(ROOT / "src" / "teleportsim").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    for path in sources:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


REFERENCED = referenced_names()
README = (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", teleportsim.__all__)
def test_export_has_a_caller_or_is_documented(name):
    documented = re.search(rf"\b{re.escape(name)}\b", README) is not None
    assert name in REFERENCED or documented, f"{name} is exported but only tests use it"
