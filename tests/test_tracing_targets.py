"""The benchmark tracer wraps package functions by name; each name must resolve.

`perfbench/tracing.py` replaces module attributes with timing wrappers.  A
rename or deletion in the package would otherwise surface only when
``perfbench/run.py --trace 1`` fails.  The targets are read from the
tracer's source, so nothing under ``perfbench/`` is imported or written.
"""
from __future__ import annotations

import ast
import importlib
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def span_targets() -> tuple[tuple[str, str], ...]:
    with open(TRACING, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPAN_TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPAN_TARGETS")


# patched by name outside SPAN_TARGETS, in SpanRecorder.install
PATCHED = (("eavesdrop", "find_outcome"), ("eavesdrop", "eavesdrop_operator"), ("verify", "CHECKS"))


@pytest.mark.parametrize("owner,attribute", span_targets() + PATCHED)
def test_traced_attribute_resolves(owner, attribute):
    assert hasattr(importlib.import_module(f"teleportsim.{owner}"), attribute)
