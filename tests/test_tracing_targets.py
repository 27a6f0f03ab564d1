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

import numpy as np
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


def test_oracle_table_counts_records_and_null_records():
    # the tracer counts len(records) and the records whose output is None
    from teleportsim.effects import kraus_mixture, strength_family
    from teleportsim.engine import NULL_BRANCH_EPS, make_scenario, run_oracle
    from teleportsim.linalg import basis_state

    damping = kraus_mixture(
        [np.array([[1, 0], [0, 0.8]], dtype=complex), np.array([[0, 0.6], [0, 0]], dtype=complex)]
    )
    # a projective tap on a tap-basis state: one tap branch never fires (8
    # branches), and the decay branch empties the two outcomes that leave |0>
    config = make_scenario(
        2, basis_state(2, 0), effect_r=strength_family(2, 1.0), effect_b=damping
    )
    table = run_oracle(config)
    assert len(table) == len(table.keys) * len(table.labels) == 16
    null = int(np.count_nonzero(table.probabilities < NULL_BRANCH_EPS))
    assert null == 10
    assert sum(r.output is None for r in run_oracle(config)) == null
