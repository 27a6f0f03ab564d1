"""The benchmark tracer wraps package functions by name; each name must resolve.

`perfbench/tracing.py` replaces module attributes with timing wrappers.  A
rename or deletion in the package would otherwise surface only when
``perfbench/run.py --trace 1`` fails.  The targets are read from the
tracer's source, so nothing under ``perfbench/`` is imported or written.
"""
from __future__ import annotations

import ast
import importlib
import io
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


def test_run_teleport_calls_the_transfer_route_once(monkeypatch):
    # the route pass calls engine.fast_run once per run
    from teleportsim import engine, runner
    from teleportsim.config import parse_config

    calls = []
    route = engine.fast_run

    def counted(scenario, rows, mirrors):
        calls.append(scenario)
        return route(scenario, rows, mirrors)

    monkeypatch.setattr(engine, "fast_run", counted)
    spec = parse_config(
        "n: 3\ninput: random:1\neavesdrop:\n  theta: 0.5\n"
        "effect_b:\n  kraus:\n    - [[1, 0, 0], [0, 0.8, 0], [0, 0, 1]]\n"
        "    - [[0, 0.6, 0], [0, 0, 0], [0, 0, 0]]\n"
    )
    runner.run_teleport(spec, io.StringIO())
    assert len(calls) == 1


def test_corrected_table_rows_are_the_brute_force_outputs():
    # the tracer's record counters iterate the oracle table: each row of a
    # correcting table must carry the corrected output, and None exactly
    # where the branch never fires
    from teleportsim.effects import kraus_mixture, strength_family
    from teleportsim.engine import NULL_BRANCH_EPS, make_scenario, run_oracle
    from teleportsim.linalg import basis_state

    from oracles import brute_teleport

    k0 = np.eye(3, dtype=complex)
    k0[1, 1] = 0.8
    k1 = np.zeros((3, 3), dtype=complex)
    k1[0, 1] = 0.6
    # a projective tap on a tap-basis state: two of three tap branches never fire
    config = make_scenario(
        3, basis_state(3, 0), effect_r=strength_family(3, 1.0), effect_b=kraus_mixture([k0, k1])
    )
    reference = config.effect_r
    reference = dict(zip(reference.labels, reference.operators))
    receiver = config.effect_b
    receiver = dict(zip(receiver.labels, receiver.operators))
    records = list(run_oracle(config))
    assert len(records) == 3 * 2 * 9
    nulls = 0
    for record in records:
        u_m = config.bell.unitaries[config.bell.labels.index(record.m)]
        expected = brute_teleport(
            3, np.asarray(config.input_state), np.eye(3), reference[record.l],
            receiver[record.branch], u_m,
        )
        probability = float(np.vdot(expected, expected).real)
        if probability < NULL_BRANCH_EPS:
            nulls += 1
            assert record.output is None
        else:
            np.testing.assert_allclose(
                record.output, expected / np.sqrt(probability), rtol=0, atol=1e-12
            )
    # 36 rows of the two unfired tap branches, and 6 where the decay branch
    # meets an outcome that leaves no amplitude on level 1
    assert nulls == 2 * 2 * 9 + 6
