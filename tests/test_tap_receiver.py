"""A reference-line tap together with a receiver effect.

The tap sees only ``(l, m)``, so the branch-operator route sums each cell
over the receiver branches before it is compared with the oracle.  The
expected numbers are frozen literals from the brute-force route in
`tests/oracles.py`; `test_literals_follow_brute_force` shows where they
come from.
"""
from __future__ import annotations

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import cli
from teleportsim.config import parse_config
from teleportsim.eavesdrop import analyze_eavesdropping, eavesdrop_operator
from teleportsim.linalg import hermiticity_deviation
from teleportsim.runner import build_scenario
from teleportsim.sampling import random_state, random_unitary

from oracles import brute_strength_branch, brute_teleport, brute_weyl

HADAMARD_U0 = (
    "[[0.7071067811865476, 0.7071067811865476], [0.7071067811865476, -0.7071067811865476]]"
)
RECEIVERS = {
    "unitary": "effect_b:\n  unitary: [[0.6, [0, -0.8]], [[0, -0.8], 0.6]]\n",
    "kraus": "effect_b:\n  kraus:\n    - [[1, 0], [0, 0.8]]\n    - [[0, 0.6], [0, 0]]\n",
}
RECEIVER_MATRICES = {
    "unitary": [np.array([[0.6, -0.8j], [-0.8j, 0.6]])],
    "kraus": [
        np.array([[1, 0], [0, 0.8]], dtype=complex),
        np.array([[0, 0.6], [0, 0]], dtype=complex),
    ],
}
INPUT = np.array([0.6, 0.8j])
TELEPORT_BASE = f"n: 2\ninput: [0.6, [0, 0.8]]\nu0: {HADAMARD_U0}\neavesdrop:\n  theta: 0.5\n"
SWEEP_BASE = "n: 2\ninput: [0.6, [0, 0.8]]\neavesdrop:\n  theta_sweep: [0, 0.8, 3]\n"

# (l, m, branch) -> (probability, fidelity), in CSV row order
TELEPORT_ROWS = {
    "unitary": {
        (0, (0, 0), None): (0.125, 0.37875644347017856),
        (0, (0, 1), None): (0.125, 0.37875644347017856),
        (0, (1, 0), None): (0.125, 0.37875644347017856),
        (0, (1, 1), None): (0.125, 0.37875644347017856),
        (1, (0, 0), None): (0.125, 0.37875644347017856),
        (1, (0, 1), None): (0.125, 0.37875644347017856),
        (1, (1, 0), None): (0.125, 0.37875644347017856),
        (1, (1, 1), None): (0.125, 0.37875644347017856),
    },
    "kraus": {
        (0, (0, 0), 0): (0.09704403995615808, 0.9146173293792227),
        (0, (0, 1), 0): (0.09704403995615808, 0.9146173293792227),
        (0, (1, 0), 0): (0.10795596004384199, 0.9310659704188082),
        (0, (1, 1), 0): (0.10795596004384199, 0.9310659704188082),
        (0, (0, 0), 1): (0.02795596004384198, 0.36),
        (0, (0, 1), 1): (0.02795596004384198, 0.36),
        (0, (1, 0), 1): (0.01704403995615804, 0.64),
        (0, (1, 1), 1): (0.01704403995615804, 0.64),
        (1, (0, 0), 0): (0.09704403995615808, 0.9146173293792227),
        (1, (0, 1), 0): (0.09704403995615808, 0.9146173293792227),
        (1, (1, 0), 0): (0.10795596004384199, 0.9310659704188082),
        (1, (1, 1), 0): (0.10795596004384199, 0.9310659704188082),
        (1, (0, 0), 1): (0.02795596004384198, 0.36),
        (1, (0, 1), 1): (0.02795596004384198, 0.36),
        (1, (1, 0), 1): (0.01704403995615804, 0.64),
        (1, (1, 1), 1): (0.01704403995615804, 0.64),
    },
}
TELEPORT_TOTAL_FIDELITY = {"unitary": 0.3787564434701788, "kraus": 0.84097845018124}
# theta, total fidelity, guessing advantage for basis:0 against basis:1
SWEEP_ROWS = {
    "unitary": [(0.0, 0.36, 0.0), (0.4, 0.37077155070680345, 0.2), (0.8, 0.4116096, 0.4)],
    "kraus": [(0.0, 0.893728, 0.0), (0.4, 0.8629521408377039, 0.2), (0.8, 0.746272, 0.4)],
}
# the CSV carries 12 significant digits
CSV_TOL = 1e-11


def run_cli(command: str, text: str) -> tuple[int, list[list[str]]]:
    with tempfile.TemporaryDirectory() as workdir:
        config = os.path.join(workdir, "run.yaml")
        output = os.path.join(workdir, "out.csv")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text)
        code = cli.main([command, "--config", config, "--output", output])
        if code != 0:
            return code, []
        with open(output, encoding="utf-8") as handle:
            return code, list(csv.reader(handle))


def parse_label(text: str):
    if text == "":
        return None
    if "-" in text:
        return tuple(int(part) for part in text.split("-"))
    return int(text)


def brute_cells(theta, state, u0, receiver):
    """Brute-force amplitude for every ``(l, m, branch)`` of a qubit run."""
    out = {}
    for l in range(2):
        e_r = brute_strength_branch(2, theta, l)
        for b, f_b in enumerate(receiver):
            branch = None if len(receiver) == 1 else b
            for a in range(2):
                for c in range(2):
                    amp = brute_teleport(2, state, u0, e_r, f_b, brute_weyl(2, a, c))
                    out[(l, (a, c), branch)] = amp
    return out


@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
def test_teleport_with_tap_and_receiver_effect(receiver):
    code, rows = run_cli("teleport", TELEPORT_BASE + RECEIVERS[receiver])
    assert code == 0
    outcome_rows = {
        (parse_label(r[1]), parse_label(r[2]), parse_label(r[3])): (float(r[4]), float(r[5]))
        for r in rows
        if r[0] == "outcome"
    }
    assert list(outcome_rows) == list(TELEPORT_ROWS[receiver])
    for key, (probability, fidelity) in TELEPORT_ROWS[receiver].items():
        assert outcome_rows[key][0] == pytest.approx(probability, abs=CSV_TOL)
        assert outcome_rows[key][1] == pytest.approx(fidelity, abs=CSV_TOL)
    total = rows[-1]
    assert total[0] == "total"
    assert float(total[4]) == pytest.approx(1.0, abs=CSV_TOL)
    assert float(total[5]) == pytest.approx(TELEPORT_TOTAL_FIDELITY[receiver], abs=CSV_TOL)


@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
def test_sweep_with_tap_and_receiver_effect(receiver):
    code, rows = run_cli("sweep", SWEEP_BASE + RECEIVERS[receiver])
    assert code == 0
    assert rows[0] == ["theta", "total_fidelity", "distinguishability"]
    got = [tuple(float(cell) for cell in row) for row in rows[1:]]
    assert len(got) == len(SWEEP_ROWS[receiver])
    for have, want in zip(got, SWEEP_ROWS[receiver]):
        assert have == pytest.approx(want, abs=CSV_TOL)


def test_tap_report_sums_receiver_branches():
    scenario = build_scenario(parse_config(TELEPORT_BASE + RECEIVERS["kraus"]))
    report = analyze_eavesdropping(scenario)
    rows = TELEPORT_ROWS["kraus"]
    cells = [(row, column, l, m) for row, l in enumerate(report.tap_labels)
             for column, m in enumerate(report.labels)]
    for row, column, l, m in cells:
        branches = [rows[(l, m, b)] for b in (0, 1)]
        probability = sum(p for p, _ in branches)
        assert report.probabilities[row, column] == pytest.approx(probability, abs=1e-12)
        assert report.fidelities[row, column] == pytest.approx(
            sum(p * f for p, f in branches) / probability, abs=1e-12
        )
    assert report.total_fidelity == pytest.approx(TELEPORT_TOTAL_FIDELITY["kraus"], abs=1e-12)
    # Hermiticity is a property of P(l, m) alone; the receiver does not enter
    for _, _, l, m in cells:
        assert hermiticity_deviation(eavesdrop_operator(scenario, l, m)) < 1e-12


@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
def test_literals_follow_brute_force(receiver):
    matrices = RECEIVER_MATRICES[receiver]
    s = 0.7071067811865476
    hadamard = np.array([[s, s], [s, -s]], dtype=complex)
    cells = brute_cells(0.5, INPUT, hadamard, matrices)
    total = 0.0
    for key, (probability, fidelity) in TELEPORT_ROWS[receiver].items():
        amp = cells[key]
        overlap = abs(np.vdot(INPUT, amp)) ** 2
        assert float(np.vdot(amp, amp).real) == pytest.approx(probability, abs=1e-14)
        assert overlap / probability == pytest.approx(fidelity, abs=1e-14)
        total += overlap
    assert total == pytest.approx(TELEPORT_TOTAL_FIDELITY[receiver], abs=1e-14)
    identity = np.eye(2, dtype=complex)
    for theta, fidelity, advantage in SWEEP_ROWS[receiver]:
        cells = brute_cells(theta, INPUT, identity, matrices)
        assert sum(abs(np.vdot(INPUT, a)) ** 2 for a in cells.values()) == pytest.approx(
            fidelity, abs=1e-14
        )
        tables = []
        for state in (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)):
            table: dict = {}
            for (l, m, _), amp in brute_cells(theta, state, identity, matrices).items():
                table[(l, m)] = table.get((l, m), 0.0) + float(np.vdot(amp, amp).real)
            tables.append(table)
        gap = sum(abs(tables[0][key] - tables[1][key]) for key in tables[0])
        assert 0.25 * gap == pytest.approx(advantage, abs=1e-14)


def yaml_number(x: float) -> str:
    # shortest round-trip form, e.g. "1e-09": configs read YAML 1.2 floats
    return repr(float(x))


def yaml_vector(vec: np.ndarray) -> str:
    return "[" + ", ".join(f"[{yaml_number(z.real)}, {yaml_number(z.imag)}]" for z in vec) + "]"


def yaml_matrix(mat: np.ndarray) -> str:
    return "[" + ", ".join(yaml_vector(row) for row in np.asarray(mat, dtype=complex)) + "]"


@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_random_tap_and_receiver_run_cleanly(dim, seed, theta, kraus):
    rng = np.random.default_rng(seed)
    u0 = random_unitary(dim, rng)
    basis = random_unitary(dim, rng)
    state = random_state(dim, rng)
    receiver_basis = random_unitary(dim, rng)
    if kraus:
        # graded damping in a random basis: (1 - gamma_k) + gamma_k = 1 levelwise
        gamma = rng.uniform(0.1, 0.9, dim)
        k0 = receiver_basis @ np.diag(np.sqrt(1.0 - gamma)) @ receiver_basis.conj().T
        k1 = receiver_basis @ np.diag(np.sqrt(gamma)) @ receiver_basis.conj().T
        effect = f"effect_b:\n  kraus:\n    - {yaml_matrix(k0)}\n    - {yaml_matrix(k1)}\n"
    else:
        effect = f"effect_b:\n  unitary: {yaml_matrix(receiver_basis)}\n"
    text = (
        f"n: {dim}\ninput: {yaml_vector(state)}\n"
        f"u0: {yaml_matrix(u0)}\n"
        f"eavesdrop:\n  basis: {yaml_matrix(basis)}\n  theta: {yaml_number(theta)}\n" + effect
    )
    code, rows = run_cli("teleport", text)
    assert code == 0
    outcome_sum = sum(float(r[4]) for r in rows if r[0] == "outcome")
    assert outcome_sum == pytest.approx(1.0, abs=1e-9)
    assert float(rows[-1][4]) == pytest.approx(1.0, abs=CSV_TOL)

