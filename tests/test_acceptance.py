"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``)
and then asserts, so a red run still reports every criterion verdict.
Expected numbers are frozen literals checked against an independent
brute-force route before the implementation existed; they are not
recomputed from library code.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from teleportsim import cli
from teleportsim.eavesdrop import (
    analyze_eavesdropping,
    expected_marginal_l,
    sequential_decomposition_check,
)
from teleportsim.effects import kraus_mixture, strength_family, unitary_effect
from teleportsim.engine import make_scenario
from teleportsim.linalg import basis_state, uniform_state
from teleportsim.sampling import child_rng, random_state, random_unitary

from oracles import (
    advantage,
    block_records,
    oracle_records,
    oracle_stream,
    stream_records,
    transfer_stream,
)

ACCEPT_SEED = 20240817

CLOSED_FORM_FIDELITY = {
    0.0: 1.0,
    0.25: 0.9841229182759271,
    0.5: 0.9330127018922193,
    0.75: 0.8307189138830738,
    1.0: 0.5,
}


def _verdict(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number} ({name}): {detail}"
    # leading newline keeps the verdict on its own line under -v/-q progress output
    print("\n" + line)
    return line


def _random_effect(dim: int, rng: np.random.Generator, style: int):
    if style == 0:
        return unitary_effect(random_unitary(dim, rng))
    if style == 1:
        return strength_family(dim, float(rng.uniform(0.0, 1.0)), random_unitary(dim, rng))
    basis = random_unitary(dim, rng)
    gamma = rng.uniform(0.1, 0.9) * (np.arange(dim) + 1) / dim
    k0 = basis @ np.diag(np.sqrt(1.0 - gamma)) @ basis.conj().T
    k1 = basis @ np.diag(np.sqrt(gamma)) @ basis.conj().T
    return kraus_mixture([k0, k1])


def test_criterion_1_ideal_teleportation_identity():
    rng = child_rng(ACCEPT_SEED, 1)
    started = time.perf_counter()
    worst = 0.0
    scenarios = 0
    for dim in (2, 3, 4, 5):
        for _ in range(100):
            config = make_scenario(
                dim, random_state(dim, rng), u0=random_unitary(dim, rng)
            )
            for record in oracle_records(config):
                fidelity = abs(np.vdot(config.input_state, record.output)) ** 2
                worst = max(worst, abs(fidelity - 1.0))
                worst = max(worst, abs(record.probability - 1.0 / dim**2))
            scenarios += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 30.0
    message = _verdict(
        1,
        "ideal teleportation identity",
        ok,
        f"max deviation {worst:.3e} over {scenarios} scenarios in {elapsed:.2f}s "
        "(tolerance 1e-10, budget 30s)",
    )
    assert ok, message


def test_criterion_2_oracle_transfer_equivalence():
    rng = child_rng(ACCEPT_SEED, 2)
    started = time.perf_counter()
    worst = 0.0
    scenarios = 0
    for dim in (2, 3, 4):
        for trial in range(50):
            config = make_scenario(
                dim,
                random_state(dim, rng),
                u0=random_unitary(dim, rng),
                effect_r=_random_effect(dim, rng, trial % 3),
                effect_b=_random_effect(dim, rng, (trial + 1) % 3),
            )
            if trial % 2:
                slow_records, fast_records = oracle_records(config), stream_records(config)
            else:
                # the conditional states before the correction, on both streams
                slow_records, fast_records = (
                    block_records(config, route(config)) for route in (oracle_stream, transfer_stream)
                )
            assert len(slow_records) == len(fast_records)
            for slow, quick in zip(slow_records, fast_records):
                assert (slow.m, slow.l, slow.branch) == (quick.m, quick.l, quick.branch)
                worst = max(worst, abs(slow.probability - quick.probability))
                assert (slow.output is None) == (quick.output is None)
                if slow.output is not None:
                    worst = max(worst, float(np.max(np.abs(slow.output - quick.output))))
            scenarios += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    message = _verdict(
        2,
        "oracle/transfer equivalence",
        ok,
        f"max deviation {worst:.3e} over {scenarios} scenarios in {elapsed:.2f}s "
        "(tolerance 1e-9, budget 60s)",
    )
    assert ok, message


def test_criterion_3_maximally_mixed_decompositions():
    rng = child_rng(ACCEPT_SEED, 3)
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(5):
            config = make_scenario(
                dim, random_state(dim, rng), u0=random_unitary(dim, rng)
            )
            report = sequential_decomposition_check(config)
            worst = max(worst, report.branch_deviation, report.grouped_deviation)
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            tapped = make_scenario(
                dim,
                random_state(dim, rng),
                u0=random_unitary(dim, rng),
                effect_r=strength_family(dim, theta, random_unitary(dim, rng)),
            )
            report = sequential_decomposition_check(tapped)
            worst = max(worst, report.branch_deviation, report.grouped_deviation)
    ok = worst <= 1e-9
    message = _verdict(
        3,
        "maximally mixed decompositions",
        ok,
        f"max deviation {worst:.3e} for n <= 4 (tolerance 1e-9)",
    )
    assert ok, message


def test_criterion_4_input_independent_marginals():
    rng = child_rng(ACCEPT_SEED, 4)
    worst = 0.0
    for dim in (2, 3, 4):
        family = strength_family(dim, 0.55, random_unitary(dim, rng))
        expected = expected_marginal_l(family)
        u0 = random_unitary(dim, rng)
        baseline = None
        for _ in range(20):
            config = make_scenario(dim, random_state(dim, rng), u0=u0, effect_r=family)
            report = analyze_eavesdropping(config)
            p_l = report.probabilities.sum(axis=1)
            p_m = report.probabilities.sum(axis=0)
            for label, value in zip(report.tap_labels, p_l):
                worst = max(worst, abs(value - expected[label]))
            for weight, value in zip(config.bell.weights, p_m):
                worst = max(worst, abs(value - weight / dim**2))
            table = (p_l, p_m)
            if baseline is None:
                baseline = table
            else:
                for mine, first in zip(table, baseline):
                    worst = max(worst, float(np.max(np.abs(mine - first))))
        assert baseline is not None
    ok = worst <= 1e-10
    message = _verdict(
        4,
        "input-independent marginals",
        ok,
        f"max deviation {worst:.3e} across 20 inputs per dimension (tolerance 1e-10)",
    )
    assert ok, message


def test_criterion_5_closed_form_tap_fidelities():
    worst = 0.0
    projective = strength_family(2, 1.0)
    pinned = analyze_eavesdropping(
        make_scenario(2, basis_state(2, 0), effect_r=projective)
    )
    worst = max(worst, abs(pinned.total_fidelity - 1.0))
    exposed = analyze_eavesdropping(
        make_scenario(2, uniform_state(2), effect_r=projective)
    )
    worst = max(worst, abs(exposed.total_fidelity - 0.5))
    for theta, frozen in CLOSED_FORM_FIDELITY.items():
        report = analyze_eavesdropping(
            make_scenario(2, uniform_state(2), effect_r=strength_family(2, theta))
        )
        worst = max(worst, abs(report.total_fidelity - frozen))
    ok = worst <= 1e-9
    message = _verdict(
        5,
        "closed-form tap fidelities",
        ok,
        f"max deviation {worst:.3e} from frozen values (tolerance 1e-9)",
    )
    assert ok, message


def test_criterion_6_fidelity_leakage_tradeoff():
    thetas = np.linspace(0.0, 1.0, 11)
    fidelities = []
    advantages = []
    for theta in thetas:
        config = make_scenario(
            2, uniform_state(2), effect_r=strength_family(2, float(theta))
        )
        fidelities.append(analyze_eavesdropping(config).total_fidelity)
        advantages.append(advantage(config, basis_state(2, 0), basis_state(2, 1)))
    monotone = all(
        later <= earlier + 1e-12 for earlier, later in zip(fidelities, fidelities[1:])
    ) and all(
        later >= earlier - 1e-12 for earlier, later in zip(advantages, advantages[1:])
    )
    endpoint = max(
        abs(fidelities[0] - 1.0),
        abs(fidelities[-1] - 0.5),
        abs(advantages[0] - 0.0),
        abs(advantages[-1] - 0.5),
    )
    ok = monotone and endpoint <= 1e-9
    message = _verdict(
        6,
        "fidelity/leakage tradeoff",
        ok,
        f"monotone={monotone}, endpoint deviation {endpoint:.3e} over 11 strengths "
        "(tolerance 1e-9)",
    )
    assert ok, message


def test_criterion_7_verification_command():
    started = time.perf_counter()
    quick_code = cli.main(["verify", "quick"])
    quick_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    full_code = cli.main(["verify", "full"])
    full_elapsed = time.perf_counter() - started

    corrupt_codes = [
        cli.main(["verify", "quick", "--corrupt", kind])
        for kind in ("bell", "measurement")
    ]
    ok = (
        quick_code == 0
        and full_code == 0
        and quick_elapsed < 10.0
        and full_elapsed < 120.0
        and all(code == 2 for code in corrupt_codes)
    )
    message = _verdict(
        7,
        "verification command",
        ok,
        f"quick exit {quick_code} in {quick_elapsed:.2f}s (budget 10s), "
        f"full exit {full_code} in {full_elapsed:.2f}s (budget 120s), "
        f"corrupt exits {corrupt_codes}",
    )
    assert ok, message


@pytest.mark.parametrize("command", ["teleport", "sweep"])
def test_criterion_8_byte_identical_csv(command, tmp_path):
    section = "theta: 0.5" if command == "teleport" else "theta_sweep: [0, 1, 9]"
    config = tmp_path / "run.yaml"
    config.write_text(
        f"n: 3\ninput: random:7\neavesdrop:\n  {section}\n", encoding="utf-8"
    )
    outputs = []
    for attempt in ("first", "second"):
        target = tmp_path / f"{attempt}.csv"
        code = cli.main(
            [command, "--config", str(config), "--output", str(target)]
        )
        assert code == 0
        outputs.append(target.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    message = _verdict(
        8,
        "byte-identical CSV",
        ok,
        f"{command}: two runs produced {len(outputs[0])} identical bytes"
        if ok
        else f"{command}: runs differ",
    )
    assert ok, message
