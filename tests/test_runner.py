"""The run drivers refuse to write a table their two routes disagree on.

Each test patches one route, or the transfer route's tap report, by name
in `teleportsim.engine`, where the route pass calls it, and checks that `run_teleport` or `run_sweep` raises
`InvariantViolation` before the first CSV row.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from teleportsim import engine, runner, verify
from teleportsim.bell import make_bell_family, weyl_unitary
from teleportsim.config import parse_config
from teleportsim.eavesdrop import distinguishability, tap_report
from teleportsim.linalg import dagger
from teleportsim.sampling import random_unitary
from teleportsim.runner import InvariantViolation, run_teleport
from teleportsim.verify import run_verification

# two tap branches and two receiver branches: four blocks of four outcomes
SPEC = parse_config(
    "n: 2\ninput: [0.6, [0, 0.8]]\neavesdrop:\n  theta: 0.5\n"
    "effect_b:\n  kraus:\n    - [[1, 0], [0, 0.8]]\n    - [[0, 0.6], [0, 0]]\n"
)


def test_build_scenario_adds_the_tap_to_the_spec_scenario():
    # without a tap the run reads the parsed scenario itself; a tap shares
    # every other part of it
    untapped = replace(SPEC, eavesdrop=None)
    assert runner.build_scenario(untapped) is untapped.scenario
    scenario = runner.build_scenario(SPEC)
    for part in ("input_state", "bell", "u0", "effect_b"):
        assert getattr(scenario, part) is getattr(SPEC.scenario, part)
    assert SPEC.scenario.effect_r.labels == (None,)
    assert scenario.effect_r.labels == (0, 1)
    sweep = replace(SPEC, eavesdrop=replace(SPEC.eavesdrop, theta=None, sweep=(0.0, 1.0, 3)))
    with pytest.raises(ValueError, match="a single tap strength is required"):
        runner.build_scenario(sweep)


def test_a_spec_whose_scenario_has_a_non_unitary_u0_never_runs():
    # the scenario refuses the u0 as it is built, so no table is written
    stream = io.StringIO()
    with pytest.raises(ValueError, match="^u0 must be unitary$"):
        run_teleport(replace(SPEC, scenario=replace(SPEC.scenario, u0=np.ones((2, 2)))), stream)
    assert stream.getvalue() == ""


def refused(match: str, spec=SPEC) -> None:
    stream = io.StringIO()
    with pytest.raises(InvariantViolation, match=match):
        run_teleport(spec, stream)
    assert stream.getvalue() == ""


def patched_tap_report(monkeypatch, report=None, probabilities=None) -> None:
    """Patch the transfer route's `tap_report` in `engine`.

    A pass reduces the oracle's arrays first and the transfer route's
    second, so every second call is the transfer route's: ``probabilities``
    edits the ``(K, M)`` probabilities it reduces, ``report`` the report.
    """
    calls = []

    def patched(config, p, overlaps_sq):
        calls.append(config)
        if len(calls) % 2:
            return tap_report(config, p, overlaps_sq)
        tap = tap_report(config, p if probabilities is None else probabilities(p), overlaps_sq)
        return tap if report is None else report(tap)

    monkeypatch.setattr(engine, "tap_report", patched)


def test_tap_total_fidelity_mismatch_writes_nothing(monkeypatch):
    patched_tap_report(monkeypatch, lambda r: replace(r, total_fidelity=r.total_fidelity + 1e-6))
    refused("total fidelity routes disagree by 1.000e-06")


def faulty_stream(monkeypatch, fault) -> None:
    """Patch the transfer route so ``fault(index, block)`` edits or drops each block."""
    route = engine.fast_run

    def patched(scenario, rows):
        for index, block in enumerate(route(scenario, rows)):
            yield from fault(index, block.copy())

    monkeypatch.setattr(engine, "fast_run", patched)


def test_cross_check_catches_one_moved_amplitude(monkeypatch):
    def moved(index, block):
        if index == 2:
            block[1, 0] += 1e-6
        yield block

    faulty_stream(monkeypatch, moved)
    refused(r"routes disagree on branch \(m=\(0, 1\), l=1, b=0\): .* amplitude deviation 1\.000e-06")


def test_disagreeing_pass_still_returns_its_deviations(monkeypatch):
    # the pass measures and the driver refuses: the moved branch is the
    # record's largest amplitude deviation, and the run writes nothing
    def moved(index, block):
        if index == 2:
            block[1, 0] += 1e-6
        yield block

    faulty_stream(monkeypatch, moved)
    measured = next(runner.route_passes(runner.build_scenario(SPEC)))
    deviation = measured.deviations["amplitude"]
    assert np.unravel_index(np.argmax(deviation), deviation.shape) == (2, 1)
    assert deviation[2, 1] == pytest.approx(1e-6, rel=1e-6)
    assert np.max(measured.deviations["amplitude"]) == deviation[2, 1]
    refused(r"routes disagree on branch \(m=\(0, 1\), l=1, b=0\): .* amplitude deviation 1\.000e-06")


def route_pass_of(spec):
    return next(engine.route_passes(runner.build_scenario(spec)))


def test_route_pass_records_five_named_deviations_in_judging_order():
    measured = route_pass_of(SPEC)
    deviations = measured.deviations
    assert tuple(deviations) == ("amplitude", "probability", "cell", "total-fidelity", "probability-sum")
    # four branch pairs, two tap branches, four Bell outcomes
    assert [deviation.shape for deviation in deviations.values()] == [(4, 4), (4, 4), (2, 4), (), ()]
    assert not any(deviation.flags.writeable for deviation in deviations.values())
    with pytest.raises(TypeError):
        deviations["cell"] = np.zeros((2, 4))


def test_probability_sum_deviation_is_the_sum_against_its_closed_form(monkeypatch):
    measured = route_pass_of(SPEC)
    assert measured.deviations["probability-sum"] == abs(measured.probability_sum - measured.expected_sum)
    monkeypatch.setattr(engine, "expected_probability_sum", lambda *args: 0.75)
    measured = route_pass_of(SPEC)
    assert measured.deviations["probability-sum"] == abs(measured.probability_sum - 0.75)
    assert measured.deviations["probability-sum"] == pytest.approx(0.25, abs=1e-12)


# no tap and no receiver: one block, each of the four outputs of norm 1/2,
# where a probability deviation can exceed the amplitude deviation
UNTAPPED = parse_config("n: 2\ninput: [0.6, [0, 0.8]]\n")


def test_a_branch_is_refused_for_its_amplitude_before_any_for_its_probability(monkeypatch):
    # output (0, 0) grows by 10%: 5.0e-02 in amplitude, within the bound,
    # and 5.25e-02 in probability, past it.  Output (1, 0) moves by 0.2 in
    # amplitude.  The refusal names (1, 0), the first branch out of bounds
    # in amplitude, not the earlier (0, 0), out of bounds in probability alone
    def moved(index, block):
        block[0] *= 1.1
        block[2, 0] += 0.2
        yield block

    faulty_stream(monkeypatch, moved)
    monkeypatch.setattr(runner, "RUN_TOL", 0.051)
    refused(r"^routes disagree on branch \(m=\(1, 0\), l=None, b=None\): "
            r"probability deviation \S+, amplitude deviation 2\.000e-01$", UNTAPPED)


def test_a_branch_out_of_bounds_in_probability_alone_is_refused(monkeypatch):
    def grown(index, block):
        block[0] *= 1.1
        yield block

    faulty_stream(monkeypatch, grown)
    monkeypatch.setattr(runner, "RUN_TOL", 0.051)
    refused(r"^routes disagree on branch \(m=\(0, 0\), l=None, b=None\): "
            r"probability deviation 5\.250e-02, amplitude deviation 5\.000e-02$", UNTAPPED)


def test_cross_check_names_the_receiver_branch(monkeypatch):
    # blocks 2 and 3 share tap branch l = 1; only b tells them apart
    def moved(index, block):
        if index == 3:
            block[2, 1] += 1e-6
        yield block

    faulty_stream(monkeypatch, moved)
    refused(r"routes disagree on branch \(m=\(1, 0\), l=1, b=1\): .* amplitude deviation 1\.000e-06")


def test_amplitude_deviation_is_the_two_norm_of_the_corrected_difference(monkeypatch):
    # V W V^+ of the Weyl family: every U(m) is dense, so the correction
    # mixes the entries of a difference and moves its largest one, but
    # not its 2-norm.  Block 1 moves one uncorrected entry, block 2 one
    # entry of the corrected output (every uncorrected entry of its row).
    v = random_unitary(3, np.random.default_rng(17))
    family = make_bell_family(3, [
        ((a, b), v @ weyl_unitary(3, a, b) @ dagger(v), 1.0) for a in range(3) for b in range(3)
    ])
    spec = parse_config("n: 3\ninput: random:2\neavesdrop:\n  basis: fourier\n  theta: 0.5\n")
    spec = replace(spec, scenario=replace(spec.scenario, bell=family))

    def moved(index, block):
        if index == 1:
            block[2, 0] += 1e-6
        if index == 2:
            block[4] += 1e-6 * dagger(family.unitaries[4])[:, 1]
        yield block

    faulty_stream(monkeypatch, moved)
    refused(r"routes disagree on branch \(m=\(0, 2\), l=1, b=None\): .* amplitude deviation 1\.000e-06", spec)
    scenario = runner.build_scenario(spec)
    psi = np.asarray(scenario.input_state)
    oracle = list(engine.oracle_blocks(scenario, engine.oracle_bra(scenario)))
    transfer = list(engine.fast_run(scenario, engine.transfer_rows(scenario, psi[None])))
    deviation = next(engine.route_passes(scenario)).deviations["amplitude"]
    for index, m in ((1, 2), (2, 4)):
        corrected = family.unitaries[m] @ (oracle[index][m] - transfer[index][m])
        assert deviation[index, m] == pytest.approx(np.linalg.norm(corrected), rel=1e-15, abs=0)
        # the largest entry is not invariant under the correction
        uncorrected = oracle[index][m] - transfer[index][m]
        assert np.max(np.abs(corrected)) != pytest.approx(np.max(np.abs(uncorrected)), rel=0.05)


def test_cross_check_bounds_the_two_norm_not_the_largest_entry(monkeypatch):
    # every entry of one output moves by 0.6 RUN_TOL: no entry reaches the
    # tolerance, but the 2-norm over n = 4 entries is 1.2 RUN_TOL
    def shifted(index, block):
        if index == 1:
            block[5] += 0.6 * runner.RUN_TOL
        yield block

    faulty_stream(monkeypatch, shifted)
    spec = parse_config("n: 4\ninput: random:2\neavesdrop:\n  theta: 0.5\n")
    refused(r"routes disagree on branch \(m=\(1, 1\), l=1, b=None\): .* amplitude deviation 1\.200e-10", spec)


def test_cross_check_catches_a_dropped_block(monkeypatch):
    def dropped(index, block):
        if index < 3:
            yield block

    faulty_stream(monkeypatch, dropped)
    refused(r"^block 3: oracle \(4, 2\) vs transfer None$")


def test_cross_check_catches_rotated_blocks(monkeypatch):
    # streams carry no keys: a block in the wrong place is a deviation at
    # the branch whose place it took, never a silent relabelling
    blocks = []

    def rotated(index, block):
        blocks.append(block)
        if index == 3:
            yield from blocks[1:] + blocks[:1]

    faulty_stream(monkeypatch, rotated)
    refused(
        r"^routes disagree on branch \(m=\(0, 0\), l=0, b=0\): "
        r"probability deviation 7\.870e-02, amplitude deviation 3\.279e-01$"
    )


def test_cross_check_names_a_reshaped_block(monkeypatch):
    # a block that loses an outcome is a layout mismatch, not a tally error
    def reshaped(index, block):
        yield block[:-1] if index == 1 else block

    faulty_stream(monkeypatch, reshaped)
    refused(r"^block 1: oracle \(4, 2\) vs transfer \(3, 2\)$")


def test_tap_cell_mismatch_writes_nothing(monkeypatch):
    # both routes agree block by block, so only the tap comparison can object:
    # the transfer route's tap report sees outcome (1, 1) of every block
    # grown by a factor 1 + 1e-6 in probability
    scale = np.array([1.0, 1.0, 1.0, 1.0 + 1e-6])
    patched_tap_report(monkeypatch, probabilities=lambda p: p * scale)
    refused(r"branch operator probability deviates from oracle by .* on \(l=0, m=\(1, 1\)\)")


# a tap and four equal receiver branches (the Pauli matrices over 2): every
# output has amplitudes of at most 0.153 and a norm of 0.177, each branch a
# probability of 1/32 and each (l, m) cell 1/8; the average fidelity is 1/2
DEPOLARIZED = parse_config(
    "n: 2\ninput: plus-uniform\neavesdrop:\n  theta: 0.5\n"
    "effect_b:\n  kraus:\n"
    "    - [[0.5, 0], [0, 0.5]]\n"
    "    - [[0, 0.5], [0.5, 0]]\n"
    "    - [[0, [0, -0.5]], [[0, 0.5], 0]]\n"
    "    - [[0.5, 0], [0, -0.5]]\n"
)


def test_tap_cell_check_catches_branch_deviations_that_add_up(monkeypatch):
    # outcome (0, 1) of every tap-branch-0 block is scaled by 1 + 5e-7: each
    # branch moves by at most 8.8e-8 in amplitude (2-norm) and 3.1e-8 in
    # probability, within 1e-7, but the four add up to 1.25e-7 in the cell
    def grown(index, block):
        if index < 4:  # branch_keys order: tap branch 0 holds the first four blocks
            block[1] *= 1 + 5e-7
        yield block

    faulty_stream(monkeypatch, grown)
    monkeypatch.setattr(runner, "RUN_TOL", 1e-7)
    refused(
        r"branch operator probability deviates from oracle by 1\.250e-07 on \(l=0, m=\(0, 1\)\)",
        DEPOLARIZED,
    )


def test_total_fidelity_check_catches_branch_deviations_that_add_up(monkeypatch):
    # every output is scaled by 1 + 2e-7: each branch moves by at most 3.5e-8
    # (2-norm) and each cell by 5e-8, within 1e-7, but the fidelity total
    # of 1/2 moves by 2e-7
    def grown(index, block):
        yield block * (1 + 2e-7)

    faulty_stream(monkeypatch, grown)
    monkeypatch.setattr(runner, "RUN_TOL", 1e-7)
    refused(r"total fidelity routes disagree by 2\.000e-07", DEPOLARIZED)


def test_cross_check_fails_on_a_nan_amplitude(monkeypatch):
    def poisoned(index, block):
        if index == 2:
            block[1, 0] = np.nan
        yield block

    faulty_stream(monkeypatch, poisoned)
    refused(r"routes disagree on branch \(m=\(0, 1\), l=1, b=0\): .* amplitude deviation nan")


def test_tap_checks_fail_on_nan(monkeypatch):
    def poisoned(report):
        probabilities = report.probabilities.copy()
        probabilities[1, 3] = np.nan
        return replace(report, probabilities=probabilities)

    patched_tap_report(monkeypatch, poisoned)
    refused(r"branch operator probability deviates from oracle by nan on \(l=1, m=\(1, 1\)\)")
    patched_tap_report(monkeypatch, lambda r: replace(r, total_fidelity=float("nan")))
    refused("total fidelity routes disagree by nan")


SWEEP = parse_config(
    "n: 2\ninput: plus-uniform\neavesdrop:\n  theta_sweep: [0, 1, 3]\n"
    "distinguish:\n  - basis:0\n  - basis:1\n"
)


def test_sweep_point_fails_on_nan_fidelity(monkeypatch):
    patched_tap_report(monkeypatch, lambda r: replace(r, total_fidelity=float("nan")))
    stream = io.StringIO()
    with pytest.raises(InvariantViolation, match=r"theta=0: total fidelity routes disagree by nan"):
        runner.run_sweep(SWEEP, stream)
    assert stream.getvalue() == ""


def test_probability_sum_is_held_to_its_expected_value(monkeypatch):
    # a receiver closed to 1 + 8e-10 on level 1: held to 1, as the sweep
    # once held it, the sum of 1.0000000004 fails both drivers
    spec = parse_config(
        "n: 2\ninput: plus-uniform\neavesdrop:\n  theta_sweep: [0, 1, 3]\n"
        "effect_b:\n  kraus:\n    - [[1, 0], [0, 0.6]]\n    - [[0, 0.8000000005], [0, 0]]\n"
    )
    monkeypatch.setattr(engine, "expected_probability_sum", lambda *args: 1.0)
    sum_text = r"oracle probabilities sum to 1\.000000000\d+, expected 1\.0$"
    refused(sum_text, replace(spec, eavesdrop=replace(spec.eavesdrop, theta=0.5, sweep=None)))
    stream = io.StringIO()
    with pytest.raises(InvariantViolation, match="^theta=0: " + sum_text):
        runner.run_sweep(spec, stream)
    assert stream.getvalue() == ""


def test_sweep_compares_the_routes_block_by_block(monkeypatch):
    # the sweep zips `fast_run` with the oracle stream, so a moved oracle
    # amplitude is caught at the first tap strength
    route = engine.oracle_blocks

    def moved(scenario, bra):
        for index, block in enumerate(route(scenario, bra)):
            if index == 1:
                block = block.copy()
                block[2, 0] += 1e-6
            yield block

    monkeypatch.setattr(engine, "oracle_blocks", moved)
    stream = io.StringIO()
    with pytest.raises(
        InvariantViolation, match=r"theta=0: routes disagree on branch \(m=\(1, 0\), l=1, b=None\)"
    ):
        runner.run_sweep(SWEEP, stream)
    assert stream.getvalue() == ""


def mirrors_property(monkeypatch, build) -> None:
    """Replace `ScenarioConfig.mirrors` by a cached property built by ``build``."""
    mirrors = functools.cached_property(build)
    mirrors.__set_name__(engine.ScenarioConfig, "mirrors")
    monkeypatch.setattr(engine.ScenarioConfig, "mirrors", mirrors)


def test_oracle_shares_no_mirror_algebra(monkeypatch):
    # a mirror stack without its transpose breaks the transfer route only;
    # an oracle that read the scenario's mirrors would break along with it
    def untransposed(scenario):
        u0 = np.asarray(scenario.u0)
        return dagger(u0) @ scenario.effect_r.operators @ u0

    mirrors_property(monkeypatch, untransposed)
    spec = parse_config("n: 3\ninput: random:3\neavesdrop:\n  basis: fourier\n  theta: 0.5\n")
    stream = io.StringIO()
    with pytest.raises(InvariantViolation, match="routes disagree on branch"):
        run_teleport(spec, stream)
    assert stream.getvalue() == ""
    sweep = replace(spec, eavesdrop=replace(spec.eavesdrop, theta=None, sweep=(0.0, 1.0, 5)))
    with pytest.raises(InvariantViolation, match=r"^theta=\S+: routes disagree on branch"):
        runner.run_sweep(sweep, stream)
    assert stream.getvalue() == ""
    lines = run_verification("quick", seed=0).lines()
    assert any(line.startswith("FAIL oracle-fast-equivalence: ") for line in lines)


def counted_mirrors(monkeypatch, calls: dict) -> None:
    """Count every mirror stack built, in ``calls["mirrors"]``."""
    build = engine.ScenarioConfig.mirrors.func

    def counted(scenario):
        calls["mirrors"] += 1
        return build(scenario)

    mirrors_property(monkeypatch, counted)


def test_a_sweep_point_builds_and_mirrors_its_tap_once(monkeypatch):
    # one mirror stack a point, shared by the route pass and distinguishability
    calls = {"mirrors": 0, "strength_family": 0}
    counted_mirrors(monkeypatch, calls)
    strength_family = runner.strength_family

    def counted_family(*args):
        calls["strength_family"] += 1
        return strength_family(*args)

    monkeypatch.setattr(runner, "strength_family", counted_family)
    spec = parse_config("n: 3\ninput: random:4\neavesdrop:\n  basis: fourier\n  theta_sweep: [0, 1, 11]\n")
    runner.run_sweep(spec, io.StringIO())
    assert calls == {"mirrors": 11, "strength_family": 11}
    point = replace(spec, eavesdrop=replace(spec.eavesdrop, theta=0.5, sweep=None))
    run_teleport(point, io.StringIO())
    assert calls == {"mirrors": 12, "strength_family": 12}


def test_tap_oracle_agreement_builds_one_mirror_stack_per_scenario(monkeypatch):
    # the route pass and the tap's branch operators read the one stack
    calls = {"mirrors": 0}
    counted_mirrors(monkeypatch, calls)
    scenarios = []
    route_passes = verify.route_passes

    def recorded(scenario, effects=None):
        scenarios.append(scenario)
        return route_passes(scenario, effects)

    monkeypatch.setattr(verify, "route_passes", recorded)
    assert verify.check_tap_oracle_agreement("quick", 0, None).passed
    assert len(scenarios) == len(verify._dims("quick")) == calls["mirrors"]


def test_runs_and_verification_make_no_einsum_call(monkeypatch):
    # every block is reduced by np.vecdot: an einsum per block cost more
    # than the routes that produced it
    def refused_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", refused_einsum)
    run_teleport(SPEC, io.StringIO())
    runner.run_sweep(SWEEP, io.StringIO())
    assert run_verification("quick", seed=0).passed


def test_total_fidelity_routes_agree_to_roundoff():
    # both routes' totals are the same sequential sum over the tap's cells,
    # so they part only by the rounding of the blocks themselves
    spec = parse_config(
        "n: 32\ninput: random:3\nu0: identity\nbell: weyl\n"
        "eavesdrop:\n  basis: fourier\n  theta: 0.5\n"
    )
    routes = run_teleport(spec, io.StringIO())[-1]
    fidelity_dev = float(re.search(r"fidelity dev (\S+) ", routes).group(1))
    assert fidelity_dev <= 1e-14


def test_outcome_rows_are_the_bytes_csv_writer_gives():
    labels = ["a,b", 'q"x', "line\nbreak", ("t", 1), "50%", "%s"]
    # the last two repeat the first two unitaries: each of the pair weighs 1/2
    weights = [0.5, 0.5, 1.0, 1.0, 0.5, 0.5]
    family = make_bell_family(
        2,
        [
            (label, weyl_unitary(2, *divmod(i % 4, 2)), weight)
            for i, (label, weight) in enumerate(zip(labels, weights))
        ],
    )
    stream = io.StringIO()
    run_teleport(replace(SPEC, scenario=replace(SPEC.scenario, bell=family)), stream)
    text = stream.getvalue()
    rows = list(csv.reader(io.StringIO(text)))
    assert {row[2] for row in rows if row[0] == "outcome"} == {
        "a,b", 'q"x', "line\nbreak", "t-1", "50%", "%s"
    }
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    assert text == expected.getvalue()


def _pairs(matrix: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in matrix.tolist()]


def test_sweep_points_are_the_points_built_from_scratch(monkeypatch):
    # the sweep builds the strength-independent arrays once; each point must
    # still be, bit for bit, the point built alone at its strength
    u0 = random_unitary(3, np.random.default_rng(31))
    spec = parse_config(json.dumps({
        "n": 3, "input": "random:4", "u0": _pairs(u0),
        "eavesdrop": {"basis": "fourier", "theta_sweep": [0.1, 0.9, 5]},
        "effect_b": {"kraus": [
            [[1, 0, 0], [0, 0.8, 0], [0, 0, 1]], [[0, 0.6, 0], [0, 0, 0], [0, 0, 0]],
        ]},
        "distinguish": ["random:5", "basis:2"],
    }))
    fidelities, advantages = [], []
    route_passes, advantage_of = runner.route_passes, runner.distinguishability

    def recorded_passes(*args):
        for measured in route_passes(*args):
            fidelities.append(measured.tap.total_fidelity)
            yield measured

    def recorded_advantage(*args):
        advantages.append(advantage_of(*args))
        return advantages[-1]

    monkeypatch.setattr(runner, "route_passes", recorded_passes)
    monkeypatch.setattr(runner, "distinguishability", recorded_advantage)
    runner.run_sweep(spec, io.StringIO())
    grid = runner._sweep_grid(spec)
    assert len(fidelities) == len(advantages) == len(grid) == 5
    pair = np.array([state for _, state in spec.distinguish])
    for theta, fidelity, advantage in zip(grid, fidelities, advantages):
        point = replace(spec, eavesdrop=replace(spec.eavesdrop, theta=theta, sweep=None))
        scenario = runner.build_scenario(point)
        psi = np.asarray(scenario.input_state)
        norms, overlaps = engine.reduce_stream(
            engine.oracle_blocks(scenario, engine.oracle_bra(scenario)),
            engine.apply_each_inverse(scenario.bell.unitaries, psi),
        )
        assert fidelity == tap_report(scenario, norms, overlaps).total_fidelity
        assert advantage == distinguishability(engine.transfer_rows(scenario, pair), scenario.mirrors)
    # the points differ, so a tap carried over from one strength would show
    assert len(set(fidelities)) == 5


@pytest.mark.parametrize("steps", [3, 11])
def test_sweep_builds_the_oracle_bras_once(monkeypatch, steps):
    # n = 9 has 81 outcomes: two chunks of Bell bras for the whole sweep
    calls = []
    stack = engine.outcome_state_stack

    def counted(*args):
        calls.append(args)
        return stack(*args)

    monkeypatch.setattr(engine, "outcome_state_stack", counted)
    spec = parse_config(f"n: 9\ninput: random:2\neavesdrop:\n  theta_sweep: [0, 1, {steps}]\n")
    runner.run_sweep(spec, io.StringIO())
    assert len(calls) == math.ceil(81 / engine._BRA_CHUNK) == 2
