"""The run driver refuses to write a table its two routes disagree on.

Each test patches one route by name in `teleportsim.runner` and checks
that `run_teleport` raises `InvariantViolation` before the first CSV row.
"""
from __future__ import annotations

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from teleportsim import engine, runner
from teleportsim.bell import make_bell_family, weyl_unitary
from teleportsim.config import parse_config
from teleportsim.linalg import dagger
from teleportsim.runner import InvariantViolation, run_teleport
from teleportsim.verify import run_verification

# two tap branches and two receiver branches: four blocks of four outcomes
SPEC = parse_config(
    "n: 2\ninput: [0.6, [0, 0.8]]\neavesdrop:\n  theta: 0.5\n"
    "effect_b:\n  kraus:\n    - [[1, 0], [0, 0.8]]\n    - [[0, 0.6], [0, 0]]\n"
)


def refused(match: str) -> None:
    stream = io.StringIO()
    with pytest.raises(InvariantViolation, match=match):
        run_teleport(SPEC, stream)
    assert stream.getvalue() == ""


def test_tap_total_fidelity_mismatch_writes_nothing(monkeypatch):
    analyze = runner.analyze_eavesdropping

    def shifted(scenario):
        report = analyze(scenario)
        return replace(report, total_fidelity=report.total_fidelity + 1e-6)

    monkeypatch.setattr(runner, "analyze_eavesdropping", shifted)
    refused("total fidelity routes disagree by 1.000e-06")


def faulty_stream(monkeypatch, fault) -> None:
    """Patch the transfer route so ``fault(index, key, block)`` edits or drops each block."""
    route = runner.fast_run

    def patched(scenario):
        for index, (key, block) in enumerate(route(scenario)):
            yield from fault(index, key, block.copy())

    monkeypatch.setattr(runner, "fast_run", patched)


def test_cross_check_catches_one_moved_amplitude(monkeypatch):
    def moved(index, key, block):
        if index == 2:
            block[1, 0] += 1e-6
        yield key, block

    faulty_stream(monkeypatch, moved)
    refused(r"routes disagree on branch \(m=\(0, 1\), l=1, b=0\): .* amplitude deviation 1\.000e-06")


def test_cross_check_names_the_receiver_branch(monkeypatch):
    # blocks 2 and 3 share tap branch l = 1; only b tells them apart
    def moved(index, key, block):
        if index == 3:
            block[2, 1] += 1e-6
        yield key, block

    faulty_stream(monkeypatch, moved)
    refused(r"routes disagree on branch \(m=\(1, 0\), l=1, b=1\): .* amplitude deviation 1\.000e-06")


def test_cross_check_catches_a_dropped_block(monkeypatch):
    def dropped(index, key, block):
        if index < 3:
            yield key, block

    faulty_stream(monkeypatch, dropped)
    refused("record count mismatch: oracle 16 vs transfer 12")


def test_cross_check_catches_rotated_labels(monkeypatch):
    keys = ((0, 0), (0, 1), (1, 0), (1, 1))

    def rotated(index, key, block):
        yield keys[(index + 1) % len(keys)], block

    faulty_stream(monkeypatch, rotated)
    refused(
        r"record label mismatch: oracle block \(\(0, 0\), \(4, 2\)\) "
        r"vs transfer block \(\(0, 1\), \(4, 2\)\)"
    )


def test_tap_cell_mismatch_writes_nothing(monkeypatch):
    # both routes move together, so only the tap comparison can object:
    # outcome (1, 1) of every block grows by a factor 1 + 1e-6 in probability
    scale = np.sqrt(np.array([1.0, 1.0, 1.0, 1.0 + 1e-6]))[:, None]
    route = runner.run_oracle

    def skewed_table(scenario):
        table = route(scenario)
        blocks = table.blocks * scale
        probabilities = table.probabilities * scale[:, 0] ** 2
        blocks.setflags(write=False)
        probabilities.setflags(write=False)
        return replace(table, blocks=blocks, probabilities=probabilities)

    def skewed_block(index, key, block):
        yield key, block * scale

    monkeypatch.setattr(runner, "run_oracle", skewed_table)
    faulty_stream(monkeypatch, skewed_block)
    refused(r"branch operator probability deviates from oracle by .* on \(l=0, m=\(1, 1\)\)")


def test_cross_check_fails_on_a_nan_amplitude(monkeypatch):
    def poisoned(index, key, block):
        if index == 2:
            block[1, 0] = np.nan
        yield key, block

    faulty_stream(monkeypatch, poisoned)
    refused(r"routes disagree on branch \(m=\(0, 1\), l=1, b=0\): .* amplitude deviation nan")


def test_tap_checks_fail_on_nan(monkeypatch):
    analyze = runner.analyze_eavesdropping

    def poisoned(scenario):
        report = analyze(scenario)
        probabilities = report.probabilities.copy()
        probabilities[1, 3] = np.nan
        return replace(report, probabilities=probabilities)

    monkeypatch.setattr(runner, "analyze_eavesdropping", poisoned)
    refused(r"branch operator probability deviates from oracle by nan on \(l=1, m=\(1, 1\)\)")
    monkeypatch.setattr(
        runner,
        "analyze_eavesdropping",
        lambda scenario: replace(analyze(scenario), total_fidelity=float("nan")),
    )
    refused("total fidelity routes disagree by nan")


def test_sweep_point_fails_on_nan_fidelity(monkeypatch):
    analyze = runner.analyze_eavesdropping
    monkeypatch.setattr(
        runner,
        "analyze_eavesdropping",
        lambda scenario: replace(analyze(scenario), total_fidelity=float("nan")),
    )
    spec = parse_config(
        "n: 2\ninput: plus-uniform\neavesdrop:\n  theta_sweep: [0, 1, 3]\n"
        "distinguish:\n  - basis:0\n  - basis:1\n"
    )
    stream = io.StringIO()
    with pytest.raises(InvariantViolation, match="fidelity routes disagree by nan"):
        runner.run_sweep(spec, stream)
    assert stream.getvalue() == ""


def test_oracle_shares_no_mirror_algebra(monkeypatch):
    # a mirror without its transpose breaks the transfer route only; an
    # oracle that went through mirror_effect would break along with it
    monkeypatch.setattr(engine, "mirror_effect", lambda u0, effect: dagger(u0) @ effect @ u0)
    spec = parse_config("n: 3\ninput: random:3\neavesdrop:\n  basis: fourier\n  theta: 0.5\n")
    stream = io.StringIO()
    with pytest.raises(InvariantViolation, match="routes disagree on branch"):
        run_teleport(spec, stream)
    assert stream.getvalue() == ""
    lines = run_verification("quick", seed=0).lines()
    assert any(line.startswith("FAIL oracle-fast-equivalence: ") for line in lines)


def test_outcome_rows_are_the_bytes_csv_writer_gives():
    labels = ["a,b", 'q"x', "line\nbreak", ("t", 1)]
    family = make_bell_family(
        2, [(label, weyl_unitary(2, *divmod(i, 2)), 1.0) for i, label in enumerate(labels)]
    )
    stream = io.StringIO()
    run_teleport(replace(SPEC, bell=family), stream)
    text = stream.getvalue()
    rows = list(csv.reader(io.StringIO(text)))
    assert {row[2] for row in rows if row[0] == "outcome"} == {"a,b", 'q"x', "line\nbreak", "t-1"}
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    assert text == expected.getvalue()
