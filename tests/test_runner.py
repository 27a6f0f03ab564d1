"""The run driver refuses to write a table its two routes disagree on.

Each test patches one route by name in `teleportsim.runner` and checks
that `run_teleport` raises `InvariantViolation` before the first CSV row.
"""
from __future__ import annotations

import io
from dataclasses import replace

import numpy as np
import pytest

from teleportsim import runner
from teleportsim.config import parse_config
from teleportsim.runner import InvariantViolation, run_teleport

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


def test_cross_check_catches_one_moved_amplitude(monkeypatch):
    route = runner.fast_run

    def moved(scenario):
        table = route(scenario)
        amplitudes = table.amplitudes.copy()
        amplitudes[2, 1, 0] += 1e-6
        amplitudes.setflags(write=False)
        return replace(table, amplitudes=amplitudes)

    monkeypatch.setattr(runner, "fast_run", moved)
    refused(r"routes disagree on branch \(m=\(0, 1\), l=1\): .* amplitude deviation 1\.000e-06")


def test_cross_check_catches_a_dropped_block(monkeypatch):
    route = runner.fast_run

    def dropped(scenario):
        table = route(scenario)
        return replace(
            table,
            keys=table.keys[:-1],
            amplitudes=table.amplitudes[:-1],
            probabilities=table.probabilities[:-1],
        )

    monkeypatch.setattr(runner, "fast_run", dropped)
    refused("record count mismatch: oracle 16 vs transfer 12")


def test_cross_check_catches_rotated_labels(monkeypatch):
    route = runner.fast_run

    def rotated(scenario):
        table = route(scenario)
        return replace(table, labels=table.labels[1:] + table.labels[:1])

    monkeypatch.setattr(runner, "fast_run", rotated)
    refused(r"record label mismatch: \(\(0, 0\), 0, 0\) vs \(\(0, 1\), 0, 0\)")


def test_tap_cell_mismatch_writes_nothing(monkeypatch):
    route = runner.run_oracle

    def skewed(scenario):
        # both routes move together, so only the tap comparison can object
        table = route(scenario)
        probabilities = table.probabilities * np.array([1.0, 1.0, 1.0, 1.0 + 1e-6])
        probabilities.setflags(write=False)
        return replace(table, probabilities=probabilities)

    monkeypatch.setattr(runner, "run_oracle", skewed)
    monkeypatch.setattr(runner, "fast_run", skewed)
    refused(r"branch operator probability deviates from oracle by .* on \(l=0, m=\(1, 1\)\)")


def test_cross_check_fails_on_a_nan_amplitude(monkeypatch):
    route = runner.fast_run

    def poisoned(scenario):
        table = route(scenario)
        amplitudes = table.amplitudes.copy()
        amplitudes[2, 1, 0] = np.nan
        amplitudes.setflags(write=False)
        return replace(table, amplitudes=amplitudes)

    monkeypatch.setattr(runner, "fast_run", poisoned)
    refused(r"routes disagree on branch \(m=\(0, 1\), l=1\): .* amplitude deviation nan")


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
