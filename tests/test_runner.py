"""The run drivers refuse to write a table their two routes disagree on.

Each test patches one route, or the transfer route's tap report, by name
in `teleportsim.runner` and checks that `run_teleport` or `run_sweep` raises
`InvariantViolation` before the first CSV row.
"""
from __future__ import annotations

import csv
import io
import re
from dataclasses import replace

import numpy as np
import pytest

from teleportsim import engine, runner
from teleportsim.bell import make_bell_family, weyl_unitary
from teleportsim.config import parse_config
from teleportsim.eavesdrop import tap_report
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


def patched_tap_report(monkeypatch, report=None, probabilities=None) -> None:
    """Patch the transfer route's `tap_report` in `runner`.

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

    monkeypatch.setattr(runner, "tap_report", patched)


def test_tap_total_fidelity_mismatch_writes_nothing(monkeypatch):
    patched_tap_report(monkeypatch, lambda r: replace(r, total_fidelity=r.total_fidelity + 1e-6))
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


def test_cross_check_names_an_unknown_tap_label(monkeypatch):
    # a label the tap does not have is a layout mismatch, not a tally error
    def renamed(index, key, block):
        yield (("x", key[1]) if index == 1 else key), block

    faulty_stream(monkeypatch, renamed)
    refused(
        r"record label mismatch: oracle block \(\(0, 1\), \(4, 2\)\) "
        r"vs transfer block \(\('x', 1\), \(4, 2\)\)"
    )


def test_tap_cell_mismatch_writes_nothing(monkeypatch):
    # both routes agree block by block, so only the tap comparison can object:
    # the transfer route's tap report sees outcome (1, 1) of every block
    # grown by a factor 1 + 1e-6 in probability
    scale = np.array([1.0, 1.0, 1.0, 1.0 + 1e-6])
    patched_tap_report(monkeypatch, probabilities=lambda p: p * scale)
    refused(r"branch operator probability deviates from oracle by .* on \(l=0, m=\(1, 1\)\)")


def test_cross_check_fails_on_a_nan_amplitude(monkeypatch):
    def poisoned(index, key, block):
        if index == 2:
            block[1, 0] = np.nan
        yield key, block

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
    with pytest.raises(InvariantViolation, match=r"theta=0\.000000: total fidelity routes disagree by nan"):
        runner.run_sweep(SWEEP, stream)
    assert stream.getvalue() == ""


def test_sweep_compares_the_routes_block_by_block(monkeypatch):
    # the sweep zips `fast_run` with the oracle stream, so a moved oracle
    # amplitude is caught at the first tap strength
    route = runner.oracle_blocks

    def moved(scenario):
        for index, (key, block) in enumerate(route(scenario)):
            if index == 1:
                block = block.copy()
                block[2, 0] += 1e-6
            yield key, block

    monkeypatch.setattr(runner, "oracle_blocks", moved)
    stream = io.StringIO()
    with pytest.raises(
        InvariantViolation, match=r"theta=0\.000000: routes disagree on branch \(m=\(1, 0\), l=1, b=None\)"
    ):
        runner.run_sweep(SWEEP, stream)
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
