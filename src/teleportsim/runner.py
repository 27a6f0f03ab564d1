"""CSV-producing run drivers shared by the command line entry points.

Every quantity written out is computed twice: once through the transfer
kernel and once through the full-state oracle.  A mismatch
beyond the run tolerance raises `InvariantViolation` instead of writing
a plausible-looking but wrong table.  Output is deterministic down to
the byte for a fixed spec.
"""
from __future__ import annotations

import csv
from typing import IO

import numpy as np

from .config import RunSpec
from .eavesdrop import analyze_eavesdropping, distinguishability
from .effects import strength_family
from .engine import ScenarioConfig, TeleportRecord, fast_run, make_scenario, run_oracle

TELEPORT_HEADER = ("record", "l", "m", "branch", "probability", "fidelity")

SWEEP_HEADER = ("theta", "total_fidelity", "distinguishability")

DEFAULT_RUN_TOL = 1e-10

CROSS_CHECK_CHUNK = 1024


class InvariantViolation(RuntimeError):
    """The two computation routes disagreed beyond the run tolerance."""


def format_number(value: float) -> str:
    """Decimal rendering at 12 significant digits, stable across runs."""
    return f"{value:.12g}"


def format_label(label: object) -> str:
    if label is None:
        return ""
    if isinstance(label, tuple):
        return "-".join(str(part) for part in label)
    return str(label)


def build_scenario(spec: RunSpec, theta: float | None = None) -> ScenarioConfig:
    """Assemble the engine scenario for a spec, fixing the tap strength."""
    effect_r = None
    if spec.eavesdrop is not None:
        if theta is None:
            theta = spec.eavesdrop.theta
        if theta is None:
            raise ValueError("a single tap strength is required (spec carries a sweep)")
        effect_r = strength_family(spec.n, theta, np.asarray(spec.eavesdrop.basis))
    return make_scenario(
        spec.n,
        np.asarray(spec.input_state),
        bell=spec.bell,
        u0=np.asarray(spec.u0),
        effect_r=effect_r,
        effect_b=spec.effect_b,
    )


def _cross_check_records(
    oracle: list[TeleportRecord], fast: list[TeleportRecord], tolerance: float
) -> None:
    if len(oracle) != len(fast):
        raise InvariantViolation(
            f"record count mismatch: oracle {len(oracle)} vs transfer {len(fast)}"
        )
    for slow, quick in zip(oracle, fast):
        if (slow.m, slow.l, slow.branch) != (quick.m, quick.l, quick.branch):
            raise InvariantViolation(
                f"record label mismatch: {slow.m, slow.l, slow.branch} vs "
                f"{quick.m, quick.l, quick.branch}"
            )
    # stacked in chunks, so the comparison never copies every amplitude at once
    for start in range(0, len(oracle), CROSS_CHECK_CHUNK):
        slow_part = oracle[start : start + CROSS_CHECK_CHUNK]
        quick_part = fast[start : start + CROSS_CHECK_CHUNK]
        p_dev = np.abs(
            np.array([r.probability for r in slow_part])
            - np.array([r.probability for r in quick_part])
        )
        a_dev = np.max(
            np.abs(
                np.array([r.raw_output for r in slow_part])
                - np.array([r.raw_output for r in quick_part])
            ),
            axis=1,
        )
        failing = np.flatnonzero((p_dev > tolerance) | (a_dev > tolerance))
        if failing.size:
            first = failing[0]
            slow = slow_part[first]
            raise InvariantViolation(
                f"routes disagree on branch (m={slow.m}, l={slow.l}): "
                f"probability deviation {p_dev[first]:.3e}, amplitude deviation {a_dev[first]:.3e}"
            )


def run_teleport(
    spec: RunSpec, stream: IO[str], tolerance: float = DEFAULT_RUN_TOL
) -> list[str]:
    """Run one teleportation scenario and write its CSV table.

    Returns human-readable summary lines for the caller to print.
    """
    scenario = build_scenario(spec)
    oracle_records = run_oracle(scenario)
    _cross_check_records(oracle_records, fast_run(scenario), tolerance)

    tap_report = None
    if spec.eavesdrop is not None:
        tap_report = analyze_eavesdropping(scenario)
        # the tap sees (l, m) only: sum each cell over receiver branches
        oracle_cells: dict[tuple[object, object], float] = {}
        for record in oracle_records:
            key = (record.l, record.m)
            oracle_cells[key] = oracle_cells.get(key, 0.0) + record.probability
        for entry in tap_report.entries:
            deviation = abs(entry.probability - oracle_cells[(entry.l, entry.m)])
            if deviation > tolerance:
                raise InvariantViolation(
                    f"branch operator probability deviates from oracle by {deviation:.3e} "
                    f"on (l={entry.l}, m={entry.m})"
                )

    psi = np.asarray(spec.input_state)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TELEPORT_HEADER)
    total_probability = 0.0
    total_fidelity = 0.0
    null_count = 0
    p_l: dict[object, float] = {}
    p_m: dict[object, float] = {}
    for record in oracle_records:
        total_probability += record.probability
        if record.l is not None:
            p_l[record.l] = p_l.get(record.l, 0.0) + record.probability
        p_m[record.m] = p_m.get(record.m, 0.0) + record.probability
        output = record.output  # normalized on each access, so read once
        if output is None:
            null_count += 1
            fidelity_text = ""
        else:
            fidelity = float(abs(np.vdot(psi, output)) ** 2)
            total_fidelity += record.probability * fidelity
            fidelity_text = format_number(fidelity)
        writer.writerow(
            (
                "outcome",
                format_label(record.l),
                format_label(record.m),
                format_label(record.branch),
                format_number(record.probability),
                fidelity_text,
            )
        )
    for label, value in p_l.items():
        writer.writerow(("p_l", format_label(label), "", "", format_number(value), ""))
    for label, value in p_m.items():
        writer.writerow(("p_m", "", format_label(label), "", format_number(value), ""))
    writer.writerow(("total", "", "", "", format_number(total_probability), format_number(total_fidelity)))

    if tap_report is not None:
        deviation = abs(tap_report.total_fidelity - total_fidelity)
        if deviation > tolerance:
            raise InvariantViolation(
                f"total fidelity routes disagree by {deviation:.3e}"
            )

    summary = [
        f"teleport: n={spec.n}, input {spec.input_label}, "
        f"{len(spec.bell.outcomes)} Bell outcomes"
        + (
            f", tap theta={format_number(spec.eavesdrop.theta)}"
            if spec.eavesdrop is not None and spec.eavesdrop.theta is not None
            else ""
        ),
        f"records: {len(oracle_records)} ({null_count} null), "
        f"probability sum {format_number(total_probability)}",
        f"average output fidelity: {format_number(total_fidelity)}",
    ]
    return summary


def _sweep_grid(spec: RunSpec) -> list[float]:
    if spec.eavesdrop is None:
        raise ValueError("sweep requires an eavesdrop section with theta_sweep")
    if spec.eavesdrop.sweep is None:
        raise ValueError("sweep requires theta_sweep, not a single theta")
    start, stop, steps = spec.eavesdrop.sweep
    return [float(t) for t in np.linspace(start, stop, steps)]


def _sweep_point(spec: RunSpec, theta: float, tolerance: float) -> tuple[float, float]:
    scenario = build_scenario(spec, theta=theta)
    report = analyze_eavesdropping(scenario)
    records = run_oracle(scenario)
    oracle_fidelity = 0.0
    oracle_probability = 0.0
    for record in records:
        oracle_probability += record.probability
        output = record.output
        if output is not None:
            overlap = float(abs(np.vdot(spec.input_state, output)) ** 2)
            oracle_fidelity += record.probability * overlap
    if abs(oracle_probability - 1.0) > tolerance:
        raise InvariantViolation(
            f"theta={theta:.6f}: oracle probabilities sum to {oracle_probability!r}"
        )
    if abs(oracle_fidelity - report.total_fidelity) > tolerance:
        raise InvariantViolation(
            f"theta={theta:.6f}: fidelity routes disagree by "
            f"{abs(oracle_fidelity - report.total_fidelity):.3e}"
        )
    pair = [np.asarray(state) for _, state in spec.distinguish]
    advantage = float(distinguishability(scenario, pair)[0, 1])
    return report.total_fidelity, advantage


def run_sweep(
    spec: RunSpec, stream: IO[str], tolerance: float = DEFAULT_RUN_TOL
) -> list[str]:
    """Sweep the tap strength and tabulate fidelity against leakage."""
    grid = _sweep_grid(spec)
    points = [_sweep_point(spec, theta, tolerance) for theta in grid]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for theta, (fidelity, advantage) in zip(grid, points):
        writer.writerow(
            (format_number(theta), format_number(fidelity), format_number(advantage))
        )
    labels = " vs ".join(label for label, _ in spec.distinguish)
    summary = [
        f"sweep: n={spec.n}, input {spec.input_label}, "
        f"theta {format_number(grid[0])} -> {format_number(grid[-1])} in {len(grid)} steps",
        f"distinguish pair: {labels}",
        f"fidelity {format_number(points[0][0])} -> {format_number(points[-1][0])}, "
        f"leakage {format_number(points[0][1])} -> {format_number(points[-1][1])}",
    ]
    return summary
