"""CSV-producing run drivers shared by the command line entry points.

Every quantity written out is computed twice: once through the transfer
kernel and once through the full-state oracle.  The oracle returns a
`BranchTable`; the transfer route streams its blocks, and
`route_deviations` compares each with the table as it arrives.  Every
written number is a reduction of the oracle table's arrays, and the
teleport summary ends with the measured route deviations.  A mismatch
beyond the run tolerance raises `InvariantViolation` before the first row
is written, instead of writing a plausible-looking but wrong table.
Output is deterministic down to the byte for a fixed spec.
"""
from __future__ import annotations

import csv
import io
from itertools import zip_longest
from math import isnan
from typing import IO, Iterator

import numpy as np

from .config import RunSpec
from .eavesdrop import analyze_eavesdropping, distinguishability
from .effects import strength_family
from .engine import BranchTable, ScenarioConfig, fast_run, make_scenario, route_deviations, run_oracle

TELEPORT_HEADER = ("record", "l", "m", "branch", "probability", "fidelity")

SWEEP_HEADER = ("theta", "total_fidelity", "distinguishability")

DEFAULT_RUN_TOL = 1e-10


class InvariantViolation(RuntimeError):
    """The two computation routes disagreed beyond the run tolerance."""


def format_number(value: float) -> str:
    """Decimal rendering at 12 significant digits, stable across runs."""
    return f"{value:.12g}"


def format_label(label: object) -> str:
    """A label as one CSV field, quoted exactly as csv.writer quotes it.

    Tuple parts are joined with ``-``; ``None`` is the empty field.
    """
    if label is None:
        text = ""
    elif isinstance(label, tuple):
        text = "-".join(str(part) for part in label)
    else:
        text = str(label)
    buffer = io.StringIO()
    # a second, empty field keeps csv.writer from quoting a lone empty field
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


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


def _cross_check(
    oracle: BranchTable, blocks: Iterator[tuple[tuple[object, object], np.ndarray]], tolerance: float
) -> tuple[float, float]:
    """Compare the transfer stream with the oracle table, block by block.

    Returns the largest amplitude and probability deviations.
    """
    streamed: list[tuple[object, tuple[int, ...]]] = []  # key and shape of each block seen

    def tally() -> Iterator[tuple[tuple[object, object], np.ndarray]]:
        for key, block in blocks:
            streamed.append((key, block.shape))
            yield key, block

    stream = tally()
    deviations = route_deviations(oracle, stream)
    if deviations is None:
        for _ in stream:  # the rest of the stream, to count its records
            pass
        count = sum(shape[0] for _, shape in streamed)
        if count != len(oracle):
            raise InvariantViolation(
                f"record count mismatch: oracle {len(oracle)} vs transfer {count}"
            )
        # the first block whose key or shape differs: (key, shape) on each side
        layout = [(key, oracle.blocks.shape[1:]) for key in oracle.keys]
        slow, quick = next((a, b) for a, b in zip_longest(layout, streamed) if a != b)
        raise InvariantViolation(f"record label mismatch: oracle block {slow} vs transfer block {quick}")
    p_dev, a_dev = deviations
    # written as "not within", so a NaN deviation fails too
    failing = np.flatnonzero(~((p_dev <= tolerance) & (a_dev <= tolerance)))
    if failing.size:
        first = failing[0]
        block, column = divmod(int(first), len(oracle.labels))
        l, branch = oracle.keys[block]
        raise InvariantViolation(
            f"routes disagree on branch (m={oracle.labels[column]}, l={l}, b={branch}): "
            f"probability deviation {p_dev.flat[first]:.3e}, "
            f"amplitude deviation {a_dev.flat[first]:.3e}"
        )
    return float(np.max(a_dev)), float(np.max(p_dev))


def run_teleport(
    spec: RunSpec, stream: IO[str], tolerance: float = DEFAULT_RUN_TOL
) -> list[str]:
    """Run one teleportation scenario and write its CSV table.

    Returns human-readable summary lines for the caller to print.
    """
    scenario = build_scenario(spec)
    oracle = run_oracle(scenario)
    amplitude_dev, probability_dev = _cross_check(oracle, fast_run(scenario), tolerance)
    probabilities = oracle.probabilities
    fidelities = oracle.fidelities(spec.input_state)
    total_fidelity = float(np.nansum(probabilities * fidelities))
    p_l: dict[object, float] = {}  # a tap is the only reference effect a spec sets
    if spec.eavesdrop is not None:
        tap_report = analyze_eavesdropping(scenario)
        tap = tap_report.probabilities
        # the tap sees (l, m) only: sum each cell over receiver branches
        cells = probabilities.reshape(tap.shape[0], -1, tap.shape[1]).sum(axis=1)
        p_l = dict(zip(tap_report.tap_labels, cells.sum(axis=1).tolist()))
        cell_dev = np.abs(tap - cells)
        failing = np.flatnonzero(~(cell_dev <= tolerance))
        if failing.size:
            row, column = divmod(int(failing[0]), tap.shape[1])
            raise InvariantViolation(
                f"branch operator probability deviates from oracle by "
                f"{cell_dev[row, column]:.3e} on "
                f"(l={tap_report.tap_labels[row]}, m={tap_report.labels[column]})"
            )
        deviation = abs(tap_report.total_fidelity - total_fidelity)
        if not deviation <= tolerance:
            raise InvariantViolation(f"total fidelity routes disagree by {deviation:.3e}")

    # rows are formatted as text, one write per block; every label goes
    # through `format_label` once, so the bytes are what csv.writer gives
    stream.write(",".join(TELEPORT_HEADER) + "\n")
    m_texts = [format_label(m) for m in oracle.labels]
    for (l, branch), row_p, row_f in zip(oracle.keys, probabilities.tolist(), fidelities.tolist()):
        prefix = f"outcome,{format_label(l)},"
        b_text = format_label(branch)
        stream.write("".join(
            f"{prefix}{m_text},{b_text},{p:.12g},{'' if isnan(f) else f'{f:.12g}'}\n"
            for m_text, p, f in zip(m_texts, row_p, row_f)
        ))
    total_probability = float(probabilities.sum())
    stream.write("".join([
        *(f"p_l,{format_label(label)},,,{value:.12g},\n" for label, value in p_l.items()),
        *(f"p_m,,{m_text},,{value:.12g},\n"
          for m_text, value in zip(m_texts, probabilities.sum(axis=0).tolist())),
        f"total,,,,{total_probability:.12g},{total_fidelity:.12g}\n",
    ]))

    summary = [
        f"teleport: n={spec.n}, input {spec.input_label}, "
        f"{len(spec.bell.outcomes)} Bell outcomes"
        + (
            f", tap theta={format_number(spec.eavesdrop.theta)}"
            if spec.eavesdrop is not None and spec.eavesdrop.theta is not None
            else ""
        ),
        f"records: {len(oracle)} ({int(np.isnan(fidelities).sum())} null), "
        f"probability sum {format_number(total_probability)}",
        f"average output fidelity: {format_number(total_fidelity)}",
        f"routes: amplitude dev {amplitude_dev:.3e}, probability dev {probability_dev:.3e} "
        f"(tolerance {tolerance:.1e})",
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
    oracle = run_oracle(scenario)
    oracle_probability = float(oracle.probabilities.sum())
    oracle_fidelity = float(np.nansum(oracle.probabilities * oracle.fidelities(spec.input_state)))
    if not abs(oracle_probability - 1.0) <= tolerance:
        raise InvariantViolation(
            f"theta={theta:.6f}: oracle probabilities sum to {oracle_probability!r}"
        )
    if not abs(oracle_fidelity - report.total_fidelity) <= tolerance:
        raise InvariantViolation(
            f"theta={theta:.6f}: fidelity routes disagree by "
            f"{abs(oracle_fidelity - report.total_fidelity):.3e}"
        )
    (_, first), (_, second) = spec.distinguish
    return report.total_fidelity, distinguishability(scenario, first, second)


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
