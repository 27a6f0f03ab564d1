"""CSV-producing run drivers shared by the command line entry points.

Every quantity written out is computed twice: once through the transfer
kernel and once through the full-state oracle.  Both routes are streams
of ``(M, n)`` blocks, and one pass zips them: `compare_routes` reduces
both alike to ``(K, M)`` squared norms and overlaps and measures the
amplitude deviation of every branch, and `tap_report` sums each route's
arrays into the tap's ``(L, M)`` cells.  A run keeps only those
reductions, never a table of blocks.  Every written number is a
reduction of the oracle's arrays, and the summary ends with the measured
route deviations.  A mismatch beyond the run tolerance raises
`InvariantViolation` before the first row is written, instead of writing
a plausible-looking but wrong table.  Output is deterministic down to the
byte for a fixed spec.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import isnan
from typing import IO, Iterable

import numpy as np

from .config import RunSpec
from .eavesdrop import EavesdropReport, distinguishability, tap_report
from .effects import strength_family
from .engine import (
    RouteMismatch,
    ScenarioConfig,
    compare_routes,
    conditional_fidelities,
    fast_run,
    fidelity_bras,
    make_scenario,
    oracle_blocks,
)
# run_oracle and analyze_eavesdropping stay importable here:
# perfbench/tracing.py patches them by name, though the drivers reach
# both routes through the streams and call neither
from .eavesdrop import analyze_eavesdropping  # noqa: F401
from .engine import run_oracle  # noqa: F401

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


@dataclass(frozen=True, eq=False)
class _RoutePass:
    """What one zipped pass over both routes keeps: the oracle's reductions.

    ``probabilities`` and ``fidelities`` hold one row per branch pair
    ``keys[k]`` and one column per Bell outcome ``tap.labels[m]``; ``tap``
    sums them into the tap's ``(l, m)`` cells.  ``deviations`` holds the
    largest amplitude, probability and total-fidelity deviations between
    the routes.
    """

    keys: tuple[tuple[object, object], ...]
    probabilities: np.ndarray  # (K, M)
    fidelities: np.ndarray  # (K, M)
    tap: EavesdropReport
    deviations: tuple[float, float, float]


def _zipped_pass(scenario: ScenarioConfig, tolerance: float) -> _RoutePass:
    """Zip the oracle stream with `fast_run` once, then check every invariant on the reductions.

    Raises `InvariantViolation` when the routes differ in layout, in one
    branch, in one tap cell or in total fidelity; a NaN deviation fails
    every check.
    """
    bras = fidelity_bras(np.asarray(scenario.input_state), scenario.corrections)
    try:
        keys, norms, overlaps, a_dev = compare_routes(oracle_blocks(scenario), fast_run(scenario), bras)
    except RouteMismatch as exc:
        raise InvariantViolation(str(exc)) from None
    labels = tuple(o.label for o in scenario.bell.outcomes)
    p_dev = np.abs(norms[0] - norms[1])
    # written as "not within", so a NaN deviation fails too
    failing = np.flatnonzero(~((p_dev <= tolerance) & (a_dev <= tolerance)))
    if failing.size:
        first = failing[0]
        block, column = divmod(int(first), len(labels))
        l, branch = keys[block]
        raise InvariantViolation(
            f"routes disagree on branch (m={labels[column]}, l={l}, b={branch}): "
            f"probability deviation {p_dev.flat[first]:.3e}, "
            f"amplitude deviation {a_dev.flat[first]:.3e}"
        )

    tap = tap_report(scenario, norms[0], overlaps[0])
    transfer_tap = tap_report(scenario, norms[1], overlaps[1])
    cell_dev = np.abs(transfer_tap.probabilities - tap.probabilities)
    failing = np.flatnonzero(~(cell_dev <= tolerance))
    if failing.size:
        row, column = divmod(int(failing[0]), len(labels))
        raise InvariantViolation(
            f"branch operator probability deviates from oracle by "
            f"{cell_dev[row, column]:.3e} on (l={tap.tap_labels[row]}, m={labels[column]})"
        )
    fidelity_dev = abs(transfer_tap.total_fidelity - tap.total_fidelity)
    if not fidelity_dev <= tolerance:
        raise InvariantViolation(f"total fidelity routes disagree by {fidelity_dev:.3e}")
    return _RoutePass(
        keys=keys,
        probabilities=norms[0],
        fidelities=conditional_fidelities(overlaps[0], norms[0]),
        tap=tap,
        deviations=(float(np.max(a_dev)), float(np.max(p_dev)), fidelity_dev),
    )


def _routes_line(deviations: Iterable[float], tolerance: float) -> str:
    amplitude, probability, fidelity = deviations
    return (
        f"routes: amplitude dev {amplitude:.3e}, probability dev {probability:.3e}, "
        f"fidelity dev {fidelity:.3e} (tolerance {tolerance:.1e})"
    )


def run_teleport(
    spec: RunSpec, stream: IO[str], tolerance: float = DEFAULT_RUN_TOL
) -> list[str]:
    """Run one teleportation scenario and write its CSV table.

    Returns human-readable summary lines for the caller to print.
    """
    scenario = build_scenario(spec)
    measured = _zipped_pass(scenario, tolerance)
    probabilities = measured.probabilities
    fidelities = measured.fidelities
    # a tap is the only reference effect a spec sets
    p_l = {} if spec.eavesdrop is None else dict(
        zip(measured.tap.tap_labels, measured.tap.probabilities.sum(axis=1).tolist())
    )

    # rows are formatted as text, one write per block; every label goes
    # through `format_label` once, so the bytes are what csv.writer gives
    stream.write(",".join(TELEPORT_HEADER) + "\n")
    m_texts = [format_label(m) for m in measured.tap.labels]
    for (l, branch), row_p, row_f in zip(measured.keys, probabilities, fidelities):
        prefix = f"outcome,{format_label(l)},"
        b_text = format_label(branch)
        stream.write("".join(
            f"{prefix}{m_text},{b_text},{p:.12g},{'' if isnan(f) else f'{f:.12g}'}\n"
            for m_text, p, f in zip(m_texts, row_p.tolist(), row_f.tolist())
        ))
    total_probability = float(probabilities.sum())
    stream.write("".join([
        *(f"p_l,{format_label(label)},,,{value:.12g},\n" for label, value in p_l.items()),
        *(f"p_m,,{m_text},,{value:.12g},\n"
          for m_text, value in zip(m_texts, probabilities.sum(axis=0).tolist())),
        f"total,,,,{total_probability:.12g},{measured.tap.total_fidelity:.12g}\n",
    ]))

    summary = [
        f"teleport: n={spec.n}, input {spec.input_label}, "
        f"{len(spec.bell.outcomes)} Bell outcomes"
        + (
            f", tap theta={format_number(spec.eavesdrop.theta)}"
            if spec.eavesdrop is not None and spec.eavesdrop.theta is not None
            else ""
        ),
        f"records: {probabilities.size} ({int(np.isnan(fidelities).sum())} null), "
        f"probability sum {format_number(total_probability)}",
        f"average output fidelity: {format_number(measured.tap.total_fidelity)}",
        _routes_line(measured.deviations, tolerance),
    ]
    return summary


def _sweep_grid(spec: RunSpec) -> list[float]:
    if spec.eavesdrop is None:
        raise ValueError("sweep requires an eavesdrop section with theta_sweep")
    if spec.eavesdrop.sweep is None:
        raise ValueError("sweep requires theta_sweep, not a single theta")
    start, stop, steps = spec.eavesdrop.sweep
    return [float(t) for t in np.linspace(start, stop, steps)]


def _sweep_point(
    spec: RunSpec, theta: float, tolerance: float
) -> tuple[float, float, tuple[float, float, float]]:
    """Total fidelity, distinguishability and route deviations at one tap strength."""
    scenario = build_scenario(spec, theta=theta)
    try:
        measured = _zipped_pass(scenario, tolerance)
        probability = float(measured.probabilities.sum())
        if not abs(probability - 1.0) <= tolerance:
            raise InvariantViolation(f"oracle probabilities sum to {probability!r}")
    except InvariantViolation as exc:
        raise InvariantViolation(f"theta={theta:.6f}: {exc}") from None
    (_, first), (_, second) = spec.distinguish
    advantage = distinguishability(scenario, first, second)
    return measured.tap.total_fidelity, advantage, measured.deviations


def run_sweep(
    spec: RunSpec, stream: IO[str], tolerance: float = DEFAULT_RUN_TOL
) -> list[str]:
    """Sweep the tap strength and tabulate fidelity against leakage."""
    grid = _sweep_grid(spec)
    points = [_sweep_point(spec, theta, tolerance) for theta in grid]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for theta, (fidelity, advantage, _) in zip(grid, points):
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
        # the largest of each deviation over the grid
        _routes_line(np.max([deviations for _, _, deviations in points], axis=0), tolerance),
    ]
    return summary
