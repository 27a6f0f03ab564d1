"""CSV-producing run drivers shared by the command line entry points.

Every branch is computed twice: once through the transfer kernel and once
through the full-state oracle.  Both routes are streams of ``(M, n)``
blocks, and one pass zips them: `compare_routes` reduces both alike to
``(K, M)`` squared norms and overlaps and measures the amplitude deviation
of every branch, and `tap_report` sums each route's arrays into the tap's
``(L, M)`` cells.  A run keeps only those reductions, never a table of
blocks, and no driver calls `run_oracle`: it is imported below for the
benchmark's tracer alone.  Every number `run_teleport` writes, and the
sweep's fidelity column, is a reduction of the oracle's arrays, and the
summary ends with the measured route deviations.  The oracle's probability sum is held to
`expected_probability_sum`, its closed form, which admission's closure
tolerance lets differ from 1; the summary prints both.  The sweep's
distinguishability column comes from the transfer kernel alone, through
`distinguishability`, and no oracle checks it.  A mismatch beyond the run
tolerance raises `InvariantViolation` before the first row is written,
instead of writing a plausible-looking but wrong table.  Output is
deterministic down to the byte for a fixed spec.

What no tap strength changes is built once per run: the validated
scenario (input, Bell family, u0 and receiver), and by `_fixed_half` the
oracle's bra on R and its Gram, the kernel's rows of the input, the
fidelity bras and the reference marginal.  A sweep builds them, and the distinguished
pair's kernel rows, once for the whole grid; each point builds only its
tap family, both routes' blocks and their reductions.

The teleport table is rendered in bulk, with the bytes a row-by-row
csv.writer would give.  Every number is `format_number`'s ``.12g``, and
`format_numbers` renders each distinct float64 bit pattern of the
``(K, M)`` probabilities, and of the fidelities, once.  `format_labels` renders
every label in one csv.writer pass.  The rows of one ``(l, b)`` block are
joined from those texts and written at once, so a run holds its string
arrays and one block's text, never the whole body.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from types import SimpleNamespace
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
    expected_probability_sum,
    fast_run,
    fidelity_bras,
    make_scenario,
    oracle_blocks,
    oracle_bra,
    reference_marginal,
    transfer_rows,
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


# how every number of a CSV is written: 12 significant digits
_NUMBER = "%.12g"


def format_number(value: float) -> str:
    """Decimal rendering at 12 significant digits, stable across runs."""
    return _NUMBER % value


def format_numbers(values: np.ndarray) -> np.ndarray:
    """`format_number` of every entry, NaN as the empty field, as an object array.

    Each distinct float64 bit pattern is rendered once and mapped back by
    index, so ``-0.0``, NaN payloads and subnormals come out exactly as a
    call per entry renders them.  One ``%`` renders every distinct value,
    a line each: a number's text holds no newline.
    """
    values = np.ascontiguousarray(values, dtype=float)
    patterns, inverse = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    distinct = patterns.view(float)
    lines = (_NUMBER + "\n") * distinct.size % tuple(distinct.tolist())
    texts = np.array(lines.split("\n")[:-1], dtype=object)
    texts[np.isnan(distinct)] = ""
    # the inverse's shape has changed across numpy versions
    return texts[inverse.reshape(values.shape)]


def format_labels(labels: list[object]) -> list[str]:
    """Each label as one CSV field, quoted exactly as csv.writer quotes it.

    Tuple parts are joined with ``-``; ``None`` is the empty field.  One
    writer renders every label as a row of its own.  The rows are split
    apart by the writer's ``write`` calls: CPython's csv.writer hands each
    row to ``write`` in one call, which the csv documentation does not
    promise, so a row written in pieces fails here instead of shifting
    every later label.
    """
    rows: list[str] = []
    writer = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\n")
    # a second, empty field keeps csv.writer from quoting a lone empty field
    writer.writerows((_label_text(label), "") for label in labels)
    if len(rows) != len(labels):
        raise RuntimeError(f"csv.writer wrote {len(labels)} rows in {len(rows)} pieces")
    return [row[:-2] for row in rows]


def _label_text(label: object) -> str:
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


@dataclass(frozen=True, eq=False)
class _FixedHalf:
    """The arrays of a run that no tap strength changes: built once per run or sweep.

    ``bra`` (`oracle_bra`) feeds the oracle alone and ``rows``
    (`transfer_rows` of the input) the transfer route alone.
    ``fidelity_bras`` reduce both routes' blocks.  ``gram`` (``bra^+
    bra``) and ``marginal`` (`reference_marginal`) are what
    `expected_probability_sum` needs beside the reference effect.
    """

    bra: np.ndarray  # (M, n)
    rows: np.ndarray  # (M, 1, n)
    fidelity_bras: np.ndarray  # (M, n)
    gram: np.ndarray  # (n, n)
    marginal: np.ndarray  # (n, n)


def _fixed_half(scenario: ScenarioConfig) -> _FixedHalf:
    psi = np.asarray(scenario.input_state)
    bra = oracle_bra(scenario)
    return _FixedHalf(
        bra=bra,
        rows=transfer_rows(scenario, psi[None]),
        fidelity_bras=fidelity_bras(psi, scenario.bell.unitaries),
        gram=np.conj(bra).T @ bra,
        marginal=reference_marginal(scenario),
    )


@dataclass(frozen=True, eq=False)
class _RoutePass:
    """What one zipped pass over both routes keeps: the oracle's reductions.

    ``probabilities`` and ``fidelities`` hold one row per branch pair
    ``keys[k]`` and one column per Bell outcome ``tap.labels[m]``; ``tap``
    sums them into the tap's ``(l, m)`` cells.  ``probability_sum`` is the
    oracle's total and ``expected_sum`` its closed form.  ``deviations``
    holds the largest amplitude, probability and total-fidelity deviations
    between the routes.
    """

    keys: tuple[tuple[object, object], ...]
    probabilities: np.ndarray  # (K, M)
    fidelities: np.ndarray  # (K, M)
    tap: EavesdropReport
    probability_sum: float
    expected_sum: float
    deviations: tuple[float, float, float]


def _zipped_pass(scenario: ScenarioConfig, fixed: _FixedHalf, tolerance: float) -> _RoutePass:
    """Zip the oracle stream with `fast_run` once, then check every invariant on the reductions.

    ``fixed`` is `_fixed_half` of a scenario that differs from this one in
    the tap at most.  Raises `InvariantViolation` when the routes differ
    in layout, in one branch, in one tap cell or in total fidelity, or
    when the oracle's probability sum leaves its closed form; a NaN
    deviation fails every check.
    """
    oracle = oracle_blocks(scenario, fixed.bra)
    transfer = fast_run(scenario, fixed.rows)
    try:
        keys, norms, overlaps, a_dev = compare_routes(oracle, transfer, fixed.fidelity_bras)
    except RouteMismatch as exc:
        raise InvariantViolation(str(exc)) from None
    labels = scenario.bell.labels
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
    # admission lets a closure defect below FAMILY_TOL through, so the sum
    # is held to its closed form, not to 1
    probability_sum = float(norms[0].sum())
    expected_sum = expected_probability_sum(scenario, fixed.gram, fixed.marginal)
    if not abs(probability_sum - expected_sum) <= tolerance:
        raise InvariantViolation(
            f"oracle probabilities sum to {probability_sum!r}, expected {expected_sum!r}"
        )
    return _RoutePass(
        keys=keys,
        probabilities=norms[0],
        fidelities=conditional_fidelities(overlaps[0], norms[0]),
        tap=tap,
        probability_sum=probability_sum,
        expected_sum=expected_sum,
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
    measured = _zipped_pass(scenario, _fixed_half(scenario), tolerance)
    probabilities = measured.probabilities
    fidelities = measured.fidelities
    tap = measured.tap
    # a tap is the only reference effect a spec sets
    tap_labels = () if spec.eavesdrop is None else tap.tap_labels
    outcomes, key_labels = len(tap.labels), 2 * len(measured.keys)
    texts = format_labels([*tap.labels, *(label for key in measured.keys for label in key), *tap_labels])
    m_texts, texts = texts[:outcomes], texts[outcomes:]
    l_texts, b_texts, tap_texts = texts[:key_labels:2], texts[1:key_labels:2], texts[key_labels:]
    p_texts, f_texts = format_numbers(probabilities), format_numbers(fidelities)

    # one write per block, joined from the rendered texts of its rows
    stream.write(",".join(TELEPORT_HEADER) + "\n")
    for l_text, b_text, p_row, f_row in zip(l_texts, b_texts, p_texts, f_texts):
        stream.write("".join(
            f"outcome,{l_text},{m_text},{b_text},{p},{f}\n"
            for m_text, p, f in zip(m_texts, p_row, f_row)
        ))
    stream.write("".join([
        *(f"p_l,{label},,,{value},\n" for label, value in zip(
            tap_texts, format_numbers(tap.probabilities.sum(axis=1)).tolist()
        )),
        *(f"p_m,,{m_text},,{value},\n" for m_text, value in zip(
            m_texts, format_numbers(probabilities.sum(axis=0)).tolist()
        )),
        f"total,,,,{format_number(measured.probability_sum)},{format_number(tap.total_fidelity)}\n",
    ]))

    summary = [
        f"teleport: n={spec.n}, input {spec.input_label}, "
        f"{len(spec.bell.labels)} Bell outcomes"
        + (
            f", tap theta={format_number(spec.eavesdrop.theta)}"
            if spec.eavesdrop is not None and spec.eavesdrop.theta is not None
            else ""
        ),
        f"records: {probabilities.size} ({int(np.isnan(fidelities).sum())} null), "
        f"probability sum {format_number(measured.probability_sum)}, "
        f"expected {format_number(measured.expected_sum)}",
        f"average output fidelity: {format_number(tap.total_fidelity)}",
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
    scenario: ScenarioConfig, theta: float, fixed: _FixedHalf, pair: np.ndarray, tolerance: float
) -> tuple[float, float, tuple[float, float], tuple[float, float, float]]:
    """Fidelity, leakage, probability sums and route deviations at one tap strength.

    The sums are the oracle's and its expected value; ``pair`` is
    `transfer_rows` of the distinguished pair.
    """
    try:
        measured = _zipped_pass(scenario, fixed, tolerance)
    except InvariantViolation as exc:
        raise InvariantViolation(f"theta={format_number(theta)}: {exc}") from None
    return (
        measured.tap.total_fidelity,
        distinguishability(scenario, pair),
        (measured.probability_sum, measured.expected_sum),
        measured.deviations,
    )


def run_sweep(
    spec: RunSpec, stream: IO[str], tolerance: float = DEFAULT_RUN_TOL
) -> list[str]:
    """Sweep the tap strength and tabulate fidelity against leakage.

    Only the tap changes from point to point, so the scenario is built and
    validated once, at the first strength, and so is every array the
    strength does not touch: `_fixed_half` and the distinguished pair's
    kernel rows.  Each point, the first included, builds its tap family
    into that scenario and runs both routes and `distinguishability` on
    those arrays.
    """
    grid = _sweep_grid(spec)
    base = build_scenario(spec, theta=grid[0])
    fixed = _fixed_half(base)
    pair = transfer_rows(base, np.array([state for _, state in spec.distinguish]))
    basis = np.asarray(spec.eavesdrop.basis)
    points = []
    for theta in grid:
        scenario = replace(base, effect_r=strength_family(spec.n, theta, basis))
        points.append(_sweep_point(scenario, theta, fixed, pair, tolerance))
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for theta, (fidelity, advantage, _, _) in zip(grid, points):
        writer.writerow(
            (format_number(theta), format_number(fidelity), format_number(advantage))
        )
    labels = " vs ".join(label for label, _ in spec.distinguish)
    (first_sum, first_expected), (last_sum, last_expected) = points[0][2], points[-1][2]
    summary = [
        f"sweep: n={spec.n}, input {spec.input_label}, "
        f"theta {format_number(grid[0])} -> {format_number(grid[-1])} in {len(grid)} steps",
        f"distinguish pair: {labels}",
        f"fidelity {format_number(points[0][0])} -> {format_number(points[-1][0])}, "
        f"leakage {format_number(points[0][1])} -> {format_number(points[-1][1])}",
        f"probability sum {format_number(first_sum)} -> {format_number(last_sum)}, "
        f"expected {format_number(first_expected)} -> {format_number(last_expected)}",
        # the largest of each deviation over the grid
        _routes_line(np.max([deviations for *_, deviations in points], axis=0), tolerance),
    ]
    return summary
