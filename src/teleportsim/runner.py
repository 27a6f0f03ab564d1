"""CSV-producing run drivers shared by the command line entry points.

Every branch is computed twice: once through the transfer kernel and once
through the full-state oracle.  Both routes, their comparison and the
tap cells live in `teleportsim.engine`: each pass that `route_passes`
yields zips the two streams once, reduces both alike to ``(K, M)``
squared norms and overlaps and measures the 2-norm amplitude deviation
of every branch, and `tap_report` sums each route's arrays into the
tap's ``(L, M)`` cells.  The pass keeps only those reductions, never a
table of blocks, and returns every deviation between the routes as a value
instead of raising, in the one named record `RoutePass.deviations`: the
run drivers here and the verification suite read the same record, and
this module holds the failure policy, `_checked_pass`, one loop that
judges each name against `RUN_TOL` in the record's order and refuses
with that name's text, and the CSV rendering.  No driver calls
`run_oracle` or `fast_run`: they are imported below for the benchmark's
tracer alone.
Every number `run_teleport` writes, and the sweep's fidelity column, is
a reduction of the oracle's arrays, and the summary ends with the worst
``amplitude``, ``probability`` and ``total-fidelity`` deviations; only
`run_teleport` divides the oracle's overlaps into per-branch
fidelities, for its CSV.  The oracle's
probability sum is held to `expected_probability_sum`, its closed form,
which admission's closure tolerance lets differ from 1; the summary
prints both.  The sweep's distinguishability column comes from the
transfer kernel alone, through `distinguishability`, and no oracle checks
it.  The drivers raise `InvariantViolation` before the first row is
written when a deviation exceeds `RUN_TOL` or a number bound for either
CSV, other than a null branch's empty fidelity, is not finite, instead
of writing a plausible-looking but wrong table.  Output is deterministic
down to the byte for a fixed spec.

What no tap strength changes is built once per run: the scenario
without a tap (input, Bell family, u0 and receiver) comes validated
from the spec, `RunSpec.scenario`, and `route_passes` builds the
oracle's bra on R and its Gram, the kernel's rows of the input, the
kets ``U(m)^-1 psi`` and the reference marginal once from it.  A sweep
hands it the grid's tap families lazily and builds the distinguished
pair's kernel rows once; each pass measures one point's scenario, whose
mirror stack (`ScenarioConfig.mirrors`) is built once and shared by the
pass and `distinguishability`.

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
from dataclasses import replace
from types import SimpleNamespace
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from .config import RunSpec
from .eavesdrop import distinguishability
from .effects import strength_family
from .engine import (
    NULL_BRANCH_EPS,
    RouteMismatch,
    RoutePass,
    ScenarioConfig,
    conditional_fidelities,
    route_passes,
    transfer_rows,
)
# fast_run, run_oracle, analyze_eavesdropping and make_scenario stay
# importable here: perfbench/tracing.py patches them by name, though the
# drivers reach both routes through `route_passes`, take the scenario from
# the spec and call none of them
from .eavesdrop import analyze_eavesdropping  # noqa: F401
from .engine import fast_run, make_scenario, run_oracle  # noqa: F401

TELEPORT_HEADER = ("record", "l", "m", "branch", "probability", "fidelity")

SWEEP_HEADER = ("theta", "total_fidelity", "distinguishability")

# how far the two routes may part on any number they both compute
RUN_TOL = 1e-10


class InvariantViolation(RuntimeError):
    """The two routes disagreed beyond `RUN_TOL`, or a number bound for a CSV is not finite."""


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


def build_scenario(spec: RunSpec) -> ScenarioConfig:
    """The spec's scenario with its tap, for a spec with at most one tap strength.

    Without a tap this is ``spec.scenario`` itself; a tap replaces its
    reference effect by the strength family and shares every other part.
    """
    if spec.eavesdrop is None:
        return spec.scenario
    if spec.eavesdrop.theta is None:
        raise ValueError("a single tap strength is required (spec carries a sweep)")
    tap = strength_family(spec.scenario.dim, spec.eavesdrop.theta, np.asarray(spec.eavesdrop.basis))
    return replace(spec.scenario, effect_r=tap)


def _branch_refusal(measured: RoutePass, k: int, m: int) -> str:
    (l, branch), deviations = measured.keys[k], measured.deviations
    return (f"routes disagree on branch (m={measured.tap.labels[m]}, l={l}, b={branch}): "
            f"probability deviation {deviations['probability'][k, m]:.3e}, "
            f"amplitude deviation {deviations['amplitude'][k, m]:.3e}")


# what a refusal says, by deviation name, from the pass and the index of the
# first entry out of bounds; admission lets a closure defect below FAMILY_TOL
# through, so the probability sum is held to its closed form, not to 1
_REFUSALS = {
    "amplitude": _branch_refusal,
    "probability": _branch_refusal,
    "cell": lambda measured, l, m: (
        f"branch operator probability deviates from oracle by {measured.deviations['cell'][l, m]:.3e} "
        f"on (l={measured.tap.tap_labels[l]}, m={measured.tap.labels[m]})"),
    "total-fidelity": lambda measured: (
        f"total fidelity routes disagree by {measured.deviations['total-fidelity']:.3e}"),
    "probability-sum": lambda measured: (
        f"oracle probabilities sum to {measured.probability_sum!r}, expected {measured.expected_sum!r}"),
}


def _checked_pass(where: str, passes: Iterator[RoutePass]) -> RoutePass:
    """The next of ``passes``, raising `InvariantViolation` led by ``where`` on the first invariant it breaks.

    A block count or shape that differs fails first.  Then each deviation
    of the record is judged in its order against `RUN_TOL`, and the first
    with an entry out of bounds fails, named at its first such entry: a
    branch fails on its amplitude before any branch fails on its
    probability.  Each check is written as "not within", so a NaN
    deviation fails it too.
    """
    try:
        measured = next(passes)
    except RouteMismatch as exc:
        raise InvariantViolation(f"{where}{exc}") from None
    for name, deviation in measured.deviations.items():
        # len, not size: the argwhere of a 0-d array has one empty row when it fails
        failing = np.argwhere(~(deviation <= RUN_TOL))
        if len(failing):
            raise InvariantViolation(where + _REFUSALS[name](measured, *failing[0]))
    return measured


def _require_finite(where: str, **columns: np.ndarray) -> None:
    """Raise `InvariantViolation` naming the first of ``columns`` that holds a non-finite number.

    Called on every number bound for a CSV before the first write, so a
    failing run writes nothing.
    """
    for name, values in columns.items():
        if not np.all(np.isfinite(values)):
            raise InvariantViolation(f"{where}{name} is not finite")


def _routes_line(records: Sequence[Mapping[str, np.ndarray]]) -> str:
    """The worst amplitude, probability and total-fidelity deviation over ``records``, by name."""
    amplitude, probability, fidelity = (
        np.max([np.max(deviations[name]) for deviations in records])
        for name in ("amplitude", "probability", "total-fidelity")
    )
    return (
        f"routes: amplitude dev {amplitude:.3e}, probability dev {probability:.3e}, "
        f"fidelity dev {fidelity:.3e} (tolerance {RUN_TOL:.1e})"
    )


def run_teleport(spec: RunSpec, stream: IO[str]) -> list[str]:
    """Run one teleportation scenario and write its CSV table.

    Returns human-readable summary lines for the caller to print.
    """
    measured = _checked_pass("", route_passes(build_scenario(spec)))
    scenario = measured.scenario
    probabilities = measured.probabilities
    tap = measured.tap
    # a tap is the only reference effect a spec sets
    tap_labels = () if spec.eavesdrop is None else tap.tap_labels
    outcomes, key_labels = len(tap.labels), 2 * len(measured.keys)
    texts = format_labels([*tap.labels, *(label for key in measured.keys for label in key), *tap_labels])
    m_texts, texts = texts[:outcomes], texts[outcomes:]
    l_texts, b_texts, tap_texts = texts[:key_labels:2], texts[1:key_labels:2], texts[key_labels:]
    # a null branch's fidelity is NaN, written as the empty field; the tap
    # and Bell marginals are sums of the probabilities
    live = probabilities >= NULL_BRANCH_EPS
    fidelities = conditional_fidelities(measured.overlaps, probabilities)
    _require_finite("", probability=np.append(probabilities, measured.probability_sum),
                    fidelity=np.append(fidelities[live], tap.total_fidelity))
    p_texts, f_texts = format_numbers(probabilities), format_numbers(fidelities)
    del fidelities  # the writer reads the texts alone

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
        f"teleport: n={scenario.dim}, input {spec.input_label}, "
        f"{len(scenario.bell.labels)} Bell outcomes"
        + (
            f", tap theta={format_number(spec.eavesdrop.theta)}"
            if spec.eavesdrop is not None and spec.eavesdrop.theta is not None
            else ""
        ),
        f"records: {probabilities.size} ({probabilities.size - np.count_nonzero(live)} null), "
        f"probability sum {format_number(measured.probability_sum)}, "
        f"expected {format_number(measured.expected_sum)}",
        f"average output fidelity: {format_number(tap.total_fidelity)}",
        _routes_line([measured.deviations]),
    ]
    return summary


def _sweep_grid(spec: RunSpec) -> list[float]:
    if spec.eavesdrop is None:
        raise ValueError("sweep requires an eavesdrop section with theta_sweep")
    if spec.eavesdrop.sweep is None:
        raise ValueError("sweep requires theta_sweep, not a single theta")
    start, stop, steps = spec.eavesdrop.sweep
    return [float(t) for t in np.linspace(start, stop, steps)]


def run_sweep(spec: RunSpec, stream: IO[str]) -> list[str]:
    """Sweep the tap strength and tabulate fidelity against leakage.

    Only the tap changes from point to point, so `route_passes` takes
    the spec's scenario and the grid's tap families, drawn lazily, and
    builds every array the strength does not touch once; the
    distinguished pair's kernel rows are built once beside them.  Each
    point's pass runs both routes on its scenario, and
    `distinguishability` reads that scenario's one mirror stack.
    """
    grid = _sweep_grid(spec)
    base = spec.scenario
    pair = transfer_rows(base, np.array([state for _, state in spec.distinguish]))
    basis = np.asarray(spec.eavesdrop.basis)
    passes = route_passes(base, (strength_family(base.dim, theta, basis) for theta in grid))
    points = []
    for theta in grid:
        where = f"theta={format_number(theta)}: "
        measured = _checked_pass(where, passes)
        advantage = distinguishability(pair, measured.scenario.mirrors)
        _require_finite(where, total_fidelity=measured.tap.total_fidelity, distinguishability=advantage)
        # a point keeps its scalars alone, the worst of each deviation: the
        # passes' (K, M) arrays would pile up over the grid
        points.append((measured.tap.total_fidelity, advantage, measured.probability_sum, measured.expected_sum,
                       {name: np.max(deviation) for name, deviation in measured.deviations.items()}))
        del measured  # it holds its scenario's mirror stack: dropped before the next point's pass
    fidelities, advantages, sums, expected_sums, deviations = zip(*points)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    writer.writerows(map(format_number, row) for row in zip(grid, fidelities, advantages))
    labels = " vs ".join(label for label, _ in spec.distinguish)
    return [
        f"sweep: n={base.dim}, input {spec.input_label}, theta {_ends(grid)} in {len(grid)} steps",
        f"distinguish pair: {labels}",
        f"fidelity {_ends(fidelities)}, leakage {_ends(advantages)}",
        f"probability sum {_ends(sums)}, expected {_ends(expected_sums)}",
        _routes_line(deviations),
    ]


def _ends(values: Sequence[float]) -> str:
    """The first and the last of ``values`` as a summary writes them, ``first -> last``."""
    return f"{format_number(values[0])} -> {format_number(values[-1])}"
