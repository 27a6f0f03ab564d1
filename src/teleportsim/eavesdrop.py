"""Reference-line tap analysis: branch operators, probabilities, leakage.

A tap on the reference is a measurement family inserted between resource
preparation and the Bell measurement.  Every question about it reduces to
the branch operators ``P(l, m)``, which act on the input alone: they are
the transfer operators of the tap, so every quantity here is a reduction
of `teleportsim.engine.transfer_kernel` over the family's outcome stack,
and no ``P(l, m)`` is built as a matrix except by `eavesdrop_operator`.
`tap_report` sums either route's ``(K, M)`` branch arrays into the tap's
``(L, M)`` cells, tap branch by Bell outcome, so the run drivers reduce
both routes they compare alike; `analyze_eavesdropping` is that reduction
over `teleportsim.engine.fast_run`.  A marginal is a sum of the
probability array over one axis.  The module also holds the paper's
projective special case (`projective_case_analysis`), the guessing
advantage between two inputs (`distinguishability`) and the sequential
decomposition check.  The probabilities predicted here must agree with
the oracle's (`teleportsim.engine.oracle_blocks`); the run drivers and
the verification suite enforce that, and verify checks that every
``P(l, m)`` is Hermitian.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# find_outcome stays importable here: perfbench/tracing.py patches it by name
from .bell import Label, find_outcome  # noqa: F401
from .effects import MeasurementFamily, effect_branches
from .engine import (
    ScenarioConfig,
    conditional_fidelities,
    fast_run,
    fidelity_bras,
    mirror_effect,
    reduce_stream,
    transfer_kernel,
    transfer_operator,
    transfer_rows,
)
from .linalg import apply_each_inverse, dagger, frozen_complex_array, norms_squared


@dataclass(frozen=True, eq=False)
class EavesdropReport:
    """Full tap analysis for one scenario, one row per tap branch.

    ``probabilities[l, m]`` is the probability of cell ``(tap_labels[l],
    labels[m])`` and ``fidelities[l, m]`` its conditional fidelity, NaN on a
    cell that never fires.  A receiver effect is summed out of each cell:
    the probability adds up its branches and the fidelity is that of the
    mixed conditional output.
    """

    tap_labels: tuple[int | str | None, ...]
    labels: tuple[Label, ...]
    probabilities: np.ndarray  # (L, M)
    fidelities: np.ndarray  # (L, M)
    total_fidelity: float


@dataclass(frozen=True)
class DecompositionReport:
    """Deviations of the two receiver-state decompositions from ``1/dim``."""

    branch_deviation: float
    grouped_deviation: float


@dataclass(frozen=True, eq=False)
class ProjectiveReport:
    """Projective-tap reduction: eigenstates, observables, probabilities."""

    mirror_eigenstates: np.ndarray  # columns indexed by branch
    observables: dict[Label, np.ndarray]
    probabilities: dict[tuple[int | str, Label], float]


def _tap_family(config: ScenarioConfig) -> MeasurementFamily:
    if not isinstance(config.effect_r, MeasurementFamily):
        raise ValueError("scenario has no measurement family on the reference line")
    return config.effect_r


def eavesdrop_operator(config: ScenarioConfig, l: int | str, m: Label) -> np.ndarray:
    """Branch operator ``P(l, m)``: the transfer operator of the tap alone."""
    _tap_family(config)
    return transfer_operator(replace(config, effect_b=None), m, l=l)


def expected_marginal_l(config: ScenarioConfig) -> dict[int | str, float]:
    """Closed-form tap marginal ``tr(E(l)^2) / dim``."""
    family = _tap_family(config)
    return {
        b.label: float(np.trace(np.asarray(b.matrix) @ np.asarray(b.matrix)).real) / config.dim
        for b in family.branches
    }


def tap_report(
    config: ScenarioConfig, probabilities: np.ndarray, overlaps_sq: np.ndarray
) -> EavesdropReport:
    """Reduce one route's ``(K, M)`` branch arrays to the tap report.

    ``probabilities`` and ``overlaps_sq`` hold the squared norms and
    `teleportsim.engine.overlaps_squared` of the blocks of either route,
    one row per reference and receiver branch pair in stream order.  Each
    ``(l, m)`` cell sums its receiver branches.  The reference effect may
    be any effect, not only a tap: each branch label is one row.
    """
    tap_labels = tuple(label for label, _ in effect_branches(config.effect_r, config.dim))
    shape = (len(tap_labels), -1, probabilities.shape[-1])
    cells = probabilities.reshape(shape).sum(axis=1)
    overlaps = overlaps_sq.reshape(shape).sum(axis=1)
    fidelities = conditional_fidelities(overlaps, cells)
    cells.setflags(write=False)
    fidelities.setflags(write=False)
    return EavesdropReport(
        tap_labels=tap_labels,
        labels=config.bell.labels,
        probabilities=cells,
        fidelities=fidelities,
        # a sequential sum in table order, the same on both routes: numpy's
        # pairwise summation would move the last digits the CSVs print
        total_fidelity=float(np.cumsum(overlaps)[-1]),
    )


def analyze_eavesdropping(config: ScenarioConfig) -> EavesdropReport:
    """Build the full per-branch report for one tapped scenario: `tap_report` over `fast_run`."""
    _tap_family(config)
    psi = np.asarray(config.input_state)
    blocks = fast_run(config, transfer_rows(config, psi[None]))
    return tap_report(config, *reduce_stream(blocks, fidelity_bras(psi, config.bell.unitaries)))


def sequential_decomposition_check(config: ScenarioConfig) -> DecompositionReport:
    """Deviation of both unconditional receiver-state decompositions.

    The branch form sums ``U(m)^-1 P |psi><psi| P^+ U(m)`` over every
    ``(l, m)``; the grouped form first averages the Bell outcomes away and
    sandwiches ``1/dim`` between the mirrored tap operators.  Both must
    return the maximally mixed state; otherwise the tap would signal.
    """
    family = _tap_family(config)
    dim = config.dim
    psi = np.asarray(config.input_state)
    u0 = np.asarray(config.u0)
    target = np.eye(dim) / dim
    branch_sum = np.zeros((dim, dim), dtype=complex)
    for _, _, amps in transfer_kernel(replace(config, effect_b=None), transfer_rows(config, psi[None])):
        vecs = amps[:, 0]
        branch_sum += vecs.T @ vecs.conj()
    grouped_sum = np.zeros((dim, dim), dtype=complex)
    for branch in family.branches:
        mirrored = mirror_effect(u0, branch.matrix)
        grouped_sum += mirrored @ target @ mirrored
    return DecompositionReport(
        branch_deviation=float(np.max(np.abs(branch_sum - target))),
        grouped_deviation=float(np.max(np.abs(grouped_sum - target))),
    )


def projective_case_analysis(config: ScenarioConfig) -> ProjectiveReport:
    """Specialize the tap to rank-one projectors.

    Each branch must satisfy ``E^2 = E`` with unit trace; the tap then
    amounts to measuring, per Bell outcome ``m``, the receiver observable
    ``U(m) L U(m)^-1`` where ``L`` has the mirrored eigenstates.  Joint
    probabilities reduce to squared overlaps with those eigenstates.
    """
    family = _tap_family(config)
    dim = config.dim
    psi = np.asarray(config.input_state)
    u0 = np.asarray(config.u0)
    eigenstates = np.zeros((dim, dim), dtype=complex)
    for column, branch in enumerate(family.branches):
        mat = np.asarray(branch.matrix)
        idempotency = float(np.max(np.abs(mat @ mat - mat)))
        trace = float(np.trace(mat).real)
        if idempotency > 1e-9 or abs(trace - 1.0) > 1e-9:
            raise ValueError(
                f"branch {branch.label!r} is not a rank-one projector "
                f"(idempotency {idempotency:.3e}, trace {trace:.6f})"
            )
        # the projector's range vector, phase-anchored on its largest entry
        eigvals, eigvecs = np.linalg.eigh((mat + mat.conj().T) / 2)
        vec = eigvecs[:, int(np.argmax(eigvals))]
        mirrored_vec = (dagger(u0) @ vec).conj()
        anchor = int(np.argmax(np.abs(mirrored_vec)))
        phase = mirrored_vec[anchor] / abs(mirrored_vec[anchor])
        eigenstates[:, column] = mirrored_vec / phase
    weights = np.arange(dim, dtype=float)
    base_observable = (eigenstates * weights) @ eigenstates.conj().T
    bell = config.bell
    stacked = bell.unitaries @ base_observable @ bell.unitaries.conj().transpose(0, 2, 1)
    stacked.setflags(write=False)
    # overlaps[m, l] = <e_l| U(m)^-1 psi>
    overlaps = apply_each_inverse(bell.unitaries, psi) @ eigenstates.conj()
    cell_probabilities = (bell.weights / dim**2)[:, None] * np.abs(overlaps) ** 2
    observables: dict[Label, np.ndarray] = {}
    probabilities: dict[tuple[int | str, Label], float] = {}
    for label, observable, row in zip(bell.labels, stacked, cell_probabilities.tolist()):
        observables[label] = observable
        for branch, probability in zip(family.branches, row):
            probabilities[(branch.label, label)] = probability
    return ProjectiveReport(
        mirror_eigenstates=frozen_complex_array(eigenstates),
        observables=observables,
        probabilities=probabilities,
    )


def distinguishability(config: ScenarioConfig, rows: np.ndarray) -> float:
    """Leakage between two candidate inputs, as guessing advantage.

    ``rows`` is `teleportsim.engine.transfer_rows` of the ``(2, n)`` pair
    of inputs; it reads no effect, so a sweep builds it once for every
    tap strength.  The advantage over a fair coin when identifying which
    of two equiprobable inputs produced one joint ``(l, m)`` sample: half
    the total-variation distance between the probability tables of
    ``|P(l, m) psi|^2``.  A receiver effect closes over its branches and
    leaves these cell probabilities unchanged.
    """
    _tap_family(config)
    # row (l, m) holds the cell probability of each input, tap label major
    tap = replace(config, effect_b=None)
    cells = np.concatenate([norms_squared(amps) for _, _, amps in transfer_kernel(tap, rows)])
    return 0.25 * float(np.sum(np.abs(cells[:, 0] - cells[:, 1])))
