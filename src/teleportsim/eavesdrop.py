"""Reference-line tap analysis: branch operators, probabilities, leakage.

A tap on the reference is a measurement family inserted between resource
preparation and the Bell measurement.  Every question about it reduces to
the branch operators ``P(l, m)``, which act on the input alone: they are
the transfer operators of the tap, so every quantity here is a reduction
of `teleportsim.engine.transfer_kernel` over the family's outcome stack.
A quantity of the tap alone hands the kernel the tap's
`teleportsim.engine.mirror_stack` itself as its operator stack, one
operator per tap branch, so no receiver branch enters it.  The stack is
built once per scenario here; `distinguishability` takes it as a value,
so a sweep builds it once per tap strength for the point's route pass
and for it.
`tap_operators` alone builds the ``P(l, m)`` as matrices, the kernel on
the basis, for verify's Hermiticity check and, on the family cut to one
outcome, for `eavesdrop_operator`.  `tap_report` sums either route's
``(K, M)`` branch arrays into the tap's ``(L, M)`` cells, so
`teleportsim.runner.route_pass`, the one pass the run drivers and verify
read, reduces both routes it compares alike; `analyze_eavesdropping`
is that reduction over `teleportsim.engine.fast_run`.  The module also
holds the paper's projective special case (`projective_case_analysis`)
and the one receiver-state check, `sequential_decomposition_check`: no
closed effect on the reference, tap or not, moves the receiver's
unconditional state off ``1/n``.  The probabilities predicted
here must agree with the oracle's (`teleportsim.engine.oracle_blocks`);
the run drivers and the verification suite enforce that, and verify
checks that every ``P(l, m)`` is Hermitian.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .bell import BellFamily, Label, find_outcome
from .effects import MeasurementFamily
from .engine import (
    RouteMismatch,
    ScenarioConfig,
    branch_keys,
    conditional_fidelities,
    fast_run,
    mirror_stack,
    reduce_stream,
    transfer_kernel,
    transfer_rows,
)
from .linalg import apply_each_inverse, dagger, frozen_complex_array, norms_squared


@dataclass(frozen=True, eq=False)
class EavesdropReport:
    """Full tap analysis for one scenario, one row per tap branch.

    ``probabilities[l, m]`` is the probability of cell ``(tap_labels[l],
    labels[m])`` and ``overlaps[l, m]`` the sum of its branches' squared
    overlaps with the input; both are read-only.  ``fidelities[l, m]``,
    the cell's conditional fidelity (NaN on a cell that never fires), is
    divided from the two on each read, so a report whose fidelities no
    one reads never divides.  A receiver effect is summed out of each
    cell: the probability adds up its branches and the fidelity is that
    of the mixed conditional output.
    """

    tap_labels: tuple[int | str | None, ...]
    labels: tuple[Label, ...]
    probabilities: np.ndarray  # (L, M)
    overlaps: np.ndarray  # (L, M)
    total_fidelity: float

    @property
    def fidelities(self) -> np.ndarray:
        fidelities = conditional_fidelities(self.overlaps, self.probabilities)
        fidelities.setflags(write=False)
        return fidelities


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


def tap_operators(config: ScenarioConfig) -> Iterator[tuple[int | str | None, np.ndarray]]:
    """Yield ``(l, ops)`` for each tap branch, with ``ops[m]`` the ``(n, n)`` ``P(l, m)``.

    The tap's kernel on the basis gives the columns of ``U(m)^-1 P(l, m)``
    for every outcome at once; ``U(m)`` is applied to the whole stack.
    """
    rows = transfer_rows(config, np.eye(config.dim))
    for l, columns in zip(config.effect_r.labels, transfer_kernel(rows, mirror_stack(config)), strict=True):
        yield l, config.bell.unitaries @ columns.transpose(0, 2, 1)


def eavesdrop_operator(config: ScenarioConfig, l: int | str, m: Label) -> np.ndarray:
    """Branch operator ``P(l, m)``: `tap_operators` of the family cut to outcome ``m``."""
    _tap_family(config)
    bell = config.bell
    i = find_outcome(bell, m)
    cut = slice(i, i + 1)
    one = BellFamily(bell.dim, bell.labels[cut], bell.unitaries[cut], bell.weights[cut])
    for label, ops in tap_operators(replace(config, bell=one)):
        if label == l:
            return ops[0]
    raise ValueError(f"no reference branch labeled {l!r}")


def expected_marginal_l(family: MeasurementFamily) -> dict[int | str, float]:
    """Closed-form tap marginal ``tr(E(l)^2) / dim``, for any input."""
    dim = family.operators.shape[-1]
    return {
        label: float(np.trace(op @ op).real) / dim
        for label, op in zip(family.labels, family.operators)
    }


def tap_report(
    config: ScenarioConfig, probabilities: np.ndarray, overlaps_sq: np.ndarray
) -> EavesdropReport:
    """Reduce one route's ``(K, M)`` branch arrays to the tap report.

    ``probabilities`` and ``overlaps_sq`` hold the squared norms and
    `teleportsim.engine.overlaps_squared` of the blocks of either route,
    one row per reference and receiver branch pair in `branch_keys` order.  Each
    ``(l, m)`` cell sums its receiver branches.  The reference effect may
    be any effect, not only a tap: each branch label is one row.  Arrays
    with another row count than `branch_keys` has keys raise
    `RouteMismatch`: a route lost or gained a block.
    """
    keys = len(branch_keys(config))
    if len(probabilities) != keys or len(overlaps_sq) != keys:
        raise RouteMismatch(
            f"tap report: {len(probabilities)} probability and {len(overlaps_sq)} overlap rows "
            f"for {keys} branch pairs"
        )
    tap_labels = config.effect_r.labels
    shape = (len(tap_labels), -1, probabilities.shape[-1])
    cells = probabilities.reshape(shape).sum(axis=1)
    overlaps = overlaps_sq.reshape(shape).sum(axis=1)
    cells.setflags(write=False)
    overlaps.setflags(write=False)
    return EavesdropReport(
        tap_labels=tap_labels,
        labels=config.bell.labels,
        probabilities=cells,
        overlaps=overlaps,
        # a sequential sum in table order, the same on both routes: numpy's
        # pairwise summation would move the last digits the CSVs print
        total_fidelity=float(np.cumsum(overlaps)[-1]),
    )


def analyze_eavesdropping(config: ScenarioConfig) -> EavesdropReport:
    """Build the full per-branch report for one tapped scenario: `tap_report` over `fast_run`."""
    _tap_family(config)
    psi = np.asarray(config.input_state)
    blocks = fast_run(config, transfer_rows(config, psi[None]), mirror_stack(config))
    return tap_report(config, *reduce_stream(blocks, apply_each_inverse(config.bell.unitaries, psi)))


def sequential_decomposition_check(config: ScenarioConfig) -> DecompositionReport:
    """Deviation of both unconditional receiver-state decompositions from ``1/dim``.

    The branch form sums ``U(m)^-1 P |psi><psi| P^+ U(m)`` over every
    ``(l, m)``, read off `teleportsim.engine.transfer_kernel`; the grouped
    form first averages the Bell outcomes away and sandwiches ``1/dim``
    between the mirrored reference branches, ``sum_l M_l (1/dim) M_l^+``.
    Both must return the maximally mixed state whatever acts on the
    reference line, a tap, a Kraus mixture, a unitary or nothing, as long
    as it is closed and the Bell family complete; otherwise the reference
    would signal.  The receiver effect is not part of either form.
    """
    target = np.eye(config.dim) / config.dim
    mirrors = mirror_stack(config)
    rows = transfer_rows(config, np.asarray(config.input_state)[None])
    branch_sum = sum(amps[:, 0].T @ amps[:, 0].conj() for amps in transfer_kernel(rows, mirrors))
    grouped_sum = sum(mirrored @ target @ dagger(mirrored) for mirrored in mirrors)
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
    for column, (branch, mat) in enumerate(zip(family.labels, family.operators)):
        idempotency = float(np.max(np.abs(mat @ mat - mat)))
        trace = float(np.trace(mat).real)
        if idempotency > 1e-9 or abs(trace - 1.0) > 1e-9:
            raise ValueError(
                f"branch {branch!r} is not a rank-one projector "
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
        for branch, probability in zip(family.labels, row):
            probabilities[(branch, label)] = probability
    return ProjectiveReport(
        mirror_eigenstates=frozen_complex_array(eigenstates),
        observables=observables,
        probabilities=probabilities,
    )


def distinguishability(config: ScenarioConfig, rows: np.ndarray, mirrors: np.ndarray) -> float:
    """Leakage between two candidate inputs, as guessing advantage.

    ``rows`` is `teleportsim.engine.transfer_rows` of the ``(2, n)`` pair
    of inputs; it reads no effect, so a sweep builds it once for every
    tap strength; ``mirrors`` is `teleportsim.engine.mirror_stack`.  The
    advantage over a fair coin when identifying which of two equiprobable
    inputs produced one joint ``(l, m)`` sample: half the total-variation
    distance between the probability tables of ``|P(l, m) psi|^2``.  A
    receiver effect closes over its branches and leaves these cell
    probabilities unchanged.
    """
    _tap_family(config)
    # row (l, m) holds the cell probability of each input, tap label major
    cells = np.concatenate([norms_squared(amps) for amps in transfer_kernel(rows, mirrors)])
    return 0.25 * float(np.sum(np.abs(cells[:, 0] - cells[:, 1])))
