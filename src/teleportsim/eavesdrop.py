"""Reference-line tap analysis: branch operators, probabilities, leakage.

A tap on the reference is a measurement family inserted between resource
preparation and the Bell measurement.  Every question about it reduces to
the branch operators ``P(l, m)``, which act on the input alone: they are
the transfer operators of the tap, so every quantity here is a reduction
of `teleportsim.engine.transfer_kernel` over the family's outcome stack,
and no ``P(l, m)`` is built as a matrix except by `eavesdrop_operator`.
`TapTally` folds the transfer route's blocks into ``(L, M)`` cells, tap
branch by Bell outcome, one block at a time, so the run drivers tally the
stream they already compare with the oracle; `analyze_eavesdropping` is
that fold over `teleportsim.engine.fast_run`.  A marginal is a sum of the
probability array over one axis.  The module also holds the paper's
projective special case (`projective_case_analysis`), the guessing
advantage between two inputs (`distinguishability`, reduced by
`guessing_advantage`) and the sequential decomposition check.  The
probabilities predicted here must agree with the oracle's
(`teleportsim.engine.oracle_blocks`); the run drivers and the
verification suite enforce that, and verify checks that every
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
    mirror_effect,
    overlaps_squared,
    transfer_kernel,
    transfer_operator,
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


class TapTally:
    """The tap report folded over transfer blocks, one block at a time.

    `add` takes the ``(M, n)`` block of reference branch ``l`` that
    `teleportsim.engine.fast_run` yields for the scenario's input and adds
    its share to the ``(l, m)`` cells; `report` reads the sums and ends the
    fold.  The reference effect may be any effect, not only a tap: each
    branch label is one row.  With a receiver effect ``F_b`` every cell
    sums its branches ``T = U(m) F_b U(m)^-1 P(l, m)``, the operators the
    oracle applies.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        bell = config.bell
        self.tap_labels = tuple(label for label, _ in effect_branches(config.effect_r, config.dim))
        self.labels = tuple(o.label for o in bell.outcomes)
        self._rows = {label: row for row, label in enumerate(self.tap_labels)}
        # <psi| T psi> = <U(m)^-1 psi| U(m)^-1 T psi>, the kernel's row m
        self._bras = apply_each_inverse(bell.unitaries, np.asarray(config.input_state)).conj()
        self._probabilities = np.zeros((len(self.tap_labels), len(self.labels)))
        self._overlaps_sq = np.zeros_like(self._probabilities)

    def add(self, l: int | str | None, block: np.ndarray) -> None:
        row = self._rows[l]
        self._probabilities[row] += norms_squared(block)
        self._overlaps_sq[row] += overlaps_squared(block, self._bras)

    def report(self) -> EavesdropReport:
        probabilities = self._probabilities  # read-only from here: the fold ends
        fidelities = conditional_fidelities(self._overlaps_sq, probabilities)
        probabilities.setflags(write=False)
        fidelities.setflags(write=False)
        return EavesdropReport(
            tap_labels=self.tap_labels,
            labels=self.labels,
            probabilities=probabilities,
            fidelities=fidelities,
            # a sequential sum in table order: the sweep CSV prints this value,
            # and numpy's pairwise summation would move its last digits
            total_fidelity=float(np.cumsum(self._overlaps_sq)[-1]),
        )


def analyze_eavesdropping(config: ScenarioConfig) -> EavesdropReport:
    """Build the full per-branch report for one tapped scenario: `TapTally` over `fast_run`."""
    _tap_family(config)
    tally = TapTally(config)
    for (l, _), block in fast_run(config):
        tally.add(l, block)
    return tally.report()


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
    for _, _, amps in transfer_kernel(config, psi[None], receiver=False):
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
    for outcome, observable, row in zip(bell.outcomes, stacked, cell_probabilities.tolist()):
        observables[outcome.label] = observable
        for branch, probability in zip(family.branches, row):
            probabilities[(branch.label, outcome.label)] = probability
    return ProjectiveReport(
        mirror_eigenstates=frozen_complex_array(eigenstates),
        observables=observables,
        probabilities=probabilities,
    )


def distinguishability(config: ScenarioConfig, first: np.ndarray, second: np.ndarray) -> float:
    """Leakage between two candidate inputs, as guessing advantage.

    The advantage over a fair coin when identifying which of two
    equiprobable inputs produced one joint ``(l, m)`` sample: half the
    total-variation distance between the probability tables of
    ``|P(l, m) psi|^2``.  A receiver effect closes over its branches and
    leaves these cell probabilities unchanged.
    """
    _tap_family(config)
    states = np.array([first, second], dtype=complex)
    # row (l, m) holds the cell probability of each input, tap label major
    return guessing_advantage(np.concatenate(
        [norms_squared(amps) for _, _, amps in transfer_kernel(config, states, receiver=False)]
    ))


def guessing_advantage(cells: np.ndarray) -> float:
    """Half the total-variation distance between two inputs' cell tables.

    ``cells[..., k]`` holds every ``(l, m)`` cell probability of input
    ``k``, in one order for both inputs.
    """
    tables = cells.reshape(-1, 2).T
    return 0.25 * float(np.sum(np.abs(tables[0] - tables[1])))
