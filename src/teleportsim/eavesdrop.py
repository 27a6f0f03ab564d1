"""Reference-line tap analysis: branch operators, probabilities, leakage.

A tap on the reference is a measurement family inserted between resource
preparation and the Bell measurement.  Every question about it reduces to
the branch operators ``P(l, m)``, which act on the input alone.  They are
built in blocks of ``dim`` Bell outcomes from the family's outcome stack,
so one block is as large as the oracle's full A x R x B state.  The
probabilities predicted here must agree with the oracle records produced
by `teleportsim.engine.run_oracle`; the verification suite enforces that.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bell import BellOutcome, Label, find_outcome
from .effects import MeasurementFamily, effect_branches
from .engine import NULL_BRANCH_EPS, ScenarioConfig, mirror_effect
from .linalg import apply_each, apply_each_inverse, dagger, frozen_complex_array, norms_squared


@dataclass(frozen=True, eq=False, slots=True)
class EavesdropEntry:
    """One ``(l, m)`` cell: probability and conditional fidelity.

    A receiver effect is summed out of the cell: the probability adds up
    its branches and the fidelity is that of the mixed conditional output.
    ``fidelity`` is ``None`` on a branch that never fires; there is no
    state there to compare with.  ``hermiticity_deviation`` is that of
    ``P(l, m)`` itself.
    """

    l: int | str
    m: Label
    probability: float
    fidelity: float | None
    hermiticity_deviation: float


@dataclass(frozen=True, eq=False)
class EavesdropReport:
    """Full tap analysis for one scenario."""

    entries: tuple[EavesdropEntry, ...]
    p_l: dict[int | str, float]
    p_m: dict[Label, float]
    total_fidelity: float
    max_hermiticity_deviation: float


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


def _branch_operator(dim: int, outcome: BellOutcome, mirrored: np.ndarray) -> np.ndarray:
    u_m = np.asarray(outcome.unitary)
    return (np.sqrt(outcome.weight) / dim) * (u_m @ mirrored @ dagger(u_m))


def _branch_blocks(config: ScenarioConfig) -> Iterator[tuple[int | str, slice, np.ndarray]]:
    """Yield ``(l, outcomes, P)``: the stack ``P(l, m)`` for the Bell outcomes
    in the slice ``outcomes``, at most ``dim`` of them, tap label major.

    Each tap branch is mirrored once and reused across all Bell outcomes.
    """
    family = _tap_family(config)
    dim = config.dim
    unitaries = config.bell.unitaries
    scales = np.sqrt(config.bell.weights) / dim
    u0 = np.asarray(config.u0)
    for branch in family.branches:
        mirrored = mirror_effect(u0, branch.matrix)
        for start in range(0, len(unitaries), dim):
            cells = slice(start, start + dim)
            u_m = unitaries[cells]
            # U(m) times the mirrored branch as one product over all stacked rows
            left = (u_m.reshape(-1, dim) @ mirrored).reshape(u_m.shape)
            block = left @ u_m.conj().transpose(0, 2, 1)
            block *= scales[cells, None, None]
            yield branch.label, cells, block


def eavesdrop_operator(config: ScenarioConfig, l: int | str, m: Label) -> np.ndarray:
    """Branch operator ``sqrt(w)/dim U(m) (u0^-1 E(l) u0)^T U(m)^-1``."""
    family = _tap_family(config)
    branch = next((b for b in family.branches if b.label == l), None)
    if branch is None:
        raise ValueError(f"no tap branch labeled {l!r}")
    mirrored = mirror_effect(np.asarray(config.u0), branch.matrix)
    return _branch_operator(config.dim, find_outcome(config.bell, m), mirrored)


def expected_marginal_l(config: ScenarioConfig) -> dict[int | str, float]:
    """Closed-form tap marginal ``tr(E(l)^2) / dim``."""
    family = _tap_family(config)
    return {
        b.label: float(np.trace(np.asarray(b.matrix) @ np.asarray(b.matrix)).real) / config.dim
        for b in family.branches
    }


def analyze_eavesdropping(config: ScenarioConfig) -> EavesdropReport:
    """Build the full per-branch report for one tapped scenario.

    With a receiver effect ``F_b`` every cell sums its branches
    ``T = U(m) F_b U(m)^-1 P(l, m)``, the operators the oracle applies.
    """
    family = _tap_family(config)
    psi = np.asarray(config.input_state)
    outcomes = config.bell.outcomes
    receiver = None
    if config.effect_b is not None:
        receiver = [f_b for _, f_b in effect_branches(config.effect_b, config.dim)]
    entries: list[EavesdropEntry] = []
    p_l: dict[int | str, float] = {b.label: 0.0 for b in family.branches}
    p_m = np.zeros(len(outcomes))
    fid_total = 0.0
    for l, cells, block in _branch_blocks(config):
        herm = np.max(np.abs(block - block.conj().transpose(0, 2, 1)), axis=(1, 2))
        amps = block @ psi
        if receiver is None:
            # T = P: the direct product keeps the arithmetic of a tap alone
            probabilities = norms_squared(amps)
            overlaps_sq = np.abs(amps @ psi.conj()) ** 2
        else:
            u_m = config.bell.unitaries[cells]
            inner = apply_each_inverse(u_m, amps)
            probabilities = np.zeros(len(block))
            overlaps_sq = np.zeros(len(block))
            for f_b in receiver:
                out = apply_each(u_m, inner @ f_b.T)
                probabilities += norms_squared(out)
                overlaps_sq += np.abs(out @ psi.conj()) ** 2
        p_m[cells] += probabilities
        for outcome, probability, overlap_sq, herm_dev in zip(
            outcomes[cells], probabilities.tolist(), overlaps_sq.tolist(), herm.tolist()
        ):
            fid_total += overlap_sq
            p_l[l] += probability
            entries.append(
                EavesdropEntry(
                    l=l,
                    m=outcome.label,
                    probability=probability,
                    fidelity=None if probability < NULL_BRANCH_EPS else overlap_sq / probability,
                    hermiticity_deviation=herm_dev,
                )
            )
    return EavesdropReport(
        entries=tuple(entries),
        p_l=p_l,
        p_m={o.label: p for o, p in zip(outcomes, p_m.tolist())},
        total_fidelity=fid_total,
        max_hermiticity_deviation=max((e.hermiticity_deviation for e in entries), default=0.0),
    )


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
    for _, cells, block in _branch_blocks(config):
        vecs = apply_each_inverse(config.bell.unitaries[cells], block @ psi)
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


def distinguishability(config: ScenarioConfig, inputs: list[np.ndarray]) -> np.ndarray:
    """Pairwise leakage between candidate inputs, as guessing advantage.

    Entry ``(i, j)`` is the advantage over a fair coin when identifying
    which of two equiprobable inputs produced one joint ``(l, m)`` sample:
    half the total-variation distance between the probability tables of
    ``|P(l, m) psi|^2``.  A receiver effect closes over its branches and
    leaves these cell probabilities unchanged.
    """
    if len(inputs) < 2:
        raise ValueError("need at least two candidate inputs to compare")
    states = [np.array(state, dtype=complex) for state in inputs]
    columns = [
        [norms_squared(block @ state) for state in states] for _, _, block in _branch_blocks(config)
    ]
    tables = np.concatenate(columns, axis=1)
    count = len(tables)
    out = np.zeros((count, count))
    for i in range(count):
        for j in range(i + 1, count):
            advantage = 0.25 * float(np.sum(np.abs(tables[i] - tables[j])))
            out[i, j] = out[j, i] = advantage
    return out
