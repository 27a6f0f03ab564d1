"""Teleportation engine: exact tripartite evolution and its operator shortcut.

Two independent routes produce every conditional output.  `run_oracle`
evolves the full A x R x B state and projects each Bell outcome; it is
the ground truth and stays within the design envelope (dim <= 32, so at
most 32**3 amplitudes).  `fast_run` applies the per-outcome transfer
operator on the input alone, through `transfer_kernel`, which also feeds
every tap quantity in `teleportsim.eavesdrop`.  Both batch every Bell
outcome of an effect branch pair into one product over the family's
outcome stack, and both return a `BranchTable` of those ``(M, n)``
blocks, corrected over the whole table at once; `route_deviations`
compares two tables for every caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# bell_outcome_state stays importable here: perfbench/tracing.py patches it by name
from .bell import (  # noqa: F401
    BellFamily, Label, bell_outcome_state, find_outcome, make_bell_family, outcome_state_stack
)
from .effects import EffectOperator, MeasurementFamily, effect_branches
from .linalg import (
    apply_each_inverse,
    as_complex_matrix,
    as_pure_state,
    dagger,
    frozen_complex_array,
    is_unitary,
    norms_squared,
    transpose_in_basis,
)

NULL_BRANCH_EPS = 1e-14

EffectSpec = EffectOperator | MeasurementFamily | Sequence[EffectOperator] | None

BranchLabel = int | str | None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One teleportation scenario, fully specified.

    ``effect_r`` disturbs the reference line between resource preparation
    and the Bell measurement; ``effect_b`` disturbs the receiver line.
    With ``apply_correction`` the receiver undoes the outcome unitary, so
    an undisturbed scenario returns the input exactly.
    """

    dim: int
    input_state: np.ndarray
    bell: BellFamily
    u0: np.ndarray
    effect_r: EffectSpec = None
    effect_b: EffectSpec = None
    apply_correction: bool = True


@dataclass(frozen=True, eq=False, slots=True)
class TeleportRecord:
    """One conditional branch: labels, probability and output amplitudes.

    ``raw_output`` keeps the unnormalized amplitudes (norm^2 equals the
    probability).  ``output`` is the normalized state, or ``None`` for a
    branch whose probability is numerically zero; such branches are kept
    so probability tables stay complete.
    """

    m: Label
    l: BranchLabel
    branch: BranchLabel
    probability: float
    raw_output: np.ndarray

    @property
    def output(self) -> np.ndarray | None:
        # normalized on access, so a record holds one amplitude vector
        if self.probability < NULL_BRANCH_EPS:
            return None
        output = self.raw_output / np.sqrt(self.probability)
        output.setflags(write=False)
        return output


@dataclass(frozen=True, eq=False)
class BranchTable:
    """Every conditional branch of one route, one block per effect branch pair.

    Block ``k`` holds reference and receiver branches ``keys[k]``: the
    read-only ``amplitudes[k, j]`` is the unnormalized output of Bell outcome
    ``labels[j]``, and ``probabilities[k, j]`` its squared norm.  Iteration
    builds one `TeleportRecord` per branch on demand, in the same order.
    """

    keys: tuple[tuple[BranchLabel, BranchLabel], ...]
    labels: tuple[Label, ...]
    amplitudes: np.ndarray  # (K, M, n)
    probabilities: np.ndarray  # (K, M)

    def __len__(self) -> int:
        return self.probabilities.size

    def __iter__(self) -> Iterator[TeleportRecord]:
        for (l, branch), block, row in zip(self.keys, self.amplitudes, self.probabilities.tolist()):
            for m, probability, raw in zip(self.labels, row, block):
                yield TeleportRecord(m=m, l=l, branch=branch, probability=probability, raw_output=raw)

    def fidelities(self, state: np.ndarray) -> np.ndarray:
        """``|<state|output>|^2`` of every branch, NaN where the branch is null."""
        overlaps = np.abs(self.amplitudes @ np.conj(state)) ** 2
        live = self.probabilities >= NULL_BRANCH_EPS
        return np.divide(overlaps, self.probabilities, out=np.full(live.shape, np.nan), where=live)


def make_scenario(
    dim: int,
    input_state: np.ndarray,
    bell: BellFamily | None = None,
    u0: np.ndarray | None = None,
    effect_r: EffectSpec = None,
    effect_b: EffectSpec = None,
    apply_correction: bool = True,
) -> ScenarioConfig:
    """Validate and assemble a scenario; every part must share ``dim``."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    state = as_pure_state(input_state)
    if state.shape[0] != dim:
        raise ValueError(f"input state dimension {state.shape[0]} does not match {dim}")
    if bell is None:
        bell = make_bell_family(dim)
    elif bell.dim != dim:
        raise ValueError(f"Bell family dimension {bell.dim} does not match {dim}")
    if u0 is None:
        u0 = np.eye(dim, dtype=complex)
    u0 = as_complex_matrix(u0)
    if u0.shape != (dim, dim):
        raise ValueError(f"u0 shape {u0.shape} does not match dimension {dim}")
    if not is_unitary(u0):
        raise ValueError("u0 must be unitary")
    # expansion validates shapes and closure of both effect specifications
    effect_branches(effect_r, dim)
    effect_branches(effect_b, dim)
    return ScenarioConfig(
        dim=dim,
        input_state=frozen_complex_array(state),
        bell=bell,
        u0=frozen_complex_array(u0),
        effect_r=effect_r,
        effect_b=effect_b,
        apply_correction=apply_correction,
    )


def mirror_effect(u0: np.ndarray, effect: np.ndarray) -> np.ndarray:
    """Reference effect moved onto the input: ``(u0^-1 E u0)^T``."""
    return transpose_in_basis(dagger(u0) @ effect @ u0)


def run_oracle(config: ScenarioConfig) -> BranchTable:
    """Evolve the full tripartite state and project every Bell outcome."""
    return _table(config, _oracle_blocks(config))


def _oracle_blocks(config: ScenarioConfig) -> Iterator[np.ndarray]:
    dim = config.dim
    psi = np.asarray(config.input_state)
    bell = config.bell
    u0 = np.asarray(config.u0)
    resource_mat = u0 / np.sqrt(dim)  # R x B amplitudes as a matrix
    # row m holds <P(m)| over the A x R index, A slow
    bras = outcome_state_stack(bell, u0)
    np.conj(bras, out=bras)
    for _, e_r in effect_branches(config.effect_r, dim):
        for _, f_b in effect_branches(config.effect_b, dim):
            # (E_R (x) F_B) acting on the resource, still as an R x B matrix
            disturbed = e_r @ resource_mat @ f_b.T
            yield bras @ np.kron(psi, disturbed.reshape(-1)).reshape(dim * dim, dim)


def transfer_operator(
    config: ScenarioConfig,
    m: Label,
    l: BranchLabel = None,
    branch: BranchLabel = None,
) -> np.ndarray:
    """Conditional output operator for Bell outcome ``m``.

    Equals ``sqrt(w)/dim U(m) F_B (u0^-1 E_R u0)^T U(m)^-1``; applied to
    the input it reproduces the corrected oracle amplitudes exactly.  The
    reference effect enters through its mirror transpose even though it
    may act after the receiver effect in lab time.
    """
    dim = config.dim
    outcome = find_outcome(config.bell, m)
    e_r = _select_branch(config.effect_r, l, dim, "reference")
    f_b = _select_branch(config.effect_b, branch, dim, "receiver")
    u_m = np.asarray(outcome.unitary)
    mirrored = mirror_effect(np.asarray(config.u0), e_r)
    return (np.sqrt(outcome.weight) / dim) * (u_m @ f_b @ mirrored @ dagger(u_m))


def transfer_kernel(
    config: ScenarioConfig, inputs: np.ndarray, receiver: bool = True
) -> Iterator[tuple[BranchLabel, BranchLabel, np.ndarray]]:
    """Yield ``(l, b, amps)`` for every reference and receiver branch pair.

    ``amps[m, k]`` is ``sqrt(w)/dim F_b (u0^-1 E_l u0)^T U(m)^-1`` applied
    to ``inputs[k]``: the transfer operator of outcome ``m`` short of its
    leading ``U(m)``, which a caller applies when it corrects.  With
    ``receiver=False`` the receiver effect is left out, so the rows are
    ``U(m)^-1 P(l, m)`` applied to each input, for the tap alone.  Order is
    reference branch, then receiver branch, as in `run_oracle`.
    """
    dim = config.dim
    bell = config.bell
    inputs = np.asarray(inputs)
    # row (m, k) is sqrt(w)/dim U(m)^-1 inputs[k]
    back = np.conj(inputs.conj() @ bell.unitaries)
    back *= (np.sqrt(bell.weights) / dim)[:, None, None]
    rows = back.reshape(-1, dim)
    receivers = effect_branches(config.effect_b if receiver else None, dim)
    for l_label, e_r in effect_branches(config.effect_r, dim):
        mirrored = mirror_effect(np.asarray(config.u0), e_r)
        for b_label, f_b in receivers:
            yield l_label, b_label, (rows @ (f_b @ mirrored).T).reshape(back.shape)


def fast_run(config: ScenarioConfig) -> BranchTable:
    """Produce the same table as `run_oracle` via the transfer kernel."""
    blocks = transfer_kernel(config, np.asarray(config.input_state)[None])
    return _table(config, (amps[:, 0] for _, _, amps in blocks))


def route_deviations(first: BranchTable, second: BranchTable) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-branch ``(K, M)`` probability and largest amplitude deviations.

    ``None`` when the tables differ in keys, labels or shape.
    """
    layout = (first.keys, first.labels, first.amplitudes.shape)
    if layout != (second.keys, second.labels, second.amplitudes.shape):
        return None
    amplitude = np.empty(first.probabilities.shape)
    # block by block, so no (K, M, n) difference is ever held
    for block, (a, b) in enumerate(zip(first.amplitudes, second.amplitudes)):
        np.max(np.abs(a - b), axis=1, out=amplitude[block])
    return np.abs(first.probabilities - second.probabilities), amplitude


def ideal_decomposition_check(config: ScenarioConfig) -> float:
    """Deviation of ``sum_m (w/dim^2) U(m)^-1 |psi><psi| U(m)`` from ``1/dim``.

    This is the unconditional receiver state before any correction; for a
    complete family it is maximally mixed whatever the input, which is what
    forbids signalling through the resource alone.
    """
    dim = config.dim
    bell = config.bell
    back = apply_each_inverse(bell.unitaries, np.asarray(config.input_state))
    total = (back.T * (bell.weights / dim**2)) @ back.conj()
    return float(np.max(np.abs(total - np.eye(dim) / dim)))


def _table(config: ScenarioConfig, blocks: Iterable[np.ndarray]) -> BranchTable:
    """Fill a table in place, one ``(M, n)`` block per branch pair, correcting if asked."""
    bell = config.bell
    dim = config.dim
    keys = tuple(
        (l_label, b_label)
        for l_label, _ in effect_branches(config.effect_r, dim)
        for b_label, _ in effect_branches(config.effect_b, dim)
    )
    amplitudes = np.empty((len(keys), len(bell.outcomes), dim), dtype=complex)
    for block, amps in enumerate(blocks):
        amplitudes[block] = amps
    if config.apply_correction:
        # U(m) on column m of every block: one (K, n) @ (n, n)^T product per
        # outcome, dim outcomes at a time, so a temporary holds dim of the M
        # columns and never a second table
        for start in range(0, len(bell.outcomes), dim):
            part = amplitudes[:, start : start + dim]
            turned = bell.unitaries[start : start + dim].transpose(0, 2, 1)
            part[...] = (part.transpose(1, 0, 2) @ turned).transpose(1, 0, 2)
    probabilities = np.empty(amplitudes.shape[:2])
    # block by block: a whole-table norms_squared would copy the table once more
    for block, amps in enumerate(amplitudes):
        probabilities[block] = norms_squared(amps)
    amplitudes.setflags(write=False)
    probabilities.setflags(write=False)
    return BranchTable(keys, tuple(o.label for o in bell.outcomes), amplitudes, probabilities)


def _select_branch(effect: EffectSpec, label: BranchLabel, dim: int, side: str) -> np.ndarray:
    branches = effect_branches(effect, dim)
    if label is None:
        if len(branches) != 1:
            raise ValueError(f"{side} effect has {len(branches)} branches; a label is required")
        return branches[0][1]
    for have, mat in branches:
        if have == label:
            return mat
    raise ValueError(f"no {side} branch labeled {label!r}")
