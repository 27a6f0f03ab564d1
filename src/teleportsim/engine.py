"""Teleportation engine: exact tripartite evolution and its operator shortcut.

Two independent routes produce every conditional output, each as a
stream of ``((l, b), block)`` pairs in the same key order, one ``(M, n)``
block of every Bell outcome's output before the receiver's correction
``U(m)`` per reference and receiver branch pair.  `oracle_blocks` projects
each Bell outcome on the A x R x B state
``psi_A (x) (E_R (x) F_B)|Phi>_RB``; it is the ground truth and shares no
transfer algebra.  That state is a product across A | RB, so the Bell
bras are built `_BRA_CHUNK` outcomes at a time and contracted with the
input over the sender index into one ``(M, n)`` bra on R; each effect
branch pair is then one ``(M, n) @ (n, n)`` product with the disturbed
resource, and neither an n**3 state nor the ``(M, n**2)`` bra stack is
held.  `fast_run` applies the per-outcome transfer operator on the input
alone, through `transfer_kernel`, which also feeds every tap quantity in
`teleportsim.eavesdrop`.  `compare_routes` zips the two streams and
reduces both alike, block by block, so a caller that consumes both holds
a few blocks and its ``(K, M)`` reductions, never a table; streams that
part raise `RouteMismatch`.  `run_oracle` collects the oracle stream into
a `BranchTable`, which corrects on read, for callers that want every
block at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator, Sequence

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

# Bell outcomes whose bras `oracle_blocks` builds at once: at n = 32 a chunk
# of the (M, n**2) stack takes 1 MB where the whole stack would take 16 MB,
# and a family of at most 64 outcomes (every Weyl family up to n = 8) takes
# one chunk
_BRA_CHUNK = 64

EffectSpec = EffectOperator | MeasurementFamily | Sequence[EffectOperator] | None

BranchLabel = int | str | None

# ((l, b), block) pairs, one uncorrected (M, n) block per effect branch pair
BlockStream = Iterator[tuple[tuple[BranchLabel, BranchLabel], np.ndarray]]


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

    @property
    def corrections(self) -> np.ndarray | None:
        """The ``(M, n, n)`` outcome unitaries the receiver applies, ``None`` if it does not."""
        return self.bell.unitaries if self.apply_correction else None


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
    read-only ``blocks[k, j]`` is the unnormalized output of Bell outcome
    ``labels[j]`` before the receiver's correction, and
    ``probabilities[k, j]`` its squared norm.  ``corrections`` is the
    family's ``(M, n, n)`` stack of outcome unitaries ``U(m)`` when the
    receiver corrects, else ``None``.  The correction is applied on read:
    `fidelities` moves it onto the state, and only `amplitudes` and
    iteration build the corrected outputs, one table-sized array per read.
    """

    keys: tuple[tuple[BranchLabel, BranchLabel], ...]
    labels: tuple[Label, ...]
    blocks: np.ndarray  # (K, M, n)
    probabilities: np.ndarray  # (K, M)
    corrections: np.ndarray | None  # (M, n, n)

    def __len__(self) -> int:
        return self.probabilities.size

    def __iter__(self) -> Iterator[TeleportRecord]:
        for (l, branch), block, row in zip(self.keys, self.amplitudes, self.probabilities.tolist()):
            for m, probability, raw in zip(self.labels, row, block):
                yield TeleportRecord(m=m, l=l, branch=branch, probability=probability, raw_output=raw)

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only ``(K, M, n)`` outputs after the correction, built on each read."""
        if self.corrections is None:
            return self.blocks
        amplitudes = self.blocks.copy()
        # U(m) on column m of every block: one (K, n) @ (n, n)^T product per
        # outcome, n outcomes at a time, so a temporary holds n of the M
        # columns and never another table
        dim = amplitudes.shape[2]
        for start in range(0, amplitudes.shape[1], dim):
            part = amplitudes[:, start : start + dim]
            turned = self.corrections[start : start + dim].transpose(0, 2, 1)
            part[...] = (part.transpose(1, 0, 2) @ turned).transpose(1, 0, 2)
        amplitudes.setflags(write=False)
        return amplitudes

    def fidelities(self, state: np.ndarray) -> np.ndarray:
        """``|<state|output>|^2`` of every branch, NaN where the branch is null."""
        overlaps_sq = overlaps_squared(self.blocks, fidelity_bras(state, self.corrections))
        return conditional_fidelities(overlaps_sq, self.probabilities)


def fidelity_bras(state: np.ndarray, corrections: np.ndarray | None) -> np.ndarray:
    """The bras `overlaps_squared` contracts uncorrected outputs with.

    With ``(M, n, n)`` corrections row ``m`` is ``<U(m)^-1 state|`` as the
    conjugated vector ``state^+ U(m)``: the correction moves onto the state,
    ``<state|U(m) a> = <U(m)^-1 state|a>``, so corrected outputs are never
    built.  Without a correction it is the conjugated state alone.
    """
    if corrections is None:
        return np.conj(state)
    return np.conj(state) @ corrections


def overlaps_squared(blocks: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """``|<bra|output>|^2`` of every output in ``(..., M, n)`` blocks.

    ``bras`` is one conjugated vector for every outcome, or an ``(M, n)``
    stack with row ``m`` for outcome ``m``, as `fidelity_bras` gives them.
    """
    if bras.ndim == 1:
        overlaps = blocks @ bras
    else:
        overlaps = np.einsum("...mi,mi->...m", blocks, bras)
    return np.abs(overlaps) ** 2


def conditional_fidelities(overlaps_sq: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Squared overlaps of the normalized outputs, NaN where the branch is null."""
    live = probabilities >= NULL_BRANCH_EPS
    return np.divide(overlaps_sq, probabilities, out=np.full(live.shape, np.nan), where=live)


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
    """Evolve the full tripartite state and project every Bell outcome, as one table."""
    return _table(config, oracle_blocks(config))


def oracle_blocks(config: ScenarioConfig) -> BlockStream:
    """Stream ``((l, b), block)`` of the full-state route, in `fast_run`'s key order.

    Each ``(M, n)`` block holds the outputs before the receiver's
    correction.  The explicit Bell bras are built `_BRA_CHUNK` outcomes at
    a time and contracted with the input at once, so beyond one chunk the
    route holds its ``(M, n)`` bra on R and the block it yields.
    """
    dim = config.dim
    psi = np.asarray(config.input_state)
    bell = config.bell
    u0 = np.asarray(config.u0)
    resource_mat = u0 / np.sqrt(dim)  # R x B amplitudes as a matrix
    # psi_A (x) |resource>_RB is a product across A | RB, so the sender index
    # is contracted once: row m of relative is <P(m)|psi>_A, a bra on R
    relative = np.empty((len(bell.outcomes), dim), dtype=complex)
    for start in range(0, len(bell.outcomes), _BRA_CHUNK):
        # row m holds <P(m)| over the A x R index, A slow
        bras = outcome_state_stack(bell, u0, slice(start, start + _BRA_CHUNK))
        np.conj(bras, out=bras)
        relative[start : start + _BRA_CHUNK] = psi @ bras.reshape(-1, dim, dim)
        del bras  # before the next chunk is built
    for l_label, e_r in effect_branches(config.effect_r, dim):
        for b_label, f_b in effect_branches(config.effect_b, dim):
            # (E_R (x) F_B) acting on the resource, still as an R x B matrix
            yield (l_label, b_label), relative @ (e_r @ resource_mat @ f_b.T)


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
    reference branch, then receiver branch, as in `oracle_blocks`.
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


def fast_run(config: ScenarioConfig) -> BlockStream:
    """Stream ``((l, b), block)`` through the transfer kernel, in `oracle_blocks`' key order.

    Each ``(M, n)`` block holds the outputs before the receiver's
    correction, as `oracle_blocks` yields them; only one block is held at
    a time.
    """
    for l_label, b_label, amps in transfer_kernel(config, np.asarray(config.input_state)[None]):
        yield (l_label, b_label), amps[:, 0]


class RouteMismatch(ValueError):
    """Two route streams differ in a key, the block count or a block shape."""


def compare_routes(
    oracle: BlockStream, transfer: BlockStream, bras: np.ndarray
) -> tuple[tuple, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Zip two route streams and reduce both alike, block by block as they arrive.

    Returns the keys, both routes' ``(K, M)`` squared norms, both routes'
    ``(K, M)`` `overlaps_squared` with ``bras``, oracle first, and the
    ``(K, M)`` largest amplitude deviation of every branch.  The
    correction is unitary, so it cannot change a 2-norm deviation.  When
    the streams part, both are drained to name the difference in
    `RouteMismatch`: the record counts if they differ, else the first
    ``(key, shape)`` the routes disagree on.  The message says "oracle"
    for ``oracle`` and "transfer" for ``transfer``.
    """
    oracle, transfer = iter(oracle), iter(transfer)
    layouts: tuple[list, list] = ([], [])  # (key, shape) of every block, oracle first
    norms: tuple[list, list] = ([], [])
    overlaps: tuple[list, list] = ([], [])
    amplitude = []
    for pair in zip_longest(oracle, transfer, fillvalue=(None, None)):
        for layout, (key, block) in zip(layouts, pair):
            if block is not None:
                layout.append((key, block.shape))
        if len(layouts[0]) != len(layouts[1]) or layouts[0][-1] != layouts[1][-1]:
            # the rest of both routes, to count their records
            for layout, rest in zip(layouts, (oracle, transfer)):
                layout.extend((key, block.shape) for key, block in rest)
            counts = [sum(shape[0] for _, shape in layout) for layout in layouts]
            if counts[0] != counts[1]:
                raise RouteMismatch(f"record count mismatch: oracle {counts[0]} vs transfer {counts[1]}")
            first, second = next((a, b) for a, b in zip_longest(*layouts) if a != b)
            raise RouteMismatch(f"record label mismatch: oracle block {first} vs transfer block {second}")
        for side, (_, block) in enumerate(pair):
            norms[side].append(norms_squared(block))
            overlaps[side].append(overlaps_squared(block, bras))
        amplitude.append(np.max(np.abs(pair[0][1] - pair[1][1]), axis=1))
        del pair, block  # neither route builds its next block while this pair is held
    keys = tuple(key for key, _ in layouts[0])
    return keys, tuple(map(np.array, norms)), tuple(map(np.array, overlaps)), np.array(amplitude)


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


def _table(config: ScenarioConfig, blocks: BlockStream) -> BranchTable:
    """Fill a table in place, one uncorrected ``(M, n)`` block per branch pair."""
    bell = config.bell
    dim = config.dim
    count = len(effect_branches(config.effect_r, dim)) * len(effect_branches(config.effect_b, dim))
    keys = []
    stored = np.empty((count, len(bell.outcomes), dim), dtype=complex)
    probabilities = np.empty(stored.shape[:2])
    # block by block: a whole-table norms_squared would copy the table once more
    for block, (key, amps) in enumerate(blocks):
        keys.append(key)
        stored[block] = amps
        probabilities[block] = norms_squared(amps)
    stored.setflags(write=False)
    probabilities.setflags(write=False)
    return BranchTable(
        tuple(keys),
        tuple(o.label for o in bell.outcomes),
        stored,
        probabilities,
        config.corrections,
    )


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
