"""Teleportation engine: exact tripartite evolution and its operator shortcut.

Two independent routes produce every conditional output, each as a
stream of ``((l, b), block)`` pairs in the same key order, one ``(M, n)``
block of every Bell outcome's output before the receiver's correction
``U(m)`` per reference and receiver branch pair.  `oracle_blocks` projects
each Bell outcome on the A x R x B state
``psi_A (x) (E_R (x) F_B)|Phi>_RB``; it is the ground truth and shares no
transfer algebra.  `fast_run` applies the per-outcome transfer operator
on the input alone, through `transfer_kernel`, which also feeds every tap
quantity in `teleportsim.eavesdrop`.

Each route has a half that no effect touches, and its stream takes that
half as a value, so a caller that varies an effect builds it once:
`oracle_bra` is the oracle's ``(M, n)`` bra on R, built from the explicit
Bell bras `_BRA_CHUNK` outcomes at a time and contracted with the input
over the sender index, since the state is a product across A | RB;
`transfer_rows` is the kernel's ``sqrt(w)/n U(m)^-1`` applied to its
inputs.  Neither route reads the other's half.  Beyond its half the
oracle makes one ``(M, n) @ (n, n)`` product with the disturbed resource
per branch pair, and neither an n**3 state nor the ``(M, n**2)`` bra stack
is held.

`reduce_stream` reduces one stream, block by block, to its ``(K, M)``
squared norms and squared overlaps; `compare_routes` zips the two
streams and reduces both alike, so a caller that consumes both holds a
few blocks and its ``(K, M)`` reductions, never a table; streams that
part raise `RouteMismatch`.  Every caller in the package consumes the
streams.  `expected_probability_sum` gives the oracle's
probability sum in closed form from the Gram of its bra on R and
`reference_marginal`, neither of which an effect on R touches: 1 for
exactly closed effects, and moved by any closure defect that admission
let through.  `run_oracle` still collects the oracle stream into a
`BranchTable` of corrected outputs, but nothing in the package calls it:
it stays for the benchmark's tracer, which wraps it by name, and for the
tests whose subject is the table.
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
    The receiver undoes the outcome unitary, so an undisturbed scenario
    returns the input exactly.
    """

    dim: int
    input_state: np.ndarray
    bell: BellFamily
    u0: np.ndarray
    effect_r: EffectSpec = None
    effect_b: EffectSpec = None


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
    """Every conditional branch of the oracle route, one block per effect branch pair.

    Block ``k`` holds reference and receiver branches ``keys[k]``: the
    read-only ``amplitudes[k, j]`` is the unnormalized output of Bell
    outcome ``labels[j]`` after the receiver's correction ``U(m)``, and
    ``probabilities[k, j]`` its squared norm.
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


def fidelity_bras(state: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """The bras `overlaps_squared` contracts uncorrected outputs with.

    Row ``m`` is ``<U(m)^-1 state|`` for the ``(M, n, n)`` outcome
    unitaries, as the conjugated vector ``state^+ U(m)``: the correction
    moves onto the state, ``<state|U(m) a> = <U(m)^-1 state|a>``, so
    corrected outputs are never built.
    """
    return np.conj(state) @ unitaries


def overlaps_squared(blocks: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """``|<bras[m]|output>|^2`` of every output of outcome ``m`` in ``(..., M, n)`` blocks."""
    return np.abs(np.einsum("...mi,mi->...m", blocks, bras)) ** 2


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
    # expansion checks the shapes of both effect specifications and that a
    # branch list is not empty; closure is checked when kraus_mixture,
    # strength_family or make_measurement_family admits a family, not here
    effect_branches(effect_r, dim)
    effect_branches(effect_b, dim)
    return ScenarioConfig(
        dim=dim,
        input_state=frozen_complex_array(state),
        bell=bell,
        u0=frozen_complex_array(u0),
        effect_r=effect_r,
        effect_b=effect_b,
    )


def mirror_effect(u0: np.ndarray, effect: np.ndarray) -> np.ndarray:
    """Reference effect moved onto the input: ``(u0^-1 E u0)^T``."""
    return transpose_in_basis(dagger(u0) @ effect @ u0)


def run_oracle(config: ScenarioConfig) -> BranchTable:
    """Evolve the full tripartite state and project every Bell outcome, as one table."""
    return _table(config, oracle_blocks(config, oracle_bra(config)))


def oracle_bra(config: ScenarioConfig) -> np.ndarray:
    """The oracle's read-only ``(M, n)`` bra on R: row ``m`` is ``<P(m)|psi>_A``.

    Built from the explicit Bell bras alone, `_BRA_CHUNK` outcomes at a
    time, each chunk contracted with the input over the sender index.  It
    reads the input, the Bell family and ``u0``, never an effect, so every
    tap strength of a sweep shares one.
    """
    dim = config.dim
    psi = np.asarray(config.input_state)
    bell = config.bell
    bra = np.empty((len(bell.labels), dim), dtype=complex)
    for start in range(0, len(bell.labels), _BRA_CHUNK):
        # row m holds <P(m)| over the A x R index, A slow
        bras = outcome_state_stack(bell, np.asarray(config.u0), slice(start, start + _BRA_CHUNK))
        np.conj(bras, out=bras)
        bra[start : start + _BRA_CHUNK] = psi @ bras.reshape(-1, dim, dim)
        del bras  # before the next chunk is built
    bra.setflags(write=False)
    return bra


def oracle_blocks(config: ScenarioConfig, bra: np.ndarray) -> BlockStream:
    """Stream ``((l, b), block)`` of the full-state route, in `fast_run`'s key order.

    Each ``(M, n)`` block holds the outputs before the receiver's
    correction.  ``bra`` is `oracle_bra` of a scenario with the same
    input, Bell family and ``u0``: psi_A (x) |resource>_RB is a product
    across A | RB, so the sender index is contracted before any effect
    acts, and each block is one product of the bra with the disturbed
    resource.
    """
    resource_mat = np.asarray(config.u0) / np.sqrt(config.dim)  # R x B amplitudes as a matrix
    for l_label, e_r in effect_branches(config.effect_r, config.dim):
        for b_label, f_b in effect_branches(config.effect_b, config.dim):
            # (E_R (x) F_B) acting on the resource, still as an R x B matrix
            yield (l_label, b_label), bra @ (e_r @ resource_mat @ f_b.T)


def reference_marginal(config: ScenarioConfig) -> np.ndarray:
    """``R C_B^T R^+`` with ``R = u0/sqrt(n)`` and ``C_B = sum_b F_b^+ F_b``.

    The resource's state on R once the receiver effect is summed over its
    branches, before the reference effect acts; it reads no reference
    effect, so every tap strength of a sweep shares one.
    """
    resource_mat = np.asarray(config.u0) / np.sqrt(config.dim)
    closure = sum(dagger(f_b) @ f_b for _, f_b in effect_branches(config.effect_b, config.dim))
    return resource_mat @ closure.T @ dagger(resource_mat)


def expected_probability_sum(config: ScenarioConfig, gram: np.ndarray, marginal: np.ndarray) -> float:
    """The oracle's probability sum in closed form: ``sum_m a_m^+ tau_R a_m``.

    ``a_m`` is the conjugate of row ``m`` of `oracle_bra`, so the sum is
    ``tr(tau_R gram)`` with ``gram = sum_m a_m a_m^+ = bra^+ bra``.
    ``tau_R = sum_l E_l marginal E_l^+`` is the state on R that the Bell
    measurement sees, and ``marginal`` is `reference_marginal`; neither
    ``gram`` nor ``marginal`` reads the reference effect.  The sum is 1
    for exactly closed effects and a complete Bell family, and moves with
    any closure defect that admission let through.
    """
    effects = np.array([e_r for _, e_r in effect_branches(config.effect_r, config.dim)])
    # tr(E X E^+ G) = <G E, E X> for a Hermitian G: one product a side
    # for every branch, and no tau_R
    return float(np.vdot(gram @ effects, effects.reshape(-1, config.dim) @ marginal).real)


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
    index = find_outcome(config.bell, m)
    e_r = _select_branch(config.effect_r, l, dim, "reference")
    f_b = _select_branch(config.effect_b, branch, dim, "receiver")
    u_m = config.bell.unitaries[index]
    mirrored = mirror_effect(np.asarray(config.u0), e_r)
    return (np.sqrt(config.bell.weights[index]) / dim) * (u_m @ f_b @ mirrored @ dagger(u_m))


def transfer_rows(config: ScenarioConfig, inputs: np.ndarray) -> np.ndarray:
    """The read-only ``(M, k, n)`` rows ``sqrt(w)/dim U(m)^-1 inputs[k]`` `transfer_kernel` starts from.

    They read the Bell family alone, never an effect, so every tap
    strength of a sweep shares one set.
    """
    bell = config.bell
    rows = apply_each_inverse(bell.unitaries, inputs)
    rows *= (np.sqrt(bell.weights) / config.dim)[:, None, None]
    rows.setflags(write=False)
    return rows


def transfer_kernel(
    config: ScenarioConfig, rows: np.ndarray
) -> Iterator[tuple[BranchLabel, BranchLabel, np.ndarray]]:
    """Yield ``(l, b, amps)`` for every reference and receiver branch pair.

    ``rows`` is `transfer_rows` of the inputs, and ``amps[m, k]`` is
    ``sqrt(w)/dim F_b (u0^-1 E_l u0)^T U(m)^-1`` applied to ``inputs[k]``:
    the transfer operator of outcome ``m`` short of its leading ``U(m)``,
    the correction, which callers move onto the state.  For the tap alone,
    pass a scenario with no receiver effect (``replace(config,
    effect_b=None)``): the rows are then ``U(m)^-1 P(l, m)`` applied to
    each input.  Order is reference branch, then receiver branch, as in
    `oracle_blocks`.
    """
    dim = config.dim
    flat = rows.reshape(-1, dim)
    receivers = effect_branches(config.effect_b, dim)
    for l_label, e_r in effect_branches(config.effect_r, dim):
        mirrored = mirror_effect(np.asarray(config.u0), e_r)
        for b_label, f_b in receivers:
            yield l_label, b_label, (flat @ (f_b @ mirrored).T).reshape(rows.shape)


def fast_run(config: ScenarioConfig, rows: np.ndarray) -> BlockStream:
    """Stream ``((l, b), block)`` through the transfer kernel, in `oracle_blocks`' key order.

    ``rows`` is `transfer_rows` of the scenario's input alone, ``(M, 1,
    n)``.  Each ``(M, n)`` block holds the outputs before the receiver's
    correction, as `oracle_blocks` yields them; only one block is held at
    a time.
    """
    for l_label, b_label, amps in transfer_kernel(config, rows):
        yield (l_label, b_label), amps[:, 0]


def reduce_stream(blocks: BlockStream, bras: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One route's ``(K, M)`` squared norms and `overlaps_squared` with ``bras``, block by block.

    With `fidelity_bras` of a state, `conditional_fidelities` of the two
    arrays gives every branch's fidelity with that state.
    """
    norms, overlaps = zip(*((norms_squared(b), overlaps_squared(b, bras)) for _, b in blocks))
    return np.array(norms), np.array(overlaps)


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
    """Fill a table in place, correcting each uncorrected ``(M, n)`` block as it arrives."""
    bell = config.bell
    dim = config.dim
    count = len(effect_branches(config.effect_r, dim)) * len(effect_branches(config.effect_b, dim))
    keys = []
    stored = np.empty((count, len(bell.labels), dim), dtype=complex)
    probabilities = np.empty(stored.shape[:2])
    # block by block: a whole-table product or norms would copy the table again
    for block, (key, amps) in enumerate(blocks):
        keys.append(key)
        stored[block] = (bell.unitaries @ amps[..., None])[..., 0]
        probabilities[block] = norms_squared(amps)
    stored.setflags(write=False)
    probabilities.setflags(write=False)
    return BranchTable(tuple(keys), bell.labels, stored, probabilities)


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
