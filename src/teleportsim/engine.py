"""Teleportation engine: exact tripartite evolution and its operator shortcut.

Two independent routes produce every conditional output, each as a
stream of ``((l, b), block)`` pairs in the same key order, one ``(M, n)``
block of every Bell outcome's output before the receiver's correction
``U(m)`` per reference and receiver branch pair.  `oracle_blocks` projects
each Bell outcome on the A x R x B state
``psi_A (x) (E_R (x) F_B)|Phi>_RB``; it is the ground truth and shares no
transfer algebra.  `fast_run` applies the per-outcome transfer operator
on the input alone, through `transfer_kernel`, the one place the transfer
formula is written: it runs the input rows through a ``(K, n, n)``
operator stack, for `fast_run` the channel ``F_b (u0^-1 E_l u0)^T`` of
every branch pair, and for every tap quantity and branch operator in
`teleportsim.eavesdrop` the tap's `mirror_stack` alone.  A
`ScenarioConfig` holds each line as its `Effect` branch stack, an
undisturbed line as one identity branch labeled ``None``, so both routes
read ``config.effect_r`` and ``config.effect_b`` directly and pair their
branches in `branch_keys` order.

Each route has a half that no effect touches, and its stream takes that
half as a value, so a caller that varies an effect builds it once:
`oracle_bra` is the oracle's ``(M, n)`` bra on R, built from the explicit
Bell bras `_BRA_CHUNK` outcomes at a time and contracted with the input
over the sender index, since the state is a product across A | RB;
`transfer_rows` is the kernel's ``sqrt(w)/n U(m)^-1`` applied to its
inputs.  Neither route reads the other's half.  The kernel takes its tap
half as a value too: `mirror_stack` is every reference branch's
``(u0^-1 E_l u0)^T`` as one ``(L, n, n)`` stack, built once per tap
strength and shared by every kernel pass at it.  Beyond its half the
oracle makes one ``(M, n) @ (n, n)`` product with the disturbed resource
per branch pair, and holds neither an n**3 state nor the ``(M, n**2)``
bra stack.

`reduce_stream` reduces one stream, block by block, to its ``(K, M)``
squared norms and squared overlaps, each one `np.vecdot` over the block;
`compare_routes` zips the two streams, reduces both alike and measures
every branch's 2-norm amplitude deviation, so a caller holds a few
blocks and the ``(K, M)`` reductions, never a table; streams that part
raise `RouteMismatch`.
`expected_probability_sum` gives the oracle's probability sum in closed
form from the Gram of its bra on R and `reference_marginal`, neither of
which an effect on R touches: 1 for exactly closed effects, and moved by
any closure defect that admission let through.  `run_oracle` collects
the oracle stream into a `BranchTable`; nothing in the package calls it:
it stays for the benchmark's tracer, which wraps it by name, and for the
tests whose subject is the table.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator

import numpy as np

# bell_outcome_state stays importable here: perfbench/tracing.py patches it by name
from .bell import (  # noqa: F401
    BellFamily, Label, bell_outcome_state, make_bell_family, outcome_state_stack
)
from .effects import Effect
from .linalg import (
    apply_each_inverse,
    as_complex_matrix,
    as_pure_state,
    closure,
    dagger,
    frozen_complex_array,
    is_unitary,
    norms_squared,
)

NULL_BRANCH_EPS = 1e-14

# Bell outcomes whose bras `oracle_blocks` builds at once: at n = 32 a chunk
# of the (M, n**2) stack takes 1 MB where the whole stack would take 16 MB,
# and a family of at most 64 outcomes (every Weyl family up to n = 8) takes
# one chunk
_BRA_CHUNK = 64

BranchLabel = int | str | None

# ((l, b), block) pairs, one uncorrected (M, n) block per effect branch pair
BlockStream = Iterator[tuple[tuple[BranchLabel, BranchLabel], np.ndarray]]


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One teleportation scenario, fully specified.

    ``effect_r`` disturbs the reference line between resource preparation
    and the Bell measurement; ``effect_b`` disturbs the receiver line.
    The receiver undoes the outcome unitary, so an undisturbed scenario
    returns the input exactly.  Every construction, `make_scenario`,
    `dataclasses.replace` or a direct call, turns an absent line (``None``)
    into one read-only identity branch labeled ``None`` and checks each
    branch stack against ``dim``, so both lines are always `Effect`
    stacks; closure is checked when an effect is admitted, not here.
    """

    dim: int
    input_state: np.ndarray
    bell: BellFamily
    u0: np.ndarray
    effect_r: Effect | None = None
    effect_b: Effect | None = None

    def __post_init__(self) -> None:
        identity = np.eye(self.dim, dtype=complex)[None]
        identity.setflags(write=False)
        for line in ("effect_r", "effect_b"):
            effect = getattr(self, line)
            if effect is None:
                object.__setattr__(self, line, Effect((None,), identity))
            elif effect.operators.shape[1:] != (self.dim, self.dim):
                raise ValueError(
                    f"effect shape {effect.operators.shape[1:]} does not match dimension {self.dim}"
                )


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


def overlaps_squared(blocks: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """``|<kets[m]|output>|^2`` of every output of outcome ``m`` in ``(..., M, n)`` blocks.

    Row ``m`` of the ``(M, n)`` ``kets`` is ``U(m)^-1 state``, from
    `apply_each_inverse` of the outcome unitaries: the correction moves
    onto the state, ``<state|U(m) a> = <U(m)^-1 state|a>``, so corrected
    outputs are never built.  `np.vecdot` conjugates the kets itself.
    """
    return np.abs(np.vecdot(kets, blocks)) ** 2


def conditional_fidelities(overlaps_sq: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Squared overlaps of the normalized outputs, NaN where the branch is null."""
    live = probabilities >= NULL_BRANCH_EPS
    return np.divide(overlaps_sq, probabilities, out=np.full(live.shape, np.nan), where=live)


def make_scenario(
    dim: int,
    input_state: np.ndarray,
    bell: BellFamily | None = None,
    u0: np.ndarray | None = None,
    effect_r: Effect | None = None,
    effect_b: Effect | None = None,
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
    return ScenarioConfig(
        dim=dim,
        input_state=frozen_complex_array(state),
        bell=bell,
        u0=frozen_complex_array(u0),
        effect_r=effect_r,
        effect_b=effect_b,
    )


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


def branch_keys(config: ScenarioConfig) -> tuple[tuple[BranchLabel, BranchLabel], ...]:
    """Every ``(l, b)`` pair of reference and receiver branch labels, reference branch major.

    The one key order of both route streams.
    """
    return tuple((l, b) for l in config.effect_r.labels for b in config.effect_b.labels)


def oracle_blocks(config: ScenarioConfig, bra: np.ndarray) -> BlockStream:
    """Stream ``((l, b), block)`` of the full-state route, in `branch_keys` order.

    Each ``(M, n)`` block holds the outputs before the receiver's
    correction.  ``bra`` is `oracle_bra` of a scenario with the same
    input, Bell family and ``u0``: psi_A (x) |resource>_RB is a product
    across A | RB, so the sender index is contracted before any effect
    acts, and each block is one product of the bra with the disturbed
    resource ``E_l R F_b^T``, ``R = u0/sqrt(n)`` the R x B amplitudes as
    a matrix.  Each reference branch's resources are one batched product
    over the receiver's stack: the whole ``(L*B, n, n)`` stack would take
    as much memory as a block at n = 32.
    """
    resource_mat = np.asarray(config.u0) / np.sqrt(config.dim)
    receiver = config.effect_b.operators.transpose(0, 2, 1)
    resources = (r for e_r in config.effect_r.operators for r in e_r @ resource_mat @ receiver)
    for key, resource in zip(branch_keys(config), resources, strict=True):
        yield key, bra @ resource


def reference_marginal(config: ScenarioConfig) -> np.ndarray:
    """``R C_B^T R^+`` with ``R = u0/sqrt(n)`` and ``C_B`` the receiver's `closure` ``sum_b F_b^+ F_b``.

    The resource's state on R once the receiver effect is summed over its
    branches, before the reference effect acts; it reads no reference
    effect, so every tap strength of a sweep shares one.
    """
    resource_mat = np.asarray(config.u0) / np.sqrt(config.dim)
    return resource_mat @ closure(config.effect_b.operators).T @ dagger(resource_mat)


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
    effects = config.effect_r.operators
    # tr(E X E^+ G) = <G E, E X> for a Hermitian G: one product a side
    # for every branch, and no tau_R
    return float(np.vdot(gram @ effects, effects.reshape(-1, config.dim) @ marginal).real)


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


def mirror_stack(config: ScenarioConfig) -> np.ndarray:
    """Every reference branch's ``(u0^-1 E_l u0)^T``, one read-only ``(L, n, n)`` stack."""
    stack = dagger(config.u0) @ config.effect_r.operators @ config.u0
    if not np.all(np.isfinite(stack)):
        raise ValueError("matrix entries must be finite")
    mirrors = stack.transpose(0, 2, 1).copy()
    mirrors.setflags(write=False)
    return mirrors


def transfer_kernel(rows: np.ndarray, operators: np.ndarray) -> Iterator[np.ndarray]:
    """Yield ``amps`` for each ``(n, n)`` operator ``X`` of the ``(K, n, n)`` stack, in stack order.

    ``rows`` is `transfer_rows` of the inputs, and ``amps[m, k]`` is ``X
    rows[m, k]``, ``sqrt(w)/dim X U(m)^-1 inputs[k]``.  With ``X`` a channel ``F_b (u0^-1 E_l u0)^T``, as
    `fast_run` builds them, that is the transfer operator of outcome
    ``m`` short of its leading ``U(m)``, the correction, which callers
    move onto the state.  For the tap alone, pass `mirror_stack` itself:
    the rows are then ``U(m)^-1 P(l, m)`` applied to each input, one
    reference branch after another.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    for operator in operators:
        yield (flat @ operator.T).reshape(rows.shape)


def fast_run(config: ScenarioConfig, rows: np.ndarray, mirrors: np.ndarray) -> BlockStream:
    """Stream ``((l, b), block)`` through the transfer kernel, in `branch_keys` order.

    ``rows`` is `transfer_rows` of the scenario's input alone, ``(M, 1,
    n)``, and ``mirrors`` its `mirror_stack`.  The kernel runs through
    the channel stack ``F_b (u0^-1 E_l u0)^T`` of every branch pair, one
    batched product of the receiver's stack with ``mirrors``.  Each
    ``(M, n)`` block holds the outputs before the receiver's correction,
    as `oracle_blocks` yields them; only one block is held at a time.
    """
    channels = (config.effect_b.operators @ mirrors[:, None]).reshape(-1, config.dim, config.dim)
    for key, amps in zip(branch_keys(config), transfer_kernel(rows, channels), strict=True):
        yield key, amps[:, 0]


def reduce_stream(blocks: BlockStream, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One route's ``(K, M)`` `norms_squared` and `overlaps_squared` with ``kets``, block by block.

    With the kets ``U(m)^-1 state`` of a state, `conditional_fidelities`
    of the two arrays gives every branch's fidelity with that state.
    """
    norms, overlaps = zip(*((norms_squared(b), overlaps_squared(b, kets)) for _, b in blocks))
    return np.array(norms), np.array(overlaps)


class RouteMismatch(ValueError):
    """Two route streams differ in a key, the block count or a block shape."""


def compare_routes(
    oracle: BlockStream, transfer: BlockStream, kets: np.ndarray
) -> tuple[tuple, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Zip two route streams and reduce both alike, block by block as they arrive.

    Returns the keys, both routes' ``(K, M)`` squared norms, both routes'
    ``(K, M)`` `overlaps_squared` with ``kets``, oracle first, and the
    ``(K, M)`` amplitude deviation of every branch, the 2-norm of the
    difference of its two outputs.  The correction is unitary, so
    comparing uncorrected blocks gives the corrected 2-norm deviation
    identically, and the 2-norm bounds every entry's deviation.  When
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
            overlaps[side].append(overlaps_squared(block, kets))
        amplitude.append(np.sqrt(norms_squared(pair[0][1] - pair[1][1])))
        del pair, block  # neither route builds its next block while this pair is held
    keys = tuple(key for key, _ in layouts[0])
    return keys, tuple(map(np.array, norms)), tuple(map(np.array, overlaps)), np.array(amplitude)


def _table(config: ScenarioConfig, blocks: BlockStream) -> BranchTable:
    """Fill a table in place, correcting each uncorrected ``(M, n)`` block as it arrives."""
    bell = config.bell
    keys = []
    stored = np.empty((len(branch_keys(config)), len(bell.labels), config.dim), dtype=complex)
    probabilities = np.empty(stored.shape[:2])
    # block by block: a whole-table product or norms would copy the table again
    for block, (key, amps) in enumerate(blocks):
        keys.append(key)
        stored[block] = (bell.unitaries @ amps[..., None])[..., 0]
        probabilities[block] = norms_squared(amps)
    stored.setflags(write=False)
    probabilities.setflags(write=False)
    return BranchTable(tuple(keys), bell.labels, stored, probabilities)

