"""Teleportation engine: exact tripartite evolution and its operator shortcut.

Two independent routes produce every conditional output, each as a
stream of bare ``(M, n)`` blocks in `branch_keys` order, one block of
every Bell outcome's output before the receiver's correction ``U(m)``
per reference and receiver branch pair.  `oracle_blocks` projects
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
branches in `branch_keys` order, the one key order: a stream carries no
keys, and every caller that names a block takes its key from there.

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
blocks and the ``(K, M)`` reductions, never a table; streams that differ
in block count or in a block's shape raise `RouteMismatch`.  Its one
caller is `route_pass`, the one pass over both routes that the run
drivers and the verification suite read: it takes `fixed_half`, what no
tap strength changes, and `tap_report` sums each route's ``(K, M)``
arrays into the tap's ``(L, M)`` cells of an `EavesdropReport`.  The
pass returns every deviation between the routes in one ordered record
of named arrays, `RoutePass.deviations` (``amplitude``, ``probability``,
``cell``, ``total-fidelity`` and ``probability-sum``), instead of
raising, and each caller reads it by name and decides what fails.
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
from types import MappingProxyType
from typing import Iterator, Mapping

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

# one uncorrected (M, n) block per effect branch pair, in branch_keys order
BlockStream = Iterator[np.ndarray]


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
    """Stream the full-state route's ``(M, n)`` blocks, in `branch_keys` order.

    Each block holds the outputs before the receiver's
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
    for e_r in config.effect_r.operators:
        for resource in e_r @ resource_mat @ receiver:
            yield bra @ resource


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
    """Stream the transfer route's ``(M, n)`` blocks through the kernel, in `branch_keys` order.

    ``rows`` is `transfer_rows` of the scenario's input alone, ``(M, 1,
    n)``, and ``mirrors`` its `mirror_stack`.  The kernel runs through
    the channel ``F_b (u0^-1 E_l u0)^T`` of every branch pair, built one
    reference branch at a time as one batched product of the receiver's
    stack with its mirror: the whole ``(L*B, n, n)`` stack would copy the
    mirror stack again for an undisturbed receiver.  Each block holds
    the outputs before the receiver's correction, as `oracle_blocks`
    yields them; only one block is held at a time.
    """
    channels = (c for mirror in mirrors for c in config.effect_b.operators @ mirror)
    for amps in transfer_kernel(rows, channels):
        yield amps[:, 0]


def reduce_stream(blocks: BlockStream, kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One route's ``(K, M)`` `norms_squared` and `overlaps_squared` with ``kets``, block by block.

    With the kets ``U(m)^-1 state`` of a state, `conditional_fidelities`
    of the two arrays gives every branch's fidelity with that state.
    """
    norms, overlaps = zip(*((norms_squared(b), overlaps_squared(b, kets)) for b in blocks))
    return np.array(norms), np.array(overlaps)


class RouteMismatch(ValueError):
    """A route lost, gained or reshaped a block.

    Two route streams differ in the block count or in a block's shape, or
    one route's ``(K, M)`` reductions hold another row count than
    `branch_keys` has keys (checked by `tap_report`).
    """


def compare_routes(
    oracle: BlockStream, transfer: BlockStream, kets: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Zip two route streams and reduce both alike, block by block as they arrive.

    Returns both routes' ``(K, M)`` squared norms, both routes' ``(K, M)``
    `overlaps_squared` with ``kets``, oracle first, and the ``(K, M)``
    amplitude deviation of every branch, the 2-norm of the difference of
    its two outputs; row ``k`` is branch pair ``branch_keys(config)[k]``.
    The correction is unitary, so comparing uncorrected blocks gives the
    corrected 2-norm deviation identically, and the 2-norm bounds every
    entry's deviation.  Streams that differ in block count or in a
    block's shape raise `RouteMismatch` at the first block they differ
    on, naming its index and what each route had there: a shape, or
    ``None`` past the end of the stream.  The message says "oracle" for
    ``oracle`` and "transfer" for ``transfer``.  Deviations are measured,
    never judged: `route_pass`, the one caller, returns them and its
    callers decide what fails.
    """
    norms: tuple[list, list] = ([], [])
    overlaps: tuple[list, list] = ([], [])
    amplitude = []
    # no enumerate: its reused result tuple would hold the last pair while the next is built
    for pair in zip_longest(oracle, transfer):
        first, second = (None if block is None else block.shape for block in pair)
        if first != second:
            raise RouteMismatch(f"block {len(amplitude)}: oracle {first} vs transfer {second}")
        for side, block in enumerate(pair):
            norms[side].append(norms_squared(block))
            overlaps[side].append(overlaps_squared(block, kets))
        amplitude.append(np.sqrt(norms_squared(pair[0] - pair[1])))
        del pair, block  # neither route builds its next block while this pair is held
    return tuple(map(np.array, norms)), tuple(map(np.array, overlaps)), np.array(amplitude)


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


def tap_report(
    config: ScenarioConfig, probabilities: np.ndarray, overlaps_sq: np.ndarray
) -> EavesdropReport:
    """Reduce one route's ``(K, M)`` branch arrays to the tap report.

    ``probabilities`` and ``overlaps_sq`` hold the squared norms and
    `overlaps_squared` of the blocks of either route, one row per
    reference and receiver branch pair in `branch_keys` order.  Each
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


@dataclass(frozen=True, eq=False)
class FixedHalf:
    """The arrays of a run that no tap strength changes: built once per run or sweep.

    ``bra`` (`oracle_bra`) feeds the oracle alone and ``rows``
    (`transfer_rows` of the input) the transfer route alone.
    ``kets``, row ``m`` ``U(m)^-1 psi``, reduce both routes' blocks.
    ``gram`` (``bra^+ bra``) and ``marginal`` (`reference_marginal`) are
    what `expected_probability_sum` needs beside the reference effect.
    """

    bra: np.ndarray  # (M, n)
    rows: np.ndarray  # (M, 1, n)
    kets: np.ndarray  # (M, n)
    gram: np.ndarray  # (n, n)
    marginal: np.ndarray  # (n, n)


def fixed_half(scenario: ScenarioConfig) -> FixedHalf:
    """`FixedHalf` of ``scenario``: what every tap strength on its input shares.

    ``U(m)^-1 psi`` is applied once: the kets are its rows, and the
    transfer rows those rows scaled by ``sqrt(w)/n``, as `transfer_rows`
    scales them.
    """
    bell = scenario.bell
    bra = oracle_bra(scenario)
    kets = apply_each_inverse(bell.unitaries, np.asarray(scenario.input_state))
    rows = kets[:, None] * (np.sqrt(bell.weights) / scenario.dim)[:, None, None]
    rows.setflags(write=False)
    return FixedHalf(
        bra=bra,
        rows=rows,
        kets=kets,
        gram=np.conj(bra).T @ bra,
        marginal=reference_marginal(scenario),
    )


@dataclass(frozen=True, eq=False)
class RoutePass:
    """What one zipped pass over both routes keeps: the oracle's reductions and every route deviation.

    ``probabilities`` and ``overlaps``, the oracle's squared norms and
    squared overlaps with the input's kets, hold one row per branch pair
    ``keys[k]``, `branch_keys` of the scenario, and one column per Bell
    outcome ``tap.labels[m]``; ``tap`` sums them into the tap's ``(l, m)``
    cells, and `conditional_fidelities` of the two gives each branch's
    fidelity.  ``probability_sum`` is the oracle's total and
    ``expected_sum`` its closed form.  ``deviations`` records every
    deviation between the routes by name, in the order a run judges them:
    ``amplitude``, the 2-norm of each branch's difference, and
    ``probability``, both ``(K, M)``; ``cell``, ``(L, M)``, between the
    routes' tap reports; ``total-fidelity``, 0-d, between their total
    fidelities; and ``probability-sum``, 0-d, the oracle's total against
    its closed form.  The record and every array are read-only.
    """

    keys: tuple[tuple[object, object], ...]
    probabilities: np.ndarray  # (K, M)
    overlaps: np.ndarray  # (K, M)
    tap: EavesdropReport
    probability_sum: float
    expected_sum: float
    deviations: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        for array in (self.probabilities, self.overlaps, *self.deviations.values()):
            array.setflags(write=False)


def route_pass(scenario: ScenarioConfig, fixed: FixedHalf, mirrors: np.ndarray) -> RoutePass:
    """Zip the oracle stream with `fast_run` once and measure every deviation between the routes.

    ``fixed`` is `fixed_half` of a scenario that differs from this one in
    the tap at most, ``mirrors`` this one's `mirror_stack`.  Nothing is
    checked here, so routes that disagree still return their deviations
    and the caller decides what fails.  Only streams that differ in
    block count or in a block's shape raise, `RouteMismatch`: they have
    no deviation to return.
    """
    norms, overlaps, amplitude = compare_routes(
        oracle_blocks(scenario, fixed.bra), fast_run(scenario, fixed.rows, mirrors), fixed.kets
    )
    tap = tap_report(scenario, norms[0], overlaps[0])
    transfer_tap = tap_report(scenario, norms[1], overlaps[1])
    probability_sum = float(norms[0].sum())
    expected_sum = expected_probability_sum(scenario, fixed.gram, fixed.marginal)
    return RoutePass(
        keys=branch_keys(scenario),
        probabilities=norms[0],
        overlaps=overlaps[0],
        tap=tap,
        probability_sum=probability_sum,
        expected_sum=expected_sum,
        deviations=MappingProxyType({
            "amplitude": amplitude,
            "probability": np.abs(norms[0] - norms[1]),
            "cell": np.abs(transfer_tap.probabilities - tap.probabilities),
            "total-fidelity": np.array(abs(transfer_tap.total_fidelity - tap.total_fidelity)),
            "probability-sum": np.array(abs(probability_sum - expected_sum)),
        }),
    )


def _table(config: ScenarioConfig, blocks: BlockStream) -> BranchTable:
    """Fill a table in place, correcting each uncorrected ``(M, n)`` block as it arrives."""
    bell = config.bell
    keys = branch_keys(config)
    stored = np.empty((len(keys), len(bell.labels), config.dim), dtype=complex)
    probabilities = np.empty(stored.shape[:2])
    # block by block: a whole-table product or norms would copy the table again
    for block, amps in enumerate(blocks):
        stored[block] = (bell.unitaries @ amps[..., None])[..., 0]
        probabilities[block] = norms_squared(amps)
    stored.setflags(write=False)
    probabilities.setflags(write=False)
    return BranchTable(keys, bell.labels, stored, probabilities)

