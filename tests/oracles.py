"""Independent brute-force reference implementations for the tests.

Everything here is written with explicit index loops on purpose: the
point is to check the package against arithmetic that shares none of its
code paths (no kron, no einsum, no reshape tricks).  The one exception is
`materialized_oracle`, the vectorized full-state form the oracle used to
take, kept because index loops at n = 16 would take minutes.
`block_records`, `oracle_records` and `stream_records` are no oracles: they
turn a route's stream into `Record` rows, corrected or not, for the tests
that read the oracle, or compare the two routes, record by record.
`oracle_stream`, `transfer_stream` and `advantage` build a route's
strength-independent half from the scenario itself, as a run driver does
for a single scenario; the transfer route reads the scenario's own
mirror stack.  `mirror_loop` mirrors one reference branch at a time, the
reference for the stacked `ScenarioConfig.mirrors`.  `format_label`
renders one label alone, the reference for the runner's one-pass
`format_labels`.  `hermiticity_deviation` measures how far a matrix is
from Hermitian.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy.linalg import sqrtm

from teleportsim.bell import Label
from teleportsim.eavesdrop import distinguishability
from teleportsim.engine import (
    NULL_BRANCH_EPS,
    BlockStream,
    BranchLabel,
    ScenarioConfig,
    fast_run,
    oracle_blocks,
    oracle_bra,
    transfer_rows,
)
from teleportsim.linalg import dagger


def brute_partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: int) -> np.ndarray:
    """Partial trace via explicit multi-index enumeration."""
    d_keep = dims[keep]
    out = np.zeros((d_keep, d_keep), dtype=complex)
    all_indices = list(np.ndindex(*dims))

    def flatten(idx: tuple[int, ...]) -> int:
        flat = 0
        for d, i in zip(dims, idx):
            flat = flat * d + i
        return flat

    for row in all_indices:
        for col in all_indices:
            if all(row[s] == col[s] for s in range(len(dims)) if s != keep):
                out[row[keep], col[keep]] += rho[flatten(row), flatten(col)]
    return out


def brute_resource_state(u0: np.ndarray) -> np.ndarray:
    """Shared R x B state ``sum_n (u0|n>)_R |n>_B / sqrt(n)``, amplitude by amplitude."""
    n = u0.shape[0]
    state = np.zeros(n * n, dtype=complex)
    for j in range(n):
        for k in range(n):
            # only the term n = k puts |k> on B, and entry j of u0|k> is u0[j, k]
            state[j * n + k] = u0[j, k] / np.sqrt(n)
    return state


def brute_teleport(
    n: int,
    psi: np.ndarray,
    u0: np.ndarray,
    e_r: np.ndarray,
    f_b: np.ndarray,
    u_m: np.ndarray,
    weight: float = 1.0,
    correct: bool = True,
) -> np.ndarray:
    """One conditional branch amplitude, from first principles.

    Builds the A x R x B state entry by entry, applies the line effects,
    projects the weighted Bell outcome on A x R and optionally applies the
    outcome unitary on what is left.
    """
    full = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # resource amplitude before effects: u0[j, src] delta(src, k)
                full[i, j, k] = psi[i] * u0[j, k] / np.sqrt(n)
    disturbed = np.zeros_like(full)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0 + 0.0j
                for jj in range(n):
                    for kk in range(n):
                        acc += e_r[j, jj] * f_b[k, kk] * full[i, jj, kk]
                disturbed[i, j, k] = acc
    # Bell outcome amplitudes on A x R: sqrt(w/n) (u_m @ u0.T)[i, j]
    amp = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = 0.0 + 0.0j
        for i in range(n):
            for j in range(n):
                proj = 0.0 + 0.0j
                for src in range(n):
                    proj += u_m[i, src] * u0[j, src]
                acc += np.conj(np.sqrt(weight / n) * proj) * disturbed[i, j, k]
        amp[k] = acc
    if correct:
        amp = u_m @ amp
    return amp


def brute_strength_branch(n: int, theta: float, l: int, basis: np.ndarray | None = None) -> np.ndarray:
    """Tap branch operator via a general-purpose matrix square root.

    The target is Hermitian by definition, so the anti-Hermitian part of
    the sqrtm output is pure numerical noise and gets dropped.  At
    theta = 1 the argument is singular and sqrtm is only accurate to
    about sqrt(machine epsilon); comparisons should budget for that.
    """
    if basis is None:
        basis = np.eye(n, dtype=complex)
    vec = basis[:, l]
    argument = (1.0 - theta) / n * np.eye(n, dtype=complex) + theta * np.outer(vec, vec.conj())
    root = np.asarray(sqrtm(argument), dtype=complex)
    return (root + root.conj().T) / 2.0


def brute_strength_root(n: int, theta: float, l: int, basis: np.ndarray | None = None) -> np.ndarray:
    """Tap branch operator from its spectral form, entry by entry.

    ``(1-theta)/n + theta |b_l><b_l|`` has eigenvalue ``(1-theta)/n +
    theta`` on ``b_l`` and ``(1-theta)/n`` on its complement, so its root
    is ``sqrt((1-theta)/n) 1 + (sqrt((1-theta)/n + theta) -
    sqrt((1-theta)/n)) |b_l><b_l|``.  Unlike `brute_strength_branch` it
    stays accurate to roundoff up to theta = 1, where the argument is
    singular.
    """
    if basis is None:
        basis = np.eye(n, dtype=complex)
    low = np.sqrt((1.0 - theta) / n)
    lift = np.sqrt((1.0 - theta) / n + theta) - low
    root = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            root[j, k] = lift * basis[j, l] * np.conj(basis[k, l])
        root[j, j] += low
    return root


def brute_branches(
    psi: np.ndarray,
    u0: np.ndarray,
    e_r: np.ndarray,
    f_b: np.ndarray,
    outcomes: list[tuple[np.ndarray, float]],
) -> list[np.ndarray]:
    """`brute_teleport`'s corrected amplitude for every ``(unitary, weight)`` of ``outcomes``.

    The same first principles, with the disturbed R x B resource built
    once for every outcome, from `brute_resource_state`; the input on A
    stays a product factor.  Every array is read as nested Python lists,
    which index several times faster than numpy arrays.
    """
    n = len(psi)
    psi, u0, e_r, f_b = (np.asarray(a, dtype=complex).tolist() for a in (psi, u0, e_r, f_b))
    resource = brute_resource_state(np.array(u0)).tolist()
    # the R x B amplitudes after both effects
    lines = [[0j] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            acc = 0j
            for jj in range(n):
                for kk in range(n):
                    acc += e_r[j][jj] * f_b[k][kk] * resource[jj * n + kk]
            lines[j][k] = acc
    amplitudes = []
    for u_m, weight in outcomes:
        u_m = np.asarray(u_m, dtype=complex).tolist()
        scale = np.sqrt(weight / n)
        # Bell outcome amplitudes on A x R: sqrt(w/n) (u_m @ u0.T)[i, j]
        bra = [[scale * sum(u_m[i][src] * u0[j][src] for src in range(n)) for j in range(n)] for i in range(n)]
        raw = [
            sum(bra[i][j].conjugate() * psi[i] * lines[j][k] for i in range(n) for j in range(n))
            for k in range(n)
        ]
        amplitudes.append(np.array([sum(u_m[r][k] * raw[k] for k in range(n)) for r in range(n)]))
    return amplitudes


def brute_mirrored_basis(u0: np.ndarray, basis: np.ndarray) -> list[np.ndarray]:
    """Vectors ``e_l = conj(u0^+ b_l)`` of a projective tap in basis ``b_l``, entry by entry.

    The mirror ``(u0^-1 |b_l><b_l| u0)^T`` of each projector is ``|e_l><e_l|``.
    """
    n = u0.shape[0]
    vectors = []
    for l in range(n):
        vec = np.zeros(n, dtype=complex)
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += np.conj(u0[k, j]) * basis[k, l]
            vec[j] = np.conj(acc)
        vectors.append(vec)
    return vectors


def brute_projective_cell(
    psi: np.ndarray, e_l: np.ndarray, u_m: np.ndarray, weight: float = 1.0
) -> float:
    """Projective-tap cell probability ``w/n^2 |<e_l|U(m)^-1 psi>|^2``, by loops."""
    n = psi.shape[0]
    overlap = 0.0 + 0.0j
    for i in range(n):
        # entry i of U(m)^-1 psi = U(m)^+ psi
        entry = 0.0 + 0.0j
        for k in range(n):
            entry += np.conj(u_m[k, i]) * psi[k]
        overlap += np.conj(e_l[i]) * entry
    return weight / n**2 * abs(overlap) ** 2


def brute_tap_cells(
    psi: np.ndarray, u0: np.ndarray, branches: list[np.ndarray], labels: list[tuple[int, int]]
) -> np.ndarray:
    """Cell ``(l, m)`` of any reference effect: the squared norm of its `brute_teleport` branch.

    ``branches`` are the reference effect's operators ``K_l``, ``labels``
    the Weyl outcomes ``(a, b)`` at unit weight; the receiver line is
    left alone.
    """
    n = psi.shape[0]
    identity = np.eye(n, dtype=complex)
    cells = np.zeros((len(branches), len(labels)))
    for l, k_l in enumerate(branches):
        for m, (a, b) in enumerate(labels):
            amp = brute_teleport(n, psi, u0, k_l, identity, brute_weyl(n, a, b))
            for k in range(n):
                cells[l, m] += abs(amp[k]) ** 2
    return cells


def brute_weyl(n: int, a: int, b: int) -> np.ndarray:
    """Shift-phase unitary via repeated single-step matrix products."""
    shift = np.zeros((n, n), dtype=complex)
    for k in range(n):
        shift[(k + 1) % n, k] = 1.0
    clock = np.zeros((n, n), dtype=complex)
    for k in range(n):
        clock[k, k] = np.exp(2j * np.pi * k / n)
    out = np.eye(n, dtype=complex)
    for _ in range(a):
        out = shift @ out
    for _ in range(b):
        out = out @ clock
    return out


def closed_form_uniform_fidelity(theta: float) -> float:
    """Average fidelity of the uniform qubit input under a strength-theta tap."""
    return (1.0 + np.sqrt(max(0.0, 1.0 - theta * theta))) / 2.0


def brute_completeness_deviation(
    dim: int, outcomes: list[tuple[np.ndarray, float]]
) -> float:
    """Largest entry of ``sum_m |P(m)><P(m)| - 1`` over ``(unitary, weight)`` pairs, by loops."""
    side = dim * dim
    total = np.zeros((side, side), dtype=complex)
    for unitary, weight in outcomes:
        for row in range(side):
            for col in range(side):
                total[row, col] += (
                    weight / dim * unitary[row // dim, row % dim]
                    * np.conj(unitary[col // dim, col % dim])
                )
    worst = 0.0
    for row in range(side):
        for col in range(side):
            worst = max(worst, abs(total[row, col] - (1.0 if row == col else 0.0)))
    return worst


def brute_trace_orthogonality(dim: int, unitaries: list[np.ndarray]) -> float:
    """Largest deviation of ``tr(U_i^+ U_j) / dim`` from the Kronecker delta, by loops."""
    worst = 0.0
    for i, left in enumerate(unitaries):
        for j, right in enumerate(unitaries):
            overlap = 0.0 + 0.0j
            for a in range(dim):
                for b in range(dim):
                    overlap += np.conj(left[a, b]) * right[a, b]
            worst = max(worst, abs(overlap / dim - (1.0 if i == j else 0.0)))
    return worst


def materialized_oracle(
    psi: np.ndarray,
    u0: np.ndarray,
    unitaries: np.ndarray,
    weights: np.ndarray,
    reference_effects: list[np.ndarray],
    receiver_effects: list[np.ndarray],
    correct: bool = True,
) -> np.ndarray:
    """Every branch amplitude by projecting the materialized A x R x B state.

    Block ``(l, b)`` holds the ``(M, n)`` amplitudes for reference effect
    ``l`` and receiver effect ``b``, reference major.  Each block builds the
    whole ``n**3`` state with ``kron`` and applies every weighted Bell bra
    ``sqrt(w/n) (U(m) u0^T)^*`` to it over the A x R index.
    """
    n = psi.shape[0]
    bras = np.conj(np.sqrt(weights / n)[:, None, None] * (unitaries @ u0.T)).reshape(-1, n * n)
    blocks = []
    for e_r in reference_effects:
        for f_b in receiver_effects:
            disturbed = e_r @ (u0 / np.sqrt(n)) @ f_b.T
            block = bras @ np.kron(psi, disturbed.reshape(-1)).reshape(n * n, n)
            if correct:
                block = (unitaries @ block[..., None])[..., 0]
            blocks.append(block)
    return np.array(blocks)


@dataclass(frozen=True, eq=False)
class Record:
    """One conditional branch of a route: labels, probability and output amplitudes.

    ``raw_output`` is unnormalized (its squared norm is ``probability``);
    ``output`` is the normalized state, ``None`` on a branch below
    ``NULL_BRANCH_EPS``.
    """

    m: Label
    l: BranchLabel
    branch: BranchLabel
    probability: float
    raw_output: np.ndarray

    @property
    def output(self) -> np.ndarray | None:
        if self.probability < NULL_BRANCH_EPS:
            return None
        return self.raw_output / np.sqrt(self.probability)


def block_records(
    config: ScenarioConfig, blocks: BlockStream, correct: bool = False
) -> list[Record]:
    """A route's stream of ``(M, n)`` blocks as records in stream order.

    Block ``k`` is the ``k``-th ``(l, b)`` pair, reference branch major;
    a stream one block short or long fails the strict zip.  The streams
    hold outputs before the correction; with ``correct`` each row gets
    its ``U(m)`` here, one matrix-vector product per row.
    """
    keys = [(l, branch) for l in config.effect_r.labels for branch in config.effect_b.labels]
    records = []
    for (l, branch), block in zip(keys, blocks, strict=True):
        for label, unitary, raw in zip(config.bell.labels, config.bell.unitaries, block):
            if correct:
                raw = unitary @ raw
            probability = float(np.vdot(raw, raw).real)
            records.append(Record(label, l, branch, probability, raw))
    return records


def oracle_stream(config: ScenarioConfig) -> BlockStream:
    """`oracle_blocks` of ``config`` on its own `oracle_bra`."""
    return oracle_blocks(config, oracle_bra(config))


def transfer_stream(config: ScenarioConfig) -> BlockStream:
    """`fast_run` of ``config`` on the `transfer_rows` of its own input."""
    rows = transfer_rows(config, np.asarray(config.input_state)[None])
    return fast_run(config, rows)


def advantage(config: ScenarioConfig, first: np.ndarray, second: np.ndarray) -> float:
    """`distinguishability` of ``config`` on the `transfer_rows` of the pair and its mirror stack."""
    rows = transfer_rows(config, np.array([first, second], dtype=complex))
    return distinguishability(rows, config.mirrors)


def hermiticity_deviation(mat: np.ndarray) -> float:
    """Largest entrywise deviation of ``mat`` from its conjugate transpose."""
    mat = np.asarray(mat, dtype=complex)
    return float(np.max(np.abs(mat - mat.conj().T)))


def mirror_loop(config: ScenarioConfig) -> list[np.ndarray]:
    """``(u0^-1 E_l u0)^T`` of every reference branch, one branch at a time."""
    u0 = np.asarray(config.u0)
    return [(dagger(u0) @ e_r @ u0).T for e_r in config.effect_r.operators]


def oracle_records(config: ScenarioConfig) -> list[Record]:
    """`oracle_blocks`' blocks as records in stream order, each row corrected on its own."""
    return block_records(config, oracle_stream(config), correct=True)


def stream_records(config: ScenarioConfig) -> list[Record]:
    """`fast_run`'s blocks as records in stream order, each row corrected on its own."""
    return block_records(config, transfer_stream(config), correct=True)


def format_label(label: object) -> str:
    """A label as one CSV field, quoted exactly as its own csv.writer quotes it.

    Tuple parts are joined with ``-``; ``None`` is the empty field.
    """
    if label is None:
        text = ""
    elif isinstance(label, tuple):
        text = "-".join(str(part) for part in label)
    else:
        text = str(label)
    buffer = io.StringIO()
    # a second, empty field keeps csv.writer from quoting a lone empty field
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]
