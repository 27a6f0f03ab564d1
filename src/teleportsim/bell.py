"""Mirror operators, Weyl unitaries and Bell outcome families.

Subsystem order is fixed throughout the package: sender A, reference R,
receiver B, with A on the slowest tensor index.  A two-party state on
R x B therefore has R slow; a Bell outcome state on A x R has A slow.
The shared resource ``sum_n (u0|n>)_R |n>_B / sqrt(dim)`` is the
row-major flattening of ``u0 / sqrt(dim)``; the oracle builds it inline.
Admission checks completeness on the Gram matrix of the stacked outcome
states, built in row bands, so beside the ``(M, dim, dim)`` stack it holds
no second array of that size.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .linalg import FAMILY_TOL, as_complex_matrix, dagger, is_unitary, transpose_in_basis

Label = int | str | tuple

# rows of the Gram built at once by `completeness_deviation`: at n = 32 a
# band and its temporaries take about 6 MB, where the whole Gram and a
# weighted copy of the stack would take 32 MB
_GRAM_BAND = 128


@dataclass(frozen=True, eq=False)
class BellOutcome:
    """One outcome of an entangled measurement: a unitary and its weight."""

    label: Label
    unitary: np.ndarray
    weight: float


@dataclass(frozen=True, eq=False)
class BellFamily:
    """Complete family of entangled measurement outcomes on A x R.

    Instances built through `make_bell_family` satisfy the completeness
    relation ``sum_m |P(m)><P(m)| = 1`` within `FAMILY_TOL`.  Constructing
    the dataclass directly skips that admission check; the verification
    suite does exactly that to prove it can catch a defective family.

    ``unitaries``, ``weights`` and ``positions`` hold the outcomes stacked
    in outcome order.  `make_bell_family` stores the stack once and makes
    every ``BellOutcome.unitary`` a view into it; a directly constructed
    family stacks its outcomes on first use.
    """

    dim: int
    outcomes: tuple[BellOutcome, ...]

    @cached_property
    def unitaries(self) -> np.ndarray:
        """Read-only ``(M, dim, dim)`` stack of the outcome unitaries."""
        return _read_only(np.array([o.unitary for o in self.outcomes], dtype=complex))

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only ``(M,)`` vector of the outcome weights."""
        return _read_only(np.array([o.weight for o in self.outcomes], dtype=float))

    @cached_property
    def positions(self) -> dict[object, int]:
        """Label key to outcome index; the first outcome wins a repeated label."""
        index: dict[object, int] = {}
        for i, outcome in enumerate(self.outcomes):
            index.setdefault(_label_key(outcome.label), i)
        return index


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _label_key(label: object) -> object:
    # unhashable labels are looked up by their repr, as admission keys them
    try:
        hash(label)
    except TypeError:
        return repr(label)
    return label


def mirror_operator(op_b: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Reference-side partner ``u0 @ op_b.T @ u0^-1`` of a receiver operator.

    Acting with the mirror on R reproduces the action of ``op_b`` on B for
    the shared resource built with the same ``u0``.  The transpose is taken
    in the computational basis.
    """
    op_b = as_complex_matrix(op_b)
    u0 = as_complex_matrix(u0)
    if op_b.shape != u0.shape or op_b.shape[0] != op_b.shape[1]:
        raise ValueError(f"operator shape {op_b.shape} incompatible with u0 shape {u0.shape}")
    if not is_unitary(u0):
        raise ValueError("u0 must be unitary")
    return u0 @ transpose_in_basis(op_b) @ dagger(u0)


def shift_unitary(dim: int) -> np.ndarray:
    """Cyclic shift ``X|k> = |k+1 mod dim>``."""
    mat = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        mat[(k + 1) % dim, k] = 1.0
    return mat


def clock_unitary(dim: int) -> np.ndarray:
    """Phase gradient ``Z|k> = exp(2 pi i k / dim)|k>``."""
    phases = np.exp(2j * np.pi * np.arange(dim) / dim)
    return np.diag(phases)


def weyl_unitary(dim: int, shift: int, phase: int) -> np.ndarray:
    """Weyl pair product ``X^shift @ Z^phase`` for dimension ``dim``."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if not (0 <= shift < dim and 0 <= phase < dim):
        raise ValueError(f"labels ({shift}, {phase}) out of range for dimension {dim}")
    col = np.exp(2j * np.pi * phase * np.arange(dim) / dim)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[(np.arange(dim) + shift) % dim, np.arange(dim)] = col
    return mat


def _weyl_stack(dim: int) -> np.ndarray:
    """Every `weyl_unitary` of ``dim`` as one ``(dim^2, dim, dim)`` stack, shift major."""
    k = np.arange(dim)
    # the same operation order as weyl_unitary, so each entry has the same bits
    phases = np.exp(2j * np.pi * k[:, None] * k / dim)
    stack = np.zeros((dim, dim, dim, dim), dtype=complex)
    shift = k[:, None, None]
    stack[shift, k[:, None], (k + shift) % dim, k] = phases
    return stack.reshape(dim * dim, dim, dim)


def find_outcome(family: BellFamily, label: Label) -> BellOutcome:
    """Outcome with the given label, or a ValueError naming the miss."""
    position = family.positions.get(_label_key(label))
    if position is None:
        raise ValueError(f"no outcome labeled {label!r} in family of size {len(family.outcomes)}")
    return family.outcomes[position]


def bell_outcome_state(family: BellFamily, label: Label, u0: np.ndarray) -> np.ndarray:
    """Unnormalized outcome state ``sqrt(w/dim) sum_n (U|n>)_A (u0|n>)_R``.

    The squared norm equals the outcome weight.  ``u0`` must match the
    resource the measurement is aimed at.
    """
    dim = family.dim
    outcome = find_outcome(family, label)
    u0 = as_complex_matrix(u0)
    if u0.shape != (dim, dim):
        raise ValueError(f"u0 shape {u0.shape} does not match dimension {dim}")
    return _outcome_matrices(outcome.unitary, outcome.weight, u0).reshape(-1)


def outcome_state_stack(family: BellFamily, u0: np.ndarray, outcomes: slice = slice(None)) -> np.ndarray:
    """Every `bell_outcome_state` of the family as a row of one ``(M, dim^2)`` array.

    ``outcomes`` picks a run of the family's outcomes, so a caller can
    build the stack a chunk of rows at a time.
    """
    stack = _outcome_matrices(family.unitaries[outcomes], family.weights[outcomes], np.asarray(u0))
    return stack.reshape(stack.shape[0], -1)


def _outcome_matrices(unitaries: np.ndarray, weights: object, u0: np.ndarray) -> np.ndarray:
    # amplitude of |i>_A |j>_R is sqrt(w/dim) * (U @ u0.T)[i, j]; scaled in
    # place, so a stack of outcomes costs one buffer
    mats = unitaries @ u0.T
    mats *= np.sqrt(np.asarray(weights) / u0.shape[0])[..., None, None]
    return mats


def completeness_deviation(family: BellFamily) -> float:
    """Largest entrywise deviation of ``sum_m |P(m)><P(m)| - 1`` from zero.

    The sum is evaluated with an identity reference rotation; rotating R
    conjugates it by a unitary and cannot change the deviation pattern.
    The Gram matrix is Hermitian, so only its upper triangle is built, in
    row bands of `_GRAM_BAND` rows: no ``(n^2, n^2)`` Gram and no weighted
    copy of the stack is held, and a family with ``n^2 <= _GRAM_BAND``
    takes one band.
    """
    side = family.dim * family.dim
    # with u0 = identity the outcome state flattens U(m) row-major:
    # amplitude of |i>_A |j>_R is sqrt(w/dim) U[i, j]
    states = family.unitaries.reshape(-1, side)
    scale = (family.weights / family.dim)[:, None]
    worst = []
    for start in range(0, side, _GRAM_BAND):
        rows = np.conj(states[:, start : start + _GRAM_BAND]) * scale
        # rows start .. start + band, columns start .. side of the Gram
        band = rows.T @ states[:, start:]
        del rows
        band.flat[:: band.shape[1] + 1] -= 1.0  # the diagonal starts at column 0
        worst.append(np.max(np.abs(band)))
    # np.max, not max: a NaN band must make the deviation NaN
    return float(np.max(worst))


def make_bell_family(
    dim: int,
    outcomes: Iterable[tuple[Label, np.ndarray, float]] | None = None,
) -> BellFamily:
    """Build a complete Bell outcome family for dimension ``dim``.

    ``outcomes`` is either ``None`` (the dim**2 shift/phase unitaries, all
    with unit weight) or an explicit iterable of ``(label, unitary,
    weight)`` triples.  Explicit families may repeat or tilt their
    unitaries as long as weights are positive and the weighted
    completeness sum comes out to the identity.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if outcomes is None:
        labels: list[Label] = [(a, b) for a in range(dim) for b in range(dim)]
        stack = _weyl_stack(dim)
        weights = [1.0] * len(labels)
    else:
        labels, unitaries, weights = [], [], []
        seen: set[object] = set()
        for label, unitary, weight in outcomes:
            unitary = as_complex_matrix(unitary)
            if unitary.shape != (dim, dim):
                raise ValueError(
                    f"outcome {label!r}: unitary shape {unitary.shape} does not match dimension {dim}"
                )
            if not is_unitary(unitary):
                raise ValueError(f"outcome {label!r}: matrix is not unitary")
            weight = float(weight)
            if not weight > 0:  # NaN fails too
                raise ValueError(f"outcome {label!r}: weight must be positive, got {weight}")
            key = _label_key(label)
            if key in seen:
                raise ValueError(f"duplicate outcome label {label!r}")
            seen.add(key)
            labels.append(label)
            unitaries.append(unitary)
            weights.append(weight)
        if not labels:
            raise ValueError("explicit outcome list must not be empty")
        stack = np.array(unitaries, dtype=complex)
        del unitaries  # the stack replaces the per-outcome copies before the Gram product
    _read_only(stack)
    weight_vector = _read_only(np.array(weights, dtype=float))
    family = BellFamily(
        dim=dim,
        outcomes=tuple(
            BellOutcome(label=label, unitary=unitary, weight=weight)
            for label, unitary, weight in zip(labels, stack, weights)
        ),
    )
    # the outcomes are views into the stack, so the family caches it as is
    object.__setattr__(family, "unitaries", stack)
    object.__setattr__(family, "weights", weight_vector)
    deviation = completeness_deviation(family)
    if deviation > FAMILY_TOL:
        raise ValueError(
            f"outcome family is not complete: deviation {deviation:.3e} exceeds {FAMILY_TOL:.1e}"
        )
    return family

