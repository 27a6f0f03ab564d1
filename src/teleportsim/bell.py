"""Maximally entangled resources, mirror operators and Bell outcome families.

Subsystem order is fixed throughout the package: sender A, reference R,
receiver B, with A on the slowest tensor index.  A two-party state on
R x B therefore has R slow; a Bell outcome state on A x R has A slow.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .linalg import (
    as_complex_matrix,
    dagger,
    frozen_complex_array,
    is_unitary,
    transpose_in_basis,
)

FAMILY_TOL = 1e-9

Label = int | str | tuple


@dataclass(frozen=True, eq=False)
class EntangledResource:
    """Shared R x B resource ``sum_n (u0|n>)_R (|n>)_B / sqrt(dim)``."""

    dim: int
    u0: np.ndarray
    state: np.ndarray


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


def make_entangled_resource(dim: int, u0: np.ndarray | None = None) -> EntangledResource:
    """Build the shared resource state for dimension ``dim``.

    ``u0`` rotates the reference side and defaults to the identity.  Both
    reduced states are maximally mixed regardless of ``u0``.
    """
    if dim < 2:
        raise ValueError(f"resource dimension must be at least 2, got {dim}")
    if u0 is None:
        u0 = np.eye(dim, dtype=complex)
    u0 = as_complex_matrix(u0)
    if u0.shape != (dim, dim):
        raise ValueError(f"u0 shape {u0.shape} does not match dimension {dim}")
    if not is_unitary(u0):
        raise ValueError("u0 must be unitary")
    # amplitude of |j>_R |k>_B is u0[j, k] / sqrt(dim), so the state is a
    # row-major flattening of u0 itself
    state = u0.reshape(-1) / np.sqrt(dim)
    return EntangledResource(dim=dim, u0=frozen_complex_array(u0), state=frozen_complex_array(state))


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


def bell_outcome_state(
    family: BellFamily, label: Label, u0: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized outcome state ``sqrt(w/dim) sum_n (U|n>)_A (u0|n>)_R``.

    The squared norm equals the outcome weight.  ``u0`` defaults to the
    identity and must match the resource the measurement is aimed at.
    """
    dim = family.dim
    outcome = find_outcome(family, label)
    if u0 is None:
        u0 = np.eye(dim, dtype=complex)
    u0 = as_complex_matrix(u0)
    if u0.shape != (dim, dim):
        raise ValueError(f"u0 shape {u0.shape} does not match dimension {dim}")
    return _outcome_matrices(outcome.unitary, outcome.weight, u0).reshape(-1)


def outcome_state_stack(family: BellFamily, u0: np.ndarray) -> np.ndarray:
    """Every `bell_outcome_state` of the family as a row of one ``(M, dim^2)`` array."""
    stack = _outcome_matrices(family.unitaries, family.weights, np.asarray(u0))
    return stack.reshape(len(family.outcomes), -1)


def _outcome_matrices(unitaries: np.ndarray, weights: object, u0: np.ndarray) -> np.ndarray:
    # amplitude of |i>_A |j>_R is sqrt(w/dim) * (U @ u0.T)[i, j]; scaled in
    # place, so a stack of outcomes costs one buffer
    mats = unitaries @ u0.T
    mats *= np.sqrt(np.asarray(weights) / u0.shape[0])[..., None, None]
    return mats


def completeness_deviation(family: BellFamily) -> float:
    """Largest entrywise deviation of ``sum_m |P(m)><P(m)|`` from identity.

    The sum is evaluated with an identity reference rotation; rotating R
    conjugates it by a unitary and cannot change the deviation pattern.
    """
    side = family.dim * family.dim
    # with u0 = identity the outcome state flattens U(m) row-major:
    # amplitude of |i>_A |j>_R is sqrt(w/dim) U[i, j]
    states = family.unitaries.reshape(-1, side)
    weighted = states.conj()
    weighted *= (family.weights / family.dim)[:, None]
    gram = states.T @ weighted
    del weighted
    gram.flat[:: side + 1] -= 1.0
    return float(np.max(np.abs(gram)))


def make_bell_family(
    dim: int,
    outcomes: str | Iterable[tuple[Label, np.ndarray, float]] = "weyl-orthogonal",
) -> BellFamily:
    """Build a complete Bell outcome family for dimension ``dim``.

    ``outcomes`` is either the literal ``"weyl-orthogonal"`` (the dim**2
    shift/phase unitaries, all with unit weight) or an explicit iterable of
    ``(label, unitary, weight)`` triples.  Explicit families may repeat or
    tilt their unitaries as long as weights are positive and the weighted
    completeness sum comes out to the identity.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if isinstance(outcomes, str):
        if outcomes != "weyl-orthogonal":
            raise ValueError(f"unknown family kind {outcomes!r}")
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
            if weight <= 0:
                raise ValueError(f"outcome {label!r}: weight must be positive, got {weight}")
            key = label if isinstance(label, (int, str, tuple)) else repr(label)
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


def trace_orthogonality_deviation(family: BellFamily) -> float:
    """Largest deviation of ``tr(U(m)^+ U(m')) / dim`` from the Kronecker delta.

    Only meaningful for families meant to be orthogonal; weighted families
    will legitimately report large values.
    """
    flat = family.unitaries.reshape(len(family.outcomes), -1)
    overlaps = flat.conj() @ flat.T / family.dim
    overlaps.flat[:: len(family.outcomes) + 1] -= 1.0
    return float(np.max(np.abs(overlaps)))
