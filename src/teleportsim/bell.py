"""Mirror operators, Weyl unitaries and Bell outcome families.

Subsystem order is fixed throughout the package: sender A, reference R,
receiver B, with A on the slowest tensor index.  A two-party state on
R x B therefore has R slow; a Bell outcome state on A x R has A slow.
The shared resource ``sum_n (u0|n>)_R |n>_B / sqrt(dim)`` is the
row-major flattening of ``u0 / sqrt(dim)``; the oracle builds it inline.
A family is its labels, its unitary stack and its weight vector.
Admission checks completeness on the Gram matrix of the stacked outcome
states, multiplying only the entries some outcome has amplitude on, a band
of columns at a time, so beside the ``(M, dim, dim)`` stack it holds no
second array of that size.  The shift/phase family of a dimension is
admitted once and shared.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .linalg import FAMILY_TOL, as_complex_matrix, dagger, is_unitary

Label = int | str | tuple

# columns of the Gram in a band and in a tile of `completeness_deviation`:
# at n = 32 the Weyl family's touch mask and blocks peak near 2 MB, a dense
# family's bands near 6 MB, where the whole Gram and a weighted copy of the
# stack would take 32 MB
_GRAM_BAND = 128


@dataclass(frozen=True, eq=False)
class BellFamily:
    """Complete family of entangled measurement outcomes on A x R.

    Outcome ``m`` is ``labels[m]`` with unitary ``unitaries[m]`` and weight
    ``weights[m]``: a read-only ``(M, dim, dim)`` stack and a read-only
    ``(M,)`` vector, in outcome order.  Instances built through
    `make_bell_family` satisfy the completeness relation
    ``sum_m |P(m)><P(m)| = 1`` within `FAMILY_TOL`.  Constructing the
    dataclass directly skips that admission check; the verification suite
    does exactly that to prove it can catch a defective family.
    """

    dim: int
    labels: tuple[Label, ...]
    unitaries: np.ndarray
    weights: np.ndarray

    @cached_property
    def positions(self) -> dict[object, int]:
        """Label key to outcome index; the first outcome wins a repeated label."""
        index: dict[object, int] = {}
        for i, label in enumerate(self.labels):
            index.setdefault(_label_key(label), i)
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
    return u0 @ op_b.T @ dagger(u0)


def shift_unitary(dim: int) -> np.ndarray:
    """Cyclic shift ``X|k> = |k+1 mod dim>``: `weyl_unitary` ``(1, 0)``."""
    return weyl_unitary(dim, 1, 0)


def clock_unitary(dim: int) -> np.ndarray:
    """Phase gradient ``Z|k> = exp(2 pi i k / dim)|k>``: `weyl_unitary` ``(0, 1)``."""
    return weyl_unitary(dim, 0, 1)


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


def find_outcome(family: BellFamily, label: Label) -> int:
    """Index of the outcome with the given label, or a ValueError naming the miss."""
    position = family.positions.get(_label_key(label))
    if position is None:
        raise ValueError(f"no outcome labeled {label!r} in family of size {len(family.labels)}")
    return position


def bell_outcome_state(family: BellFamily, label: Label, u0: np.ndarray) -> np.ndarray:
    """Unnormalized outcome state ``sqrt(w/dim) sum_n (U|n>)_A (u0|n>)_R``.

    The squared norm equals the outcome weight.  ``u0`` must match the
    resource the measurement is aimed at.
    """
    m = find_outcome(family, label)
    u0 = as_complex_matrix(u0)
    if u0.shape != (family.dim, family.dim):
        raise ValueError(f"u0 shape {u0.shape} does not match dimension {family.dim}")
    return outcome_state_stack(family, u0, slice(m, m + 1))[0]


def outcome_state_stack(family: BellFamily, u0: np.ndarray, outcomes: slice = slice(None)) -> np.ndarray:
    """Every `bell_outcome_state` of the family as a row of one ``(M, dim^2)`` array.

    ``outcomes`` picks a run of the family's outcomes, so a caller can
    build the stack a chunk of rows at a time.
    """
    u0 = np.asarray(u0)
    # amplitude of |i>_A |j>_R is sqrt(w/dim) * (U @ u0.T)[i, j]; scaled in
    # place, so a stack of outcomes costs one buffer
    stack = family.unitaries[outcomes] @ u0.T
    stack *= np.sqrt(family.weights[outcomes] / u0.shape[0])[:, None, None]
    return stack.reshape(stack.shape[0], -1)


def _columns(states: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``states[:, columns]``: a view when the columns are consecutive, else a copy."""
    if np.all(np.diff(columns) == 1):
        return states[:, columns[0] : columns[-1] + 1]
    return states.take(columns, axis=1)


def completeness_deviation(family: BellFamily) -> float:
    """Largest entrywise deviation of ``sum_m |P(m)><P(m)| - 1`` from zero.

    The sum is evaluated with an identity reference rotation; rotating R
    conjugates it by a unitary and cannot change the deviation pattern.
    A Gram entry is an empty sum, exactly zero, unless some outcome has
    amplitude on both its row and its column, so only those entries are
    multiplied.  The columns are ordered by the first outcome that touches
    them and taken `_GRAM_BAND` at a time.  Each band is contracted over
    the run of outcomes from the first to the last that touches it,
    against the later columns that run touches, in tiles of at most
    `_GRAM_BAND` columns; the Gram is Hermitian, so that upper triangle
    covers it.  A band or tile of consecutive columns is a view of the
    stack, not a copy.  A dense family is one run of every outcome; the
    ``n^2`` Weyl outcomes fall into runs of ``n`` that share ``n``
    columns, so at n = 32 admission multiplies 8 blocks of 128^3 in place
    of 1024^3.  A column no outcome touches has a zero diagonal and
    deviates by 1.
    """
    side = family.dim * family.dim
    # with u0 = identity the outcome state flattens U(m) row-major:
    # amplitude of |i>_A |j>_R is sqrt(w/dim) U[i, j]
    states = family.unitaries.reshape(-1, side)
    scale = family.weights / family.dim
    touches = states != 0  # NaN touches, so a NaN entry reaches the max
    touched = touches.any(axis=0)
    worst = [0.0 if touched.all() else 1.0]
    order = np.argsort(np.argmax(touches, axis=0), kind="stable")
    order = order[touched[order]]
    for start in range(0, order.size, _GRAM_BAND):
        band = order[start : start + _GRAM_BAND]
        # a run is a view of the stack; the touching outcomes alone would
        # have to be copied out
        touching = np.flatnonzero(touches[:, band].any(axis=1))
        run = slice(touching[0], touching[-1] + 1)
        rows = np.conj(_columns(states[run], band)) * scale[run, None]
        later = order[start:]
        # the band's own columns lead, so the diagonal lies in the first tile
        later = later[touches[run].any(axis=0)[later]]
        for tile in range(0, later.size, _GRAM_BAND):
            block = rows.T @ _columns(states[run], later[tile : tile + _GRAM_BAND])
            if tile == 0:
                block.flat[:: block.shape[1] + 1] -= 1.0
            worst.append(np.max(np.abs(block)))
    # np.max, not max: a NaN block must make the deviation NaN
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
    completeness sum comes out to the identity.  The shift/phase family
    is built and admitted once per dimension and kept for the life of
    the process: every call for the same ``dim`` returns the same
    read-only family.  An explicit family is built and admitted on every
    call.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if outcomes is None:
        return _weyl_family(dim)
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
    return _admitted(dim, labels, stack, weights)


@lru_cache(maxsize=None, typed=True)
def _weyl_family(dim: int) -> BellFamily:
    labels = [(a, b) for a in range(dim) for b in range(dim)]
    return _admitted(dim, labels, _weyl_stack(dim), [1.0] * len(labels))


def _admitted(dim: int, labels: list[Label], stack: np.ndarray, weights: list[float]) -> BellFamily:
    family = BellFamily(
        dim=dim,
        labels=tuple(labels),
        unitaries=_read_only(stack),
        weights=_read_only(np.array(weights, dtype=float)),
    )
    deviation = completeness_deviation(family)
    if deviation > FAMILY_TOL:
        raise ValueError(
            f"outcome family is not complete: deviation {deviation:.3e} exceeds {FAMILY_TOL:.1e}"
        )
    return family
