"""Channel effects: unitaries, Kraus mixtures and strength taps.

An effect is anything inserted on the reference or receiver line of the
shared resource, and every effect is an `Effect`: a label tuple and one
read-only ``(L, n, n)`` stack of branch operators, one per label.  A
unitary is one branch, labeled ``None``; an explicit branch list, a Kraus
mixture or a measurement, one branch per operator, labeled by position.
Every explicit branch list is admitted by `kraus_mixture`, on its
`linalg.closure` ``sum_k K_k^+ K_k = 1``, so branch probabilities close
without renormalization.  `strength_family` builds the tap of tunable
strength, Hermitian PSD branches whose squares sum to identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import FAMILY_TOL, as_complex_matrix, closure, frozen_complex_array, is_unitary


@dataclass(frozen=True, eq=False)
class Effect:
    """A channel effect as its branch stack: ``operators[l]`` is branch ``labels[l]``.

    ``operators`` is one read-only complex ``(L, n, n)`` array.  Built
    through `unitary_effect`, `kraus_mixture` or `strength_family`, all of
    which admit it; direct construction skips admission and takes any
    labels.
    """

    labels: tuple[int | str | None, ...]
    operators: np.ndarray

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


def unitary_effect(matrix: np.ndarray) -> Effect:
    """Wrap a unitary as a single-branch channel effect, labeled ``None``."""
    matrix = as_complex_matrix(matrix)
    if not is_unitary(matrix):
        raise ValueError("effect matrix is not unitary")
    return Effect((None,), frozen_complex_array(matrix[None]))


def kraus_mixture(matrices: Sequence[np.ndarray]) -> Effect:
    """Admit an explicit branch list as one branch per operator, labeled by position.

    Any closed list: a Kraus decomposition of a noise channel, or the
    branches of a measurement.  Requires ``sum_k K_k^+ K_k = 1`` so that
    branch probabilities sum to one for every input.
    """
    if len(matrices) == 0:
        raise ValueError("Kraus list must not be empty")
    mats = [as_complex_matrix(m) for m in matrices]
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise ValueError(f"Kraus operator {i} has shape {m.shape}, expected ({dim}, {dim})")
    effect = Effect(tuple(range(len(mats))), frozen_complex_array(mats))
    deviation = family_completeness_deviation(effect)
    if deviation > FAMILY_TOL:
        raise ValueError(
            f"Kraus operators do not resolve the identity: deviation {deviation:.3e}"
        )
    return effect


def strength_family(
    dim: int, theta: float, basis: np.ndarray | None = None
) -> Effect:
    """Interpolating tap family ``E(l) = sqrt((1-theta)/dim + theta |b_l><b_l|)``.

    ``theta = 0`` is the trivial tap (every branch ``1/sqrt(dim)``),
    ``theta = 1`` the projective measurement onto the basis ``b_l``.  The
    basis is given as a unitary whose columns are the measurement vectors
    and defaults to the computational basis.  All branches commute.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"strength theta must lie in [0, 1], got {theta}")
    if basis is None:
        basis = np.eye(dim, dtype=complex)
    basis = as_complex_matrix(basis)
    if basis.shape != (dim, dim):
        raise ValueError(f"basis shape {basis.shape} does not match dimension {dim}")
    if not is_unitary(basis):
        raise ValueError("basis columns must form a unitary matrix")
    low = np.sqrt((1.0 - theta) / dim)
    high = np.sqrt((1.0 - theta) / dim + theta)
    proj = basis.T[:, :, None] * basis.T.conj()[:, None, :]  # proj[l] = |b_l><b_l|
    # closed-form Hermitian root: the argument has eigenvalue
    # (1-theta)/dim off the basis vector and (1-theta)/dim + theta on it
    mats = np.subtract(np.eye(dim, dtype=complex), proj)
    np.multiply(low, mats, out=mats)
    np.add(mats, np.multiply(high, proj, out=proj), out=mats)
    mats.setflags(write=False)
    return Effect(tuple(range(dim)), mats)


def family_completeness_deviation(family: Effect) -> float:
    """Largest entrywise deviation of the `closure` ``sum_l E(l)^+ E(l)`` from identity."""
    return float(np.max(np.abs(closure(family.operators) - np.eye(family.dim))))

