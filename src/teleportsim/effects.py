"""Channel effects: unitaries, Kraus mixtures, measurement families.

An effect is anything inserted on the reference or receiver line of the
shared resource, and every effect is an `Effect`: a label tuple and one
read-only ``(L, n, n)`` stack of branch operators, one per label.  A
unitary is one branch, a Kraus mixture one branch per Kraus operator.
Measurement families model a tap of tunable strength; their branches are
Hermitian PSD operators whose squares sum to identity, so branch
probabilities close without renormalization.  Kraus mixtures and
measurement families are admitted on the same sum, `linalg.closure`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    FAMILY_TOL,
    as_complex_matrix,
    closure,
    frozen_complex_array,
    hermiticity_deviation,
    is_unitary,
)

PSD_CLAMP = 1e-10


@dataclass(frozen=True, eq=False)
class Effect:
    """A channel effect as its branch stack: ``operators[l]`` is branch ``labels[l]``.

    ``operators`` is one read-only complex ``(L, n, n)`` array.  Built
    through `unitary_effect`, `kraus_mixture`, `make_measurement_family`
    or `strength_family`, all of which admit it; direct construction
    skips admission.
    """

    labels: tuple[int | str | None, ...]
    operators: np.ndarray

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


def unitary_effect(matrix: np.ndarray, label: int | str | None = None) -> Effect:
    """Wrap a unitary as a single-branch channel effect."""
    matrix = as_complex_matrix(matrix)
    if not is_unitary(matrix):
        raise ValueError("effect matrix is not unitary")
    return Effect((label,), frozen_complex_array(matrix[None]))


def kraus_mixture(matrices: Sequence[np.ndarray]) -> Effect:
    """Admit a Kraus decomposition as one branch per operator, labeled by position.

    Requires ``sum_k K_k^+ K_k = 1`` so that branch probabilities sum to
    one for every input.
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


def make_measurement_family(
    matrices: Sequence[np.ndarray],
    labels: Sequence[int | str] | None = None,
) -> Effect:
    """Admit explicit branch operators ``E(l)`` as a measurement family.

    A measurement family is a minimal back-action measurement: Hermitian
    PSD branches ``E(l)`` with ``sum E^2 = 1``.
    """
    if len(matrices) == 0:
        raise ValueError("measurement family must have at least one branch")
    mats = [as_complex_matrix(m) for m in matrices]
    dim = mats[0].shape[0]
    if labels is None:
        labels = list(range(len(mats)))
    if len(labels) != len(mats):
        raise ValueError(f"{len(labels)} labels for {len(mats)} branches")
    seen = set()
    for label, mat in zip(labels, mats):
        if label in seen:
            raise ValueError(f"duplicate branch label {label!r}")
        seen.add(label)
        if mat.shape != (dim, dim):
            raise ValueError(f"branch {label!r} has shape {mat.shape}, expected ({dim}, {dim})")
        herm = hermiticity_deviation(mat)
        if herm > FAMILY_TOL:
            raise ValueError(f"branch {label!r} is not Hermitian (deviation {herm:.3e})")
        min_eig = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
        if min_eig < -PSD_CLAMP:
            raise ValueError(
                f"branch {label!r} is not positive semidefinite (eigenvalue {min_eig:.3e})"
            )
    family = Effect(tuple(labels), frozen_complex_array(mats))
    deviation = family_completeness_deviation(family)
    if deviation > FAMILY_TOL:
        raise ValueError(
            f"branch squares do not sum to identity: deviation {deviation:.3e} exceeds {FAMILY_TOL:.1e}"
        )
    return family


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

