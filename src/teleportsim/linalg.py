"""Dense complex linear algebra primitives shared by every other module.

All operators are plain ``numpy`` arrays of dtype complex128.  The design
envelope is modest (single-system dimension up to 32), so nothing here is
sparse or lazy.  The largest array a run holds is the Bell family's
``(M, n, n)`` stack of outcome unitaries, 32**4 amplitudes; both routes
stream ``(M, n)`` blocks of 32**3.  `apply_each_inverse` is the one
spelling of ``U(m)^-1 psi`` over that stack.
"""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10

# admission tolerance of Bell outcome families, measurement families and
# Kraus mixtures
FAMILY_TOL = 1e-9

STATE_NORM_TOL = 1e-12


def as_complex_matrix(values: object) -> np.ndarray:
    """Coerce ``values`` to a 2-d complex array, rejecting junk early."""
    mat = np.asarray(values, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] == 0:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return mat


def frozen_complex_array(values: object) -> np.ndarray:
    """Copy ``values`` into a read-only complex array for storage in records."""
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector ``|index>`` in dimension ``dim``."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[index] = 1.0
    return vec


def uniform_state(dim: int) -> np.ndarray:
    """Equal-amplitude superposition of all ``dim`` basis states."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)


def as_pure_state(values: object) -> np.ndarray:
    """Coerce ``values`` to a normalized complex vector.

    The squared amplitudes must already sum to 1 within `STATE_NORM_TOL`; callers
    that accept user input are expected to normalize (or reject) before
    reaching this point.
    """
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1 or vec.shape[0] == 0:
        raise ValueError(f"expected a non-empty vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("state amplitudes must be finite")
    norm_sq = float(np.vdot(vec, vec).real)
    if abs(norm_sq - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
    return vec


def dagger(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(mat, dtype=complex).conj().T


def apply_each_inverse(ops: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``dagger(ops[m]) @ v`` for every operator of the ``(M, n, n)`` stack.

    ``vecs`` is one vector, giving an ``(M, n)`` result, or a ``(K, n)``
    stack of them, giving ``(M, K, n)`` with ``[m, k]`` for ``vecs[k]``.
    """
    return np.conj(np.conj(vecs) @ ops)


def norms_squared(vecs: np.ndarray) -> np.ndarray:
    """Squared norm of each vector along the last axis."""
    # a copy, not a view: a kept row would hold its complex sums alive
    return np.einsum("...i,...i->...", vecs.conj(), vecs).real.copy()


def transpose_in_basis(mat: np.ndarray) -> np.ndarray:
    """Plain transpose relative to the computational basis.

    This is the transpose that appears in the mirror construction; it is
    basis-dependent on purpose and only defined for square matrices.
    """
    mat = as_complex_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"transpose_in_basis needs a square matrix, got {mat.shape}")
    return mat.T.copy()


def hermiticity_deviation(mat: np.ndarray) -> float:
    """Largest entrywise deviation of ``mat`` from its conjugate transpose."""
    mat = np.asarray(mat, dtype=complex)
    return float(np.max(np.abs(mat - mat.conj().T)))


def is_unitary(mat: np.ndarray) -> bool:
    """Square, and ``dagger(mat) @ mat`` within `DEFAULT_TOL` of the identity entrywise."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[0] != mat.shape[1]:
        return False
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1])))) <= DEFAULT_TOL
