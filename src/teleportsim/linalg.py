"""Dense complex linear algebra primitives shared by every other module.

All operators are plain ``numpy`` arrays of dtype complex128.  The design
envelope is modest (single-system dimension up to 32, tripartite states up
to 32**3 amplitudes), so nothing here is sparse or lazy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10

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


def as_pure_state(values: object, tol: float = STATE_NORM_TOL) -> np.ndarray:
    """Coerce ``values`` to a normalized complex vector.

    The squared amplitudes must already sum to 1 within ``tol``; callers
    that accept user input are expected to normalize (or reject) before
    reaching this point.
    """
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1 or vec.shape[0] == 0:
        raise ValueError(f"expected a non-empty vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("state amplitudes must be finite")
    norm_sq = float(np.vdot(vec, vec).real)
    if abs(norm_sq - 1.0) > tol:
        raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
    return vec


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with ``a`` on the slow (left) index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(mat, dtype=complex).conj().T


def apply_each(ops: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row ``m`` of the result is ``ops[m] @ vecs[m]``, for a stack of operators."""
    return (ops @ vecs[..., None])[..., 0]


def apply_each_inverse(ops: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row ``m`` of the result is ``dagger(ops[m]) @ vecs[m]``.

    ``vecs`` may be a single vector, applied to every operator of the stack.
    """
    return np.conj(vecs.conj()[..., None, :] @ ops)[..., 0, :]


def norms_squared(vecs: np.ndarray) -> np.ndarray:
    """Squared norm of each vector along the last axis."""
    return np.einsum("...i,...i->...", vecs.conj(), vecs).real


def transpose_in_basis(mat: np.ndarray) -> np.ndarray:
    """Plain transpose relative to the computational basis.

    This is the transpose that appears in the mirror construction; it is
    basis-dependent on purpose and only defined for square matrices.
    """
    mat = as_complex_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"transpose_in_basis needs a square matrix, got {mat.shape}")
    return mat.T.copy()


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: int) -> np.ndarray:
    """Trace out every subsystem except ``dims[keep]``.

    ``rho`` must be square with side ``prod(dims)``; subsystem 0 owns the
    slowest index.  The result has trace equal to ``trace(rho)``.
    """
    rho = as_complex_matrix(rho)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(
            f"matrix shape {rho.shape} does not match subsystem dimensions {dims}"
        )
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep index {keep} out of range for {len(dims)} subsystems")
    reshaped = rho.reshape(dims + dims)
    n_sub = len(dims)
    row_axes = list(range(n_sub))
    col_axes = [n_sub + i if i == keep else i for i in range(n_sub)]
    return np.einsum(reshaped, row_axes + col_axes, [keep, n_sub + keep])


def hermiticity_deviation(mat: np.ndarray) -> float:
    """Largest entrywise deviation of ``mat`` from its conjugate transpose."""
    mat = np.asarray(mat, dtype=complex)
    return float(np.max(np.abs(mat - mat.conj().T)))


def unitarity_deviation(mat: np.ndarray) -> float:
    """Largest entrywise deviation of ``dagger(mat) @ mat`` from identity."""
    mat = np.asarray(mat, dtype=complex)
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1]))))


def is_hermitian(mat: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return hermiticity_deviation(mat) <= tol


def is_unitary(mat: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[0] != mat.shape[1]:
        return False
    return unitarity_deviation(mat) <= tol


def hermitian_sqrt(mat: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a Hermitian positive-semidefinite matrix.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero so that round-off on
    a genuinely PSD input cannot poison the root; anything below ``-tol``
    raises.
    """
    mat = as_complex_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"hermitian_sqrt needs a square matrix, got {mat.shape}")
    dev = hermiticity_deviation(mat)
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian within {tol:.1e} (deviation {dev:.3e})")
    eigvals, eigvecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    if eigvals.min() < -tol:
        raise ValueError(
            f"matrix is not positive semidefinite (smallest eigenvalue {eigvals.min():.3e})"
        )
    clamped = np.where(eigvals < 0.0, 0.0, eigvals)
    return (eigvecs * np.sqrt(clamped)) @ eigvecs.conj().T


@dataclass(frozen=True)
class PredicateReport:
    """Numerical classification of one matrix at a fixed tolerance."""

    is_hermitian: bool
    is_unitary: bool
    is_psd: bool
    trace: complex
    hermiticity_deviation: float
    unitarity_deviation: float
    min_eigenvalue: float | None


def check_predicates(mat: np.ndarray, tol: float = DEFAULT_TOL) -> PredicateReport:
    """Report Hermiticity, unitarity, positivity and trace of ``mat``.

    Positivity is only evaluated for (numerically) Hermitian input; a
    non-Hermitian matrix reports ``is_psd=False`` with no eigenvalue.
    """
    mat = as_complex_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"check_predicates needs a square matrix, got {mat.shape}")
    herm_dev = hermiticity_deviation(mat)
    unit_dev = unitarity_deviation(mat)
    hermitian = herm_dev <= tol
    min_eig: float | None = None
    psd = False
    if hermitian:
        min_eig = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
        psd = min_eig >= -tol
    return PredicateReport(
        is_hermitian=hermitian,
        is_unitary=unit_dev <= tol,
        is_psd=psd,
        trace=complex(np.trace(mat)),
        hermiticity_deviation=herm_dev,
        unitarity_deviation=unit_dev,
        min_eigenvalue=min_eig,
    )
