"""Seeded random states and unitaries for verification workloads."""
from __future__ import annotations

import numpy as np


def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for a named substream, stable across schedulers."""
    return np.random.default_rng([int(seed)] + [int(s) for s in stream])


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized vector with complex Gaussian amplitudes."""
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like unitary from QR orthonormalization of a complex Gaussian."""
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss / np.sqrt(2.0))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases

