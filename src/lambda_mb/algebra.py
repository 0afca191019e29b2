"""Exact-size complex linear algebra for the 3-dimensional state space.

All routines accept stacked operands: a "matrix" is any ndarray of shape
(..., 3, 3) and a "vector" any ndarray of shape (..., 3), so the same code
serves single points and full (zeta, tau) grids.
"""

from __future__ import annotations

import numpy as np


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing shape (3, 3), got {m.shape}")
    return m


def adjoint(m) -> np.ndarray:
    """Conjugate transpose, entry (i, j) -> conj(entry (j, i))."""
    m = _as_matrix(m)
    return np.conj(np.swapaxes(m, -1, -2))


def scalar_product(u, v) -> np.ndarray:
    """Hermitian scalar product, conjugate-linear in the first argument."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return np.sum(np.conj(u) * v, axis=-1)


def outer(u, v) -> np.ndarray:
    """|u><v| for stacked vectors: result[..., i, j] = u_i * conj(v_j)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return u[..., :, None] * np.conj(v)[..., None, :]
