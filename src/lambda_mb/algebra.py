"""Exact-size complex linear algebra for the 3-dimensional state space.

All routines accept stacked operands: a "matrix" is any ndarray of shape
(..., 3, 3) and a "vector" any ndarray of shape (..., 3), so the same code
serves single points and full (zeta, tau) grids.  Inverses use the closed
cofactor expansion rather than a factorization: at this size it is exact,
branch-free and orders of magnitude faster when batched, and the dressing
evaluates it at every grid node.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

#: relative singularity guard: |det m| must exceed SINGULARITY_RTOL * ||m||^3
SINGULARITY_RTOL = 1e-12


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing shape (3, 3), got {m.shape}")
    return m


def adjoint(m) -> np.ndarray:
    """Conjugate transpose, entry (i, j) -> conj(entry (j, i))."""
    m = _as_matrix(m)
    return np.conj(np.swapaxes(m, -1, -2))


def det3(m) -> np.ndarray:
    """Determinant by explicit expansion along the first row."""
    m = _as_matrix(m)
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate3(m) -> np.ndarray:
    """Transposed cofactor matrix, so that m @ adjugate3(m) = det3(m) * I."""
    m = _as_matrix(m)
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    out = np.empty_like(m)
    out[..., 0, 0] = e * i - f * h
    out[..., 0, 1] = c * h - b * i
    out[..., 0, 2] = b * f - c * e
    out[..., 1, 0] = f * g - d * i
    out[..., 1, 1] = a * i - c * g
    out[..., 1, 2] = c * d - a * f
    out[..., 2, 0] = d * h - e * g
    out[..., 2, 1] = b * g - a * h
    out[..., 2, 2] = a * e - b * d
    return out


def inverse(m, rtol: float = SINGULARITY_RTOL) -> np.ndarray:
    """Closed-form inverse with a scale-invariant singularity guard.

    Raises SingularMatrix when |det| <= rtol * ||m||_max^3 for any stacked
    entry; the guard is cubic in the entry scale so rescaling a matrix does
    not change its verdict.
    """
    m = _as_matrix(m)
    scale = np.max(np.abs(m), axis=(-2, -1))
    if np.any(scale == 0.0):
        raise SingularMatrix("zero matrix has no inverse")
    mn = m / scale[..., None, None]  # normalize first: guard and det overflow-free
    det = det3(mn)
    if np.any(np.abs(det) <= rtol):
        raise SingularMatrix(
            f"matrix inverse below singularity guard (min |det|/scale^3 = "
            f"{float(np.min(np.abs(det))):.3e})"
        )
    return adjugate3(mn) / det[..., None, None] / scale[..., None, None]


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a."""
    a, b = _as_matrix(a), _as_matrix(b)
    return a @ b - b @ a


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
