"""Exact-size complex linear algebra for the 3-dimensional state space.

All routines accept stacked operands: a "matrix" is any ndarray of shape
(..., 3, 3) and a "vector" any ndarray of shape (..., 3), so the same code
serves single points and full (zeta, tau) grids. The eigenvalue kernel
takes its Hermitian stack entry by entry instead, as six (N,) arrays, so a
caller can feed it strided views of a grid without forming a 3x3 array.
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


#: cap on cyclic Jacobi sweeps; the states of the canned grids converge
#: in 1-2 sweeps, random Hermitian stacks in 4
_JACOBI_SWEEPS = 6

#: an off-diagonal entry at or below this fraction of |d0| + |d1| + |d2|,
#: or below _TINY, is negligible: it is dropped instead of rotated, and a
#: sweep that leaves only such entries ends the iteration
_JACOBI_NEGLIGIBLE = 1e-16

#: smallest normal float
_TINY = np.finfo(float).tiny


def _negligible(d0, d1, d2) -> np.ndarray:
    return np.maximum(_JACOBI_NEGLIGIBLE * (np.abs(d0) + np.abs(d1) + np.abs(d2)), _TINY)


def _jacobi_rotate(dp, dq, b, floor):
    """Rotation that zeroes the (p, q) entry b of a Hermitian 3x3 stack.

    J = [[c, s], [-conj(s), c]] in the (p, q) plane, with the phase of b
    carried by s, is the real symmetric Jacobi rotation conjugated by the
    phase removal diag(1, conj(b) / |b|). Its tangent

        t = sign(dq - dp) 2 |b| / (|dq - dp| + hypot(dq - dp, 2 |b|))

    never divides by |b|, and |t| <= 1, so no subnormal b can overflow it.
    The hypot is the modulus of dq - dp + 2i |b|, which numpy evaluates
    without overflow and much faster than np.hypot. Entries at or below
    ``floor`` get c = 1, s = 0. Returns the new diagonal pair and (c, s).
    """
    mag = np.abs(b)
    gap = dq - dp
    den = np.abs(gap) + np.abs(gap + 2j * mag)
    k = np.divide(np.copysign(2.0, gap), den, out=np.zeros_like(den), where=mag > floor)
    t = k * mag
    shift = t * mag
    c = 1.0 / np.sqrt(1.0 + t * t)
    return dp - shift, dq + shift, c, (c * k) * b


def hermitian_eigenvalues(d0, d1, d2, a01, a02, a12):
    """Eigenvalues of Hermitian 3x3 stacks given entry by entry.

    d0, d1, d2: the real diagonal; a01, a02, a12: the complex upper
    entries (the lower ones are their conjugates); all (N,) arrays.
    Returns three (N,) arrays, unsorted. Cyclic complex Jacobi over the
    pairs (0, 1), (0, 2), (1, 2), all nodes at once, is backward stable,
    so each eigenvalue is accurate to a few ulps of ||A||, degenerate
    ones included. Sweeps stop after the first one that leaves every
    off-diagonal entry negligible, or at the sweep cap; a NaN never
    passes that test, and a node with a non-finite entry returns NaN.
    """
    finite = np.isfinite(d0) & np.isfinite(d1) & np.isfinite(d2)
    finite &= np.isfinite(a01) & np.isfinite(a02) & np.isfinite(a12)
    d0, d1, d2 = (np.asarray(d, dtype=float) for d in (d0, d1, d2))
    x, y, z = (np.asarray(a, dtype=complex) for a in (a01, a02, a12))
    floor = _negligible(d0, d1, d2)
    for _ in range(_JACOBI_SWEEPS):
        # each rotation zeroes its entry (or drops a negligible one), so
        # the next update has that entry as zero
        d0, d1, c, s = _jacobi_rotate(d0, d1, x, floor)
        y, z = c * y - s * z, c * z + np.conj(s) * y
        d0, d2, c, s = _jacobi_rotate(d0, d2, y, floor)
        x, z = -s * np.conj(z), c * z
        d1, d2, c, s = _jacobi_rotate(d1, d2, z, floor)
        x, y, z = c * x, s * x, 0.0
        floor = _negligible(d0, d1, d2)
        if np.all((np.abs(x) <= floor) & (np.abs(y) <= floor)):
            break
    return tuple(np.where(finite, d, np.nan) for d in (d0, d1, d2))
