"""Exact-size complex linear algebra for the 3-dimensional state space.

The projector and the eigenvalue kernel work entry by entry: a vector is
its three components and a Hermitian 3x3 stack its diagonal and upper
entries, each an array of any broadcastable shape, so the same code
serves single points and full (zeta, tau) grids.  A stack of matrices is
entry-major, (3, 3, ...), so each entry is one contiguous array over the
nodes.

state_figures is the density audit's kernel: verify.audit_density runs it
on each block of zeta rows of a state, and the solver on each slice it writes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def projector(v) -> np.ndarray:
    """|v><v| filled entry by entry, entry-major: result[i, j] = v[i] * conj(v[j]).

    v: the three components, each an array of the broadcast shape (a
    stacked (..., 3) vector is passed as np.moveaxis(v, -1, 0)); the
    result is (3, 3) + that shape, a single 3x3 matrix for scalar
    components.  Every entry is its own product, as a stacked outer
    product computes it, so the diagonal keeps whatever rounding the
    complex product gives.
    """
    v = [np.asarray(x, dtype=complex) for x in v]
    shape = np.broadcast_shapes(*(x.shape for x in v))
    cv = [np.conj(x) for x in v]
    out = np.empty((3, 3) + shape, dtype=complex)
    for i in range(3):
        for j in range(3):
            np.multiply(v[i], cv[j], out=out[i, j, ...])
    return out


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


# a non-finite entry comes out as a NaN (or inf) figure; numpy's
# invalid-value warnings on the way add nothing to that
@np.errstate(invalid="ignore")
def state_figures(r, kind: str) -> dict:
    """Defects of an entry-major (3, 3, n) state that claims to be of the given kind.

    herm_dev is the largest of 2 |Im r_ii| and |r_ij - conj r_ji|, trace_dev
    the largest |tr r - 1|. A 'pure' state adds purity_dev, the largest
    |sum_ij |r_ij|^2 - 1|. Any kind but 'formal' adds eig_min and eig_max,
    the extreme eigenvalues of the Hermitian part from hermitian_eigenvalues.
    Every reduction propagates NaN, so a non-finite entry gives NaN figures.
    """
    d0, d1, d2 = (r[i, i] for i in range(3))
    upper = [(r[i, j], r[j, i]) for i, j in ((0, 1), (0, 2), (1, 2))]
    figures = {
        "herm_dev": np.max([2.0 * np.abs(d.imag).max() for d in (d0, d1, d2)]
                           + [np.abs(a - np.conj(b)).max() for a, b in upper]),
        "trace_dev": np.abs(d0 + d1 + d2 - 1.0).max(),
    }
    if kind == "pure":
        sq = [np.square(np.abs(r[i, j])) for i in range(3) for j in range(3)]
        # np.sum's order over the 9 row-major entries: 8 pairwise, then the last
        frob2 = (((sq[0] + sq[1]) + (sq[2] + sq[3])) + ((sq[4] + sq[5]) + (sq[6] + sq[7]))) + sq[8]
        figures["purity_dev"] = np.abs(frob2 - 1.0).max()
    if kind != "formal":
        eig = hermitian_eigenvalues(d0.real, d1.real, d2.real,
                                    *(0.5 * (a + np.conj(b)) for a, b in upper))
        figures["eig_min"], figures["eig_max"] = np.min(eig), np.max(eig)
    return figures


def worse_figures(a: Optional[dict], b: dict) -> dict:
    """The worse of two state_figures (b if a is None): the lower eig_min, the higher of the rest."""
    if a is None:
        return b
    return {key: (np.minimum if key == "eig_min" else np.maximum)(a[key], b[key]) for key in a}
