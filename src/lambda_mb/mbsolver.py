"""Direct numerical integrator for the reduced field-matter system.

The evolution variable is zeta (distance into the medium); the state
equation is integrated along tau inside each slice, and the fields are
marched in zeta by an explicit predictor-corrector (Heun) step, second
order in h_zeta.  Each slice's state starts from its row's tau_min state,
which the boundary gives for every row as one entry-major (3, 3, n_zeta)
array (scenarios.build_numeric_grid takes the closed form's own).

Inside a slice the state obeys rho' = M rho + rho M^dagger with the
anti-Hermitian generator M = iG (G the Hermitian torque matrix).  Each
tau step gets its own map A_j from the fourth-order Magnus exponent

    Omega_j = (h/6)(M_j + 4 M_{j+1/2} + M_{j+1}) + (h^2/12)[M_{j+1}, M_j]

(Simpson weights; the midpoint fields come from the cubic stencil), and
A_j is its [2/2] Pade exponential, which is exactly unitary; the inverse
in it is an adjugate over a determinant.  The running products
P_j = A_{j-1}...A_0 come from a blocked prefix product (about sqrt(n)
blocks: a sequential sweep inside the blocks, batched across them, then
the carries between blocks), and rho_j = P_j rho_0 P_j^dagger, of which
the diagonal and upper entries are computed and the lower ones are their
conjugates.  The state is therefore Hermitian to the last bit, keeps its
trace and its spectrum up to rounding, for any boundary state, mixed ones
included.  Every slice is audited by algebra.state_figures, the density
audit's own kernel, whose eigenvalues also give the slice's band check.
A stack of 3x3 matrices is held entry-major, a (3, 3, n) array whose
entries are contiguous rows over the tau nodes, so each numpy call covers
the whole slice rather than one matrix; no 3x3 solve or eigenvalue goes
to LAPACK.  MarchRows is the solver's row source: it marches the zeta
rows in order, one block of rows at a time, holds only the last row
between blocks, and folds the slices' audit figures; propagate hands
that source to a consumer (the command line's pass, or
scenarios.build_numeric_grid, which keeps every block).  Runs are
deterministic: fixed grids, no adaptivity, no parallel reductions.

Every pass over a lattice goes in blocks of whole zeta rows under one
rule (GridSpec.blocks): about BLOCK_NODES nodes, one row at
least.  A row source is any object with a grid and rows(z0, z1), which
returns rows z0 to z1 - 1 of a solution as Rows: a RowSource (the exact
routes), a MarchRows (the solver) or a stored SolutionGrid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import algebra
from .errors import StepUnstable
from .model import LambdaParams

#: admissible band for state eigenvalues during integration
EIG_BAND = 1e-4

#: nodes per block of zeta rows: a block's arrays stay small, so no pass's
#: working memory grows with the lattice
BLOCK_NODES = 8192


@dataclass(frozen=True)
class GridSpec:
    """Uniform (tau, zeta) lattice."""

    tau_min: float
    tau_max: float
    n_tau: int
    zeta_min: float
    zeta_max: float
    n_zeta: int

    def __post_init__(self):
        if self.n_tau < 3 or self.n_zeta < 2:
            raise ValueError("need n_tau >= 3 and n_zeta >= 2")
        if not (self.tau_max > self.tau_min and self.zeta_max > self.zeta_min):
            raise ValueError("grid extents must be increasing")
        for name, h in (("tau", self.h_tau), ("zeta", self.h_zeta)):
            # the residual stencils multiply by 1 / (2h)
            if not (math.isfinite(h) and h > 0 and math.isfinite(1.0 / (2.0 * h))):
                raise ValueError(f"the {name} step must be positive with 1 / (2h) finite, got {h}")

    @property
    def h_tau(self) -> float:
        return (self.tau_max - self.tau_min) / (self.n_tau - 1)

    @property
    def h_zeta(self) -> float:
        return (self.zeta_max - self.zeta_min) / (self.n_zeta - 1)

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.n_tau)

    def zetas(self) -> np.ndarray:
        return np.linspace(self.zeta_min, self.zeta_max, self.n_zeta)

    def coarse(self) -> "GridSpec":
        """Same domain, both steps doubled (odd counts): the even nodes, which this refines."""
        return GridSpec(self.tau_min, self.tau_max, (self.n_tau + 1) // 2,
                        self.zeta_min, self.zeta_max, (self.n_zeta + 1) // 2)

    def blocks(self) -> list:
        """(z0, z1) of each block of BLOCK_NODES nodes of whole zeta rows, one row at least."""
        rows = max(1, BLOCK_NODES // self.n_tau)
        return [(z0, min(z0 + rows, self.n_zeta)) for z0 in range(0, self.n_zeta, rows)]


class Rows(NamedTuple):
    """Zeta rows z0 to z1 - 1 of a solution on grid, as a row source returns them.

    omega_a and omega_b are (z1 - z0, n_tau); rho is entry-major,
    (3, 3, z1 - z0, n_tau), or None where the source gives the fields
    alone (scenarios.closed_form_field_rows).
    """

    grid: "GridSpec"
    omega_a: np.ndarray
    omega_b: np.ndarray
    rho: Optional[np.ndarray]


@dataclass(frozen=True)
class RowSource:
    """A lattice and a row source over it: rows(z0, z1) -> Rows."""

    grid: "GridSpec"
    rows: Callable


@dataclass
class SolutionGrid:
    """Fields plus atomic state sampled on a GridSpec lattice.

    rho is entry-major, (3, 3, n_zeta, n_tau): rho[i, j] is the
    (n_zeta, n_tau) array of one matrix entry, and the level occupations
    are the real parts of its diagonal rows rho[k, k].  Every route's grid
    stores it; a numeric grid's meta also holds the audit figures the
    solver took on every slice.  state_kind records what the state claims
    to be: 'pure' (projector onto a unit vector), 'density' (statistical)
    or 'formal' (Hermitian trace-one companion that is not positive).
    """

    grid: GridSpec
    omega_a: np.ndarray
    omega_b: np.ndarray
    rho: np.ndarray
    state_kind: str = "density"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (self.grid.n_zeta, self.grid.n_tau)
        if self.omega_a.shape != expected or self.omega_b.shape != expected:
            raise ValueError("field arrays must be shaped (n_zeta, n_tau)")
        if self.rho.shape != (3, 3) + expected:
            raise ValueError(f"rho must be shaped (3, 3, n_zeta, n_tau) = {(3, 3) + expected}, "
                             f"got {self.rho.shape}")

    def rows(self, z0: int, z1: int) -> Rows:
        """Rows z0 to z1 - 1 of the stored grid, as views."""
        return Rows(self.grid, self.omega_a[z0:z1], self.omega_b[z0:z1], self.rho[:, :, z0:z1])


# ---------------------------------------------------------------------------
# state equation
# ---------------------------------------------------------------------------

#: the diagonal and upper entries (i, j) of a Hermitian 3x3, in that order
_UPPER_ROWS = [0, 1, 2, 0, 0, 1]
_UPPER_COLS = [0, 1, 2, 1, 2, 2]

#: the indices i + 1 and i + 2 (mod 3) of each index i, for the cofactors
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 product a @ b of entry-major stacks (3, 3, ...), broadcast over the rest."""
    return (a[:, :, None] * b[None]).sum(axis=1)


def _generators(fa: np.ndarray, fb: np.ndarray, delta: float) -> np.ndarray:
    """M = iG at each field sample, G the Hermitian torque matrix: (3, 3, n)."""
    m = np.zeros((3, 3) + fa.shape, dtype=complex)
    m[0, 0] = m[1, 1] = 0.5j * delta
    m[2, 2] = -0.5j * delta
    m[2, 0] = 0.5j * fa
    m[2, 1] = 0.5j * fb
    m[0, 2] = 0.5j * np.conj(fa)
    m[1, 2] = 0.5j * np.conj(fb)
    return m


def _half_step_fields(f: np.ndarray) -> np.ndarray:
    """Field values at interval midpoints by cubic interpolation.

    Linear midpoints cap the slice accuracy at second order and miss the
    tracking tolerance at the reference resolution; the cubic stencil
    restores the Magnus step's fourth order at the same sample count.
    Edge intervals use the one-sided quadratic.
    """
    half = np.empty(f.shape[0] - 1, dtype=complex)
    half[1:-1] = (-f[:-3] + 9.0 * f[1:-2] + 9.0 * f[2:-1] - f[3:]) / 16.0
    half[0] = (3.0 * f[0] + 6.0 * f[1] - f[2]) / 8.0
    half[-1] = (3.0 * f[-1] + 6.0 * f[-2] - f[-3]) / 8.0
    return half


def _step_maps(oa: np.ndarray, ob: np.ndarray, delta: float, h: float) -> np.ndarray:
    """Unitary fourth-order maps A_j, rho_{j+1} = A_j rho_j A_j^dagger: (3, 3, n-1).

    M is affine in the fields, so (M_j + 4 M_{j+1/2} + M_{j+1}) / 6 is M at
    the Simpson average of the fields, and Omega = h M_simpson +
    (h^2/12)[M_{j+1}, M_j] is anti-Hermitian.  A = D^-1 D^dagger with
    D = I - Omega/2 + Omega^2/12, so D^dagger = I + Omega/2 + Omega^2/12.
    D^-1 is the adjugate C^T over det D = sum_j D[0, j] C[0, j], C the
    cofactors.  D is normal and each of its eigenvalues has modulus >= 1,
    so det D never vanishes.
    """
    m = _generators(oa, ob, delta)
    simpson_a, simpson_b = ((f[:-1] + 4.0 * _half_step_fields(f) + f[1:]) / 6.0 for f in (oa, ob))
    # M is anti-Hermitian, so M_j M_{j+1} = (M_{j+1} M_j)^dagger
    m10 = _product(m[..., 1:], m[..., :-1])
    omega = (h * _generators(simpson_a, simpson_b, delta)
             + (h * h / 12.0) * (m10 - np.conj(m10.swapaxes(0, 1))))
    d = _product(omega, omega) / 12.0 - 0.5 * omega
    for i in range(3):
        d[i, i] += 1.0
    # C[i, j] = D[i+1, j+1] D[i+2, j+2] - D[i+1, j+2] D[i+2, j+1]
    d_next, d_after = d[_NEXT], d[_AFTER]
    cof = d_next[:, _NEXT] * d_after[:, _AFTER] - d_next[:, _AFTER] * d_after[:, _NEXT]
    det = d[0, 0] * cof[0, 0] + d[0, 1] * cof[0, 1] + d[0, 2] * cof[0, 2]
    maps = _product(cof.swapaxes(0, 1), np.conj(d.swapaxes(0, 1)))
    maps /= det
    return maps


def _prefix_products(maps: np.ndarray) -> np.ndarray:
    """P_j = A_{j-1}...A_0 for j = 0..n-1 (P_0 = I) from n-1 maps: (3, 3, n).

    Blocked scan: the maps are cut into about sqrt(n) blocks, each block is
    swept sequentially (all blocks at once), the block carries are chained
    sequentially, and one product over all blocks applies them.
    """
    n_maps = maps.shape[-1]
    size = math.isqrt(n_maps - 1) + 1  # ceil(sqrt(n_maps))
    n_blocks = -(-n_maps // size)
    eye = np.eye(3)[..., None]
    blocks = np.empty((3, 3, n_blocks * size), dtype=complex)
    blocks[..., :n_maps] = maps
    blocks[..., n_maps:] = eye
    blocks = blocks.reshape(3, 3, n_blocks, size)
    for k in range(1, size):
        blocks[..., k] = _product(blocks[..., k], blocks[..., k - 1])
    carries = np.empty((3, 3, n_blocks), dtype=complex)
    carries[..., :1] = eye
    for q in range(1, n_blocks):
        carries[..., q] = blocks[..., q - 1, -1] @ carries[..., q - 1]
    out = np.empty((3, 3, n_maps + 1), dtype=complex)
    out[..., :1] = eye
    out[..., 1:] = _product(blocks, carries[..., None]).reshape(3, 3, -1)[..., :n_maps]
    return out


def integrate_bloch_slice(f_of_tau, rho_initial, delta: float, grid: GridSpec):
    """March the state along tau through one zeta slice.

    f_of_tau: pair of (n_tau,) complex arrays.  Returns the entry-major
    (3, 3, n_tau) slice, Hermitian to the last bit, and its
    algebra.state_figures as a density state.  Their eigenvalues are the
    band check: a slice outside it aborts the run.
    """
    oa, ob = f_of_tau
    oa = np.asarray(oa, dtype=complex)
    ob = np.asarray(ob, dtype=complex)
    if oa.shape != (grid.n_tau,) or ob.shape != (grid.n_tau,):
        raise ValueError("field slice length must match the tau grid")
    rho0 = np.asarray(rho_initial, dtype=complex)
    if not (np.isfinite(oa).all() and np.isfinite(ob).all() and np.isfinite(rho0).all()):
        raise StepUnstable("non-finite fields or state entering the slice")
    p = _prefix_products(_step_maps(oa, ob, float(delta), grid.h_tau))
    # entry (i, j) of P rho0 P^dagger is sum_k (P rho0)[i, k] conj(P[j, k]); the
    # diagonal and upper entries are computed, the lower ones are their conjugates
    left = _product(p, rho0[..., None])[_UPPER_ROWS]
    entries = (left * np.conj(p[_UPPER_COLS])).sum(axis=1)
    entries[:3] = entries[:3].real
    out = np.empty((3, 3, grid.n_tau), dtype=complex)
    out[_UPPER_ROWS, _UPPER_COLS] = entries
    out[_UPPER_COLS[3:], _UPPER_ROWS[3:]] = np.conj(entries[3:])
    figures = algebra.state_figures(out, "density")
    lo, hi = figures["eig_min"], figures["eig_max"]
    if not (lo >= -EIG_BAND and hi <= 1.0 + EIG_BAND):
        raise StepUnstable(
            f"state eigenvalues left [{-EIG_BAND}, 1+{EIG_BAND}]: min {lo:.3e}, max {hi:.3e}"
        )
    return out, figures


def _field_derivative(rho_slice, nu0: float):
    doa = 1j * nu0 * rho_slice[2, 0]
    dob = 1j * nu0 * rho_slice[2, 1]
    return doa, dob


def maxwell_step(rho_slice, f_slice, p: LambdaParams, rho_boundary_next, grid: GridSpec):
    """One predictor-corrector step of the fields in zeta, of the grid's h_zeta.

    rho_slice is the current slice's entry-major (3, 3, n_tau) state and
    rho_boundary_next the 3x3 tau_min state of the next slice.  Predict
    with the current slice's state, re-integrate the state on the
    predicted fields, then update with the averaged derivative.  Returns
    (fields at zeta + h_zeta, state slice there, its audit figures).
    """
    h_zeta = grid.h_zeta
    oa, ob = f_slice
    doa, dob = _field_derivative(rho_slice, p.nu0)
    oa_pred = oa + h_zeta * doa
    ob_pred = ob + h_zeta * dob
    rho_pred, _ = integrate_bloch_slice((oa_pred, ob_pred), rho_boundary_next, p.delta, grid)
    doa2, dob2 = _field_derivative(rho_pred, p.nu0)
    oa_next = oa + 0.5 * h_zeta * (doa + doa2)
    ob_next = ob + 0.5 * h_zeta * (dob + dob2)
    rho_next, figures = integrate_bloch_slice((oa_next, ob_next), rho_boundary_next,
                                              p.delta, grid)
    return (oa_next, ob_next), rho_next, figures


class MarchRows:
    """The solver's rows as a row source, each block asked for once, in order.

    initial_fields: pair of (n_tau,) complex arrays at zeta_min.
    boundary_rho: the tau_min state of every zeta row, an entry-major
    (3, 3, n_zeta) array.  rows(z0, z1) marches on to row z1 - 1 and
    returns the block's fields and entry-major state: row 0 is the entry
    slice (integrate_bloch_slice on the initial fields), each later row one
    maxwell_step from the row before, which is the only row held between
    blocks.  Asking for any block but the next raises ValueError.  figures
    is the worst of the audit figures (herm_dev, trace_dev, eig_min,
    eig_max) of every slice marched so far, folded by algebra.worse_figures
    in row order.
    """

    def __init__(self, initial_fields, boundary_rho, p: LambdaParams, grid: GridSpec):
        oa, ob = (np.array(f, dtype=complex) for f in initial_fields)
        if oa.shape != (grid.n_tau,) or ob.shape != (grid.n_tau,):
            raise ValueError("initial field slices must match the tau grid")
        boundary = np.asarray(boundary_rho, dtype=complex)
        if boundary.shape != (3, 3, grid.n_zeta):
            raise ValueError(f"boundary_rho must be shaped (3, 3, n_zeta) = "
                             f"{(3, 3, grid.n_zeta)}, got {boundary.shape}")
        self.grid, self.p, self._boundary = grid, p, boundary
        self._fields, self._rho, self._next = (oa, ob), None, 0
        self.figures = None

    def rows(self, z0: int, z1: int) -> Rows:
        grid = self.grid
        if z0 != self._next or not z0 < z1 <= grid.n_zeta:
            raise ValueError(f"the solver's rows come once each, in order: asked for rows "
                             f"{z0} to {z1 - 1}, the next is {self._next}")
        shape = (z1 - z0, grid.n_tau)
        oa, ob = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
        rho = np.empty((3, 3) + shape, dtype=complex)
        for i, z in enumerate(range(z0, z1)):
            if z == 0:
                self._rho, figures = integrate_bloch_slice(self._fields, self._boundary[..., 0],
                                                           self.p.delta, grid)
            else:
                self._fields, self._rho, figures = maxwell_step(
                    self._rho, self._fields, self.p, self._boundary[..., z], grid)
            (oa[i], ob[i]), rho[:, :, i] = self._fields, self._rho
            self.figures = algebra.worse_figures(self.figures, figures)
        self._next = z1
        return Rows(grid, oa, ob, rho)


def propagate(initial_fields, boundary_rho, p: LambdaParams, grid: GridSpec, consume: Callable):
    """March the full system from the entry-face slice and hand on its rows.

    consume(source) gets the solver's row source (MarchRows), and its
    result is returned, so the whole march runs inside this call: the
    command line's pass over the numeric route is such a consumer, and
    scenarios.build_numeric_grid's keeps every block.
    """
    return consume(MarchRows(initial_fields, boundary_rho, p, grid))
