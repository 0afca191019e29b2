"""Residual and property harness for solution grids.

All derivative checks use second-order central stencils on interior nodes
only; a genuine solution therefore shows residuals falling by ~4x when the
grid is refined by 2x, and that convergence ratio (not the raw residual)
is the pass criterion used by the acceptance suite.

The field-equation (PDE) residual and the zero-curvature residual at every
probe come from one shared-term pass per grid (residual_reports). D is
constant and V = c rho is proportional to the state, so both residuals are
sums of the same four entry-wise terms: the zeta difference of H, the tau
difference of rho, [D, rho] = (d_i - d_j) rho_ij and [H, rho] from H's
four non-zero entries. The pass builds them one matrix entry (i, j) at a
time on the interior nodes and folds each report's max |x| and sum |x|^2
as it goes, so no (..., 3, 3) array and no batched 3x3 product is formed.

The density audit works the same way: one pass over the nine rho[..., i, j]
views, a chunk of nodes at a time, with the extreme eigenvalues of each
node from algebra.hermitian_eigenvalues (cyclic Jacobi on per-entry
arrays) instead of LAPACK. Every maximum is NaN-propagating, so a
non-finite state entry fails the audit instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import algebra, model
from .errors import GridMismatch, SpectralPole
from .mbsolver import SolutionGrid
from .model import LambdaParams


@dataclass
class ResidualReport:
    """Maximum / quadratic-mean residual of one check on one grid."""

    name: str
    max_abs: float
    l2: float
    grid_h: Tuple[float, float]
    lambda_probe: Optional[complex] = None
    convergence_order: Optional[float] = None

    def as_text(self) -> str:
        lines = [
            f"check: {self.name}",
            f"max_abs: {self.max_abs:.6e}",
            f"l2: {self.l2:.6e}",
            f"h_tau: {self.grid_h[0]:.6e}",
            f"h_zeta: {self.grid_h[1]:.6e}",
        ]
        if self.lambda_probe is not None:
            lines.append(f"lambda_probe: {self.lambda_probe}")
        if self.convergence_order is not None:
            lines.append(f"convergence_order: {self.convergence_order:.3f}")
        return "\n".join(lines)


def _central_dzeta(arr, h):
    return (arr[2:, 1:-1] - arr[:-2, 1:-1]) / (2.0 * h)


def _central_dtau(arr, h):
    return (arr[1:-1, 2:] - arr[1:-1, :-2]) / (2.0 * h)


def _interior(arr):
    return arr[1:-1, 1:-1]


class _Norms:
    """Running max |x| and sum |x|^2 over the entries of one residual.

    ``width`` is the number of entries per node the residual has, zeros
    included, so the quadratic mean divides as if every entry were added.
    """

    def __init__(self, width: int):
        self.width = width
        self.max_abs = np.float64(0.0)
        self.sum_sq = 0.0

    def add(self, entry: np.ndarray):
        mag = np.abs(entry)
        # np.maximum, not max(): max(0.0, nan) is 0.0, and a NaN must fail
        self.max_abs = np.maximum(self.max_abs, mag.max())
        self.sum_sq += np.square(mag, out=mag).sum()

    def report(self, name, grid, lam=None) -> ResidualReport:
        nodes = (grid.n_zeta - 2) * (grid.n_tau - 2)
        l2 = float(np.sqrt(self.sum_sq / (self.width * nodes)))
        return ResidualReport(name, float(self.max_abs), l2, (grid.h_tau, grid.h_zeta), lam)


#: non-zero entries of [D, rho] = (d_i - d_j) rho_ij for D = diag(1, 1, -1)
_D_COMMUTATOR = {(0, 2): 2.0, (1, 2): 2.0, (2, 0): -2.0, (2, 1): -2.0}


def residual_reports(solution: SolutionGrid, p: LambdaParams, probes=()) -> list:
    """PDE residual, then the zero-curvature residual at each probe lambda.

    One pass over the 9 entries (i, j) of the interior nodes. Each entry's
    terms are built once and shared by every report: dH (the zeta
    difference of H, non-zero at the 4 coupling entries only), dRho (the
    tau difference of rho), [D, rho] and [H, rho]. With c = i nu0 / 2(lam
    - Delta), U = i lam D / 2 - i H and V = c rho, the residuals are

        pde = (dH - i nu0 [D, rho] / 4,  dRho - i (Delta [D, rho] / 2 - [H, rho]))
        zc  = dU - dV + [U, V] = -i dH - c dRho + c (i lam [D, rho] / 2 - i [H, rho])

    entry by entry, which is the matmul form with D constant and V
    proportional to rho; no full (..., 3, 3) array is built.
    """
    for lam in probes:
        if abs(lam - p.delta) <= model.POLE_GUARD:
            raise SpectralPole(f"probe lambda {lam} sits on the Delta pole")
    grid = solution.grid
    if grid.n_zeta < 3 or grid.n_tau < 3:
        raise ValueError("residual check needs at least a 3x3 grid")
    rho = solution.rho
    if rho is None:
        raise ValueError("residual check needs the full per-node state, which the solver "
                         "keeps only on grids of at most RHO_STORAGE_LIMIT nodes")
    # the non-zero entries of model.interaction_hamiltonian
    h = {(2, 0): -0.5 * solution.omega_a, (2, 1): -0.5 * solution.omega_b}
    h[0, 2], h[1, 2] = np.conj(h[2, 0]), np.conj(h[2, 1])
    h_in = {ij: _interior(v) for ij, v in h.items()}
    rho_in = _interior(rho)

    pde = _Norms(18)
    zcs = []
    for lam in probes:
        c = 0.5j * p.nu0 / (lam - p.delta)
        zcs.append((lam, c, c * 0.5j * lam, _Norms(9)))
    q = 0.25j * p.nu0
    for i in range(3):
        for j in range(3):
            # [H, rho]_ij = sum_k H_ik rho_kj - rho_ik H_kj over the non-zero H entries
            h_rho = sum(h_in[i, k] * rho_in[..., k, j] for k in range(3) if (i, k) in h_in)
            h_rho = h_rho - sum(rho_in[..., i, k] * h_in[k, j] for k in range(3) if (k, j) in h_in)
            d_rho = _central_dtau(rho[..., i, j], grid.h_tau)
            shared = -d_rho - 1j * h_rho  # c times this is -c dRho - i c [H, rho]
            if (i, j) in h:
                d_h = _central_dzeta(h[i, j], grid.h_zeta)
                d_comm = _D_COMMUTATOR[i, j] * rho_in[..., i, j]
                pde.add(d_h - q * d_comm)
                pde.add(d_rho - 1j * (0.5 * p.delta * d_comm - h_rho))
                for _, c, ck, norms in zcs:
                    norms.add(c * shared + ck * d_comm - 1j * d_h)
            else:
                pde.add(d_rho + 1j * h_rho)
                for _, c, _, norms in zcs:
                    norms.add(c * shared)
    return [pde.report("pde", grid)] + [
        norms.report("zero_curvature", grid, lam) for lam, _, _, norms in zcs]


def zero_curvature_residual(solution: SolutionGrid, lam: complex, p: LambdaParams) -> ResidualReport:
    """Compatibility residual of the auxiliary linear system at probe lambda.

    Kept for the benchmark's traced spans; the CLI calls residual_reports.
    """
    return residual_reports(solution, p, (lam,))[1]


def pde_residual(solution: SolutionGrid, p: LambdaParams) -> ResidualReport:
    """Field equation and state equation residuals, combined elementwise max.

    Kept for the benchmark's traced spans; the CLI calls residual_reports.
    """
    return residual_reports(solution, p)[0]


#: nodes per chunk of the density audit: a chunk's entry arrays stay
#: small, so the audit's working memory does not grow with the grid
_AUDIT_CHUNK = 8192


# a non-finite entry comes out as a NaN (or inf) metric; numpy's
# invalid-value warnings on the way add nothing to that
@np.errstate(invalid="ignore")
def audit_density(solution: SolutionGrid) -> ResidualReport:
    """Hermiticity, trace, positivity and (when claimed) purity of the state.

    One entry-wise pass over the nine rho[..., i, j] views, _AUDIT_CHUNK
    nodes at a time. Per chunk it takes the Hermiticity defect from
    2 |Im rho_ii| and |rho_ij - conj rho_ji|, the trace defect, the purity
    defect |sum_ij |rho_ij|^2 - 1| of pure grids, and the smallest and
    largest eigenvalue of the Hermitian part from
    algebra.hermitian_eigenvalues (cyclic Jacobi, no LAPACK eigensolver).
    Formal grids are scored on Hermiticity and trace only and skip the
    eigenvalues. Every reduction propagates NaN, so a non-finite entry
    gives a NaN metric, which fails any tolerance.

    For grids that no longer carry the full state, falls back to the
    streaming metrics the solver recorded while marching.
    """
    grid = solution.grid
    if solution.rho is None:
        meta = solution.meta
        if "trace_dev" not in meta:
            raise ValueError("grid carries neither states nor streaming audit metrics")
        worst = float(np.max([
            meta["trace_dev"],
            np.maximum(0.0, -meta["eig_min"]),
            np.maximum(0.0, meta["eig_max"] - 1.0),
        ]))
        return ResidualReport("density_audit", worst, worst, (grid.h_tau, grid.h_zeta))
    kind = solution.state_kind
    rho = solution.rho.reshape(-1, 3, 3)
    herm = trace = purity = np.float64(0.0)
    lo, hi = np.float64(np.inf), np.float64(-np.inf)
    for start in range(0, rho.shape[0], _AUDIT_CHUNK):
        r = rho[start:start + _AUDIT_CHUNK]
        d0, d1, d2 = (r[:, i, i] for i in range(3))
        upper = [(r[:, i, j], r[:, j, i]) for i, j in ((0, 1), (0, 2), (1, 2))]
        for d in (d0, d1, d2):
            herm = np.maximum(herm, 2.0 * np.abs(d.imag).max())
        for a, b in upper:
            herm = np.maximum(herm, np.abs(a - np.conj(b)).max())
        trace = np.maximum(trace, np.abs(d0 + d1 + d2 - 1.0).max())
        if kind == "pure":
            sq = [np.square(np.abs(r[:, i, j])) for i in range(3) for j in range(3)]
            # np.sum's order over the 9 row-major entries: 8 pairwise, then the last
            frob2 = (((sq[0] + sq[1]) + (sq[2] + sq[3]))
                     + ((sq[4] + sq[5]) + (sq[6] + sq[7]))) + sq[8]
            purity = np.maximum(purity, np.abs(frob2 - 1.0).max())
        if kind != "formal":
            eig = algebra.hermitian_eigenvalues(
                d0.real, d1.real, d2.real, *(0.5 * (a + np.conj(b)) for a, b in upper))
            lo, hi = np.minimum(lo, np.min(eig)), np.maximum(hi, np.max(eig))
    metrics = [herm, trace]
    # companion states are Hermitian/trace-one by construction but
    # indefinite by design; positivity is not scored
    if kind != "formal":
        metrics += [np.maximum(0.0, -lo), np.maximum(0.0, hi - 1.0)]
    if kind == "pure":
        metrics.append(purity)
    worst = float(np.max(metrics))
    rep = ResidualReport("density_audit", worst, worst, (grid.h_tau, grid.h_zeta))
    if kind == "formal":
        rep.name = "density_audit[formal: positivity not claimed]"
    return rep


def compare_solutions(a: SolutionGrid, b: SolutionGrid) -> ResidualReport:
    """Elementwise distance between two grids on the same lattice."""
    if a.grid != b.grid:
        raise GridMismatch("solution grids live on different lattices")
    diffs = [
        np.abs(a.omega_a - b.omega_a),
        np.abs(a.omega_b - b.omega_b),
    ]
    if a.rho is not None and b.rho is not None:
        diffs.append(np.max(np.abs(a.rho - b.rho), axis=(-2, -1)))
    stacked = np.stack(diffs)
    return ResidualReport(
        "compare",
        float(np.max(stacked)),
        float(np.sqrt(np.mean(stacked**2))),
        (a.grid.h_tau, a.grid.h_zeta),
    )


def convergence_order(coarse: ResidualReport, fine: ResidualReport) -> float:
    """Observed order between two refinements (h and h/2).

    A zero fine residual gives inf, a zero coarse one -inf, a NaN gives NaN.
    """
    if math.isnan(coarse.max_abs) or math.isnan(fine.max_abs):
        return math.nan
    if fine.max_abs == 0.0:
        return math.inf
    if coarse.max_abs == 0.0:
        return -math.inf
    return math.log2(coarse.max_abs / fine.max_abs)
