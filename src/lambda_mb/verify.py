"""Residual and property harness for solution grids.

All derivative checks use second-order central stencils on interior nodes
only; a genuine solution therefore shows residuals falling by ~4x when the
grid is refined by 2x, and that convergence ratio (not the raw residual)
is the pass criterion used by the acceptance suite.

A grid's state is entry-major, (3, 3, n_zeta, n_tau), so each matrix
entry rho[i, j] is one contiguous (n_zeta, n_tau) array.

The field-equation (PDE) residual and the zero-curvature residual at every
probe come from one shared-term pass, ResidualFold, the one residual
kernel: sums of four entry-wise terms, built one matrix entry at a time
on the interior nodes, with no 3x3 stack. It takes a lattice's zeta rows
in order, in blocks of any size, and carries two rows of halo, so a
forward-only stream can feed it; residual_reports is its pull form over a
row source (grid and rows(z0, z1) -> mbsolver.Rows). The command line
feeds it the analytic route's own stream and that stream's even rows and
columns (GridSpec.coarse), so the observed order is that of the grid
produced.

The density audit works in blocks of zeta rows too:
algebra.state_figures, the kernel that also audits every slice the solver
writes, takes each entry-major (3, 3, rows, n_tau) block whole, and
algebra.worse_figures folds the blocks; the extreme eigenvalues of each
node come from algebra.hermitian_eigenvalues (cyclic Jacobi on per-entry
arrays) instead of LAPACK. audit_report scores folded figures, whether a
stored state's (audit_density, any route's grid) or the solver's own
slices' (the numeric route's source.figures).
Every maximum is NaN-propagating, so a non-finite state entry fails the
audit instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import algebra, model
from .errors import GridMismatch, SpectralPole
from .mbsolver import GridSpec, SolutionGrid
from .model import LambdaParams


@dataclass
class ResidualReport:
    """Maximum / quadratic-mean residual of one check on one grid.

    A compare also keeps sum_sq, the sum of the squares whose mean l2 is
    the root of, so that CompareFold adds the squares themselves.
    """

    name: str
    max_abs: float
    l2: float
    grid_h: Tuple[float, float]
    lambda_probe: Optional[complex] = None
    convergence_order: Optional[float] = None
    sum_sq: Optional[float] = None

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


def _quotient(diff, h):
    """diff / (2h), the central-difference quotient.

    A complex diff is multiplied by 1 / (2h), which is how numpy divides a
    complex array by a real scalar: the same bits, several times faster. A
    real diff (the fields of a real closed form) is divided, because a
    real quotient is rounded once and a product with the reciprocal twice.
    """
    if np.iscomplexobj(diff):
        return diff * (1.0 / (2.0 * h))
    return diff / (2.0 * h)


def _central_dzeta(arr, h):
    return _quotient(arr[2:, 1:-1] - arr[:-2, 1:-1], h)


def _central_dtau(arr, h):
    return _quotient(arr[1:-1, 2:] - arr[1:-1, :-2], h)


def _interior(arr):
    return arr[1:-1, 1:-1]


def _sum(terms):
    """t0 + t1 + ... in that order, started from the first (fresh) term."""
    terms = iter(terms)
    total = next(terms)
    for t in terms:
        total += t
    return total


class _Norms:
    """Running max |x| and sum |x|^2 over the entries of one residual.

    ``width`` is the number of entries per node the residual has, zeros
    included, so the quadratic mean divides as if every entry were added.
    """

    def __init__(self, width: int):
        self.width = width
        self.max_abs = np.float64(0.0)
        self.sum_sq = 0.0

    def add(self, top, sum_sq):
        # np.maximum, not max(): max(0.0, nan) is 0.0, and a NaN must fail
        self.max_abs = np.maximum(self.max_abs, top)
        self.sum_sq += sum_sq

    def report(self, name, grid, lam=None) -> ResidualReport:
        nodes = (grid.n_zeta - 2) * (grid.n_tau - 2)
        l2 = float(np.sqrt(self.sum_sq / (self.width * nodes)))
        return ResidualReport(name, float(self.max_abs), l2, (grid.h_tau, grid.h_zeta), lam)


def _magnitudes(entry, mag):
    """(max |x|, sum |x|^2) of one residual entry, through the scratch array mag."""
    np.abs(entry, out=mag)
    top = mag.max()
    return top, np.square(mag, out=mag).sum()


#: non-zero entries of [D, rho] = (d_i - d_j) rho_ij for D = diag(1, 1, -1)
_D_COMMUTATOR = {(0, 2): 2.0, (1, 2): 2.0, (2, 0): -2.0, (2, 1): -2.0}


class ResidualFold:
    """PDE residual, then the zero-curvature residual at each probe lambda, folded block by block.

    add(rows) takes the lattice's next zeta rows as mbsolver.Rows, in
    blocks of any size, and carries the last two rows into the next block
    as its halo; a block with no state (closed_form_field_rows) raises
    ValueError before any arithmetic on it.

    One pass over the 9 entries (i, j) of each block's interior nodes.
    Each entry's terms are built once: dH (the zeta difference of H,
    non-zero at the 4 coupling entries only), dRho (the tau difference of
    rho), [D, rho] and [H, rho]. With c = i nu0 / 2(lam - Delta), U = i lam
    D / 2 - i H and V = c rho, the residuals are

        pde = (P1, P2) = (dH - i nu0 [D, rho] / 4,  dRho - i (Delta [D, rho] / 2 - [H, rho]))
        zc  = dU - dV + [U, V] = -i dH - c dRho + c (i lam [D, rho] / 2 - i [H, rho])

    entry by entry, which is the matmul form with D constant and V
    proportional to rho; no 3x3 stack is built. The zero-curvature entries
    fold out of the PDE ones: zc = -i P1 - c P2 on the coupling entries
    and zc = -c P2 on the other five, where P1 is 0. Those five take no
    per-probe work: their max |zc| and sum |zc|^2 are |c| and |c|^2 times
    the PDE ones. The fold rounds differently from the expanded form; the
    tests hold the two to 1e-12 relative.
    """

    def __init__(self, grid: GridSpec, p: LambdaParams, probes=()):
        for lam in probes:
            if abs(lam - p.delta) <= model.POLE_GUARD:
                raise SpectralPole(f"probe lambda {lam} sits on the Delta pole")
        if grid.n_zeta < 3 or grid.n_tau < 3:
            raise ValueError("residual check needs at least a 3x3 grid")
        self.grid, self.p = grid, p
        self.carry = None  # the last two rows added, the next block's halo
        self.pde = _Norms(18)
        self.free = _Norms(5)  # the PDE entries off the coupling entries, where zc = -c P2
        self.zcs = [(lam, 0.5j * p.nu0 / (lam - p.delta), _Norms(9)) for lam in probes]

    def add(self, rows):
        """Fold the next block of zeta rows."""
        if rows.rho is None:
            raise ValueError("residual check needs the full per-node state; this source has none")
        if self.carry is None:
            oa, ob, rho = rows.omega_a, rows.omega_b, rows.rho
        else:
            oa = np.concatenate([self.carry[0], rows.omega_a])
            ob = np.concatenate([self.carry[1], rows.omega_b])
            rho = np.concatenate([self.carry[2], rows.rho], axis=2)
        self.carry = (oa[-2:].copy(), ob[-2:].copy(), rho[:, :, -2:].copy())
        if len(oa) < 3:
            return
        grid, pde = self.grid, self.pde
        m = np.empty((len(oa) - 2, grid.n_tau - 2))
        z = np.empty(m.shape, dtype=complex)
        # the non-zero entries of model.interaction_hamiltonian
        h = {(2, 0): -0.5 * oa, (2, 1): -0.5 * ob}
        h[0, 2], h[1, 2] = np.conj(h[2, 0]), np.conj(h[2, 1])
        h_in = {ij: _interior(v) for ij, v in h.items()}
        rho_in = {(i, j): _interior(rho[i, j]) for i in range(3) for j in range(3)}
        for i in range(3):
            for j in range(3):
                # [H, rho]_ij = sum_k H_ik rho_kj - rho_ik H_kj over the non-zero H
                # entries; every entry has at least one term on each side
                h_rho = _sum(h_in[i, k] * rho_in[k, j] for k in range(3) if (i, k) in h_in)
                h_rho -= _sum(rho_in[i, k] * h_in[k, j] for k in range(3) if (k, j) in h_in)
                d_rho = _central_dtau(rho[i, j], grid.h_tau)
                if (i, j) in h:
                    d_comm = _D_COMMUTATOR[i, j] * rho_in[i, j]
                    p1 = _central_dzeta(h[i, j], grid.h_zeta) - 0.25j * self.p.nu0 * d_comm
                    p2 = d_rho - 1j * (0.5 * self.p.delta * d_comm - h_rho)
                    pde.add(*_magnitudes(p1, m))
                    pde.add(*_magnitudes(p2, m))
                    i_p1 = np.multiply(p1, 1j, out=p1)
                    for _, c, norms in self.zcs:
                        # -zc, whose magnitude is that of zc
                        np.multiply(p2, c, out=z)
                        z += i_p1
                        norms.add(*_magnitudes(z, m))
                else:
                    norms = _magnitudes(d_rho + 1j * h_rho, m)
                    pde.add(*norms)
                    self.free.add(*norms)

    def report(self) -> list:
        """The pde report, then one zero_curvature report per probe."""
        reports = [self.pde.report("pde", self.grid)]
        for lam, c, norms in self.zcs:
            zc = _Norms(9)
            zc.add(norms.max_abs, norms.sum_sq)
            zc.add(abs(c) * self.free.max_abs, abs(c) ** 2 * self.free.sum_sq)
            reports.append(zc.report("zero_curvature", self.grid, lam))
        return reports


def residual_reports(source, p: LambdaParams, probes=()) -> list:
    """ResidualFold's reports over a row source, read in the blocks of grid.blocks().

    source.rows(z0, z1) -> mbsolver.Rows gives zeta rows z0 to z1 - 1 of
    the lattice source.grid; each row is asked for once, in order.
    """
    fold = ResidualFold(source.grid, p, probes)
    for z0, z1 in source.grid.blocks():
        fold.add(source.rows(z0, z1))
    return fold.report()


def zero_curvature_residual(solution: SolutionGrid, lam: complex, p: LambdaParams) -> ResidualReport:
    """Compatibility residual of the auxiliary linear system at probe lambda.

    Kept for the benchmark's traced spans; the CLI feeds ResidualFold.
    """
    return residual_reports(solution, p, (lam,))[1]


def pde_residual(solution: SolutionGrid, p: LambdaParams) -> ResidualReport:
    """Field equation and state equation residuals, combined elementwise max.

    Kept for the benchmark's traced spans; the CLI feeds ResidualFold.
    """
    return residual_reports(solution, p)[0]


def audit_report(figures: dict, kind: str, grid: GridSpec) -> ResidualReport:
    """Score a state's folded figures: Hermiticity, trace, positivity and (when claimed) purity.

    figures are algebra.state_figures folded by algebra.worse_figures, of
    the blocks of zeta rows of a stored or streamed state or of the
    slices the solver wrote (its meta). Formal states are scored on
    Hermiticity and trace only. A figure that is missing or NaN gives a
    NaN metric, which fails any tolerance.
    """
    metrics = [figures.get("herm_dev", np.nan), figures.get("trace_dev", np.nan)]
    # companion states are Hermitian/trace-one by construction but
    # indefinite by design; positivity is not scored
    if kind != "formal":
        metrics += [np.maximum(0.0, -figures.get("eig_min", np.nan)),
                    np.maximum(0.0, figures.get("eig_max", np.nan) - 1.0)]
    if kind == "pure":
        metrics.append(figures.get("purity_dev", np.nan))
    worst = float(np.max(metrics))
    name = "density_audit[formal: positivity not claimed]" if kind == "formal" else "density_audit"
    return ResidualReport(name, worst, worst, (grid.h_tau, grid.h_zeta))


def audit_density(solution: SolutionGrid) -> ResidualReport:
    """audit_report of a stored state, read in the blocks of grid.blocks()."""
    figures = None
    for z0, z1 in solution.grid.blocks():
        figures = algebra.worse_figures(
            figures, algebra.state_figures(solution.rows(z0, z1).rho, solution.state_kind))
    return audit_report(figures, solution.state_kind, solution.grid)


def compare_solutions(a, b) -> ResidualReport:
    """Elementwise distance between two solutions on the same lattice.

    a and b hold grid, omega_a, omega_b and rho: the same mbsolver.Rows of
    two row sources, as CompareFold.add takes them block by block, or two
    stored SolutionGrids, read whole. The states are compared too where
    both hold one.
    """
    if a.grid != b.grid:
        raise GridMismatch("solution grids live on different lattices")
    diffs = [
        np.abs(a.omega_a - b.omega_a),
        np.abs(a.omega_b - b.omega_b),
    ]
    if a.rho is not None and b.rho is not None:
        diffs.append(np.max(np.abs(a.rho - b.rho), axis=(0, 1)))
    stacked = np.stack(diffs)
    sum_sq = float(np.sum(stacked**2))
    return ResidualReport("compare", float(np.max(stacked)), math.sqrt(sum_sq / stacked.size),
                          (a.grid.h_tau, a.grid.h_zeta), sum_sq=sum_sq)


class CompareFold:
    """compare_solutions over a lattice, folded from its blocks of rows.

    Each block's report adds its max and its sum of squares; the
    lattice's l2 is the root of the sum over the number of compared
    values, as compare_solutions takes it on one block.
    """

    def __init__(self):
        self.max_abs = np.float64(0.0)
        self.sum_sq, self.count, self.grid = 0.0, 0, None

    def add(self, a, b):
        """Fold compare_solutions of the same Rows of two solutions."""
        rep = compare_solutions(a, b)
        n = a.omega_a.size * (2 if a.rho is None or b.rho is None else 3)
        # np.maximum, not max(): max(0.0, nan) is 0.0, and a NaN must fail
        self.max_abs = np.maximum(self.max_abs, rep.max_abs)
        self.sum_sq += rep.sum_sq
        self.count += n
        self.grid = a.grid

    def report(self, name: str) -> ResidualReport:
        return ResidualReport(name, float(self.max_abs), math.sqrt(self.sum_sq / self.count),
                              (self.grid.h_tau, self.grid.h_zeta), sum_sq=self.sum_sq)


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
