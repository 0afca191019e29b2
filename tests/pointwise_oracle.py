"""Pointwise dressing pipeline: the oracle the grid engine is tested against.

One point at a time, the dressing is built from its definition: seed
fundamental matrix (seed_fundamental: darboux.seed_frame times its
exponentials) -> biorthogonal partner -> column matrix psi1 -> dressing
operator -> dressed Hamiltonian and density matrix, whose channel
amplitudes extract_fields reads back out.  The grid engine (darboux.dressed_fields_and_state) assembles only
the dressing column, with per-point exponent factoring, so this
materialized construction is an independent route to the same solution;
it is meant for moderate windows, where the seed basis stays well
conditioned.  The exact 3x3 kernels it needs (determinant, adjugate,
cofactor inverse with a scale-invariant singularity guard, commutator)
live here with it, beside the stacked helpers (adjoint, outer) that
only the tests use.

The stacked dressing reference after the pointwise pipeline is the grid
engine in stacked form: the column as one (..., 3) array, length-3
np.sum reductions and an outer-product projector at k = 0, and the
batched product sd @ B @ adjoint(sd) / r2 with its frame phase at
k != 0.  darboux.dressed_fields_and_state is held to it bit for bit at
k = 0 and to rounding at k != 0.

The residual stencils at the end are the matmul form of the field-equation
and zero-curvature residuals: full (..., 3, 3) H, U and V arrays and
batched 3x3 products, the reference that verify.residual_reports, which
works entry by entry, is tested against. The density audit beside them
takes its eigenvalues from LAPACK (np.linalg.eigvalsh), the reference for
verify.audit_density and its entry-wise Jacobi eigenvalues. A grid holds
its state entry-major, (3, 3, n_zeta, n_tau); these references read it
through node_major, the (n_zeta, n_tau, 3, 3) view of the same data.

Last come the strided pass: verify.residual_reports and
verify.audit_density as they were written for a node-major grid, where
every entry rho[..., i, j] is a view strided by a whole 3x3 matrix,
frozen and adapted only by reading the state through node_major.  The
entry-major code is held to them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from lambda_mb import algebra, darboux, model
from lambda_mb.darboux import DressConstants
from lambda_mb.errors import LambdaMBError, SpectralPole
from lambda_mb.model import D_MATRIX
from lambda_mb.verify import ResidualReport

#: relative singularity guard: |det m| must exceed SINGULARITY_RTOL * ||m||^3
SINGULARITY_RTOL = 1e-12


class SingularMatrix(LambdaMBError):
    """3x3 inverse requested for a matrix below the singularity guard."""


class DegeneratePsi(LambdaMBError):
    """Column matrix of the dressing construction is (numerically) singular."""


class NotLambdaStructured(LambdaMBError):
    """Hamiltonian does not have the two-coupling ladder structure."""


# ---------------------------------------------------------------------------
# exact 3x3 kernels
# ---------------------------------------------------------------------------

def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing shape (3, 3), got {m.shape}")
    return m


def adjoint(m) -> np.ndarray:
    """Conjugate transpose, entry (i, j) -> conj(entry (j, i))."""
    m = as_matrix(m)
    return np.conj(np.swapaxes(m, -1, -2))


def outer(u, v) -> np.ndarray:
    """|u><v| for stacked vectors: result[..., i, j] = u_i * conj(v_j)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return u[..., :, None] * np.conj(v)[..., None, :]


def det3(m) -> np.ndarray:
    """Determinant by explicit expansion along the first row."""
    m = as_matrix(m)
    a, b, c = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    d, e, f = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    g, h, i = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate3(m) -> np.ndarray:
    """Transposed cofactor matrix, so that m @ adjugate3(m) = det3(m) * I."""
    m = as_matrix(m)
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
    m = as_matrix(m)
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
    a, b = as_matrix(a), as_matrix(b)
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# dressing, one point at a time
# ---------------------------------------------------------------------------

def extract_fields(h, tol: float = 1e-8):
    """Read the channel amplitudes (omega_a, omega_b) back out of a ladder Hamiltonian.

    Raises NotLambdaStructured when the diagonal, the 1-2 block or the
    Hermiticity deviate beyond tol: downstream that signals a broken
    dressing step, not a recoverable condition.
    """
    h = np.asarray(h, dtype=complex)
    scale = max(float(np.max(np.abs(h))), 1.0)
    herm = np.max(np.abs(h - adjoint(h)))
    structure = max(
        float(np.max(np.abs(h[..., 0, 0]))),
        float(np.max(np.abs(h[..., 1, 1]))),
        float(np.max(np.abs(h[..., 2, 2]))),
        float(np.max(np.abs(h[..., 0, 1]))),
        float(np.max(np.abs(h[..., 1, 0]))),
    )
    if herm > tol * scale or structure > tol * scale:
        raise NotLambdaStructured(
            f"hermiticity dev {herm:.2e}, structure dev {structure:.2e} (scale {scale:.2e})"
        )
    return -2.0 * h[..., 2, 0], -2.0 * h[..., 2, 1]


@dataclass(frozen=True)
class SpectralMatrixL:
    """Diagonal matrix spectral parameter of the dressing transformation."""

    diag: Tuple[complex, complex, complex]

    @classmethod
    def for_eigenvalue(cls, lambda0: complex) -> "SpectralMatrixL":
        return cls((np.conj(lambda0), np.conj(lambda0), lambda0))

    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.diag, dtype=complex))




def seed_fundamental(p, s, zeta, tau) -> np.ndarray:
    """Seed fundamental matrix, (..., 3, 3), every family: the engine's seed frame exponentiated."""
    mat, ex = darboux.seed_frame(p, s, zeta, tau)
    return mat * np.exp(ex)[..., None, :]


def biorthogonal_partner(phi0) -> np.ndarray:
    """Inverse-adjoint partner whose columns are biorthonormal to phi0's."""
    return adjoint(inverse(phi0))


def build_psi1(phi0, c: DressConstants) -> np.ndarray:
    """Column matrix of the dressing operator.

    Third column: the combination of phi0 columns selected by c.  First and
    second: combinations of the partner's columns chosen so both are exactly
    orthogonal to the third (a consequence of biorthonormality, for any c).
    Columns are rescaled to unit peak magnitude; the dressing operator only
    sees their spans, so the scaling is free and keeps the matrix inverse
    well-behaved.
    """
    phi0 = np.asarray(phi0, dtype=complex)
    phib = biorthogonal_partner(phi0)
    c1, c2, c3 = c.as_tuple()
    psi3 = c1 * phi0[:, 0] + c2 * phi0[:, 1] + c3 * phi0[:, 2]
    psi1 = (np.conj(c2) + np.conj(c3)) * phib[:, 0] - np.conj(c1) * (phib[:, 1] + phib[:, 2])
    psi2 = np.conj(c3) * phib[:, 1] - np.conj(c2) * phib[:, 2]
    cols = []
    for v in (psi1, psi2, psi3):
        peak = np.max(np.abs(v))
        if peak == 0.0:
            raise DegeneratePsi("a dressing column vanished for these constants")
        cols.append(v / peak)
    psi = np.stack(cols, axis=-1)
    scale = np.max(np.abs(psi))
    if abs(det3(psi)) <= 1e-10 * scale**3:
        raise DegeneratePsi("dressing column matrix is singular at this point")
    return psi


def sigma1(psi1, l1: SpectralMatrixL, shift: complex) -> np.ndarray:
    """Dressing operator psi1 (L1 - shift) psi1^{-1}."""
    psi1 = np.asarray(psi1, dtype=complex)
    core = l1.matrix() - shift * np.eye(3)
    return psi1 @ core @ inverse(psi1)


def dress(seed_h, seed_rho, psi1, l1: SpectralMatrixL, delta: float):
    """Dress a seed solution: new Hamiltonian and density matrix.

    Uses the spectral form of the dressing operator built from the third
    column of psi1 (valid because the construction keeps the other two
    columns orthogonal to it, which is checked here).  The inverse at the
    shifted argument is taken in closed form from the same decomposition,
    so the transformation stays exact arbitrarily deep into the soliton
    tails where the column matrix itself becomes ill-conditioned.
    """
    psi1 = np.asarray(psi1, dtype=complex)
    lam0c, lam0c2, lam0 = l1.diag
    if not np.isclose(lam0c, np.conj(lam0)) or not np.isclose(lam0c2, np.conj(lam0)):
        raise ValueError("spectral matrix must be diag(conj(l0), conj(l0), l0)")
    psi3 = psi1[:, 2]
    n3 = np.linalg.norm(psi3)
    ortho = max(abs(np.vdot(psi3, psi1[:, 0])), abs(np.vdot(psi3, psi1[:, 1])))
    if ortho > 1e-8 * n3 * np.max(np.abs(psi1)):
        raise DegeneratePsi(f"conjugate-channel columns not orthogonal to psi3 ({ortho:.2e})")
    for lam in (lam0, lam0c):
        if abs(lam - delta) <= model.POLE_GUARD:
            raise SpectralPole("dressing shift collides with a spectral eigenvalue")
    p3 = outer(psi3, psi3) / n3**2
    s0 = lam0c * np.eye(3) + (lam0 - lam0c) * p3
    h = np.asarray(seed_h, dtype=complex) - 0.5 * commutator(D_MATRIX, s0)
    sd = s0 - delta * np.eye(3)
    sd_inv = (np.eye(3) - p3) / (lam0c - delta) + p3 / (lam0 - delta)
    rho = sd @ np.asarray(seed_rho, dtype=complex) @ sd_inv
    extract_fields(h)  # post-check: raises NotLambdaStructured on failure
    return h, rho


# ---------------------------------------------------------------------------
# stacked dressing reference
# ---------------------------------------------------------------------------

def _stacked_combine(frame_cols, coefs, exponents):
    reals = [np.real(np.asarray(e)) for e, cf in zip(exponents, coefs)]
    active = [r for r, cf in zip(reals, coefs) if cf != 0.0]
    m = active[0]
    for r in active[1:]:
        m = np.maximum(m, r)
    out = 0.0
    for col, cf, ex in zip(frame_cols, coefs, exponents):
        if cf == 0.0:
            continue
        out = out + cf * np.asarray(col) * np.exp(np.asarray(ex) - m)[..., None]
    return out


def stacked_psi3(p, s, c, zeta, tau) -> np.ndarray:
    """Dressing column as one (..., 3) array, family by family."""
    zeta = np.asarray(zeta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    fam = darboux.seed_family(p, s)
    mu1, mu2, tvar = darboux._mu_exponents(p, s, zeta, tau)
    c1, c2, c3 = c.as_tuple()
    if fam == "regular":
        S = darboux._regular_structure(p, s)
        return _stacked_combine((S[:, 0], S[:, 1], S[:, 2]), (c1, c2, c3), (mu1, -mu2, mu2))
    if fam == "vanishing":
        e1, e2, e3 = np.eye(3, dtype=complex)[[1, 0, 2]]
        return _stacked_combine((e1, e2, e3), (c2, c3, c1), (mu1, -mu2, mu2))
    om0 = p.omega0
    zero = np.zeros_like(tvar)
    shape = zero.shape + (3,)
    pol2 = np.stack([1j * np.ones_like(tvar), zero, np.ones_like(tvar)], axis=-1)
    pol3 = np.stack([1j * (om0 * tvar - 1.0), zero, om0 * tvar + 1.0], axis=-1)
    m = np.maximum(np.real(mu1), 0.0) if c1 != 0.0 else np.zeros_like(np.real(mu1))
    col1 = np.zeros(shape, dtype=complex)
    col1[..., 1] = np.exp(mu1 - m)
    return c1 * col1 + (c2 * pol2 + c3 * pol3) * np.exp(-m)[..., None]


def stacked_dressed_state(p, s, psi3) -> np.ndarray:
    """k = 0 dressed unit state from a stacked column."""
    n2 = np.sum(np.abs(psi3) ** 2, axis=-1)
    lam0 = s.lambda0
    dark = model.dark_state(p.eta)
    overlap = np.sum(np.conj(psi3) * dark, axis=-1)
    v = (np.conj(lam0) - p.delta) * dark + (lam0 - np.conj(lam0)) * psi3 * (overlap / n2)[..., None]
    return v / np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))[..., None]


def stacked_dressed_fields_and_state(p, s, c, zeta, tau):
    """(omega_a, omega_b, rho) from stacked columns and batched 3x3 products."""
    zeta = np.asarray(zeta, dtype=float)
    psi3 = stacked_psi3(p, s, c, zeta, tau)
    n2 = np.sum(np.abs(psi3) ** 2, axis=-1)
    lam0 = s.lambda0
    two_im = lam0 - np.conj(lam0)
    oa_seed, ob_seed = p.omega0 * math.cos(p.eta), p.omega0 * math.sin(p.eta)
    oa = oa_seed - 2.0 * two_im * (psi3[..., 2] * np.conj(psi3[..., 0]) / n2)
    ob = ob_seed - 2.0 * two_im * (psi3[..., 2] * np.conj(psi3[..., 1]) / n2)
    if p.k == 0.0:
        v = stacked_dressed_state(p, s, psi3)
        return oa, ob, outer(v, v)
    p3 = outer(psi3, psi3) / n2[..., None, None]
    sd = (np.conj(lam0) - p.delta) * np.eye(3) + two_im * p3
    r2 = abs(lam0 - p.delta) ** 2
    rho = sd @ darboux.seed_background_state(p) @ adjoint(sd) / r2
    rot = np.exp(1j * p.k * zeta)
    ph = np.broadcast_to(np.exp(-1j * p.k * zeta), oa.shape)
    rho[..., 0, 2] *= ph
    rho[..., 1, 2] *= ph
    rho[..., 2, 0] *= np.conj(ph)
    rho[..., 2, 1] *= np.conj(ph)
    return oa * rot, ob * rot, rho


# ---------------------------------------------------------------------------
# matmul residual stencils
# ---------------------------------------------------------------------------

def _central_dzeta(arr, h):
    return (arr[2:, 1:-1] - arr[:-2, 1:-1]) / (2.0 * h)


def _central_dtau(arr, h):
    return (arr[1:-1, 2:] - arr[1:-1, :-2]) / (2.0 * h)


def _interior(arr):
    return arr[1:-1, 1:-1]


def _report(name, res, grid, lam=None) -> ResidualReport:
    flat = np.abs(res).reshape(res.shape[0] * res.shape[1], -1)
    max_abs = float(np.max(flat))
    l2 = float(np.sqrt(np.mean(flat**2)))
    return ResidualReport(name, max_abs, l2, (grid.h_tau, grid.h_zeta), lam)


def node_major(rho) -> np.ndarray:
    """The (..., 3, 3) view of an entry-major (3, 3, ...) state."""
    return np.moveaxis(rho, (0, 1), (-2, -1))


def reference_zero_curvature_residual(solution, lam: complex, p) -> ResidualReport:
    """dU/dzeta - dV/dtau + [U, V] from the full Lax matrices."""
    if abs(lam - p.delta) <= model.POLE_GUARD:
        raise SpectralPole(f"probe lambda {lam} sits on the Delta pole")
    grid = solution.grid
    h = model.interaction_hamiltonian((solution.omega_a, solution.omega_b))
    u = model.lax_u(lam, h)
    v = model.lax_v(lam, node_major(solution.rho), p)
    res = (
        _central_dzeta(u, grid.h_zeta)
        - _central_dtau(v, grid.h_tau)
        + _interior(u @ v - v @ u)
    )
    return _report("zero_curvature", res, grid, lam)


def reference_pde_residual(solution, p) -> ResidualReport:
    """Field equation and state equation residuals from full 3x3 products."""
    grid = solution.grid
    rho = node_major(solution.rho)
    h = model.interaction_hamiltonian((solution.omega_a, solution.omega_b))
    maxwell = _central_dzeta(h, grid.h_zeta) - 0.25j * p.nu0 * _interior(
        D_MATRIX @ rho - rho @ D_MATRIX
    )
    g = 0.5 * p.delta * D_MATRIX - h
    liouville = _central_dtau(rho, grid.h_tau) - 1j * _interior(g @ rho - rho @ g)
    res = np.concatenate([maxwell, liouville], axis=-1)
    return _report("pde", res, grid)


# ---------------------------------------------------------------------------
# whole-array density audit
# ---------------------------------------------------------------------------

def reference_audit_density(solution) -> ResidualReport:
    """Hermiticity, trace, positivity and purity from full (..., 3, 3) arrays."""
    grid = solution.grid
    rho = node_major(solution.rho)
    herm = float(np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2)))))
    trace = float(np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)))
    metrics = [herm, trace]
    if solution.state_kind != "formal":
        eig = np.linalg.eigvalsh(0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2))))
        metrics += [max(0.0, -eig.min()), max(0.0, eig.max() - 1.0)]
    if solution.state_kind == "pure":
        frob2 = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
        metrics.append(float(np.max(np.abs(frob2 - 1.0))))
    worst = float(max(metrics))
    name = "density_audit"
    if solution.state_kind == "formal":
        name += "[formal: positivity not claimed]"
    return ResidualReport(name, worst, worst, (grid.h_tau, grid.h_zeta))


# ---------------------------------------------------------------------------
# the strided pass: entry-wise residuals and audit on a node-major state
# ---------------------------------------------------------------------------

class _StridedNorms:
    """Running max |x| and sum |x|^2 over the entries of one residual."""

    def __init__(self, width: int):
        self.width = width
        self.max_abs = np.float64(0.0)
        self.sum_sq = 0.0

    def add(self, entry: np.ndarray):
        mag = np.abs(entry)
        self.max_abs = np.maximum(self.max_abs, mag.max())
        self.sum_sq += np.square(mag, out=mag).sum()

    def report(self, name, grid, lam=None) -> ResidualReport:
        nodes = (grid.n_zeta - 2) * (grid.n_tau - 2)
        l2 = float(np.sqrt(self.sum_sq / (self.width * nodes)))
        return ResidualReport(name, float(self.max_abs), l2, (grid.h_tau, grid.h_zeta), lam)


_STRIDED_D_COMMUTATOR = {(0, 2): 2.0, (1, 2): 2.0, (2, 0): -2.0, (2, 1): -2.0}


def strided_residual_reports(solution, p, probes=()) -> list:
    """PDE residual, then the zero-curvature residual at each probe lambda.

    One pass over the 9 entries (i, j) of the interior nodes, each entry a
    strided view rho[..., i, j] of the node-major state, differenced by
    dividing by 2h; each [H, rho] sum starts from 0.
    """
    for lam in probes:
        if abs(lam - p.delta) <= model.POLE_GUARD:
            raise SpectralPole(f"probe lambda {lam} sits on the Delta pole")
    grid = solution.grid
    if grid.n_zeta < 3 or grid.n_tau < 3:
        raise ValueError("residual check needs at least a 3x3 grid")
    rho = node_major(solution.rho)
    h = {(2, 0): -0.5 * solution.omega_a, (2, 1): -0.5 * solution.omega_b}
    h[0, 2], h[1, 2] = np.conj(h[2, 0]), np.conj(h[2, 1])
    h_in = {ij: _interior(v) for ij, v in h.items()}
    rho_in = _interior(rho)

    pde = _StridedNorms(18)
    zcs = []
    for lam in probes:
        c = 0.5j * p.nu0 / (lam - p.delta)
        zcs.append((lam, c, c * 0.5j * lam, _StridedNorms(9)))
    q = 0.25j * p.nu0
    for i in range(3):
        for j in range(3):
            h_rho = sum(h_in[i, k] * rho_in[..., k, j] for k in range(3) if (i, k) in h_in)
            h_rho = h_rho - sum(rho_in[..., i, k] * h_in[k, j] for k in range(3) if (k, j) in h_in)
            d_rho = _central_dtau(rho[..., i, j], grid.h_tau)
            shared = -d_rho - 1j * h_rho
            if (i, j) in h:
                d_h = _central_dzeta(h[i, j], grid.h_zeta)
                d_comm = _STRIDED_D_COMMUTATOR[i, j] * rho_in[..., i, j]
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


_STRIDED_AUDIT_CHUNK = 8192


@np.errstate(invalid="ignore")
def strided_audit_density(solution) -> ResidualReport:
    """Hermiticity, trace, positivity and purity over (n, 3, 3) chunks of the state.

    Only grids that carry their state; every reduction propagates NaN.
    """
    grid = solution.grid
    kind = solution.state_kind
    rho = node_major(solution.rho).reshape(-1, 3, 3)
    herm = trace = purity = np.float64(0.0)
    lo, hi = np.float64(np.inf), np.float64(-np.inf)
    for start in range(0, rho.shape[0], _STRIDED_AUDIT_CHUNK):
        r = rho[start:start + _STRIDED_AUDIT_CHUNK]
        d0, d1, d2 = (r[:, i, i] for i in range(3))
        upper = [(r[:, i, j], r[:, j, i]) for i, j in ((0, 1), (0, 2), (1, 2))]
        for d in (d0, d1, d2):
            herm = np.maximum(herm, 2.0 * np.abs(d.imag).max())
        for a, b in upper:
            herm = np.maximum(herm, np.abs(a - np.conj(b)).max())
        trace = np.maximum(trace, np.abs(d0 + d1 + d2 - 1.0).max())
        if kind == "pure":
            sq = [np.square(np.abs(r[:, i, j])) for i in range(3) for j in range(3)]
            frob2 = (((sq[0] + sq[1]) + (sq[2] + sq[3]))
                     + ((sq[4] + sq[5]) + (sq[6] + sq[7]))) + sq[8]
            purity = np.maximum(purity, np.abs(frob2 - 1.0).max())
        if kind != "formal":
            eig = algebra.hermitian_eigenvalues(
                d0.real, d1.real, d2.real, *(0.5 * (a + np.conj(b)) for a, b in upper))
            lo, hi = np.minimum(lo, np.min(eig)), np.maximum(hi, np.max(eig))
    metrics = [herm, trace]
    if kind != "formal":
        metrics += [np.maximum(0.0, -lo), np.maximum(0.0, hi - 1.0)]
    if kind == "pure":
        metrics.append(purity)
    worst = float(np.max(metrics))
    rep = ResidualReport("density_audit", worst, worst, (grid.h_tau, grid.h_zeta))
    if kind == "formal":
        rep.name = "density_audit[formal: positivity not claimed]"
    return rep
