"""Dressing engine: manufactures exact solutions from a seed background.

The construction follows one pattern in every regime: build the column
psi3 of the seed fundamental matrix selected by three constants, project
onto it, shift the spectrum, and read the new Hamiltonian and density
matrix off the dressing operator.  One seed basis, seed_columns, covers
the parameter space in three families, dispatched and guarded there once:

  regular     omega0 > 0, eps0 != omega0
  vanishing   omega0 = 0 (storage regime)
  confluent   eps0 = omega0 (rational solutions; basis carries a
              polynomial secular column instead of two exponentials)

For k != 0 the background phase rotates in zeta.  The rotated frame makes
the seed autonomous again at the cost of a mixed (and indefinite)
companion background state; the engine dresses there and conjugates the
result back.  psi3_column combines the seed columns with the constants,
and seed_frame stacks the same columns with their exponents; a
finite-difference gate on that frame, run on every dressing build,
refuses to proceed on a basis that is not a solution of its linear
system.  The gate never forms an exponential, so its verdict does not
depend on how fast a column grows.

The grid engine works entry by entry on arrays of the lattice shape: the
column is three arrays, every length-3 sum is (x0 + x1) + x2, and the
only 3x3 stack formed is the state itself, entry-major (3, 3, ...) as a
grid holds it.  np.sum over a last axis of three adds in the same order
but from a +0.0 start, so the two differ only on a sum whose terms are
all -0.0, which np.sum makes +0.0 and (x0 + x1) + x2 leaves -0.0; k = 0
grids keep the bits of the stacked form wherever no such sum arises.
The one-fold dressing factor is the identity plus a rank-one projector
(Zakharov and Shabat, Funct. Anal. Appl. 13, 166, 1979), so the k != 0
state is the companion background plus rank-one terms, with no batched
3x3 product.
dressed_density forms that state alone; the closed forms take their
states from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import algebra, model
from .errors import DegenerateMapping, ParameterGuard, SpectralPole
from .model import D_MATRIX, LambdaParams, SpectralData

#: below this |eps0 - omega0| the exponential basis columns coalesce
DEGENERATE_TOL = 1e-8

#: finite-difference residual threshold of the seed verification gate
SEED_GATE_TOL = 1e-6

#: (zeta, tau) points and central-difference step of the seed verification gate
SEED_GATE_POINTS = ((0.3, -0.7), (1.1, 0.4), (2.3, 1.9))
SEED_GATE_FD_STEP = 1e-5


@dataclass(frozen=True)
class DressConstants:
    """Linear-combination constants selecting the dressing column."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if self.c1 == 0.0 and self.c2 == 0.0 and self.c3 == 0.0:
            raise ValueError("dressing constants must not all vanish")

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class SolitonConstants:
    """Position constants of the two-soliton closed form; a2 is fixed to 1."""

    a1: float
    a3: float
    a2: float = 1.0

    def __post_init__(self):
        if self.a2 != 1.0:
            raise ValueError("a2 is fixed to 1 by convention")


def map_constants(a: SolitonConstants, s: SpectralData, omega0: float) -> DressConstants:
    """Translate two-soliton position constants into dressing constants.

    Singular at eps0 <= omega0; the degenerate regimes are parameterized by
    DressConstants directly.
    """
    w2 = s.eps0**2 - omega0**2
    if w2 <= 0:
        raise DegenerateMapping(
            f"mapping requires eps0 > omega0 (eps0={s.eps0}, omega0={omega0})"
        )
    w = math.sqrt(w2)
    # eps0 - w written as omega0^2 / (eps0 + w), which does not cancel at eps0 >> omega0
    return DressConstants(
        c1=a.a1 * omega0 * math.sqrt(s.eps0 / (2.0 * w2)),
        c2=a.a2 * math.sqrt(omega0**2 / (s.eps0 + w)),
        c3=a.a3 * math.sqrt(s.eps0 + w),
    )


# ---------------------------------------------------------------------------
# seed basis
# ---------------------------------------------------------------------------

def seed_family(p: LambdaParams, s: SpectralData) -> str:
    if p.omega0 == 0.0:
        return "vanishing"
    if abs(s.eps0 - p.omega0) < DEGENERATE_TOL:
        return "confluent"
    return "regular"


def _regular_structure(p: LambdaParams, s: SpectralData) -> np.ndarray:
    """Constant column frame of the regular seed basis.

    The first column carries the normalization 2*root/omega0.  With it, the
    soliton-constant mapping composes with the dressing to land exactly on
    the two-soliton closed form; at unit normalization the dressed solution
    comes out translated by log(omega0 / (2*root)) in the slow phase.
    """
    lam0, w = s.lambda0, s.root
    if abs(math.pi / 2 - p.eta) < 1e-12:
        raise ParameterGuard("regular seed basis undefined at eta = pi/2")
    gamma = 2.0 * w / p.omega0
    # omega0 / (i (w - eps0)), without the cancellation of eps0 - w
    alpha = 1j * (s.eps0 + w) / p.omega0
    beta = -p.omega0 / (lam0 + 1j * w)
    ce, se = math.cos(p.eta), math.sin(p.eta)
    return np.array(
        [
            [-gamma * math.tan(p.eta), alpha * ce, beta * ce],
            [gamma, alpha * se, beta * se],
            [0.0, 1.0, 1.0],
        ],
        dtype=complex,
    )


def _mu_exponents(p: LambdaParams, s: SpectralData, zeta, tau):
    """Column exponents mu1, mu2 and the shifted time T = tau + k*zeta/(lambda0-Delta)."""
    lam0 = s.lambda0
    zeta = np.asarray(zeta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    tvar = tau + p.k * zeta / (lam0 - p.delta)
    mu1 = 0.5j * lam0 * tvar + 0.5j * (p.nu0 - 4.0 * p.k * p.delta) * zeta / (lam0 - p.delta)
    mu2 = 0.5 * s.root * tvar
    return mu1, mu2, tvar


def seed_columns(p: LambdaParams, s: SpectralData, zeta, tau):
    """The seed basis over broadcastable (zeta, tau): (family, columns, exponents).

    Column j is its three entries, constants or arrays of the broadcast
    shape; the basis is column j times exp(exponents[j]), times the scalar
    phase exp(i*k*Delta*zeta / (2*(lambda0 - Delta))).  Regular regime:
    the constant frame's columns with exponents (mu1, -mu2, mu2).
    Vanishing background: the unit columns |3>, |2>, |1> with exponents
    (mu2, mu1, -mu2), in the order the storage-regime closed forms use
    the constants c1, c2, c3.  Degenerate point eps0 = omega0: the
    exponential column, then the limit column (i, 0, 1) and its secular
    partner (i (omega0 T - 1), 0, omega0 T + 1), polynomial in the shifted
    time T, which carry no exponential.
    """
    if abs(s.lambda0 - p.delta) <= model.POLE_GUARD:
        raise SpectralPole("seed evaluation at the lambda0 = Delta pole")
    fam = seed_family(p, s)
    if fam != "regular" and p.eta != 0.0:
        raise ParameterGuard(f"{fam} seed derived for eta = 0")
    if fam == "vanishing" and p.k != 0.0:
        raise ParameterGuard("vanishing background has no phase to rotate; set k = 0")
    mu1, mu2, tvar = _mu_exponents(p, s, zeta, tau)
    if fam == "regular":
        S = _regular_structure(p, s)
        return fam, (S[:, 0], S[:, 1], S[:, 2]), (mu1, -mu2, mu2)
    e = np.eye(3, dtype=complex)
    if fam == "vanishing":
        return fam, (e[2], e[1], e[0]), (mu2, mu1, -mu2)
    om0 = p.omega0
    zero = np.zeros(tvar.shape, dtype=complex)
    secular = (1j * (om0 * tvar - 1.0), zero, (om0 * tvar + 1.0) + zero)
    return fam, (e[1], (1j + zero, zero, 1.0 + zero), secular), (mu1, 0.0, 0.0)


def seed_frame(p: LambdaParams, s: SpectralData, zeta, tau):
    """The seed basis without its exponentials: the seed_columns stacked.

    Returns the columns as one (..., 3, 3) array and their exponents, the
    k-phase's included, as one (..., 3) array; basis column j is
    frame[..., :, j] * exp(exponents[..., j]).
    """
    _, cols, exps = seed_columns(p, s, zeta, tau)
    zeta = np.asarray(zeta, dtype=float)
    kap = 1j * p.k * p.delta * zeta / (2.0 * (s.lambda0 - p.delta))
    shape = np.broadcast_shapes(zeta.shape, np.shape(tau))
    mat = np.empty(shape + (3, 3), dtype=complex)
    ex = np.empty(shape + (3,), dtype=complex)
    for j, (col, e) in enumerate(zip(cols, exps)):
        ex[..., j] = e + kap
        for i in range(3):
            mat[..., i, j] = col[i]
    return mat, ex


# ---------------------------------------------------------------------------
# grid engine
# ---------------------------------------------------------------------------

def seed_background_state(p: LambdaParams) -> np.ndarray:
    """Companion background state of the (rotated-frame) seed.

    k = 0: the pure decoupled-state projector.  k != 0: the unique
    Hermitian trace-one background supporting the rotating phase; it is
    indefinite (one eigenvalue is -k*sqrt(Delta^2+omega0^2)/nu0-like), so
    the k != 0 sector rides on a formal rather than a statistical state.
    """
    dark = algebra.projector(model.dark_state(p.eta))
    if p.k == 0.0:
        return dark
    h_const = model.interaction_hamiltonian(model.background_fields(p, 0.0))
    return (
        p.k * p.delta / p.nu0 * (np.eye(3) + D_MATRIX)
        - 2.0 * p.k / p.nu0 * h_const
        + (1.0 - 4.0 * p.k * p.delta / p.nu0) * dark
    )


def _combine_columns(frame_cols, coefs, exponents):
    """Sum coef * column * exp(exponent) with the largest active real part factored out.

    Entry by entry: returns the three entries of the sum.  Each sum starts
    from 0.0, as the stacked reference's does; a term whose coefficient
    times column entry is exactly zero adds a signed zero to a partial
    sum that is never -0.0, which changes no bit, so it is skipped.
    """
    active = [(cf, np.asarray(col), np.asarray(ex))
              for col, cf, ex in zip(frame_cols, coefs, exponents) if cf != 0.0]
    m = np.real(active[0][2])
    for _, _, ex in active[1:]:
        m = np.maximum(m, np.real(ex))
    out = [None, None, None]
    for cf, col, ex in active:
        scaled = cf * col
        e = np.exp(ex - m)
        for i in range(3):
            if scaled[i] != 0.0:
                out[i] = (0.0 if out[i] is None else out[i]) + scaled[i] * e
    return tuple(np.zeros(m.shape, dtype=complex) if o is None else o for o in out)


def psi3_column(p: LambdaParams, s: SpectralData, c: DressConstants, zeta, tau):
    """Dressing column over broadcastable (zeta, tau) arrays: the seed columns combined.

    Returns the column entry by entry, as three arrays of the broadcast
    shape.  Normalized per point only up to a common factor; everything
    downstream is invariant under that scale.  At the degenerate point
    every entry is c1 * col1 exp(mu1 - m) + (c2 * col2 + c3 * col3) * exp(-m),
    col1 being a unit column, with each operation on the same operand
    types as in the stacked reference (tests/pointwise_oracle.py), so even
    the signed zeros of the empty entries agree with it.
    """
    fam, cols, exps = seed_columns(p, s, zeta, tau)
    c1, c2, c3 = c.as_tuple()
    if fam != "confluent":
        return _combine_columns(cols, (c1, c2, c3), exps)
    (col1, col2, col3), mu1 = cols, exps[0]
    m = np.maximum(np.real(mu1), 0.0) if c1 != 0.0 else np.zeros_like(np.real(mu1))
    decay = np.exp(-m)
    # col1 is a unit column: c1 * col1 * exp(mu1 - m) is c1 * exp(mu1 - m)
    # where col1 holds 1 and c1 * 0 elsewhere, as in the stacked reference;
    # at c1 = 0, 0 * exp(mu1) is NaN where exp(mu1) overflows, and 0 times its
    # phase, which never overflows, is the same signed zero
    zero = np.zeros(np.shape(m), dtype=complex)
    scaled = np.exp(mu1 - m) if c1 != 0.0 else np.exp(1j * np.imag(mu1))
    first = tuple(scaled if x == 1.0 else zero for x in col1)
    return tuple(c1 * a + (c2 * b + c3 * d) * decay for a, b, d in zip(first, col2, col3))


def _norm2(v):
    """Squared length of a column given entry by entry, summed as (x0 + x1) + x2."""
    return (np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2) + np.abs(v[2]) ** 2


def _unit_state(p: LambdaParams, s: SpectralData, psi3, n2):
    """Entries of the k = 0 dressed unit state; n2 is _norm2(psi3)."""
    lam0 = s.lambda0
    dark = model.dark_state(p.eta)
    overlap = ((np.conj(psi3[0]) * dark[0] + np.conj(psi3[1]) * dark[1])
               + np.conj(psi3[2]) * dark[2])
    shift = (np.conj(lam0) - p.delta) * dark
    weight = overlap / n2
    v = [shift[i] + (lam0 - np.conj(lam0)) * psi3[i] * weight for i in range(3)]
    norm = np.sqrt(_norm2(v))
    return tuple(x / norm for x in v)


def _formal_state(p: LambdaParams, s: SpectralData, psi3, n2, zeta) -> np.ndarray:
    """k != 0 state sd B sd^dagger / r2 as a rank-one update of B, in the physical frame.

    With sd = alpha I + beta u u^dagger, u = psi3 / |psi3|, w = B u:

        rho_ij = (|alpha|^2 B_ij + alpha conj(beta) w_i conj(u_j)
                  + conj(alpha) beta u_i conj(w_j)
                  + |beta|^2 (u^dagger w) u_i conj(u_j)) / r2
               = |alpha|^2 B_ij / r2 + x_i conj(u_j) + u_i conj(x_j),

    x = (alpha conj(beta) w + |beta|^2 (u^dagger w) u / 2) / r2.  The upper
    triangle is computed and the lower one is its conjugate, so the state
    is Hermitian to the bit; the (0, 2) and (1, 2) entries carry the
    frame phase exp(-i k zeta).  The state is entry-major, (3, 3) + the
    grid shape, each entry written as one whole array.
    """
    lam0 = s.lambda0
    alpha = np.conj(lam0) - p.delta
    beta = lam0 - np.conj(lam0)
    r2 = abs(lam0 - p.delta) ** 2
    b = seed_background_state(p)
    inv = 1.0 / np.sqrt(n2)
    u = [x * inv for x in psi3]
    w = [np.zeros_like(u[0]) for _ in range(3)]
    for i, j in zip(*np.nonzero(b)):
        w[i] += b[i, j] * u[j]
    uw = sum(np.real(np.conj(u[i]) * w[i]) for i in range(3))
    x = [(alpha * np.conj(beta) / r2) * w[i] + (0.5 * abs(beta) ** 2 / r2) * uw * u[i]
         for i in range(3)]
    ph = np.exp(-1j * p.k * zeta)
    rho = np.empty((3, 3) + u[0].shape, dtype=complex)
    base = abs(alpha) ** 2 / r2 * b
    for i in range(3):
        rho[i, i] = base[i, i].real + 2.0 * np.real(x[i] * np.conj(u[i]))
        for j in range(i + 1, 3):
            entry = base[i, j] + x[i] * np.conj(u[j]) + u[i] * np.conj(x[j])
            if j == 2:
                entry = entry * ph
            rho[i, j] = entry
            rho[j, i] = np.conj(entry)
    return rho


def _column_and_state(p: LambdaParams, s: SpectralData, c: DressConstants, zeta, tau):
    """(psi3, its squared length, the dressed state) over broadcastable zeta/tau arrays."""
    zeta = np.asarray(zeta, dtype=float)
    psi3 = psi3_column(p, s, c, zeta, tau)
    n2 = _norm2(psi3)
    if p.k == 0.0:
        return psi3, n2, algebra.projector(_unit_state(p, s, psi3, n2))
    return psi3, n2, _formal_state(p, s, psi3, n2, zeta)


def dressed_density(p: LambdaParams, s: SpectralData, c: DressConstants, zeta, tau) -> np.ndarray:
    """The dressed density matrix alone, entry-major (3, 3, ...): dressed_fields_and_state's."""
    return _column_and_state(p, s, c, zeta, tau)[2]


def dressed_fields_and_state(p: LambdaParams, s: SpectralData, c: DressConstants,
                             zeta, tau):
    """Dressed fields and density matrix over broadcastable zeta/tau arrays.

    Returns (omega_a, omega_b, rho) in the physical frame, worked entry by
    entry on arrays of the broadcast shape; rho is the one 3x3 stack that
    is formed, entry-major: (3, 3) + the broadcast shape, so rho[i, j] is
    one contiguous array over the nodes.  k = 0: the projector onto the
    dressed unit state.  k != 0: the dressing happens in the rotated frame
    on the companion background state, whose image is a rank-one update
    of it (_formal_state), and the result is conjugated back, which
    multiplies the fields by exp(i*k*zeta).
    """
    psi3, n2, rho = _column_and_state(p, s, c, zeta, tau)
    lam0 = s.lambda0
    two_im = lam0 - np.conj(lam0)  # 2i eps0

    oa_seed, ob_seed = model.background_fields(p, 0.0)
    p31 = psi3[2] * np.conj(psi3[0]) / n2
    p32 = psi3[2] * np.conj(psi3[1]) / n2
    oa = oa_seed - 2.0 * two_im * p31
    ob = ob_seed - 2.0 * two_im * p32
    if p.k == 0.0:
        return oa, ob, rho
    rot = np.exp(1j * p.k * np.asarray(zeta, dtype=float))
    return oa * rot, ob * rot, rho


def seed_residual_report(p: LambdaParams, s: SpectralData) -> dict:
    """Finite-difference verification of the seed the engine will dress.

    Checks the seed_columns that psi3_column combines against both linear
    systems L at lambda0, with the seed Hamiltonian and companion state
    actually used (for k != 0: constant fields and the rotated-frame
    state, with the extra i*k*D/2 drift in the zeta system).  No
    exponential is formed: divided by exp(ex_j), column j's residual is
    d col_j + col_j d ex_j - L col_j, the column differenced centrally and
    the exponent, affine in (zeta, tau), by its exact unit difference.  It
    is taken relative to the column's largest entry, so the verdict does
    not depend on how fast the column grows.
    """
    h = SEED_GATE_FD_STEP
    lam0 = s.lambda0
    h_const = model.interaction_hamiltonian(model.background_fields(p, 0.0))
    u_mat = model.lax_u(lam0, h_const)
    v_mat = model.lax_v(lam0, seed_background_state(p), p) + 0.5j * p.k * D_MATRIX

    res = {"tau": [], "zeta": []}
    for z, t in SEED_GATE_POINTS:
        mat, ex = seed_frame(p, s, z, t)
        for name, lax, dz, dt in (("tau", u_mat, 0.0, 1.0), ("zeta", v_mat, 1.0, 0.0)):
            dmat = (seed_frame(p, s, z + h * dz, t + h * dt)[0]
                    - seed_frame(p, s, z - h * dz, t - h * dt)[0]) / (2 * h)
            rate = seed_frame(p, s, z + dz, t + dt)[1] - ex
            r = dmat + mat * rate - lax @ mat
            res[name].append(np.max(np.abs(r), axis=0) / np.max(np.abs(mat), axis=0))
    # np.max, not max: a NaN residual must reach the verdict and fail it
    worst_t, worst_z = float(np.max(res["tau"])), float(np.max(res["zeta"]))
    return {
        "family": seed_family(p, s),
        "tau_residual": worst_t,
        "zeta_residual": worst_z,
        "fd_step": h,
        "passed": worst_t < SEED_GATE_TOL and worst_z < SEED_GATE_TOL,
    }


def verify_seed_or_raise(p: LambdaParams, s: SpectralData) -> dict:
    """Gate run by scenario assembly on every dressing build."""
    report = seed_residual_report(p, s)
    if not report["passed"]:
        raise ParameterGuard(
            "seed verification gate failed: tau residual "
            f"{report['tau_residual']:.2e}, zeta residual {report['zeta_residual']:.2e}"
        )
    return report
