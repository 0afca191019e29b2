"""Dressing engine: manufactures exact solutions from a seed background.

The construction follows one pattern in every regime: build the column
psi3 of the seed fundamental matrix selected by three constants, project
onto it, shift the spectrum, and read the new Hamiltonian and density
matrix off the dressing operator.  Three seed bases cover the parameter
space:

  regular     omega0 > 0, eps0 != omega0
  vanishing   omega0 = 0 (storage regime)
  confluent   eps0 = omega0 (rational solutions; basis carries a
              polynomial secular column instead of two exponentials)

For k != 0 the background phase rotates in zeta.  The rotated frame makes
the seed autonomous again at the cost of a mixed (and indefinite)
companion background state; the engine dresses there and conjugates the
result back.  A finite-difference gate verifies whichever seed the engine
is about to dress and refuses to proceed on a basis that is not actually
a solution of its linear system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import algebra, model
from .errors import DegenerateMapping, DegenerateSeed, ParameterGuard, SpectralPole
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
    return DressConstants(
        c1=a.a1 * omega0 * math.sqrt(s.eps0 / (2.0 * w2)),
        c2=a.a2 * math.sqrt(s.eps0 - w),
        c3=a.a3 * math.sqrt(s.eps0 + w),
    )


# ---------------------------------------------------------------------------
# seed bases
# ---------------------------------------------------------------------------

def _check_pole(p: LambdaParams, s: SpectralData):
    if abs(s.lambda0 - p.delta) <= model.POLE_GUARD:
        raise SpectralPole("seed evaluation at the lambda0 = Delta pole")


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
    alpha = p.omega0 / (-lam0 + 1j * w)
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


def seed_fundamental(p: LambdaParams, s: SpectralData, zeta: float, tau: float) -> np.ndarray:
    """Seed fundamental matrix at one point.

    Regular regime: constant frame times exponential columns times the
    scalar phase exp(i*k*Delta*zeta / (2*(lambda0 - Delta))).  Vanishing
    background: diagonal-frame basis with the decoupled ground column
    first.  The degenerate point eps0 = omega0 is rejected here; use
    confluent_seed_fundamental.
    """
    _check_pole(p, s)
    fam = seed_family(p, s)
    if fam == "confluent":
        raise DegenerateSeed(
            "basis columns coalesce at eps0 = omega0; use confluent_seed_fundamental"
        )
    mu1, mu2, _ = _mu_exponents(p, s, zeta, tau)
    phase = np.exp(1j * p.k * p.delta * np.asarray(zeta) / (2.0 * (s.lambda0 - p.delta)))
    if fam == "vanishing":
        if p.eta != 0.0:
            raise ParameterGuard("vanishing-background seed derived for eta = 0")
        if p.k != 0.0:
            raise ParameterGuard("vanishing background has no phase to rotate; set k = 0")
        out = np.zeros((3, 3), dtype=complex)
        out[1, 0] = np.exp(mu1)
        out[0, 1] = np.exp(-mu2)
        out[2, 2] = np.exp(mu2)
        return out
    S = _regular_structure(p, s)
    return phase * (S @ np.diag([np.exp(mu1), np.exp(-mu2), np.exp(mu2)]))


def confluent_seed_fundamental(p: LambdaParams, s: SpectralData, zeta: float, tau: float) -> np.ndarray:
    """Seed basis at the degenerate point eps0 = omega0.

    The two exponential columns are replaced by the limit column (i, 0, 1)
    and its secular partner, polynomial in the shifted time T.
    """
    _check_pole(p, s)
    if abs(s.eps0 - p.omega0) >= DEGENERATE_TOL:
        raise ParameterGuard("confluent basis requires eps0 = omega0")
    if p.eta != 0.0:
        raise ParameterGuard("confluent seed derived for eta = 0")
    om0 = p.omega0
    mu1, _, tvar = _mu_exponents(p, s, zeta, tau)
    phase = np.exp(1j * p.k * p.delta * np.asarray(zeta) / (2.0 * (s.lambda0 - p.delta)))
    out = np.zeros((3, 3), dtype=complex)
    out[1, 0] = np.exp(mu1)
    out[:, 1] = (1j, 0.0, 1.0)
    out[0, 2] = 1j * (om0 * tvar - 1.0)
    out[2, 2] = om0 * tvar + 1.0
    return phase * out


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
    dark = model.density_from_pure(model.dark_state(p.eta))
    if p.k == 0.0:
        return dark
    ce, se = math.cos(p.eta), math.sin(p.eta)
    h_const = model.interaction_hamiltonian((p.omega0 * ce, p.omega0 * se))
    return (
        p.k * p.delta / p.nu0 * (np.eye(3) + D_MATRIX)
        - 2.0 * p.k / p.nu0 * h_const
        + (1.0 - 4.0 * p.k * p.delta / p.nu0) * dark
    )


def _psi3_regular(p, s, c, zeta, tau):
    S = _regular_structure(p, s)
    mu1, mu2, _ = _mu_exponents(p, s, zeta, tau)
    return _combine_columns(
        (S[:, 0], S[:, 1], S[:, 2]), c.as_tuple(), (mu1, -mu2, mu2)
    )


def _psi3_vanishing(p, s, c, zeta, tau):
    if p.eta != 0.0:
        raise ParameterGuard("vanishing-background seed derived for eta = 0")
    if p.k != 0.0:
        raise ParameterGuard("vanishing background has no phase to rotate; set k = 0")
    mu1, mu2, _ = _mu_exponents(p, s, zeta, tau)
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    e2 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    # constants attach to the columns in the order (c2, c3, c1): the
    # vanishing-background closed forms are written in that labeling
    c1, c2, c3 = c.as_tuple()
    return _combine_columns((e1, e2, e3), (c2, c3, c1), (mu1, -mu2, mu2))


def _psi3_confluent(p, s, c, zeta, tau):
    if p.eta != 0.0:
        raise ParameterGuard("confluent seed derived for eta = 0")
    om0 = p.omega0
    mu1, _, tvar = _mu_exponents(p, s, zeta, tau)
    c1, c2, c3 = c.as_tuple()
    zero = np.zeros_like(tvar)
    shape = zero.shape + (3,)
    # secular pair: constant column and its polynomial partner
    pol2 = np.stack([1j * np.ones_like(tvar), zero, np.ones_like(tvar)], axis=-1)
    pol3 = np.stack([1j * (om0 * tvar - 1.0), zero, om0 * tvar + 1.0], axis=-1)
    m = np.maximum(np.real(mu1), 0.0) if c1 != 0.0 else np.zeros_like(np.real(mu1))
    col1 = np.zeros(shape, dtype=complex)
    col1[..., 1] = np.exp(mu1 - m)
    return c1 * col1 + (c2 * pol2 + c3 * pol3) * np.exp(-m)[..., None]


def _combine_columns(frame_cols, coefs, exponents):
    """Sum coef * column * exp(exponent) with the largest active real part factored out."""
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


def psi3_column(p: LambdaParams, s: SpectralData, c: DressConstants, zeta, tau) -> np.ndarray:
    """Dressing column over broadcastable (zeta, tau) arrays, family-dispatched.

    Normalized per point only up to a common factor; everything downstream
    is invariant under that scale.
    """
    _check_pole(p, s)
    fam = seed_family(p, s)
    zeta = np.asarray(zeta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if fam == "regular":
        return _psi3_regular(p, s, c, zeta, tau)
    if fam == "vanishing":
        return _psi3_vanishing(p, s, c, zeta, tau)
    return _psi3_confluent(p, s, c, zeta, tau)


def dressed_state(p: LambdaParams, s: SpectralData, psi3) -> np.ndarray:
    """Unit state of the k = 0 dressing by columns psi3: the image of the decoupled state."""
    n2 = np.sum(np.abs(psi3) ** 2, axis=-1)
    lam0 = s.lambda0
    dark = model.dark_state(p.eta)
    overlap = np.sum(np.conj(psi3) * dark, axis=-1)
    v = (np.conj(lam0) - p.delta) * dark + (lam0 - np.conj(lam0)) * psi3 * (overlap / n2)[..., None]
    return v / np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))[..., None]


def dressed_fields_and_state(p: LambdaParams, s: SpectralData, c: DressConstants,
                             zeta, tau):
    """Dressed fields and density matrix over broadcastable zeta/tau arrays.

    Returns (omega_a, omega_b, rho) in the physical frame.  For k != 0 the
    dressing happens in the rotated frame on the companion background state
    and the result is conjugated back, which multiplies the fields by
    exp(i*k*zeta).
    """
    zeta = np.asarray(zeta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    psi3 = psi3_column(p, s, c, zeta, tau)
    n2 = np.sum(np.abs(psi3) ** 2, axis=-1)
    lam0 = s.lambda0
    two_im = lam0 - np.conj(lam0)  # 2i eps0

    ce, se = math.cos(p.eta), math.sin(p.eta)
    oa_seed, ob_seed = p.omega0 * ce, p.omega0 * se
    p31 = psi3[..., 2] * np.conj(psi3[..., 0]) / n2
    p32 = psi3[..., 2] * np.conj(psi3[..., 1]) / n2
    oa = oa_seed - 2.0 * two_im * p31
    ob = ob_seed - 2.0 * two_im * p32

    if p.k == 0.0:
        v = dressed_state(p, s, psi3)
        return oa, ob, algebra.outer(v, v)
    p3 = algebra.outer(psi3, psi3) / n2[..., None, None]
    eye = np.eye(3, dtype=complex)
    sd = (np.conj(lam0) - p.delta) * eye + two_im * p3
    r2 = abs(lam0 - p.delta) ** 2
    rho = sd @ seed_background_state(p) @ algebra.adjoint(sd) / r2
    rot = np.exp(1j * p.k * zeta)
    oa = oa * rot
    ob = ob * rot
    ph = np.broadcast_to(np.exp(-1j * p.k * zeta), oa.shape)
    rho[..., 0, 2] *= ph
    rho[..., 1, 2] *= ph
    rho[..., 2, 0] *= np.conj(ph)
    rho[..., 2, 1] *= np.conj(ph)
    return oa, ob, rho


def seed_residual_report(p: LambdaParams, s: SpectralData) -> dict:
    """Finite-difference verification of the seed the engine will dress.

    Checks both linear systems at lambda0 against the seed Hamiltonian and
    companion state actually used (for k != 0: constant fields and the
    rotated-frame state, with the extra i*k*D/2 drift in the zeta system).
    For k != 0 it also reports the residual of the naive assignment
    (rotating fields with the pure decoupled state), which fails; the
    result documents why the engine dresses in the rotated frame.
    """
    h = SEED_GATE_FD_STEP
    fam = seed_family(p, s)

    def basis(z, t):
        if fam == "confluent":
            return confluent_seed_fundamental(p, s, z, t)
        return seed_fundamental(p, s, z, t)

    lam0 = s.lambda0
    ce, se = math.cos(p.eta), math.sin(p.eta)
    h_const = model.interaction_hamiltonian((p.omega0 * ce, p.omega0 * se))
    u_mat = model.lax_u(lam0, h_const)
    rho_seed = seed_background_state(p)
    v_mat = model.lax_v(lam0, rho_seed, p) + 0.5j * p.k * D_MATRIX

    worst_t = worst_z = 0.0
    worst_naive = 0.0
    for z, t in SEED_GATE_POINTS:
        phi = basis(z, t)
        scale = np.max(np.abs(phi))
        dt = (basis(z, t + h) - basis(z, t - h)) / (2 * h)
        dz = (basis(z + h, t) - basis(z - h, t)) / (2 * h)
        worst_t = max(worst_t, float(np.max(np.abs(dt - u_mat @ phi)) / scale))
        worst_z = max(worst_z, float(np.max(np.abs(dz - v_mat @ phi)) / scale))
        if p.k != 0.0:
            oa, ob = model.background_fields(p, z)
            u_naive = model.lax_u(lam0, model.interaction_hamiltonian((oa, ob)))
            v_naive = model.lax_v(lam0, model.density_from_pure(model.dark_state(p.eta)), p)
            r = max(
                float(np.max(np.abs(dt - u_naive @ phi)) / scale),
                float(np.max(np.abs(dz - v_naive @ phi)) / scale),
            )
            worst_naive = max(worst_naive, r)
    report = {
        "family": fam,
        "tau_residual": worst_t,
        "zeta_residual": worst_z,
        "fd_step": h,
        "passed": worst_t < SEED_GATE_TOL and worst_z < SEED_GATE_TOL,
    }
    if p.k != 0.0:
        report["naive_gauge_residual"] = worst_naive
    return report


def verify_seed_or_raise(p: LambdaParams, s: SpectralData) -> dict:
    """Gate used by scenario assembly for k != 0 dressing."""
    report = seed_residual_report(p, s)
    if not report["passed"]:
        raise ParameterGuard(
            "seed verification gate failed: tau residual "
            f"{report['tau_residual']:.2e}, zeta residual {report['zeta_residual']:.2e}"
        )
    return report
