"""Domain types for the three-level ladder system and its Lax matrices.

Everything lives in dimensionless units with hbar = c = 1: zeta = z/c and
tau = t - z/c are both "times", Rabi amplitudes are frequencies, and the
coupling nu0 absorbs the atomic density.  A pure state is a unit (3,)
amplitude vector over (|1>, |2>, |3>), such as dark_state; its density
matrix is algebra.projector of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpectralPole

#: signature matrix separating ground ({|1>, |2>}) from excited (|3>) sectors
D_MATRIX = np.diag([1.0, 1.0, -1.0]).astype(complex)

#: guard radius around the lambda = Delta pole of the zeta-evolution matrix
POLE_GUARD = 1e-9


@dataclass(frozen=True)
class LambdaParams:
    """Physical constants of one scenario.

    nu0     field-matter coupling, positive
    delta   one-photon detuning
    omega0  background Rabi amplitude, non-negative
    eta     background mixing angle in [0, pi/2]
    k       slow spatial phase wavenumber of the background
    """

    nu0: float
    delta: float = 0.0
    omega0: float = 1.0
    eta: float = 0.0
    k: float = 0.0

    def __post_init__(self):
        if not self.nu0 > 0:
            raise ValueError(f"nu0 must be positive, got {self.nu0}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be non-negative, got {self.omega0}")
        if not 0.0 <= self.eta <= math.pi / 2:
            raise ValueError(f"eta must lie in [0, pi/2], got {self.eta}")


@dataclass(frozen=True)
class SpectralData:
    """Discrete eigenvalue lambda0 = i*eps0 and the derived branch root.

    root = sqrt(eps0^2 - omega0^2) on the positive real branch for
    eps0 > omega0, zero at the degenerate point, and +i*sqrt(omega0^2 -
    eps0^2) below it (oscillatory regime, exposed but experimental).
    """

    eps0: float
    root: complex

    def __post_init__(self):
        if not self.eps0 > 0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")

    @property
    def lambda0(self) -> complex:
        return 1j * self.eps0

    @classmethod
    def from_eps0(cls, eps0: float, omega0: float) -> "SpectralData":
        diff = eps0**2 - omega0**2
        root = math.sqrt(diff) if diff >= 0 else 1j * math.sqrt(-diff)
        return cls(eps0=eps0, root=root)


def interaction_hamiltonian(fields) -> np.ndarray:
    """Ladder coupling Hamiltonian for the two channels.

    Accepts an (omega_a, omega_b) pair of broadcastable arrays; returns
    shape (..., 3, 3).  Hermitian by construction, zero
    diagonal, no direct 1-2 coupling.
    """
    oa, ob = fields
    oa = np.asarray(oa, dtype=complex)
    ob = np.asarray(ob, dtype=complex)
    shape = np.broadcast(oa, ob).shape
    h = np.zeros(shape + (3, 3), dtype=complex)
    h[..., 2, 0] = -0.5 * oa
    h[..., 2, 1] = -0.5 * ob
    h[..., 0, 2] = -0.5 * np.conj(oa)
    h[..., 1, 2] = -0.5 * np.conj(ob)
    return h


def lax_u(lam: complex, h) -> np.ndarray:
    """Tau-evolution matrix of the auxiliary linear system."""
    h = np.asarray(h, dtype=complex)
    return 0.5j * lam * D_MATRIX - 1j * h


def lax_v(lam: complex, rho, p: LambdaParams) -> np.ndarray:
    """Zeta-evolution matrix; has a simple pole at lam = Delta."""
    if abs(lam - p.delta) <= POLE_GUARD:
        raise SpectralPole(f"lambda = {lam} within guard of Delta = {p.delta}")
    rho = np.asarray(rho, dtype=complex)
    return 0.5j * p.nu0 / (lam - p.delta) * rho


def dark_state(eta: float) -> np.ndarray:
    """Unit (3,) ground-sublevel superposition decoupled from the background light."""
    if not 0.0 <= eta <= math.pi / 2:
        raise ValueError(f"eta must lie in [0, pi/2], got {eta}")
    return np.array([-math.sin(eta), math.cos(eta), 0.0], dtype=complex)


def background_fields(p: LambdaParams, zeta):
    """Control background entering the finite-density boundary condition: (omega_a, omega_b)."""
    zeta = np.asarray(zeta, dtype=float)
    amp = p.omega0 * np.exp(1j * p.k * zeta)
    return math.cos(p.eta) * amp, math.sin(p.eta) * amp
