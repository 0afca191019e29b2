"""Closed-form evaluators for every exact solution the dressing can make.

Field formulas are transcribed independently of the engine so that the two
routes cross-check each other.  The storage, degenerate-point and
two-soliton states have no closed expression here: the storage and
degenerate-point states are the image of the decoupled seed state under
the dressing operator, and the scenario registry takes all three from the
engine (darboux.dressed_density).  Where a circulating variant of a state
or phase fails the self-consistency harness, the form implemented here is
the one that satisfies the field equations (see tests/test_mismatch.py for
the rejected variants).

Conventions: scalar or broadcastable array zeta/tau in, matching arrays
out.  Each evaluator returns (omega_a, omega_b, state) where state is a
unit amplitude vector over (|1>, |2>, |3>), stacked on a last axis of
length 3: the slow soliton's own, or the decoupled ground superposition
that the fast soliton leaves the medium in.  The other evaluators return
None (fields only), and the registry takes their state from the engine.
Each evaluator first calls its guard_*, which raises outside the regime
the formula is written for; the scenario registry applies the same guard
on every route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import darboux, model
from .darboux import DressConstants, SolitonConstants
from .errors import DegenerateConstants, ParameterGuard
from .model import LambdaParams, SpectralData


@dataclass(frozen=True)
class ScenarioParams:
    """Parameter bundle for one closed-form scenario."""

    params: LambdaParams
    spectral: SpectralData
    scenario: str
    soliton: Optional[SolitonConstants] = None
    constants: Optional[DressConstants] = None

    def dress_constants(self) -> DressConstants:
        if self.constants is not None:
            return self.constants
        if self.soliton is None:
            raise ParameterGuard("scenario needs soliton or dressing constants")
        return darboux.map_constants(self.soliton, self.spectral, self.params.omega0)


def _require(cond: bool, msg: str):
    if not cond:
        raise ParameterGuard(msg)


def guard_regular(sp: ScenarioParams):
    p, s = sp.params, sp.spectral
    # the complement of darboux.seed_family's confluent test, so that the
    # engine dresses a regular scenario with the regular seed
    _require(p.omega0 > 0 and s.eps0 - p.omega0 >= darboux.DEGENERATE_TOL,
             f"requires omega0 > 0 and eps0 - omega0 >= {darboux.DEGENERATE_TOL:g} "
             "(closer to eps0 = omega0 the engine takes the confluent seed)")
    _require(p.k == 0.0 and p.eta == 0.0, "closed form written for k = 0, eta = 0")
    _require(sp.soliton is not None, "closed form parameterized by SolitonConstants")


def guard_slow(sp: ScenarioParams):
    guard_regular(sp)
    _require(sp.soliton.a1 != 0.0, "slow soliton needs a1 != 0")


def guard_fast(sp: ScenarioParams):
    guard_regular(sp)
    _require(sp.soliton.a3 != 0.0, "fast soliton needs a3 != 0")


def guard_zero_background(sp: ScenarioParams):
    p = sp.params
    _require(p.omega0 == 0.0, "zero_background requires omega0 = 0")
    _require(p.eta == 0.0 and p.k == 0.0, "closed form written for eta = 0, k = 0")
    _require(sp.constants is not None, "zero_background is parameterized by DressConstants")
    if sp.constants.c3 == 0.0:
        raise DegenerateConstants("c3 = 0 leaves the slow phase undefined")


def guard_exulton(sp: ScenarioParams):
    p, s = sp.params, sp.spectral
    _require(p.omega0 > 0 and abs(s.eps0 - p.omega0) < darboux.DEGENERATE_TOL,
             "exulton requires eps0 = omega0 > 0")
    _require(p.eta == 0.0 and p.k == 0.0, "closed form written for eta = 0, k = 0")
    _require(sp.constants is not None, "exulton is parameterized by DressConstants")


def guard_exulton_k(sp: ScenarioParams):
    p, s = sp.params, sp.spectral
    _require(p.omega0 > 0 and abs(s.eps0 - p.omega0) < darboux.DEGENERATE_TOL,
             "exulton_k requires eps0 = omega0 > 0")
    _require(p.eta == 0.0, "closed form written for eta = 0")
    cns = sp.constants
    _require(cns is not None and cns.c1 == 0.0 and cns.c2 == 0.0,
             "exulton_k closed form written for DressConstants (0, 0, c3)")


def _slow_phase(p: LambdaParams, s: SpectralData, a1: float, zeta, tau):
    w = np.real(s.root)
    # eps0 - w, written so that it does not cancel at eps0 >> omega0
    return (
        zeta * s.eps0 * p.nu0 / (2.0 * (p.delta**2 + s.eps0**2))
        - 0.5 * tau * (p.omega0**2 / (s.eps0 + w))
        + math.log(abs(a1))
    )


def two_soliton(sp: ScenarioParams, zeta, tau):
    """Interacting slow + fast pair on the finite background.

    Fields only, in the closed rational-exponential form; the interacting
    state has no closed expression of its own, so the registry takes the
    dressed projector for it.
    """
    guard_regular(sp)
    p, s = sp.params, sp.spectral
    a1, a2, a3 = sp.soliton.a1, sp.soliton.a2, sp.soliton.a3
    om0, eps0, nu0, delta = p.omega0, s.eps0, p.nu0, p.delta
    w = np.real(s.root)
    gap = om0**2 / (eps0 + w)  # eps0 - w, as in _slow_phase
    zeta = np.asarray(zeta, dtype=float)
    tau = np.asarray(tau, dtype=float)

    e_fast = tau * w
    e_slow = -tau * eps0 + zeta * nu0 * eps0 / (delta**2 + eps0**2)
    m = np.maximum(np.maximum(e_fast, -e_fast), np.maximum(e_slow, 0.0))
    den = (
        a3**2 * np.exp(e_fast - m)
        + a2**2 * np.exp(-e_fast - m)
        + 2.0 * a2 * a3 * om0 / eps0 * np.exp(-m)
        + a1**2 * np.exp(e_slow - m)
    )
    num_a = (
        a3**2 * om0 * np.exp(e_fast - m)
        + a2**2 * om0 * np.exp(-e_fast - m)
        + 2.0 * a2 * a3 * eps0 * np.exp(-m)
    )
    oa = om0 - 2.0 * num_a / den
    phase_b = 1j * nu0 / (2.0 * (delta + 1j * eps0))
    # the real exponents are (e_slow +- e_fast) / 2 - m <= 0, so neither
    # overflows where the other underflows; the zeta-only phase stands apart
    r = -0.5 * tau * eps0 + zeta * phase_b.real - m
    num_b = (
        -2j * math.sqrt(2.0 * eps0) * a1
        * np.exp(1j * phase_b.imag * zeta)
        * (
            a3 * np.exp(r + 0.5 * e_fast) * math.sqrt(eps0 + w)
            + a2 * np.exp(r - 0.5 * e_fast) * math.sqrt(gap)
        )
    )
    ob = num_b / den
    return oa, ob, None


def slow_soliton(sp: ScenarioParams, zeta, tau):
    """Kink/pulse pair travelling at the reduced group velocity."""
    guard_slow(sp)
    p, s = sp.params, sp.spectral
    om0, eps0, nu0, delta = p.omega0, s.eps0, p.nu0, p.delta
    w = np.real(s.root)
    gap = om0**2 / (eps0 + w)  # eps0 - w, as in _slow_phase
    zeta = np.asarray(zeta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    phi = _slow_phase(p, s, sp.soliton.a1, zeta, tau)
    r = math.sqrt(delta**2 + eps0**2)
    oa = om0 * np.tanh(phi)
    ob = (
        -1j
        * np.exp(1j * zeta * nu0 * delta / (2.0 * r**2))
        * math.sqrt(2.0 * eps0 * gap)
        / np.cosh(phi)
    )
    # amplitudes over (|1>, |2>, |3>); the middle one is (Delta - i eps0 Oa/Om0)/r
    c1 = ob * 1j * math.sqrt(eps0 + w) / (2.0 * r * math.sqrt(gap))
    c2 = (delta - 1j * eps0 * oa / om0) / r
    c3 = ob / (2.0 * r)
    state = np.stack(np.broadcast_arrays(c1, c2, c3), axis=-1)
    return oa, ob, state


def fast_soliton(sp: ScenarioParams, tau):
    """Light-speed dip riding the channel-a background; channel b stays dark.

    The medium stays in the decoupled ground superposition
    (model.dark_state), returned broadcast to the fields' shape.
    """
    guard_fast(sp)
    p, s = sp.params, sp.spectral
    om0, eps0 = p.omega0, s.eps0
    w = np.real(s.root)
    tau = np.asarray(tau, dtype=float)
    phi = tau * w + math.log(abs(sp.soliton.a3))
    with np.errstate(over="ignore"):
        ch = np.cosh(phi)
    # the ratio tends to 1 where cosh overflows
    ratio = np.divide(ch + eps0 / om0, ch + om0 / eps0, out=np.ones_like(ch),
                      where=np.isfinite(ch))
    oa = om0 * (1.0 - 2.0 * ratio)
    ob = np.zeros_like(oa)
    return oa, ob, np.broadcast_to(model.dark_state(p.eta), oa.shape + (3,))


def zero_background(sp: ScenarioParams, zeta, tau):
    """Stopped-polariton solution at vanishing background intensity."""
    guard_zero_background(sp)
    p, s = sp.params, sp.spectral
    c1, c2, c3 = sp.constants.as_tuple()
    eps0, nu0, delta = s.eps0, p.nu0, p.delta
    zeta = np.asarray(zeta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    half_rate = eps0 * nu0 / (2.0 * (delta**2 + eps0**2))
    a_exp = zeta * half_rate
    # denominator written exponent-by-exponent so c2 = 0 stays finite
    e1, e2, e3 = a_exp, -a_exp, 2.0 * eps0 * tau - a_exp
    m = np.maximum(np.maximum(e1, e2), np.maximum(e3, eps0 * tau - a_exp))
    den = c2**2 * np.exp(e1 - m) + c3**2 * np.exp(e2 - m) + c1**2 * np.exp(e3 - m)
    oa = -4j * c1 * c3 * eps0 * np.exp(eps0 * tau - a_exp - m) / den
    ob = c2 / c3 * np.exp(1j * zeta * nu0 / (2.0 * (delta + 1j * eps0))) * oa
    return oa, ob, None


def exulton(sp: ScenarioParams, zeta, tau):
    """Rational-in-tau solution at the degenerate point eps0 = omega0."""
    guard_exulton(sp)
    p = sp.params
    c1, c2, c3 = sp.constants.as_tuple()
    om0, nu0, delta = p.omega0, p.nu0, p.delta
    zeta = np.asarray(zeta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    phi = zeta * om0 * nu0 / (2.0 * (delta**2 + om0**2)) - 0.5 * om0 * tau
    m = np.maximum(phi, -phi)
    ep, em = np.exp(phi - m), np.exp(-phi - m)
    q = c2 + c3 * tau * om0
    den = c1**2 * ep + 2.0 * em * (q**2 + c3**2)
    oa = om0 * (c1**2 * ep - 2.0 * em * (q**2 - 3.0 * c3**2)) / den
    ob = (
        -4j * om0 * c1
        * np.exp(1j * zeta * nu0 * delta / (2.0 * (om0**2 + delta**2)) - m)
        * (c2 + c3 * (1.0 + tau * om0))
        / den
    )
    return oa, ob, None


def exulton_k(sp: ScenarioParams, zeta, tau):
    """Degenerate-point signal with a slowly rotating background phase.

    Channel b vanishes identically.  The amplitude is the k = 0 rational
    form evaluated at the drifted time T = tau + k*zeta/(lambda0 - Delta),
    carried on the rotating background, so |omega_a| -> omega0 as
    |tau| -> infinity at fixed zeta.  A variant with the background term
    left unrotated fails the field equations (tests/test_mismatch.py).
    """
    guard_exulton_k(sp)
    p, s = sp.params, sp.spectral
    om0 = p.omega0
    zeta = np.asarray(zeta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    x = om0 * (tau + p.k * zeta / (s.lambda0 - p.delta))
    ax2 = np.abs(x) ** 2
    oa = np.exp(1j * p.k * zeta) * om0 * (3.0 - ax2 + 4j * np.imag(x)) / (1.0 + ax2)
    ob = np.zeros_like(oa)
    return oa, ob, None
