"""Scenario assembly: the scenario registry, canned parameter sets and grid builders.

A scenario couples a parameter bundle with the three ways to realize it
(closed form, dressing engine, numerical propagation); the builders here
return SolutionGrid objects that the verification harness and the CLI
consume uniformly.  What sets one scenario apart from another is its
``Scenario`` record in ``REGISTRY``; no other code branches on a name.
On both exact routes a grid's state kind follows k: a projector at
k = 0, the formal companion state otherwise.  Every dressing build runs
the seed verification gate first and keeps its report in
``meta["seed_gate"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import algebra, analytic, darboux, model
from .analytic import ScenarioParams
from .darboux import DressConstants, SolitonConstants
from .errors import ParameterGuard
from .mbsolver import GridSpec, SolutionGrid, propagate
from .model import LambdaParams, SpectralData

#: probe spectral parameters used by the reproducible residual reports
DEFAULT_PROBES = (1.0 + 1.0j, 0.7j, -2.0 + 0.5j)


@dataclass(frozen=True)
class Scenario:
    """What one closed-form scenario is, for every route and check.

    evaluate: (sp, zeta, tau) -> (omega_a, omega_b, state), looking the
    analytic evaluator up per call.  guard: the evaluator's regime check
    (analytic.guard_*), which make_scenario applies for every route.
    constants: "a" (soliton) or "c" (dressing), with zero_a the soliton
    constant set to zero.  state: "vector" when the evaluator returns a
    unit vector; otherwise the grid carries the decoupled projector
    ("dark") or the dressing engine's state at the same constants
    ("dressed": the dressed projector at k = 0, the formal companion state
    at k != 0).  field_tol: analytic-vs-dressing field tolerance.
    boundary: tau_min state of direct propagation, "edge" (the closed
    form's own) or "dark" (the decoupled projector); None refuses.
    """

    name: str
    evaluate: Callable
    guard: Callable
    constants: str
    state: str
    field_tol: float
    boundary: Optional[str]
    zero_a: Optional[str] = None

    def density(self, sp: ScenarioParams, state, zeta, tau) -> np.ndarray:
        """The grid's state for what the evaluator returned."""
        if self.state == "vector":
            return algebra.projector(np.moveaxis(state, -1, 0))
        if self.state == "dark":
            return model.density_from_pure(model.dark_state(sp.params.eta))
        return darboux.dressed_density(sp.params, sp.spectral, sp.dress_constants(), zeta, tau)


REGISTRY = {s.name: s for s in (
    Scenario("two_soliton", lambda sp, z, t: analytic.two_soliton(sp, z, t),
             analytic.guard_regular, "a", "dressed", 1e-9, "edge"),
    Scenario("slow", lambda sp, z, t: analytic.slow_soliton(sp, z, t),
             analytic.guard_slow, "a", "vector", 1e-9, "edge", zero_a="a3"),
    Scenario("fast", lambda sp, z, t: analytic.fast_soliton(sp, t),
             analytic.guard_fast, "a", "dark", 1e-9, "dark", zero_a="a1"),
    Scenario("zero_background", lambda sp, z, t: analytic.zero_background(sp, z, t),
             analytic.guard_zero_background, "c", "dressed", 1e-8, "edge"),
    Scenario("exulton", lambda sp, z, t: analytic.exulton(sp, z, t),
             analytic.guard_exulton, "c", "dressed", 1e-8, "edge"),
    Scenario("exulton_k", lambda sp, z, t: analytic.exulton_k(sp, z, t),
             analytic.guard_exulton_k, "c", "dressed", 1e-8, None),
)}


def make_scenario(name: str, *, nu0=3.0, delta=0.0, omega0=1.0, eps0=2.0,
                  eta=0.0, k=0.0, a=(1.0, 1.0, 1.0), c=None) -> ScenarioParams:
    """Build a ScenarioParams bundle with the standard defaults, inside the record's regime."""
    record = REGISTRY[name]
    params = LambdaParams(nu0=nu0, delta=delta, omega0=omega0, eta=eta, k=k)
    spectral = SpectralData.from_eps0(eps0, omega0)
    if record.constants == "a":
        a = dict(zip(("a1", "a2", "a3"), a))
        if record.zero_a is not None:
            a[record.zero_a] = 0.0
        constants = {"soliton": SolitonConstants(**a)}
    else:
        constants = {"constants": DressConstants(*(c if c is not None else (1.0, 1.0, 1.0)))}
    sp = ScenarioParams(params=params, spectral=spectral, scenario=name, **constants)
    record.guard(sp)
    return sp


#: canned scenario table: parameters and a lattice sized for desk-scale runs
CANNED = {
    # collision of the slow and fast solitons on the unit background;
    # a1 = e^-2 starts the slow groove at tau ~ -14.9 so the collision
    # happens mid-grid (zeta ~ 2.7) with clean pre/post epochs
    "fig2": dict(name="two_soliton", eps0=2.0, omega0=1.0, nu0=3.0, delta=0.0,
                 a=(math.exp(-2.0), 1.0, 1.0),
                 grid=GridSpec(-20.0, 20.0, 1001, 0.0, 8.0, 401)),
    # storage regime: vanishing background, lattice centered on the stored peak
    "fig3": dict(name="zero_background", eps0=2.0, omega0=0.0, nu0=3.0, delta=0.0,
                 c=(1.0, 1.0, 1.0), grid=GridSpec(-10.0, 2.0, 601, -2.5, 2.5, 251)),
    # degenerate-point scenario: rational pulse rides the slow kink
    "fig4": dict(name="exulton", eps0=1.0, omega0=1.0, nu0=3.0, delta=0.0,
                 c=(1.0, 1.0, 1.0), grid=GridSpec(-10.0, 10.0, 501, 0.0, 6.0, 241)),
    "two_soliton": dict(name="two_soliton",
                        grid=GridSpec(-20.0, 20.0, 801, 0.0, 8.0, 321)),
    "slow": dict(name="slow", grid=GridSpec(-15.0, 25.0, 801, 0.0, 8.0, 321)),
    "fast": dict(name="fast", grid=GridSpec(-10.0, 10.0, 801, 0.0, 4.0, 161)),
    "zero_background": dict(name="zero_background", omega0=0.0, c=(1.0, 1.0, 1.0),
                            grid=GridSpec(-10.0, 2.0, 601, -2.5, 2.5, 251)),
    "exulton": dict(name="exulton", eps0=1.0, omega0=1.0, c=(1.0, 1.0, 1.0),
                    grid=GridSpec(-10.0, 10.0, 501, 0.0, 6.0, 241)),
    "exulton_k": dict(name="exulton_k", eps0=1.0, omega0=1.0, k=0.2,
                      c=(0.0, 0.0, 1.0), grid=GridSpec(-10.0, 10.0, 501, 0.0, 6.0, 241)),
}


def _mesh(grid: GridSpec):
    return grid.zetas()[:, None], grid.taus()[None, :]


def _full(arr, shape):
    """Writable contiguous array of the grid shape.

    An array that already owns its data, is C-contiguous and writable and
    has the grid shape is the grid's own and is kept as it is; anything
    else (a broadcast evaluator output, a view, a constant state) is
    copied out to the full shape in C order; numpy's default order would
    keep the column layout of a (1, n_tau) broadcast.
    """
    flags = getattr(arr, "flags", None)
    if (flags is not None and arr.shape == shape and flags.owndata
            and flags.c_contiguous and flags.writeable):
        return arr
    return np.array(np.broadcast_to(arr, shape), order="C")


def _state_kind(p: LambdaParams) -> str:
    """What an exact-route grid's state is: a projector at k = 0, formal otherwise."""
    return "pure" if p.k == 0.0 else "formal"


def build_analytic_grid(sp: ScenarioParams, grid: GridSpec) -> SolutionGrid:
    """Evaluate the closed-form scenario on the lattice."""
    record = REGISTRY[sp.scenario]
    zz, tt = _mesh(grid)
    oa, ob, state = record.evaluate(sp, zz, tt)
    rho = record.density(sp, state, zz, tt)
    shape = (grid.n_zeta, grid.n_tau)
    return SolutionGrid(
        grid=grid, omega_a=_full(oa, shape), omega_b=_full(ob, shape),
        rho=_full(rho, shape + (3, 3)),
        state_kind=_state_kind(sp.params),
        meta={"engine": "analytic", "scenario": sp.scenario},
    )


def build_dressed_grid(sp: ScenarioParams, grid: GridSpec) -> SolutionGrid:
    """Run the dressing engine on the lattice."""
    p, s = sp.params, sp.spectral
    c = sp.dress_constants()
    meta = {"engine": "dressing", "scenario": sp.scenario,
            "constants": c.as_tuple(), "seed_gate": darboux.verify_seed_or_raise(p, s)}
    zz, tt = _mesh(grid)
    oa, ob, rho = darboux.dressed_fields_and_state(p, s, c, zz, tt)
    shape = (grid.n_zeta, grid.n_tau)
    return SolutionGrid(
        grid=grid, omega_a=_full(oa, shape), omega_b=_full(ob, shape),
        rho=_full(rho, shape + (3, 3)), state_kind=_state_kind(p), meta=meta,
    )


def build_numeric_grid(sp: ScenarioParams, grid: GridSpec) -> SolutionGrid:
    """Propagate the scenario's entry slice with the direct solver.

    The entry fields come from the closed form at zeta_min; the tau_min
    state boundary follows the scenario's record: its own closed-form state
    along tau_min ("edge") or the decoupled projector ("dark").
    """
    record = REGISTRY[sp.scenario]
    if record.boundary is None:
        raise ParameterGuard(f"{sp.scenario} has a formal companion state; "
                             "direct propagation is not defined")
    reference = build_analytic_grid(sp, GridSpec(
        grid.tau_min, grid.tau_max, grid.n_tau, grid.zeta_min, grid.zeta_max, 2,
    ))
    oa0 = reference.omega_a[0]
    ob0 = reference.omega_b[0]
    boundary = record.boundary
    if boundary == "edge":
        edge = build_analytic_grid(sp, GridSpec(
            grid.tau_min, grid.tau_min + grid.h_tau, 3, grid.zeta_min, grid.zeta_max, grid.n_zeta,
        ))
        boundary = np.ascontiguousarray(edge.rho[:, 0])
    sol = propagate((oa0, ob0), boundary, sp.params, grid)
    sol.meta.update({"scenario": sp.scenario})
    return sol
