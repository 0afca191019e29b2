"""Scenario assembly: the scenario registry, canned parameter sets and grid builders.

A scenario couples a parameter bundle with the three ways to realize it
(closed form, dressing engine, numerical propagation).  Each route is a
row source over the lattice, an object with grid and rows(z0, z1):
closed_form_rows and dressed_rows return an mbsolver.RowSource, and the
solver's is an mbsolver.MarchRows from numeric_entry.  The command line
streams them in blocks of whole zeta rows.  The builders here keep every
block of the same sources in a SolutionGrid for the library and the
tests, fields and entry-major state alike (_stored), so a stored grid
holds the bits a streamed pass reads.  What sets one scenario apart
from another is its ``Scenario`` record in ``REGISTRY``; no other code
branches on a name.  The closed form's state is what the record's
evaluator returns: the projector of a unit vector, or where it returns
None the dressing engine's state (_closed_form).  On both exact routes a
grid's state kind follows k (state_kind): a projector at k = 0, the
formal companion state otherwise, from which direct propagation is
refused.  The dressing route runs the seed verification gate first; a
stored dressing grid keeps its report in ``meta["seed_gate"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import algebra, analytic, darboux, model
from .analytic import ScenarioParams
from .darboux import DressConstants, SolitonConstants
from .errors import ParameterGuard, SpectralPole
from .mbsolver import GridSpec, Rows, RowSource, SolutionGrid, propagate
from .model import LambdaParams, SpectralData

#: probe spectral parameters of the zero-curvature residuals; their imaginary
#: parts (>= 0.5) keep every probe off the pole at any real Delta
DEFAULT_PROBES = (1.0 + 1.0j, 0.7j, -2.0 + 0.5j)


@dataclass(frozen=True)
class Scenario:
    """What one closed-form scenario is, for every route and check.

    evaluate: (sp, zeta, tau) -> (omega_a, omega_b, state), looking the
    analytic evaluator up per call; state is a unit amplitude vector's
    three entries, whose projector the grid holds, or None, and then the
    grid holds the dressing engine's state at the same constants (the
    dressed projector at k = 0, the formal companion state at k != 0).
    guard: the evaluator's regime check (analytic.guard_*), which
    make_scenario applies for every route.  constants: "a" (soliton; c is
    refused) or "c" (dressing), with zero_a the soliton constant set to
    zero.  field_tol:
    analytic-vs-dressing field tolerance.  Direct propagation starts from
    the grid's state along tau_min, and is refused where it is formal
    (state_kind).
    """

    name: str
    evaluate: Callable
    guard: Callable
    constants: str
    field_tol: float
    zero_a: Optional[str] = None


REGISTRY = {s.name: s for s in (
    Scenario("two_soliton", lambda sp, z, t: analytic.two_soliton(sp, z, t),
             analytic.guard_regular, "a", 1e-9),
    Scenario("slow", lambda sp, z, t: analytic.slow_soliton(sp, z, t),
             analytic.guard_slow, "a", 1e-9, zero_a="a3"),
    Scenario("fast", lambda sp, z, t: analytic.fast_soliton(sp, t),
             analytic.guard_fast, "a", 1e-9, zero_a="a1"),
    Scenario("zero_background", lambda sp, z, t: analytic.zero_background(sp, z, t),
             analytic.guard_zero_background, "c", 1e-8),
    Scenario("exulton", lambda sp, z, t: analytic.exulton(sp, z, t),
             analytic.guard_exulton, "c", 1e-8),
    Scenario("exulton_k", lambda sp, z, t: analytic.exulton_k(sp, z, t),
             analytic.guard_exulton_k, "c", 1e-8),
)}


def make_scenario(name: str, *, nu0=3.0, delta=0.0, omega0=1.0, eps0=2.0,
                  eta=0.0, k=0.0, a=(1.0, 1.0, 1.0), c=None) -> ScenarioParams:
    """Build a ScenarioParams bundle with the standard defaults, inside the record's regime.

    Every record refuses a spectral point lambda0 within model.POLE_GUARD
    of the Delta pole, on which no route is defined.
    """
    record = REGISTRY[name]
    params = LambdaParams(nu0=nu0, delta=delta, omega0=omega0, eta=eta, k=k)
    spectral = SpectralData.from_eps0(eps0, omega0)
    if abs(spectral.lambda0 - delta) <= model.POLE_GUARD:
        raise SpectralPole(f"lambda0 = {spectral.lambda0} lies within {model.POLE_GUARD:g} "
                           f"of the Delta = {delta} pole")
    if record.constants == "a":
        if c is not None:
            raise ParameterGuard(f"{name} takes a1, a2, a3; c1, c2, c3 do not apply to it")
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


def state_kind(p: LambdaParams) -> str:
    """What an exact-route grid's state is: a projector at k = 0, formal otherwise.

    Direct propagation starts from that state, so it is refused where the
    state is formal.
    """
    return "pure" if p.k == 0.0 else "formal"


def _closed_form(sp: ScenarioParams, zeta, tau):
    """The record's fields and entry-major state on a (zeta, tau) mesh.

    The state is the projector of the unit vector the evaluator returns,
    or the dressing engine's state where it returns None.
    """
    oa, ob, state = REGISTRY[sp.scenario].evaluate(sp, zeta, tau)
    if state is None:
        return oa, ob, darboux.dressed_density(sp.params, sp.spectral, sp.dress_constants(),
                                               zeta, tau)
    return oa, ob, algebra.projector(state)


def _stored(source: RowSource, meta: dict, kind: str) -> SolutionGrid:
    """A SolutionGrid that keeps every block of a route's row source."""
    grid = source.grid
    shape = (grid.n_zeta, grid.n_tau)
    oa = ob = rho = None
    for z0, z1 in grid.blocks():
        block = source.rows(z0, z1)
        if oa is None:
            oa = np.empty(shape, dtype=block.omega_a.dtype)
            ob = np.empty(shape, dtype=block.omega_b.dtype)
            rho = np.empty((3, 3) + shape, dtype=complex)
        oa[z0:z1], ob[z0:z1], rho[:, :, z0:z1] = block.omega_a, block.omega_b, block.rho
    return SolutionGrid(grid=grid, omega_a=oa, omega_b=ob, rho=rho, state_kind=kind, meta=meta)


def _row_source(grid: GridSpec, evaluate) -> RowSource:
    """The row source of evaluate(zeta, tau) -> (omega_a, omega_b, rho) on the lattice's mesh.

    rows(z0, z1) evaluates at grid.zetas()[z0:z1] and grid.taus() and
    returns Rows whose fields and state are read-only arrays of the
    block's shape, (z1 - z0, n_tau) and (3, 3, z1 - z0, n_tau); a rho of
    None stays None. Nothing of the lattice is stored.
    """
    zetas, taus = _mesh(grid)

    def rows(z0: int, z1: int) -> Rows:
        zz = zetas[z0:z1]
        shape = (len(zz), grid.n_tau)
        oa, ob, rho = evaluate(zz, taus)
        if rho is not None:
            rho = np.broadcast_to(rho, (3, 3) + shape)
        return Rows(grid, np.broadcast_to(oa, shape), np.broadcast_to(ob, shape), rho)
    return RowSource(grid, rows)


def closed_form_rows(sp: ScenarioParams, grid: GridSpec) -> RowSource:
    """The closed form as a row source of the lattice (see _row_source).

    build_analytic_grid keeps the blocks of grid.blocks(), so its grid
    holds the bits that a pass over those blocks reads, exulton_k's
    included.
    """
    return _row_source(grid, lambda zeta, tau: _closed_form(sp, zeta, tau))


def closed_form_field_rows(sp: ScenarioParams, grid: GridSpec) -> RowSource:
    """The closed form's fields alone as a row source of the lattice: Rows with no state.

    The fields are those of closed_form_rows, bit for bit; the grid's
    state (_closed_form: a projector or the dressed state) is not formed.
    """
    record = REGISTRY[sp.scenario]
    return _row_source(grid, lambda zeta, tau: record.evaluate(sp, zeta, tau)[:2] + (None,))


def build_analytic_grid(sp: ScenarioParams, grid: GridSpec) -> SolutionGrid:
    """Evaluate the closed-form scenario on the lattice: every block of closed_form_rows, kept."""
    return _stored(closed_form_rows(sp, grid), {"engine": "analytic", "scenario": sp.scenario},
                   state_kind(sp.params))


def _dressing_rows(sp: ScenarioParams, grid: GridSpec) -> RowSource:
    """dressed_rows without the seed gate."""
    p, s, c = sp.params, sp.spectral, sp.dress_constants()
    return _row_source(grid, lambda zeta, tau: darboux.dressed_fields_and_state(p, s, c, zeta, tau))


def dressed_rows(sp: ScenarioParams, grid: GridSpec) -> RowSource:
    """The dressing engine as a row source of the lattice (see _row_source).

    The seed verification gate runs first and raises ParameterGuard on a
    seed that fails it.
    """
    darboux.verify_seed_or_raise(sp.params, sp.spectral)
    return _dressing_rows(sp, grid)


def build_dressed_grid(sp: ScenarioParams, grid: GridSpec) -> SolutionGrid:
    """Run the dressing engine on the lattice: every block of dressed_rows, kept."""
    p, s = sp.params, sp.spectral
    meta = {"engine": "dressing", "scenario": sp.scenario,
            "constants": sp.dress_constants().as_tuple(),
            "seed_gate": darboux.verify_seed_or_raise(p, s)}
    return _stored(_dressing_rows(sp, grid), meta, state_kind(p))


def numeric_entry(sp: ScenarioParams, grid: GridSpec):
    """(entry fields, tau_min states) the direct solver starts from.

    The entry fields are the closed form's first row, its fields alone
    (closed_form_field_rows), and the tau_min state of every row is the
    closed form's own, evaluated on that column alone, as one entry-major
    (3, 3, n_zeta) array. Pass them to mbsolver.propagate or MarchRows
    with sp.params and grid. A formal state (k != 0, state_kind) is
    refused with ParameterGuard.
    """
    if state_kind(sp.params) == "formal":
        raise ParameterGuard(f"{sp.scenario} has a formal companion state at k = {sp.params.k}; "
                             "direct propagation is not defined")
    first = closed_form_field_rows(sp, grid).rows(0, 1)
    zetas, taus = _mesh(grid)
    rho = _closed_form(sp, zetas, taus[:, :1])[2]
    boundary = np.broadcast_to(rho, (3, 3, grid.n_zeta, 1))[..., 0]
    return (first.omega_a[0], first.omega_b[0]), boundary


def build_numeric_grid(sp: ScenarioParams, grid: GridSpec) -> SolutionGrid:
    """Propagate the scenario's entry slice (numeric_entry) with the direct solver.

    propagate's consumer keeps every block of the solver's rows (_stored),
    so the grid holds the fields and the entry-major state, and its meta
    the solver's audit figures (the source's figures).
    """
    def keep(source) -> SolutionGrid:
        sol = _stored(source, {"engine": "numeric", "scenario": sp.scenario}, "density")
        sol.meta.update(source.figures)
        return sol
    return propagate(*numeric_entry(sp, grid), sp.params, grid, keep)
