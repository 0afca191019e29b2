"""Scenario inputs only the tests build.

canned_scenario expands a canned tag as the CLI does, through
apply_canned; refined gives the lattice whose GridSpec.coarse() a lattice
is, and usable_step says whether GridSpec takes an axis; numeric_inputs
reads the solver's inputs off a stored analytic grid; regime_keywords
draws make_scenario keywords inside a registry record's regime of
validity.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from lambda_mb import cli, scenarios
from lambda_mb.mbsolver import GridSpec


def canned_scenario(tag: str):
    """(ScenarioParams, GridSpec) of a canned tag."""
    cfg = cli.ScenarioConfig()
    cli.apply_canned(cfg, tag)
    return cfg.scenario_params(), cfg.grid()


def refined(grid: GridSpec) -> GridSpec:
    """Same domain with both steps halved; its coarse() is grid."""
    return GridSpec(grid.tau_min, grid.tau_max, 2 * grid.n_tau - 1,
                    grid.zeta_min, grid.zeta_max, 2 * grid.n_zeta - 1)


def usable_step(low: float, high: float, n: int) -> bool:
    """Whether GridSpec takes the axis: a step h > 0 whose 1 / (2h) is finite."""
    h = (high - low) / (n - 1)
    return h > 0 and math.isfinite(1.0 / (2.0 * h))


def numeric_inputs(sp, grid):
    """(entry fields, tau_min boundary) that build_numeric_grid gives the solver.

    Read off the stored analytic grid of the lattice: its first zeta row,
    and its entry-major (3, 3, n_zeta) tau_min column. Pass them to
    mbsolver.MarchRows with sp.params and grid.
    """
    ana = scenarios.build_analytic_grid(sp, grid)
    return (ana.omega_a[0], ana.omega_b[0]), ana.rho[:, :, :, 0]


@st.composite
def regime_keywords(draw, name):
    """make_scenario keywords inside the scenario's regime of validity.

    nu0 in [0.5, 5] and Delta in [-2, 2] throughout.  Soliton-constant
    scenarios: omega0 in [0.2, 2], eps0 - omega0 in [0.1, 3], log a1 and
    log a3 in [-3, 3].  Dressing-constant scenarios: |c_i| in [0.2, 2] with
    either sign, and omega0 = 0 with eps0 in [0.3, 5] for the storage
    regime, or eps0 = omega0 in [0.2, 2] at the degenerate point; the
    rotating-background closed form is written for c = (0, 0, c3) and
    |k| <= 0.3.
    """
    kw = dict(nu0=draw(st.floats(0.5, 5.0)), delta=draw(st.floats(-2.0, 2.0)))
    if scenarios.REGISTRY[name].constants == "a":
        omega0 = draw(st.floats(0.2, 2.0))
        a1, a3 = (math.exp(draw(st.floats(-3.0, 3.0))) for _ in range(2))
        kw.update(omega0=omega0, eps0=omega0 + draw(st.floats(0.1, 3.0)), a=(a1, 1.0, a3))
    else:
        kw["c"] = tuple(draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.2, 2.0))
                        for _ in range(3))
        if name == "zero_background":
            kw.update(omega0=0.0, eps0=draw(st.floats(0.3, 5.0)))
        else:
            kw["omega0"] = kw["eps0"] = draw(st.floats(0.2, 2.0))
        if name == "exulton_k":
            kw.update(k=draw(st.floats(-0.3, 0.3)), c=(0.0, 0.0, kw["c"][2]))
    return kw
