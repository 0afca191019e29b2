"""Structure checks for the canned scenarios: the qualitative features the
reference surfaces are known for, asserted through the feature tracker."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_mb import analytic, scenarios, verify
from lambda_mb.mbsolver import GridSpec


def test_fig2_gate_closes_for_the_slow_soliton():
    sp, _ = scenarios.canned_scenario("fig2")
    # the canned constants put the collision near zeta = 2.7.  Before it the
    # a-channel groove moves at the slow-soliton speed; the window keeps the
    # light-speed dip (whose zero crossings also touch I_a = 0) outside
    pre = scenarios.build_analytic_grid(sp, GridSpec(-18.0, -2.0, 801, 0.0, 2.0, 81))
    v_pre = verify.measure_velocity(pre, "ia_min")
    v_slow = 1.0 / (1.0 + sp.spectral.eps0 * sp.params.nu0 /
                    ((sp.params.delta**2 + sp.spectral.eps0**2)
                     * (sp.spectral.eps0 - np.real(sp.spectral.root))))
    assert abs(v_pre - v_slow) < 0.1 * v_slow

    # after the collision the b channel carries an intensive signal moving
    # far faster than the slow soliton but still subluminal: its ridge rides
    # the corridor where the two denominator exponentials balance, giving
    # v = (eps0 + root)/(eps0 + root + nu0 eps0/(Delta^2 + eps0^2)) ~ 0.71 here
    post = scenarios.build_analytic_grid(sp, GridSpec(-4.0, 10.0, 801, 4.0, 8.0, 51))
    v_post = verify.measure_velocity(post, "ib_max")
    w = float(np.real(sp.spectral.root))
    v_corridor = (sp.spectral.eps0 + w) / (
        sp.spectral.eps0 + w
        + sp.params.nu0 * sp.spectral.eps0 / (sp.params.delta**2 + sp.spectral.eps0**2))
    assert abs(v_post - v_corridor) < 0.05 * v_corridor
    assert 3.0 * v_pre < v_post < 1.0

    # and the post-collision b signal is intense compared to the pre-collision
    # slow pulse
    assert np.max(post.ib) > 2.0 * np.max(pre.ib)


def test_fig3_storage_and_reading_structure():
    sp, _ = scenarios.canned_scenario("fig3")
    # before the reading pulse arrives the stored polarization peak stands
    # still in the lab frame
    window = GridSpec(-12.0, -3.0, 601, -2.5, 2.5, 301)
    sol = scenarios.build_analytic_grid(sp, window)
    v_p1 = verify.measure_velocity(sol, "p1_max")
    assert abs(v_p1) < 1e-3
    # the reading excitation rides in at (near) light speed: its level-3
    # ridge sits near tau = 0 and barely drifts on the approach side
    approach = scenarios.build_analytic_grid(
        sp, GridSpec(-4.0, 2.0, 601, -2.5, -0.8, 171))
    v_p3 = verify.measure_velocity(approach, "p3_max")
    assert 0.7 < v_p3 <= 1.01


def test_fig4_scenario_dual_route_agreement():
    sp, _ = scenarios.canned_scenario("fig4")
    grid = GridSpec(-8.0, 8.0, 161, 0.0, 5.0, 81)
    ana = scenarios.build_analytic_grid(sp, grid)
    drs = scenarios.build_dressed_grid(sp, grid)
    rep = verify.compare_solutions(ana, drs)
    assert rep.max_abs < 1e-8


def test_exulton_k_canned_runs_without_numeric():
    sp, grid = scenarios.canned_scenario("exulton_k")
    small = GridSpec(grid.tau_min, grid.tau_max, 81, grid.zeta_min, grid.zeta_max, 41)
    ana = scenarios.build_analytic_grid(sp, small)
    assert ana.state_kind == "formal"
    with pytest.raises(Exception):
        scenarios.build_numeric_grid(sp, small)


def test_unknown_canned_tag():
    with pytest.raises(KeyError):
        scenarios.canned_scenario("fig9")


@st.composite
def _inside_the_regime(draw, name):
    """Parameters inside the scenario's regime of validity.

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
    return scenarios.make_scenario(name, **kw)


@pytest.mark.parametrize("name", sorted(scenarios.REGISTRY))
@given(data=st.data())
def test_closed_form_and_dressing_agree_across_the_regime(name, data):
    sp = data.draw(_inside_the_regime(name))
    grid = GridSpec(-6.0, 6.0, 25, 0.0, 3.0, 7)
    ana = scenarios.build_analytic_grid(sp, grid)
    drs = scenarios.build_dressed_grid(sp, grid)
    assert verify.compare_solutions(ana, drs).max_abs <= scenarios.REGISTRY[name].field_tol
    assert verify.audit_density(ana).max_abs <= 1e-8
    assert verify.audit_density(drs).max_abs <= 1e-8
