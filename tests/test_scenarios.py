"""Structure checks for the canned scenarios: the qualitative features the
reference surfaces are known for, asserted through the feature tracker."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_mb import cli, scenarios, verify
from lambda_mb.errors import ParseError, SpectralPole
from lambda_mb.mbsolver import GridSpec
import observables
from scenario_inputs import canned_scenario, regime_keywords


def test_fig2_gate_closes_for_the_slow_soliton():
    sp, _ = canned_scenario("fig2")
    # the canned constants put the collision near zeta = 2.7.  Before it the
    # a-channel groove moves at the slow-soliton speed; the window keeps the
    # light-speed dip (whose zero crossings also touch I_a = 0) outside
    pre = scenarios.build_analytic_grid(sp, GridSpec(-18.0, -2.0, 801, 0.0, 2.0, 81))
    v_pre = observables.measure_velocity(pre, "ia_min")
    v_slow = 1.0 / (1.0 + sp.spectral.eps0 * sp.params.nu0 /
                    ((sp.params.delta**2 + sp.spectral.eps0**2)
                     * (sp.spectral.eps0 - np.real(sp.spectral.root))))
    assert abs(v_pre - v_slow) < 0.1 * v_slow

    # after the collision the b channel carries an intensive signal moving
    # far faster than the slow soliton but still subluminal: its ridge rides
    # the corridor where the two denominator exponentials balance, giving
    # v = (eps0 + root)/(eps0 + root + nu0 eps0/(Delta^2 + eps0^2)) ~ 0.71 here
    post = scenarios.build_analytic_grid(sp, GridSpec(-4.0, 10.0, 801, 4.0, 8.0, 51))
    v_post = observables.measure_velocity(post, "ib_max")
    w = float(np.real(sp.spectral.root))
    v_corridor = (sp.spectral.eps0 + w) / (
        sp.spectral.eps0 + w
        + sp.params.nu0 * sp.spectral.eps0 / (sp.params.delta**2 + sp.spectral.eps0**2))
    assert abs(v_post - v_corridor) < 0.05 * v_corridor
    assert 3.0 * v_pre < v_post < 1.0

    # and the post-collision b signal is intense compared to the pre-collision
    # slow pulse
    assert np.max(np.abs(post.omega_b) ** 2) > 2.0 * np.max(np.abs(pre.omega_b) ** 2)


def test_fig3_storage_and_reading_structure():
    sp, _ = canned_scenario("fig3")
    # before the reading pulse arrives the stored polarization peak stands
    # still in the lab frame
    window = GridSpec(-12.0, -3.0, 601, -2.5, 2.5, 301)
    sol = scenarios.build_analytic_grid(sp, window)
    v_p1 = observables.measure_velocity(sol, "p1_max")
    assert abs(v_p1) < 1e-3
    # the reading excitation rides in at (near) light speed: its level-3
    # ridge sits near tau = 0 and barely drifts on the approach side
    approach = scenarios.build_analytic_grid(
        sp, GridSpec(-4.0, 2.0, 601, -2.5, -0.8, 171))
    v_p3 = observables.measure_velocity(approach, "p3_max")
    assert 0.7 < v_p3 <= 1.01


def test_fig4_scenario_dual_route_agreement():
    sp, _ = canned_scenario("fig4")
    grid = GridSpec(-8.0, 8.0, 161, 0.0, 5.0, 81)
    ana = scenarios.build_analytic_grid(sp, grid)
    drs = scenarios.build_dressed_grid(sp, grid)
    rep = verify.compare_solutions(ana, drs)
    assert rep.max_abs < 1e-8


def test_exulton_k_canned_runs_without_numeric():
    sp, grid = canned_scenario("exulton_k")
    small = GridSpec(grid.tau_min, grid.tau_max, 81, grid.zeta_min, grid.zeta_max, 41)
    ana = scenarios.build_analytic_grid(sp, small)
    assert ana.state_kind == "formal"
    with pytest.raises(Exception):
        scenarios.build_numeric_grid(sp, small)


def test_unknown_canned_tag():
    with pytest.raises(ParseError) as caught:
        cli.apply_canned(cli.ScenarioConfig(), "fig9")
    assert str(caught.value) == f"unknown canned scenario 'fig9'; have {sorted(scenarios.CANNED)}"


@pytest.mark.parametrize("name", sorted(scenarios.REGISTRY))
def test_every_record_refuses_a_spectral_point_on_the_delta_pole(name):
    # |lambda0 - Delta| = |i eps0 - Delta| <= model.POLE_GUARD: no route is defined there
    with pytest.raises(SpectralPole, match="Delta = 0.0 pole"):
        scenarios.make_scenario(name, omega0=0.0, eps0=1e-10, delta=0.0)


def _inside_the_regime(name):
    """A ScenarioParams bundle inside the scenario's regime of validity."""
    return regime_keywords(name).map(lambda kw: scenarios.make_scenario(name, **kw))


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


@pytest.mark.parametrize("ratio", [1e2, 1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("name", sorted(n for n, r in scenarios.REGISTRY.items()
                                        if r.constants == "a"))
def test_closed_form_and_dressing_agree_far_above_the_background(name, ratio):
    # eps0 / omega0 = ratio: eps0 - root cancels unless written as omega0^2 / (eps0 + root)
    g = scenarios.CANNED[name]["grid"]
    grid = GridSpec(g.tau_min, g.tau_max, 201, g.zeta_min, g.zeta_max, 41)
    sp = scenarios.make_scenario(name, eps0=2.0, omega0=2.0 / ratio)
    ana = scenarios.build_analytic_grid(sp, grid)
    drs = scenarios.build_dressed_grid(sp, grid)
    assert verify.compare_solutions(ana, drs).max_abs <= scenarios.REGISTRY[name].field_tol


def _arrays(sol):
    return [sol.omega_a, sol.omega_b, sol.rho]


@pytest.mark.parametrize("tag", ["fig2", "fig3", "fig4", "fast", "slow", "exulton_k"])
def test_two_builds_share_no_memory(tag):
    sp, canned = canned_scenario(tag)
    grid = GridSpec(canned.tau_min, canned.tau_max, 41, canned.zeta_min, canned.zeta_max, 9)
    for build in (scenarios.build_analytic_grid, scenarios.build_dressed_grid):
        first, second = build(sp, grid), build(sp, grid)
        arrays = _arrays(first) + _arrays(second)
        for i, a in enumerate(arrays):
            assert a.flags.writeable and a.flags.c_contiguous
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


def test_broadcast_evaluator_outputs_become_full_writable_arrays():
    # fast's fields depend on tau alone, (1, n_tau), and its state is the
    # constant (3, 3) dark projector
    sp, canned = canned_scenario("fast")
    grid = GridSpec(canned.tau_min, canned.tau_max, 41, canned.zeta_min, canned.zeta_max, 9)
    zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
    oa, ob, _ = scenarios.REGISTRY["fast"].evaluate(sp, zz, tt)
    assert oa.shape == ob.shape == (1, grid.n_tau)
    sol = scenarios.build_analytic_grid(sp, grid)
    for arr, shape in ((sol.omega_a, (9, 41)), (sol.omega_b, (9, 41)), (sol.rho, (3, 3, 9, 41))):
        assert arr.shape == shape
        assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata
    before = sol.rho[:, :, 1, 1].copy()
    sol.omega_a[0, 0] = 7.0
    sol.rho[1, 1, 0, 0] = 7.0
    assert sol.omega_a[1, 0] != 7.0
    assert np.array_equal(sol.rho[:, :, 1, 1], before)
