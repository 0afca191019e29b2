import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from lambda_mb import model, scenarios, verify
from lambda_mb.analytic import ScenarioParams
from lambda_mb.darboux import SolitonConstants
from lambda_mb.errors import GridMismatch, SpectralPole
from lambda_mb.mbsolver import GridSpec, SolutionGrid
from lambda_mb.model import LambdaParams, SpectralData
import observables
from observables import FeatureLost
from pointwise_oracle import reference_pde_residual, reference_zero_curvature_residual


def slow_sp(om0=1.0, eps0=2.0):
    return ScenarioParams(
        params=LambdaParams(nu0=3.0, omega0=om0),
        spectral=SpectralData.from_eps0(eps0, om0),
        scenario="slow",
        soliton=SolitonConstants(1.0, 0.0),
    )


def constant_background_grid(grid=None):
    grid = grid or GridSpec(-3, 3, 31, 0, 2, 21)
    oa = np.ones((grid.n_zeta, grid.n_tau), complex)
    ob = np.zeros_like(oa)
    dark = model.density_from_pure(model.dark_state(0.0))
    rho = np.broadcast_to(dark, oa.shape + (3, 3)).copy()
    return SolutionGrid(grid=grid, omega_a=oa, omega_b=ob, rho=rho, state_kind="pure")


def test_zero_curvature_exact_on_stationary_solution():
    sol = constant_background_grid()
    p = LambdaParams(nu0=3.0, omega0=1.0)
    for lam in scenarios.DEFAULT_PROBES:
        rep = verify.zero_curvature_residual(sol, lam, p)
        assert rep.max_abs < 1e-12


def test_zero_curvature_pole_guard():
    sol = constant_background_grid()
    p = LambdaParams(nu0=3.0, delta=0.7, omega0=1.0)
    with pytest.raises(SpectralPole):
        verify.zero_curvature_residual(sol, 0.7, p)


def test_residuals_second_order_on_analytic_grid():
    sp = slow_sp()
    grid = GridSpec(-8, 8, 81, 0, 4, 81)
    sol_c = scenarios.build_analytic_grid(sp, grid)
    sol_f = scenarios.build_analytic_grid(sp, grid.refined())
    rc = verify.pde_residual(sol_c, sp.params)
    rf = verify.pde_residual(sol_f, sp.params)
    assert 1.8 < verify.convergence_order(rc, rf) < 2.2
    zc = verify.zero_curvature_residual(sol_c, 1 + 1j, sp.params)
    zf = verify.zero_curvature_residual(sol_f, 1 + 1j, sp.params)
    assert 1.8 < verify.convergence_order(zc, zf) < 2.2


def _references(sol, p, probes):
    return [reference_pde_residual(sol, p)] + [
        reference_zero_curvature_residual(sol, lam, p) for lam in probes]


def _assert_same_reports(got, want):
    assert [r.name for r in got] == [r.name for r in want]
    for g, w in zip(got, want):
        assert g.lambda_probe == w.lambda_probe and g.grid_h == w.grid_h
        np.testing.assert_allclose([g.max_abs, g.l2], [w.max_abs, w.l2], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_residual_reports_match_the_matmul_formulas(tag):
    sp, g = scenarios.canned_scenario(tag)
    sol = scenarios.build_analytic_grid(
        sp, GridSpec(g.tau_min, g.tau_max, 41, g.zeta_min, g.zeta_max, 9))
    got = verify.residual_reports(sol, sp.params, scenarios.DEFAULT_PROBES)
    want = _references(sol, sp.params, scenarios.DEFAULT_PROBES)
    _assert_same_reports(got, want)
    assert [r.as_text() for r in got] == [r.as_text() for r in want]


_VALUES = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _general_grids(draw):
    """Any fields and any complex, non-Hermitian state on a lattice >= 3 x 3."""
    n_zeta, n_tau = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    grid = GridSpec(-draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 5.0)), n_tau,
                    0.0, draw(st.floats(0.05, 5.0)), n_zeta)

    def cplx(shape):
        re, im = (draw(hnp.arrays(float, shape, elements=_VALUES)) for _ in range(2))
        return re + 1j * im

    shape = (n_zeta, n_tau)
    return SolutionGrid(grid=grid, omega_a=cplx(shape), omega_b=cplx(shape),
                        rho=cplx(shape + (3, 3)))


@given(sol=_general_grids(), nu0=st.floats(0.1, 5.0), delta=st.floats(-2.0, 2.0),
       offsets=st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(-math.pi, math.pi)),
                        min_size=1, max_size=3))
def test_residual_reports_match_the_matmul_formulas_for_any_state(sol, nu0, delta, offsets):
    p = LambdaParams(nu0=nu0, delta=delta, omega0=1.0)
    probes = tuple(delta + r * complex(math.cos(t), math.sin(t)) for r, t in offsets)
    _assert_same_reports(verify.residual_reports(sol, p, probes), _references(sol, p, probes))


def test_a_nan_in_one_state_entry_makes_every_residual_nan():
    sp = slow_sp()
    sol = scenarios.build_analytic_grid(sp, GridSpec(-8, 8, 41, 0, 4, 21))
    sol.rho[7, 30, 0, 1] = np.nan
    reports = verify.residual_reports(sol, sp.params, scenarios.DEFAULT_PROBES)
    assert len(reports) == 1 + len(scenarios.DEFAULT_PROBES)
    assert all(math.isnan(r.max_abs) for r in reports)


def test_convergence_order_on_zero_and_nan_residuals():
    def rep(max_abs):
        return verify.ResidualReport("pde", max_abs, max_abs, (0.1, 0.1))

    assert verify.convergence_order(rep(4e-3), rep(1e-3)) == 2.0
    assert verify.convergence_order(rep(0.0), rep(1e-3)) == -math.inf
    assert verify.convergence_order(rep(1e-3), rep(0.0)) == math.inf
    for coarse, fine in ((math.nan, 1e-3), (1e-3, math.nan), (math.nan, 0.0), (0.0, math.nan)):
        assert math.isnan(verify.convergence_order(rep(coarse), rep(fine)))


def test_pde_residual_detects_corruption():
    sp = slow_sp()
    grid = GridSpec(-8, 8, 81, 0, 4, 81)
    sol = scenarios.build_analytic_grid(sp, grid)
    clean = verify.pde_residual(sol, sp.params).max_abs
    sol.omega_a[40, 40] += 1e-3
    dirty = verify.pde_residual(sol, sp.params).max_abs
    # a point defect of size eps enters the Hamiltonian as eps/2 and the
    # stencil as (eps/2)/(2h); require the detection to reach that scale
    assert dirty > 0.99 * 1e-3 / (4 * grid.h_zeta)
    assert dirty > 20 * clean


def test_audit_density_flags_impurity_when_claimed():
    sol = constant_background_grid()
    rep = verify.audit_density(sol)
    assert rep.max_abs < 1e-12
    mixed = np.broadcast_to(np.eye(3, dtype=complex) / 3, sol.rho.shape).copy()
    sol_mixed = SolutionGrid(grid=sol.grid, omega_a=sol.omega_a, omega_b=sol.omega_b,
                             rho=mixed, state_kind="pure")
    rep2 = verify.audit_density(sol_mixed)
    assert abs(rep2.max_abs - 2.0 / 3.0) < 1e-12  # purity defect of the mixed state


def test_compare_solutions_and_grid_guard():
    a = constant_background_grid()
    rep = verify.compare_solutions(a, a)
    assert rep.max_abs == 0.0
    other = constant_background_grid(GridSpec(-3, 3, 31, 0, 2, 22))
    with pytest.raises(GridMismatch):
        verify.compare_solutions(a, other)


def test_measure_velocity_synthetic_feature():
    # a groove gliding at tau* = m * zeta must come back as v = 1/(1+m)
    grid = GridSpec(-10, 10, 401, 0, 2, 41)
    zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
    m = 3.0
    ia = 1.0 - 1.0 / np.cosh(tt - m * zz) ** 2
    sol = SolutionGrid(grid=grid, omega_a=np.sqrt(ia).astype(complex),
                       omega_b=np.zeros_like(ia, dtype=complex), state_kind="none",
                       populations=np.zeros((grid.n_zeta, grid.n_tau, 3)))
    v = observables.measure_velocity(sol, "ia_min")
    assert abs(v - 1.0 / (1.0 + m)) < 1e-4


def test_measure_velocity_fast_soliton_light_speed():
    sp = ScenarioParams(
        params=LambdaParams(nu0=3.0, omega0=1.0),
        spectral=SpectralData.from_eps0(2.0, 1.0),
        scenario="fast", soliton=SolitonConstants(0.0, 1.0),
    )
    grid = GridSpec(-6, 6, 301, 0, 3, 31)
    sol = scenarios.build_analytic_grid(sp, grid)
    v = observables.measure_velocity(sol, "ia_max")  # light-speed feature is an intensity peak
    assert abs(v - 1.0) < 1e-9


def test_measure_velocity_feature_lost():
    grid = GridSpec(-5, 5, 101, 0, 1, 11)
    flat = np.ones((grid.n_zeta, grid.n_tau), complex)
    sol = SolutionGrid(grid=grid, omega_a=flat, omega_b=np.zeros_like(flat),
                       state_kind="none",
                       populations=np.zeros((grid.n_zeta, grid.n_tau, 3)))
    with pytest.raises(FeatureLost):
        observables.measure_velocity(sol, "ia_min")


def test_report_text_round_trip_keys():
    sol = constant_background_grid()
    rep = verify.pde_residual(sol, LambdaParams(nu0=3.0, omega0=1.0))
    text = rep.as_text()
    assert "max_abs:" in text and "h_tau:" in text
