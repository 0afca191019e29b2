import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from lambda_mb import algebra, model, scenarios, verify
from lambda_mb.analytic import ScenarioParams
from lambda_mb.darboux import SolitonConstants
from lambda_mb.errors import GridMismatch, SpectralPole
from lambda_mb.mbsolver import GridSpec, SolutionGrid
from lambda_mb.model import LambdaParams, SpectralData
import observables
from observables import FeatureLost
from pointwise_oracle import (reference_audit_density, reference_pde_residual,
                              reference_zero_curvature_residual)
from scenario_inputs import canned_scenario


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
    sp, g = canned_scenario(tag)
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


def _canned_grids(tag, n_zeta):
    sp, g = canned_scenario(tag)
    grid = GridSpec(g.tau_min, g.tau_max, g.n_tau, g.zeta_min, g.zeta_max, n_zeta)
    return [scenarios.build_analytic_grid(sp, grid), scenarios.build_dressed_grid(sp, grid)]


@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_audit_density_matches_the_eigvalsh_audit(tag):
    # exulton_k's grids are formal, every other tag's are pure
    for sol in _canned_grids(tag, 21):
        nodes = sol.grid.n_zeta * sol.grid.n_tau
        assert nodes > verify._AUDIT_CHUNK and nodes % verify._AUDIT_CHUNK  # a partial last chunk
        got, want = verify.audit_density(sol), reference_audit_density(sol)
        assert got.name == want.name and got.grid_h == want.grid_h
        assert abs(got.max_abs - want.max_abs) <= 1e-15 and got.l2 == got.max_abs
        as_density = dataclasses.replace(sol, state_kind="density")
        assert abs(verify.audit_density(as_density).max_abs
                   - reference_audit_density(as_density).max_abs) <= 1e-15


def test_audit_density_does_not_depend_on_the_chunking(monkeypatch):
    sol = _canned_grids("fig4", 21)[0]
    sol.rho[3:7] = algebra.outer(np.array([0.6, 0.8j, 0.0]), np.array([0.5, 0.5, 0.5 + 0.5j]))
    whole = verify.audit_density(sol).max_abs
    assert 0.5 < whole < 1.0
    monkeypatch.setattr(verify, "_AUDIT_CHUNK", 1000)
    assert verify.audit_density(sol).max_abs == whole


@pytest.mark.parametrize("kind", ["pure", "formal"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("node, entry", [  # a diagonal, an upper and a lower entry
    (0, (1, 1)), (verify._AUDIT_CHUNK, (0, 2)), (-1, (2, 1))])
def test_a_non_finite_state_entry_fails_the_audit(kind, value, node, entry):
    sol = dataclasses.replace(_canned_grids("fig4", 21)[0], state_kind=kind)
    sol.rho.reshape(-1, 3, 3)[node][entry] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        metric = verify.audit_density(sol).max_abs
    assert not metric <= 1.0
    if kind != "formal":  # the eigenvalue stage turns any non-finite node into NaN
        assert math.isnan(metric)


def test_audit_density_streaming_metrics_propagate_nan():
    sol = constant_background_grid()
    meta = {"trace_dev": 0.0, "eig_min": math.nan, "eig_max": 1.0}
    streamed = dataclasses.replace(sol, rho=None, meta=meta)
    assert math.isnan(verify.audit_density(streamed).max_abs)
    meta.update(eig_min=0.0, eig_max=math.nan)
    assert math.isnan(verify.audit_density(streamed).max_abs)


def _hermitian_stack(family, rng, n):
    """(n, 3, 3) Hermitian matrices of one family, about unit size."""
    u = np.linalg.qr(rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)))[0]
    if family == "rank1":  # pure states |v><v|
        v = u[:, :, 0]
        return algebra.outer(v, v)
    if family == "degenerate":  # a double eigenvalue
        a, b = rng.standard_normal((2, n))
        lam = np.stack([a, a, b], axis=-1)
    elif family == "scalar":
        lam = np.repeat(rng.standard_normal((n, 1)), 3, axis=-1)
    elif family == "diagonal":
        return np.eye(3) * rng.standard_normal((n, 1, 3)) + 0j
    elif family == "formal":  # trace one and indefinite, like the k != 0 companion states
        lam = rng.standard_normal((n, 3))
        lam[:, 0] = -np.abs(lam[:, 0])
        lam[:, 2] = 1.0 - lam[:, 0] - lam[:, 1]
    elif family == "subnormal":  # a diagonal state plus off-diagonal entries below 1e-300
        m = np.eye(3) * rng.random((n, 1, 3)) + 0j
        off = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) * 5e-310
        for (i, j), o in zip(((0, 1), (0, 2), (1, 2)), off.T):
            m[:, i, j], m[:, j, i] = o, np.conj(o)
        return m
    else:  # generic Hermitian
        lam = rng.standard_normal((n, 3))
    return u @ (lam[:, :, None] * np.conj(np.swapaxes(u, -1, -2)))


_FAMILIES = ["rank1", "degenerate", "scalar", "diagonal", "formal", "subnormal", "generic"]


@given(family=st.sampled_from(_FAMILIES), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 64), exponent=st.integers(-150, 150) | st.just(0))
def test_jacobi_eigenvalues_match_eigvalsh(family, seed, n, exponent):
    a = _hermitian_stack(family, np.random.default_rng(seed), n) * 10.0**exponent
    a = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))  # Hermitian to the last bit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = algebra.hermitian_eigenvalues(
            a[:, 0, 0].real, a[:, 1, 1].real, a[:, 2, 2].real, a[:, 0, 1], a[:, 0, 2], a[:, 1, 2])
    want = np.linalg.eigvalsh(a)
    norm = np.max(np.abs(want), axis=-1)
    assert np.all(np.abs(np.sort(np.stack(got, axis=-1), axis=-1) - want)
                  <= 1e-14 * np.maximum(1.0, norm)[:, None])


def test_jacobi_eigenvalues_of_a_non_finite_node_are_nan():
    # node 0 is finite; nodes 1-3 hold an inf diagonal, a NaN diagonal, an inf off-diagonal
    d0 = np.array([1.0, np.inf, 0.0, 0.0])
    d1 = np.array([0.5, 0.0, np.nan, 0.0])
    x = np.array([0.1j, 0.0, 0.0, complex(0.0, np.inf)])
    with np.errstate(invalid="ignore"):  # non-finite input may warn; only finite input may not
        got = np.array(algebra.hermitian_eigenvalues(d0, d1, np.zeros(4), x, np.zeros(4),
                                                     np.zeros(4)))
    assert np.isnan(got[:, 1:]).all()
    root = math.sqrt(0.25**2 + 0.1**2)
    np.testing.assert_allclose(np.sort(got[:, 0]), [0.0, 0.75 - root, 0.75 + root])


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
