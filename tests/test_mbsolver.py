import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lambda_mb import analytic, mbsolver, model, scenarios
from lambda_mb.analytic import ScenarioParams
from lambda_mb.darboux import SolitonConstants
from lambda_mb.errors import BoundaryMismatch, StepUnstable
from lambda_mb.mbsolver import GridSpec, integrate_bloch_slice, maxwell_step, propagate
from lambda_mb.model import LambdaParams, SpectralData

DARK = model.density_from_pure(model.dark_state(0.0))


def slow_scenario(om0=1.0, eps0=2.0, delta=0.0):
    return ScenarioParams(
        params=LambdaParams(nu0=3.0, delta=delta, omega0=om0),
        spectral=SpectralData.from_eps0(eps0, om0),
        scenario="slow",
        soliton=SolitonConstants(1.0, 0.0),
    )


def test_slice_constant_background_dark():
    grid = GridSpec(-5, 5, 101, 0, 1, 2)
    oa = np.full(grid.n_tau, 1.0, dtype=complex)
    ob = np.zeros(grid.n_tau, dtype=complex)
    out, _ = integrate_bloch_slice((oa, ob), DARK, 0.7, grid)
    assert np.max(np.abs(out - DARK)) < 1e-10


def test_slice_free_rotation_closed_form():
    # with no fields the state just rotates under the detuning term
    grid = GridSpec(0, 4, 401, 0, 1, 2)
    delta = 1.3
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho0 = a @ a.conj().T
    rho0 = rho0 / np.trace(rho0)
    zero = np.zeros(grid.n_tau, dtype=complex)
    out, _ = integrate_bloch_slice((zero, zero), rho0, delta, grid)
    taus = grid.taus()
    d = np.array([1.0, 1.0, -1.0])
    for idx in (100, 250, 400):
        ph = np.exp(0.5j * delta * taus[idx] * d)
        expect = ph[:, None] * rho0 * np.conj(ph)[None, :]
        assert np.max(np.abs(out[idx] - expect)) < 1e-9
    # diagonal entries never move
    diags = np.stack([out[:, i, i].real for i in range(3)], axis=-1)
    assert np.max(np.abs(diags - diags[0])) < 1e-12


def test_slice_fourth_order_core_with_exact_midpoints():
    # fields linear in tau: the half-step interpolation is then exact and the
    # one-step scheme shows its genuine fourth order (self-convergence
    # against a much finer reference)
    rho0 = np.diag([0.6, 0.0, 0.4]).astype(complex)  # mixed start, nontrivial dynamics

    def run2(n):
        grid = GridSpec(0.0, 4.0, n, 0.0, 1.0, 2)
        taus = grid.taus()
        oa = (0.3 + 0.25 * taus).astype(complex)
        ob = (0.1 - 0.05 * taus).astype(complex)
        return integrate_bloch_slice((oa, ob), rho0, 0.4, grid)[0], grid

    ref, _ = run2(3201)
    errs = []
    for n in (101, 201):
        out, grid = run2(n)
        stride = (3201 - 1) // (n - 1)
        errs.append(np.max(np.abs(out - ref[::stride])))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 26.0  # ~16x per halving


def test_slice_fourth_order_against_sampled_analytic_fields():
    # cubic midpoint reconstruction keeps the slice fourth order even though
    # the fields are only known on the grid
    sp = slow_scenario()
    errs = []
    for n in (101, 201):
        grid = GridSpec(-8.0, 8.0, n, 0.0, 1.0, 2)
        taus = grid.taus()
        oa, ob, psi = analytic.slow_soliton(sp, 0.0, taus)
        rho_ref = psi[..., :, None] * np.conj(psi)[..., None, :]
        out, _ = integrate_bloch_slice((oa, ob), rho_ref[0], sp.params.delta, grid)
        errs.append(np.max(np.abs(out - rho_ref)))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 26.0


def test_slice_eigenvalue_band_guard():
    grid = GridSpec(0, 1, 11, 0, 1, 2)
    bad = np.diag([-5e-4, 1.0 + 5e-4, 0.0]).astype(complex)
    zero = np.zeros(grid.n_tau, dtype=complex)
    with pytest.raises(StepUnstable):
        integrate_bloch_slice((zero, zero), bad, 0.0, grid)


@pytest.mark.parametrize("where", ["field_a", "field_b", "state"])
def test_slice_with_a_non_finite_input_is_unstable(where):
    grid = GridSpec(-5, 5, 51, 0, 1, 2)
    oa = np.ones(grid.n_tau, dtype=complex)
    ob = np.zeros(grid.n_tau, dtype=complex)
    rho0 = DARK.copy()
    {"field_a": oa, "field_b": ob, "state": rho0.reshape(-1)}[where][4] = np.nan
    with pytest.raises(StepUnstable, match="non-finite"):
        integrate_bloch_slice((oa, ob), rho0, 0.0, grid)


def _dagger(a):
    return np.conj(np.swapaxes(a, -1, -2))


_amplitudes = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_tau=st.integers(3, 300), span=st.floats(0.1, 20.0),
       delta=st.floats(-3.0, 3.0),
       mix=arrays(complex, (3, 3), elements=st.complex_numbers(max_magnitude=1.0,
                                                              allow_nan=False,
                                                              allow_infinity=False)))
def test_slice_is_unitary_conjugation_for_any_fields(data, n_tau, span, delta, mix):
    grid = GridSpec(0.0, span, n_tau, 0.0, 1.0, 2)
    oa = data.draw(arrays(complex, n_tau, elements=_amplitudes))
    ob = data.draw(arrays(complex, n_tau, elements=_amplitudes))
    rho0 = mix @ _dagger(mix) + 0.05 * np.eye(3)
    rho0 /= np.trace(rho0).real
    out, (lo, hi) = integrate_bloch_slice((oa, ob), rho0, delta, grid)
    assert np.array_equal(out, _dagger(out))
    assert np.max(np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho0))) < 1e-12
    eig = np.linalg.eigvalsh(out)
    assert (lo, hi) == (float(eig.min()), float(eig.max()))
    # the blocked prefix product is the plain sequential chain of the same maps
    maps = mbsolver._step_maps(oa, ob, delta, grid.h_tau)
    blocked = mbsolver._prefix_products(maps)
    chain = np.eye(3, dtype=complex)
    assert np.array_equal(blocked[0], chain)
    for j, a in enumerate(maps):
        chain = a @ chain
        assert np.max(np.abs(blocked[j + 1] - chain)) < 1e-13


def test_maxwell_step_dark_background_fixed_point():
    grid = GridSpec(-5, 5, 101, 0, 1, 11)
    oa = np.full(grid.n_tau, 1.0, dtype=complex)
    ob = np.zeros(grid.n_tau, dtype=complex)
    p = LambdaParams(nu0=3.0, omega0=1.0)
    rho_slice, _ = integrate_bloch_slice((oa, ob), DARK, p.delta, grid)
    (oa2, ob2), _, _ = maxwell_step(rho_slice, (oa, ob), p, grid.h_zeta, DARK, grid)
    assert np.array_equal(oa2, oa)
    assert np.array_equal(ob2, ob)


def test_maxwell_step_orders():
    # one zeta step from the analytic entry slice: the predictor alone is
    # first order, the corrected step second order
    sp = slow_scenario()
    p = sp.params

    def step_errors(h_zeta):
        grid = GridSpec(-10.0, 10.0, 801, 0.0, h_zeta, 2)
        taus = grid.taus()
        oa0, ob0, psi0 = analytic.slow_soliton(sp, 0.0, taus)
        oa1, ob1, _ = analytic.slow_soliton(sp, h_zeta, taus)
        rho0 = (psi0[..., :, None] * np.conj(psi0)[..., None, :])
        rho_slice, _ = integrate_bloch_slice((oa0, ob0), rho0[0], p.delta, grid)
        doa, dob = 1j * p.nu0 * rho_slice[:, 2, 0], 1j * p.nu0 * rho_slice[:, 2, 1]
        euler = max(np.max(np.abs(oa0 + h_zeta * doa - oa1)),
                    np.max(np.abs(ob0 + h_zeta * dob - ob1)))
        psi_b = analytic.slow_soliton(sp, h_zeta, taus[0])[2]
        rho_b = np.outer(psi_b, np.conj(psi_b))
        (oa_h, ob_h), _, _ = maxwell_step(rho_slice, (oa0, ob0), p, h_zeta, rho_b, grid)
        heun = max(np.max(np.abs(oa_h - oa1)), np.max(np.abs(ob_h - ob1)))
        return euler, heun

    e1, h1 = step_errors(0.02)
    e2, h2 = step_errors(0.01)
    assert 3.0 < e1 / e2 < 5.0    # local error of one Euler step: O(h^2)
    assert 6.0 < h1 / h2 < 11.0   # corrected step: O(h^3) locally


def test_propagate_constant_background_is_stationary():
    grid = GridSpec(-5, 5, 51, 0, 2, 21)
    p = LambdaParams(nu0=3.0, omega0=1.0)
    oa0 = np.full(grid.n_tau, 1.0, dtype=complex)
    ob0 = np.zeros(grid.n_tau, dtype=complex)
    sol = propagate((oa0, ob0), "dark", p, grid)
    assert np.array_equal(sol.omega_a, np.broadcast_to(oa0, sol.omega_a.shape))
    assert np.max(np.abs(sol.omega_b)) == 0.0
    assert np.max(sol.populations[..., 0]) == 0.0
    assert np.max(np.abs(sol.populations[..., 1] - 1.0)) == 0.0


def test_propagate_boundary_guard():
    grid = GridSpec(-5, 5, 51, 0, 1, 5)
    p = LambdaParams(nu0=3.0, omega0=1.0)
    oa0 = np.full(grid.n_tau, 0.5, dtype=complex)  # does not sit on the background
    ob0 = np.zeros(grid.n_tau, dtype=complex)
    with pytest.raises(BoundaryMismatch):
        propagate((oa0, ob0), "dark", p, grid)


def test_propagate_tracks_analytic_slow_soliton():
    sp = slow_scenario()
    grid = GridSpec(-12.0, 12.0, 481, 0.0, 1.0, 41)
    sol = scenarios.build_numeric_grid(sp, grid)
    ref = scenarios.build_analytic_grid(sp, grid)
    err = max(np.max(np.abs(sol.omega_a - ref.omega_a)),
              np.max(np.abs(sol.omega_b - ref.omega_b)))
    assert err < 2e-3
    fine = scenarios.build_numeric_grid(sp, grid.refined())
    ref_f = scenarios.build_analytic_grid(sp, grid.refined())
    err_f = max(np.max(np.abs(fine.omega_a - ref_f.omega_a)),
                np.max(np.abs(fine.omega_b - ref_f.omega_b)))
    assert 3.0 < err / err_f < 5.5  # global second order


def test_propagate_deterministic():
    sp = slow_scenario()
    grid = GridSpec(-8.0, 8.0, 161, 0.0, 0.5, 11)
    a = scenarios.build_numeric_grid(sp, grid)
    b = scenarios.build_numeric_grid(sp, grid)
    assert np.array_equal(a.omega_a, b.omega_a)
    assert np.array_equal(a.omega_b, b.omega_b)
    assert np.array_equal(a.rho, b.rho)


def test_propagate_meta_audit_equals_a_recompute():
    # propagate folds in each slice's own audit instead of running it twice
    sp = slow_scenario(delta=0.4)
    sol = scenarios.build_numeric_grid(sp, GridSpec(-8.0, 8.0, 161, 0.0, 0.5, 11))
    eig = np.linalg.eigvalsh(sol.rho)
    assert sol.meta["eig_min"] == float(eig.min())
    assert sol.meta["eig_max"] == float(eig.max())
