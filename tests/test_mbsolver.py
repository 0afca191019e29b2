import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lambda_mb import algebra, analytic, mbsolver, model, scenarios, verify
from lambda_mb.analytic import ScenarioParams
from lambda_mb.darboux import SolitonConstants
from lambda_mb.errors import StepUnstable
from lambda_mb.mbsolver import GridSpec, integrate_bloch_slice, maxwell_step, propagate
from lambda_mb.model import LambdaParams, SpectralData
from pointwise_oracle import node_major
from scenario_inputs import canned_scenario, refined, usable_step

DARK = algebra.projector(model.dark_state(0.0))

#: the slice audit (a Jacobi kernel) against LAPACK's eigvalsh on trace-one
#: states: each is accurate to a few ulps of the norm, which is at most 1
EIG_TOL = 1e-14


@st.composite
def _axis(draw, n_min):
    """(low, high, n) of one lattice axis with an odd count n >= n_min that GridSpec takes."""
    n, low = 2 * draw(st.integers(n_min // 2, 2500)) + 1, draw(st.floats(-1e6, 1e6))
    high = draw(st.floats(low, 2e6, exclude_min=True).filter(
        lambda high: usable_step(low, high, n)))
    return low, high, n


@given(_axis(5), _axis(3))
def test_refinement_keeps_every_coarse_node(tau, zeta):
    """Every node of GridSpec.coarse() is an even node of the lattice, bit for bit.

    The command line's residual checks take the produced lattice's even
    rows and columns as its coarse lattice, and verify.convergence_order
    takes log2 of that lattice's residual over the produced one's, which
    assumes that the two are the same domain with both steps halved.
    """
    grid = GridSpec(*tau, *zeta)
    coarse = grid.coarse()
    assert refined(coarse) == grid
    for coarse_nodes, nodes in ((coarse.taus(), grid.taus()), (coarse.zetas(), grid.zetas())):
        assert np.array_equal(nodes[::2].view(np.uint64), coarse_nodes.view(np.uint64))


@pytest.mark.parametrize("n_tau, n_zeta", [(1001, 17), (20001, 5), (33001, 5)])
@pytest.mark.parametrize("name", sorted(scenarios.REGISTRY))
def test_the_even_rows_and_columns_of_a_streamed_block_are_the_coarse_lattice(name, n_tau,
                                                                              n_zeta):
    """The closed form's blocks, subsampled as the residual checks take them, against coarse().

    Each block of grid.blocks() gives its rows of even global index and its
    even columns; together they are the closed form evaluated afresh on
    the coarse lattice, bit for bit, fields and state. 1001 tau nodes make
    blocks of 8 rows, well below numpy's reuse of a temporary of 16,384
    complex values as an operation's output; 33,001 and its coarse 16,501
    make one-row blocks above it. Between the two, 20,001 nodes are above
    it and the coarse 10,001 below, and exulton_k's formal state, which
    forms x * conj(u), then moves in its last bits; every other record
    stays bit-equal there too.
    """
    sp, g = canned_scenario(name)
    grid = GridSpec(g.tau_min, g.tau_max, n_tau, g.zeta_min, g.zeta_max, n_zeta)
    coarse = grid.coarse()
    streamed, blocks = scenarios.closed_form_rows(sp, grid), []
    for z0, z1 in grid.blocks():
        b, r = streamed.rows(z0, z1), z0 % 2
        blocks.append((b.omega_a[r::2, ::2], b.omega_b[r::2, ::2], b.rho[..., r::2, ::2]))
    oa, ob = (np.concatenate([b[k] for b in blocks]) for k in (0, 1))
    rho = np.concatenate([b[2] for b in blocks], axis=2)
    fresh = scenarios.build_analytic_grid(sp, coarse)
    assert oa.tobytes() == fresh.omega_a.tobytes() and ob.tobytes() == fresh.omega_b.tobytes()
    if n_tau > 16384 >= coarse.n_tau and scenarios.state_kind(sp.params) == "formal":
        np.testing.assert_allclose(rho, fresh.rho, rtol=0.0, atol=1e-16)
    else:
        assert rho.tobytes() == fresh.rho.tobytes()


def slow_scenario(om0=1.0, eps0=2.0, delta=0.0):
    return ScenarioParams(
        params=LambdaParams(nu0=3.0, delta=delta, omega0=om0),
        spectral=SpectralData.from_eps0(eps0, om0),
        scenario="slow",
        soliton=SolitonConstants(1.0, 0.0),
    )


def test_solution_grid_requires_a_state_of_the_lattice_shape():
    grid = GridSpec(-1.0, 1.0, 5, 0.0, 1.0, 4)
    fields = np.zeros((4, 5), dtype=complex)
    with pytest.raises(TypeError, match="rho"):
        mbsolver.SolutionGrid(grid, fields, fields)
    # a stack of the wrong length, the node-major form and swapped lattice axes
    for rho in (np.zeros((7, 3, 3), complex), np.zeros((4, 5, 3, 3), complex),
                np.zeros((3, 3, 5, 4), complex)):
        with pytest.raises(ValueError, match=r"\(3, 3, n_zeta, n_tau\) = \(3, 3, 4, 5\)"):
            mbsolver.SolutionGrid(grid, fields, fields, rho=rho)
    rho = np.zeros((3, 3, 4, 5), complex)
    assert mbsolver.SolutionGrid(grid, fields, fields, rho=rho).rows(1, 3).rho.shape == (3, 3, 2, 5)


def test_slice_constant_background_dark():
    grid = GridSpec(-5, 5, 101, 0, 1, 2)
    oa = np.full(grid.n_tau, 1.0, dtype=complex)
    ob = np.zeros(grid.n_tau, dtype=complex)
    out, _ = integrate_bloch_slice((oa, ob), DARK, 0.7, grid)
    assert out.shape == (3, 3, grid.n_tau)
    assert np.max(np.abs(out - DARK[:, :, None])) < 1e-10


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
        assert np.max(np.abs(out[..., idx] - expect)) < 1e-9
    # diagonal entries never move
    diags = np.stack([out[i, i].real for i in range(3)], axis=-1)
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
        errs.append(np.max(np.abs(out - ref[..., ::stride])))
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
        rho_ref = node_major(algebra.projector(psi))
        out, _ = integrate_bloch_slice((oa, ob), rho_ref[0], sp.params.delta, grid)
        errs.append(np.max(np.abs(node_major(out) - rho_ref)))
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
    out, figures = integrate_bloch_slice((oa, ob), rho0, delta, grid)
    lo, hi = figures["eig_min"], figures["eig_max"]
    assert out.shape == (3, 3, n_tau)
    out = node_major(out)
    assert np.array_equal(out, _dagger(out)) and figures["herm_dev"] == 0.0
    assert np.max(np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho0))) < 1e-12
    eig = np.linalg.eigvalsh(out)
    assert abs(lo - eig.min()) <= EIG_TOL and abs(hi - eig.max()) <= EIG_TOL
    # the blocked prefix product is the plain sequential chain of the same
    # maps; both are entry-major (3, 3, n) stacks
    maps = mbsolver._step_maps(oa, ob, delta, grid.h_tau)
    blocked = mbsolver._prefix_products(maps)
    chain = np.eye(3, dtype=complex)
    assert blocked.shape == (3, 3, n_tau)
    assert np.array_equal(blocked[..., 0], chain)
    for j in range(n_tau - 1):
        chain = maps[..., j] @ chain
        assert np.max(np.abs(blocked[..., j + 1] - chain)) < 1e-13


def _pade_maps_by_solve(oa, ob, delta, h):
    """The slice's maps from the (n, 3, 3) Magnus exponents and LAPACK's solve.

    Omega_j = (h/6)(M_j + 4 M_{j+1/2} + M_{j+1}) + (h^2/12)[M_{j+1}, M_j] and
    A_j = (I - Omega/2 + Omega^2/12)^-1 (I + Omega/2 + Omega^2/12): (n-1, 3, 3).
    """
    def generators(fa, fb):
        m = np.zeros(fa.shape + (3, 3), dtype=complex)
        m[:, 0, 0] = m[:, 1, 1] = 0.5j * delta
        m[:, 2, 2] = -0.5j * delta
        m[:, 2, 0], m[:, 2, 1] = 0.5j * fa, 0.5j * fb
        m[:, 0, 2], m[:, 1, 2] = 0.5j * np.conj(fa), 0.5j * np.conj(fb)
        return m

    m = generators(oa, ob)
    m_half = generators(mbsolver._half_step_fields(oa), mbsolver._half_step_fields(ob))
    m0, m1 = m[:-1], m[1:]
    omega = (h / 6.0) * (m0 + 4.0 * m_half + m1) + (h * h / 12.0) * (m1 @ m0 - m0 @ m1)
    even = np.eye(3) + omega @ omega / 12.0
    return np.linalg.solve(even - 0.5 * omega, even + 0.5 * omega)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_tau=st.integers(3, 200), h=st.floats(1e-4, 1.0),
       delta=st.floats(-3.0, 3.0))
def test_adjugate_pade_maps_match_a_solve_and_stay_unitary(data, n_tau, h, delta):
    oa = data.draw(arrays(complex, n_tau, elements=_amplitudes))
    ob = data.draw(arrays(complex, n_tau, elements=_amplitudes))
    maps = np.moveaxis(mbsolver._step_maps(oa, ob, delta, h), -1, 0)
    assert maps.shape == (n_tau - 1, 3, 3)
    assert np.max(np.abs(maps - _pade_maps_by_solve(oa, ob, delta, h))) < 1e-13
    assert np.max(np.abs(maps @ _dagger(maps) - np.eye(3))) < 1e-14


def test_maxwell_step_dark_background_fixed_point():
    grid = GridSpec(-5, 5, 101, 0, 1, 11)
    oa = np.full(grid.n_tau, 1.0, dtype=complex)
    ob = np.zeros(grid.n_tau, dtype=complex)
    p = LambdaParams(nu0=3.0, omega0=1.0)
    rho_slice, _ = integrate_bloch_slice((oa, ob), DARK, p.delta, grid)
    (oa2, ob2), _, _ = maxwell_step(rho_slice, (oa, ob), p, DARK, grid)
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
        rho0 = algebra.projector(psi0)
        rho_slice, _ = integrate_bloch_slice((oa0, ob0), rho0[..., 0], p.delta, grid)
        doa, dob = 1j * p.nu0 * rho_slice[2, 0], 1j * p.nu0 * rho_slice[2, 1]
        euler = max(np.max(np.abs(oa0 + h_zeta * doa - oa1)),
                    np.max(np.abs(ob0 + h_zeta * dob - ob1)))
        psi_b = analytic.slow_soliton(sp, h_zeta, taus[0])[2]
        rho_b = algebra.projector(psi_b)
        (oa_h, ob_h), _, _ = maxwell_step(rho_slice, (oa0, ob0), p, rho_b, grid)
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
    boundary = np.repeat(DARK[..., None], grid.n_zeta, axis=-1)  # (3, 3, n_zeta)
    whole = lambda source: source.rows(0, grid.n_zeta)  # every row, in one block
    sol = propagate((oa0, ob0), boundary, p, grid, whole)
    assert np.array_equal(sol.omega_a, np.broadcast_to(oa0, sol.omega_a.shape))
    assert np.max(np.abs(sol.omega_b)) == 0.0
    assert np.max(sol.rho[0, 0].real) == 0.0
    assert np.max(np.abs(sol.rho[1, 1].real - 1.0)) == 0.0
    # the boundary is entry-major; the node-major stack of the same matrices is refused
    with pytest.raises(ValueError, match=r"\(3, 3, n_zeta\) = \(3, 3, 21\)"):
        propagate((oa0, ob0), np.ascontiguousarray(np.moveaxis(boundary, -1, 0)), p, grid, whole)


def test_propagate_tracks_analytic_slow_soliton():
    sp = slow_scenario()
    grid = GridSpec(-12.0, 12.0, 481, 0.0, 1.0, 41)
    sol = scenarios.build_numeric_grid(sp, grid)
    ref = scenarios.build_analytic_grid(sp, grid)
    err = max(np.max(np.abs(sol.omega_a - ref.omega_a)),
              np.max(np.abs(sol.omega_b - ref.omega_b)))
    assert err < 2e-3
    fine = scenarios.build_numeric_grid(sp, refined(grid))
    ref_f = scenarios.build_analytic_grid(sp, refined(grid))
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
    assert a.meta == b.meta


@pytest.mark.parametrize("block", [
    (0, 2),  # the block just read, again
    (3, 4),  # a skip ahead: the next row is 2
    (2, 6),  # past the last row of 5
    (2, 2),  # an empty block, z0 >= z1
])
def test_the_solver_source_refuses_any_block_but_the_next(block):
    sp, g = canned_scenario("slow")
    grid = GridSpec(g.tau_min, g.tau_max, 41, g.zeta_min, g.zeta_max, 5)
    source = mbsolver.MarchRows(*scenarios.numeric_entry(sp, grid), sp.params, grid)
    assert source.rows(0, 2).omega_a.shape == (2, 41)
    with pytest.raises(ValueError, match="once each, in order"):
        source.rows(*block)


@pytest.mark.parametrize("tag, delta, n_tau, n_zeta", [
    ("slow", 0.0, 161, 11), ("slow", 0.4, 161, 11), ("fig4", 0.0, 161, 11),
    ("fast", 0.0, 161, 11), ("two_soliton", 0.0, 161, 11),
    # 16,821 nodes: several blocks of the stored audit, the last one short
    ("fig4", 0.0, 801, 21), ("zero_background", 0.0, 801, 21),
])
def test_the_audit_of_a_numeric_grid_is_the_audit_of_its_slices_stored(tag, delta, n_tau, n_zeta):
    sp, g = canned_scenario(tag)
    sp = dataclasses.replace(sp, params=dataclasses.replace(sp.params, delta=delta))
    grid = GridSpec(g.tau_min, g.tau_max, n_tau, g.zeta_min, g.zeta_min + (n_zeta - 1) * g.h_zeta,
                    n_zeta)
    sol = scenarios.build_numeric_grid(sp, grid)
    # bit for bit: each figure the solver folded against the kernel over the
    # whole stored state, and its report against the audit of the stored grid
    whole = algebra.state_figures(sol.rho, "density")
    assert {key: sol.meta[key].tobytes() for key in whole} == {
        key: value.tobytes() for key, value in whole.items()}
    ours = verify.audit_report(sol.meta, "density", grid)
    theirs = verify.audit_density(sol)
    assert np.float64(ours.max_abs).tobytes() == np.float64(theirs.max_abs).tobytes()
    assert ours.as_text() == theirs.as_text()


@pytest.mark.parametrize("tag", ["slow", "fig4"])  # a transcribed and a dressed tau_min state
def test_every_slice_is_hermitian_and_the_grid_reports_it(tag):
    sp, g = canned_scenario(tag)
    grid = GridSpec(g.tau_min, g.tau_max, 161, g.zeta_min, g.zeta_min + 10 * g.h_zeta, 11)
    sol = scenarios.build_numeric_grid(sp, grid)
    # bit for bit on the stored state, and each slice's measured defect says so
    assert np.array_equal(node_major(sol.rho), _dagger(node_major(sol.rho)))
    # one-row blocks: the source's figures fold each slice's worst in, so a
    # zero after every block is a zero on every slice
    source = mbsolver.MarchRows(*scenarios.numeric_entry(sp, grid), sp.params, grid)
    for z in range(grid.n_zeta):
        source.rows(z, z + 1)
        assert source.figures["herm_dev"] == 0.0
    meta = sol.meta
    assert meta["herm_dev"] == 0.0
    assert verify.audit_report(meta, "density", grid).max_abs == max(
        meta["herm_dev"], meta["trace_dev"], -meta["eig_min"], meta["eig_max"] - 1.0, 0.0)
