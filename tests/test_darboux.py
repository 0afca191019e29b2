import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_mb import algebra, analytic, darboux, model, scenarios
from lambda_mb.darboux import DressConstants, SolitonConstants, map_constants
from lambda_mb.errors import DegenerateMapping, ParameterGuard
from lambda_mb.mbsolver import GridSpec
from lambda_mb.model import LambdaParams, SpectralData
from pointwise_oracle import (
    DegeneratePsi,
    SingularMatrix,
    SpectralMatrixL,
    biorthogonal_partner,
    build_psi1,
    dress,
    extract_fields,
    seed_fundamental,
    sigma1,
)
from scenario_inputs import canned_scenario, refined, regime_keywords

FIG2_P = LambdaParams(nu0=3.0, delta=0.0, omega0=1.0)
FIG2_S = SpectralData.from_eps0(2.0, 1.0)


def fig2_constants():
    return map_constants(SolitonConstants(1.0, 1.0), FIG2_S, 1.0)


# ---------------------------------------------------------------------------
# constant mapping
# ---------------------------------------------------------------------------

def test_map_constants_values():
    c = map_constants(SolitonConstants(0.0, 0.0), SpectralData.from_eps0(2.0, 1.0), 1.0)
    assert abs(c.c2 - 0.5176380902050416) < 1e-12  # sqrt(2 - sqrt(3))
    assert c.c1 == 0.0 and c.c3 == 0.0
    c = fig2_constants()
    assert abs(c.c1 - 0.5773502691896257) < 1e-12  # sqrt(1/3)
    assert abs(c.c2 - 0.5176380902050416) < 1e-12
    assert abs(c.c3 - 1.9318516525781366) < 1e-12  # sqrt(2 + sqrt(3))


def test_map_constants_degenerate():
    with pytest.raises(DegenerateMapping):
        map_constants(SolitonConstants(1.0, 1.0), SpectralData.from_eps0(1.0, 1.0), 1.0)


# ---------------------------------------------------------------------------
# seed fundamental matrix
# ---------------------------------------------------------------------------

def test_seed_structure_at_origin():
    phi = seed_fundamental(FIG2_P, FIG2_S, 0.0, 0.0)
    # exponentials are 1 at the origin, so the frame itself shows through
    assert np.allclose(phi[2, :], [0.0, 1.0, 1.0], atol=1e-15)
    # omega0 / (-lambda0 + i root) = i (eps0 + root) / omega0, the form without
    # the cancellation of root - eps0 (1.4e-15 in the quotient form)
    assert abs(phi[0, 1] - 1j * (2.0 + math.sqrt(3))) < 1e-15


def test_seed_vanishing_background_dark_column():
    p = LambdaParams(nu0=3.0, delta=0.3, omega0=0.0)
    s = SpectralData.from_eps0(2.0, 0.0)
    z, t = 0.7, -0.4
    phi = seed_fundamental(p, s, z, t)
    mu1 = 0.5j * s.lambda0 * t + 0.5j * p.nu0 * z / (s.lambda0 - p.delta)
    assert np.allclose(phi[:, 1], np.array([0, 1, 0]) * np.exp(mu1), atol=1e-14)


def test_seed_degenerate_guard():
    # eps0 = omega0 no longer raises: the guard routes it to the confluent
    # basis, which is finite and invertible there, and it still refuses the
    # eta != 0 reading the confluent columns were not derived for
    p = LambdaParams(nu0=3.0, omega0=1.0)
    s = SpectralData.from_eps0(1.0, 1.0)
    assert darboux.seed_family(p, s) == "confluent"
    phi = seed_fundamental(p, s, 0.0, 0.0)
    assert np.all(np.isfinite(phi))
    assert abs(np.linalg.det(phi)) > 1e-3
    with pytest.raises(ParameterGuard):
        seed_fundamental(LambdaParams(nu0=3.0, omega0=1.0, eta=0.3), s, 0.0, 0.0)


def _fd_residuals(basis, u_mat, v_mat, z, t, h):
    phi = basis(z, t)
    scale = np.max(np.abs(phi))
    dt = (basis(z, t + h) - basis(z, t - h)) / (2 * h)
    dz = (basis(z + h, t) - basis(z - h, t)) / (2 * h)
    rt = np.max(np.abs(dt - u_mat @ phi)) / scale
    rz = np.max(np.abs(dz - v_mat @ phi)) / scale
    return rt, rz


@pytest.mark.parametrize("eta", [0.0, 0.4])
@pytest.mark.parametrize("delta", [0.0, 0.6])
def test_seed_solves_linear_system_second_order(eta, delta):
    p = LambdaParams(nu0=3.0, delta=delta, omega0=1.0, eta=eta)
    s = FIG2_S
    h_bg = model.interaction_hamiltonian(
        (p.omega0 * math.cos(eta), p.omega0 * math.sin(eta))
    )
    u = model.lax_u(s.lambda0, h_bg)
    rho = algebra.projector(model.dark_state(eta))
    v = model.lax_v(s.lambda0, rho, p)

    def basis(z, t):
        return seed_fundamental(p, s, z, t)

    rt1, rz1 = _fd_residuals(basis, u, v, 1.3, 0.7, 1e-3)
    rt2, rz2 = _fd_residuals(basis, u, v, 1.3, 0.7, 5e-4)
    assert rt1 < 1e-5 and rz1 < 1e-5
    # second-order stencil: quartering under step halving
    assert rt2 < 0.3 * rt1 or rt2 < 1e-12
    assert rz2 < 0.3 * rz1 or rz2 < 1e-12


def test_confluent_seed_solves_linear_system():
    # at eps0 = omega0 seed_fundamental stacks the confluent columns: the
    # exponential one, the limit column (i, 0, 1) and its secular partner
    p = LambdaParams(nu0=3.0, delta=0.2, omega0=1.0)
    s = SpectralData.from_eps0(1.0, 1.0)
    assert darboux.seed_family(p, s) == "confluent"
    assert np.array_equal(seed_fundamental(p, s, 0.0, 0.0)[:, 1], [1j, 0.0, 1.0])
    h_bg = model.interaction_hamiltonian((1.0, 0.0))
    u = model.lax_u(s.lambda0, h_bg)
    rho = algebra.projector(model.dark_state(0.0))
    v = model.lax_v(s.lambda0, rho, p)

    def basis(z, t):
        return seed_fundamental(p, s, z, t)

    rt1, rz1 = _fd_residuals(basis, u, v, 0.9, 1.4, 1e-3)
    rt2, rz2 = _fd_residuals(basis, u, v, 0.9, 1.4, 5e-4)
    assert rt1 < 1e-5 and rz1 < 1e-5
    assert rt2 < 0.3 * rt1
    assert rz2 < 0.3 * rz1


def test_seed_gate_k_nonzero():
    # the rotated-frame companion state carries the rotating seed; the
    # naive reading that does not is rejected in test_mismatch.py
    p = LambdaParams(nu0=3.0, delta=0.0, omega0=1.0, k=0.2)
    report = darboux.seed_residual_report(p, FIG2_S)
    assert report["family"] == "regular"
    assert report["passed"]


def test_seed_gate_confluent_k():
    p = LambdaParams(nu0=3.0, delta=0.4, omega0=1.0, k=0.2)
    s = SpectralData.from_eps0(1.0, 1.0)
    report = darboux.seed_residual_report(p, s)
    assert report["family"] == "confluent"
    assert report["passed"]


@pytest.mark.parametrize("name", sorted(scenarios.REGISTRY))
@given(data=st.data())
def test_seed_gate_passes_across_every_regime(name, data):
    sp = scenarios.make_scenario(name, **data.draw(regime_keywords(name)))
    report = darboux.verify_seed_or_raise(sp.params, sp.spectral)
    assert report["passed"]
    assert report["family"] == darboux.seed_family(sp.params, sp.spectral)


def test_seed_gate_fails_on_a_nan_basis(monkeypatch):
    p, s = FIG2_P, FIG2_S
    good = darboux.seed_columns

    def nan_at_one_point(p_, s_, z, t):
        fam, cols, exps = good(p_, s_, z, t)
        if (z, t) == darboux.SEED_GATE_POINTS[1]:
            cols = tuple(tuple(x * np.nan for x in col) for col in cols)
        return fam, cols, exps

    monkeypatch.setattr(darboux, "seed_columns", nan_at_one_point)
    report = darboux.seed_residual_report(p, s)
    assert math.isnan(report["tau_residual"]) and not report["passed"]
    with pytest.raises(ParameterGuard, match="seed verification gate failed"):
        darboux.verify_seed_or_raise(p, s)


@pytest.mark.parametrize("name, kw", [
    ("zero_background", dict(omega0=0.0, eps0=0.3, nu0=25.0)),
    ("zero_background", dict(omega0=0.0, eps0=0.3, nu0=400.0)),
    ("two_soliton", dict(omega0=0.1, eps0=0.2, nu0=16.0)),
    ("two_soliton", dict(omega0=1.0, eps0=100.0)),
    ("exulton", dict(omega0=1.0, eps0=1.0, nu0=100.0)),
    ("exulton_k", dict(omega0=1.0, eps0=1.0, nu0=100.0, k=0.2, c=(0.0, 0.0, 1.0))),
])
def test_seed_gate_passes_on_fast_growing_columns(name, kw):
    # growth rates of about 40 to 700 per unit of zeta or tau: differencing
    # the raw exponentials failed these (or overflowed to NaN), while the
    # engine, which factors the exponent out, builds them
    sp = scenarios.make_scenario(name, **kw)
    grid = GridSpec(-2.0, 2.0, 7, 0.0, 1.0, 5)
    sol = scenarios.build_dressed_grid(sp, grid)
    gate = sol.meta["seed_gate"]
    assert gate["passed"]
    assert max(gate["tau_residual"], gate["zeta_residual"]) < 1e-10
    assert np.isfinite(sol.omega_a).all() and np.isfinite(sol.rho).all()


@given(nu0=st.floats(0.5, 1e3), delta=st.floats(-2.0, 2.0), eps0=st.floats(0.2, 1e3),
       k=st.floats(-0.3, 0.3), family=st.sampled_from(["regular", "vanishing", "confluent"]))
def test_seed_gate_passes_at_any_growth_rate(nu0, delta, eps0, k, family):
    # no bound on nu0 or eps0 is set by the guards, so the gate is held far
    # beyond the regime sweep, at column growth rates up to about 1e4
    omega0 = {"regular": 0.5 * eps0, "vanishing": 0.0, "confluent": eps0}[family]
    p = LambdaParams(nu0=nu0, delta=delta, omega0=omega0, k=0.0 if family == "vanishing" else k)
    s = SpectralData.from_eps0(eps0, omega0)
    report = darboux.seed_residual_report(p, s)
    assert report["family"] == family
    assert max(report["tau_residual"], report["zeta_residual"]) < 1e-9


@pytest.mark.parametrize("mutate", ["exponent", "column"])
def test_seed_gate_fails_on_a_wrong_basis(monkeypatch, mutate):
    # a column that solves neither system, or the right column under a wrong
    # exponent rate, is refused
    p, s = FIG2_P, FIG2_S
    good = darboux.seed_columns

    def wrong(p_, s_, z, t):
        fam, cols, exps = good(p_, s_, z, t)
        if mutate == "exponent":
            return fam, cols, (exps[0], 1.01 * exps[1], exps[2])
        return fam, (cols[0], cols[2], cols[2] * np.array([1.0, 1.0, 1.01])), exps

    monkeypatch.setattr(darboux, "seed_columns", wrong)
    assert not darboux.seed_residual_report(p, s)["passed"]


@pytest.mark.parametrize("gap", [0.5e-8, 2e-8])
@pytest.mark.parametrize("k", [0.0, 0.2])
@pytest.mark.parametrize("delta", [0.0, 0.4])
def test_seed_gate_passes_on_both_sides_of_the_degenerate_switch(gap, k, delta):
    # below DEGENERATE_TOL the confluent columns stand in for the two
    # nearly coalesced exponential ones; either basis solves its system
    p = LambdaParams(nu0=3.0, delta=delta, omega0=1.0, k=k)
    s = SpectralData.from_eps0(1.0 + gap, 1.0)
    report = darboux.seed_residual_report(p, s)
    assert report["family"] == ("confluent" if gap < darboux.DEGENERATE_TOL else "regular")
    assert report["passed"]


@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_every_dressing_grid_carries_a_passing_seed_gate(tag):
    sp, canned = canned_scenario(tag)
    grid = GridSpec(canned.tau_min, canned.tau_max, 5, canned.zeta_min, canned.zeta_max, 3)
    gate = scenarios.build_dressed_grid(sp, grid).meta["seed_gate"]
    assert gate["passed"]
    assert gate["family"] == darboux.seed_family(sp.params, sp.spectral)


@pytest.mark.parametrize("omega0, eps0", [(1.0, 2.0), (0.0, 2.0), (1.0, 1.0)])
@pytest.mark.parametrize("cs", [(1.0, 1.0, 1.0), (0.7, 0.0, -1.3), (0.0, 0.0, 1.0)])
def test_dressing_column_combines_the_gated_seed_columns(omega0, eps0, cs):
    # psi3_column is the seed basis times the constants, up to the per-point scale
    p = LambdaParams(nu0=3.0, delta=0.3, omega0=omega0)
    s = SpectralData.from_eps0(eps0, omega0)
    c = DressConstants(*cs)
    weights = np.array(cs, dtype=complex)
    for z, t in darboux.SEED_GATE_POINTS:
        want = seed_fundamental(p, s, z, t) @ weights
        got = np.array([x for x in darboux.psi3_column(p, s, c, z, t)])
        assert abs(abs(np.vdot(got, want)) - np.linalg.norm(got) * np.linalg.norm(want)) \
            <= 1e-13 * np.linalg.norm(got) * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# partner, psi columns, dressing operator
# ---------------------------------------------------------------------------

def test_biorthogonal_partner_identity_and_unitary():
    eye = np.eye(3, dtype=complex)
    assert np.allclose(biorthogonal_partner(eye), eye, atol=0)
    # a unitary basis is its own partner
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(a)
    assert np.max(np.abs(biorthogonal_partner(q) - q)) < 1e-13


def test_biorthogonal_partner_delta_property():
    phi = seed_fundamental(FIG2_P, FIG2_S, 1.0, 1.0)
    partner = biorthogonal_partner(phi)
    for i in range(3):
        for j in range(3):
            got = np.sum(np.conj(partner[:, i]) * phi[:, j])
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-10


def test_build_psi1_selection():
    phi = seed_fundamental(FIG2_P, FIG2_S, 0.5, -0.3)
    psi = build_psi1(phi, DressConstants(0.0, 1.0, 0.0))
    partner = biorthogonal_partner(phi)

    def collinear(u, v):
        uu, vv = u / np.linalg.norm(u), v / np.linalg.norm(v)
        return abs(abs(np.vdot(uu, vv)) - 1.0) < 1e-12

    assert collinear(psi[:, 2], phi[:, 1])      # psi3 = second basis column
    assert collinear(psi[:, 0], partner[:, 0])  # psi1 = first partner column
    assert collinear(psi[:, 1], partner[:, 2])  # psi2 = -(third partner column)


def test_build_psi1_orthogonality_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = DressConstants(*rng.uniform(-2, 2, size=3))
        z, t = rng.uniform(0, 4), rng.uniform(-6, 6)
        phi = seed_fundamental(FIG2_P, FIG2_S, z, t)
        psi = build_psi1(phi, c)
        assert abs(np.vdot(psi[:, 2], psi[:, 0])) < 1e-10
        assert abs(np.vdot(psi[:, 2], psi[:, 1])) < 1e-10


def test_build_psi1_degenerate():
    phi = seed_fundamental(FIG2_P, FIG2_S, 0.0, 0.0)
    with pytest.raises(DegeneratePsi):
        build_psi1(phi, DressConstants(0.0, 1.0, -1.0))  # psi1 vanishes identically


def test_sigma1_cases():
    l1 = SpectralMatrixL.for_eigenvalue(2j)
    got = sigma1(np.eye(3, dtype=complex), l1, 0.0)
    assert np.allclose(got, np.diag([-2j, -2j, 2j]), atol=0)
    # shifting by the conjugate eigenvalue collapses the doubled sector
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 2 * np.eye(3)
    shifted = sigma1(psi, l1, -2j)
    assert np.linalg.matrix_rank(shifted, tol=1e-10) == 1
    s = sigma1(psi, l1, 0.37)
    assert abs(np.trace(s) - (2 * (-2j) + 2j - 3 * 0.37)) < 1e-10


def test_sigma1_propagates_singular():
    l1 = SpectralMatrixL.for_eigenvalue(2j)
    with pytest.raises(SingularMatrix):
        sigma1(np.ones((3, 3), dtype=complex), l1, 0.0)


def test_dress_degenerate_column_keeps_background_intensity():
    # a dressing column proportional to a single seed basis column shifts
    # phases only: the a-channel intensity stays on the background
    p, s = FIG2_P, FIG2_S
    l1 = SpectralMatrixL.for_eigenvalue(s.lambda0)
    h0 = model.interaction_hamiltonian((p.omega0, 0.0))
    rho0 = algebra.projector(model.dark_state(0.0))
    for z, t in [(0.0, 0.0), (1.5, 2.0), (3.0, -4.0)]:
        phi = seed_fundamental(p, s, z, t)
        psi = build_psi1(phi, DressConstants(0.0, 1.0, 0.0))
        h, rho = dress(h0, rho0, psi, l1, p.delta)
        oa, ob = extract_fields(h)
        assert abs(abs(oa) - p.omega0) < 1e-12
        assert abs(ob) < 1e-12
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_dress_matches_closed_form_pointwise():
    p, s = FIG2_P, FIG2_S
    c = fig2_constants()
    l1 = SpectralMatrixL.for_eigenvalue(s.lambda0)
    h0 = model.interaction_hamiltonian((p.omega0, 0.0))
    rho0 = algebra.projector(model.dark_state(0.0))
    sp = analytic.ScenarioParams(params=p, spectral=s, scenario="two_soliton",
                                 soliton=SolitonConstants(1.0, 1.0))
    rng = np.random.default_rng(13)
    for _ in range(25):
        # moderate window: the pointwise pipeline materializes the seed basis,
        # whose determinant guard trips in the deep tails (the grid driver
        # assembles the column with factored exponents and has no such limit)
        z, t = rng.uniform(0, 4), rng.uniform(-6, 6)
        phi = seed_fundamental(p, s, z, t)
        psi = build_psi1(phi, c)
        h, rho = dress(h0, rho0, psi, l1, p.delta)
        oa, ob = extract_fields(h)
        oa_ref, ob_ref, _ = analytic.two_soliton(sp, z, t)
        rho_ref = darboux.dressed_density(sp.params, sp.spectral, sp.dress_constants(), z, t)
        assert abs(oa - oa_ref) < 1e-11
        assert abs(ob - ob_ref) < 1e-11
        assert np.max(np.abs(rho - rho_ref)) < 1e-9
        # dressed state keeps the seed spectrum {0, 0, 1}
        eig = np.sort(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)))
        assert np.allclose(eig, [0.0, 0.0, 1.0], atol=1e-8)


def test_dressed_grid_boundary_recovery():
    # far tails return to the background: |O_a| -> omega0 and O_b -> 0.
    # the slow tail decays like exp(-(eps0 - root) |tau|), so 1e-6 recovery
    # at these parameters needs |tau| beyond ~115; probe at 150
    p, s = FIG2_P, FIG2_S
    c = fig2_constants()
    taus = np.array([[-150.0, 150.0]])
    zetas = np.array([[0.0], [4.0], [8.0]])
    oa, ob, _ = darboux.dressed_fields_and_state(p, s, c, zetas, taus)
    assert np.max(np.abs(np.abs(oa) - p.omega0)) < 1e-6
    assert np.max(np.abs(ob)) < 1e-6


def test_dressed_state_similar_to_projector_across_grid():
    p, s = FIG2_P, FIG2_S
    c = fig2_constants()
    zz = np.linspace(0, 8, 21)[:, None]
    tt = np.linspace(-20, 20, 41)[None, :]
    _, _, rho = darboux.dressed_fields_and_state(p, s, c, zz, tt)
    assert rho.shape == (3, 3, 21, 41)
    rho = np.moveaxis(rho, (0, 1), (-2, -1))  # the (21, 41, 3, 3) stack of node matrices
    herm = np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2))))
    tr = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0))
    eig = np.linalg.eigvalsh(rho)
    assert herm < 1e-12 and tr < 1e-10
    assert np.max(np.abs(np.sort(eig, axis=-1) - np.array([0.0, 0.0, 1.0]))) < 1e-8


def test_dressed_grid_zero_curvature_three_probes():
    from lambda_mb import verify
    from lambda_mb.mbsolver import GridSpec

    sp = analytic.ScenarioParams(params=FIG2_P, spectral=FIG2_S,
                                 scenario="two_soliton",
                                 soliton=SolitonConstants(1.0, 1.0))
    grid = GridSpec(-10, 10, 81, 0, 5, 81)
    coarse = scenarios.build_dressed_grid(sp, grid)
    fine = scenarios.build_dressed_grid(sp, refined(grid))
    for lam in (1 + 1j, 0.7j, -2 + 0.5j):
        rc = verify.zero_curvature_residual(coarse, lam, sp.params)
        rf = verify.zero_curvature_residual(fine, lam, sp.params)
        assert 1.8 < verify.convergence_order(rc, rf) < 2.2


def test_rotating_seed_state_properties():
    p = LambdaParams(nu0=3.0, delta=0.5, omega0=1.0, k=0.2)
    rho = darboux.seed_background_state(p)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
    assert abs(np.trace(rho) - 1.0) < 1e-15
    eig = np.linalg.eigvalsh(rho)
    expected_neg = -p.k * math.sqrt(p.delta**2 + p.omega0**2) / p.nu0 + p.k * p.delta / p.nu0
    assert abs(eig.min() - expected_neg) < 1e-12  # indefinite by construction
