"""Cross-check log for transcription variants.

Closed-form expressions for this system circulate with sign/placement
variants that are easy to mistranscribe.  Each test here evaluates the
variant that the package rejected next to the form it ships, against an
arbiter that does not depend on either transcription (the dressing engine
or the field-equation residual).  Keeping the rejected variants
executable documents *why* the shipped forms look the way they do and
guards against silent "fixes" that would re-introduce them.
"""

import math

import numpy as np

from lambda_mb import algebra, analytic, darboux, model, scenarios, verify
from lambda_mb.analytic import ScenarioParams
from lambda_mb.darboux import DressConstants, SolitonConstants
from lambda_mb.mbsolver import GridSpec, SolutionGrid
from lambda_mb.model import LambdaParams, SpectralData
from pointwise_oracle import seed_fundamental


def fig2(a1=1.0, a3=1.0, scenario="two_soliton"):
    return ScenarioParams(
        params=LambdaParams(nu0=3.0, omega0=1.0),
        spectral=SpectralData.from_eps0(2.0, 1.0),
        scenario=scenario,
        soliton=SolitonConstants(a1=a1, a3=a3),
    )


def test_two_soliton_b_channel_zeta_exponent_sign():
    # variant: zeta exponent of the b channel written with the conjugated
    # pole, exp(i nu0 zeta / (2 (Delta - i eps0))).  Along zeta that decays
    # instead of keeping the soliton's modulus, and the dressing engine
    # (which carries no transcription) rejects it.
    sp = fig2()
    p, s = sp.params, sp.spectral
    c = sp.dress_constants()
    z, t = 4.0, 1.0
    oa_e, ob_e, _ = darboux.dressed_fields_and_state(p, s, c, z, t)
    _, ob_impl, _ = analytic.two_soliton(sp, z, t)
    assert abs(ob_impl - ob_e) < 1e-12

    ratio_variant = np.exp(z * 1j * p.nu0 / (2 * (p.delta - 1j * s.eps0))
                           - z * 1j * p.nu0 / (2 * (p.delta + 1j * s.eps0)))
    ob_variant = ob_impl * ratio_variant
    assert abs(ob_variant - ob_e) > 0.5 * abs(ob_e)  # far outside any tolerance


def test_slow_state_middle_component_sign():
    # variant: middle amplitude with the opposite sign on the kink term,
    # (Delta + i eps0 Oa / omega0) / r.  Its projector differs from the
    # dressed state and fails the state equation with the shipped fields.
    sp = fig2(a3=0.0, scenario="slow")
    p, s = sp.params, sp.spectral
    c = sp.dress_constants()
    grid = GridSpec(-6, 6, 121, 0, 2, 81)
    zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
    oa, ob, psi = analytic.slow_soliton(sp, zz, tt)
    w = np.real(s.root)
    r = math.sqrt(p.delta**2 + s.eps0**2)
    psi_var = psi.copy()
    psi_var[..., 1] = (p.delta + 1j * s.eps0 * oa / p.omega0) / r

    def residual(state):
        rho = state[..., :, None] * np.conj(state)[..., None, :]
        shape = (grid.n_zeta, grid.n_tau)
        sol = SolutionGrid(grid=grid,
                           omega_a=np.array(np.broadcast_to(oa, shape)),
                           omega_b=np.array(np.broadcast_to(ob, shape)),
                           rho=np.array(np.broadcast_to(np.moveaxis(rho, (-2, -1), (0, 1)),
                                                        (3, 3) + shape), order="C"),
                           state_kind="pure")
        return verify.pde_residual(sol, p).max_abs

    good = residual(psi)
    bad = residual(psi_var)
    assert good < 2e-3          # stencil truncation only
    assert bad > 100 * good     # violates the state equation outright
    _, _, rho_e = darboux.dressed_fields_and_state(p, s, c, 1.0, 0.5)
    psi_pt = analytic.slow_soliton(sp, 1.0, 0.5)[2]
    assert np.max(np.abs(rho_e - np.outer(psi_pt, np.conj(psi_pt)))) < 1e-12


def test_degenerate_k_background_phase_placement():
    # variant: rotating phase applied to the correction only, leaving the
    # background term unrotated.  The shipped form carries the whole field
    # on the rotating background; only it satisfies the field equations
    # (second-order residual decay), and only it returns to the background
    # modulus in the far tails.
    sp = ScenarioParams(
        params=LambdaParams(nu0=3.0, omega0=1.0, k=0.2),
        spectral=SpectralData.from_eps0(1.0, 1.0),
        scenario="exulton_k",
        constants=DressConstants(0.0, 0.0, 1.0),
    )
    p = sp.params

    def grids(n):
        grid = GridSpec(-6.0, 6.0, n, 0.0, 4.0, n)
        base = scenarios.build_analytic_grid(sp, grid)
        om0 = p.omega0
        rot = np.exp(1j * p.k * grid.zetas())[:, None]
        variant = SolutionGrid(
            grid=grid,
            omega_a=om0 + (base.omega_a - om0 * rot),  # background left static
            omega_b=base.omega_b.copy(),
            rho=base.rho.copy(),
            state_kind="formal",
        )
        return base, variant

    base_c, var_c = grids(81)
    base_f, var_f = grids(161)
    rc, rf = verify.pde_residual(base_c, p), verify.pde_residual(base_f, p)
    assert 1.8 < verify.convergence_order(rc, rf) < 2.2
    vc, vf = verify.pde_residual(var_c, p), verify.pde_residual(var_f, p)
    assert vc.max_abs > 0.01
    assert verify.convergence_order(vc, vf) < 0.5  # residual does not decay

    oa_tail, _, _ = analytic.exulton_k(sp, 5.0, 500.0)
    assert abs(abs(oa_tail) - p.omega0) < 1e-4
    kz = p.k * 5.0
    variant_tail = p.omega0 * abs(1 - 2 * np.exp(1j * kz))
    assert abs(variant_tail - p.omega0) > 0.3  # static-background variant does not return


def test_stored_polarization_state_normalization():
    # variant family: storage-regime state written with an unnormalized
    # middle amplitude.  The shipped construction is the dressed seed
    # state, which is unit-norm by construction; the audit of the grid
    # built from it is clean at 1e-12.
    sp = ScenarioParams(
        params=LambdaParams(nu0=3.0, omega0=0.0),
        spectral=SpectralData.from_eps0(2.0, 0.0),
        scenario="zero_background",
        constants=DressConstants(1.0, 1.0, 1.0),
    )
    grid = GridSpec(-4, 1, 41, -2, 2, 41)
    sol = scenarios.build_analytic_grid(sp, grid)
    rep = verify.audit_density(sol)
    assert rep.max_abs < 1e-12


def test_rotating_seed_naive_gauge():
    # variant: the k != 0 seed read in the physical frame, with the rotating
    # background fields and the pure decoupled state.  The seed basis does
    # not solve that linear system; it solves the rotated-frame one with
    # the companion background state, which is the seed gate's reading.
    p = LambdaParams(nu0=3.0, delta=0.0, omega0=1.0, k=0.2)
    s = SpectralData.from_eps0(2.0, 1.0)
    assert darboux.verify_seed_or_raise(p, s)["passed"]

    def basis(z, t):
        return seed_fundamental(p, s, z, t)

    h = darboux.SEED_GATE_FD_STEP
    v_naive = model.lax_v(s.lambda0, algebra.projector(model.dark_state(p.eta)), p)
    worst = 0.0
    for z, t in darboux.SEED_GATE_POINTS:
        phi = basis(z, t)
        scale = np.max(np.abs(phi))
        dt = (basis(z, t + h) - basis(z, t - h)) / (2 * h)
        dz = (basis(z + h, t) - basis(z - h, t)) / (2 * h)
        u_naive = model.lax_u(s.lambda0,
                              model.interaction_hamiltonian(model.background_fields(p, z)))
        worst = max(worst, np.max(np.abs(dt - u_naive @ phi)) / scale,
                    np.max(np.abs(dz - v_naive @ phi)) / scale)
    assert worst > 1e-3
