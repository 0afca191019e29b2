import math

import numpy as np
import pytest

from lambda_mb import algebra, analytic, darboux, model, scenarios
from lambda_mb.analytic import ScenarioParams
from lambda_mb.darboux import DressConstants, SolitonConstants
from lambda_mb.errors import DegenerateConstants, ParameterGuard
from lambda_mb.model import LambdaParams, SpectralData
import observables


def fig2(a1=1.0, a3=1.0, scenario="two_soliton", delta=0.0):
    return ScenarioParams(
        params=LambdaParams(nu0=3.0, delta=delta, omega0=1.0),
        spectral=SpectralData.from_eps0(2.0, 1.0),
        scenario=scenario,
        soliton=SolitonConstants(a1=a1, a3=a3),
    )


def zb_params(c=(1.0, 1.0, 1.0), delta=0.0):
    return ScenarioParams(
        params=LambdaParams(nu0=3.0, delta=delta, omega0=0.0),
        spectral=SpectralData.from_eps0(2.0, 0.0),
        scenario="zero_background",
        constants=DressConstants(*c),
    )


def exulton_params(c=(1.0, 1.0, 1.0), delta=0.0, om0=1.0, k=0.0, scenario="exulton"):
    return ScenarioParams(
        params=LambdaParams(nu0=3.0, delta=delta, omega0=om0, k=k),
        spectral=SpectralData.from_eps0(om0, om0),
        scenario=scenario,
        constants=DressConstants(*c),
    )


# ---------------------------------------------------------------------------
# reductions of the interacting solution
# ---------------------------------------------------------------------------

def test_two_soliton_a3_zero_is_slow_soliton():
    zz = np.linspace(0, 8, 9)[:, None]
    tt = np.linspace(-15, 15, 31)[None, :]
    sp = fig2(a3=0.0)
    oa2, ob2, _ = analytic.two_soliton(sp, zz, tt)
    rho2 = darboux.dressed_density(sp.params, sp.spectral, sp.dress_constants(), zz, tt)
    oa1, ob1, psi = analytic.slow_soliton(fig2(a3=0.0, scenario="slow"), zz, tt)
    assert np.max(np.abs(oa2 - oa1)) < 1e-12
    assert np.max(np.abs(ob2 - ob1)) < 1e-12
    assert np.max(np.abs(rho2 - algebra.projector(psi))) < 1e-10


def test_two_soliton_a1_zero_is_fast_soliton():
    zz = np.linspace(0, 8, 7)[:, None]
    tt = np.linspace(-8, 8, 33)[None, :]
    oa2, ob2, _ = analytic.two_soliton(fig2(a1=0.0), zz, tt)
    oaf, obf, _ = analytic.fast_soliton(fig2(a1=0.0, scenario="fast"), tt)
    assert np.max(np.abs(oa2 - oaf)) < 1e-12
    assert np.max(np.abs(ob2)) == 0.0
    assert np.max(np.abs(obf)) == 0.0


def test_two_soliton_background_recovery():
    sp = fig2()
    oa, ob, _ = analytic.two_soliton(sp, 0.0, -150.0)
    assert abs(abs(oa) - 1.0) < 1e-6
    assert abs(ob) < 1e-6


def test_two_soliton_delta_nonzero_matches_engine():
    sp = fig2(delta=0.8)
    c = sp.dress_constants()
    zz = np.linspace(0, 5, 6)[:, None]
    tt = np.linspace(-8, 8, 17)[None, :]
    oa, ob, _ = analytic.two_soliton(sp, zz, tt)
    oa_e, ob_e, _ = darboux.dressed_fields_and_state(
        sp.params, sp.spectral, c, zz, tt)
    assert np.max(np.abs(oa - oa_e)) < 1e-12
    assert np.max(np.abs(ob - ob_e)) < 1e-12


# ---------------------------------------------------------------------------
# slow soliton
# ---------------------------------------------------------------------------

def test_slow_soliton_center_values():
    sp = fig2(a3=0.0, scenario="slow")
    # phase vanishes at zeta = tau = 0 for a1 = 1
    oa, ob, _ = analytic.slow_soliton(sp, 0.0, 0.0)
    assert abs(oa) < 1e-14
    assert abs(abs(ob) - 1.035276180410083) < 1e-12  # sqrt(2*2*(2-sqrt(3)))


def test_slow_soliton_kink_asymptotics():
    sp = fig2(a3=0.0, scenario="slow")
    oa_p, ob_p, _ = analytic.slow_soliton(sp, 0.0, 200.0)
    assert abs(oa_p - (-1.0)) < 1e-10  # tau coefficient of the phase is negative
    assert abs(ob_p) < 1e-10
    oa_m, _, _ = analytic.slow_soliton(sp, 0.0, -200.0)
    assert abs(oa_m - 1.0) < 1e-10


def test_slow_phase_exponential_identity():
    # exp(2 phi_s) equals the ratio of the slow and counter-rotating
    # denominator exponentials of the interacting form at a3 = 0
    p = LambdaParams(nu0=3.0, delta=0.4, omega0=1.0)
    s = SpectralData.from_eps0(2.0, 1.0)
    w = s.root
    a1 = 0.7
    for z, t in [(0.0, 0.0), (2.0, 3.0), (5.0, -4.0)]:
        phi = (z * s.eps0 * p.nu0 / (2 * (p.delta**2 + s.eps0**2))
               - 0.5 * t * (s.eps0 - w) + math.log(abs(a1)))
        ratio = (a1**2 * math.exp(-t * s.eps0 + z * p.nu0 * s.eps0 / (p.delta**2 + s.eps0**2))
                 / math.exp(-t * w))
        assert abs(math.exp(2 * phi) - ratio) < 1e-12 * ratio


def test_slow_state_norm_and_consistency():
    sp = fig2(a3=0.0, scenario="slow", delta=0.9)
    rng = np.random.default_rng(2)
    c = sp.dress_constants()
    for _ in range(20):
        z, t = rng.uniform(0, 6), rng.uniform(-10, 10)
        _, _, psi = analytic.slow_soliton(sp, z, t)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-10
        _, _, rho = darboux.dressed_fields_and_state(sp.params, sp.spectral, c, z, t)
        assert np.max(np.abs(rho - np.outer(psi, np.conj(psi)))) < 1e-12


def test_slow_group_velocity():
    p = LambdaParams(nu0=3.0, delta=0.0, omega0=1.0)
    s = SpectralData.from_eps0(2.0, 1.0)
    assert abs(observables.slow_group_velocity(p, s) - 1.0 / 6.0) < 1e-15
    stopped = LambdaParams(nu0=3.0, omega0=0.0)
    assert observables.slow_group_velocity(stopped, s) == 0.0
    doubled = LambdaParams(nu0=3.0, omega0=2.0)
    assert abs(observables.slow_group_velocity(doubled, s)
               - 4.0 * observables.slow_group_velocity(p, s)) < 1e-15


# ---------------------------------------------------------------------------
# fast soliton
# ---------------------------------------------------------------------------

def test_fast_soliton_values():
    sp = fig2(a1=0.0, scenario="fast")
    oa0, _, _ = analytic.fast_soliton(sp, 0.0)  # phase zero at tau = 0, a3 = 1
    assert abs(oa0 - (-3.0)) < 1e-14  # 1 - 2*(1+2)/(1+1/2)
    oa_inf, _, _ = analytic.fast_soliton(sp, 50.0)
    assert abs(oa_inf - (-1.0)) < 1e-10
    oa_minf, _, _ = analytic.fast_soliton(sp, -50.0)
    assert abs(oa_minf - (-1.0)) < 1e-10


def test_fast_soliton_zeta_independent():
    # the evaluator has no zeta argument at all; the engine's grid confirms
    sp = fig2(a1=0.0)
    zz = np.array([[0.0], [3.0], [7.0]])
    tt = np.linspace(-5, 5, 11)[None, :]
    oa, ob, _ = analytic.two_soliton(sp, zz, tt)
    assert np.max(np.abs(oa - oa[0])) < 1e-13
    assert np.max(np.abs(ob)) == 0.0


def test_fast_soliton_state_is_the_dark_vector():
    # the medium stays in the decoupled ground state, each entry a broadcast
    # view that allocates nothing per node
    tt = np.linspace(-5, 5, 11)[None, :]
    oa, _, state = analytic.fast_soliton(fig2(a1=0.0, scenario="fast"), tt)
    assert len(state) == 3
    for entry, want in zip(state, model.dark_state(0.0)):
        assert entry.shape == oa.shape and entry.strides == (0, 0)
        assert np.array_equal(entry, np.broadcast_to(want, oa.shape))


@pytest.mark.parametrize("name, keywords, zetas, tau_max, n_tau", [
    # at eps0 = 100, exp(tau * root / 2) and cosh(tau * root) overflow on
    # most of the row, where the solution sits on its background
    pytest.param("two_soliton", dict(eps0=100.0), [0.5], 20.0, 4001, id="two_soliton-20.0"),
    pytest.param("fast", dict(eps0=100.0), [0.5], 10.0, 4001, id="fast-10.0"),
    # c1 = 0: the engine's column formed 0 * exp(mu1), NaN where it overflows
    pytest.param("exulton_k", dict(eps0=1.0, omega0=1.0, k=0.2, c=(0.0, 0.0, 1.0)), [0.0],
                 1500.0, 3001, id="exulton_k-1500.0"),
    pytest.param("exulton_k", dict(eps0=50.0, omega0=50.0, k=0.2, c=(0.0, 0.0, 1.0)),
                 [0.0, 3.0], 60.0, 2001, id="exulton_k-60.0"),
    # and exulton's closed form read 0 / 0 where e^(-phi - |phi|) underflows
    pytest.param("exulton", dict(eps0=50.0, omega0=50.0, c=(0.0, 1.0, 1.0)), [0.0, 3.0],
                 60.0, 2001, id="exulton-60.0"),
    # slow's cosh(phi) overflows where Omega_b has decayed to 0
    pytest.param("slow", dict(eps0=200.0, omega0=100.0), [0.0, 3.0], 60.0, 2001,
                 id="slow-60.0"),
    # zero_background's Omega_b read (c2/c3) exp(i zeta nu0 / (2 (Delta + i eps0))) Omega_a,
    # whose factor overflows past zeta ~ 946 at fig3's parameters (1098 at Delta = 0.8);
    # the stored pulse peaks at tau = zeta nu0 / (2 (Delta^2 + eps0^2)), inside the row
    pytest.param("zero_background", dict(omega0=0.0), [0.0, 500.0, 995.0], 400.0, 8001,
                 id="zero_background-400.0"),
    pytest.param("zero_background", dict(omega0=0.0, delta=0.8), [1200.0], 400.0, 8001,
                 id="zero_background-delta-400.0"),
])
def test_closed_forms_stay_finite_where_an_exponential_overflows(name, keywords, zetas, tau_max,
                                                                 n_tau):
    # both exact routes are finite on every node and agree; a numpy warning
    # fails the test (pyproject.toml's filterwarnings)
    sp = scenarios.make_scenario(name, **keywords)
    zeta, tau = np.array(zetas)[:, None], np.linspace(-tau_max, tau_max, n_tau)[None, :]
    oa, ob, _ = scenarios.REGISTRY[name].evaluate(sp, zeta, tau)
    want = darboux.dressed_fields_and_state(sp.params, sp.spectral, sp.dress_constants(),
                                            zeta, tau)
    for got, ref in zip((oa, ob), want[:2]):
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(ref))
        assert np.max(np.abs(got - ref)) <= scenarios.REGISTRY[name].field_tol
    assert np.all(np.isfinite(want[2]))


# ---------------------------------------------------------------------------
# vanishing background
# ---------------------------------------------------------------------------

def test_zero_background_origin_value():
    oa, ob, _ = analytic.zero_background(zb_params(), 0.0, 0.0)
    assert abs(oa - (-8j / 3)) < 1e-14
    assert abs(ob - (-8j / 3)) < 1e-14  # unit ratio and unit phase at zeta = 0


def test_zero_background_channel_ratio_at_entry():
    sp = zb_params(c=(1.0, 0.7, 2.0))
    oa, ob, _ = analytic.zero_background(sp, 0.0, 0.4)
    assert abs(abs(ob / oa) - 0.7 / 2.0) < 1e-12


def test_zero_background_c1_zero_is_stored_polarization():
    sp = zb_params(c=(0.0, 1.0, 1.0))
    zz = np.linspace(-2, 2, 5)[:, None]
    tt = np.linspace(-3, 3, 7)[None, :]
    oa, ob, _ = analytic.zero_background(sp, zz, tt)
    assert np.max(np.abs(oa)) == 0.0 and np.max(np.abs(ob)) == 0.0
    rho = darboux.dressed_density(sp.params, sp.spectral, sp.constants, zz, tt)
    p1 = rho[0, 0].real
    assert np.max(np.abs(p1 - p1[:, :1])) < 1e-12  # stationary along tau
    assert np.max(p1) > 0.5
    p3 = rho[2, 2].real
    assert np.max(p3) < 1e-28  # no excited-state population without fields


def test_zero_background_state_matches_engine():
    sp = zb_params(delta=0.8)
    c = sp.constants
    rng = np.random.default_rng(3)
    for _ in range(15):
        z, t = rng.uniform(-2, 3), rng.uniform(-3, 2)
        oa, ob, state = analytic.zero_background(sp, z, t)
        assert state is None  # the registry takes the engine's state
        oa_e, ob_e, _ = darboux.dressed_fields_and_state(sp.params, sp.spectral, c, z, t)
        assert abs(oa - oa_e) < 1e-12 and abs(ob - ob_e) < 1e-12
        # the dressed state is the projector onto a unit vector
        rho = darboux.dressed_density(sp.params, sp.spectral, c, z, t)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho @ rho - rho)) < 1e-12


def test_zero_background_guards():
    with pytest.raises(DegenerateConstants):
        analytic.zero_background(zb_params(c=(1.0, 1.0, 0.0)), 0.0, 0.0)
    with pytest.raises(ParameterGuard):
        analytic.zero_background(fig2(), 0.0, 0.0)  # omega0 != 0


# ---------------------------------------------------------------------------
# degenerate point (rational solutions)
# ---------------------------------------------------------------------------

def test_exulton_matches_engine():
    sp = exulton_params(delta=0.5)
    c = sp.constants
    rng = np.random.default_rng(5)
    for _ in range(20):
        z, t = rng.uniform(0, 5), rng.uniform(-6, 6)
        oa, ob, state = analytic.exulton(sp, z, t)
        assert state is None  # the registry takes the engine's state
        oa_e, ob_e, _ = darboux.dressed_fields_and_state(sp.params, sp.spectral, c, z, t)
        assert abs(oa - oa_e) < 1e-12 and abs(ob - ob_e) < 1e-12
        # the dressed state is the projector onto a unit vector
        rho = darboux.dressed_density(sp.params, sp.spectral, c, z, t)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho @ rho - rho)) < 1e-12


def test_exulton_c3_zero_is_plain_kink():
    # c3 = 0 removes the rational part; tanh/sech profile with offset
    # log(c1 / (sqrt(2) c2)), i.e. the slow solution continued to the
    # degenerate point
    sp = exulton_params(c=(math.sqrt(2.0), 1.0, 0.0), delta=0.3)
    p, s = sp.params, sp.spectral
    om0, nu0, delta = p.omega0, p.nu0, p.delta
    for z, t in [(0.0, 0.0), (1.5, 2.0), (4.0, -3.0)]:
        oa, ob, _ = analytic.exulton(sp, z, t)
        phi = z * om0 * nu0 / (2 * (delta**2 + om0**2)) - 0.5 * om0 * t
        assert abs(oa - om0 * math.tanh(phi)) < 1e-12
        expected_b = (-1j * math.sqrt(2.0) * om0
                      * np.exp(1j * z * nu0 * delta / (2 * (om0**2 + delta**2)))
                      / math.cosh(phi))
        assert abs(ob - expected_b) < 1e-12


def test_exulton_c3_zero_is_limit_of_slow_soliton():
    # the slow solution converges to the degenerate-point kink linearly in
    # the branch root as eps0 -> omega0 from above; the regular guard stops
    # at eps0 - omega0 = 1e-8 (w = 1.4e-4), where the engine's seed turns
    # confluent
    errs = []
    for w in (3e-2, 3e-3, 3e-4):
        eps0 = math.sqrt(1.0 + w * w)
        sp_slow = ScenarioParams(
            params=LambdaParams(nu0=3.0, omega0=1.0),
            spectral=SpectralData.from_eps0(eps0, 1.0),
            scenario="slow", soliton=SolitonConstants(1.0, 0.0),
        )
        sp_ex = exulton_params(c=(math.sqrt(2.0), 1.0, 0.0), om0=1.0)
        worst = 0.0
        for z, t in [(0.0, 0.0), (2.0, 1.0), (3.0, -2.0)]:
            oa_s, ob_s, _ = analytic.slow_soliton(sp_slow, z, t)
            oa_e, ob_e, _ = analytic.exulton(sp_ex, z, t)
            worst = max(worst, abs(oa_s - oa_e), abs(ob_s - ob_e))
        errs.append(worst)
    assert errs[1] < 0.2 * errs[0] and errs[2] < 0.2 * errs[1]
    assert errs[2] < 1e-3


def test_exulton_c1_zero_rational_profile():
    sp = exulton_params(c=(0.0, 1.0, 1.0))
    tt = np.linspace(-10, 10, 401)
    oa, ob, _ = analytic.exulton(sp, 0.0, tt)
    assert np.max(np.abs(ob)) == 0.0
    # at the entry face the profile is the pure rational expression
    q = 1.0 + tt  # c2 + c3 tau om0
    den = 2.0 * (q**2 + 1.0)
    expected = -2.0 * (q**2 - 3.0) / den
    assert np.max(np.abs(oa - expected)) < 1e-12
    assert np.min(den) > 0.0  # denominator strictly positive for all tau
    oa0, _, _ = analytic.exulton(sp, 0.0, 0.0)
    assert abs(oa0 - 1.0) < 1e-14  # (0 - 2(1-3)) / (0 + 2(1+1))


def test_exulton_asymptotic_kink():
    sp = exulton_params(c=(1.0, 1.0, 1.0))
    oa_p, _, _ = analytic.exulton(sp, 0.0, 400.0)
    oa_m, _, _ = analytic.exulton(sp, 0.0, -400.0)
    assert abs(oa_p - (-1.0)) < 1e-3
    assert abs(oa_m - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# degenerate point with rotating background
# ---------------------------------------------------------------------------

def test_exulton_k_entry_face_equals_static_form():
    sp_k = exulton_params(c=(0.0, 0.0, 1.0), k=0.2, scenario="exulton_k")
    sp_0 = exulton_params(c=(0.0, 0.0, 1.0), k=0.0, scenario="exulton_k")
    tt = np.linspace(-6, 6, 25)
    oa_k, ob_k, _ = analytic.exulton_k(sp_k, 0.0, tt)
    oa_0, _, _ = analytic.exulton_k(sp_0, 0.0, tt)
    assert np.max(np.abs(oa_k - oa_0)) < 1e-14
    assert np.max(np.abs(ob_k)) == 0.0
    # and the k = 0 evaluation matches the rational scenario with c = (0,0,1)
    oa_ex, _, _ = analytic.exulton(exulton_params(c=(0.0, 0.0, 1.0)), 0.0, tt)
    assert np.max(np.abs(oa_0 - oa_ex)) < 1e-12


def test_exulton_k_origin_and_tails():
    sp = exulton_params(c=(0.0, 0.0, 1.0), k=0.2, scenario="exulton_k")
    oa, _, _ = analytic.exulton_k(sp, 0.0, 0.0)
    assert abs(oa - 3.0) < 1e-14  # peak amplitude at the origin
    for z in (0.0, 3.0, 7.0):
        oa_p, _, _ = analytic.exulton_k(sp, z, 4000.0)
        oa_m, _, _ = analytic.exulton_k(sp, z, -4000.0)
        assert abs(abs(oa_p) - 1.0) < 1e-3
        assert abs(abs(oa_m) - 1.0) < 1e-3


def test_exulton_k_guards_its_constants():
    # the closed form is the c = (0, 0, c3) solution; other constants dress
    # a different one (max |dOmega| = 2 against the engine at c = (1, 1, 1))
    for c in ((1.0, 1.0, 1.0), (0.0, 0.5, 1.0), (0.5, 0.0, 1.0)):
        with pytest.raises(ParameterGuard):
            analytic.exulton_k(exulton_params(c=c, k=0.2, scenario="exulton_k"), 0.0, 0.0)


def test_exulton_k_matches_engine():
    sp = exulton_params(c=(0.0, 0.0, 1.0), k=0.2, scenario="exulton_k", delta=0.4)
    c = sp.constants
    rng = np.random.default_rng(7)
    for _ in range(15):
        z, t = rng.uniform(0, 8), rng.uniform(-8, 8)
        oa, ob, _ = analytic.exulton_k(sp, z, t)
        oa_e, ob_e, _ = darboux.dressed_fields_and_state(
            sp.params, sp.spectral, c, z, t)
        assert abs(oa - oa_e) < 1e-12
        assert abs(ob) == 0.0 and abs(ob_e) < 1e-12


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_intensities_and_populations_dark_background():
    ia, ib, p1, p2, p3 = observables.intensities_and_populations(
        (1.0, 0.0), model.dark_state(0.0))
    assert (ia, ib, p1, p2, p3) == (1.0, 0.0, 0.0, 1.0, 0.0)


def test_populations_sum_to_one_for_pure_states():
    sp = fig2(a3=0.0, scenario="slow", delta=0.5)
    zz = np.linspace(0, 4, 5)[:, None]
    tt = np.linspace(-6, 6, 13)[None, :]
    oa, ob, psi = analytic.slow_soliton(sp, zz, tt)
    _, _, p1, p2, p3 = observables.intensities_and_populations((oa, ob), np.stack(psi, axis=-1))
    assert np.max(np.abs(p1 + p2 + p3 - 1.0)) < 1e-10


def test_excited_population_scales_with_background_intensity():
    # at the soliton center the excited-state population tracks omega0^2
    vals = {}
    for om0 in (0.2, 0.4):
        sp = ScenarioParams(
            params=LambdaParams(nu0=3.0, omega0=om0),
            spectral=SpectralData.from_eps0(2.0, om0),
            scenario="slow", soliton=SolitonConstants(1.0, 0.0),
        )
        _, ob, psi = analytic.slow_soliton(sp, 0.0, 0.0)
        vals[om0] = abs(psi[2]) ** 2
    assert abs(vals[0.4] / vals[0.2] - 4.0) < 0.05
    assert vals[0.2] < 3e-3
