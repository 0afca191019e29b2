"""Acceptance suite: one test per exit criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from lambda_mb import analytic, cli, darboux, model, scenarios, verify
from lambda_mb.analytic import ScenarioParams
from lambda_mb.darboux import DressConstants, SolitonConstants
from lambda_mb.mbsolver import GridSpec, propagate
from lambda_mb.model import LambdaParams, SpectralData
import observables
from scenario_inputs import refined

PROBES = (1.0 + 1.0j, 0.7j, -2.0 + 0.5j)

#: grids collected by criteria 1-3 and audited wholesale by criterion 4
_AUDIT_POOL = []


def _verdict(criterion, ok, detail, t0):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({time.time() - t0:.1f} s) — {detail}"
    print("\n" + line)
    assert ok, line


def fig2_scenario():
    return ScenarioParams(
        params=LambdaParams(nu0=3.0, delta=0.0, omega0=1.0),
        spectral=SpectralData.from_eps0(2.0, 1.0),
        scenario="two_soliton",
        soliton=SolitonConstants(a1=1.0, a3=1.0),
    )


def reference_grid():
    return GridSpec(-20.0, 20.0, 101, 0.0, 8.0, 101)


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    sp = fig2_scenario()
    grid = reference_grid()
    ana = scenarios.build_analytic_grid(sp, grid)
    drs = scenarios.build_dressed_grid(sp, grid)
    _AUDIT_POOL.extend([("c1 analytic", ana), ("c1 dressing", drs)])
    dev = max(float(np.max(np.abs(ana.omega_a - drs.omega_a))),
              float(np.max(np.abs(ana.omega_b - drs.omega_b))))
    elapsed = time.time() - t0
    _verdict(1, dev < 1e-9 and elapsed < 10.0,
             f"max |dOmega| = {dev:.2e} (tol 1e-9) on 101x101", t0)


def test_criterion_2_reduction_limits():
    t0 = time.time()
    grid = reference_grid()
    zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
    sp_slow_full = ScenarioParams(
        params=LambdaParams(nu0=3.0, omega0=1.0),
        spectral=SpectralData.from_eps0(2.0, 1.0),
        scenario="two_soliton", soliton=SolitonConstants(1.0, 0.0))
    oa2, ob2, _ = analytic.two_soliton(sp_slow_full, zz, tt)
    sp_slow = ScenarioParams(params=sp_slow_full.params, spectral=sp_slow_full.spectral,
                             scenario="slow", soliton=SolitonConstants(1.0, 0.0))
    oas, obs, _ = analytic.slow_soliton(sp_slow, zz, tt)
    dev_slow = max(float(np.max(np.abs(oa2 - oas))), float(np.max(np.abs(ob2 - obs))))

    sp_fast_full = ScenarioParams(params=sp_slow_full.params, spectral=sp_slow_full.spectral,
                                  scenario="two_soliton", soliton=SolitonConstants(0.0, 1.0))
    oa2f, ob2f, _ = analytic.two_soliton(sp_fast_full, zz, tt)
    sp_fast = ScenarioParams(params=sp_slow_full.params, spectral=sp_slow_full.spectral,
                             scenario="fast", soliton=SolitonConstants(0.0, 1.0))
    oaf, obf, _ = analytic.fast_soliton(sp_fast, tt)
    dev_fast = max(float(np.max(np.abs(oa2f - oaf))), float(np.max(np.abs(ob2f))),
                   float(np.max(np.abs(obf))))
    dev = max(dev_slow, dev_fast)
    elapsed = time.time() - t0
    _verdict(2, dev < 1e-12 and elapsed < 5.0,
             f"slow reduction {dev_slow:.2e}, fast reduction {dev_fast:.2e} (tol 1e-12)", t0)


def _scenario_suite():
    mk = scenarios.make_scenario
    return [
        ("two_soliton", mk("two_soliton"), GridSpec(-12, 12, 121, 0, 6, 121)),
        ("slow", mk("slow"), GridSpec(-12, 12, 121, 0, 6, 121)),
        ("fast", mk("fast"), GridSpec(-6, 6, 121, 0, 2, 121)),
        ("zero_background", mk("zero_background", omega0=0.0, c=(1, 1, 1)),
         GridSpec(-4, 1, 121, -2, 2, 121)),
        ("exulton", mk("exulton", eps0=1.0, omega0=1.0, c=(1, 1, 1)),
         GridSpec(-6, 6, 121, 0, 4, 121)),
        ("exulton_k", mk("exulton_k", eps0=1.0, omega0=1.0, k=0.2, c=(0, 0, 1)),
         GridSpec(-6, 6, 121, 0, 4, 121)),
    ]


def test_criterion_3_pde_and_curvature_residuals():
    t0 = time.time()
    failures = []
    details = []
    for name, sp, grid in _scenario_suite():
        coarse = scenarios.build_analytic_grid(sp, grid)
        fine = scenarios.build_analytic_grid(sp, refined(grid))
        _AUDIT_POOL.append((f"c3 {name}", coarse))
        pairs = [("pde", verify.pde_residual(coarse, sp.params),
                  verify.pde_residual(fine, sp.params))]
        for lam in PROBES:
            pairs.append((f"zc[{lam}]",
                          verify.zero_curvature_residual(coarse, lam, sp.params),
                          verify.zero_curvature_residual(fine, lam, sp.params)))
        for label, rc, rf in pairs:
            if rc.max_abs < 1e-12 and rf.max_abs < 1e-12:
                continue  # exact stationary solution: residual at machine zero
            order = verify.convergence_order(rc, rf)
            if not (1.8 <= order <= 2.2):
                failures.append(f"{name}/{label}: order {order:.2f}")
        details.append(name)
    elapsed = time.time() - t0
    _verdict(3, not failures and elapsed < 60.0,
             f"6 scenarios x (pde + 3 probes) second-order; {'; '.join(failures) or 'all in [1.8, 2.2]'}",
             t0)


def test_criterion_5_solver_tracking():
    t0 = time.time()
    sp = fig2_scenario()

    def run(n_tau, n_zeta):
        grid = GridSpec(-20.0, 20.0, n_tau, 0.0, 8.0, n_zeta)
        zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
        oa_ref, ob_ref, _ = analytic.two_soliton(sp, zz, tt)
        oa0 = np.ascontiguousarray(oa_ref[0])
        ob0 = np.ascontiguousarray(ob_ref[0])
        c = sp.dress_constants()
        _, _, rho_edge = darboux.dressed_fields_and_state(
            sp.params, sp.spectral, c, grid.zetas(), np.full(grid.n_zeta, grid.tau_min))
        # the entry-major (3, 3, n_zeta) tau_min column
        sol = propagate((oa0, ob0), rho_edge, sp.params, grid)
        scale = float(np.max(np.abs(oa_ref)))
        err = max(float(np.max(np.abs(sol.omega_a - oa_ref))),
                  float(np.max(np.abs(sol.omega_b - ob_ref)))) / scale
        return err, sol

    err_base, sol_base = run(2001, 801)
    _AUDIT_POOL.append(("c5 numeric", sol_base))
    err_half, _ = run(4001, 1601)
    ratio = err_base / err_half
    elapsed = time.time() - t0
    ok = err_base < 1e-3 and 3.4 <= ratio <= 4.6 and elapsed < 300.0
    _verdict(5, ok,
             f"rel err {err_base:.2e} (tol 1e-3), refinement ratio {ratio:.2f} in [3.4, 4.6]",
             t0)


def test_criterion_6_group_velocity():
    t0 = time.time()
    p = LambdaParams(nu0=3.0, delta=0.0, omega0=0.2)
    s = SpectralData.from_eps0(2.0, 0.2)
    sp = ScenarioParams(params=p, spectral=s, scenario="slow",
                        soliton=SolitonConstants(1.0, 0.0))
    grid = GridSpec(-2.0, 11.0, 1301, 0.0, 0.06, 61)
    sol = scenarios.build_analytic_grid(sp, grid)
    v = observables.measure_velocity(sol, "ia_min")
    formula = observables.slow_group_velocity(p, s)
    rel = abs(v - formula) / formula

    # reference-parameter run: approximation regime violated, value reported only
    sp2 = fig2_scenario()
    sp2 = ScenarioParams(params=sp2.params, spectral=sp2.spectral, scenario="slow",
                         soliton=SolitonConstants(1.0, 0.0))
    grid2 = GridSpec(-2.0, 50.0, 1041, 0.0, 8.0, 81)
    sol2 = scenarios.build_analytic_grid(sp2, grid2)
    v2 = observables.measure_velocity(sol2, "ia_min")
    f2 = observables.slow_group_velocity(sp2.params, sp2.spectral)
    elapsed = time.time() - t0
    ok = rel < 0.05 and elapsed < 120.0
    _verdict(6, ok,
             f"measured {v:.6f} vs formula {formula:.6f} ({100*rel:.2f}% err, tol 5%); "
             f"reference params: measured {v2:.4f}, formula {f2:.4f} (reported only)", t0)


def test_criterion_7_dark_state_transparency():
    t0 = time.time()
    sp = ScenarioParams(
        params=LambdaParams(nu0=3.0, omega0=1.0),
        spectral=SpectralData.from_eps0(2.0, 1.0),
        scenario="fast", soliton=SolitonConstants(0.0, 1.0))
    grid = GridSpec(-10.0, 10.0, 1001, 0.0, 4.0, 201)
    oa0, ob0, _ = analytic.fast_soliton(sp, grid.taus())
    dark = model.density_from_pure(model.dark_state(sp.params.eta))
    boundary = np.repeat(dark[..., None], grid.n_zeta, axis=-1)  # (3, 3, n_zeta)
    sol = propagate((oa0.astype(complex), ob0.astype(complex)), boundary, sp.params, grid)
    _AUDIT_POOL.append(("c7 numeric", sol))
    p1 = float(np.max(sol.populations[..., 0]))
    p3 = float(np.max(sol.populations[..., 2]))
    out_dev = max(float(np.max(np.abs(sol.omega_a[-1] - oa0))),
                  float(np.max(np.abs(sol.omega_b[-1] - ob0))))
    elapsed = time.time() - t0
    ok = p1 < 1e-8 and p3 < 1e-8 and out_dev < 1e-6 and elapsed < 60.0
    _verdict(7, ok,
             f"max P1 {p1:.1e}, max P3 {p3:.1e} (tol 1e-8); exit-face pulse dev {out_dev:.1e} (tol 1e-6)",
             t0)


def test_criterion_8_stopped_polariton():
    t0 = time.time()
    sp = ScenarioParams(
        params=LambdaParams(nu0=3.0, omega0=0.0),
        spectral=SpectralData.from_eps0(2.0, 0.0),
        scenario="zero_background", constants=DressConstants(1.0, 1.0, 1.0))
    grid = GridSpec(-14.0, -4.0, 501, -2.0, 2.0, 401)
    sol = scenarios.build_analytic_grid(sp, grid)
    v = abs(observables.measure_velocity(sol, "p1_max"))

    sp0 = ScenarioParams(params=sp.params, spectral=sp.spectral,
                         scenario="zero_background", constants=DressConstants(0.0, 1.0, 1.0))
    zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
    oa, ob, _ = analytic.zero_background(sp0, zz, tt)
    fields_zero = float(max(np.max(np.abs(oa)), np.max(np.abs(ob)))) == 0.0
    p1 = scenarios.REGISTRY["zero_background"].density(sp0, None, zz, tt)[0, 0].real
    stationary = float(np.max(np.abs(p1 - p1[:, :1]))) < 1e-12
    nonzero = float(np.max(p1)) > 0.5
    elapsed = time.time() - t0
    ok = v < 1e-6 and fields_zero and stationary and nonzero and elapsed < 30.0
    _verdict(8, ok,
             f"tracked P1 lab speed {v:.2e} (tol 1e-6); c1=0: fields zero={fields_zero}, "
             f"P1 stationary={stationary}, peak {float(np.max(p1)):.3f}", t0)


def test_criterion_4_density_audit():
    # defined after criteria 5-8 so the pool holds every grid this suite
    # generated, including the numerically propagated ones.  Exact-route
    # grids (closed form / dressing) are held to 1e-8 on all metrics; a
    # numerically propagated state is governed by the solver contract
    # instead (max |rho - rho^dagger| within 1e-12 over every slice,
    # trace within 1e-9, eigenvalues inside the 1e-4 abort band), since
    # its positivity defect is set by the discretization error, not by
    # the construction.  A numeric grid stores no state: its figures are
    # the ones the solver measured on every slice with the density audit's
    # kernel (algebra.state_figures).
    t0 = time.time()
    pool = list(_AUDIT_POOL)
    if not pool:  # criterion run standalone: audit the reference scenario grids
        sp = fig2_scenario()
        pool = [("standalone analytic", scenarios.build_analytic_grid(sp, reference_grid())),
                ("standalone dressing", scenarios.build_dressed_grid(sp, reference_grid()))]
    failures = []
    formal = []
    numeric_notes = []
    for name, sol in pool:
        numeric = sol.meta.get("engine") == "numeric"
        rep = (verify.audit_report(sol.meta, "density", sol.grid) if numeric
               else verify.audit_density(sol))
        if sol.state_kind == "formal":
            formal.append(name)
        if numeric:
            herm = sol.meta["herm_dev"]
            herm_note = f"herm {herm:.1e}"
            trace = sol.meta.get("trace_dev", rep.max_abs)
            excursion = max(0.0, -sol.meta.get("eig_min", 0.0),
                            sol.meta.get("eig_max", 1.0) - 1.0)
            numeric_notes.append(f"{name}: eig excursion {excursion:.1e}, {herm_note}")
            if not herm <= 1e-12 or trace > 1e-9 or excursion > 1e-4:
                failures.append(f"{name}: {herm_note}, trace {trace:.1e}, eig {excursion:.1e}")
        elif rep.max_abs > 1e-8:
            failures.append(f"{name}: {rep.max_abs:.2e}")
    note = f"; formal companions (positivity not claimed): {formal}" if formal else ""
    note += f"; numeric grids per solver contract: {numeric_notes}" if numeric_notes else ""
    _verdict(4, not failures,
             f"{len(pool)} grids audited{note}; {failures or 'clean'}", t0)


def test_criterion_9_reproducibility(tmp_path):
    t0 = time.time()
    cfg = cli.ScenarioConfig(scenario="exulton", engine="analytic",
                             omega0=1.0, eps0=1.0, c1=1.0, c2=1.0, c3=1.0,
                             tau_min=-10.0, tau_max=10.0, n_tau=201,
                             zeta_min=0.0, zeta_max=6.0, n_zeta=101, quiet=True)
    blobs = []
    for sub in ("r1", "r2"):
        cfg.out = str(tmp_path / sub)
        assert cli.run_scenario(cfg) == 0
        blobs.append((tmp_path / sub / "grid_analytic.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _verdict(9, ok, f"canned run twice: CSV byte-identical = {ok}", t0)
