"""Acceptance suite: one test per exit criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable.
"""

import time
from types import SimpleNamespace

import numpy as np

from lambda_mb import analytic, cli, darboux, scenarios, verify
from lambda_mb.mbsolver import GridSpec, propagate
from lambda_mb.scenarios import make_scenario
import observables
from scenario_inputs import refined

#: grids collected by criteria 1-3 and audited wholesale by criterion 4
_AUDIT_POOL = []


def _verdict(criterion, ok, detail, t0):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({time.time() - t0:.1f} s) — {detail}"
    print("\n" + line)
    assert ok, line


def reference_grid():
    return GridSpec(-20.0, 20.0, 101, 0.0, 8.0, 101)


def solver_pass(on_block):
    """A propagate consumer that reads the solver's rows once, block by block.

    on_block(z0, z1, rows) gets each block of grid.blocks(); nothing of the
    lattice is kept. The consumer returns the run's audit entry for
    criterion 4: its grid, state kind and meta, which holds the figures
    the solver took on every slice.
    """
    def consume(source):
        for z0, z1 in source.grid.blocks():
            on_block(z0, z1, source.rows(z0, z1))
        return SimpleNamespace(grid=source.grid, state_kind="density",
                               meta={"engine": "numeric", **source.figures})
    return consume


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    sp = make_scenario("two_soliton")
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
    oa2, ob2, _ = analytic.two_soliton(make_scenario("two_soliton", a=(1.0, 1.0, 0.0)), zz, tt)
    oas, obs, _ = analytic.slow_soliton(make_scenario("slow"), zz, tt)
    dev_slow = max(float(np.max(np.abs(oa2 - oas))), float(np.max(np.abs(ob2 - obs))))

    oa2f, ob2f, _ = analytic.two_soliton(make_scenario("two_soliton", a=(0.0, 1.0, 1.0)), zz, tt)
    oaf, obf, _ = analytic.fast_soliton(make_scenario("fast"), tt)
    dev_fast = max(float(np.max(np.abs(oa2f - oaf))), float(np.max(np.abs(ob2f))),
                   float(np.max(np.abs(obf))))
    dev = max(dev_slow, dev_fast)
    elapsed = time.time() - t0
    _verdict(2, dev < 1e-12 and elapsed < 5.0,
             f"slow reduction {dev_slow:.2e}, fast reduction {dev_fast:.2e} (tol 1e-12)", t0)


def _scenario_suite():
    return [
        ("two_soliton", make_scenario("two_soliton"), GridSpec(-12, 12, 121, 0, 6, 121)),
        ("slow", make_scenario("slow"), GridSpec(-12, 12, 121, 0, 6, 121)),
        ("fast", make_scenario("fast"), GridSpec(-6, 6, 121, 0, 2, 121)),
        ("zero_background", make_scenario("zero_background", omega0=0.0, c=(1, 1, 1)),
         GridSpec(-4, 1, 121, -2, 2, 121)),
        ("exulton", make_scenario("exulton", eps0=1.0, omega0=1.0, c=(1, 1, 1)),
         GridSpec(-6, 6, 121, 0, 4, 121)),
        ("exulton_k", make_scenario("exulton_k", eps0=1.0, omega0=1.0, k=0.2, c=(0, 0, 1)),
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
        for lam in scenarios.DEFAULT_PROBES:
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
    sp = make_scenario("two_soliton")

    def run(n_tau, n_zeta):
        grid = GridSpec(-20.0, 20.0, n_tau, 0.0, 8.0, n_zeta)
        zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
        oa_ref, ob_ref, _ = analytic.two_soliton(sp, zz, tt)
        # the solver's error, folded block by block against the whole
        # reference; np.maximum, so that a NaN fails
        err = 0.0

        def fold(z0, z1, rows):
            nonlocal err
            err = np.maximum(err, np.maximum(np.max(np.abs(rows.omega_a - oa_ref[z0:z1])),
                                             np.max(np.abs(rows.omega_b - ob_ref[z0:z1]))))

        entry = propagate(*scenarios.numeric_entry(sp, grid), sp.params, grid, solver_pass(fold))
        return float(err) / float(np.max(np.abs(oa_ref))), entry

    err_base, entry_base = run(2001, 801)
    _AUDIT_POOL.append(("c5 numeric", entry_base))
    err_half, _ = run(4001, 1601)
    ratio = err_base / err_half
    elapsed = time.time() - t0
    ok = err_base < 1e-3 and 3.4 <= ratio <= 4.6 and elapsed < 300.0
    _verdict(5, ok,
             f"rel err {err_base:.2e} (tol 1e-3), refinement ratio {ratio:.2f} in [3.4, 4.6]",
             t0)


def test_criterion_6_group_velocity():
    t0 = time.time()
    sp = make_scenario("slow", omega0=0.2)
    grid = GridSpec(-2.0, 11.0, 1301, 0.0, 0.06, 61)
    sol = scenarios.build_analytic_grid(sp, grid)
    v = observables.measure_velocity(sol, "ia_min")
    formula = observables.slow_group_velocity(sp.params, sp.spectral)
    rel = abs(v - formula) / formula

    # reference-parameter run: approximation regime violated, value reported only
    sp2 = make_scenario("slow")
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
    sp = make_scenario("fast")
    grid = GridSpec(-10.0, 10.0, 1001, 0.0, 4.0, 201)
    (oa0, ob0), boundary = scenarios.numeric_entry(sp, grid)
    p1 = p3 = -np.inf
    out_dev = np.nan

    def fold(z0, z1, rows):
        # np.maximum, so that a NaN fails
        nonlocal p1, p3, out_dev
        p1 = float(np.maximum(p1, np.max(rows.rho[0, 0].real)))
        p3 = float(np.maximum(p3, np.max(rows.rho[2, 2].real)))
        if z1 == grid.n_zeta:
            out_dev = max(float(np.max(np.abs(rows.omega_a[-1] - oa0))),
                          float(np.max(np.abs(rows.omega_b[-1] - ob0))))

    entry = propagate((oa0, ob0), boundary, sp.params, grid, solver_pass(fold))
    _AUDIT_POOL.append(("c7 numeric", entry))
    elapsed = time.time() - t0
    ok = p1 < 1e-8 and p3 < 1e-8 and out_dev < 1e-6 and elapsed < 60.0
    _verdict(7, ok,
             f"max P1 {p1:.1e}, max P3 {p3:.1e} (tol 1e-8); exit-face pulse dev {out_dev:.1e} (tol 1e-6)",
             t0)


def test_criterion_8_stopped_polariton():
    t0 = time.time()
    sp = make_scenario("zero_background", omega0=0.0)
    grid = GridSpec(-14.0, -4.0, 501, -2.0, 2.0, 401)
    sol = scenarios.build_analytic_grid(sp, grid)
    v = abs(observables.measure_velocity(sol, "p1_max"))

    sp0 = make_scenario("zero_background", omega0=0.0, c=(0.0, 1.0, 1.0))
    zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
    oa, ob, _ = analytic.zero_background(sp0, zz, tt)
    fields_zero = float(max(np.max(np.abs(oa)), np.max(np.abs(ob)))) == 0.0
    p1 = darboux.dressed_density(sp0.params, sp0.spectral, sp0.constants, zz, tt)[0, 0].real
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
    # the construction.  The solver's runs here keep no state (solver_pass):
    # their figures are the ones the solver measured on every slice with
    # the density audit's kernel (algebra.state_figures).
    t0 = time.time()
    pool = list(_AUDIT_POOL)
    if not pool:  # criterion run standalone: audit the reference scenario grids
        sp = make_scenario("two_soliton")
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
