import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from lambda_mb import algebra, mbsolver, model, scenarios, verify
from lambda_mb.errors import GridMismatch, SpectralPole
from lambda_mb.mbsolver import GridSpec, Rows, RowSource, SolutionGrid
from lambda_mb.model import LambdaParams
import observables
from observables import FeatureLost
from pointwise_oracle import (outer, reference_audit_density, reference_pde_residual,
                              reference_zero_curvature_residual, strided_audit_density,
                              strided_residual_reports)
from scenario_inputs import canned_scenario, refined, regime_keywords


def constant_background_grid(grid=None):
    grid = grid or GridSpec(-3, 3, 31, 0, 2, 21)
    oa = np.ones((grid.n_zeta, grid.n_tau), complex)
    ob = np.zeros_like(oa)
    dark = algebra.projector(model.dark_state(0.0))
    rho = np.broadcast_to(dark[:, :, None, None], (3, 3) + oa.shape).copy()
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
    sp = scenarios.make_scenario("slow")
    grid = GridSpec(-8, 8, 81, 0, 4, 81)
    sol_c = scenarios.build_analytic_grid(sp, grid)
    sol_f = scenarios.build_analytic_grid(sp, refined(grid))
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
                        rho=cplx((3, 3) + shape))


@given(sol=_general_grids(), nu0=st.floats(0.1, 5.0), delta=st.floats(-2.0, 2.0),
       offsets=st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(-math.pi, math.pi)),
                        min_size=1, max_size=3))
def test_residual_reports_match_the_matmul_formulas_for_any_state(sol, nu0, delta, offsets):
    p = LambdaParams(nu0=nu0, delta=delta, omega0=1.0)
    probes = tuple(delta + r * complex(math.cos(t), math.sin(t)) for r, t in offsets)
    _assert_same_reports(verify.residual_reports(sol, p, probes), _references(sol, p, probes))


def _same_float(a, b):
    """Equal to the bit, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


def _rounding_floor(sol, p, lam):
    """16 ulps of a bound on the terms of the zero-curvature residual at lam.

    Where the residual cancels to the rounding of its terms, two forms of
    it round apart by about that much, however small the residual itself
    is: exulton_k at k = 3.3e-257 on a 3 x 3 lattice reads max_abs 7.4e-273
    folded and 9.2e-273 expanded.
    """
    g = sol.grid
    om = max(np.nanmax(np.abs(sol.omega_a)), np.nanmax(np.abs(sol.omega_b)))
    r = np.nanmax(np.abs(sol.rho))
    c = abs(0.5 * p.nu0 / (lam - p.delta))
    terms = (om / g.h_zeta + p.nu0 * r
             + c * (r / g.h_tau + 2.0 * om * r + (abs(lam) + abs(p.delta)) * r))
    return 16 * np.finfo(float).eps * terms


@given(data=st.data(), name=st.sampled_from(sorted(scenarios.REGISTRY)),
       route=st.sampled_from(["analytic", "dressing"]), n_tau=st.integers(3, 41),
       n_zeta=st.integers(3, 21), nan=st.booleans())
def test_entry_major_pass_is_bit_equal_to_the_strided_pass(data, name, route, n_tau, n_zeta,
                                                           nan):
    sp = scenarios.make_scenario(name, **data.draw(regime_keywords(name)))
    canned = canned_scenario(name)[1]
    grid = GridSpec(canned.tau_min, canned.tau_max, n_tau, canned.zeta_min, canned.zeta_max,
                    n_zeta)
    build = scenarios.build_analytic_grid if route == "analytic" else scenarios.build_dressed_grid
    sol = build(sp, grid)
    if data.draw(st.booleans()):
        probes = scenarios.DEFAULT_PROBES
    else:
        offsets = data.draw(st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(-math.pi, math.pi)),
                                     min_size=1, max_size=3))
        probes = tuple(sp.params.delta + r * complex(math.cos(t), math.sin(t)) for r, t in offsets)
    if nan:  # at an interior node, which every residual reads
        z, t = data.draw(st.integers(1, n_zeta - 2)), data.draw(st.integers(1, n_tau - 2))
        i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        sol.rho[i, j, z, t] = np.nan
    got = verify.residual_reports(sol, sp.params, probes)
    want = strided_residual_reports(sol, sp.params, probes)
    assert [(r.name, r.lambda_probe, r.grid_h) for r in got] == [
        (r.name, r.lambda_probe, r.grid_h) for r in want]
    # the pde report is bit-equal (these lattices fit in one block); the
    # zero-curvature reports fold out of the pde entries, which rounds
    # differently from the expanded form the strided pass keeps
    assert _same_float(got[0].max_abs, want[0].max_abs) and _same_float(got[0].l2, want[0].l2)
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_allclose([g.max_abs, g.l2], [w.max_abs, w.l2], rtol=1e-12,
                                   atol=_rounding_floor(sol, sp.params, w.lambda_probe))
    for g in got:
        assert math.isnan(g.max_abs) == nan
    audit, strided = verify.audit_density(sol), strided_audit_density(sol)
    assert audit.name == strided.name and _same_float(audit.max_abs, strided.max_abs)
    if nan:
        assert not audit.max_abs <= 1.0


def test_a_nan_in_one_state_entry_makes_every_residual_nan():
    sp = scenarios.make_scenario("slow")
    sol = scenarios.build_analytic_grid(sp, GridSpec(-8, 8, 41, 0, 4, 21))
    sol.rho[0, 1, 7, 30] = np.nan
    reports = verify.residual_reports(sol, sp.params, scenarios.DEFAULT_PROBES)
    assert len(reports) == 1 + len(scenarios.DEFAULT_PROBES)
    assert all(math.isnan(r.max_abs) for r in reports)


def _small_canned_grid(tag):
    sp, grid = canned_scenario(tag, n_tau=41, n_zeta=11)
    return sp, scenarios.build_analytic_grid(sp, grid)


def _rows_per_block(monkeypatch, grid, rows):
    """Make grid.blocks(), which residual_reports reads, blocks of ``rows`` zeta rows."""
    monkeypatch.setattr(mbsolver, "BLOCK_NODES", rows * grid.n_tau)


@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_residual_blocks_agree_with_one_block(monkeypatch, tag):
    sp, sol = _small_canned_grid(tag)
    grid = sol.grid
    assert (grid.n_zeta - 2) * (grid.n_tau - 2) <= mbsolver.BLOCK_NODES
    whole = verify.residual_reports(sol, sp.params, scenarios.DEFAULT_PROBES)
    # 11 rows: blocks of one row, and blocks of 2, 2, 2, 2, 2 and 1
    for rows in (1, 2):
        _rows_per_block(monkeypatch, grid, rows)
        got = verify.residual_reports(sol, sp.params, scenarios.DEFAULT_PROBES)
        for g, w in zip(got, whole, strict=True):
            assert (g.name, g.lambda_probe, g.grid_h) == (w.name, w.lambda_probe, w.grid_h)
            assert _same_float(g.max_abs, w.max_abs)
            # per-block sums add the entry sums in another order
            np.testing.assert_allclose(g.l2, w.l2, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_the_residual_pass_reads_each_row_once_in_order(monkeypatch, rows):
    """The pass carries each block's last two rows into the next one.

    11 rows in blocks of 1, 2 or 4 rows: 11, 6 or 3 blocks. The source
    serves every row index once, in increasing order, so a forward-only
    source (the solver's MarchRows) can feed the pass, and the reports are
    those of the stored grid's own rows.
    """
    sp, sol = _small_canned_grid("fig2")
    _rows_per_block(monkeypatch, sol.grid, rows)
    served = []

    def counted(z0, z1):
        served.extend(range(z0, z1))
        return sol.rows(z0, z1)

    got = verify.residual_reports(RowSource(sol.grid, counted), sp.params,
                                  scenarios.DEFAULT_PROBES)
    assert served == list(range(sol.grid.n_zeta))
    monkeypatch.undo()
    whole = verify.residual_reports(sol, sp.params, scenarios.DEFAULT_PROBES)
    for g, w in zip(got, whole, strict=True):
        assert _same_float(g.max_abs, w.max_abs)
        np.testing.assert_allclose(g.l2, w.l2, rtol=1e-14, atol=0.0)


@given(cuts=st.lists(st.integers(0, 11), max_size=8),
       tag=st.sampled_from(sorted(scenarios.CANNED)))
def test_the_fold_takes_blocks_of_any_size(cuts, tag):
    """ResidualFold over any split of the rows, empty and one-row blocks included.

    Its reports are those of residual_reports over grid.blocks(): max_abs
    bit for bit, l2 up to the order its per-block sums are added in.
    """
    sp, sol = _small_canned_grid(tag)
    fold = verify.ResidualFold(sol.grid, sp.params, scenarios.DEFAULT_PROBES)
    edges = [0] + sorted(cuts) + [sol.grid.n_zeta]
    for z0, z1 in zip(edges, edges[1:]):
        fold.add(sol.rows(z0, z1))
    whole = verify.residual_reports(sol, sp.params, scenarios.DEFAULT_PROBES)
    for g, w in zip(fold.report(), whole, strict=True):
        assert (g.name, g.lambda_probe, g.grid_h) == (w.name, w.lambda_probe, w.grid_h)
        assert _same_float(g.max_abs, w.max_abs)
        np.testing.assert_allclose(g.l2, w.l2, rtol=1e-14, atol=0.0)


def test_the_kernel_refuses_a_source_without_state_at_its_first_block(monkeypatch):
    """two_soliton's reference holds no state: its evaluator returns no vector.

    The kernel raises ValueError on the first block of grid.blocks() that
    it reads, two rows here, so it never asks for a second.
    """
    sp, g = canned_scenario("two_soliton")
    grid = GridSpec(g.tau_min, g.tau_max, 41, g.zeta_min, g.zeta_max, 11)
    _rows_per_block(monkeypatch, grid, 2)
    source = scenarios.reference_rows(sp, grid)
    served = []

    def counted(z0, z1):
        served.append((z0, z1))
        return source.rows(z0, z1)

    with pytest.raises(ValueError, match="full per-node state"):
        verify.residual_reports(RowSource(grid, counted), sp.params, scenarios.DEFAULT_PROBES)
    assert served == grid.blocks()[:1] == [(0, 2)]


def _report_bits(reports):
    return [(r.name, r.lambda_probe, np.float64(r.max_abs).tobytes(), np.float64(r.l2).tobytes())
            for r in reports]


@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_the_kernel_reads_each_route_as_it_reads_that_route_stored(tag):
    """The residual kernel over the dressing engine's and the solver's row sources.

    Each equals the kernel over the stored grid of the same route in every
    bit. 161 x 121 nodes: the kernel reads blocks of 51 rows, the builders
    keep blocks of 50. A formal state (exulton_k) has no solver.
    """
    sp, g = canned_scenario(tag)
    grid = GridSpec(g.tau_min, g.tau_max, 161, g.zeta_min, g.zeta_max, 121)
    pairs = [(scenarios.dressed_rows(sp, grid), scenarios.build_dressed_grid(sp, grid))]
    if scenarios.state_kind(sp.params) != "formal":
        pairs.append((mbsolver.MarchRows(*scenarios.numeric_entry(sp, grid), sp.params, grid),
                      scenarios.build_numeric_grid(sp, grid)))
    for source, stored in pairs:
        got = verify.residual_reports(source, sp.params, scenarios.DEFAULT_PROBES)
        want = verify.residual_reports(stored, sp.params, scenarios.DEFAULT_PROBES)
        assert _report_bits(got) == _report_bits(want)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("where", [
    # fields in the first and the last row, which only a halo reads
    ("omega_a", (0, 20)), ("omega_b", (10, 5)),
    # the state in the last interior row, which the last block's pass
    # reaches, and in a row that is one pass's interior and the next one's halo
    ("rho", (2, 2, 9, 30)), ("rho", (0, 1, 4, 17))])
def test_a_nan_in_a_halo_row_or_the_last_block_makes_every_report_nan(monkeypatch, rows,
                                                                      where):
    sp, sol = _small_canned_grid("fig2")
    _rows_per_block(monkeypatch, sol.grid, rows)
    name, index = where
    getattr(sol, name)[index] = np.nan
    reports = verify.residual_reports(sol, sp.params, scenarios.DEFAULT_PROBES)
    assert len(reports) == 1 + len(scenarios.DEFAULT_PROBES)
    assert all(math.isnan(r.max_abs) and math.isnan(r.l2) for r in reports)


@pytest.mark.parametrize("name", sorted(scenarios.REGISTRY))
def test_closed_form_rows_are_the_rows_of_the_stored_build(name):
    """Every block of the row source equals those rows of build_analytic_grid, bit for bit.

    exulton_k included: its formal state forms x * conj(u), which numpy
    computes as conj(u) * x when conj(u) is a temporary of 256 KiB or
    more, and its complex product is not commutative to the bit. The
    build keeps blocks of grid.blocks(), each far below that, so neither
    it nor these 16-row blocks ever make such a temporary.
    """
    sp, g = canned_scenario(name)
    grid = GridSpec(g.tau_min, g.tau_max, 161, g.zeta_min, g.zeta_max, 161)
    stored = scenarios.build_analytic_grid(sp, grid)
    rows = scenarios.closed_form_rows(sp, grid)
    for z0 in range(0, grid.n_zeta, 16):  # the last block holds one row
        z1 = min(z0 + 16, grid.n_zeta)
        block = rows.rows(z0, z1)
        assert block.grid == grid
        assert block.omega_a.shape == block.omega_b.shape == (z1 - z0, grid.n_tau)
        assert block.rho.shape == (3, 3, z1 - z0, grid.n_tau)
        assert block.omega_a.tobytes() == stored.omega_a[z0:z1].tobytes()
        assert block.omega_b.tobytes() == stored.omega_b[z0:z1].tobytes()
        assert block.rho.tobytes() == stored.rho[:, :, z0:z1].tobytes()


@pytest.mark.parametrize("name", sorted(scenarios.REGISTRY))
def test_the_check_pass_holds_one_block_of_the_lattice(name):
    """The residual pass over a lattice and its refinement, from the closed form.

    Its traced peak does not grow with the lattice's zeta rows: 161 x 161
    (a 321 x 321 refinement, whose stored grid alone holds 18 MB) peaks
    within 2 MB of 161 x 41.
    """
    sp, g = canned_scenario(name)

    def peak(n_zeta):
        check = GridSpec(g.tau_min, g.tau_max, 161, g.zeta_min, g.zeta_max, n_zeta)
        tracemalloc.start()
        try:
            for lattice in (check, refined(check)):
                verify.residual_reports(scenarios.closed_form_rows(sp, lattice), sp.params,
                                        scenarios.DEFAULT_PROBES)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tall, short = peak(161), peak(41)
    assert tall - short < 2e6
    assert tall < 11 * 16 * 321 * 321 / 2  # half of the stored refined grid


def _magnitudes(draw, shape):
    """Positive floats m * 10**e, m in [1, 10) and e in [-150, 150]."""
    mantissa = draw(hnp.arrays(float, shape, elements=st.floats(1.0, 10.0, exclude_max=True)))
    exponent = draw(hnp.arrays(int, shape, elements=st.integers(-150, 150)))
    return mantissa * 10.0 ** exponent


@given(data=st.data(), n=st.integers(1, 64), scalar=st.booleans())
def test_multiplying_by_the_reciprocal_is_the_complex_division(data, n, scalar):
    """x * (1.0 / d) equals x / d bit for bit, x complex and d positive real.

    numpy divides a complex array by a real scalar or array as each part
    times 1 / d, so the two agree wherever each quotient is a normal float;
    the residual stencils rely on exactly that. Outside that range (a zero,
    subnormal or overflowing quotient) nothing is claimed: the sign of a
    zero quotient, for one, can differ. Parts and divisors here have
    decimal exponents within +-150, so every quotient is normal.
    """
    signs = data.draw(hnp.arrays(float, (2, n), elements=st.sampled_from((-1.0, 1.0))))
    x = signs[0] * _magnitudes(data.draw, n) + 1j * signs[1] * _magnitudes(data.draw, n)
    d = float(_magnitudes(data.draw, 1)[0]) if scalar else _magnitudes(data.draw, n)
    want = x / d
    parts = np.abs(want.view(float))
    assert np.all((parts >= np.finfo(float).tiny) & np.isfinite(parts))
    assert (x * (1.0 / d)).tobytes() == want.tobytes()


def test_convergence_order_on_zero_and_nan_residuals():
    def rep(max_abs):
        return verify.ResidualReport("pde", max_abs, max_abs, (0.1, 0.1))

    assert verify.convergence_order(rep(4e-3), rep(1e-3)) == 2.0
    assert verify.convergence_order(rep(0.0), rep(1e-3)) == -math.inf
    assert verify.convergence_order(rep(1e-3), rep(0.0)) == math.inf
    for coarse, fine in ((math.nan, 1e-3), (1e-3, math.nan), (math.nan, 0.0), (0.0, math.nan)):
        assert math.isnan(verify.convergence_order(rep(coarse), rep(fine)))


def test_pde_residual_detects_corruption():
    sp = scenarios.make_scenario("slow")
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
    mixed = np.broadcast_to(np.eye(3, dtype=complex)[:, :, None, None] / 3,
                            sol.rho.shape).copy()
    sol_mixed = SolutionGrid(grid=sol.grid, omega_a=sol.omega_a, omega_b=sol.omega_b,
                             rho=mixed, state_kind="pure")
    rep2 = verify.audit_density(sol_mixed)
    assert abs(rep2.max_abs - 2.0 / 3.0) < 1e-12  # purity defect of the mixed state


def _canned_grids(tag, n_zeta):
    sp, grid = canned_scenario(tag, n_zeta=n_zeta)
    return [scenarios.build_analytic_grid(sp, grid), scenarios.build_dressed_grid(sp, grid)]


@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_audit_density_matches_the_eigvalsh_audit(tag):
    # exulton_k's grids are formal, every other tag's are pure
    for sol in _canned_grids(tag, 21):
        (first, end), *_, (last, _) = blocks = sol.grid.blocks()
        assert len(blocks) > 1 and sol.grid.n_zeta - last < end - first  # a short last block
        got, want = verify.audit_density(sol), reference_audit_density(sol)
        assert got.name == want.name and got.grid_h == want.grid_h
        assert abs(got.max_abs - want.max_abs) <= 1e-15 and got.l2 == got.max_abs
        as_density = dataclasses.replace(sol, state_kind="density")
        assert abs(verify.audit_density(as_density).max_abs
                   - reference_audit_density(as_density).max_abs) <= 1e-15


def test_audit_density_does_not_depend_on_the_chunking(monkeypatch):
    sol = _canned_grids("fig4", 21)[0]
    sol.rho[:, :, 3:7] = outer(np.array([0.6, 0.8j, 0.0]),
                               np.array([0.5, 0.5, 0.5 + 0.5j]))[:, :, None, None]
    whole = verify.audit_density(sol).max_abs
    assert 0.5 < whole < 1.0
    monkeypatch.setattr(mbsolver, "BLOCK_NODES", 1000)
    assert verify.audit_density(sol).max_abs == whole


@pytest.mark.parametrize("kind", ["pure", "formal"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("node, entry", [  # a diagonal, an upper and a lower entry
    (0, (1, 1)), (mbsolver.BLOCK_NODES, (0, 2)), (-1, (2, 1))])
def test_a_non_finite_state_entry_fails_the_audit(kind, value, node, entry):
    sol = dataclasses.replace(_canned_grids("fig4", 21)[0], state_kind=kind)
    sol.rho.reshape(3, 3, -1)[entry][node] = value
    # a reshape that copied would have dropped the write
    assert np.count_nonzero(~np.isfinite(sol.rho)) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        metric = verify.audit_density(sol).max_abs
    assert not metric <= 1.0
    if kind != "formal":  # the eigenvalue stage turns any non-finite node into NaN
        assert math.isnan(metric)


def test_audit_density_streaming_metrics_propagate_nan():
    sol = constant_background_grid()
    meta = {"herm_dev": 0.0, "trace_dev": 0.0, "eig_min": math.nan, "eig_max": 1.0}
    assert math.isnan(verify.audit_report(meta, "density", sol.grid).max_abs)
    meta.update(eig_min=0.0, eig_max=math.nan)
    assert math.isnan(verify.audit_report(meta, "density", sol.grid).max_abs)


def test_streamed_audit_folds_in_the_hermiticity_report():
    sol = constant_background_grid()
    meta = {"herm_dev": 2e-3, "trace_dev": 1e-9, "eig_min": 0.0, "eig_max": 1.0}
    assert verify.audit_report(meta, "density", sol.grid).max_abs == 2e-3
    del meta["herm_dev"]  # no report is no check: the audit fails
    assert math.isnan(verify.audit_report(meta, "density", sol.grid).max_abs)


def _hermitian_stack(family, rng, n):
    """(n, 3, 3) Hermitian matrices of one family, about unit size."""
    u = np.linalg.qr(rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)))[0]
    if family == "rank1":  # pure states |v><v|
        v = u[:, :, 0]
        return outer(v, v)
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


@given(st.integers(2, 6), st.integers(3, 9), st.booleans(), st.data())
def test_compare_fold_sums_the_squares_of_its_blocks(n_zeta, n_tau, with_state, data):
    """The fold of one-row blocks gives the l2 of math.fsum over the same squares.

    The fields and states hold integers, so every distance, square and sum
    of squares is an integer below 2**53 and exact: a fold that adds each
    block's squares gives fsum's bits, one that rebuilds them from the
    block's rounded l2 need not.
    """
    grid = GridSpec(-1.0, 1.0, n_tau, 0.0, 1.0, n_zeta)

    def draw(shape):
        return data.draw(hnp.arrays(float, shape, elements=st.integers(-1000, 1000)))

    sides = [(draw((n_zeta, n_tau)), draw((n_zeta, n_tau)),
              draw((3, 3, n_zeta, n_tau)) if with_state else None) for _ in "ab"]
    fold, squares = verify.CompareFold(), []
    for z in range(n_zeta):
        a, b = (Rows(grid, oa[z:z + 1], ob[z:z + 1], None if rho is None else rho[:, :, z:z + 1])
                for oa, ob, rho in sides)
        fold.add(a, b)
        (oa_a, ob_a, rho_a), (oa_b, ob_b, rho_b) = sides
        for t in range(n_tau):
            gaps = [oa_a[z, t] - oa_b[z, t], ob_a[z, t] - ob_b[z, t]]
            if with_state:
                gaps.append(max(abs(x - y) for x, y in zip(rho_a[:, :, z, t].flat,
                                                          rho_b[:, :, z, t].flat)))
            squares += [g * g for g in gaps]
    assert fold.report("compare").l2 == math.sqrt(math.fsum(squares) / len(squares))


def test_measure_velocity_synthetic_feature():
    # a groove gliding at tau* = m * zeta must come back as v = 1/(1+m)
    grid = GridSpec(-10, 10, 401, 0, 2, 41)
    zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
    m = 3.0
    ia = 1.0 - 1.0 / np.cosh(tt - m * zz) ** 2
    sol = SolutionGrid(grid=grid, omega_a=np.sqrt(ia).astype(complex),
                       omega_b=np.zeros_like(ia, dtype=complex),
                       rho=np.zeros((3, 3, grid.n_zeta, grid.n_tau), dtype=complex))
    v = observables.measure_velocity(sol, "ia_min")
    assert abs(v - 1.0 / (1.0 + m)) < 1e-4


def test_measure_velocity_fast_soliton_light_speed():
    sp = scenarios.make_scenario("fast")
    grid = GridSpec(-6, 6, 301, 0, 3, 31)
    sol = scenarios.build_analytic_grid(sp, grid)
    v = observables.measure_velocity(sol, "ia_max")  # light-speed feature is an intensity peak
    assert abs(v - 1.0) < 1e-9


def test_measure_velocity_feature_lost():
    grid = GridSpec(-5, 5, 101, 0, 1, 11)
    flat = np.ones((grid.n_zeta, grid.n_tau), complex)
    sol = SolutionGrid(grid=grid, omega_a=flat, omega_b=np.zeros_like(flat),
                       rho=np.zeros((3, 3, grid.n_zeta, grid.n_tau), dtype=complex))
    with pytest.raises(FeatureLost):
        observables.measure_velocity(sol, "ia_min")


def test_report_text_round_trip_keys():
    sol = constant_background_grid()
    rep = verify.pde_residual(sol, LambdaParams(nu0=3.0, omega0=1.0))
    text = rep.as_text()
    assert "max_abs:" in text and "h_tau:" in text
