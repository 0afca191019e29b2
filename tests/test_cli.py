import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_mb import cli, darboux, mbsolver, model, scenarios, verify
from lambda_mb.cli import emit_manifest, parse_config, run_scenario
from lambda_mb.errors import ParameterGuard, ParseError
from lambda_mb.mbsolver import RowSource
from scenario_inputs import regime_keywords, usable_step

SMALL_SLOW = """
# compact slow-soliton run
scenario = slow
engine = analytic
tau_min = -8
tau_max = 8
n_tau = 41
zeta_min = 0
zeta_max = 2
n_zeta = 21
"""


def test_empty_config_is_default_set():
    cfg = parse_config("")
    assert cfg.scenario == "two_soliton"
    assert (cfg.nu0, cfg.delta, cfg.omega0, cfg.eps0) == (3.0, 0.0, 1.0, 2.0)
    assert (cfg.a1, cfg.a2, cfg.a3) == (1.0, 1.0, 1.0)


def test_parse_rejects_bad_values():
    with pytest.raises(ParseError):
        parse_config("omega0 = -1\n")
    with pytest.raises(ParseError):
        parse_config("no_such_key = 3\n")
    with pytest.raises(ParseError):
        parse_config("nu0 = banana\n")
    with pytest.raises(ParseError, match="'n_tau' given twice, on lines 2 and 4"):
        parse_config("scenario = slow\nn_tau = 101\nn_zeta = 5\nn_tau = 21\n")
    with pytest.raises(ParseError, match="canned tags go through --scenario"):
        parse_config("scenario = fig2\n")
    with pytest.raises(ParseError, match="refuses the numeric engine"):
        parse_config("scenario = exulton_k\neps0 = 1\nk = 0.2\nc1 = 0\nc2 = 0\nc3 = 1\n"
                     "engine = numeric\n")
    err = None
    try:
        parse_config("nu0 = 3\nomega0 == 1\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 2


@pytest.mark.parametrize("text", [
    "delta = nan\n", "nu0 = inf\n", "c1 = -inf\n", "numeric_tol = nan\n",
    "tau_min = 5\ntau_max = -5\n", "zeta_min = 2\nzeta_max = 2\n",
])
def test_parse_rejects_non_finite_values_and_inverted_extents(text):
    with pytest.raises(ParseError):
        parse_config(text)


@pytest.mark.parametrize("text", [
    "delta = nan\n", "tau_min = 5\ntau_max = -5\n", "scenario = fig2\n",
    "scenario = exulton_k\neps0 = 1\nk = 0.2\nc1 = 0\nc2 = 0\nc3 = 1\nengine = numeric\n",
    # a value its type refuses, or one outside the scenario's regime, on
    # every route: the dressing-only runs below would otherwise pass on a
    # grid that is not the named scenario
    "a2 = 2\n", "scenario = exulton\neps0 = 1\nc1 = 0\nc2 = 0\nc3 = 0\n",
    "scenario = exulton\nengine = dressing\neps0 = 0.5\nomega0 = 1\n",
    "scenario = zero_background\nengine = dressing\nomega0 = 0\nc1 = 1\nc2 = 1\nc3 = 0\n",
    "scenario = slow\nengine = dressing\na1 = 0\n",
    # a key given twice, and a spectral point on the Delta pole, where no
    # route is defined
    "scenario = slow\nengine = analytic\nn_tau = 101\nn_zeta = 5\nn_tau = 21\n",
    "scenario = zero_background\nengine = analytic\nomega0 = 0\neps0 = 1e-10\n"
    "n_tau = 11\nn_zeta = 5\n",
    # the residual checks of the analytic grid read it and every other node
    # of it, so they need odd counts >= 5
    "scenario = slow\nengine = analytic\nn_zeta = 2\nn_tau = 41\n",
    "scenario = slow\nengine = all\nn_zeta = 2\nn_tau = 41\n",
    "scenario = slow\nengine = analytic\nn_tau = 40\nn_zeta = 21\n",
    "scenario = slow\nengine = all\nn_tau = 41\nn_zeta = 20\n",
    "scenario = slow\nengine = analytic\nn_tau = 3\nn_zeta = 21\n",
    "scenario = slow\nengine = all\nn_tau = 41\nn_zeta = 3\n",
    # a scenario or engine the CLI does not know
    "scenario = no_such_scenario\n", "scenario = slow\nengine = fastest\n",
    # a numeric gate that cannot pass, refused on every route, the solver's too
    "scenario = slow\nengine = analytic\nnumeric_tol = 0\n",
    "scenario = slow\nengine = numeric\nnumeric_tol = -1\n",
    "scenario = slow\nengine = dressing\nnumeric_tol = -1e-9\n",
    # 0 < eps0 - omega0 < darboux.DEGENERATE_TOL: the engine would take the
    # confluent seed for a regular scenario
    "scenario = two_soliton\neps0 = 1.000000005\n",
    "scenario = slow\neps0 = 1.000000005\n",
    "scenario = fast\neps0 = 1.000000005\n",
    # a flag the parser does not know is not false
    "quiet = tru\n", "quiet = 2\n",
    # a file that is not UTF-8
    b"scenario = slow\xff\n",
    # an out that cannot be a directory: an existing file, and a path under one
    "scenario = slow\nengine = analytic\nout = {file}\n",
    "scenario = slow\nengine = analytic\nout = {file}/run\n",
    # finite values whose size overflows the arithmetic: eps0 ** 2, a tau step
    # that underflows to 0 or overflows to inf, and a subnormal tau or zeta
    # step h, whose 1 / (2h) in the residual stencils overflows
    "eps0 = 1e200\n",
    "tau_min = 0\ntau_max = 5e-324\nn_tau = 11\nn_zeta = 5\n",
    "tau_min = -1e308\ntau_max = 1e308\nn_tau = 11\nn_zeta = 5\n",
    "scenario = slow\nengine = analytic\ntau_min = 0\ntau_max = 1e-309\nn_tau = 11\nn_zeta = 5\n",
    "scenario = slow\nengine = analytic\nzeta_min = 0\nzeta_max = 2e-323\nn_zeta = 5\n"
    "n_tau = 11\n",
    # an output in out that cannot be written: (config, arguments, the
    # output that is a directory)
    pytest.param(("", ["--scenario", "fast", "--engine", "analytic", "--out", "{run}"],
                  "grid_analytic.csv"), id="a grid csv that is a directory"),
    pytest.param((SMALL_SLOW, ["--check"], "manifest.txt"), id="a manifest that is a directory"),
])
def test_main_unusable_config_exits_2_with_a_message(tmp_path, capsys, text):
    text, argv, blocked = text if isinstance(text, tuple) else (text, [], None)
    run = tmp_path / "run"
    path = tmp_path / "cfg.txt"
    file = tmp_path / "file"
    file.write_text("not a directory\n")
    data = text if isinstance(text, bytes) else text.format(file=file).encode()
    # the harness's out and quiet, where the case does not set its own: a
    # key given twice is refused on its own account
    own = {line.partition(b"=")[0].strip() for line in data.splitlines()}
    path.write_bytes(b"".join(f"{key} = {value}\n".encode() for key, value in
                              (("out", run), ("quiet", "true")) if key.encode() not in own) + data)
    if blocked:
        (run / blocked).mkdir(parents=True)
    assert cli.main([str(path)] + [arg.format(run=run) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    if blocked:
        # one line that names the output
        assert err.count("\n") == 1 and str(run / blocked) in err
    else:
        assert not run.exists()
    assert file.read_text() == "not a directory\n"


def test_an_unknown_canned_tag_exits_2_with_its_message_unquoted(capsys):
    assert cli.main(["--scenario", "nope"]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown canned scenario 'nope'; have {sorted(scenarios.CANNED)}\n")


@pytest.mark.parametrize("text", [
    # delta ** 2 in the closed form
    "scenario = two_soliton\ndelta = 1e300\n",
    # c1 ** 2 in the closed form
    "scenario = zero_background\nomega0 = 0\nc1 = 1e300\nc2 = 1\nc3 = 1\n",
])
def test_an_input_that_overflows_mid_run_exits_1_with_its_name(tmp_path, capsys, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text + "tau_min = -8\ntau_max = 8\nn_tau = 11\nzeta_min = 0\n"
                    f"zeta_max = 2\nn_zeta = 5\nout = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path), "--check"]) == 1
    assert capsys.readouterr().err.startswith("OverflowError:")


@pytest.mark.parametrize("line", [
    # each line as the manifests of earlier versions wrote it
    "eta = 0.0", "probe_lambdas = (1+1j); 0.7j; (-2+0.5j)", "field_tol = 1e-09",
    "audit_tol = 1e-08", "numeric_audit_tol = 1e-06", "order_band = 1.8; 2.2",
])
def test_removed_check_keys_are_unknown_keys(tmp_path, capsys, line):
    """The checks' tolerances, order band and probes, and eta, are no config keys.

    The gates are the code's (cli.AUDIT_TOL, NUMERIC_AUDIT_TOL, ORDER_BAND,
    each record's field_tol and scenarios.DEFAULT_PROBES), and every record
    takes eta = 0 alone.
    """
    path = tmp_path / "manifest.txt"
    path.write_text(emit_manifest(parse_config(SMALL_SLOW)) + line + "\n")
    assert cli.main([str(path), "--out", str(tmp_path / "run"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"unknown key {line.split(' =')[0]!r}" in err
    assert not (tmp_path / "run").exists()


def test_the_gates_are_fixed():
    assert len(dataclasses.fields(cli.ScenarioConfig)) == 22
    assert (cli.AUDIT_TOL, cli.NUMERIC_AUDIT_TOL, cli.ORDER_BAND) == (1e-8, 1e-6, (1.8, 2.2))
    # every probe sits at least 0.5 off the real axis, so off the Delta pole at any real Delta
    assert min(lam.imag for lam in scenarios.DEFAULT_PROBES) >= 0.5 > model.POLE_GUARD


@pytest.mark.parametrize("argv", [
    ["--engine", "numeric"], ["--out", "{tmp}/a#1"], ["--out", " {tmp}/a"], ["--out", "{tmp}/a\n"],
])
def test_main_validates_the_config_after_its_overrides(tmp_path, capsys, argv):
    path = tmp_path / "cfg.txt"
    path.write_text("scenario = exulton_k\neps0 = 1\nk = 0.2\nc1 = 0\nc2 = 0\nc3 = 1\n"
                    f"out = {tmp_path / 'run'}\nquiet = true\n")
    parse_config(path.read_text())  # valid until the override
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli.main([str(path), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert list(tmp_path.iterdir()) == [path]


def test_exulton_k_propagates_at_k_zero_and_refuses_the_numeric_engine_otherwise(tmp_path, capsys):
    # the solution does not depend on zeta at k = 0, and its state is a projector
    lattice = ("scenario = exulton_k\neps0 = 1\nc1 = 0\nc2 = 0\nc3 = 1\nquiet = true\n"
               "tau_min = -10\ntau_max = 10\nn_tau = 201\nzeta_min = 0\nzeta_max = 6\nn_zeta = 61\n")
    path = tmp_path / "k0.txt"
    path.write_text(lattice + f"out = {tmp_path / 'k0'}\n")
    assert cli.main([str(path), "--engine", "all", "--check"]) == 0
    report = (tmp_path / "k0" / "residual_report.txt").read_text()
    assert "compare[numeric vs analytic]" in report and report.endswith("verdict: PASS\n")
    path = tmp_path / "k02.txt"
    path.write_text(lattice + f"k = 0.2\nout = {tmp_path / 'k02'}\n")
    capsys.readouterr()
    assert cli.main([str(path), "--engine", "numeric"]) == 2
    assert "refuses the numeric engine" in capsys.readouterr().err
    assert not (tmp_path / "k02").exists()


def test_a_run_without_grids_cannot_pass():
    cfg = parse_config(SMALL_SLOW)
    sp, grid = cfg.scenario_params(), cfg.grid()
    failures, reports = cli._run_checks(cfg, sp, grid, cli._Checks(sp, grid, []))
    assert failures == ["no grid was built"] and reports == []


@pytest.mark.parametrize("engine", ["all", "numeric"])
def test_the_numeric_compare_evaluates_no_closed_form_state(tmp_path, monkeypatch, engine):
    """The numeric compare reads the reference, which forms no dressed state.

    scenarios._closed_form, which forms the closed form's state, serves
    the analytic pass (and with it the residual checks) and the solver's
    tau_min states, but no block of the numeric compare, which runs
    inside mbsolver.propagate as its consumer. A numeric-only run reports
    its compare too. 161 x 81 nodes: the residual orders read 1.90 there
    (test_an_under_resolved_grid_fails_its_residual_orders has 81 x 41).
    """
    closed_form, propagate = scenarios._closed_form, mbsolver.propagate
    marching, calls = [False], []

    def recorded_closed_form(*args):
        calls.append(marching[0])
        return closed_form(*args)

    def flagged_propagate(*args, **kwargs):
        marching[0] = True
        try:
            return propagate(*args, **kwargs)
        finally:
            marching[0] = False

    monkeypatch.setattr(scenarios, "_closed_form", recorded_closed_form)
    monkeypatch.setattr(mbsolver, "propagate", flagged_propagate)
    path = tmp_path / "cfg.txt"
    path.write_text("scenario = two_soliton\ntau_min = -8\ntau_max = 8\nn_tau = 161\n"
                    "zeta_min = 0\nzeta_max = 2\nn_zeta = 81\nnumeric_tol = 0.01\n"
                    f"out = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path), "--engine", engine, "--check"]) == 0
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert "check: compare[numeric vs analytic]" in report
    assert calls and not any(calls)


@pytest.mark.parametrize("n_zeta, code, failures", [
    (21, 1, ["  - numeric vs analytic: 3.76e+00 > 1e-03 * 4.00e+00"]),
    (321, 0, []),
])
def test_the_numeric_gate_scales_by_the_references_largest_field(tmp_path, n_zeta, code,
                                                                  failures):
    """fig3's storage downstream, zeta in [990, 1000]: Omega_a is absorbed, Omega_b reaches 4.

    max |Omega_a| is subnormal (about 1.3e-322) there, so a gate scaled by
    it alone reads 1e-3 * 0.00 and fails however fine the lattice. The
    reference's largest field modulus is max |Omega_b| = 4: the solver
    fails on 21 zeta rows (h_zeta = 0.5, a pulse about 0.5 wide) and
    passes on 321, where its error is 1.69e-3.
    """
    path = tmp_path / "cfg.txt"
    path.write_text("scenario = zero_background\neps0 = 2\nomega0 = 0\nc1 = 1\nc2 = 1\nc3 = 1\n"
                    "tau_min = 345\ntau_max = 405\nn_tau = 601\nzeta_min = 990\n"
                    f"zeta_max = 1000\nn_zeta = {n_zeta}\nout = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path), "--engine", "all", "--check"]) == code
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert [line for line in report.splitlines() if line.startswith("  - ")] == failures


def test_an_under_resolved_grid_fails_its_residual_orders(tmp_path):
    """two_soliton on 81 x 41 nodes of tau in [-8, 8], zeta in [0, 2] exits 1.

    The residual orders are those of the produced grid against its even
    rows and columns, 1.66 here: the lattice does not resolve the
    solution well enough for second-order convergence to show. The
    checks read no finer lattice than the one produced.
    """
    path = tmp_path / "cfg.txt"
    path.write_text("scenario = two_soliton\ntau_min = -8\ntau_max = 8\nn_tau = 81\n"
                    "zeta_min = 0\nzeta_max = 2\nn_zeta = 41\n"
                    f"out = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path), "--engine", "analytic", "--check"]) == 1
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert [line for line in report.splitlines() if line.startswith("  - ")] == [
        f"  - {name}: convergence order 1.66 outside [1.8, 2.2]"
        for name in ["pde"] + ["zero_curvature"] * len(scenarios.DEFAULT_PROBES)]


def _dressed_rows_with_nan(monkeypatch, name, index):
    """Make the dressing route's row source give NaN at one node of its field or state."""
    source = scenarios.dressed_rows
    row = index[-2]

    def with_nan(sp, grid):
        rows = source(sp, grid).rows

        def poisoned(z0, z1):
            block = rows(z0, z1)
            if z0 <= row < z1:
                value = getattr(block, name).copy()
                value[index[:-2] + (row - z0, index[-1])] = np.nan
                block = block._replace(**{name: value})
            return block
        return RowSource(grid, poisoned)

    monkeypatch.setattr(scenarios, "dressed_rows", with_nan)


def test_nan_metric_fails_the_verdict(tmp_path, monkeypatch):
    _dressed_rows_with_nan(monkeypatch, "omega_a", (3, 5))
    path = tmp_path / "cfg.txt"
    # numeric_tol suits this coarse lattice: the NaN is the only defect
    path.write_text(SMALL_SLOW.replace("engine = analytic", "engine = all")
                    + f"numeric_tol = 0.01\nout = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path)]) == 1
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert "verdict: FAIL" in report
    assert [line for line in report.splitlines() if line.startswith("  - ")] == [
        "  - analytic vs dressing: nan > 1e-09"]


def test_nan_residual_fails_the_verdict(tmp_path, monkeypatch):
    """A NaN in the analytic route's stream fails its audit and every residual order.

    The NaN sits at row 5, column 7, odd in both, so only the output
    lattice's fold reads it and its coarse lattice's stays finite; an
    order with a NaN side is NaN.
    """
    source = scenarios.closed_form_rows
    read = []

    def nan_in_the_stream(sp, grid):
        rows = source(sp, grid).rows
        read.append(grid)

        def with_nan(z0, z1):
            block = rows(z0, z1)
            if z0 <= 5 < z1:
                rho = block.rho.copy()
                rho[1, 2, 5 - z0, 7] = np.nan
                block = block._replace(rho=rho)
            return block
        return RowSource(grid, with_nan)

    monkeypatch.setattr(scenarios, "closed_form_rows", nan_in_the_stream)
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW + f"out = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path), "--check"]) == 1
    assert read == [parse_config(SMALL_SLOW).grid()]
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert "verdict: FAIL" in report
    assert "check: pde\nmax_abs: nan\n" in report
    assert [line for line in report.splitlines() if line.startswith("  - ")] == [
        "  - audit[analytic]: nan > 1e-08"] + [
        f"  - {name}: convergence order nan outside [1.8, 2.2]"
        for name in ["pde"] + ["zero_curvature"] * len(scenarios.DEFAULT_PROBES)]


def test_a_failed_run_leaves_its_own_manifest_and_no_verdict(tmp_path, monkeypatch):
    """A run that fails on the way leaves no earlier run's verdict beside its outputs.

    The manifest is written before any route is read, and the report of
    the run before is removed; the report is written last.
    """
    path = tmp_path / "cfg.txt"
    config = SMALL_SLOW.replace("engine = analytic", "engine = all") + (
        f"numeric_tol = 0.01\nout = {tmp_path / 'run'}\nquiet = true\n")
    path.write_text(config)
    assert cli.main([str(path)]) == 0
    report = tmp_path / "run" / "residual_report.txt"
    assert report.read_text().endswith("verdict: PASS\n")

    def refused(sp, grid):
        raise ParameterGuard("seed verification gate failed")

    monkeypatch.setattr(scenarios, "dressed_rows", refused)
    path.write_text(config + "nu0 = 2.5\n")
    assert cli.main([str(path)]) == 1
    assert "nu0 = 2.5\n" in (tmp_path / "run" / "manifest.txt").read_text()
    assert (tmp_path / "run" / "grid_analytic.csv").exists()
    assert not report.exists()


def test_a_run_leaves_no_grid_of_an_earlier_run(tmp_path):
    """Every grid CSV in out is the run's own: an analytic run after an all
    run leaves only its own CSV, and a --check run leaves none."""
    run = tmp_path / "run"
    path = tmp_path / "cfg.txt"
    config = SMALL_SLOW + f"numeric_tol = 0.01\nout = {run}\nquiet = true\n"
    path.write_text(config.replace("engine = analytic", "engine = all"))

    def grids():
        return sorted(p.name for p in run.glob("grid_*.csv"))

    assert cli.main([str(path)]) == 0
    assert grids() == ["grid_analytic.csv", "grid_dressing.csv", "grid_numeric.csv"]
    path.write_text(config)
    assert cli.main([str(path)]) == 0
    assert grids() == ["grid_analytic.csv"]
    assert "engine = analytic\n" in (run / "manifest.txt").read_text()
    assert cli.main([str(path), "--check"]) == 0
    assert grids() == []


@pytest.mark.parametrize("name", sorted(n for n, r in scenarios.REGISTRY.items()
                                         if r.constants == "a"))
def test_c_for_a_scenario_parameterized_by_a_exits_2_naming_the_keys(tmp_path, capsys, name):
    # the run would go on the c mapped from a, beside a manifest echoing c1 = 5.0
    with pytest.raises(ParameterGuard, match="c1, c2, c3"):
        scenarios.make_scenario(name, c=(5.0, 0.0, 0.0))
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW.replace("scenario = slow", f"scenario = {name}")
                    + f"c1 = 5.0\nout = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "a1, a2, a3" in err and "c1, c2, c3" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config", [
    # the dressing column formed 0 * exp(mu1), NaN where the exponential overflows
    "scenario = exulton_k\nengine = dressing\nk = 0.2\nc3 = 1\nn_zeta = 11\nzeta_max = 1\n",
    # the closed form read 0 / 0 where e^(-phi - |phi|) underflows, and the
    # solver refused its NaN entry slice
    "scenario = exulton\nengine = all\nc1 = 0\nc2 = 1\nc3 = 1\nn_zeta = 5\nzeta_max = 0.01\n",
], ids=["exulton_k-dressing", "exulton-all"])
def test_the_degenerate_point_at_c1_zero_passes_on_a_large_background(tmp_path, capsys, config):
    run = tmp_path / "run"
    path = tmp_path / "cfg.txt"
    path.write_text(config + "omega0 = 50\neps0 = 50\ntau_min = -40\ntau_max = 40\n"
                    f"n_tau = 801\nzeta_min = 0\nout = {run}\nquiet = true\n")
    assert cli.main([str(path), "--check"]) == 0
    assert capsys.readouterr().err == ""
    assert (run / "residual_report.txt").read_text().endswith("verdict: PASS\n")


def test_nan_in_the_audited_state_fails_the_verdict(tmp_path, monkeypatch):
    _dressed_rows_with_nan(monkeypatch, "rho", (0, 1, 4, 9))
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW.replace("engine = analytic", "engine = dressing")
                    + f"out = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path)]) == 1
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert "check: density_audit\nmax_abs: nan\n" in report
    # slow's reference holds the projector of its vector, so the compare reads the NaN too
    assert [line for line in report.splitlines() if line.startswith("  - ")] == [
        "  - audit[dressing]: nan > 1e-08", "  - analytic vs dressing: nan > 1e-09"]


@pytest.mark.parametrize("n_tau", [41, 171])
def test_the_checks_read_the_closed_form_once_on_the_output_lattice(tmp_path, monkeypatch,
                                                                     n_tau):
    """The residual checks take the analytic route's own stream, on the lattice produced.

    171 tau nodes: no lattice is capped, and every report's steps are the
    output lattice's.
    """
    build, source = scenarios.build_analytic_grid, scenarios.closed_form_rows
    built, read = [], []

    def counted_build(sp, grid):
        built.append(grid)
        return build(sp, grid)

    def counted_source(sp, grid):
        read.append(grid)
        return source(sp, grid)

    monkeypatch.setattr(scenarios, "build_analytic_grid", counted_build)
    monkeypatch.setattr(scenarios, "closed_form_rows", counted_source)
    cfg = parse_config(SMALL_SLOW.replace("n_tau = 41", f"n_tau = {n_tau}"))
    cfg.out, cfg.quiet = str(tmp_path / "run"), True
    assert run_scenario(cfg, check_only=True) == 0
    out = cfg.grid()
    assert built == []  # no grid is ever stored
    assert read == [out]
    report = (Path(cfg.out) / "residual_report.txt").read_text()
    steps = f"h_tau: {out.h_tau:.6e}\nh_zeta: {out.h_zeta:.6e}\n"
    assert report.count(steps) == 2 + len(scenarios.DEFAULT_PROBES)  # the audit and residuals
    assert report.count("convergence_order: ") == 1 + len(scenarios.DEFAULT_PROBES)


@pytest.mark.parametrize("tag", ["fig2", "exulton_k"])
def test_the_residual_folds_read_the_output_lattice_and_its_coarse_lattice(tag):
    """The two folds that one analytic pass feeds, against each lattice read afresh.

    1001 x 17 nodes come in blocks of 8, 8 and 1 rows, whose rows of even
    global index are 4, 4 and 1 rows of the coarse 501 x 9 lattice, read
    afresh in one block. The output lattice's reports are residual_reports
    over the closed form, bit for bit; the coarse lattice's max_abs too, and
    its l2 adds its per-block sums in another order.
    """
    cfg = _canned_config(tag, "unused", 1001, 17, "analytic")
    sp, grid = cfg.scenario_params(), cfg.grid()
    checks = cli._Checks(sp, grid, ["analytic"])
    watched = checks.watch("analytic", scenarios.closed_form_rows(sp, grid))
    for z0, z1 in grid.blocks():
        watched.rows(z0, z1)
    for fold, lattice in zip(checks.residuals, (grid.coarse(), grid), strict=True):
        assert fold.grid == lattice
        fresh = verify.residual_reports(scenarios.closed_form_rows(sp, lattice), sp.params,
                                        scenarios.DEFAULT_PROBES)
        for got, want in zip(fold.report(), fresh, strict=True):
            assert (got.name, got.lambda_probe, got.grid_h) == (want.name, want.lambda_probe,
                                                                want.grid_h)
            assert got.max_abs == want.max_abs
            if lattice == grid:
                assert got.l2 == want.l2
            np.testing.assert_allclose(got.l2, want.l2, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("engine", ["dressing", "numeric"])
def test_a_route_without_residual_checks_takes_any_count(tmp_path, engine):
    """Only the residual checks of the analytic grid need odd counts >= 5.

    The run is not refused and writes its report. The solver's compare
    fails: on 4 zeta rows (h_zeta = 0.67) it misses the closed form by
    0.51, its true error on so coarse a lattice.
    """
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW.replace("engine = analytic", f"engine = {engine}")
                    .replace("n_tau = 41", "n_tau = 40").replace("n_zeta = 21", "n_zeta = 4")
                    + f"out = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path), "--check"]) == (0 if engine == "dressing" else 1)
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    failures = [line.split(":")[0] for line in report.splitlines() if line.startswith("  - ")]
    assert failures == ([] if engine == "dressing" else ["  - numeric vs analytic"])


def test_a_regular_scenario_just_off_the_degenerate_point_builds(tmp_path):
    # eps0 - omega0 = 2e-8, twice darboux.DEGENERATE_TOL: the regular seed
    # dresses it, and every route and check holds (numeric_tol suits this
    # coarse lattice, as in test_nan_metric_fails_the_verdict)
    path = tmp_path / "cfg.txt"
    path.write_text("scenario = two_soliton\neps0 = 1.00000002\ntau_min = -8\ntau_max = 8\n"
                    "n_tau = 81\nzeta_min = 0\nzeta_max = 2\nn_zeta = 41\nnumeric_tol = 0.01\n"
                    f"out = {tmp_path / 'run'}\nquiet = true\n")
    sp = parse_config(path.read_text()).scenario_params()
    assert darboux.seed_family(sp.params, sp.spectral) == "regular"
    assert cli.main([str(path), "--check"]) == 0


def test_manifest_round_trip():
    cfg = parse_config(SMALL_SLOW)
    text = emit_manifest(cfg)
    again = parse_config(text)
    assert again == cfg


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _configs(draw):
    """A valid config for any registry scenario, every field drawn.

    The scenario's physical parameters and constants come from inside its
    regime (scenario_inputs.regime_keywords); nu0, Delta, the lattice and
    numeric_tol are drawn over their whole valid range.
    """
    name = draw(st.sampled_from(sorted(scenarios.REGISTRY)))
    regime = draw(regime_keywords(name))
    refused = scenarios.state_kind(scenarios.make_scenario(name, **regime).params) == "formal"
    # a1 .. a3 are free where the scenario does not take them; c1 .. c3 are
    # refused where it does not, so stay unset
    a = regime.get("a") or tuple(draw(_FINITE) for _ in range(3))
    c = regime.get("c", (None, None, None))
    tau_min, zeta_min = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    engine = draw(st.sampled_from([e for e in cli.ENGINES if not (refused and e == "numeric")]))
    if engine in ("analytic", "all"):
        # the residual checks read every other node too: odd counts >= 5
        n_tau, n_zeta = (2 * draw(st.integers(2, 5 * 10**5)) + 1 for _ in range(2))
    else:
        n_tau, n_zeta = draw(st.integers(3, 10**6)), draw(st.integers(2, 10**6))

    def extent_max(low, n):
        """Upper extents whose lattice GridSpec takes."""
        return st.floats(low, 2e6, exclude_min=True).filter(lambda high: usable_step(low, high, n))
    return cli.ScenarioConfig(
        scenario=name,
        engine=engine,
        out=draw(st.text("abz09_-./ ", min_size=1, max_size=12).filter(lambda s: s == s.strip())),
        nu0=draw(_POSITIVE), delta=draw(_FINITE), omega0=regime["omega0"],
        k=regime.get("k", 0.0), eps0=regime["eps0"],
        a1=a[0], a2=a[1], a3=a[2], c1=c[0], c2=c[1], c3=c[2],
        tau_min=tau_min, tau_max=draw(extent_max(tau_min, n_tau)), n_tau=n_tau,
        zeta_min=zeta_min, zeta_max=draw(extent_max(zeta_min, n_zeta)), n_zeta=n_zeta,
        numeric_tol=draw(_POSITIVE), quiet=draw(st.booleans()),
    )


@given(_configs())
def test_manifest_round_trip_for_any_config(cfg):
    assert parse_config(emit_manifest(cfg)) == cfg


@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_canned_copy_gives_the_canned_scenario(tag):
    # the config copy builds what the canned entry builds straight through make_scenario
    entry = dict(scenarios.CANNED[tag])
    grid = entry.pop("grid")
    cfg = cli.ScenarioConfig()
    cli.apply_canned(cfg, tag)
    assert cfg.scenario_params() == scenarios.make_scenario(**entry) and cfg.grid() == grid


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = parse_config(SMALL_SLOW)
    cfg.out = str(tmp_path / "run")
    code = run_scenario(cfg)
    assert code == 0
    out = Path(cfg.out)
    csv = (out / "grid_analytic.csv").read_text().splitlines()
    assert csv[0] == cli.CSV_HEADER
    assert len(csv) == 1 + 41 * 21
    first = csv[1].split(",")
    assert len(first) == 11
    assert float(first[0]) == 0.0 and float(first[1]) == -8.0
    assert (out / "manifest.txt").exists()
    report = (out / "residual_report.txt").read_text()
    assert "verdict: PASS" in report
    # manifest is itself a parseable config
    cfg2 = parse_config((out / "manifest.txt").read_text())
    assert cfg2.scenario == "slow"


def test_run_reproducible_bytes(tmp_path):
    cfg = parse_config(SMALL_SLOW)
    outs = []
    for sub in ("a", "b"):
        cfg.out = str(tmp_path / sub)
        cfg.quiet = True
        assert run_scenario(cfg) == 0
        outs.append((Path(cfg.out) / "grid_analytic.csv").read_bytes())
    assert outs[0] == outs[1]


def test_main_with_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW + f"\nout = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path)]) == 0


def test_main_rejects_broken_config(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("omega0 = -2\n")
    assert cli.main([str(path)]) == 2


@pytest.mark.parametrize("engine, compares", [
    ("analytic", []),
    # a dressing-only run is compared with the closed form's reference too
    ("dressing", ["compare[analytic vs dressing]"]),
], ids=["analytic", "dressing"])
def test_main_engine_override_and_check_only(tmp_path, engine, compares):
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW)
    out = tmp_path / "run"
    code = cli.main([str(path), "--engine", engine, "--out", str(out),
                     "--check", "--quiet"])
    assert code == 0
    assert not (out / f"grid_{engine}.csv").exists()  # verification only
    report = (out / "residual_report.txt").read_text()
    assert [line for line in report.splitlines() if line.startswith("check: compare")] == [
        f"check: {name}" for name in compares]


def test_run_scenario_validates_its_config(tmp_path):
    cfg = cli.ScenarioConfig(scenario="slow", engine="analytic", delta=float("nan"),
                             out=str(tmp_path / "run"), quiet=True)
    with pytest.raises(ParseError, match="delta must be finite"):
        run_scenario(cfg)
    assert not (tmp_path / "run").exists()


def _canned_config(tag: str, out: Path, n_tau: int, n_zeta: int, engine: str = "all"):
    """The canned tag's config on n_tau nodes and n_zeta rows of its own zeta step."""
    cfg = cli.ScenarioConfig()
    cli.apply_canned(cfg, tag)
    h_zeta = cfg.grid().h_zeta
    cfg.n_tau, cfg.n_zeta = n_tau, n_zeta
    cfg.zeta_max = cfg.zeta_min + (n_zeta - 1) * h_zeta
    cfg.engine, cfg.out, cfg.quiet = engine, str(out), True
    return cfg


@pytest.mark.parametrize("engine", ["analytic", "dressing", "numeric", "all"])
def test_a_run_holds_no_whole_grid(tmp_path, engine):
    """cli.main's traced peak does not grow with the lattice's zeta rows.

    fig2 on 1001 tau nodes: 161 rows peak within 3 MB of 41 rows, though
    the 120 more rows of a stored analytic grid alone weigh about 24 MB.
    """
    def peak(n_zeta):
        cfg = _canned_config("fig2", tmp_path / f"run{n_zeta}", 1001, n_zeta, engine)
        path = tmp_path / f"cfg{n_zeta}.txt"
        path.write_text(cli.emit_manifest(cfg))
        tracemalloc.start()
        try:
            assert cli.main([str(path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(161) - peak(41) < 3e6


@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_a_streamed_run_writes_the_bytes_of_the_stored_grids(tmp_path, tag):
    """The command line's CSVs and density audits are those of the stored builders' grids.

    1001 tau nodes and 17 zeta rows are blocks of 8, 8 and 1 rows. Bit for
    bit on every record, exulton_k's formal state included: the builders
    keep the blocks of the row sources that the command line streams.
    """
    cfg = _canned_config(tag, tmp_path / "run", 1001, 17)
    sp, grid = cfg.scenario_params(), cfg.grid()
    assert [z1 - z0 for z0, z1 in grid.blocks()] == [8, 8, 1]
    assert run_scenario(cfg) in (0, 1)  # a coarse lattice may miss an order band
    builds = {"analytic": scenarios.build_analytic_grid, "dressing": scenarios.build_dressed_grid}
    if scenarios.state_kind(sp.params) != "formal":
        builds["numeric"] = scenarios.build_numeric_grid
    audits = []
    for engine, build in builds.items():
        stored = build(sp, grid)
        cli.write_grid_csv(tmp_path / f"{engine}.csv", stored)
        written = (tmp_path / "run" / f"grid_{engine}.csv").read_bytes()
        assert written == (tmp_path / f"{engine}.csv").read_bytes(), engine
        audits.append(verify.audit_report(stored.meta, "density", grid) if engine == "numeric"
                      else verify.audit_density(stored))
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert report.split("\n\n")[:len(audits)] == [audit.as_text() for audit in audits]


@pytest.mark.parametrize("took, pinned", [((1, 1), True), ((0, 1), False), ((1, 0), False)])
def test_keep_freed_heap_pins_the_mmap_threshold_and_turns_trimming_off(monkeypatch, took,
                                                                       pinned):
    """mallopt(M_MMAP_THRESHOLD = -3, 32 MiB), then mallopt(M_TRIM_THRESHOLD = -1, -1).

    Both return values are read: the call reports whether both took.
    """
    calls = []

    class Libc:
        def __init__(self, name):
            assert name is None
            self.mallopt = self

        def __call__(self, param, value):
            calls.append((param, value))
            return took[len(calls) - 1]

    monkeypatch.setattr(cli.ctypes, "CDLL", Libc)
    assert cli._keep_freed_heap() is pinned
    assert calls == [(-3, 32 << 20), (-1, -1)]


def test_keep_freed_heap_leaves_a_c_library_without_mallopt_alone(monkeypatch):
    class Libc:
        def __init__(self, name):
            pass

    monkeypatch.setattr(cli.ctypes, "CDLL", Libc)
    assert cli._keep_freed_heap() is False
