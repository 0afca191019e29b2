import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_mb import cli, scenarios
from lambda_mb.cli import emit_manifest, parse_config, run_scenario
from lambda_mb.errors import ParseError
from scenario_inputs import canned_scenario, regime_keywords

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
    with pytest.raises(ParseError, match="canned tags go through --scenario"):
        parse_config("scenario = fig2\n")
    with pytest.raises(ParseError, match="refuses the numeric engine"):
        parse_config("scenario = exulton_k\nengine = numeric\n")
    with pytest.raises(ParseError, match="Delta"):
        parse_config("scenario = slow\ndelta = 0.5\nprobe_lambdas = 1+1j; 0.5+1e-10j\n")
    err = None
    try:
        parse_config("nu0 = 3\nomega0 == 1\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 2


@pytest.mark.parametrize("text", [
    "delta = nan\n", "nu0 = inf\n", "c1 = -inf\n", "order_band = 1.8; nan\n",
    "probe_lambdas = 0.5+nanj\n", "tau_min = 5\ntau_max = -5\n",
    "zeta_min = 2\nzeta_max = 2\n",
])
def test_parse_rejects_non_finite_values_and_inverted_extents(text):
    with pytest.raises(ParseError):
        parse_config(text)


@pytest.mark.parametrize("text", [
    "delta = nan\n", "tau_min = 5\ntau_max = -5\n", "scenario = fig2\n",
    "scenario = exulton_k\nengine = numeric\n",
    "scenario = slow\nengine = analytic\ndelta = 0.5\nprobe_lambdas = 0.5\n",
    # a value its type refuses, or one outside the scenario's regime, on
    # every route: the dressing-only runs below would otherwise pass on a
    # grid that is not the named scenario
    "eta = 2\n", "a2 = 2\n", "scenario = exulton\neps0 = 1\nc1 = 0\nc2 = 0\nc3 = 0\n",
    "scenario = exulton\nengine = dressing\neps0 = 0.5\nomega0 = 1\n",
    "scenario = zero_background\nengine = dressing\nomega0 = 0\nc1 = 1\nc2 = 1\nc3 = 0\n",
    "scenario = slow\nengine = dressing\na1 = 0\n",
    # the residual checks of the analytic grid need three zeta rows
    "scenario = slow\nengine = analytic\nn_zeta = 2\nn_tau = 41\n",
    "scenario = slow\nengine = all\nn_zeta = 2\nn_tau = 41\n",
])
def test_main_unusable_config_exits_2_with_a_message(tmp_path, capsys, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text + f"out = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["--engine", "numeric"], ["--out", "{tmp}/a#1"], ["--out", " {tmp}/a"], ["--out", "{tmp}/a\n"],
])
def test_main_validates_the_config_after_its_overrides(tmp_path, capsys, argv):
    path = tmp_path / "cfg.txt"
    path.write_text("scenario = exulton_k\neps0 = 1\nc1 = 0\nc2 = 0\nc3 = 1\n"
                    f"out = {tmp_path / 'run'}\nquiet = true\n")
    parse_config(path.read_text())  # valid until the override
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli.main([str(path), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert list(tmp_path.iterdir()) == [path]


def test_a_run_without_grids_cannot_pass():
    cfg = parse_config(SMALL_SLOW)
    failures, reports = cli._run_checks(cfg, cfg.scenario_params(), cfg.grid(), {})
    assert failures == ["no grid was built"] and reports == []


def test_nan_metric_fails_the_verdict(tmp_path, monkeypatch):
    build = scenarios.build_dressed_grid

    def with_nan(sp, grid):
        sol = build(sp, grid)
        sol.omega_a[3, 5] = np.nan
        return sol

    monkeypatch.setattr(scenarios, "build_dressed_grid", with_nan)
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
    build = scenarios.build_analytic_grid
    built = []

    def nan_in_the_fine_check_grid(sp, grid):
        sol = build(sp, grid)
        built.append(grid)
        if len(built) > 1:  # the output grid is also the coarse check grid
            sol.rho[5, 7, 1, 2] = np.nan
        return sol

    monkeypatch.setattr(scenarios, "build_analytic_grid", nan_in_the_fine_check_grid)
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW + f"out = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path), "--check"]) == 1
    assert len(built) == 2
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert "verdict: FAIL" in report
    assert [line for line in report.splitlines() if line.startswith("  - ")] == [
        f"  - {name}: convergence order nan outside [1.8, 2.2]"
        for name in ["pde"] + ["zero_curvature"] * len(scenarios.DEFAULT_PROBES)]


def test_nan_in_the_audited_state_fails_the_verdict(tmp_path, monkeypatch):
    build = scenarios.build_dressed_grid

    def with_nan(sp, grid):
        sol = build(sp, grid)
        sol.rho[4, 9, 0, 1] = np.nan
        return sol

    monkeypatch.setattr(scenarios, "build_dressed_grid", with_nan)
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW.replace("engine = analytic", "engine = dressing")
                    + f"out = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path)]) == 1
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert "check: density_audit\nmax_abs: nan\n" in report
    assert [line for line in report.splitlines() if line.startswith("  - ")] == [
        "  - audit[dressing]: nan > 1e-08"]


@pytest.mark.parametrize("n_tau", [41, 171])
def test_checks_build_the_coarse_check_grid_only_when_the_output_grid_is_not_it(
        tmp_path, monkeypatch, n_tau):
    build = scenarios.build_analytic_grid
    built = []

    def counted(sp, grid):
        built.append(grid)
        return build(sp, grid)

    monkeypatch.setattr(scenarios, "build_analytic_grid", counted)
    cfg = parse_config(SMALL_SLOW.replace("n_tau = 41", f"n_tau = {n_tau}"))
    cfg.out, cfg.quiet = str(tmp_path / "run"), True
    assert run_scenario(cfg, check_only=True) == 0
    out = cfg.grid()
    check = dataclasses.replace(out, n_tau=min(n_tau, 161))
    coarse = [] if check == out else [check]
    assert built == [out, *coarse, check.refined()]


def test_manifest_round_trip():
    cfg = parse_config(SMALL_SLOW)
    text = emit_manifest(cfg)
    again = parse_config(text)
    assert again == cfg


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _configs(draw):
    """A valid config for any registry scenario, every field but eta drawn.

    The scenario's physical parameters and constants come from inside its
    regime (scenario_inputs.regime_keywords; eta stays 0, the only value a
    record accepts); nu0, Delta, the lattice, the probes and the
    tolerances are drawn over their whole valid range.
    """
    name = draw(st.sampled_from(sorted(scenarios.REGISTRY)))
    refused = scenarios.REGISTRY[name].boundary is None
    regime = draw(regime_keywords(name))
    # the constants a scenario does not take are free
    a = regime.get("a") or tuple(draw(_FINITE) for _ in range(3))
    c = regime.get("c") or tuple(draw(st.none() | _FINITE) for _ in range(3))
    tau_min, zeta_min = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    engine = draw(st.sampled_from([e for e in cli.ENGINES if not (refused and e == "numeric")]))
    return cli.ScenarioConfig(
        scenario=name,
        engine=engine,
        out=draw(st.text("abz09_-./ ", min_size=1, max_size=12).filter(lambda s: s == s.strip())),
        nu0=draw(_POSITIVE), delta=draw(_FINITE), omega0=regime["omega0"],
        k=regime.get("k", 0.0), eps0=regime["eps0"],
        a1=a[0], a2=a[1], a3=a[2], c1=c[0], c2=c[1], c3=c[2],
        tau_min=tau_min, tau_max=draw(st.floats(tau_min, 2e6, exclude_min=True)),
        n_tau=draw(st.integers(3, 10**6)),
        zeta_min=zeta_min, zeta_max=draw(st.floats(zeta_min, 2e6, exclude_min=True)),
        # the analytic route's residual checks need three zeta rows
        n_zeta=draw(st.integers(3 if engine in ("analytic", "all") else 2, 10**6)),
        probe_lambdas=tuple(draw(st.lists(
            st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=4))),
        field_tol=draw(st.none() | _POSITIVE), numeric_tol=draw(_POSITIVE),
        audit_tol=draw(_POSITIVE), numeric_audit_tol=draw(_POSITIVE),
        order_band=(draw(_FINITE), draw(_FINITE)), quiet=draw(st.booleans()),
    )


@given(_configs())
def test_manifest_round_trip_for_any_config(cfg):
    assert parse_config(emit_manifest(cfg)) == cfg


@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_canned_copy_gives_the_canned_scenario(tag):
    cfg = cli.ScenarioConfig()
    cli.apply_canned(cfg, tag)
    sp, grid = canned_scenario(tag)
    assert cfg.scenario_params() == sp and cfg.grid() == grid


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


def test_main_engine_override_and_check_only(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW)
    out = tmp_path / "run"
    code = cli.main([str(path), "--engine", "analytic", "--out", str(out),
                     "--check", "--quiet"])
    assert code == 0
    assert not (out / "grid_analytic.csv").exists()  # verification only
    assert (out / "residual_report.txt").exists()


def test_run_scenario_validates_its_config(tmp_path):
    cfg = cli.ScenarioConfig(scenario="slow", engine="analytic", delta=float("nan"),
                             out=str(tmp_path / "run"), quiet=True)
    with pytest.raises(ParseError, match="delta must be finite"):
        run_scenario(cfg)
    assert not (tmp_path / "run").exists()
