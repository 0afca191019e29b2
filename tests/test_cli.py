import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_mb import cli, darboux, model, scenarios
from lambda_mb.cli import emit_manifest, parse_config, run_scenario
from lambda_mb.errors import ParseError
from scenario_inputs import regime_keywords

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
        parse_config("scenario = exulton_k\neps0 = 1\nk = 0.2\nc1 = 0\nc2 = 0\nc3 = 1\n"
                     "engine = numeric\n")
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
    "scenario = exulton_k\neps0 = 1\nk = 0.2\nc1 = 0\nc2 = 0\nc3 = 1\nengine = numeric\n",
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
    # a check that cannot pass, or that passes by checking nothing
    "scenario = slow\nengine = analytic\norder_band = 2.2; 1.8\n",
    "scenario = slow\nengine = analytic\norder_band = 2; 2\n",
    "scenario = slow\nengine = analytic\naudit_tol = -1\n",
    "scenario = slow\nengine = analytic\naudit_tol = 0\n",
    "scenario = fast\nengine = numeric\nnumeric_audit_tol = 0\n",
    "scenario = slow\nengine = analytic\nnumeric_tol = 0\n",
    "scenario = slow\nengine = dressing\nfield_tol = -1e-9\n",
    "scenario = slow\nengine = analytic\nprobe_lambdas = ;\n",
    "scenario = slow\nengine = all\nprobe_lambdas =\n",
    # |lambda - Delta| beyond the float range: complex abs raises OverflowError
    "scenario = slow\nengine = analytic\nprobe_lambdas = 1.7e308+1.7e308j\n",
    "scenario = slow\nengine = analytic\ndelta = -1.7e308\nprobe_lambdas = 1.7e308\n",
    # 0 < eps0 - omega0 < darboux.DEGENERATE_TOL: the engine would take the
    # confluent seed for a regular scenario
    "scenario = two_soliton\neps0 = 1.000000005\n",
    "scenario = slow\neps0 = 1.000000005\n",
    "scenario = fast\neps0 = 1.000000005\n",
    # a flag the parser does not know is not false
    "quiet = tru\n", "quiet = 2\n",
    # a file that is not UTF-8
    b"scenario = slow\xff\n",
])
def test_main_unusable_config_exits_2_with_a_message(tmp_path, capsys, text):
    path = tmp_path / "cfg.txt"
    data = text if isinstance(text, bytes) else text.encode()
    path.write_bytes(data + f"out = {tmp_path / 'run'}\nquiet = true\n".encode())
    assert cli.main([str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "run").exists()


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
    source = scenarios.closed_form_rows
    check = parse_config(SMALL_SLOW).grid()
    read = []

    def nan_in_the_fine_check_lattice(sp, grid):
        rows = source(sp, grid)
        read.append(grid)

        def with_nan(z0, z1):
            oa, ob, rho = rows(z0, z1)
            # only the refined lattice is poisoned: the coarse one stays clean
            if grid == check.refined() and z0 <= 5 < z1:
                rho = rho.copy()
                rho[1, 2, 5 - z0, 7] = np.nan
            return oa, ob, rho
        return with_nan

    monkeypatch.setattr(scenarios, "closed_form_rows", nan_in_the_fine_check_lattice)
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_SLOW + f"out = {tmp_path / 'run'}\nquiet = true\n")
    assert cli.main([str(path), "--check"]) == 1
    # the output grid is also the coarse check lattice, read from the closed form
    assert read == [check, check.refined()]
    report = (tmp_path / "run" / "residual_report.txt").read_text()
    assert "verdict: FAIL" in report
    assert [line for line in report.splitlines() if line.startswith("  - ")] == [
        f"  - {name}: convergence order nan outside [1.8, 2.2]"
        for name in ["pde"] + ["zero_curvature"] * len(scenarios.DEFAULT_PROBES)]


def test_nan_in_the_audited_state_fails_the_verdict(tmp_path, monkeypatch):
    build = scenarios.build_dressed_grid

    def with_nan(sp, grid):
        sol = build(sp, grid)
        sol.rho[0, 1, 4, 9] = np.nan
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
def test_checks_read_both_check_lattices_from_the_closed_form(tmp_path, monkeypatch, n_tau):
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
    check = dataclasses.replace(out, n_tau=min(n_tau, 161))
    assert built == [out]  # no check lattice is ever stored
    assert read == [check, check.refined()]


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


def _usable_probe(lam: complex, delta: float) -> bool:
    """Off the Delta pole, at a distance that a float holds."""
    try:
        return model.POLE_GUARD < abs(lam - delta) < math.inf
    except OverflowError:
        return False


@st.composite
def _configs(draw):
    """A valid config for any registry scenario, every field but eta drawn.

    The scenario's physical parameters and constants come from inside its
    regime (scenario_inputs.regime_keywords; eta stays 0, the only value a
    record accepts); nu0, Delta, the lattice, the probes and the
    tolerances are drawn over their whole valid range.
    """
    name = draw(st.sampled_from(sorted(scenarios.REGISTRY)))
    regime = draw(regime_keywords(name))
    refused = scenarios.state_kind(scenarios.make_scenario(name, **regime).params) == "formal"
    # the constants a scenario does not take are free
    a = regime.get("a") or tuple(draw(_FINITE) for _ in range(3))
    c = regime.get("c") or tuple(draw(st.none() | _FINITE) for _ in range(3))
    tau_min, zeta_min = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    engine = draw(st.sampled_from([e for e in cli.ENGINES if not (refused and e == "numeric")]))
    delta = draw(_FINITE)
    return cli.ScenarioConfig(
        scenario=name,
        engine=engine,
        out=draw(st.text("abz09_-./ ", min_size=1, max_size=12).filter(lambda s: s == s.strip())),
        nu0=draw(_POSITIVE), delta=delta, omega0=regime["omega0"],
        k=regime.get("k", 0.0), eps0=regime["eps0"],
        a1=a[0], a2=a[1], a3=a[2], c1=c[0], c2=c[1], c3=c[2],
        tau_min=tau_min, tau_max=draw(st.floats(tau_min, 2e6, exclude_min=True)),
        n_tau=draw(st.integers(3, 10**6)),
        zeta_min=zeta_min, zeta_max=draw(st.floats(zeta_min, 2e6, exclude_min=True)),
        # the analytic route's residual checks need three zeta rows
        n_zeta=draw(st.integers(3 if engine in ("analytic", "all") else 2, 10**6)),
        # the analytic grid's zero-curvature check needs a probe
        probe_lambdas=tuple(draw(st.lists(
            st.complex_numbers(allow_nan=False, allow_infinity=False).filter(
                lambda lam: _usable_probe(lam, delta)),
            min_size=1 if engine in ("analytic", "all") else 0, max_size=4))),
        field_tol=draw(st.none() | _POSITIVE), numeric_tol=draw(_POSITIVE),
        audit_tol=draw(_POSITIVE), numeric_audit_tol=draw(_POSITIVE),
        order_band=tuple(sorted(draw(st.lists(_FINITE, min_size=2, max_size=2, unique=True)))),
        quiet=draw(st.booleans()),
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
