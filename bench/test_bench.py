"""The benchmark's own test: every workload once on tiny lattices, and every
output check shown to reject a deliberately corrupted output.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
from workloads import TAGS, WORKLOADS  # noqa: E402

from lambda_mb import cli, scenarios  # noqa: E402


def _tiny_pass(name: str, work: Path, tracer=None) -> dict:
    workload = WORKLOADS[name].tiny()
    work.mkdir(parents=True, exist_ok=True)
    configs = bench_run.write_configs(workload, work)
    if tracer is None:
        return bench_run.run_pass(cli, workload, configs)
    with spans.traced(tracer):
        return bench_run.run_pass(cli, workload, configs)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Outputs of one tiny pass per workload: name -> (workload, work dir, pass)."""
    root = tmp_path_factory.mktemp("tiny")
    return {name: (WORKLOADS[name].tiny(), root / name, _tiny_pass(name, root / name))
            for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_every_check(tiny, name):
    workload, work, result = tiny[name]
    assert set(result["codes"].values()) == {0}
    assert checks.check_outputs(workload, work) == {run.name: [] for run in workload.runs}


def test_runs_use_the_canned_parameters():
    for tag, (scenario, params, lattice) in TAGS.items():
        entry = dict(scenarios.CANNED[tag])
        grid = entry.pop("grid")
        assert entry.pop("name") == scenario
        expected = {key: value for key, value in entry.items() if key not in ("a", "c")}
        for prefix in ("a", "c"):
            if prefix in entry:
                expected.update({f"{prefix}{i + 1}": v for i, v in enumerate(entry[prefix])})
        assert {k: v for k, v in params if k in expected} == expected
        assert (grid.tau_min, grid.tau_max, grid.n_tau, grid.zeta_min, grid.zeta_max,
                grid.n_zeta) == (lattice.tau_min, lattice.tau_max, lattice.n_tau,
                                 lattice.zeta_min, lattice.zeta_max, lattice.n_zeta)


def test_rewrite_digest_is_stable_and_detects_a_changed_byte(tiny, tmp_path):
    workload, work, _ = tiny["exact-write"]
    before = {run.name: checks.digest(run, work / run.name) for run in workload.runs}
    again = tmp_path / "again"
    _tiny_pass("exact-write", again)
    run = workload.runs[0]
    assert checks.digest(run, again / run.name) == before[run.name]
    path = again / run.name / "grid_analytic.csv"
    raw = bytearray(path.read_bytes())
    raw[-3] = ord("1") if raw[-3] != ord("1") else ord("2")
    path.write_bytes(bytes(raw))
    assert checks.digest(run, again / run.name) != before[run.name]


# ---------------------------------------------------------------------------
# residual report
# ---------------------------------------------------------------------------

def _report(tiny, workload_name, run_index=0):
    workload, work, _ = tiny[workload_name]
    run = workload.runs[run_index]
    return run, (work / run.name / "residual_report.txt").read_text("utf-8")


def _drop_block(text: str, first_line: str) -> str:
    chunks = text.split("\n\n")
    index = next(i for i, c in enumerate(chunks) if c.startswith(first_line))
    return "\n\n".join(chunks[:index] + chunks[index + 1:])


def test_report_check_rejects_a_missing_check(tiny):
    run, text = _report(tiny, "exact-write")
    assert checks.check_report(run, text) == []
    assert checks.check_report(run, _drop_block(text, "check: zero_curvature"))
    assert checks.check_report(run, _drop_block(text, "check: pde"))
    assert checks.check_report(run, _drop_block(text, "check: density_audit"))
    run, text = _report(tiny, "all-routes")
    assert checks.check_report(run, text) == []
    assert checks.check_report(run, _drop_block(text, "check: compare[numeric vs analytic]"))
    assert checks.check_report(run, _drop_block(text, "check: compare[analytic vs dressing]"))


def test_report_check_rejects_fail_nan_and_orders_off_band(tiny):
    run, text = _report(tiny, "exact-write")
    assert checks.check_report(run, text.replace("verdict: PASS", "verdict: FAIL:"))
    order = next(line for line in text.splitlines() if line.startswith("convergence_order"))
    assert checks.check_report(run, text.replace(order, "convergence_order: 1.500", 1))
    max_abs = next(line for line in text.splitlines() if line.startswith("max_abs"))
    assert checks.check_report(run, text.replace(max_abs, "max_abs: nan", 1))


# ---------------------------------------------------------------------------
# grid CSVs
# ---------------------------------------------------------------------------

def _csv_lines(tiny, workload_name="exact-write", engine="analytic"):
    workload, work, _ = tiny[workload_name]
    run = next(r for r in workload.runs if engine in r.engines)
    path = work / run.name / f"grid_{engine}.csv"
    return run, engine, path.read_text("utf-8").splitlines()


def _check_lines(tmp_path, run, engine, lines):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        header, data = checks.read_csv(path)
    except ValueError as exc:
        return [f"unreadable: {exc}"]
    return checks.check_csv(run.lattice, engine, header, data)


def _set_field(lines, row, col, text):
    cells = lines[row].split(",")
    cells[col] = text
    lines = list(lines)
    lines[row] = ",".join(cells)
    return lines


def _flip_digit(value: str, position: int) -> str:
    """Change the digit at the given significant place of a number's text."""
    seen = 0
    for i, ch in enumerate(value):
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == position:
                return value[:i] + str((int(ch) + 1) % 10) + value[i + 1:]
    raise ValueError(value)


def test_csv_check_rejects_a_flipped_digit_in_ia(tiny, tmp_path):
    run, engine, lines = _csv_lines(tiny)
    assert _check_lines(tmp_path, run, engine, lines) == []
    row = 1 + len(lines) // 2
    ia = lines[row].split(",")[6]
    assert float(ia) > 0
    for place in (2, 6, 9):
        bad = _set_field(lines, row, 6, _flip_digit(ia, place))
        assert _check_lines(tmp_path, run, engine, bad), place


def test_csv_check_rejects_nan_and_broken_layout(tiny, tmp_path):
    run, engine, lines = _csv_lines(tiny)
    assert _check_lines(tmp_path, run, engine, _set_field(lines, 5, 2, "nan"))
    assert _check_lines(tmp_path, run, engine, _set_field(lines, 5, 9, "nan"))
    assert _check_lines(tmp_path, run, engine, ["zeta,tau,Oa"] + lines[1:])
    assert _check_lines(tmp_path, run, engine, lines[:-1])
    tau = float(lines[7].split(",")[1])
    assert _check_lines(tmp_path, run, engine, _set_field(lines, 7, 1, repr(tau + 1e-6)))


def test_csv_check_rejects_bad_populations(tiny, tmp_path):
    run, engine, lines = _csv_lines(tiny)
    cells = lines[9].split(",")
    p1, p2 = float(cells[8]), float(cells[9])
    # shift weight between levels: still sums to 1, but leaves [0, 1]
    bad = _set_field(_set_field(lines, 9, 8, repr(p1 + p2 + 1e-3)), 9, 9, repr(-1e-3))
    assert _check_lines(tmp_path, run, engine, bad)
    assert _check_lines(tmp_path, run, engine, _set_field(lines, 9, 8, repr(p1 + 1e-6)))


# ---------------------------------------------------------------------------
# agreement between routes
# ---------------------------------------------------------------------------

def _grid(tiny, workload_name, engine):
    run, _, lines = _csv_lines(tiny, workload_name, engine)
    return run, np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def test_exact_pair_check_rejects_a_disagreeing_or_nan_field(tiny):
    run, analytic = _grid(tiny, "exact-write", "analytic")
    _, dressing = _grid(tiny, "exact-write", "dressing")
    assert checks.check_exact_pair(analytic, dressing, run.scenario) == []
    bad = dressing.copy()
    bad[3, 2] += 1e-7
    assert checks.check_exact_pair(analytic, bad, run.scenario)
    bad[3, 2] = math.nan
    assert checks.check_exact_pair(analytic, bad, run.scenario)


def test_numeric_check_rejects_a_drifting_solver(tiny):
    _, analytic = _grid(tiny, "all-routes", "analytic")
    run, numeric = _grid(tiny, "all-routes", "numeric")
    assert checks.check_numeric(numeric, analytic) == []
    bad = numeric.copy()
    bad[-1, 2] += 2e-3 * np.max(np.abs(analytic[:, 2] + 1j * analytic[:, 3]))
    assert checks.check_numeric(bad, analytic)


def test_dark_transparency_check_rejects_zeta_dependence(tiny):
    workload, work, _ = tiny["all-routes"]
    run = next(r for r in workload.runs if r.scenario == "fast")
    _, numeric = checks.read_csv(work / run.name / "grid_numeric.csv")
    assert checks.check_dark_transparency(numeric, run.lattice) == []
    bad = numeric.copy()
    bad[-run.lattice.n_tau // 2, 6] *= 1.01
    assert checks.check_dark_transparency(bad, run.lattice)


def test_check_outputs_attributes_a_corrupted_file_to_its_run(tiny, tmp_path):
    workload, work, _ = tiny["all-routes"]
    copy = tmp_path / "copy"
    shutil.copytree(work, copy)
    run = workload.runs[0]
    path = copy / run.name / "grid_dressing.csv"
    lines = path.read_text("utf-8").splitlines()
    path.write_text("\n".join(_set_field(lines, 4, 4, "nan")) + "\n", encoding="utf-8")
    fails = checks.check_outputs(workload, copy)
    assert fails[run.name] and not fails[workload.runs[1].name]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_traced_pass_gives_every_layer_and_restores_the_package(tmp_path):
    from lambda_mb import mbsolver

    original = mbsolver.propagate
    tracer = spans.Tracer()
    result = _tiny_pass("all-routes", tmp_path, tracer)
    assert set(result["codes"].values()) == {0}
    assert scenarios.propagate is original and mbsolver.propagate is original
    values = spans.layer_metrics(tracer.spans)
    assert set(values) == {name for name, _, _ in spans.PER_LAYER} - {"trace.overhead_s"}
    for name in ("mbsolver.propagate.s", "mbsolver.integrate_bloch_slice.calls",
                 "verify.compare_solutions.s", "cli.write_grid_csv.rows_per_s",
                 "analytic.fields.s", "darboux.dressed_fields_and_state.nodes_per_s"):
        assert values[name] > 0, name
    # one entry slice, then two slices per zeta step, for each of the two runs
    steps = sum(r.lattice.n_zeta - 1 for r in WORKLOADS["all-routes"].tiny().runs)
    assert values["mbsolver.maxwell_step.calls"] == steps
    assert values["mbsolver.integrate_bloch_slice.calls"] == 2 * steps + 2
    assert values["mbsolver.propagate.s"] >= values["mbsolver.integrate_bloch_slice.s"]
