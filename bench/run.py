#!/usr/bin/env python3
"""lambda-mb benchmark: CLI workloads timed end to end, or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload exact-write --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                       # every workload, each in its own process

One process serves one workload.  It measures set-up (fresh interpreters
importing ``lambda_mb.cli``), then makes whole passes over the workload's
CLI runs, one after another, until the next pass would end after
``--seconds`` (at least two passes, so every CSV is written twice).  Then
it checks the outputs and prints one JSON object as its last line.  With
``--trace 1`` passes alternate untraced and traced, and the per-layer
metrics come from the traced ones.  ``--seed`` is recorded only: the
inputs are fixed and nothing is drawn at random.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

#: fresh interpreters timed for set-up; the 90th percentile is reported
SETUP_SAMPLES = 7


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure_setup() -> list:
    """Seconds from starting a fresh interpreter to lambda_mb.cli imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lambda_mb.cli"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def openblas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": openblas_threads(),
        "numba": have_numba,
        "cpus": os.cpu_count(),
    }


def write_configs(workload, work: Path) -> dict:
    """One config file per run, its outputs going to ``work/<run name>``."""
    configs = {}
    for run in workload.runs:
        configs[run.name] = work / f"{run.name}.cfg"
        configs[run.name].write_text(run.config_text(work / run.name), encoding="utf-8")
    return configs


def run_pass(cli, workload, configs) -> dict:
    """One pass over the workload's CLI runs, in order, from this process."""
    codes = {}
    cpu0, start = _cpu_s(), time.perf_counter()
    for run in workload.runs:
        try:
            codes[run.name] = cli.main(run.argv(configs[run.name]))
        except Exception:  # an uncaught error is a failed run, as at a shell
            traceback.print_exc()
            codes[run.name] = 1
    return {"wall_s": time.perf_counter() - start, "cpu_s": _cpu_s() - cpu0, "codes": codes}


def measure(cli, workload, seconds: float, trace: bool, work: Path) -> dict:
    configs = write_configs(workload, work)
    # a round is one untraced pass, plus one traced pass when tracing
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in (False, True) if trace else (False,):
            if traced:
                tracer = spans.Tracer()
                with spans.traced(tracer):
                    result = run_pass(cli, workload, configs)
                result["layers"] = spans.layer_metrics(tracer.spans)
            else:
                result = run_pass(cli, workload, configs)
            result["traced"] = traced
            result["digests"] = {run.name: checks.digest(run, work / run.name)
                                 for run in workload.runs}
            passes.append(result)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= (1 if trace else 2) and elapsed * (rounds + 1) / rounds > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    # property and route checks on the last pass's files; the digests tie
    # every earlier pass to those same bytes
    failures = checks.check_outputs(workload, work)
    first = passes[0]["digests"]
    failed = 0
    for number, result in enumerate(passes):
        for run in workload.runs:
            found = list(failures[run.name])
            if result["codes"][run.name] != 0:
                found.append(f"exit code {result['codes'][run.name]}")
            if result["digests"][run.name] != first[run.name]:
                found.append("CSV bytes differ from the first pass")
            if found:
                failed += 1
                for msg in found:
                    print(f"FAIL pass {number} {run.name}: {msg}", file=sys.stderr)
    check_failed = any(failures.values()) or any(
        r["digests"] != first for r in passes)
    return {"passes": passes, "peak_rss_mb": peak_rss_mb, "failed": failed,
            "attempted": len(passes) * len(workload.runs), "correct": not check_failed}


def p90(values: list) -> float:
    """90th percentile of a run's timings.

    On a shared host the timings mix the usual contended speed with faster
    spells when other tenants idle; runs that fall in such a spell move the
    median by up to a quarter, while the 90th percentile keeps following the
    usual speed (see README.md, "End-to-end metrics").
    """
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload, outcome: dict, setup: list) -> dict:
    plain = [p for p in outcome["passes"] if not p["traced"]]
    wall = p90([p["wall_s"] for p in plain])
    return {
        "setup_s": (p90(setup), "s"),
        "wall_s": (wall, "s"),
        "nodes_per_s": (workload.nodes / wall, "nodes/s"),
        "cpu_s": (p90([p["cpu_s"] for p in plain]), "s"),
        "peak_rss_mb": (outcome["peak_rss_mb"], "MB"),
    }


def per_layer(outcome: dict) -> dict:
    traced = [p for p in outcome["passes"] if p["traced"]]
    plain = [p for p in outcome["passes"] if not p["traced"]]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return {name: (values[name], units[name]) for name, _, _ in spans.PER_LAYER}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    # imported before set-up is timed, so that any bytecode is written first
    from lambda_mb import cli

    setup = measure_setup()
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcome = measure(cli, workload, args.seconds, args.trace == 1, work)
    metrics = per_layer(outcome) if args.trace else end_to_end(workload, outcome, setup)

    env = environment()
    print(f"{workload.name:12s} environment {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:12s} {name:48s} {value:14.6g} {unit}")
    result = {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup, environment=env,
                  passes=[{k: v for k, v in p.items() if k != "digests"} for p in outcome["passes"]])
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own; a table, then all results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="recorded; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    args = parser.parse_args(argv)
    if not (SRC / "lambda_mb" / "cli.py").is_file():
        print(f"error: no lambda_mb sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
