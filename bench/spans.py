"""Spans around the package's public functions, installed from outside it.

``traced(tracer)`` replaces each function named in ``LAYERS`` by a wrapper
in every ``lambda_mb`` module that holds it (so ``from x import f`` bindings
are caught too), and puts the originals back on exit.  A span records its
name, start, end and parent; self time is its duration minus the time of
its child spans.  Spans stay in memory; ``layer_metrics`` turns one pass's
spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "work")

    def __init__(self, name: str, parent: Optional["Span"], start: float):
        self.name, self.parent, self.start = name, parent, start
        self.end = start
        self.child_s = 0.0
        self.work: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[Span] = []

    def wrap(self, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, parent, time.perf_counter())
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            if work is not None:
                span.work = work(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced_call


def _grid_nodes(key: str):
    def count(args, result):
        grid = args[key]
        return {"nodes": grid.n_zeta * grid.n_tau}
    return count


def _solution_nodes(args, result):
    grid = args["solution"].grid if "solution" in args else args["a"].grid
    return {"nodes": grid.n_zeta * grid.n_tau}


def _csv_work(args, result):
    grid = args["sol"].grid
    return {"rows": grid.n_zeta * grid.n_tau, "bytes": args["path"].stat().st_size}


def _dressed_nodes(args, result):
    return {"nodes": result[0].size}


def _slice_steps(args, result):
    return {"tau_steps": args["grid"].n_tau - 1}


#: (module, function, span name, work counter)
LAYERS = (
    ("cli", "run_scenario", "cli.run_scenario", None),
    ("cli", "write_grid_csv", "cli.write_grid_csv", _csv_work),
    ("scenarios", "build_analytic_grid", "scenarios.build_analytic_grid", _grid_nodes("grid")),
    ("scenarios", "build_dressed_grid", "scenarios.build_dressed_grid", _grid_nodes("grid")),
    ("scenarios", "build_numeric_grid", "scenarios.build_numeric_grid", _grid_nodes("grid")),
    ("analytic", "two_soliton", "analytic.fields", None),
    ("analytic", "slow_soliton", "analytic.fields", None),
    ("analytic", "fast_soliton", "analytic.fields", None),
    ("analytic", "zero_background", "analytic.fields", None),
    ("analytic", "exulton", "analytic.fields", None),
    ("analytic", "exulton_k", "analytic.fields", None),
    ("darboux", "dressed_fields_and_state", "darboux.dressed_fields_and_state", _dressed_nodes),
    ("darboux", "verify_seed_or_raise", "darboux.verify_seed_or_raise", None),
    ("mbsolver", "propagate", "mbsolver.propagate", _grid_nodes("grid")),
    ("mbsolver", "maxwell_step", "mbsolver.maxwell_step", None),
    ("mbsolver", "integrate_bloch_slice", "mbsolver.integrate_bloch_slice", _slice_steps),
    ("verify", "audit_density", "verify.audit_density", _solution_nodes),
    ("verify", "pde_residual", "verify.pde_residual", _solution_nodes),
    ("verify", "zero_curvature_residual", "verify.zero_curvature_residual", _solution_nodes),
    ("verify", "compare_solutions", "verify.compare_solutions", _solution_nodes),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every function in LAYERS wherever a lambda_mb module binds it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "lambda_mb" or name.startswith("lambda_mb.")) and m is not None]
    undo = []
    try:
        for module_name, attr, span_name, work in LAYERS:
            original = getattr(sys.modules[f"lambda_mb.{module_name}"], attr)
            wrapper = tracer.wrap(span_name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(undo):
            setattr(module, key, original)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


# (metric, unit, better); the first part of the name up to the last dot is the span
PER_LAYER = (
    ("cli.write_grid_csv.s", "s", "lower"),
    ("cli.write_grid_csv.rows_per_s", "rows/s", "higher"),
    ("cli.write_grid_csv.mb", "MB", "lower"),
    ("verify.audit_density.s", "s", "lower"),
    ("verify.audit_density.nodes_per_s", "nodes/s", "higher"),
    ("verify.pde_residual.s", "s", "lower"),
    ("verify.pde_residual.nodes_per_s", "nodes/s", "higher"),
    ("verify.zero_curvature_residual.calls", "count", "lower"),
    ("verify.zero_curvature_residual.s", "s", "lower"),
    ("verify.compare_solutions.s", "s", "lower"),
    ("scenarios.build_analytic_grid.s", "s", "lower"),
    ("scenarios.build_analytic_grid.self_s", "s", "lower"),
    ("scenarios.build_analytic_grid.nodes_per_s", "nodes/s", "higher"),
    ("analytic.fields.s", "s", "lower"),
    ("scenarios.build_dressed_grid.self_s", "s", "lower"),
    ("darboux.dressed_fields_and_state.s", "s", "lower"),
    ("darboux.dressed_fields_and_state.nodes_per_s", "nodes/s", "higher"),
    ("darboux.verify_seed_or_raise.s", "s", "lower"),
    ("mbsolver.propagate.s", "s", "lower"),
    ("mbsolver.propagate.self_s", "s", "lower"),
    ("mbsolver.maxwell_step.calls", "count", "lower"),
    ("mbsolver.maxwell_step.self_s", "s", "lower"),
    ("mbsolver.integrate_bloch_slice.calls", "count", "lower"),
    ("mbsolver.integrate_bloch_slice.s", "s", "lower"),
    ("mbsolver.integrate_bloch_slice.tau_steps_per_s", "steps/s", "higher"),
    ("scenarios.build_numeric_grid.self_s", "s", "lower"),
    ("cli.run_scenario.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_RATE_WORK = {"rows_per_s": "rows", "nodes_per_s": "nodes", "tau_steps_per_s": "tau_steps"}


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass; the overhead also needs the untraced passes."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        agg = totals.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["calls"] += 1
        agg["self_s"] += span.self_s
        agg["s"] += span.duration
        for key, value in span.work.items():
            agg[key] = agg.get(key, 0) + value
    values = {}
    for metric, _, _ in PER_LAYER:
        span_name, _, kind = metric.rpartition(".")
        if span_name == "trace":
            continue
        agg = totals.get(span_name, {})
        if kind == "mb":
            values[metric] = agg.get("bytes", 0) / 1e6
        elif kind in _RATE_WORK:
            values[metric] = _rate(agg.get(_RATE_WORK[kind], 0), agg.get("s", 0.0))
        else:
            values[metric] = float(agg.get(kind, 0.0))
    return values
