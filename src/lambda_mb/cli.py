"""Scenario-driven command line front end.

Configs are flat ``key = value`` text with ``#`` comments; every omitted
physical parameter defaults to the standard two-soliton set.  Each run
writes per-engine grid CSVs, a residual report and a manifest that echoes
every input (the manifest itself parses back into the identical config).
Exit codes: 0 all configured checks passed, 1 check failure or engine
error, 2 unusable config.
"""

from __future__ import annotations

import argparse
import cmath
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import analytic, model, scenarios, verify
from .errors import LambdaMBError, ParseError
from .mbsolver import GridSpec, SolutionGrid
from .scenarios import DEFAULT_PROBES

CSV_HEADER = "zeta,tau,re_Oa,im_Oa,re_Ob,im_Ob,Ia,Ib,P1,P2,P3"

ENGINES = ("analytic", "dressing", "numeric", "all")


@dataclass
class ScenarioConfig:
    """Everything one run needs, expressible as flat key = value text."""

    scenario: str = "two_soliton"
    engine: str = "all"
    out: str = "out"
    nu0: float = 3.0
    delta: float = 0.0
    omega0: float = 1.0
    eta: float = 0.0
    k: float = 0.0
    eps0: float = 2.0
    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.0
    c1: Optional[float] = None
    c2: Optional[float] = None
    c3: Optional[float] = None
    tau_min: float = -20.0
    tau_max: float = 20.0
    n_tau: int = 401
    zeta_min: float = 0.0
    zeta_max: float = 8.0
    n_zeta: int = 161
    probe_lambdas: Tuple[complex, ...] = DEFAULT_PROBES
    field_tol: Optional[float] = None
    numeric_tol: float = 1e-3
    audit_tol: float = 1e-8
    # numerically propagated states carry discretization-level eigenvalue
    # excursions; exact-route grids are still held to audit_tol
    numeric_audit_tol: float = 1e-6
    order_band: Tuple[float, float] = (1.8, 2.2)
    quiet: bool = False

    def grid(self) -> GridSpec:
        return GridSpec(self.tau_min, self.tau_max, self.n_tau,
                        self.zeta_min, self.zeta_max, self.n_zeta)

    def scenario_params(self) -> analytic.ScenarioParams:
        c = None
        if self.c1 is not None or self.c2 is not None or self.c3 is not None:
            c = (self.c1 or 0.0, self.c2 or 0.0, self.c3 or 0.0)
        return scenarios.make_scenario(
            self.scenario, nu0=self.nu0, delta=self.delta, omega0=self.omega0,
            eps0=self.eps0, eta=self.eta, k=self.k,
            a=(self.a1, self.a2, self.a3), c=c,
        )


_FIELD_TYPES = {f.name: f for f in dc_fields(ScenarioConfig)}


def _parse_value(key: str, raw: str, line_no: int, col: int):
    f = _FIELD_TYPES[key]
    try:
        if key == "probe_lambdas":
            return tuple(complex(tok.strip().replace("i", "j")) for tok in raw.split(";") if tok.strip())
        if key == "order_band":
            lo, hi = (float(t) for t in raw.split(";"))
            return (lo, hi)
        if key == "quiet":
            return raw.strip().lower() in ("1", "true", "yes", "on")
        if key in ("scenario", "engine", "out"):
            return raw.strip()
        if key in ("n_tau", "n_zeta"):
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"bad value for {key}: {raw!r} ({exc})", line_no, col)


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat key = value text; unknown keys and bad values are rejected."""
    cfg = ScenarioConfig()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line_no, 1)
        key, _, value = line.partition("=")
        col = len(key) + 2
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ParseError(f"unknown key {key!r}", line_no, 1)
        setattr(cfg, key, _parse_value(key, value.strip(), line_no, col))
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig):
    """Raise ParseError on an unusable config; return the (ScenarioParams, GridSpec) it makes."""
    if cfg.scenario not in scenarios.REGISTRY:
        raise ParseError(f"unknown scenario {cfg.scenario!r} (canned tags go through --scenario)")
    if cfg.engine not in ENGINES:
        raise ParseError(f"unknown engine {cfg.engine!r}")
    if cfg.engine == "numeric" and scenarios.REGISTRY[cfg.scenario].boundary is None:
        raise ParseError(f"scenario {cfg.scenario!r} refuses the numeric engine")
    if cfg.engine in ("analytic", "all") and cfg.n_zeta < 3:
        raise ParseError(f"the residual checks of the analytic grid need n_zeta >= 3, "
                         f"got {cfg.n_zeta}")
    # the manifest echoes out as one key = value line, which must parse back
    if "#" in cfg.out or cfg.out.strip() != cfg.out or cfg.out.splitlines() != [cfg.out]:
        raise ParseError(f"out must be one non-empty line without '#' or surrounding "
                         f"whitespace, got {cfg.out!r}")
    for f in dc_fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        numbers = value if isinstance(value, tuple) else (value,)
        if any(isinstance(x, (float, complex)) and not cmath.isfinite(x) for x in numbers):
            raise ParseError(f"{f.name} must be finite, got {value}")
    for lam in cfg.probe_lambdas:
        if abs(lam - cfg.delta) <= model.POLE_GUARD:
            raise ParseError(f"probe lambda {lam} sits on the Delta = {cfg.delta} pole")
    try:
        return cfg.scenario_params(), cfg.grid()
    except (ValueError, LambdaMBError) as exc:
        raise ParseError(str(exc)) from None


def apply_canned(cfg: ScenarioConfig, tag: str):
    """Copy a canned entry (scenario, parameters, lattice) onto cfg."""
    if tag not in scenarios.CANNED:
        raise KeyError(f"unknown canned scenario {tag!r}; have {sorted(scenarios.CANNED)}")
    for key, value in scenarios.CANNED[tag].items():
        if key == "name":
            cfg.scenario = value
        elif key == "grid":
            for f in dc_fields(value):
                setattr(cfg, f.name, getattr(value, f.name))
        elif key in ("a", "c"):
            for i, v in enumerate(value, start=1):
                setattr(cfg, f"{key}{i}", v)
        else:
            setattr(cfg, key, value)


def emit_manifest(cfg: ScenarioConfig, extra: Optional[dict] = None) -> str:
    """Render the config (plus derived run facts) as parseable key = value text."""
    lines = []
    for f in dc_fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        if v is None:
            continue
        if f.name == "probe_lambdas":
            v = "; ".join(str(x) for x in v)
        elif f.name == "order_band":
            v = f"{v[0]}; {v[1]}"
        elif f.name == "quiet":
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    text = "\n".join(lines) + "\n"
    if extra:
        text += "".join(f"# {k} = {v}\n" for k, v in sorted(extra.items()))
    return text


def _intensities(row: np.ndarray) -> list:
    """|z|² per node, computed as ``abs(z) ** 2`` on scalars."""
    try:
        return [abs(x) ** 2 for x in row.tolist()]
    except OverflowError:
        # Python floats raise where numpy scalars overflow to inf
        return [abs(x) ** 2 for x in row]


def write_grid_csv(path: Path, sol: SolutionGrid):
    """Row-major (zeta outer, tau inner) CSV with 12 significant digits.

    Each zeta row is one ``%``-format call over an (n_tau, 11) float64
    block; ``%.12g`` and ``format(x, ".12g")`` share CPython's float
    repr, so the bytes equal a per-value writer's. The intensities Ia and
    Ib are Python's ``abs(z) ** 2`` on Python scalars, not ``np.abs(f)
    ** 2``: numpy's vectorized modulus and square differ in the last bit
    on some nodes, and that can flip the 12th digit (|Oa|² at Oa =
    -1.011271921149302 is written 1.0226708985, numpy's square gives
    1.02267089851).
    """
    zetas, taus = sol.grid.zetas(), sol.grid.taus()
    n_tau = sol.grid.n_tau
    block = np.zeros((n_tau, len(CSV_HEADER.split(","))))
    block[:, 1] = taus
    fmt = (",".join(["%.12g"] * block.shape[1]) + "\n") * n_tau
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for i, z in enumerate(zetas):
            oa, ob = sol.omega_a[i], sol.omega_b[i]
            block[:, 0] = z
            block[:, 2], block[:, 3] = oa.real, oa.imag
            block[:, 4], block[:, 5] = ob.real, ob.imag
            block[:, 6] = _intensities(oa)
            block[:, 7] = _intensities(ob)
            if sol.populations is not None:
                block[:, 8:] = sol.populations[i]
            fh.write(fmt % tuple(block.ravel().tolist()))


def _say(cfg, msg):
    if not cfg.quiet:
        print(msg)


def _run_checks(cfg: ScenarioConfig, sp, grid, grids: dict):
    """Configured verification for one run: (failure list, report list)."""
    failures: List[str] = []
    reports: List[verify.ResidualReport] = []
    if not grids:
        failures.append("no grid was built")

    for name, sol in grids.items():
        rep = verify.audit_density(sol)
        reports.append(rep)
        tol = cfg.audit_tol if name != "numeric" else max(cfg.audit_tol, cfg.numeric_audit_tol)
        if not (rep.max_abs <= tol):
            failures.append(f"audit[{name}]: {rep.max_abs:.2e} > {tol:.0e}")

    if "analytic" in grids and "dressing" in grids:
        default_tol = scenarios.REGISTRY[sp.scenario].field_tol
        tol = cfg.field_tol if cfg.field_tol is not None else default_tol
        rep = verify.compare_solutions(grids["analytic"], grids["dressing"])
        rep.name = "compare[analytic vs dressing]"
        reports.append(rep)
        if not (rep.max_abs <= tol):
            failures.append(f"analytic vs dressing: {rep.max_abs:.2e} > {tol:.0e}")

    if "numeric" in grids and "analytic" in grids:
        scale = float(np.max(np.abs(grids["analytic"].omega_a)))
        rep = verify.compare_solutions(
            _fields_only(grids["analytic"]), _fields_only(grids["numeric"])
        )
        rep.name = "compare[numeric vs analytic]"
        reports.append(rep)
        if not (rep.max_abs <= cfg.numeric_tol * scale):
            failures.append(
                f"numeric vs analytic: {rep.max_abs:.2e} > {cfg.numeric_tol:.0e} * {scale:.2f}"
            )

    if "analytic" in grids:
        # residual convergence runs on a capped lattice over the same domain
        # so high-resolution output grids do not inflate the check cost
        check_grid = GridSpec(
            grid.tau_min, grid.tau_max, min(grid.n_tau, 161),
            grid.zeta_min, grid.zeta_max, min(grid.n_zeta, 161),
        )
        coarse_grid = (grids["analytic"] if check_grid == grid
                       else scenarios.build_analytic_grid(sp, check_grid))
        coarse = verify.residual_reports(coarse_grid, sp.params, cfg.probe_lambdas)
        fine = verify.residual_reports(scenarios.build_analytic_grid(sp, check_grid.refined()),
                                       sp.params, cfg.probe_lambdas)
        lo, hi = cfg.order_band
        for rc, rf in zip(coarse, fine):
            if rc.max_abs < 1e-12 and rf.max_abs < 1e-12:
                reports.append(rc)  # exact stationary solution
                continue
            order = verify.convergence_order(rc, rf)
            rc.convergence_order = order
            reports.append(rc)
            if not (lo <= order <= hi):
                failures.append(f"{rc.name}: convergence order {order:.2f} outside [{lo}, {hi}]")

    return failures, reports


def _fields_only(sol: SolutionGrid) -> SolutionGrid:
    return SolutionGrid(grid=sol.grid, omega_a=sol.omega_a, omega_b=sol.omega_b,
                        rho=None, populations=sol.populations,
                        state_kind="none", meta=dict(sol.meta))


def run_scenario(cfg: ScenarioConfig, check_only: bool = False) -> int:
    """Execute one configured run; returns the process exit code."""
    sp, grid = _validate(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    engines = [cfg.engine] if cfg.engine != "all" else ["analytic", "dressing", "numeric"]
    if scenarios.REGISTRY[sp.scenario].boundary is None and "numeric" in engines:
        engines.remove("numeric")  # only under "all": _validate rejects an explicit request
        _say(cfg, f"note: numeric engine skipped for {sp.scenario} (direct propagation refused)")
    grids = {}
    for eng in engines:
        _say(cfg, f"building {eng} grid for scenario {sp.scenario}")
        if eng == "analytic":
            grids[eng] = scenarios.build_analytic_grid(sp, grid)
        elif eng == "dressing":
            grids[eng] = scenarios.build_dressed_grid(sp, grid)
        else:
            grids[eng] = scenarios.build_numeric_grid(sp, grid)

    if not check_only:
        for eng, sol in grids.items():
            path = out / f"grid_{eng}.csv"
            write_grid_csv(path, sol)
            _say(cfg, f"wrote {path}")

    failures, reports = _run_checks(cfg, sp, grid, grids)

    manifest_extra = {"scenario_resolved": sp.scenario}
    if sp.soliton is not None:
        c = sp.dress_constants()
        manifest_extra["soliton_constants_a"] = f"({sp.soliton.a1}, {sp.soliton.a2}, {sp.soliton.a3})"
        manifest_extra["dress_constants_c"] = f"({c.c1:.12g}, {c.c2:.12g}, {c.c3:.12g})"
        manifest_extra["constants_convention"] = (
            "c obtained from a via the soliton-constant mapping; the inverse map "
            "recovers a from c wherever eps0 > omega0"
        )
    (out / "manifest.txt").write_text(emit_manifest(cfg, manifest_extra), encoding="utf-8")

    report_text = "\n\n".join(r.as_text() for r in reports)
    verdict = "PASS" if not failures else "FAIL:\n" + "\n".join(f"  - {f}" for f in failures)
    (out / "residual_report.txt").write_text(report_text + f"\n\nverdict: {verdict}\n",
                                             encoding="utf-8")
    for line in report_text.splitlines():
        _say(cfg, "  " + line)
    _say(cfg, f"verdict: {verdict}")
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lambda-mb",
        description="exactly solvable three-level field-matter scenarios: "
                    "closed forms, dressing engine, direct solver, cross-checks",
    )
    parser.add_argument("config", nargs="?", help="path to a key = value config file")
    parser.add_argument("--scenario", help="canned scenario tag "
                        f"({', '.join(sorted(scenarios.CANNED))})")
    parser.add_argument("--engine", choices=ENGINES, help="override the engine selection")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--check", action="store_true", help="verification only, no CSVs")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
        else:
            cfg = ScenarioConfig()
        if args.scenario:
            apply_canned(cfg, args.scenario)
            cfg.out = f"out_{args.scenario}"
        if args.engine:
            cfg.engine = args.engine
        if args.out:
            cfg.out = args.out
        if args.quiet:
            cfg.quiet = True
        _validate(cfg)  # the overrides above are applied after parsing
    except (ParseError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return run_scenario(cfg, check_only=args.check)
    except LambdaMBError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
