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
import math
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

#: lines per block of the CSV writer, in whole zeta rows
_BLOCK_LINES = 8192


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
            word = raw.strip().lower()
            if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
                raise ValueError("expected true/false, 1/0, yes/no or on/off")
            return word in ("1", "true", "yes", "on")
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
    # a check that cannot pass, or passes by checking nothing, is unusable
    lo, hi = cfg.order_band
    if not lo < hi:
        raise ParseError(f"order_band needs lo < hi, got {lo}; {hi}")
    for key in ("audit_tol", "numeric_audit_tol", "numeric_tol", "field_tol"):
        tol = getattr(cfg, key)
        if tol is not None and not tol > 0:
            raise ParseError(f"{key} must be > 0, got {tol}")
    if cfg.engine in ("analytic", "all") and not cfg.probe_lambdas:
        raise ParseError("probe_lambdas is empty: the zero-curvature check of the "
                         "analytic grid needs at least one probe")
    for lam in cfg.probe_lambdas:
        try:
            dist = abs(lam - cfg.delta)
        except OverflowError:
            dist = math.inf
        if not math.isfinite(dist):
            raise ParseError(f"probe lambda {lam}: |lambda - Delta| overflows a float")
        if dist <= model.POLE_GUARD:
            raise ParseError(f"probe lambda {lam} sits on the Delta = {cfg.delta} pole")
    try:
        sp, grid = cfg.scenario_params(), cfg.grid()
    except (ValueError, LambdaMBError) as exc:
        raise ParseError(str(exc)) from None
    if cfg.engine == "numeric" and scenarios.state_kind(sp.params) == "formal":
        raise ParseError(f"scenario {cfg.scenario!r} refuses the numeric engine at k = {cfg.k} "
                         "(its state is formal)")
    return sp, grid


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


def _modulus(field: np.ndarray) -> np.ndarray:
    """|z| per node as Python's ``abs(z)`` gives it: ``np.hypot`` of the parts.

    numpy's complex ``abs`` is not Python's: it differs in the last bit on
    some nodes.
    """
    if np.iscomplexobj(field):
        with np.errstate(over="ignore"):  # inf where |z| overflows
            return np.hypot(field.real, field.imag)
    return np.abs(field)


def _square(h: float) -> float:
    """Python's ``pow(h, 2)``, the square of an intensity; inf where it overflows."""
    try:
        return pow(h, 2)
    except OverflowError:
        return math.inf


def _fixed_text(column: np.ndarray) -> Optional[str]:
    """The text of a column that holds one float64 bit pattern on every node, else None.

    Bits, not values, are compared, so +0.0, -0.0 and NaN stay distinct. The
    scan goes a few rows at a time and stops at the first that differs.
    """
    bits = column.view(np.uint64)
    first = bits.flat[0]
    if all((bits[i:i + 64] == first).all() for i in range(0, len(bits), 64)):
        return format(float(column.flat[0]), ".12g")
    return None


def _rows_repeat(columns, n_rows: int) -> bool:
    """Whether each (n_rows, n_tau) column holds the bits of its first row on every row.

    Bits are compared as `_fixed_text` compares them; the scan stops at the
    first row that differs.
    """
    bits = [column.view(np.uint64) for column in columns]
    return all(np.array_equal(b[i], b[0]) for i in range(1, n_rows) for b in bits)


def _text_bytes(texts: List[bytes]) -> np.ndarray:
    """(len(texts), width) array of the texts, NUL-padded to the longest."""
    width = max(map(len, texts))
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


def write_grid_csv(path: Path, sol: SolutionGrid):
    """Row-major (zeta outer, tau inner) CSV with 12 significant digits.

    Every value is written as ``format(x, ".12g")`` writes it. The writer
    builds blocks of whole zeta rows, as many as fit in about 8,192 lines
    (one row at least), as NUL-padded byte arrays with one fixed slot per
    cell, and drops the NULs with ``bytes.translate`` before writing. A
    line template built once per grid holds the tau strings and the text of
    every *fixed* column, one float64 bit pattern on every node
    (`_fixed_text`); each block copies it and writes its zeta strings. Each
    *live* column goes through `g12.write_slots`, which writes the text of every
    value whose 12-digit rounding it can certify, and ``format`` writes the
    rest into the same slots. The intensities Ia and Ib are the text of
    ``pow(h, 2)`` on Python floats, with h = |z| as Python's ``abs`` gives it
    (`_modulus`); numpy's square of h differs from it in the last bit on
    some nodes, which can flip the 12th digit, so the kernel certifies h*h
    with a margin that covers one ulp and ``format`` writes ``pow(h, 2)``
    wherever it does not. An intensity that overflows is inf. An intensity
    column is fixed when both parts of its field are. When every live column
    repeats its first row on every zeta row (`_rows_repeat`, as on a grid
    that does not depend on zeta), the lines of one row are built once and
    each zeta row joins its zeta string into them.
    """
    # imported here, so that a run that writes no CSV (--check) never builds its tables
    from . import g12

    grid = sol.grid
    fields = (sol.omega_a, sol.omega_b)
    # (text, column, field) of re_Oa .. P3 in CSV order: a fixed column has its
    # text, a live part its column, a live intensity its field; a real field's
    # imaginary part is the text 0 (its .imag would be a grid of zeros)
    cells = []
    for f in fields:
        if np.iscomplexobj(f):
            cells += [(_fixed_text(part), part, None) for part in (f.real, f.imag)]
        else:
            part = np.asarray(f, dtype=float)
            cells += [(_fixed_text(part), part, None), ("0", None, None)]
    for f, (re_text, _, _), (im_text, _, _) in zip(fields, cells[0::2], cells[1::2]):
        if re_text is None or im_text is None:
            cells.append((None, None, f))
        else:
            cells.append((format(_square(float(_modulus(f.reshape(-1)[:1])[0])), ".12g"), None, None))
    if sol.populations is None:
        cells += [("0", None, None)] * 3
    else:
        pops = np.asarray(sol.populations, dtype=float)
        cells += [(_fixed_text(pops[..., k]), pops[..., k], None) for k in range(3)]

    zeta_texts = [format(z, ".12g").encode() for z in grid.zetas().tolist()]
    zetas = _text_bytes(zeta_texts)
    taus = _text_bytes([format(t, ".12g").encode() for t in grid.taus().tolist()])
    # line layout: zeta slot, ',', tau slot, then each cell; a live cell is a
    # g12 slot on a word boundary, so a block reads as 64-bit words
    line = bytearray(zetas.shape[1]) + b"," + bytes(taus.shape[1])
    live = []
    for text, column, f in cells:
        if text is None:
            line += bytes(-len(line) % 8)
            live.append((len(line) // 8, column, f))
            line += bytes(g12.SLOT)
        else:
            line += ("," + text).encode()
    line += b"\n" + bytes(-(len(line) + 1) % 8)
    template = np.tile(np.frombuffer(line, dtype=np.uint8), (grid.n_tau, 1))
    tau_start = zetas.shape[1] + 1
    template[:, tau_start:tau_start + taus.shape[1]] = taus

    def block(z0: int, z1: int, with_zeta: bool) -> bytearray:
        buf = bytearray(template.size * (z1 - z0))
        lines = np.frombuffer(buf, dtype=np.uint8).reshape(z1 - z0, grid.n_tau, -1)
        lines[...] = template
        if with_zeta:
            lines[:, :, :zetas.shape[1]] = zetas[z0:z1, None, :]
        words = lines.reshape(-1, template.shape[1]).view(g12.WORD)
        for slot, column, f in live:
            if f is None:
                values = exact = column[z0:z1].reshape(-1)
            else:
                exact = _modulus(f[z0:z1]).reshape(-1)
                with np.errstate(over="ignore"):
                    values = exact * exact
            fallback = g12.write_slots(values, words[:, slot:slot + 3])
            if fallback.size:
                xs = exact[fallback].tolist()
                if f is not None:
                    xs = map(_square, xs)
                words[fallback, slot:slot + 3] = g12.text_slots([format(x, ".12g") for x in xs])
        return buf.translate(None, b"\0")

    with path.open("wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        # an intensity repeats where both parts of its field do
        if _rows_repeat([column for _, column, f in live if f is None], grid.n_zeta):
            lines = [b""] + block(0, 1, with_zeta=False).splitlines(keepends=True)
            for z in zeta_texts:
                fh.write(z.join(lines))
        else:
            rows = max(1, _BLOCK_LINES // grid.n_tau)
            for z0 in range(0, grid.n_zeta, rows):
                fh.write(block(z0, min(z0 + rows, grid.n_zeta), with_zeta=True))


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
        # a numeric grid holds no state, so the fields are compared
        rep = verify.compare_solutions(grids["analytic"], grids["numeric"])
        rep.name = "compare[numeric vs analytic]"
        reports.append(rep)
        if not (rep.max_abs <= cfg.numeric_tol * scale):
            failures.append(
                f"numeric vs analytic: {rep.max_abs:.2e} > {cfg.numeric_tol:.0e} * {scale:.2f}"
            )

    if "analytic" in grids:
        # residual convergence runs on a capped lattice over the same domain
        # so high-resolution output grids do not inflate the check cost; the
        # pass reads both check lattices from the closed form in blocks of
        # zeta rows, so none is stored
        check_grid = GridSpec(
            grid.tau_min, grid.tau_max, min(grid.n_tau, 161),
            grid.zeta_min, grid.zeta_max, min(grid.n_zeta, 161),
        )

        def closed_form_reports(lattice):
            rows = scenarios.closed_form_rows(sp, lattice)
            return verify.lattice_residual_reports(lattice, rows, sp.params, cfg.probe_lambdas)

        coarse = closed_form_reports(check_grid)
        fine = closed_form_reports(check_grid.refined())
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


def run_scenario(cfg: ScenarioConfig, check_only: bool = False) -> int:
    """Execute one configured run; returns the process exit code."""
    sp, grid = _validate(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    engines = [cfg.engine] if cfg.engine != "all" else ["analytic", "dressing", "numeric"]
    if scenarios.state_kind(sp.params) == "formal" and "numeric" in engines:
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
    except (ParseError, OSError, KeyError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return run_scenario(cfg, check_only=args.check)
    except LambdaMBError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
