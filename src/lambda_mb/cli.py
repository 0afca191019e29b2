"""Scenario-driven command line front end.

Configs are flat ``key = value`` text with ``#`` comments; every omitted
physical parameter defaults to the standard two-soliton set.  Each run
writes per-engine grid CSVs, a residual report and a manifest that echoes
every input (the manifest itself parses back into the identical config).
Exit codes: 0 all configured checks passed, 1 check failure or engine
error, 2 unusable config or an output that cannot be written.

A run holds no whole grid.  Each route is read once, engine by engine,
from its row source in the blocks of GridSpec.blocks(): the CSV writer
writes each block, and the same block feeds the route's density audit
and its compare with the closed form, whose rows the compare evaluates
again block by block.  The analytic route's blocks also feed the
residual checks, on the output lattice and on its even rows and columns.
The numeric route's pass runs inside mbsolver.propagate, as its consumer.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import algebra, analytic, mbsolver, scenarios, verify
from .errors import LambdaMBError, ParseError
from .mbsolver import GridSpec, RowSource, Rows

CSV_HEADER = "zeta,tau,re_Oa,im_Oa,re_Ob,im_Ob,Ia,Ib,P1,P2,P3"

#: the three routes, in the order a run reads them; engine "all" reads every one
ROUTES = ("analytic", "dressing", "numeric")
ENGINES = ROUTES + ("all",)


@dataclass
class ScenarioConfig:
    """Everything one run needs, expressible as flat key = value text."""

    scenario: str = "two_soliton"
    engine: str = "all"
    out: str = "out"
    nu0: float = 3.0
    delta: float = 0.0
    omega0: float = 1.0
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
    numeric_tol: float = 1e-3
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
            eps0=self.eps0, k=self.k,
            a=(self.a1, self.a2, self.a3), c=c,
        )


_FIELD_TYPES = {f.name: f for f in dc_fields(ScenarioConfig)}


def _parse_value(key: str, raw: str, line_no: int, col: int):
    """raw read as the type ScenarioConfig declares for key (a string: the annotations are lazy)."""
    kind = _FIELD_TYPES[key].type
    try:
        if kind == "bool":
            word = raw.strip().lower()
            if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
                raise ValueError("expected true/false, 1/0, yes/no or on/off")
            return word in ("1", "true", "yes", "on")
        if kind == "str":
            return raw.strip()
        if kind == "int":
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"bad value for {key}: {raw!r} ({exc})", line_no, col)


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat key = value text; unknown keys, repeated keys and bad values are rejected."""
    cfg = ScenarioConfig()
    seen = {}
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
        if key in seen:
            raise ParseError(f"key {key!r} given twice, on lines {seen[key]} and {line_no}",
                             line_no, 1)
        seen[key] = line_no
        setattr(cfg, key, _parse_value(key, value.strip(), line_no, col))
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig):
    """Raise ParseError on an unusable config; return the (ScenarioParams, GridSpec) it makes."""
    if cfg.scenario not in scenarios.REGISTRY:
        raise ParseError(f"unknown scenario {cfg.scenario!r} (canned tags go through --scenario)")
    if cfg.engine not in ENGINES:
        raise ParseError(f"unknown engine {cfg.engine!r}")
    counts = (cfg.n_tau, cfg.n_zeta)
    if cfg.engine in ("analytic", "all") and not all(n >= 5 and n % 2 for n in counts):
        raise ParseError(f"the residual checks read the analytic grid and every other node of "
                         f"it, so need odd n_tau and n_zeta >= 5, got {counts}")
    # the manifest echoes out as one key = value line, which must parse back
    if "#" in cfg.out or cfg.out.strip() != cfg.out or cfg.out.splitlines() != [cfg.out]:
        raise ParseError(f"out must be one non-empty line without '#' or surrounding "
                         f"whitespace, got {cfg.out!r}")
    for f in dc_fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ParseError(f"{f.name} must be finite, got {value}")
    # a gate that cannot pass is unusable
    if not cfg.numeric_tol > 0:
        raise ParseError(f"numeric_tol must be > 0, got {cfg.numeric_tol}")
    try:
        sp, grid = cfg.scenario_params(), cfg.grid()
    except (ValueError, LambdaMBError) as exc:
        raise ParseError(str(exc)) from None
    except OverflowError as exc:
        raise ParseError(f"the parameters overflow the arithmetic ({exc})") from None
    if cfg.engine == "numeric" and scenarios.state_kind(sp.params) == "formal":
        raise ParseError(f"scenario {cfg.scenario!r} refuses the numeric engine at k = {cfg.k} "
                         "(its state is formal)")
    return sp, grid


def apply_canned(cfg: ScenarioConfig, tag: str):
    """Copy a canned entry (scenario, parameters, lattice) onto cfg."""
    if tag not in scenarios.CANNED:
        raise ParseError(f"unknown canned scenario {tag!r}; have {sorted(scenarios.CANNED)}")
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
        if f.type == "bool":
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    text = "\n".join(lines) + "\n"
    if extra:
        text += "".join(f"# {k} = {v}\n" for k, v in sorted(extra.items()))
    return text


def _modulus(field: np.ndarray) -> np.ndarray:
    """|z| per node as Python's ``abs(z)`` gives it: ``np.hypot`` of the parts.

    numpy's complex ``abs`` is not Python's: it differs in the last bit on
    some nodes. A real field's imaginary part is 0, and hypot(x, 0) is
    exactly |x|.
    """
    with np.errstate(over="ignore"):  # inf where |z| overflows
        return np.hypot(field.real, field.imag)


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


def write_grid_csv(path: Path, sol):
    """Row-major (zeta outer, tau inner) CSV with 12 significant digits.

    sol is a row source (see mbsolver), whose rows the writer asks for in
    the blocks of grid.blocks(), once each and in order, writing each
    block before it asks for the next. Every value is written as
    ``format(x, ".12g")`` writes it; see _csv_block for how.
    """
    grid = sol.grid
    zeta_texts = [format(z, ".12g").encode() for z in grid.zetas().tolist()]
    zetas = _text_bytes(zeta_texts)
    taus = _text_bytes([format(t, ".12g").encode() for t in grid.taus().tolist()])
    with path.open("wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for z0, z1 in grid.blocks():
            fh.write(_csv_block(sol.rows(z0, z1), zetas[z0:z1], zeta_texts[z0:z1], taus))


def _csv_block(block: Rows, zetas: np.ndarray, zeta_texts: List[bytes], taus: np.ndarray) -> bytes:
    """The CSV lines of one block of zeta rows; zetas and zeta_texts are its rows' zeta texts.

    The lines are built as NUL-padded byte arrays with one fixed slot per
    cell, and the NULs are dropped with ``bytes.translate``. A line
    template built once per block holds the tau strings and the text of
    every *fixed* column, one float64 bit pattern on every node of the
    block (`_fixed_text`); that text is the text of each of its values.
    The block copies the template and writes its zeta strings. Each *live*
    column goes through `g12.write_slots`, which writes the text of every
    value whose 12-digit rounding it can certify, and ``format`` writes
    the rest into the same slots. The intensities Ia and Ib are the text
    of ``pow(h, 2)`` on Python floats, with h = |z| as Python's ``abs``
    gives it (`_modulus`); numpy's square of h differs from it in the last
    bit on some nodes, which can flip the 12th digit, so the kernel
    certifies h*h with a margin that covers one ulp and ``format`` writes
    ``pow(h, 2)`` wherever it does not. An intensity that overflows is
    inf. An intensity column is fixed when both parts of its field are.
    When every live column repeats its first row on every row of the
    block (`_rows_repeat`, as on a grid that does not depend on zeta), the
    lines of one row are built once and each zeta row joins its zeta
    string into them.
    """
    # imported here, so that a run that writes no CSV (--check) never builds its tables
    from . import g12

    n_rows, n_tau = block.omega_a.shape
    fields = (block.omega_a, block.omega_b)
    # (text, column, field) of re_Oa .. P3 in CSV order: a fixed column has its
    # text, a live part its column, a live intensity its field; a real field's
    # .imag is a block of zeros, whose text is 0
    cells = []
    for f in fields:
        cells += [(_fixed_text(part), part, None) for part in (f.real, f.imag)]
    for f, (re_text, _, _), (im_text, _, _) in zip(fields, cells[0::2], cells[1::2]):
        if re_text is None or im_text is None:
            cells.append((None, None, f))
        else:
            cells.append((format(_square(float(_modulus(f.reshape(-1)[:1])[0])), ".12g"), None, None))
    for k in range(3):  # P1 .. P3, the real parts of the state's diagonal rows
        column = block.rho[k, k].real
        cells.append((_fixed_text(column), column, None))

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
    template = np.tile(np.frombuffer(line, dtype=np.uint8), (n_tau, 1))
    tau_start = zetas.shape[1] + 1
    template[:, tau_start:tau_start + taus.shape[1]] = taus

    def lines(n: int, with_zeta: bool) -> bytearray:
        buf = bytearray(template.size * n)
        out = np.frombuffer(buf, dtype=np.uint8).reshape(n, n_tau, -1)
        out[...] = template
        if with_zeta:
            out[:, :, :zetas.shape[1]] = zetas[:, None, :]
        words = out.reshape(-1, template.shape[1]).view(g12.WORD)
        for slot, column, f in live:
            if f is None:
                values = exact = column[:n].reshape(-1)
            else:
                exact = _modulus(f[:n]).reshape(-1)
                with np.errstate(over="ignore"):
                    values = exact * exact
            fallback = g12.write_slots(values, words[:, slot:slot + 3])
            if fallback.size:
                xs = exact[fallback].tolist()
                if f is not None:
                    xs = map(_square, xs)
                words[fallback, slot:slot + 3] = g12.text_slots([format(x, ".12g") for x in xs])
        return buf.translate(None, b"\0")

    # an intensity repeats where both parts of its field do
    if _rows_repeat([column for _, column, f in live if f is None], n_rows):
        row = [b""] + lines(1, with_zeta=False).splitlines(keepends=True)
        return b"".join(z.join(row) for z in zeta_texts)
    return lines(n_rows, with_zeta=True)


def _say(cfg, msg):
    if not cfg.quiet:
        print(msg)


class _Checks:
    """The density audits and cross-route compares of one run, folded block by block.

    watch(eng, source) wraps a route's row source so that each block it
    returns also feeds the folds: an exact route's state figures
    (algebra.state_figures, folded by algebra.worse_figures), the analytic
    route's max |Omega_a| (the numeric_tol scale) and its residual folds
    (the block, and the coarse lattice's: its rows of even global index and
    even columns, as strided views), and the compare of a dressing or
    numeric block with the closed form's same rows, evaluated again for it:
    fields and state for the dressing route, the fields alone for the
    solver, whose state is not compared. The numeric route's
    figures are the solver's own, which the run stores in figures after
    its pass, so no slice is audited twice.
    """

    def __init__(self, sp, grid: GridSpec, engines):
        self.grid, self.kind = grid, scenarios.state_kind(sp.params)
        self.figures = {}
        self.scale = np.float64(0.0)
        self.compares = {eng: verify.CompareFold() for eng in ("dressing", "numeric")
                         if eng in engines and "analytic" in engines}
        sources = {"dressing": scenarios.closed_form_rows,
                   "numeric": scenarios.closed_form_field_rows}
        self.closed_form = {eng: sources[eng](sp, grid) for eng in self.compares}
        if "analytic" in engines:
            self.residuals = [verify.ResidualFold(lattice, sp.params, scenarios.DEFAULT_PROBES)
                              for lattice in (grid.coarse(), grid)]

    def watch(self, eng: str, source) -> RowSource:
        def watched(z0: int, z1: int) -> Rows:
            block = source.rows(z0, z1)
            if eng != "numeric":
                self.figures[eng] = algebra.worse_figures(
                    self.figures.get(eng), algebra.state_figures(block.rho, self.kind))
            if eng == "analytic":
                self.scale = np.maximum(self.scale, np.max(np.abs(block.omega_a)))
                coarse, fine = self.residuals
                r = z0 % 2
                coarse.add(Rows(coarse.grid, block.omega_a[r::2, ::2], block.omega_b[r::2, ::2],
                                block.rho[..., r::2, ::2]))
                fine.add(block)
            if eng in self.compares:
                self.compares[eng].add(self.closed_form[eng].rows(z0, z1), block)
            return block
        return RowSource(self.grid, watched)


#: density-audit tolerance of an exact route's state
AUDIT_TOL = 1e-8
#: the solver's states carry discretization-level eigenvalue excursions
NUMERIC_AUDIT_TOL = 1e-6
#: the band the residuals' observed convergence order must lie in
ORDER_BAND = (1.8, 2.2)


def _run_checks(cfg: ScenarioConfig, sp, grid, checks: _Checks):
    """Verification for one run, from its folds: (failure list, report list).

    The gates are fixed: AUDIT_TOL and NUMERIC_AUDIT_TOL, the record's
    field_tol (scenarios.REGISTRY), the config's numeric_tol times the
    analytic grid's max |Omega_a|, and ORDER_BAND for the residuals at
    scenarios.DEFAULT_PROBES.
    """
    failures: List[str] = []
    reports: List[verify.ResidualReport] = []
    if not checks.figures:
        failures.append("no grid was built")

    for name, figures in checks.figures.items():
        kind = "density" if name == "numeric" else checks.kind
        rep = verify.audit_report(figures, kind, grid)
        reports.append(rep)
        tol = AUDIT_TOL if name != "numeric" else NUMERIC_AUDIT_TOL
        if not (rep.max_abs <= tol):
            failures.append(f"audit[{name}]: {rep.max_abs:.2e} > {tol:.0e}")

    if "dressing" in checks.compares:
        tol = scenarios.REGISTRY[sp.scenario].field_tol
        rep = checks.compares["dressing"].report("compare[analytic vs dressing]")
        reports.append(rep)
        if not (rep.max_abs <= tol):
            failures.append(f"analytic vs dressing: {rep.max_abs:.2e} > {tol:.0e}")

    if "numeric" in checks.compares:
        scale = float(checks.scale)
        rep = checks.compares["numeric"].report("compare[numeric vs analytic]")
        reports.append(rep)
        if not (rep.max_abs <= cfg.numeric_tol * scale):
            failures.append(
                f"numeric vs analytic: {rep.max_abs:.2e} > {cfg.numeric_tol:.0e} * {scale:.2f}"
            )

    if "analytic" in checks.figures:
        # the output grid's residuals, with their order against its coarse lattice's
        coarse, fine = (fold.report() for fold in checks.residuals)
        lo, hi = ORDER_BAND
        for rc, rf in zip(coarse, fine):
            reports.append(rf)
            if rc.max_abs < 1e-12 and rf.max_abs < 1e-12:
                continue  # exact stationary solution
            rf.convergence_order = order = verify.convergence_order(rc, rf)
            if not (lo <= order <= hi):
                failures.append(f"{rf.name}: convergence order {order:.2f} outside [{lo}, {hi}]")

    return failures, reports


def run_scenario(cfg: ScenarioConfig, check_only: bool = False) -> int:
    """Execute one configured run; returns the process exit code.

    ParseError on an unusable config, an out that cannot be a directory
    included; OSError on an output that cannot be written.  The manifest
    is written before any route is read, and the residual report last.
    """
    sp, grid = _validate(cfg)
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ParseError(f"out {cfg.out!r} cannot be a directory ({exc})") from None

    # the manifest first, and no earlier run's report or grids: a run that
    # fails on the way leaves its own inputs and no verdict beside its
    # outputs, and every CSV beside a manifest is that run's
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
    for name in ["residual_report.txt"] + [f"grid_{eng}.csv" for eng in ROUTES]:
        (out / name).unlink(missing_ok=True)

    engines = [cfg.engine] if cfg.engine != "all" else list(ROUTES)
    if scenarios.state_kind(sp.params) == "formal" and "numeric" in engines:
        engines.remove("numeric")  # only under "all": _validate rejects an explicit request
        _say(cfg, f"note: numeric engine skipped for {sp.scenario} (direct propagation refused)")
    checks = _Checks(sp, grid, engines)

    def read(eng: str, source):
        """One pass over a route's rows: its CSV, or with --check the blocks alone."""
        watched = checks.watch(eng, source)
        if check_only:
            for z0, z1 in grid.blocks():
                watched.rows(z0, z1)
            return
        path = out / f"grid_{eng}.csv"
        write_grid_csv(path, watched)
        _say(cfg, f"wrote {path}")

    def read_numeric(source):
        read("numeric", source)
        return source.figures

    # engine by engine, not all routes in step: each CSV is then one
    # write_grid_csv call and the whole march one propagate call, the spans
    # that bench/spans.py times
    for eng in engines:
        _say(cfg, f"reading the {eng} route for scenario {sp.scenario}")
        if eng == "analytic":
            read(eng, scenarios.closed_form_rows(sp, grid))
        elif eng == "dressing":
            read(eng, scenarios.dressed_rows(sp, grid))
        else:
            checks.figures[eng] = mbsolver.propagate(*scenarios.numeric_entry(sp, grid),
                                                     sp.params, grid, consume=read_numeric)

    failures, reports = _run_checks(cfg, sp, grid, checks)

    report_text = "\n\n".join(r.as_text() for r in reports)
    verdict = "PASS" if not failures else "FAIL:\n" + "\n".join(f"  - {f}" for f in failures)
    (out / "residual_report.txt").write_text(report_text + f"\n\nverdict: {verdict}\n",
                                             encoding="utf-8")
    for line in report_text.splitlines():
        _say(cfg, "  " + line)
    _say(cfg, f"verdict: {verdict}")
    return 0 if not failures else 1


def _keep_freed_heap() -> bool:
    """Tell glibc's malloc never to return the top of the heap to the system.

    A streamed run frees, after every block of rows, the working memory
    that the next block allocates again; by default glibc returns the free
    top of the heap after a block and faults it in again for the next,
    about 26,000 minor faults per exact-check pass of the benchmark.
    M_TRIM_THRESHOLD = -1 turns trimming off, and freezes glibc's dynamic
    mmap threshold wherever the process's history left it, so
    M_MMAP_THRESHOLD is pinned at glibc's 64-bit maximum, 32 MiB. True if
    both calls took; other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    pinned = mallopt(m_mmap_threshold, 32 << 20) == 1
    return mallopt(m_trim_threshold, -1) == 1 and pinned


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
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    _keep_freed_heap()
    try:
        return run_scenario(cfg, check_only=args.check)
    except ParseError as exc:  # run_scenario validates the overridden config
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output in out that cannot be written
        print(f"config error: cannot write the outputs ({exc})", file=sys.stderr)
        return 2
    except (LambdaMBError, OverflowError) as exc:  # an input too large for the arithmetic
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
