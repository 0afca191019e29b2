"""Output checks: properties the method must have, and agreement between routes.

None of these compares against stored bytes of an earlier run.  Every
comparison is written ``not (metric <= tol)`` so that a NaN metric fails.
Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from workloads import FIELD_TOL, NUMERIC_TOL, PROBES, Lattice, Run, Workload

CSV_HEADER = "zeta,tau,re_Oa,im_Oa,re_Ob,im_Ob,Ia,Ib,P1,P2,P3"

#: density-audit tolerances the CLI applies to exact and to numeric grids
AUDIT_TOL = {"analytic": 1e-8, "dressing": 1e-8, "numeric": 1e-6}

#: population tolerances: exact grids, numerically propagated grids
POP_TOL = {"analytic": 1e-9, "dressing": 1e-9, "numeric": 1e-6}

ORDER_BAND = (1.8, 2.2)

#: both residuals below this count as an exact stationary solution
EXACT_RESIDUAL = 1e-12

#: |Ia - (re^2 + im^2)| allowed, relative: three 12-digit roundings
INTENSITY_RTOL = 2e-11


def _exceeds(metric: float, tol: float) -> bool:
    return not (metric <= tol)


# ---------------------------------------------------------------------------
# residual report
# ---------------------------------------------------------------------------

def parse_report(text: str) -> Tuple[List[Dict[str, str]], str]:
    """Check blocks and verdict of a ``residual_report.txt``."""
    blocks, verdict = [], ""
    for chunk in text.strip().split("\n\n"):
        fields = dict(line.split(": ", 1) for line in chunk.splitlines() if ": " in line)
        if "verdict" in fields:
            verdict = fields["verdict"]
        elif "check" in fields:
            blocks.append(fields)
    return blocks, verdict


def _number(block: Dict[str, str], key: str) -> float:
    try:
        return float(block.get(key, "nan"))
    except ValueError:
        return math.nan


def _probe(block: Dict[str, str]) -> complex:
    try:
        return complex(block.get("lambda_probe", "nan"))
    except ValueError:
        return complex(math.nan)


def _complex_key(z: complex):
    return (z.real, z.imag)


def expected_compares(run: Run) -> List[str]:
    names = []
    if "analytic" in run.engines and "dressing" in run.engines:
        names.append("compare[analytic vs dressing]")
    if "analytic" in run.engines and "numeric" in run.engines:
        names.append("compare[numeric vs analytic]")
    return names


def check_report(run: Run, text: str) -> List[str]:
    """PASS verdict, and every check the run's engines call for, within band."""
    fails = []
    blocks, verdict = parse_report(text)
    if verdict != "PASS":
        fails.append(f"verdict is {verdict!r}")
    for block in blocks:
        for key in ("max_abs", "l2"):
            if not math.isfinite(_number(block, key)):
                fails.append(f"{block['check']}: {key} is not finite")

    audits = [b for b in blocks if b["check"].startswith("density_audit")]
    if len(audits) != len(run.engines):
        fails.append(f"{len(audits)} density audits for {len(run.engines)} grids")
    for engine, block in zip(run.engines, audits):
        if _exceeds(_number(block, "max_abs"), AUDIT_TOL[engine]):
            fails.append(f"density audit of {engine}: {block.get('max_abs')}")

    names = [b["check"] for b in blocks]
    for name in expected_compares(run):
        if names.count(name) != 1:
            fails.append(f"{name} listed {names.count(name)} times")
    if "compare[analytic vs dressing]" in names:
        block = blocks[names.index("compare[analytic vs dressing]")]
        if _exceeds(_number(block, "max_abs"), FIELD_TOL[run.scenario]):
            fails.append(f"analytic vs dressing: {block.get('max_abs')}")

    if "analytic" in run.engines:
        residuals = [b for b in blocks if b["check"] in ("pde", "zero_curvature")]
        if names.count("pde") != 1:
            fails.append(f"pde check listed {names.count('pde')} times")
        probes = sorted((_probe(b) for b in residuals if b["check"] == "zero_curvature"),
                        key=_complex_key)
        if probes != sorted(PROBES, key=_complex_key):
            fails.append(f"zero-curvature probes {probes}, expected {list(PROBES)}")
        lo, hi = ORDER_BAND
        for block in residuals:
            if "convergence_order" in block:
                order = _number(block, "convergence_order")
                if not (lo <= order <= hi):
                    fails.append(f"{block['check']}: order {order} outside [{lo}, {hi}]")
            elif _exceeds(_number(block, "max_abs"), EXACT_RESIDUAL):
                fails.append(f"{block['check']}: no convergence order and "
                             f"residual {block.get('max_abs')} is not exact")
    return fails


# ---------------------------------------------------------------------------
# grid CSVs
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> Tuple[str, np.ndarray]:
    """Header line and the (rows, 11) table; raises ValueError if unreadable."""
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def check_csv(lattice: Lattice, engine: str, header: str, data: np.ndarray) -> List[str]:
    """Schema, lattice coordinates, intensities and populations of one grid."""
    if header != CSV_HEADER:
        return [f"header {header!r}"]
    if data.shape != (lattice.nodes, 11):
        return [f"table shaped {data.shape}, expected ({lattice.nodes}, 11)"]
    fails = []
    if not np.all(np.isfinite(data)):
        fails.append(f"{int(np.sum(~np.isfinite(data)))} non-finite values")
    zetas = np.linspace(lattice.zeta_min, lattice.zeta_max, lattice.n_zeta)
    taus = np.linspace(lattice.tau_min, lattice.tau_max, lattice.n_tau)
    for col, expected in ((0, np.repeat(zetas, lattice.n_tau)), (1, np.tile(taus, lattice.n_zeta))):
        span = 1e-11 * max(np.max(np.abs(expected)), 1.0)
        if _exceeds(np.max(np.abs(data[:, col] - expected)), span):
            fails.append(f"{CSV_HEADER.split(',')[col]} off the linspace lattice")
    for re_col, im_col, i_col, name in ((2, 3, 6, "Ia"), (4, 5, 7, "Ib")):
        exact = data[:, re_col] ** 2 + data[:, im_col] ** 2
        worst = np.max(np.abs(data[:, i_col] - exact) - INTENSITY_RTOL * exact)
        if _exceeds(worst, 0.0):
            fails.append(f"{name} differs from re^2 + im^2")
    pops = data[:, 8:11]
    tol = POP_TOL[engine]
    if _exceeds(-np.min(pops), tol) or _exceeds(np.max(pops) - 1.0, tol):
        fails.append(f"populations outside [0, 1] by more than {tol:g}")
    if _exceeds(np.max(np.abs(np.sum(pops, axis=1) - 1.0)), tol):
        fails.append(f"populations do not sum to 1 within {tol:g}")
    return fails


def _fields(data: np.ndarray):
    return data[:, 2] + 1j * data[:, 3], data[:, 4] + 1j * data[:, 5]


def check_exact_pair(analytic: np.ndarray, dressing: np.ndarray, scenario: str) -> List[str]:
    """The closed forms and the dressing engine agree on one lattice."""
    (aa, ab), (da, db) = _fields(analytic), _fields(dressing)
    worst = np.max([np.max(np.abs(aa - da)), np.max(np.abs(ab - db)),
                    np.max(np.abs(analytic[:, 8:11] - dressing[:, 8:11]))])
    tol = FIELD_TOL[scenario]
    return [f"analytic vs dressing CSVs differ by {worst:.3e} > {tol:g}"] if _exceeds(worst, tol) else []


def check_numeric(numeric: np.ndarray, exact: np.ndarray) -> List[str]:
    """The solver's fields agree with the exact route within numeric_tol * max|Oa|."""
    (na, nb), (ea, eb) = _fields(numeric), _fields(exact)
    worst = np.max([np.max(np.abs(na - ea)), np.max(np.abs(nb - eb))])
    tol = NUMERIC_TOL * np.max(np.abs(ea))
    return [f"numeric vs exact fields differ by {worst:.3e} > {tol:.3e}"] if _exceeds(worst, tol) else []


def check_dark_transparency(numeric: np.ndarray, lattice: Lattice) -> List[str]:
    """Fast soliton: the numeric |Oa|^2 and |Ob|^2 do not change along zeta."""
    intensities = numeric[:, 6:8].reshape(lattice.n_zeta, lattice.n_tau, 2)
    drift = np.max(np.abs(intensities - intensities[:1]))
    scale = np.max(intensities[0, :, 0])
    tol = (2.0 * NUMERIC_TOL + NUMERIC_TOL**2) * scale
    return [f"fast-soliton intensities drift by {drift:.3e} along zeta"] if _exceeds(drift, tol) else []


# ---------------------------------------------------------------------------
# whole workload
# ---------------------------------------------------------------------------

def csv_paths(run: Run, out: Path) -> List[Path]:
    return [] if run.check_only else [out / f"grid_{engine}.csv" for engine in run.engines]


def digest(run: Run, out: Path) -> Dict[str, str]:
    """sha256 of every CSV the run writes, to show that rewrites are identical."""
    sums = {}
    for path in csv_paths(run, out):
        h = hashlib.sha256()
        try:
            with path.open("rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        except OSError:
            sums[path.name] = "missing"
            continue
        sums[path.name] = h.hexdigest()
    return sums


def check_outputs(workload: Workload, work: Path) -> Dict[str, List[str]]:
    """Every output check on the files of one pass; failures keyed by run name."""
    fails: Dict[str, List[str]] = {run.name: [] for run in workload.runs}
    grids: Dict[tuple, Dict[str, Tuple[str, np.ndarray]]] = {}
    for run in workload.runs:
        out = work / run.name
        try:
            fails[run.name] += check_report(run, (out / "residual_report.txt").read_text("utf-8"))
        except OSError as exc:
            fails[run.name].append(f"no residual report: {exc}")
        for engine, path in zip(run.engines, csv_paths(run, out)):
            try:
                header, data = read_csv(path)
            except (OSError, ValueError) as exc:
                fails[run.name].append(f"{path.name} unreadable: {exc}")
                continue
            found = check_csv(run.lattice, engine, header, data)
            fails[run.name] += [f"{path.name}: {msg}" for msg in found]
            if not found:
                grids.setdefault((run.scenario, run.lattice), {})[engine] = (run.name, data)

    for (scenario, lattice), by_engine in grids.items():
        if "analytic" in by_engine and "dressing" in by_engine:
            name, data = by_engine["dressing"]
            fails[name] += check_exact_pair(by_engine["analytic"][1], data, scenario)
        if "numeric" in by_engine:
            name, data = by_engine["numeric"]
            if "analytic" in by_engine:
                fails[name] += check_numeric(data, by_engine["analytic"][1])
            if scenario == "fast":
                fails[name] += check_dark_transparency(data, lattice)
    return fails
