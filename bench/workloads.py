"""The benchmark's workloads: which CLI runs each pass makes, on which inputs.

Every run is one ``lambda_mb.cli.main`` call on a ``key = value`` config
file that the benchmark writes.  The parameters of each run are those of a
canned scenario tag, on the tag's lattice with its zeta domain cut short:
the steps stay the canned ones, and a pass takes about 3 s, so that a run
holds enough passes for a steady median.  Nothing here is random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Tuple

ALL_ENGINES = ("analytic", "dressing", "numeric")

#: probe spectral parameters of the zero-curvature checks (the CLI default)
PROBES = (1.0 + 1.0j, 0.7j, -2.0 + 0.5j)

#: agreement the CLI demands of the two exact routes, per scenario
FIELD_TOL = {"two_soliton": 1e-9, "slow": 1e-9, "fast": 1e-9,
             "zero_background": 1e-8, "exulton": 1e-8, "exulton_k": 1e-8}

#: numeric-route tolerance, as a share of max |Omega_a|; written into every config
NUMERIC_TOL = 1e-3


@dataclass(frozen=True)
class Lattice:
    tau_min: float
    tau_max: float
    n_tau: int
    zeta_min: float
    zeta_max: float
    n_zeta: int

    @property
    def nodes(self) -> int:
        return self.n_tau * self.n_zeta

    def cut(self, zeta_steps: int) -> "Lattice":
        """Same steps, zeta domain cut to ``zeta_steps`` steps from zeta_min."""
        h_zeta = (self.zeta_max - self.zeta_min) / (self.n_zeta - 1)
        return replace(self, zeta_max=self.zeta_min + zeta_steps * h_zeta, n_zeta=zeta_steps + 1)


@dataclass(frozen=True)
class Run:
    """One CLI run: scenario parameters, lattice, engine and mode."""

    name: str
    scenario: str
    params: Tuple[Tuple[str, float], ...]
    lattice: Lattice
    engine: str
    check_only: bool = False

    @property
    def engines(self) -> Tuple[str, ...]:
        return ALL_ENGINES if self.engine == "all" else (self.engine,)

    @property
    def nodes(self) -> int:
        """Nodes over every engine grid the run produces."""
        return self.lattice.nodes * len(self.engines)

    def config_text(self, out: Path) -> str:
        lat = self.lattice
        lines = [f"scenario = {self.scenario}", f"engine = {self.engine}", f"out = {out}"]
        lines += [f"{key} = {value!r}" for key, value in self.params]
        lines += [
            f"tau_min = {lat.tau_min!r}", f"tau_max = {lat.tau_max!r}", f"n_tau = {lat.n_tau}",
            f"zeta_min = {lat.zeta_min!r}", f"zeta_max = {lat.zeta_max!r}",
            f"n_zeta = {lat.n_zeta}",
            f"numeric_tol = {NUMERIC_TOL!r}",
            "quiet = true",
        ]
        return "\n".join(lines) + "\n"

    def argv(self, config: Path) -> list:
        return [str(config)] + (["--check"] if self.check_only else [])


# parameters and lattices of the canned tags (lambda_mb.scenarios.CANNED)
TAGS: Dict[str, Tuple[str, Tuple[Tuple[str, float], ...], Lattice]] = {
    "fig2": ("two_soliton",
             (("nu0", 3.0), ("delta", 0.0), ("omega0", 1.0), ("eps0", 2.0),
              ("a1", math.exp(-2.0)), ("a2", 1.0), ("a3", 1.0)),
             Lattice(-20.0, 20.0, 1001, 0.0, 8.0, 401)),
    "slow": ("slow", (), Lattice(-15.0, 25.0, 801, 0.0, 8.0, 321)),
    "fast": ("fast", (), Lattice(-10.0, 10.0, 801, 0.0, 4.0, 161)),
    "fig3": ("zero_background",
             (("nu0", 3.0), ("delta", 0.0), ("omega0", 0.0), ("eps0", 2.0),
              ("c1", 1.0), ("c2", 1.0), ("c3", 1.0)),
             Lattice(-10.0, 2.0, 601, -2.5, 2.5, 251)),
    "fig4": ("exulton",
             (("nu0", 3.0), ("delta", 0.0), ("omega0", 1.0), ("eps0", 1.0),
              ("c1", 1.0), ("c2", 1.0), ("c3", 1.0)),
             Lattice(-10.0, 10.0, 501, 0.0, 6.0, 241)),
    "exulton_k": ("exulton_k",
                  (("omega0", 1.0), ("eps0", 1.0), ("k", 0.2),
                   ("c1", 0.0), ("c2", 0.0), ("c3", 1.0)),
                  Lattice(-10.0, 10.0, 501, 0.0, 6.0, 241)),
}


def _run(tag: str, engine: str, zeta_steps: int, check_only: bool = False) -> Run:
    """The canned run on ``zeta_steps`` of the canned zeta step from zeta_min."""
    scenario, params, lattice = TAGS[tag]
    lattice = lattice.cut(zeta_steps)
    name = f"{tag}-{engine}" + ("-check" if check_only else "")
    return Run(name, scenario, params, lattice, engine, check_only)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: Tuple[Run, ...]

    def tiny(self) -> "Workload":
        """The same runs on ten zeta steps each, for the self-test."""
        return replace(self, runs=tuple(replace(r, lattice=r.lattice.cut(10)) for r in self.runs))

    @property
    def nodes(self) -> int:
        return sum(r.nodes for r in self.runs)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "exact-write",
            "fig2 through the closed forms and the dressing engine, CSVs written; "
            "the CSV writer dominates, the solver is not touched",
            (_run("fig2", "analytic", 80), _run("fig2", "dressing", 80)),
        ),
        Workload(
            "exact-check",
            "--check runs over every seed family, no CSVs; the verify stencils and "
            "density audit dominate, the writer and solver do nothing",
            tuple(_run(tag, "analytic", 40, check_only=True)
                  for tag in ("fig2", "slow", "fast", "fig3", "fig4", "exulton_k"))
            + (_run("exulton_k", "dressing", 40, check_only=True),),
        ),
        Workload(
            "all-routes",
            "all three routes with their cross-checks and CSVs on fig4 (array boundary) "
            "and fast (dark boundary); the zeta-march solver dominates",
            (_run("fig4", "all", 16), _run("fast", "all", 8)),
        ),
    )
}
