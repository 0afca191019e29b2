"""Byte identity of the grid CSV writer against a per-value reference."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lambda_mb import scenarios
from lambda_mb.cli import CSV_HEADER, write_grid_csv
from lambda_mb.mbsolver import GridSpec, SolutionGrid
from scenario_inputs import canned_scenario


def reference_write_grid_csv(path: Path, sol: SolutionGrid):
    """The per-value writer: one ``format(x, ".12g")`` call per CSV field."""
    zetas, taus = sol.grid.zetas(), sol.grid.taus()
    pops = sol.populations
    if pops is None:
        pops = np.zeros((sol.grid.n_zeta, sol.grid.n_tau, 3))
    g = lambda x: format(float(x), ".12g")
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for i, z in enumerate(zetas):
            for j, t in enumerate(taus):
                oa = sol.omega_a[i, j]
                ob = sol.omega_b[i, j]
                row = (
                    g(z), g(t), g(oa.real), g(oa.imag), g(ob.real), g(ob.imag),
                    g(abs(oa) ** 2), g(abs(ob) ** 2),
                    g(pops[i, j, 0]), g(pops[i, j, 1]), g(pops[i, j, 2]),
                )
                fh.write(",".join(row) + "\n")


def written_bytes(tmp_path: Path, sol: SolutionGrid):
    """(writer bytes, reference bytes) for one grid."""
    write_grid_csv(tmp_path / "new.csv", sol)
    reference_write_grid_csv(tmp_path / "ref.csv", sol)
    return (tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()


def _reduced(tag: str, n_zeta: int = 5):
    sp, g = canned_scenario(tag)
    return sp, GridSpec(g.tau_min, g.tau_max, g.n_tau, g.zeta_min, g.zeta_max, n_zeta)


@pytest.mark.parametrize("engine", ["analytic", "dressing"])
@pytest.mark.parametrize("tag", sorted(scenarios.CANNED))
def test_exact_grids_match_reference(tmp_path, tag, engine):
    sp, grid = _reduced(tag)
    build = scenarios.build_analytic_grid if engine == "analytic" else scenarios.build_dressed_grid
    new, ref = written_bytes(tmp_path, build(sp, grid))
    assert new == ref


def test_numeric_fast_grid_matches_reference(tmp_path):
    sp, grid = _reduced("fast", n_zeta=9)
    new, ref = written_bytes(tmp_path, scenarios.build_numeric_grid(sp, grid))
    assert new == ref


def test_grid_without_populations_matches_reference(tmp_path):
    sp, grid = _reduced("slow")
    sol = scenarios.build_analytic_grid(sp, grid)
    sol = SolutionGrid(grid=grid, omega_a=sol.omega_a, omega_b=sol.omega_b, state_kind="none")
    assert sol.populations is None
    new, ref = written_bytes(tmp_path, sol)
    assert new == ref
    assert new.splitlines()[1].endswith(b",0,0,0")


def test_real_field_intensity_keeps_the_scalar_square(tmp_path):
    # numpy's vectorized square writes 1.02267089851 here
    grid = GridSpec(-1.0, 1.0, 3, 0.0, 1.0, 2)
    oa = np.full((2, 3), -1.011271921149302)
    sol = SolutionGrid(grid=grid, omega_a=oa, omega_b=np.zeros((2, 3)),
                       populations=np.zeros((2, 3, 3)))
    new, ref = written_bytes(tmp_path, sol)
    assert new == ref
    assert new.splitlines()[1].split(b",")[6] == b"1.0226708985"


_TRICKY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308])
_REALS = st.one_of(_TRICKY, st.floats(allow_nan=False, allow_infinity=False, width=64))


@settings(max_examples=60)
@given(
    n_tau=st.integers(3, 12),
    complex_fields=st.booleans(),
    data=st.data(),
)
def test_random_fields_match_reference(tmp_path_factory, n_tau, complex_fields, data):
    shape = (2, n_tau)
    if complex_fields:
        elements = st.builds(complex, _REALS, _REALS)
        dtype = np.complex128
    else:
        elements = _REALS
        dtype = np.float64
    oa = data.draw(arrays(dtype, shape, elements=elements))
    ob = data.draw(arrays(dtype, shape, elements=elements))
    pops = data.draw(arrays(np.float64, shape + (3,), elements=_REALS))
    grid = GridSpec(-1.0, 1.0, n_tau, 0.0, 1.0, 2)
    sol = SolutionGrid(grid=grid, omega_a=oa, omega_b=ob, populations=pops)
    with np.errstate(over="ignore"):
        new, ref = written_bytes(tmp_path_factory.mktemp("csv"), sol)
    assert new == ref
