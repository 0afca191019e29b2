"""Byte identity of the grid CSV writer against a per-value reference."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lambda_mb import cli, scenarios
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


# columns that hold one bit pattern on every node are written from the row
# template; these cases mix them with live columns of every kind
_CONSTANTS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1.0, 5e-324]


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i·im part by part: ``re + 1j * im`` would turn an infinite part into NaN."""
    z = np.empty(re.shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


@st.composite
def _part(draw, shape):
    """One CSV part: bit-constant, constant except at one node, or varying."""
    kind = draw(st.sampled_from(["fixed", "one_off", "varying"]))
    if kind == "varying":
        return draw(arrays(np.float64, shape, elements=st.one_of(_REALS, st.sampled_from(_CONSTANTS))))
    value = draw(st.sampled_from(_CONSTANTS))
    part = np.full(shape, value)
    if kind == "one_off":
        node = (draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1)))
        part[node] = draw(st.sampled_from([x for x in _CONSTANTS + [2.5] if _bits(x) != _bits(value)]))
    return part


@settings(max_examples=120)
@given(
    n_zeta=st.integers(2, 4),
    n_tau=st.integers(3, 8),
    complex_fields=st.booleans(),
    with_populations=st.booleans(),
    data=st.data(),
)
def test_fixed_and_live_columns_match_reference(tmp_path_factory, n_zeta, n_tau, complex_fields,
                                                with_populations, data):
    shape = (n_zeta, n_tau)
    part = lambda: data.draw(_part(shape))
    if complex_fields:
        oa, ob = _complex(part(), part()), _complex(part(), part())
    else:
        oa, ob = part(), part()
    pops = np.stack([part() for _ in range(3)], axis=-1) if with_populations else None
    grid = GridSpec(-1.0, 1.0, n_tau, 0.0, 1.0, n_zeta)
    sol = SolutionGrid(grid=grid, omega_a=oa, omega_b=ob, populations=pops, state_kind="none")
    with np.errstate(over="ignore"):
        new, ref = written_bytes(tmp_path_factory.mktemp("csv"), sol)
    assert new == ref


def test_one_negative_zero_keeps_a_zero_column_live(tmp_path):
    grid = GridSpec(-1.0, 1.0, 4, 0.0, 1.0, 3)
    oa = np.zeros((3, 4))
    oa[2, 1] = -0.0
    sol = SolutionGrid(grid=grid, omega_a=oa, omega_b=np.ones((3, 4)),
                       populations=np.zeros((3, 4, 3)))
    new, ref = written_bytes(tmp_path, sol)
    assert new == ref
    assert [line.split(b",")[2] for line in new.splitlines()[1:]] == [b"0"] * 9 + [b"-0"] + [b"0"] * 2


def test_complex_field_with_one_constant_part(tmp_path):
    grid = GridSpec(-1.0, 1.0, 5, 0.0, 1.0, 3)
    varying = np.linspace(-2.0, 2.0, 15).reshape(3, 5)
    oa = _complex(varying, np.full((3, 5), -0.5))
    ob = _complex(np.full((3, 5), -0.0), np.exp(varying))
    sol = SolutionGrid(grid=grid, omega_a=oa, omega_b=ob,
                       populations=np.stack([varying, np.ones((3, 5)), varying ** 2], axis=-1))
    new, ref = written_bytes(tmp_path, sol)
    assert new == ref
    assert {line.split(b",")[3] for line in new.splitlines()[1:]} == {b"-0.5"}


def test_every_column_fixed_on_two_zeta_rows(tmp_path):
    grid = GridSpec(-1.0, 1.0, 3, 0.0, 1.0, 2)
    sol = SolutionGrid(grid=grid, omega_a=np.full((2, 3), 1e300 + 0j), omega_b=np.zeros((2, 3)))
    assert sol.populations is None
    with np.errstate(over="ignore"):
        new, ref = written_bytes(tmp_path, sol)
    assert new == ref
    assert new.splitlines()[1:] == [b"%s,%s,1e+300,0,0,0,inf,0,0,0,0" % (z, t)
                                    for z in (b"0", b"1") for t in (b"-1", b"0", b"1")]


@settings(max_examples=120)
@given(
    n_zeta=st.integers(2, 5),
    n_tau=st.integers(3, 8),
    complex_fields=st.booleans(),
    with_populations=st.booleans(),
    one_off=st.booleans(),
    data=st.data(),
)
def test_zeta_independent_grids_match_reference(tmp_path_factory, n_zeta, n_tau, complex_fields,
                                                with_populations, one_off, data):
    # every part repeats its first zeta row, so the writer formats one row
    # for all of them; with one_off a single node breaks the repetition
    n_parts = (4 if complex_fields else 2) + (3 if with_populations else 0)
    parts = [np.repeat(data.draw(_part((1, n_tau))), n_zeta, axis=0) for _ in range(n_parts)]
    if one_off:
        part = parts[data.draw(st.integers(0, n_parts - 1))]
        node = (data.draw(st.integers(0, n_zeta - 1)), data.draw(st.integers(0, n_tau - 1)))
        part[node] = data.draw(st.sampled_from([x for x in _CONSTANTS + [2.5]
                                                if _bits(x) != _bits(part[node])]))
    if complex_fields:
        oa, ob = _complex(parts[0], parts[1]), _complex(parts[2], parts[3])
    else:
        oa, ob = parts[0], parts[1]
    pops = np.stack(parts[-3:], axis=-1) if with_populations else None
    grid = GridSpec(-1.0, 1.0, n_tau, 0.0, 1.0, n_zeta)
    sol = SolutionGrid(grid=grid, omega_a=oa, omega_b=ob, populations=pops, state_kind="none")
    with np.errstate(over="ignore"):
        new, ref = written_bytes(tmp_path_factory.mktemp("csv"), sol)
    assert new == ref


@pytest.mark.parametrize("build", [scenarios.build_analytic_grid, scenarios.build_dressed_grid,
                                   scenarios.build_numeric_grid])
def test_fast_grids_repeat_their_rows_and_fig2_does_not(build):
    # the fast soliton's fields and state depend on tau alone, on every route
    def float_columns(sol):
        return ([part(f) for f in (sol.omega_a, sol.omega_b) for part in (np.real, np.imag)]
                + [sol.populations[..., k] for k in range(3)])

    sol = build(*_reduced("fast", n_zeta=9))
    assert cli._rows_repeat(float_columns(sol), sol.grid.n_zeta)
    sol = scenarios.build_analytic_grid(*_reduced("fig2"))
    assert not cli._rows_repeat(float_columns(sol), sol.grid.n_zeta)
