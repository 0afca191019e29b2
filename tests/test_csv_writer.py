"""Byte identity of the grid CSV writer against a per-value reference."""

import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lambda_mb import cli, g12, mbsolver, scenarios
from lambda_mb.cli import CSV_HEADER, write_grid_csv
from lambda_mb.mbsolver import GridSpec, SolutionGrid
from scenario_inputs import canned_scenario


def reference_write_grid_csv(path: Path, sol: SolutionGrid):
    """The per-value writer: one ``format(x, ".12g")`` call per CSV field."""
    zetas, taus = sol.grid.zetas(), sol.grid.taus()
    pops = [sol.rho[k, k].real for k in range(3)]
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
                    g(pops[0][i, j]), g(pops[1][i, j]), g(pops[2][i, j]),
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


def _populated(grid, oa, ob, populations) -> SolutionGrid:
    """A grid of the fields whose state holds populations[..., k] on its diagonal, 0 off it.

    The real parts of the state's diagonal rows hold the bits of the
    populations, which is all the writer reads of a state.
    """
    rho = np.zeros((3, 3) + populations.shape[:-1], dtype=complex)
    for k in range(3):
        rho[k, k].real = populations[..., k]
    return SolutionGrid(grid=grid, omega_a=oa, omega_b=ob, rho=rho)


def test_real_field_intensity_keeps_the_scalar_square(tmp_path):
    # numpy's vectorized square writes 1.02267089851 here
    grid = GridSpec(-1.0, 1.0, 3, 0.0, 1.0, 2)
    oa = np.full((2, 3), -1.011271921149302)
    sol = _populated(grid, oa, np.zeros((2, 3)), np.zeros((2, 3, 3)))
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
    sol = _populated(grid, oa, ob, pops)
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
    pops = np.zeros(shape + (3,))
    if with_populations:
        pops = np.stack([part() for _ in range(3)], axis=-1)
    grid = GridSpec(-1.0, 1.0, n_tau, 0.0, 1.0, n_zeta)
    sol = _populated(grid, oa, ob, pops)
    with np.errstate(over="ignore"):
        new, ref = written_bytes(tmp_path_factory.mktemp("csv"), sol)
    assert new == ref


def test_one_negative_zero_keeps_a_zero_column_live(tmp_path):
    grid = GridSpec(-1.0, 1.0, 4, 0.0, 1.0, 3)
    oa = np.zeros((3, 4))
    oa[2, 1] = -0.0
    sol = _populated(grid, oa, np.ones((3, 4)), np.zeros((3, 4, 3)))
    new, ref = written_bytes(tmp_path, sol)
    assert new == ref
    assert [line.split(b",")[2] for line in new.splitlines()[1:]] == [b"0"] * 9 + [b"-0"] + [b"0"] * 2


@pytest.mark.parametrize("block_lines", [3, 10])  # one row per block, or two and a last one
def test_grids_written_in_several_blocks_match_reference(tmp_path, monkeypatch, block_lines):
    monkeypatch.setattr(mbsolver, "BLOCK_NODES", block_lines)
    rng = np.random.default_rng(5)
    grid = GridSpec(-1.0, 1.0, 4, 0.0, 1.0, 7)
    part = lambda: rng.standard_normal((7, 4)) * np.exp(rng.uniform(-30.0, 3.0, (7, 4)))
    sol = _populated(grid, _complex(part(), part()), part(),
                     np.stack([part() for _ in range(3)], axis=-1))
    new, ref = written_bytes(tmp_path, sol)
    assert new == ref


def test_a_column_that_differs_only_on_a_late_row_is_live(tmp_path):
    # the fixed-column scan goes a few rows at a time; the one differing
    # node sits past its first stretch
    grid = GridSpec(-1.0, 1.0, 3, 0.0, 1.0, 70)
    pops = np.full((70, 3, 3), 0.25)
    pops[69, 2, 1] = 0.5
    sol = _populated(grid, np.ones((70, 3)), np.zeros((70, 3)), pops)
    new, ref = written_bytes(tmp_path, sol)
    assert new == ref
    assert new.splitlines()[-1].endswith(b",0.25,0.5,0.25")


def test_complex_field_with_one_constant_part(tmp_path):
    grid = GridSpec(-1.0, 1.0, 5, 0.0, 1.0, 3)
    varying = np.linspace(-2.0, 2.0, 15).reshape(3, 5)
    oa = _complex(varying, np.full((3, 5), -0.5))
    ob = _complex(np.full((3, 5), -0.0), np.exp(varying))
    sol = _populated(grid, oa, ob, np.stack([varying, np.ones((3, 5)), varying ** 2], axis=-1))
    new, ref = written_bytes(tmp_path, sol)
    assert new == ref
    assert {line.split(b",")[3] for line in new.splitlines()[1:]} == {b"-0.5"}


def test_every_column_fixed_on_two_zeta_rows(tmp_path):
    grid = GridSpec(-1.0, 1.0, 3, 0.0, 1.0, 2)
    sol = _populated(grid, np.full((2, 3), 1e300 + 0j), np.zeros((2, 3)), np.zeros((2, 3, 3)))
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
    pops = np.stack(parts[-3:], axis=-1) if with_populations else np.zeros((n_zeta, n_tau, 3))
    grid = GridSpec(-1.0, 1.0, n_tau, 0.0, 1.0, n_zeta)
    sol = _populated(grid, oa, ob, pops)
    with np.errstate(over="ignore"):
        new, ref = written_bytes(tmp_path_factory.mktemp("csv"), sol)
    assert new == ref


@pytest.mark.parametrize("build", [scenarios.build_analytic_grid, scenarios.build_dressed_grid,
                                   scenarios.build_numeric_grid])
def test_fast_grids_repeat_their_rows_and_fig2_does_not(build):
    # the fast soliton's fields and state depend on tau alone, on every route
    def float_columns(sol):
        return ([part(f) for f in (sol.omega_a, sol.omega_b) for part in (np.real, np.imag)]
                + [sol.rho[k, k].real for k in range(3)])

    sol = build(*_reduced("fast", n_zeta=9))
    assert cli._rows_repeat(float_columns(sol), sol.grid.n_zeta)
    sol = scenarios.build_analytic_grid(*_reduced("fig2"))
    assert not cli._rows_repeat(float_columns(sol), sol.grid.n_zeta)


def test_overflowing_intensities_are_inf_without_a_warning(tmp_path):
    # pytest turns every warning into an error; only the reference writer
    # runs under errstate, so an overflow warning from the writer fails here
    grid = GridSpec(-1.0, 1.0, 4, 0.0, 1.0, 2)
    oa = np.array([[1e200, 2.0, 1e200j, 1e308 + 1e308j], [3.0, 1e200, 1e-200, 1e154]])
    ob = np.full((2, 4), 1e200 + 0j)  # a fixed intensity column that overflows
    sol = _populated(grid, oa, ob, np.zeros((2, 4, 3)))
    write_grid_csv(tmp_path / "new.csv", sol)
    with np.errstate(over="ignore"):
        reference_write_grid_csv(tmp_path / "ref.csv", sol)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    ia = [line.split(b",")[6] for line in new.splitlines()[1:]]
    assert ia == [b"inf", b"4", b"inf", b"inf", b"9", b"inf", b"0", b"1e+308"]
    assert {line.split(b",")[7] for line in new.splitlines()[1:]} == {b"inf"}


def test_intensities_near_ties_are_the_text_of_pow_and_hypot(tmp_path):
    # h = sqrt(T) for 12-digit ties T: on some, numpy's h*h and Python's
    # pow(h, 2) fall on either side of T and so have different texts, and
    # on some complex z of modulus h, numpy's abs and hypot do
    rng = np.random.default_rng(11)
    n = 40_000
    ties = [float(f"{d}5e{k - 12}") for d, k in zip(rng.integers(10 ** 11, 10 ** 12, n).tolist(),
                                                    rng.integers(-6, 3, n).tolist())]
    h = np.sqrt(ties)
    g = lambda x: format(float(x), ".12g")
    split = np.array([x for x in h.tolist() if g(x * x) != g(pow(x, 2))])
    assert split.size >= 6
    z = h * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    z = z[[g(pow(abs(complex(w)), 2)) != g(pow(float(np.abs(w)), 2)) for w in z]][:100]
    assert z.size >= 20
    m = split.size // 2
    grid = GridSpec(-1.0, 1.0, m, 0.0, 1.0, 2)
    sol = _populated(grid, split[:2 * m].reshape(2, m), np.resize(z, (2, m)),
                     np.zeros((2, m, 3)))
    new, ref = written_bytes(tmp_path, sol)
    assert new == ref
    ia = [line.split(b",")[6] for line in new.splitlines()[1:]]
    assert ia == [g(pow(x, 2)).encode() for x in split[:2 * m].tolist()]


def _slot_text(values: np.ndarray) -> bytes:
    """The kernel's text of values, ``format`` writing what it does not certify."""
    words = np.zeros((values.size, 3), dtype=g12.WORD)
    fallback = g12.write_slots(values, words)
    if fallback.size:
        words[fallback] = g12.text_slots([format(x, ".12g") for x in values[fallback].tolist()])
    return words.tobytes().translate(None, b"\0")


def _format_text(values: np.ndarray) -> bytes:
    return "".join("," + format(x, ".12g") for x in values.tolist()).encode()


_KERNEL_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
                 math.nan, -math.nan, 1e-5, 1e-4, 9.99999999999995e-05, 99999999999.95,
                 999999999999.5, 1e12, 100000000000.5, 100000000001.5, 1e100, -1e100, 1e-100,
                 -1e-100, 1.7976931348623157e308]


def test_kernel_edge_values_match_format():
    values = np.array(_KERNEL_EDGES)
    assert _format_text(values[7:9]) == b",nan,nan"  # format drops the sign of a NaN
    assert _slot_text(values) == _format_text(values)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),
                          st.floats(width=64).map(lambda x: int(np.float64(x).view(np.uint64)))),
                min_size=1, max_size=64))
def test_kernel_matches_format_on_any_bit_pattern(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _slot_text(values) == _format_text(values)


@settings(max_examples=200)
@given(digits=st.integers(10 ** 11, 10 ** 12 - 1), exp=st.integers(-310, 310),
       nudge=st.integers(-3, 3), negative=st.booleans())
def test_kernel_matches_format_near_ties_and_powers_of_ten(digits, exp, nudge, negative):
    # the float nearest digits.5e(exp - 11) sits on a 12-digit tie, and
    # 10^exp on a power of ten; up to three ulps either side of each
    values = [float(f"{digits}5e{exp - 12}"), float(f"1e{exp}")]
    values = np.array([v for v in values if math.isfinite(v)] or [1.0])
    for _ in range(abs(nudge)):
        values = np.nextafter(values, math.copysign(math.inf, nudge))
    values = -values if negative else values
    assert _slot_text(values) == _format_text(values)


def _peak_write_bytes(n_zeta: int) -> int:
    """tracemalloc's peak, above what the grid holds, while writing a 1001-node-wide grid."""
    rng = np.random.default_rng(3)
    grid = GridSpec(-20.0, 20.0, 1001, 0.0, 8.0, n_zeta)
    shape = (n_zeta, grid.n_tau)
    field = lambda: rng.standard_normal(shape) * np.exp(rng.uniform(-40.0, 1.0, shape))
    # one real field, as the closed forms give for fig2, and one complex
    sol = _populated(grid, field(), field() + 1j * field(),
                     np.abs(np.stack([field() for _ in range(3)], axis=-1)))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        write_grid_csv(Path(os.devnull), sol)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_the_grid():
    small, large = _peak_write_bytes(41), _peak_write_bytes(401)
    assert large < 16e6
    assert abs(large - small) < 2e6
