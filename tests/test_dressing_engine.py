"""The entry-wise dressing engine against its stacked reference.

darboux works on per-entry arrays: the column, the k = 0 unit state and
its projector entry by entry, and the k != 0 formal state as a rank-one
update of the companion background.  pointwise_oracle keeps the stacked
form it replaced (one (..., 3) column, length-3 np.sum reductions,
outer products, and sd @ B @ adjoint(sd) / r2 at k != 0).  At k = 0 the
two agree bit for bit, signed zeros included, because every entry-wise
sum adds in numpy's own order; at k != 0 they agree to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_mb import darboux, scenarios
from lambda_mb.darboux import DressConstants, SolitonConstants, map_constants
from lambda_mb.mbsolver import GridSpec
from lambda_mb.model import LambdaParams, SpectralData
import pointwise_oracle as po
from scenario_inputs import canned_scenario

K0_TAGS = sorted(tag for tag, entry in scenarios.CANNED.items() if entry.get("k", 0.0) == 0.0)

#: rows of zeta kept from each canned lattice: the full tau lattice, the
#: full zeta range at a coarser step
ZETA_ROWS = 21


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _entry_major(fields_and_state):
    """(omega_a, omega_b, rho) of the stacked reference with rho entry-major, as the engine's."""
    oa, ob, rho = fields_and_state
    return oa, ob, np.moveaxis(rho, (-2, -1), (0, 1))


def _small_mesh():
    return np.linspace(0.0, 3.0, 7)[:, None], np.linspace(-6.0, 6.0, 25)[None, :]


def _stacked_grid(sp, grid, route):
    """(omega_a, omega_b, rho) of a grid from the stacked formulas."""
    p, s = sp.params, sp.spectral
    zz, tt = grid.zetas()[:, None], grid.taus()[None, :]
    shape = (grid.n_zeta, grid.n_tau)
    if route == "dressing":
        oa, ob, rho = po.stacked_dressed_fields_and_state(p, s, sp.dress_constants(), zz, tt)
    else:
        oa, ob, state = scenarios.REGISTRY[sp.scenario].evaluate(sp, zz, tt)
        if state is not None:
            rho = po.outer(state, state)
        else:
            rho = po.stacked_dressed_fields_and_state(p, s, sp.dress_constants(), zz, tt)[2]
    rho = np.array(np.broadcast_to(rho, shape + (3, 3)))
    return (np.array(np.broadcast_to(oa, shape)), np.array(np.broadcast_to(ob, shape)),
            np.moveaxis(rho, (-2, -1), (0, 1)))


@pytest.mark.parametrize("route", ["analytic", "dressing"])
@pytest.mark.parametrize("tag", K0_TAGS)
def test_k0_canned_grids_are_bit_identical_to_the_stacked_formulas(tag, route):
    sp, canned = canned_scenario(tag)
    grid = GridSpec(canned.tau_min, canned.tau_max, canned.n_tau,
                    canned.zeta_min, canned.zeta_max, ZETA_ROWS)
    build = scenarios.build_analytic_grid if route == "analytic" else scenarios.build_dressed_grid
    sol = build(sp, grid)
    want = _stacked_grid(sp, grid, route)
    got = (sol.omega_a, sol.omega_b, sol.rho)
    for name, a, b in zip(("omega_a", "omega_b", "rho"), got, want, strict=True):
        assert np.array_equal(a, b), name
        assert _same_bits(a, b), name


@pytest.mark.parametrize("tag", [t for t in K0_TAGS
                                 if scenarios.REGISTRY[scenarios.CANNED[t]["name"]].constants == "c"])
def test_closed_form_states_from_the_engine_are_bit_identical(tag):
    # zero_background and exulton take their state from dressed_density,
    # the state dressed_fields_and_state forms; their analytic grids hold
    # it (test_k0_canned_grids_are_bit_identical_to_the_stacked_formulas)
    sp, grid = canned_scenario(tag)
    p, s, c = sp.params, sp.spectral, sp.constants
    zz, tt = grid.zetas()[::20, None], grid.taus()[None, :]
    got = darboux.dressed_density(p, s, c, zz, tt)
    v = po.stacked_dressed_state(p, s, po.stacked_psi3(p, s, c, zz, tt))
    assert _same_bits(got, np.moveaxis(po.outer(v, v), (-2, -1), (0, 1)))
    assert _same_bits(got, darboux.dressed_fields_and_state(p, s, c, zz, tt)[2])


@given(nu0=st.floats(0.5, 5.0), delta=st.floats(-2.0, 2.0), omega0=st.floats(0.2, 2.0),
       gap=st.floats(0.1, 3.0), log_a1=st.floats(-3.0, 3.0), log_a3=st.floats(-3.0, 3.0))
def test_regular_family_is_bit_identical_across_the_regime(nu0, delta, omega0, gap,
                                                            log_a1, log_a3):
    p = LambdaParams(nu0=nu0, delta=delta, omega0=omega0)
    s = SpectralData.from_eps0(omega0 + gap, omega0)
    c = map_constants(SolitonConstants(math.exp(log_a1), math.exp(log_a3)), s, omega0)
    zz, tt = _small_mesh()
    got = darboux.dressed_fields_and_state(p, s, c, zz, tt)
    want = _entry_major(po.stacked_dressed_fields_and_state(p, s, c, zz, tt))
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and _same_bits(a, b)


def _constant():
    """A dressing constant: zero, or either sign with magnitude in [0.2, 2]."""
    return st.one_of(st.just(0.0), st.builds(lambda sign, mag: sign * mag,
                                             st.sampled_from((-1.0, 1.0)), st.floats(0.2, 2.0)))


def _family_params(draw, family, k=0.0):
    """LambdaParams and SpectralData of one seed family."""
    nu0, delta = draw(st.floats(0.5, 5.0)), draw(st.floats(-2.0, 2.0))
    if family == "vanishing":
        omega0, eps0 = 0.0, draw(st.floats(0.3, 5.0))
    elif family == "confluent":
        omega0 = eps0 = draw(st.floats(0.2, 2.0))
    else:
        omega0 = draw(st.floats(0.2, 2.0))
        eps0 = omega0 + draw(st.floats(0.1, 3.0))
    eta = draw(st.floats(0.0, 1.4)) if family == "regular" else 0.0
    return (LambdaParams(nu0=nu0, delta=delta, omega0=omega0, eta=eta, k=k),
            SpectralData.from_eps0(eps0, omega0))


@pytest.mark.parametrize("family", ["regular", "vanishing", "confluent"])
@given(data=st.data())
def test_every_k0_family_is_bit_identical_for_signed_and_zero_constants(family, data):
    p, s = _family_params(data.draw, family)
    c = data.draw(st.tuples(_constant(), _constant(), _constant())
                  .filter(lambda cs: any(cs)).map(lambda cs: DressConstants(*cs)))
    zz, tt = _small_mesh()
    for a, b in zip(darboux.dressed_fields_and_state(p, s, c, zz, tt),
                    _entry_major(po.stacked_dressed_fields_and_state(p, s, c, zz, tt))):
        assert _same_bits(a, b)


@pytest.mark.parametrize("family", ["regular", "confluent"])
@given(data=st.data())
def test_formal_state_matches_the_batched_product(family, data):
    k = data.draw(st.sampled_from((-1.0, 1.0))) * data.draw(st.floats(0.01, 0.3))
    p, s = _family_params(data.draw, family, k=k)
    c = data.draw(st.tuples(_constant(), _constant(), _constant())
                  .filter(lambda cs: any(cs)).map(lambda cs: DressConstants(*cs)))
    zz, tt = _small_mesh()
    oa, ob, rho = darboux.dressed_fields_and_state(p, s, c, zz, tt)
    oa_ref, ob_ref, rho_ref = po.stacked_dressed_fields_and_state(p, s, c, zz, tt)
    assert _same_bits(oa, oa_ref) and _same_bits(ob, ob_ref)
    assert rho.shape == (3, 3) + zz.shape[:1] + tt.shape[1:]
    rho = po.node_major(rho)
    assert rho.shape == rho_ref.shape
    assert np.max(np.abs(rho - rho_ref)) <= 1e-14
    assert np.max(np.abs(rho - po.adjoint(rho))) <= 1e-14
    assert np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)) <= 1e-14
