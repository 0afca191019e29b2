import math

import numpy as np
import pytest

from lambda_mb import algebra, model
from lambda_mb.errors import SpectralPole
from lambda_mb.model import FieldPair, LambdaParams, SpectralData
from pointwise_oracle import NotLambdaStructured, adjoint, extract_fields


def test_interaction_hamiltonian_zero():
    assert np.array_equal(model.interaction_hamiltonian((0.0, 0.0)), np.zeros((3, 3)))


def test_interaction_hamiltonian_real_amplitude():
    h = model.interaction_hamiltonian((2.0, 0.0))
    expect = np.zeros((3, 3), complex)
    expect[2, 0] = expect[0, 2] = -1.0
    assert np.array_equal(h, expect)


def test_interaction_hamiltonian_complex_amplitudes():
    h = model.interaction_hamiltonian((1 + 1j, 2j))
    assert h[2, 0] == -(1 + 1j) / 2
    assert h[2, 1] == -1j
    assert h[0, 2] == np.conj(h[2, 0])
    assert h[1, 2] == np.conj(h[2, 1])
    assert np.max(np.abs(h - adjoint(h))) == 0.0


def test_extract_fields_round_trip():
    assert extract_fields(np.zeros((3, 3))) == FieldPair(0, 0)
    f = FieldPair(1.0, -1j)
    got = extract_fields(model.interaction_hamiltonian(f))
    assert got.omega_a == 1.0 and got.omega_b == -1j


def test_extract_fields_structure_guard():
    h = model.interaction_hamiltonian((1.0, 0.5))
    h = h.copy()
    h[0, 1] = 1e-3
    with pytest.raises(NotLambdaStructured):
        extract_fields(h)


def test_lax_u_cases():
    assert np.array_equal(model.lax_u(0.0, np.zeros((3, 3))), np.zeros((3, 3)))
    assert np.allclose(model.lax_u(2j, np.zeros((3, 3))), np.diag([-1, -1, 1]), atol=0)
    u = model.lax_u(1j, model.interaction_hamiltonian((1.0, 0.0)))
    expect = np.diag([-0.5, -0.5, 0.5]).astype(complex)
    expect[0, 2] = expect[2, 0] = 0.5j
    assert np.allclose(u, expect, atol=1e-15)


def test_lax_v_cases():
    p = LambdaParams(nu0=3.0, delta=0.0)
    rho = np.zeros((3, 3), complex)
    rho[1, 1] = 1.0
    assert np.allclose(model.lax_v(2j, rho, p), 0.75 * rho, atol=1e-15)
    tiny = LambdaParams(nu0=1e-12)
    assert np.max(np.abs(model.lax_v(2j, rho, tiny))) < 1e-12
    with pytest.raises(SpectralPole):
        model.lax_v(0.7, rho, LambdaParams(nu0=3.0, delta=0.7))


def test_lax_v_trace_passthrough():
    rng = np.random.default_rng(0)
    p = LambdaParams(nu0=2.5, delta=0.4)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = 0.5 * (a + a.conj().T)
        rho = rho / np.trace(rho).real if abs(np.trace(rho).real) > 0.1 else rho + np.eye(3) / 3
        lam = complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.5)
        v = model.lax_v(lam, rho, p)
        expect = 0.5j * p.nu0 / (lam - p.delta) * np.trace(rho)
        assert abs(np.trace(v) - expect) < 1e-12


def test_dark_state_values():
    assert np.array_equal(model.dark_state(0.0), [0, 1, 0])
    assert np.allclose(model.dark_state(math.pi / 2), [-1, 0, 0], atol=1e-15)
    assert np.allclose(model.dark_state(math.pi / 4),
                       [-1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-15)
    for eta in np.linspace(0, math.pi / 2, 7):
        assert model.dark_state(eta)[2] == 0.0


def test_dark_state_annihilated_by_background():
    # channel-b amplitude vanishes at eta = 0, so the decoupled state sees no light
    p = LambdaParams(nu0=3.0, omega0=1.0, eta=0.0)
    h = model.interaction_hamiltonian(model.background_fields(p, 0.0))
    v = h @ model.dark_state(0.0)
    assert np.max(np.abs(v)) < 1e-15


def test_density_idempotent_random():
    e22 = np.zeros((3, 3), complex)
    e22[1, 1] = 1.0
    assert np.array_equal(algebra.projector(model.dark_state(0.0)), e22)
    expect = np.zeros((3, 3), complex)
    expect[0, 0] = expect[0, 2] = expect[2, 0] = expect[2, 2] = 0.5
    assert np.allclose(algebra.projector(np.array([1, 0, 1]) / math.sqrt(2)), expect, atol=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = v / np.linalg.norm(v)
        rho = algebra.projector(v)
        assert np.max(np.abs(rho @ rho - rho)) < 1e-10


def test_background_fields():
    p = LambdaParams(nu0=3.0, omega0=1.0, eta=0.0, k=0.0)
    assert model.background_fields(p, 5.0) == FieldPair(1.0, 0.0)
    p0 = LambdaParams(nu0=3.0, omega0=0.0)
    assert model.background_fields(p0, 1.0) == FieldPair(0.0, 0.0)
    pk = LambdaParams(nu0=3.0, omega0=1.0, k=0.5)
    oa, ob = model.background_fields(pk, math.pi)
    assert abs(oa - 1j) < 1e-15 and ob == 0.0


def test_spectral_data_branches():
    s = SpectralData.from_eps0(2.0, 1.0)
    assert s.lambda0 == 2j and abs(s.root - math.sqrt(3)) < 1e-15
    s_eq = SpectralData.from_eps0(1.0, 1.0)
    assert s_eq.root == 0.0
    s_osc = SpectralData.from_eps0(1.0, 2.0)
    assert abs(s_osc.root - 1j * math.sqrt(3)) < 1e-15
