import numpy as np
import pytest

from lambda_mb import algebra
from pointwise_oracle import SingularMatrix, adjoint, commutator, inverse


def rand_matrix(rng, scale=1.0):
    return scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))


def test_adjoint_identity():
    eye = np.eye(3, dtype=complex)
    assert np.array_equal(adjoint(eye), eye)


def test_adjoint_diagonal_conjugation():
    m = np.diag([1j, 2j, -1j])
    assert np.array_equal(adjoint(m), np.diag([-1j, -2j, 1j]))


def test_adjoint_is_exact_involution():
    rng = np.random.default_rng(1)
    m = rand_matrix(rng)
    assert np.array_equal(adjoint(adjoint(m)), m)


def test_inverse_identity_and_diagonal():
    eye = np.eye(3, dtype=complex)
    assert np.allclose(inverse(eye), eye, atol=0)
    m = np.diag([2.0, 4.0, -1.0]).astype(complex)
    assert np.allclose(inverse(m), np.diag([0.5, 0.25, -1.0]), atol=1e-15)


def test_inverse_residual_random():
    rng = np.random.default_rng(2)
    eye = np.eye(3)
    for _ in range(50):
        m = rand_matrix(rng) + 2.0 * np.eye(3)  # keep it well conditioned
        r = m @ inverse(m) - eye
        assert np.max(np.abs(r)) < 1e-12


def test_inverse_guard_scale_invariant():
    singular = np.ones((3, 3), dtype=complex)
    with pytest.raises(SingularMatrix):
        inverse(singular)
    with pytest.raises(SingularMatrix):
        inverse(1e150 * singular)  # same verdict after rescaling


def test_inverse_batched():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 5, 3, 3)) + 1j * rng.standard_normal((4, 5, 3, 3))
    m = m + 2.5 * np.eye(3)
    inv = inverse(m)
    assert np.max(np.abs(m @ inv - np.eye(3))) < 1e-12


def test_commutator_cases():
    d = np.diag([1.0, 1.0, -1.0]).astype(complex)
    assert np.array_equal(commutator(d, d), np.zeros((3, 3)))
    e31 = np.zeros((3, 3), complex)
    e31[2, 0] = 1.0
    assert np.array_equal(commutator(d, e31), -2.0 * e31)


def test_commutator_antisymmetry_and_trace():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rand_matrix(rng), rand_matrix(rng)
        c = commutator(a, b)
        assert np.array_equal(c, -commutator(b, a))
        assert abs(np.trace(c)) < 1e-12


def test_inverse_adjoint_biorthonormal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rand_matrix(rng) + 1.5 * np.eye(3)
        if np.linalg.cond(m) > 1e6:
            continue
        partner = adjoint(inverse(m))
        for i in range(3):
            for j in range(3):
                got = np.sum(np.conj(partner[:, i]) * m[:, j])
                assert abs(got - (1.0 if i == j else 0.0)) < 1e-10
