import numpy as np
import pytest

import reference
from qubitrd import linalg
from qubitrd.errors import ShapeError
from qubitrd.quantum import DensityMatrix, stinespring_kraus

I2 = np.eye(2, dtype=complex)


def _haar_unitary(dim, seed):
    """Haar unitary as the package draws one: a one-element Stinespring set."""
    return stinespring_kraus(np.random.default_rng(seed), 1, dim, 1)[0, 0]


def test_as_matrix_dimension_bound():
    assert linalg.as_matrix(np.eye(16)).shape == (16, 16)
    assert DensityMatrix(np.eye(16) / 16).dim == 16
    with pytest.raises(ShapeError):
        DensityMatrix(np.eye(32) / 32)
    with pytest.raises(ShapeError):
        linalg.as_matrix(np.zeros((0, 0)))


def _partial_trace_oracle(mat, keep, n):
    """Direct index summation over the dropped qubits."""
    keep0 = sorted(k - 1 for k in keep)
    drop0 = [i for i in range(n) if i not in keep0]
    dk = 2 ** len(keep0)
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(2**n):
        for col in range(2**n):
            rbits = [(row >> (n - 1 - i)) & 1 for i in range(n)]
            cbits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
            if any(rbits[i] != cbits[i] for i in drop0):
                continue
            ri = sum(rbits[q] << (len(keep0) - 1 - j) for j, q in enumerate(keep0))
            ci = sum(cbits[q] << (len(keep0) - 1 - j) for j, q in enumerate(keep0))
            out[ri, ci] += mat[row, col]
    return out


def test_partial_trace_product_state():
    rho = np.diag([0.7, 0.3]).astype(complex)
    sigma = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    joint = np.kron(rho, sigma)
    assert np.allclose(reference.partial_trace(joint, {1}), rho * np.trace(sigma))
    assert np.allclose(reference.partial_trace(joint, {2}), sigma * np.trace(rho))


def test_partial_trace_all_qubits():
    m = np.arange(16, dtype=complex).reshape(4, 4)
    out = reference.partial_trace(m, set())
    assert out.shape == (1, 1)
    assert out[0, 0] == np.trace(m)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    reduced = reference.partial_trace(proj, {1})
    assert np.allclose(reduced, I2 / 2, atol=1e-12)
    assert np.allclose(reduced, _partial_trace_oracle(proj, {1}, 2), atol=1e-12)


def test_partial_trace_against_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        for keep in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
            assert np.allclose(
                reference.partial_trace(g, keep),
                _partial_trace_oracle(g, keep, 3),
                atol=1e-12,
            )


def test_partial_trace_rejects_non_power_of_two():
    with pytest.raises(ShapeError):
        reference.partial_trace(np.eye(3), {1})


def test_random_unitary_is_unitary():
    for dim in (2, 3, 8, 16):
        u = _haar_unitary(dim, seed=9)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10


def test_random_unitary_deterministic():
    assert np.array_equal(_haar_unitary(4, seed=123), _haar_unitary(4, seed=123))


def test_random_unitary_haar_moment():
    # E|u11|^2 = 1/dim for the Haar measure.
    n = 100000
    u = stinespring_kraus(np.random.default_rng(0), n, 2, 1)[:, 0]
    assert abs(np.mean(np.abs(u[:, 0, 0]) ** 2) - 0.5) < 0.01


def test_kron_then_partial_trace_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        joint = np.kron(a, b)
        assert np.allclose(
            reference.partial_trace(joint, {1}), a * np.trace(b), atol=1e-12
        )
