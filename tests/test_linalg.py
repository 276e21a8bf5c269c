import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitrd import linalg
from qubitrd.quantum import stinespring_kraus
from qubitrd.errors import (
    ContractViolationError,
    DimensionMismatchError,
    ShapeError,
)

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _haar_unitary(dim, seed):
    """Haar unitary as the package draws one: a one-element Stinespring set."""
    return stinespring_kraus(np.random.default_rng(seed), 1, dim, 1)[0, 0]


def test_multiply_identity():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert np.allclose(linalg.multiply(I2, m), m)


def test_multiply_diagonal():
    out = linalg.multiply(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
    assert np.allclose(out, np.diag([10.0, 21.0]))


def test_multiply_pauli_involution():
    assert np.allclose(linalg.multiply(PAULI_X, PAULI_X), I2)


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        linalg.multiply(I2, np.eye(3))


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
    assert np.allclose(linalg.partial_trace(joint, {1}), rho * np.trace(sigma))
    assert np.allclose(linalg.partial_trace(joint, {2}), sigma * np.trace(rho))


def test_partial_trace_all_qubits():
    m = np.arange(16, dtype=complex).reshape(4, 4)
    out = linalg.partial_trace(m, set())
    assert out.shape == (1, 1)
    assert out[0, 0] == np.trace(m)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    reduced = linalg.partial_trace(proj, {1})
    assert np.allclose(reduced, I2 / 2, atol=1e-12)
    assert np.allclose(reduced, _partial_trace_oracle(proj, {1}, 2), atol=1e-12)


def test_partial_trace_against_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        for keep in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
            assert np.allclose(
                linalg.partial_trace(g, keep),
                _partial_trace_oracle(g, keep, 3),
                atol=1e-12,
            )


def test_partial_trace_rejects_non_power_of_two():
    with pytest.raises(ShapeError):
        linalg.partial_trace(np.eye(3), {1})


def test_eigenvalues_diagonal_and_projector():
    assert np.allclose(
        linalg.hermitian_eigenvalues(np.diag([0.3, 0.7])), [0.7, 0.3]
    )
    proj = np.full((2, 2), 0.5, dtype=complex)
    assert np.allclose(
        linalg.hermitian_eigenvalues(proj), [1.0, 0.0], atol=1e-12
    )


def test_eigenvalues_match_quadratic_formula():
    # 2x2 closed-form oracle from the characteristic polynomial.
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, d = rng.standard_normal(2)
        b = rng.standard_normal() + 1j * rng.standard_normal()
        h = np.array([[a, b], [np.conj(b), d]])
        mean = (a + d) / 2
        radius = np.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
        expected = [mean + radius, mean - radius]
        assert np.allclose(linalg.hermitian_eigenvalues(h), expected, atol=1e-9)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ContractViolationError):
        linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        eigs = linalg.hermitian_eigenvalues(h)
        assert np.all(np.diff(eigs) <= 1e-12)
        assert abs(eigs.sum() - np.trace(h).real) < 1e-10


def test_eigenvalues_of_psd_stay_nonnegative():
    rng = np.random.default_rng(13)
    for dim in (2, 4, 8):
        for _ in range(50):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
                (dim, dim)
            )
            psd = g @ g.conj().T
            assert linalg.hermitian_eigenvalues(psd).min() >= -1e-10


def test_polar_of_positive_diagonal():
    d = np.diag([3.0, 1.0]).astype(complex)
    u, p = linalg.polar_decompose(d)
    assert np.allclose(u, I2, atol=1e-12)
    assert np.allclose(p, d, atol=1e-12)


def test_polar_of_unitary():
    v = _haar_unitary(4, seed=3)
    u, p = linalg.polar_decompose(v)
    assert np.allclose(u, v, atol=1e-10)
    assert np.allclose(p, np.eye(4), atol=1e-10)


@pytest.mark.parametrize("dim", [2, 4])
def test_polar_reconstruction_random(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(10000):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, p = linalg.polar_decompose(a)
        assert np.max(np.abs(u @ p - a)) <= 1e-9
        assert np.max(np.abs(p - p.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(p).min() >= -1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12


def test_polar_rank_deficient_input():
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    u, p = linalg.polar_decompose(a)
    assert np.max(np.abs(u @ p - a)) <= 1e-12
    assert np.max(np.abs(u.conj().T @ u - I2)) <= 1e-12


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


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_multiply_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for _ in range(3)
    )
    left = linalg.multiply(linalg.multiply(a, b), c)
    right = linalg.multiply(a, linalg.multiply(b, c))
    assert np.max(np.abs(left - right)) <= 1e-12


def test_kron_then_partial_trace_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        joint = np.kron(a, b)
        assert np.allclose(
            linalg.partial_trace(joint, {1}), a * np.trace(b), atol=1e-12
        )
