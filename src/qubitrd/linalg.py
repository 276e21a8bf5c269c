"""Dense complex linear algebra for matrices of dimension at most 16.

All functions operate on plain numpy arrays of shape ``(dim, dim)`` with
complex entries, never modify their inputs, and are safe to call from
concurrent workers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import (
    CapacityError,
    ContractViolationError,
    DimensionMismatchError,
    DomainError,
    ShapeError,
)

MAX_DIM = 16
HERMITIAN_TOL = 1e-10


def as_matrix(a: np.ndarray) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix of dimension 1..16."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise CapacityError(f"dimension {m.shape[0]} outside 1..{MAX_DIM}")
    return m


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b``."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[0] != mb.shape[0]:
        raise DimensionMismatchError(
            f"incompatible operands: {ma.shape[0]} vs {mb.shape[0]}"
        )
    return ma @ mb


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ShapeError(f"dimension {dim} is not a power of 2")
    return n


def partial_trace(a: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Trace out all qubits except those in ``keep`` (1-based indices).

    ``a`` must act on n qubits (dimension ``2**n``). Kept qubits stay in
    their original order; an empty ``keep`` yields the 1x1 matrix
    ``[[trace(a)]]``.
    """
    m = as_matrix(a)
    n = _qubit_count(m.shape[0])
    kept = sorted(set(int(q) for q in keep))
    if any(q < 1 or q > n for q in kept):
        raise DomainError(f"keep indices must lie in 1..{n}, got {kept}")
    kept0 = [q - 1 for q in kept]
    dropped0 = [i for i in range(n) if i not in kept0]
    dim_keep = 2 ** len(kept0)
    dim_drop = 2 ** len(dropped0)
    t = m.reshape((2,) * (2 * n)) if n else m.reshape(1, 1, 1, 1)
    if n:
        perm = kept0 + dropped0 + [n + i for i in kept0] + [n + i for i in dropped0]
        t = t.transpose(perm).reshape(dim_keep, dim_drop, dim_keep, dim_drop)
    return np.einsum("ixjx->ij", t)


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True when ``max|a - a†| <= tol``."""
    m = as_matrix(a)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, in descending order."""
    m = as_matrix(a)
    if not is_hermitian(m):
        raise ContractViolationError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh(m)[::-1].copy()


def polar_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``a = U P`` with U unitary and P = sqrt(a† a) positive semidefinite.

    Rank-deficient input is allowed; the unitary factor is then completed
    arbitrarily (but unitarily) on the kernel of P.
    """
    m = as_matrix(a)
    u, s, vh = np.linalg.svd(m)
    return u @ vh, (vh.conj().T * s) @ vh
