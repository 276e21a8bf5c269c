"""The matrix checks that ``quantum`` builds on.

``as_complex`` reads input as a complex array, ``as_matrix`` coerces it to a
square complex matrix of dimension 1..16 and ``is_hermitian`` tests
hermiticity. None modifies its input.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

MAX_DIM = 16
HERMITIAN_TOL = 1e-10


def as_complex(a) -> np.ndarray:
    """``a`` as a complex array; what numpy cannot read as one (a ragged
    nested sequence, a string that is no number) raises ``ShapeError``
    naming it."""
    try:
        return np.asarray(a, dtype=complex)
    except ValueError:
        raise ShapeError(f"expected a complex array, got {a!r}") from None


def as_matrix(a: np.ndarray) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix of dimension 1..16."""
    m = as_complex(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise ShapeError(f"dimension {m.shape[0]} outside 1..{MAX_DIM}")
    return m


def is_hermitian(a: np.ndarray) -> bool:
    """True when ``max|a - a†| <= HERMITIAN_TOL``."""
    m = as_matrix(a)
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL)
