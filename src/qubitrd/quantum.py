"""Density matrices, Kraus channels, and the scalar functionals built on them.

A quantum operation is a set of elements {A_i} acting as
``rho -> sum_i A_i rho A_i†``; it is trace preserving when
``sum_i A_i† A_i = I``. On top of that this module provides the paper's
three quantities: entanglement fidelity with the induced distortion
``1 - F_e``, entropy exchange, and the average conditional output entropy.
``average_entropies`` and ``block_distortions`` score a whole
(N, k, dim, dim) stack of Kraus sets in one call; ``block_distortions`` is
the per-qubit distortion of multi-qubit operations, and
``stinespring_kraus`` draws random Kraus sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    AnnihilationError,
    ContractViolationError,
    DimensionMismatchError,
    DomainError,
    ShapeError,
)

STATE_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
WEIGHT_FLOOR = 1e-14
# Eigenvalues below this are eigensolver dust; clamp to 0 before logarithms.
EIGENVALUE_FLOOR = 1e-14
_TINY = 5e-324  # smallest positive (subnormal) double


def _frozen(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix on n qubits."""

    mat: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.mat)
        if 2 ** (m.shape[0].bit_length() - 1) != m.shape[0]:
            raise ShapeError(f"dimension {m.shape[0]} is not a power of 2")
        if not linalg.is_hermitian(m, STATE_TOL):
            raise ContractViolationError("density matrix must be Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -STATE_TOL:
            raise ContractViolationError(f"negative eigenvalue {eigs[0]:.3e}")
        if abs(np.trace(m) - 1.0) > STATE_TOL:
            raise ContractViolationError(f"trace {np.trace(m):.12f} != 1")
        object.__setattr__(self, "mat", _frozen(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _require_complete(kraus: np.ndarray) -> None:
    """Raise unless every set in a (N, k, dim, dim) stack has sum A_i† A_i = I."""
    total = np.einsum("nkji,nkjl->nil", kraus.conj(), kraus)
    gaps = np.abs(total - np.eye(kraus.shape[-1])).max(axis=(1, 2))
    bad = np.flatnonzero(gaps > COMPLETENESS_TOL)
    if bad.size:
        where = f" in set {bad[0]}" if len(kraus) > 1 else ""
        raise ContractViolationError(
            f"sum A_i† A_i deviates from identity by {gaps[bad[0]]:.3e}{where}"
        )


@dataclass(frozen=True)
class KrausChannel:
    """Quantum operation defined by an ordered set of operation elements."""

    elements: tuple[np.ndarray, ...]
    trace_preserving: bool = False

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ContractViolationError("channel needs at least one element")
        mats = tuple(_frozen(linalg.as_matrix(e)) for e in self.elements)
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise DimensionMismatchError("all elements must share one dimension")
        if self.trace_preserving:
            _require_complete(np.stack(mats)[np.newaxis])
        object.__setattr__(self, "elements", mats)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def k(self) -> int:
        return len(self.elements)


def _state_matrix(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else linalg.as_matrix(rho)


def _apply_raw(ch: KrausChannel, mat: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mat)
    for a in ch.elements:
        out += a @ mat @ a.conj().T
    return out


def apply(ch: KrausChannel, rho) -> tuple[np.ndarray, float]:
    """Run the channel on a state; return the unnormalized output and its trace.

    The normalized state is ``out / weight``. For subnormalized operations the
    weight is the probability that this operation occurs.
    """
    m = _state_matrix(rho)
    if m.shape[0] != ch.dim:
        raise DimensionMismatchError(
            f"state dimension {m.shape[0]} != channel dimension {ch.dim}"
        )
    out = _apply_raw(ch, m)
    weight = float(np.trace(out).real)
    if weight <= WEIGHT_FLOOR:
        raise AnnihilationError(
            f"operation annihilates the state (weight {weight:.3e})"
        )
    return out, weight


def eigenvalue_entropy(eigs) -> np.ndarray:
    """Entropy in bits of the probability vectors along the last axis.

    Entries at or below ``EIGENVALUE_FLOOR`` are eigensolver dust and count
    as 0, so 0·log 0 is 0. Any leading axes are kept: a stack of spectra
    gives a stack of entropies, one spectrum a 0-d array. A pure spectrum
    gives +0.0, not -0.0.
    """
    eigs = np.asarray(eigs, dtype=float)
    eigs = np.where(eigs > EIGENVALUE_FLOOR, eigs, 1.0)  # 1 log 1 = 0
    return 0.0 - np.sum(eigs * np.log2(eigs), axis=-1)


def _entropy_of_psd(mat: np.ndarray) -> float:
    """Entropy in bits of a unit-trace PSD matrix, tolerant of eigenvalue dust."""
    return float(eigenvalue_entropy(np.linalg.eigvalsh(mat)))


def binary_entropy(p):
    """Binary entropy h2(p) in bits, of a float or of each entry of an array.

    (m ln m + (1 - m) log1p(-m)) / -ln 2 with m = min(p, 1 - p), ln m
    taking its argument floored at the smallest positive double: 0 ln 0 = 0
    without a warning, and h2(0) = h2(1) = +0.0. This keeps full relative
    precision for a small m; a p near 1 has already lost the digits of
    1 - p, so a caller who knows 1 - p in closed form passes that. A float
    gives a float, with the bits of the same entry of an array. Entries
    within 1e-12 outside [0, 1] are clipped; any other, NaN included,
    raises ``DomainError``. A float is checked, clipped and floored as a
    float, which is cheaper than as a 0-d array; its logarithms stay
    numpy's, whose bits math.log and math.log1p do not always give.
    """
    if isinstance(p, (int, float)):
        if not -1e-12 <= p <= 1 + 1e-12:
            raise DomainError(f"probability {p} outside [0, 1]")
        p = min(max(float(p), 0.0), 1.0)
        m = min(p, 1.0 - p)
        floored = max(m, _TINY)
    else:
        p = np.asarray(p, dtype=float)
        inside = (p >= -1e-12) & (p <= 1 + 1e-12)
        if not inside.all():
            raise DomainError(f"probability {p[~inside][0]} outside [0, 1]")
        p = np.minimum(np.maximum(p, 0.0), 1.0)
        m = np.minimum(p, 1.0 - p)
        floored = np.maximum(m, _TINY)
    nats = m * np.log(floored) + (1.0 - m) * np.log1p(-m)
    h = 0.0 - nats / math.log(2.0)
    return h if isinstance(h, np.ndarray) else float(h)


def entanglement_fidelity(rho, ch: KrausChannel) -> float:
    """F_e = sum_i |tr(A_i rho)|^2 / tr(E(rho)).

    Measures how well the channel preserves the state together with its
    entanglement to any purifying reference system.
    """
    m = _state_matrix(rho)
    if m.shape[0] != ch.dim:
        raise DimensionMismatchError(
            f"state dimension {m.shape[0]} != channel dimension {ch.dim}"
        )
    _, weight = apply(ch, m)
    numerator = sum(abs(np.trace(a @ m)) ** 2 for a in ch.elements)
    return float(numerator / weight)


def distortion(rho, ch: KrausChannel) -> float:
    """d = 1 - F_e(rho, ch)."""
    return 1.0 - entanglement_fidelity(rho, ch)


def exchange_matrix(rho, ch: KrausChannel) -> np.ndarray:
    """The k x k matrix W with W_ij = tr(A_i rho A_j†) / tr(E(rho))."""
    m = _state_matrix(rho)
    k = ch.k
    w = np.empty((k, k), dtype=complex)
    for i, ai in enumerate(ch.elements):
        for j, aj in enumerate(ch.elements):
            w[i, j] = np.trace(ai @ m @ aj.conj().T)
    weight = float(np.trace(w).real)
    if weight <= WEIGHT_FLOOR:
        raise AnnihilationError(
            f"operation annihilates the state (weight {weight:.3e})"
        )
    return w / weight


def entropy_exchange(rho, ch: KrausChannel) -> float:
    """Entropy generated in the environment: S(W) in bits.

    Zero whenever the channel has a single operation element.
    """
    return _entropy_of_psd(exchange_matrix(rho, ch))


def average_entropy(ch: KrausChannel, rho) -> float:
    """Average conditional output entropy sum_i lambda_i S(A_i rho A_i† / lambda_i).

    This is the qubit rate charged to a trace-preserving operation when the
    index of the realized element is known: each conditional output is
    compressed losslessly at its own entropy.
    """
    if not ch.trace_preserving:
        raise ContractViolationError("average_entropy needs a trace-preserving channel")
    m = _state_matrix(rho)
    if m.shape[0] != ch.dim:
        raise DimensionMismatchError(
            f"state dimension {m.shape[0]} != channel dimension {ch.dim}"
        )
    total = 0.0
    for a in ch.elements:
        cond = a @ m @ a.conj().T
        lam = float(np.trace(cond).real)
        if lam <= WEIGHT_FLOOR:
            continue
        total += lam * _entropy_of_psd(cond / lam)
    return total


def average_entropies(kraus, state) -> np.ndarray:
    """``average_entropy`` of every Kraus set in a (N, k, dim, dim) stack.

    Sets with fewer elements are padded with zero elements; like any element
    of weight at most ``WEIGHT_FLOOR`` they add nothing. Completeness is not
    checked here: ``block_distortions`` checks it on the same stack.
    """
    kraus = np.asarray(kraus, dtype=complex)
    cond = kraus @ _state_matrix(state) @ kraus.conj().swapaxes(-1, -2)
    lam = np.einsum("nkii->nk", cond).real
    live = lam > WEIGHT_FLOOR
    eigs = np.linalg.eigvalsh(cond / np.where(live, lam, 1.0)[..., None, None])
    return np.sum(np.where(live, lam * eigenvalue_entropy(eigs), 0.0), axis=1)


def block_distortions(kraus, rho: DensityMatrix) -> np.ndarray:
    """Per-qubit block distortion of every Kraus set in a (N, k, 2^n, 2^n) stack.

    Entry m is the average over the n <= 3 qubits of 1 - F_e(rho, marginal
    map of set m on that qubit). ``tests/reference.py`` takes the same
    quantity one qubit and one channel at a time, through the marginal
    map's Choi matrix.
    Sets with fewer elements are padded with zero elements, which change
    nothing. Every set must be complete within ``COMPLETENESS_TOL``.

    In the eigenbasis {|e_i>} of rho (eigenvalues l_i) the other qubits sit
    in the diagonal state with weights q_c = prod l, so the marginal map on
    qubit alpha has the elements sqrt(q_c) <r|A|c> for the other qubits'
    basis rows r and columns c. Its F_e is the sum of
    q_c |sum_i l_i <i r|A|i c>|^2 over them, divided by tr E(rho^{⊗n}).
    """
    kraus = np.asarray(kraus, dtype=complex)
    if kraus.ndim != 4 or kraus.shape[-1] != kraus.shape[-2]:
        raise ShapeError(f"expected a (N, k, dim, dim) stack, got shape {kraus.shape}")
    dim = kraus.shape[-1]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ShapeError(f"channel dimension {dim} is not a power of 2")
    if not 1 <= n <= 3:
        raise DomainError(f"block distortions are supported for n <= 3, got n={n}")
    if rho.dim != 2:
        raise DimensionMismatchError("rho must be a single-qubit state")
    _require_complete(kraus)
    eigvals, eigvecs = np.linalg.eigh(rho.mat)
    eigvals = np.clip(eigvals, 0.0, None)
    basis = functools.reduce(np.kron, [eigvecs] * n)
    rotated = basis.conj().T @ kraus @ basis
    weight = np.einsum(
        "nkrc,c->n", np.abs(rotated) ** 2, functools.reduce(np.kron, [eigvals] * n)
    )
    others = functools.reduce(np.kron, [eigvals] * (n - 1), np.ones(1))
    tensor = rotated.reshape(kraus.shape[:2] + (2,) * (2 * n))
    total = np.zeros(len(kraus))
    for alpha in range(n):
        # sum_i l_i <i|.|i> on qubit alpha leaves the (row, column) blocks
        traced = np.diagonal(tensor, axis1=2 + alpha, axis2=2 + n + alpha) @ eigvals
        blocks = traced.reshape(kraus.shape[:2] + (dim // 2, dim // 2))
        total += 1.0 - np.einsum("nkrc,c->n", np.abs(blocks) ** 2, others) / weight
    return total / n


def stinespring_kraus(
    rng: np.random.Generator, count: int, dim: int, k: int
) -> np.ndarray:
    """Stack of ``count`` random trace-preserving Kraus sets, shape (count, k, dim, dim).

    Each set is read off a Haar-random isometry from the system into
    system x environment (environment dimension k), so ``sum A_i† A_i = I``
    holds to unitary round-off.
    """
    z = rng.standard_normal((count, dim * k, dim)) + 1j * rng.standard_normal(
        (count, dim * k, dim)
    )
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, np.newaxis, :]
    return q.reshape(count, k, dim, dim)
