"""Density matrices, Kraus channels, and the scalar functionals built on them.

A quantum operation is a set of elements {A_i} acting as
``rho -> sum_i A_i rho A_i†``; it is trace preserving when
``sum_i A_i† A_i = I``. On top of that this module provides the von Neumann
entropy, entanglement fidelity, the induced distortion ``1 - F_e``, entropy
exchange, coherent information, the average conditional output entropy, and
the machinery (marginal channels, Choi matrices) needed to score multi-qubit
operations one qubit at a time. ``average_entropies`` and
``block_distortions`` score a whole (N, k, dim, dim) stack of Kraus sets in
one call; the one-channel forms remain as their references.
"""

from __future__ import annotations

import functools
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

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


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


@dataclass(frozen=True)
class ChoiMatrix:
    """Single-qubit map T stored blockwise: block (i, j) holds T(|i><j|)."""

    mat: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.mat)
        if m.shape[0] != 4:
            raise ShapeError("Choi matrices are supported for single-qubit maps only")
        object.__setattr__(self, "mat", _frozen(m))

    def block(self, i: int, j: int) -> np.ndarray:
        return self.mat[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]


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


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho log2 rho) in bits; 0·log 0 is treated as 0."""
    m = _state_matrix(rho)
    if not linalg.is_hermitian(m, 1e-8):
        raise ContractViolationError("state must be Hermitian within 1e-8")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -1e-8 or abs(np.sum(eigs) - 1.0) > 1e-8:
        raise ContractViolationError("state must be PSD with unit trace within 1e-8")
    return float(eigenvalue_entropy(eigs))


def binary_entropy(p: float) -> float:
    """Shannon binary entropy h2(p) in bits."""
    if p < -1e-12 or p > 1 + 1e-12:
        raise DomainError(f"probability {p} outside [0, 1]")
    p = min(max(float(p), 0.0), 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


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


def coherent_information(rho, ch: KrausChannel) -> float:
    """I_c = S(normalized output) - S_e; may be negative."""
    out, weight = apply(ch, rho)
    return _entropy_of_psd(out / weight) - entropy_exchange(rho, ch)


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


def average_pure_state_fidelity(ensemble, ch: KrausChannel) -> float:
    """Ensemble-average fidelity sum_i p_i <psi_i| E(|psi_i><psi_i|) |psi_i>."""
    if not ch.trace_preserving:
        raise ContractViolationError(
            "average_pure_state_fidelity needs a trace-preserving channel"
        )
    if len(ensemble) == 0:
        raise ContractViolationError("ensemble must not be empty")
    kets, probs = [], []
    for state, prob in ensemble:
        ket = np.asarray(state, dtype=complex).reshape(-1)
        if ket.shape[0] != ch.dim:
            raise DimensionMismatchError("ensemble state dimension mismatch")
        norm = np.linalg.norm(ket)
        if abs(norm - 1.0) > 1e-10:
            raise ContractViolationError("ensemble states must be normalized kets")
        kets.append(ket)
        probs.append(float(prob))
    if abs(sum(probs) - 1.0) > 1e-10:
        raise ContractViolationError("ensemble probabilities must sum to 1")
    total = 0.0
    for ket, prob in zip(kets, probs):
        out = _apply_raw(ch, np.outer(ket, ket.conj()))
        total += prob * float(np.real(ket.conj() @ out @ ket))
    return total


def marginal_channel(ch: KrausChannel, rho: DensityMatrix, alpha: int) -> ChoiMatrix:
    """Marginal map seen by qubit ``alpha`` (1-based) of an n-qubit operation.

    Each single-qubit basis operator |i><j| is placed in slot alpha with
    ``rho`` in every other slot; the channel output is then reduced back to
    that qubit. Supports n <= 3.
    """
    n = ch.dim.bit_length() - 1
    if 2**n != ch.dim:
        raise ShapeError(f"channel dimension {ch.dim} is not a power of 2")
    if n > 3:
        raise DomainError(f"marginal channels are supported for n <= 3, got n={n}")
    if not 1 <= alpha <= n:
        raise DomainError(f"qubit index {alpha} outside 1..{n}")
    if rho.dim != 2:
        raise DimensionMismatchError("rho must be a single-qubit state")
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis_op = np.zeros((2, 2), dtype=complex)
            basis_op[i, j] = 1.0
            slots = [rho.mat] * n
            slots[alpha - 1] = basis_op
            joint = slots[0]
            for s in slots[1:]:
                joint = np.kron(joint, s)
            reduced = linalg.partial_trace(_apply_raw(ch, joint), keep={alpha})
            choi[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = reduced
    return ChoiMatrix(choi)


def choi_entanglement_fidelity(choi: ChoiMatrix, rho: DensityMatrix) -> float:
    """Entanglement fidelity of the map held in ``choi`` on the state ``rho``.

    Evaluated through the purification |Psi> = sum_i sqrt(l_i) |e_i>|e_i> in
    the eigenbasis of rho and normalized by the map's output trace, so it
    agrees with the Kraus-form expression whenever the map admits one.
    """
    if rho.dim != 2:
        raise DimensionMismatchError("rho must be a single-qubit state")
    eigvals, eigvecs = np.linalg.eigh(rho.mat)
    eigvals = np.clip(eigvals, 0.0, None)

    def mapped(x: np.ndarray) -> np.ndarray:
        # T(x) by linearity over the stored basis blocks.
        out = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(2):
                out += x[a, b] * choi.block(a, b)
        return out

    numerator = 0.0 + 0.0j
    for i in range(2):
        for j in range(2):
            ei, ej = eigvecs[:, i], eigvecs[:, j]
            t_ij = mapped(np.outer(ei, ej.conj()))
            numerator += eigvals[i] * eigvals[j] * (ei.conj() @ t_ij @ ej)
    weight = float(np.trace(mapped(rho.mat)).real)
    if weight <= WEIGHT_FLOOR:
        raise AnnihilationError(
            f"map annihilates the state (weight {weight:.3e})"
        )
    return float(np.real(numerator) / weight)


def block_distortions(kraus, rho: DensityMatrix) -> np.ndarray:
    """Per-qubit block distortion of every Kraus set in a (N, k, 2^n, 2^n) stack.

    Entry m is the average over the n <= 3 qubits of 1 - F_e(rho, marginal
    map of set m on that qubit): the quantity that ``marginal_channel`` and
    ``choi_entanglement_fidelity`` give one qubit and one channel at a time.
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


def block_distortion(ch: KrausChannel, rho: DensityMatrix) -> float:
    """Average over qubits of 1 - F_e(rho, marginal map on that qubit).

    ``block_distortions`` of the one channel, which must be trace preserving.
    """
    return float(block_distortions(np.stack(ch.elements)[np.newaxis], rho)[0])


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


def random_channel(dim: int, k: int, seed: int) -> KrausChannel:
    """Random trace-preserving channel with k elements, deterministic per seed."""
    rng = np.random.default_rng(seed)
    kraus = stinespring_kraus(rng, 1, dim, k)[0]
    return KrausChannel(tuple(kraus), trace_preserving=True)


def random_density(dim: int, seed: int) -> DensityMatrix:
    """Random density matrix (normalized Wishart), deterministic per seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return DensityMatrix(w / np.trace(w))
