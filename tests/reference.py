"""Second routes to the package's quantities, for the tests to compare against.

Each function here takes one channel and, where it matters, one qubit at a
time, and does its own arithmetic: it applies channels, traces out qubits
and takes entropies with code of its own. From ``qubitrd`` it imports only
the containers ``DensityMatrix`` and ``KrausChannel``, the random Kraus
draw ``stinespring_kraus`` and the error types, so none of the functionals
it checks can leak into it (``tests/test_quantum.py`` guards that list).

* ``marginal_channel`` and ``choi_entanglement_fidelity``, with
  ``ChoiMatrix`` and ``partial_trace``: the per-qubit block distortion,
  qubit by qubit, that ``quantum.block_distortions`` takes in one pass.
* ``ancilla_source_state`` and ``joint_output``: the circuit's unitary run
  on the ancilla and the source, to check it against the pair it carries;
  ``measure_ancilla`` reads the outcome statistics off that output.
* ``von_neumann_entropy``: the entropy of a state from its spectrum.
* ``random_channel`` and ``random_density``: seeded test draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from qubitrd.errors import (
    AnnihilationError,
    ContractViolationError,
    DimensionMismatchError,
    DomainError,
    ShapeError,
)
from qubitrd.quantum import DensityMatrix, KrausChannel, stinespring_kraus

# Output weights at or below this count as annihilated.
WEIGHT_FLOOR = 1e-14
# Eigenvalues at or below this are eigensolver dust and count as 0.
EIGENVALUE_FLOOR = 1e-14


def _square(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ShapeError(f"dimension {dim} is not a power of 2")
    return n


def partial_trace(a, keep: Iterable[int]) -> np.ndarray:
    """Trace out all qubits except those in ``keep`` (1-based indices).

    ``a`` must act on n qubits (dimension ``2**n``). Kept qubits stay in
    their original order; an empty ``keep`` yields the 1x1 matrix
    ``[[trace(a)]]``.
    """
    m = _square(a)
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


def _apply(ch: KrausChannel, mat: np.ndarray) -> np.ndarray:
    """sum_i A_i mat A_i†, unnormalized."""
    out = np.zeros_like(mat)
    for a in ch.elements:
        out += a @ mat @ a.conj().T
    return out


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho log2 rho) in bits; 0·log 0 is treated as 0."""
    m = _square(rho.mat if isinstance(rho, DensityMatrix) else rho)
    if np.max(np.abs(m - m.conj().T)) > 1e-8:
        raise ContractViolationError("state must be Hermitian within 1e-8")
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -1e-8 or abs(np.sum(eigs) - 1.0) > 1e-8:
        raise ContractViolationError("state must be PSD with unit trace within 1e-8")
    eigs = np.where(eigs > EIGENVALUE_FLOOR, eigs, 1.0)  # 1 log 1 = 0
    return float(0.0 - np.sum(eigs * np.log2(eigs)))


@dataclass(frozen=True)
class ChoiMatrix:
    """Single-qubit map T stored blockwise: block (i, j) holds T(|i><j|)."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        if m.shape != (4, 4):
            raise ShapeError("Choi matrices are supported for single-qubit maps only")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def block(self, i: int, j: int) -> np.ndarray:
        return self.mat[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]


def marginal_channel(ch: KrausChannel, rho: DensityMatrix, alpha: int) -> ChoiMatrix:
    """Marginal map seen by qubit ``alpha`` (1-based) of an n-qubit operation.

    Each single-qubit basis operator |i><j| is placed in slot alpha with
    ``rho`` in every other slot; the channel output is then reduced back to
    that qubit. Supports n <= 3.
    """
    n = _qubit_count(ch.dim)
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
            reduced = partial_trace(_apply(ch, joint), keep={alpha})
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


def ancilla_source_state(src) -> np.ndarray:
    """Joint initial state |0><0|_A x rho_Q in the ancilla-first ordering."""
    ancilla = np.zeros((2, 2), dtype=complex)
    ancilla[0, 0] = 1.0
    return np.kron(ancilla, src.density().mat)


def joint_output(unitary, src) -> np.ndarray:
    """U Xi U† of a circuit's unitary [[A1, -A2], [A2, A1]]: block (i, j)
    holds A_i rho A_j†."""
    xi = ancilla_source_state(src)
    return unitary @ xi @ unitary.conj().T


def measure_ancilla(unitary, src) -> tuple[float, DensityMatrix | None, DensityMatrix | None]:
    """Ancilla measurement statistics and the conditional source states.

    Returns (p_type1, post1, post2), read off ``joint_output``: outcome i
    leaves the source in block (i, i), A_i rho A_i†, with probability its
    trace. An outcome with probability at or below ``WEIGHT_FLOOR`` has post
    state None.
    """
    joint = joint_output(unitary, src)
    weights, posts = [], []
    for i in (0, 1):
        block = joint[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        weight = float(np.trace(block).real)
        weights.append(weight)
        posts.append(DensityMatrix(block / weight) if weight > WEIGHT_FLOOR else None)
    return weights[0], posts[0], posts[1]


def random_channel(dim: int, k: int, seed: int) -> KrausChannel:
    """Random trace-preserving channel with k elements, deterministic per seed."""
    rng = np.random.default_rng(seed)
    kraus = stinespring_kraus(rng, 1, dim, k)[0]
    return KrausChannel(tuple(kraus))


def random_density(dim: int, seed: int) -> DensityMatrix:
    """Random density matrix (normalized Wishart), deterministic per seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return DensityMatrix(w / np.trace(w))
