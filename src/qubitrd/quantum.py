"""Density matrices, Kraus channels, and the scalar functionals built on them.

A quantum operation is a set of elements {A_i} acting as
``rho -> sum_i A_i rho A_i†``; it is trace preserving when
``sum_i A_i† A_i = I``. On top of that this module provides the paper's
three quantities: entanglement fidelity with the induced distortion
``1 - F_e``, entropy exchange, and the average conditional output entropy,
each one way. ``average_entropies`` and ``block_distortions`` score a whole
(N, k, dim, dim) stack of Kraus sets in one call; ``average_entropy`` and
``distortion`` are their one-set case. ``block_distortions``, the per-qubit
distortion of multi-qubit operations at a single-qubit rho, takes 1 - F_e as
the sum of squares sum_i ||(A_i - tr(rho A_i) I) rho^{1/2}||_F^2 / tr E(rho),
which does not cancel near F_e = 1. ``average_entropies`` takes the spectra
of the conditional outputs from one kernel, ``_live_spectra``: in closed
form at dim 2, which keeps the small eigenvalue of a near-pure output to
full relative precision, and by batched ``eigvalsh`` above. It runs only on
the live elements, those of weight above ``WEIGHT_FLOOR``, so the zero
padding of a stack gets no spectrum. Eigenvalues at or below
``EIGENVALUE_FLOOR`` count as 0 in the entropy. ``stinespring_kraus`` draws
random Kraus sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    AnnihilationError,
    ContractViolationError,
    DimensionMismatchError,
    DomainError,
    ShapeError,
)
from .errors import check_real, real_array

STATE_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
WEIGHT_FLOOR = 1e-14
# Eigenvalues below this are eigensolver dust; clamp to 0 before logarithms.
EIGENVALUE_FLOOR = 1e-14
_TINY = 5e-324  # smallest positive (subnormal) double
_LN2 = math.log(2.0)


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
        if not linalg.is_hermitian(m):
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


def _completeness_gaps(kraus: np.ndarray) -> np.ndarray:
    """max |sum A_i† A_i - I| of every set in a (N, k, dim, dim) stack."""
    n, k, _, dim = kraus.shape
    flat = kraus.reshape(n, k * dim, dim)
    total = flat.conj().swapaxes(-1, -2) @ flat
    return np.abs(total - np.eye(dim)).max(axis=(1, 2))


def _require_complete(kraus: np.ndarray) -> None:
    """Raise unless every set in a (N, k, dim, dim) stack has sum A_i† A_i = I."""
    gaps = _completeness_gaps(kraus)
    bad = np.flatnonzero(~(gaps <= COMPLETENESS_TOL))  # NaN is no completeness
    if bad.size:
        where = f" in set {bad[0]}" if len(kraus) > 1 else ""
        raise ContractViolationError(
            f"sum A_i† A_i deviates from identity by {gaps[bad[0]]:.3e}{where}"
        )


@dataclass(frozen=True)
class KrausChannel:
    """Quantum operation defined by an ordered set of operation elements."""

    elements: tuple[np.ndarray, ...]
    trace_preserving: bool = field(init=False)  # derived: sum A_i† A_i = I

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ContractViolationError("channel needs at least one element")
        mats = tuple(_frozen(linalg.as_matrix(e)) for e in self.elements)
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise DimensionMismatchError("all elements must share one dimension")
        object.__setattr__(self, "elements", mats)
        gap = _completeness_gaps(np.stack(mats)[np.newaxis])[0]
        object.__setattr__(self, "trace_preserving", bool(gap <= COMPLETENESS_TOL))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def k(self) -> int:
        return len(self.elements)


def _state_matrix(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else linalg.as_matrix(rho)


def _channel_state(ch: KrausChannel, rho) -> np.ndarray:
    """The matrix of rho, which must have the channel's dimension."""
    m = _state_matrix(rho)
    if m.shape[0] != ch.dim:
        raise DimensionMismatchError(
            f"state dimension {m.shape[0]} != channel dimension {ch.dim}"
        )
    return m


def _nonzero_weight(weight: float) -> float:
    """The output weight tr E(rho), which must exceed ``WEIGHT_FLOOR``."""
    if weight <= WEIGHT_FLOOR:
        raise AnnihilationError(f"operation annihilates the state (weight {weight:.3e})")
    return weight


def apply(ch: KrausChannel, rho) -> tuple[np.ndarray, float]:
    """Run the channel on a state; return the unnormalized output and its trace.

    The normalized state is ``out / weight``. For subnormalized operations the
    weight is the probability that this operation occurs.
    """
    m = _channel_state(ch, rho)
    out = np.zeros_like(m)
    for a in ch.elements:
        out += a @ m @ a.conj().T
    return out, _nonzero_weight(float(np.trace(out).real))


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


def _clipped(x, low: float, high: float, message: str) -> np.ndarray:
    """``x`` as a float array clipped to [low, high]; the first entry over 1e-12
    outside, or NaN, raises ``DomainError(message.format(entry))``, and so
    does input that is not real (``errors.real_array``), with its repr as
    the entry. Slow on a float."""
    x = real_array(x, message)
    inside = (x >= low - 1e-12) & (x <= high + 1e-12)
    if not inside.all():
        raise DomainError(message.format(x[~inside][0]))
    return np.minimum(np.maximum(x, low), high)


def binary_entropy(p):
    """Binary entropy h2(p) in bits, of a float or of each entry of an array.

    (m ln m + (1 - m) log1p(-m)) / -ln 2 with m = min(p, 1 - p), ln m
    taking its argument floored at the smallest positive double: 0 ln 0 = 0
    without a warning, and h2(0) = h2(1) = +0.0. This keeps full relative
    precision for a small m; a p near 1 has already lost the digits of
    1 - p, so a caller who knows 1 - p in closed form passes that. Entries
    within 1e-12 outside [0, 1] are clipped; any other, NaN included,
    raises ``DomainError``, as does a value that is not real. An int, a
    float, a ``np.float64`` or a 0-d array gives a float, an array an array.
    Both take the check and clip (``check_real`` on an int or a float,
    ``_clipped`` on anything else), then the unchecked kernel of their kind:
    ``_h2_float`` on a float, ``_h2_unchecked`` on an array (same bits).
    """
    if not isinstance(p, (int, float)):
        h = _h2_unchecked(_clipped(p, 0.0, 1.0, "probability {} outside [0, 1]"))
        return h if isinstance(h, np.ndarray) else float(h)
    p = check_real(p, -1e-12, 1 + 1e-12, "probability {} outside [0, 1]")
    # min and max written as comparisons, here and in _h2_float, which cost
    # a fraction of the builtins' calls and pick the same operand
    return _h2_float(0.0 if p < 0.0 else 1.0 if p > 1.0 else p)


def _h2_float(p: float) -> float:
    """h2 in bits of a Python float inside [0, 1], by the formula of
    ``binary_entropy`` with no range check and no clip: for arguments that
    the caller built inside [0, 1] itself. It runs in float arithmetic on
    numpy's logarithms (math's do not always give their bits), each turned
    into a float at once, and gets the bits of ``_h2_unchecked``'s entry."""
    q = 1.0 - p
    m = q if q < p else p
    floored = _TINY if m < _TINY else m
    nats = m * float(np.log(floored)) + (1.0 - m) * float(np.log1p(-m))
    return 0.0 - nats / _LN2


def _h2_unchecked(p):
    """h2 in bits of each entry of a float array inside [0, 1], by the
    formula of ``binary_entropy`` with no range check and no clip: for
    arrays that the caller built inside [0, 1] itself."""
    m = np.minimum(p, 1.0 - p)
    nats = m * np.log(np.maximum(m, _TINY)) + (1.0 - m) * np.log1p(-m)
    return 0.0 - nats / _LN2


def entanglement_fidelity(rho, ch: KrausChannel) -> float:
    """F_e = sum_i |tr(A_i rho)|^2 / tr(E(rho)), taken as 1 - ``distortion``.

    Measures how well the channel preserves the state together with its
    entanglement to any purifying reference system.
    """
    return 1.0 - distortion(rho, ch)


def distortion(rho, ch: KrausChannel) -> float:
    """d = 1 - F_e(rho, ch) for a single-qubit state rho, by the sum of squares
    of ``block_distortions`` at n = 1, which does not cancel where F_e is
    near 1. The set need not be trace preserving; a weight tr(E(rho)) at or
    below ``WEIGHT_FLOOR`` raises ``AnnihilationError``.
    """
    m = _channel_state(ch, rho)
    if m.shape[0] != 2:
        raise DimensionMismatchError("rho must be a single-qubit state")
    squares, weight = _distortion_terms(np.stack(ch.elements)[np.newaxis], m)
    return float(squares[0] / _nonzero_weight(weight[0]))


def exchange_matrix(rho, ch: KrausChannel) -> np.ndarray:
    """The k x k matrix W with W_ij = tr(A_i rho A_j†) / tr(E(rho))."""
    a = np.stack(ch.elements)
    w = np.einsum("iab,bc,jac->ij", a, _channel_state(ch, rho), a.conj())
    return w / _nonzero_weight(float(np.trace(w).real))


def entropy_exchange(rho, ch: KrausChannel) -> float:
    """Entropy generated in the environment: S(W) in bits.

    Zero whenever the channel has a single operation element.
    """
    return float(eigenvalue_entropy(np.linalg.eigvalsh(exchange_matrix(rho, ch))))


def average_entropy(ch: KrausChannel, rho) -> float:
    """Average conditional output entropy sum_i lambda_i S(A_i rho A_i† / lambda_i).

    This is the qubit rate charged to a trace-preserving operation when the
    index of the realized element is known: each conditional output is
    compressed losslessly at its own entropy. The one-set case of
    ``average_entropies``; an incomplete set raises, giving its gap.
    """
    kraus = np.stack(ch.elements)[np.newaxis]
    if not ch.trace_preserving:
        _require_complete(kraus)
    return float(average_entropies(kraus, _channel_state(ch, rho))[0])


def average_entropies(kraus, state) -> np.ndarray:
    """``average_entropy`` of every Kraus set in a (N, k, dim, dim) stack.

    Sets with fewer elements are padded with zero elements; like any element
    of weight at most ``WEIGHT_FLOOR`` they add nothing and get no spectrum.
    The live elements' spectra come from ``_live_spectra`` (closed form at
    dim 2, ``eigvalsh`` above), and eigenvalues at or below
    ``EIGENVALUE_FLOOR`` count as 0 (``eigenvalue_entropy``). Completeness
    is not checked here: ``block_distortions`` checks it on the same stack.
    A_i rho is one flat GEMM over every element of the stack, and its
    product with A_i† is ``_times_adjoint``.
    """
    kraus = np.asarray(kraus, dtype=complex)
    dim = kraus.shape[-1]
    state = _state_matrix(state)
    left = (kraus.reshape(-1, dim) @ state).reshape(kraus.shape)
    cond = _times_adjoint(left, kraus)
    lam = np.einsum("nkii->nk", cond).real
    live = np.flatnonzero(lam > WEIGHT_FLOOR)
    weights = np.take(lam, live)
    terms = np.zeros(lam.shape)
    eigs = _live_spectra(kraus, state, cond, live, weights)
    np.put(terms, live, weights * eigenvalue_entropy(eigs))
    return terms.sum(axis=1)


def _times_adjoint(left, kraus) -> np.ndarray:
    """L_i A_i† for every element A_i of a (N, k, dim, dim) stack and its
    L_i. numpy's batched matmul makes one small matmul per element; at dim 2
    the product is written out as two outer products over the whole stack,
    which is about four times faster on a few hundred elements and may
    differ from the matmul in the last bit. Above dim 2 the written-out form
    takes dim outer products, and the matmul is faster.
    """
    right = kraus.conj()
    if kraus.shape[-1] == 2:
        return left[..., :1] * right[..., None, :, 0] + left[..., 1:] * right[..., None, :, 1]
    return left @ right.swapaxes(-1, -2)


def _live_spectra(kraus, state, cond, live, weights) -> np.ndarray:
    """Ascending spectra of the conditional outputs A rho A† / lambda of the
    live elements A of a Kraus stack, one row per element; the others are
    not touched.

    ``cond`` is the stack of A rho A†, ``live`` the flat indices of the live
    elements and ``weights`` their lambda = tr A rho A†. At dim 2 the
    spectrum is in closed form: l_max = (lambda + sqrt((a - d)^2 + 4|b|^2))
    / 2 from A rho A† = [[a, b], [b*, d]], a sum of positive terms (the root
    taken by ``hypot``), and l_min = |det A|^2 det rho / l_max, which does
    not cancel as a d - |b|^2 does at near-pure outputs. Above dim 2 it is
    batched ``eigvalsh``.
    """
    dim = cond.shape[-1]
    cond = np.take(cond.reshape(-1, dim, dim), live, axis=0)
    if dim != 2:
        return np.linalg.eigvalsh(cond / weights[:, None, None])
    a = np.take(kraus.reshape(-1, 2, 2), live, axis=0)
    det_a = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    det_rho = (state[0, 0] * state[1, 1] - state[0, 1] * state[1, 0]).real
    eigs = np.empty((live.size, 2))
    top = eigs[:, 1]
    np.hypot(cond[:, 0, 0].real - cond[:, 1, 1].real, 2.0 * np.abs(cond[:, 0, 1]), out=top)
    top += weights
    top *= 0.5
    eigs[:, 0] = np.abs(det_a) ** 2 * det_rho / top
    eigs /= weights[:, None]
    return eigs


def _distortion_terms(kraus: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of squares S and weights W = tr E(rho^{⊗n}) of a (N, k, 2^n, 2^n)
    stack at a 2x2 state rho, unchecked. S / W sums over the qubits
    1 - F_e = sum_j ||(M_j - tr(rho M_j) I) rho^{1/2}||_F^2 / W of the marginal
    map {M_j}, in rho's eigenbasis (eigenvalues l0, l1)
    sum_j (l0 l1 |M00 - M11|^2 + l1 |M01|^2 + l0 |M10|^2) / W: no term cancels.
    The other qubits sit in the diagonal state q_c = prod l, so the marginal
    map has the elements sqrt(q_c) <r|A|c> over their rows r and columns c.
    The rotation into that basis, B† A B, is two flat GEMMs over every matrix
    of the stack (A^T B* for (B† A)^T, then ·B), not one small matmul per
    matrix; it is made C-contiguous before the sums, whose order a strided
    view would change. At a rho with a permutation eigenbasis (diagonal, or
    I/2) the rotation is exact; elsewhere it may differ from the broadcast
    product B† @ A @ B by round-off (S and W by under 1e-15 relative).
    """
    dim = kraus.shape[-1]
    n = dim.bit_length() - 1
    eigvals, eigvecs = np.linalg.eigh(rho)
    l0, l1 = eigvals = np.clip(eigvals, 0.0, None)
    basis = functools.reduce(np.kron, [eigvecs] * n)
    left = kraus.swapaxes(-1, -2).reshape(-1, dim) @ basis.conj()
    left = left.reshape(kraus.shape).swapaxes(-1, -2).reshape(-1, dim)
    rotated = (left @ basis).reshape(kraus.shape)
    columns = functools.reduce(np.kron, [eigvals] * n)
    weight = np.einsum("nkrc,c->n", np.abs(rotated) ** 2, columns)
    others = functools.reduce(np.kron, [eigvals] * (n - 1), np.ones(1))
    tensor = rotated.reshape(kraus.shape[:2] + (2,) * (2 * n))
    squares = np.zeros(len(kraus))
    for alpha in range(n):
        # qubit alpha's row and column last, the other qubits' before them
        m = np.moveaxis(tensor, (2 + alpha, 2 + n + alpha), (-2, -1))
        terms = l0 * l1 * np.abs(m[..., 0, 0] - m[..., 1, 1]) ** 2
        terms += l1 * np.abs(m[..., 0, 1]) ** 2 + l0 * np.abs(m[..., 1, 0]) ** 2
        terms = terms.reshape(kraus.shape[:2] + (dim // 2, dim // 2))
        squares += np.einsum("nkrc,c->n", terms, others)
    return squares, weight


def block_distortions(kraus, rho) -> np.ndarray:
    """Per-qubit block distortion of every Kraus set in a (N, k, 2^n, 2^n) stack.

    Entry m is the average over the n <= 3 qubits of 1 - F_e(rho, marginal
    map of set m on that qubit), a sum of squares (``_distortion_terms``).
    ``tests/reference.py`` takes the same quantity one qubit and one channel
    at a time, through the marginal map's Choi matrix. Sets with fewer
    elements are padded with zero elements, which change nothing. Every set
    must be complete within ``COMPLETENESS_TOL``; rho may be a plain matrix.
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
    rho = _state_matrix(rho)
    if rho.shape[0] != 2:
        raise DimensionMismatchError("rho must be a single-qubit state")
    _require_complete(kraus)
    squares, weight = _distortion_terms(kraus, rho)
    return squares / weight / n


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian draws a + ib, a and b from two
    ``standard_normal`` calls in that order, written into the real and
    imaginary parts of one complex array, with no complex temporaries."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def stinespring_kraus(
    rng: np.random.Generator, count: int, dim: int, k: int
) -> np.ndarray:
    """Stack of ``count`` random trace-preserving Kraus sets, shape (count, k, dim, dim).

    Each set is read off a Haar-random isometry from the system into
    system x environment (environment dimension k), so ``sum A_i† A_i = I``
    holds to unitary round-off.
    """
    q, r = np.linalg.qr(complex_normal(rng, (count, dim * k, dim)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[:, np.newaxis, :]
    return q.reshape(count, k, dim, dim)
