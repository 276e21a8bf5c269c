import ast
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qubitrd import errors, linalg, quantum, realization
from qubitrd.errors import (
    AnnihilationError,
    ContractViolationError,
    DimensionMismatchError,
    DomainError,
    InternalNumericError,
    ShapeError,
)
from qubitrd.quantum import DensityMatrix, KrausChannel
from qubitrd.ratedistortion import SourceSpec, pair_channel, r1_curve_point

I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

RHO_73 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
MIXED = DensityMatrix(I2 / 2)
DEPHASING = KrausChannel((P0, P1))
IDENTITY = KrausChannel((I2,))

# High-precision reference values for the binary entropy (40-digit evaluation).
H2_03 = 0.8812908992306926182
H2_025 = 0.8112781244591328639
H2_01 = 0.4689955935892812213


def test_density_matrix_validation():
    with pytest.raises(ContractViolationError):
        DensityMatrix(np.diag([0.7, 0.4]).astype(complex))
    with pytest.raises(ContractViolationError):
        DensityMatrix(np.array([[1.2, 0], [0, -0.2]], dtype=complex))
    with pytest.raises(ContractViolationError):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))


RAGGED_STACK = [[[[1, 0], [0, 1]]], [[1]]]


@pytest.mark.parametrize(
    ("build", "given"),
    [
        (DensityMatrix, [[1, 0], [0]]),
        (DensityMatrix, "ab"),
        (lambda m: KrausChannel((m,)), [[1, 0], [0]]),
        (lambda k: quantum.block_distortions(k, I2 / 2), RAGGED_STACK),
        (lambda k: quantum.average_entropies(k, I2 / 2), RAGGED_STACK),
    ],
    ids=["density", "density-str", "kraus", "block_distortions", "average_entropies"],
)
def test_unreadable_matrix_input_raises_shape_error(build, given):
    # Input numpy cannot read as a complex array raises ShapeError, a
    # ValueError, naming the input, not numpy's own ValueError.
    with pytest.raises(ShapeError) as exc:
        build(given)
    assert repr(given) in str(exc.value)


def test_density_matrix_properties():
    assert RHO_73.dim == 2


def test_kraus_channel_derives_trace_preserving():
    # completeness is read off the elements within COMPLETENESS_TOL, never
    # passed in
    stinespring = quantum.stinespring_kraus(np.random.default_rng(5), 6, 4, 3)
    for ch in [pair_channel(0.3, 0.7), DEPHASING, IDENTITY]:
        assert ch.trace_preserving is True
    for kraus in stinespring:
        assert KrausChannel(tuple(kraus)).trace_preserving is True
    assert KrausChannel((P0,)).trace_preserving is False
    off = KrausChannel((P0 * math.sqrt(1.0 + 1e-9), P1))
    assert off.trace_preserving is False
    assert KrausChannel((P0 * math.sqrt(1.0 + 1e-11), P1)).trace_preserving is True
    with pytest.raises(TypeError):
        KrausChannel((P0, P1), trace_preserving=False)
    with pytest.raises(AttributeError):  # read-only, like every field
        DEPHASING.trace_preserving = False
    assert DEPHASING.k == 2 and DEPHASING.dim == 2


def test_apply_identity():
    out, weight = quantum.apply(IDENTITY, RHO_73)
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out, RHO_73.mat)


def test_apply_dephasing_fixes_diagonal():
    out, weight = quantum.apply(DEPHASING, RHO_73)
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out, RHO_73.mat)


def test_apply_subnormalized_element():
    ch = KrausChannel((P0,))
    out, weight = quantum.apply(ch, RHO_73)
    assert weight == pytest.approx(0.7, abs=1e-12)
    assert np.allclose(out, np.diag([0.7, 0.0]))


def test_apply_annihilation():
    ch = KrausChannel((P0,))
    with pytest.raises(AnnihilationError):
        quantum.apply(ch, DensityMatrix(P1))


def test_von_neumann_entropy_values():
    assert reference.von_neumann_entropy(MIXED) == pytest.approx(1.0, abs=1e-12)
    assert reference.von_neumann_entropy(DensityMatrix(P0)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert reference.von_neumann_entropy(RHO_73) == pytest.approx(H2_03, abs=1e-12)


def test_von_neumann_entropy_rejects_invalid():
    with pytest.raises(ContractViolationError):
        reference.von_neumann_entropy(np.diag([0.5, 0.4]).astype(complex))


def test_binary_entropy():
    assert quantum.binary_entropy(0.5) == 1.0
    assert quantum.binary_entropy(0.0) == 0.0
    assert quantum.binary_entropy(1.0) == 0.0
    assert quantum.binary_entropy(0.75) == pytest.approx(H2_025, abs=1e-15)
    with pytest.raises(DomainError):
        quantum.binary_entropy(1.01)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0))
def test_binary_entropy_symmetric(p):
    assert quantum.binary_entropy(p) == pytest.approx(
        quantum.binary_entropy(1 - p), abs=1e-12
    )


def test_binary_entropy_exact_at_endpoints_on_arrays():
    # 0 ln 0 = 0 exactly, and without a warning (pytest makes it an error)
    values = quantum.binary_entropy(np.array([0.0, 1.0, 0.5, 0.3, 0.1]))
    assert isinstance(values, np.ndarray)
    assert values[0] == 0.0 and values[1] == 0.0 and values[2] == 1.0
    assert not np.signbit(values[:2]).any()
    assert values[3:] == pytest.approx([H2_03, H2_01], abs=1e-15)


# Subnormal, tiny and next-to-1 probabilities, which a float path with its
# own formula would be likeliest to round differently; signed zeros, 1/2 and
# its two neighbours, where a float's m = min(p, 1 - p) switches operand;
# integers, and values within the 1e-12 that a float's own check and clip
# let through.
EDGE_PROBABILITIES = [5e-324, 2.2e-308, 1e-300, 1e-15, 2.0**-53, 1.0 - 2.0**-53]
EDGE_PROBABILITIES += [0.0, -0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
EDGE_PROBABILITIES += [0, 1, 0.3, -1e-12, -5e-13, 1.0 + 5e-13, 1.0 + 1e-12]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(0.0, 1.0) | st.sampled_from(EDGE_PROBABILITIES),
        min_size=1,
        max_size=16,
    )
)
def test_binary_entropy_float_is_its_array_entry(ps):
    ps += EDGE_PROBABILITIES
    stacked = quantum.binary_entropy(np.array(ps))
    for p, h in zip(ps, stacked):
        one = quantum.binary_entropy(p)
        assert type(one) is float
        assert np.float64(one).tobytes() == h.tobytes()


def test_binary_entropy_float_bits_on_seeded_draws():
    # The float path runs in float arithmetic on numpy's two logarithms;
    # every result keeps the bits of the array entry, over the whole unit
    # interval and over every decade down to the subnormals.
    rng = np.random.default_rng(28)
    uniform, log_uniform = rng.uniform(0.0, 1.0, 100_000), 10.0 ** rng.uniform(-323.0, 0.0, 100_000)
    draws = np.concatenate([uniform, log_uniform])
    floats = np.array([quantum.binary_entropy(p) for p in draws.tolist()])
    differ = np.flatnonzero(floats.view(np.int64) != quantum.binary_entropy(draws).view(np.int64))
    assert not differ.size, f"float and array h2 differ at {draws[differ[:3]]}"


def test_binary_entropy_stack_keeps_each_rows_bits():
    # A curve evaluation takes its three h2 in one call over a (3, n) stack;
    # h2 is elementwise, so every entry of the stack equals, bit for bit,
    # its row's own 1-D call, its own float call and the unchecked float
    # kernel that a single curve point calls.
    rng = np.random.default_rng(31)
    edges = [0.0, 5e-324, 2.2e-308, 1e-310, 1e-15, 0.5, 1.0]
    rows = [np.concatenate([rng.uniform(0.0, 0.5, 510), edges]) for _ in range(3)]
    for row in rows:
        rng.shuffle(row)
    stacked = quantum.binary_entropy(np.array(rows))
    assert stacked.shape == (3, len(rows[0]))
    for row, h in zip(rows, stacked):
        assert quantum.binary_entropy(row).tobytes() == h.tobytes()
        floats = np.array([quantum.binary_entropy(p) for p in row.tolist()])
        assert floats.tobytes() == h.tobytes()
        kernel = [quantum._h2_float(p) for p in row.tolist()]
        assert all(type(k) is float for k in kernel)
        assert np.array(kernel).tobytes() == h.tobytes()


@pytest.mark.parametrize(
    "p, kind",
    [
        (0, float),
        (1, float),
        (0.3, float),
        (np.float64(0.3), float),
        (np.array(0.3), float),
        (np.array([0.3]), np.ndarray),
        (np.array([[0.3, 0.5]]), np.ndarray),
    ],
)
def test_binary_entropy_return_types(p, kind):
    h = quantum.binary_entropy(p)
    assert type(h) is kind
    entries = quantum.binary_entropy(np.asarray(p, dtype=float).reshape(-1))
    assert np.asarray(h, dtype=float).tobytes() == entries.tobytes()


@pytest.mark.parametrize("p", [1e-15, 1e-8, 1e-3, 0.3, 1.0 - 2.0**-20])
def test_binary_entropy_keeps_relative_precision(p):
    # h2 of m = min(p, 1 - p) with the complement's log as log1p(-m): taking
    # log(1 - p) by subtraction read h2(1e-15) 2.2e-5 high.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        m = mp.mpf(min(p, 1.0 - p))
        exact = -(m * mp.log(m, 2) + (1 - m) * mp.log(1 - m, 2))
        assert abs(quantum.binary_entropy(p) - exact) <= 4e-16 * exact


@pytest.mark.parametrize("bad", [-2e-12, 1.0 + 2e-12, -0.5, 1.5, 2, math.inf, -math.inf, math.nan])
def test_binary_entropy_rejects_any_entry_outside_unit_interval(bad):
    # NaN is not a probability: it raises like any other entry outside [0, 1].
    with pytest.raises(DomainError):
        quantum.binary_entropy(np.array([0.2, 0.5, bad, 0.9]))
    with pytest.raises(DomainError):
        quantum.binary_entropy(bad)


def test_binary_entropy_clips_within_tolerance():
    values = quantum.binary_entropy(np.array([-1e-12, 1.0 + 1e-12]))
    assert values.tolist() == [0.0, 0.0]


def test_entanglement_fidelity_identity():
    assert quantum.entanglement_fidelity(RHO_73, IDENTITY) == pytest.approx(
        1.0, abs=1e-12
    )


def test_entanglement_fidelity_dephasing():
    # Projecting onto the source basis keeps p0^2 + p1^2 of the entanglement.
    assert quantum.entanglement_fidelity(RHO_73, DEPHASING) == pytest.approx(
        0.58, abs=1e-12
    )


def test_entanglement_fidelity_single_element():
    ch = KrausChannel((P0,))
    assert quantum.entanglement_fidelity(RHO_73, ch) == pytest.approx(
        0.49 / 0.7, abs=1e-12
    )


def test_distortion_examples():
    assert quantum.distortion(RHO_73, IDENTITY) == pytest.approx(0.0, abs=1e-12)
    assert quantum.distortion(RHO_73, DEPHASING) == pytest.approx(0.42, abs=1e-12)
    a = np.diag([np.cos(np.pi / 4), np.sin(np.pi / 4)]).astype(complex)
    assert quantum.distortion(MIXED, KrausChannel((a,))) == pytest.approx(
        0.0, abs=1e-12
    )


def test_distortion_is_one_minus_fidelity_exactly():
    for seed in range(30):
        ch = reference.random_channel(2, seed % 3 + 1, seed)
        rho = reference.random_density(2, 500 + seed)
        assert quantum.entanglement_fidelity(rho, ch) == 1.0 - quantum.distortion(
            rho, ch
        )


def test_distortion_annihilation():
    with pytest.raises(AnnihilationError):
        quantum.distortion(DensityMatrix(P1), KrausChannel((P0,)))


def _oracle_block_distortion(mp, elements, p):
    """Per-qubit 1 - F_e, averaged over the qubits, of diagonal n-qubit
    elements at the source diag(p) on every qubit, in 50-digit arithmetic
    on the same float entries. For qubit alpha the marginal map has the
    elements sqrt(q_c) <c|E|c> over the other qubits' basis states c, so
    F_e = sum_{E, c} q_c (p0 E_(0, c) + p1 E_(1, c))^2 / W with
    W = sum_{E, x} q_x E_x^2."""
    dim = elements.shape[-1]
    n = dim.bit_length() - 1
    assert np.array_equal(elements, [np.diag(np.diagonal(e)) for e in elements])
    assert not np.any(elements.imag)
    with mp.workdps(50):
        p = [mp.mpf(float(x)) for x in p]
        diags = [[mp.mpf(float(x)) for x in np.diagonal(e).real] for e in elements]

        def q(x, skip=None):
            out = mp.mpf(1)
            for qubit in range(n):
                if qubit != skip:
                    out *= p[(x >> (n - 1 - qubit)) & 1]
            return out

        weight = sum(q(x) * e[x] ** 2 for e in diags for x in range(dim))
        total = mp.mpf(0)
        for alpha in range(n):
            bit = 1 << (n - 1 - alpha)
            fidelity = sum(
                q(x, alpha) * (p[0] * e[x] + p[1] * e[x | bit]) ** 2
                for e in diags
                for x in range(dim)
                if not x & bit
            )
            total += 1 - fidelity / weight
        return total / n


@pytest.mark.parametrize("delta", [1e-8, 1e-6, 1e-4, 1e-2, 1.5])
@pytest.mark.parametrize("p0", [0.5, 0.7, 0.9, 0.999])
def test_distortion_of_solved_pair_matches_mpmath(p0, delta):
    # 1 - F_e of the pair that the curve solves, against 50 digits of the
    # same float entries (not against the closed form 2 d_max sin^2(D/2),
    # from which the rounded entries themselves sit up to 8.6e-9 relative
    # at p0 = 1/2): distortion and block_distortions at n = 1, and
    # block_distortions on pair x pair (n = 2)
    mp = pytest.importorskip("mpmath")
    src = SourceSpec(p0)
    rho = src.density()
    pair = pair_channel(r1_curve_point(delta, src).alpha, delta)
    single = np.stack(pair.elements)
    double = np.stack([np.kron(a, b) for a in pair.elements for b in pair.elements])
    p = np.diagonal(rho.mat).real
    cases = (
        (quantum.distortion(rho, pair), single),
        (quantum.block_distortions(single[np.newaxis], rho)[0], single),
        (quantum.block_distortions(double[np.newaxis], rho)[0], double),
    )
    for got, elements in cases:
        exact = _oracle_block_distortion(mp, elements, p)
        assert abs(got - exact) <= 1e-15 * exact


def test_entropy_exchange_single_element_is_zero():
    assert quantum.entropy_exchange(RHO_73, KrausChannel((P0,))) == 0.0
    assert quantum.entropy_exchange(RHO_73, IDENTITY) == 0.0


def test_entropy_exchange_dephasing_on_mixed():
    # W = diag(1/2, 1/2).
    assert quantum.entropy_exchange(MIXED, DEPHASING) == pytest.approx(
        1.0, abs=1e-12
    )


def test_entropy_exchange_unitary_channel_is_zero():
    for seed in range(20):
        u = quantum.stinespring_kraus(np.random.default_rng(seed), 1, 2, 1)[0, 0]
        ch = KrausChannel((u,))
        rho = reference.random_density(2, seed)
        assert quantum.entropy_exchange(rho, ch) <= 1e-10


def test_entropy_exchange_matches_explicit_dilation():
    # Oracle: carry a purification through an explicit isometry into an
    # environment qubit and take the environment's entropy directly.
    rng = np.random.default_rng(23)
    for trial in range(200):
        rho = reference.random_density(2, 1000 + trial)
        ch = reference.random_channel(2, 2, 2000 + trial)
        eigvals, eigvecs = np.linalg.eigh(rho.mat)
        amp = np.zeros((2, 2, 2), dtype=complex)  # [r, q, e]
        for i in range(2):
            for e, a in enumerate(ch.elements):
                amp[i, :, e] += np.sqrt(max(eigvals[i], 0.0)) * (a @ eigvecs[:, i])
        # reorder reference eigenbasis back: amplitude over R uses |e_i> labels,
        # which is fine since entropy is basis independent
        flat = amp.reshape(4, 2)
        rho_env = flat.conj().T @ flat
        env_entropy = reference.von_neumann_entropy(rho_env / np.trace(rho_env))
        assert quantum.entropy_exchange(rho, ch) == pytest.approx(
            env_entropy, abs=1e-8
        )


def test_average_entropy_identity():
    assert quantum.average_entropy(IDENTITY, RHO_73) == pytest.approx(
        H2_03, abs=1e-12
    )


def test_average_entropy_dephasing_is_zero():
    rho = DensityMatrix(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
    assert quantum.average_entropy(DEPHASING, rho) == pytest.approx(0.0, abs=1e-12)


def test_average_entropy_isotropic_pair():
    for theta in (0.2, 0.5, np.pi / 4):
        a1 = np.diag([np.cos(theta), np.sin(theta)]).astype(complex)
        a2 = np.diag([np.sin(theta), np.cos(theta)]).astype(complex)
        ch = KrausChannel((a1, a2))
        expected = quantum.binary_entropy(np.cos(theta) ** 2)
        assert quantum.average_entropy(ch, MIXED) == pytest.approx(
            expected, abs=1e-12
        )


def test_average_entropy_requires_trace_preserving():
    # the message gives the completeness gap
    with pytest.raises(ContractViolationError, match="by 1.000e\\+00$"):
        quantum.average_entropy(KrausChannel((P0,)), RHO_73)
    off = KrausChannel((P0 * math.sqrt(1.0 + 1e-9), P1))
    with pytest.raises(ContractViolationError, match="by 1.000e-09$"):
        quantum.average_entropy(off, RHO_73)
    # a NaN gap is no completeness, for the flag and the check alike
    nan = KrausChannel((P0 * math.nan, P1))
    assert nan.trace_preserving is False
    with pytest.raises(ContractViolationError, match="by nan$"):
        quantum.average_entropy(nan, RHO_73)
    with pytest.raises(ContractViolationError, match="by nan$"):
        quantum.block_distortions([nan.elements], RHO_73)


def _choi_from_kraus(ch):
    mat = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            block = sum(a @ basis @ a.conj().T for a in ch.elements)
            mat[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
    return reference.ChoiMatrix(mat)


def test_marginal_channel_of_product_channel():
    ch1 = reference.random_channel(2, 2, 31)
    ch2 = reference.random_channel(2, 3, 32)
    elements = tuple(
        np.kron(a, b) for a in ch1.elements for b in ch2.elements
    )
    joint = KrausChannel(elements)
    got = reference.marginal_channel(joint, RHO_73, 1)
    assert np.allclose(got.mat, _choi_from_kraus(ch1).mat, atol=1e-10)
    got2 = reference.marginal_channel(joint, RHO_73, 2)
    assert np.allclose(got2.mat, _choi_from_kraus(ch2).mat, atol=1e-10)


def test_marginal_channel_of_identity():
    ident4 = KrausChannel((np.eye(4, dtype=complex),))
    for alpha in (1, 2):
        got = reference.marginal_channel(ident4, RHO_73, alpha)
        assert np.allclose(got.mat, _choi_from_kraus(IDENTITY).mat, atol=1e-12)


def test_marginal_channel_of_swap_is_replacement():
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    ch = KrausChannel((swap,))
    got = reference.marginal_channel(ch, RHO_73, 1)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 0:2] = RHO_73.mat
    expected[2:4, 2:4] = RHO_73.mat
    assert np.allclose(got.mat, expected, atol=1e-12)


def test_marginal_channel_index_out_of_range():
    ident4 = KrausChannel((np.eye(4, dtype=complex),))
    with pytest.raises(DomainError):
        reference.marginal_channel(ident4, RHO_73, 3)


def test_choi_fidelity_of_identity():
    choi = _choi_from_kraus(IDENTITY)
    assert reference.choi_entanglement_fidelity(choi, RHO_73) == pytest.approx(
        1.0, abs=1e-12
    )


def test_choi_fidelity_of_replacement_map():
    # Purification-formula oracle: output is diag(p) x rho, so
    # F_e = sum_i p_i^3 (0.37 at p0 = 0.7).
    mat = np.zeros((4, 4), dtype=complex)
    mat[0:2, 0:2] = RHO_73.mat
    mat[2:4, 2:4] = RHO_73.mat
    expected = 0.7**3 + 0.3**3
    assert reference.choi_entanglement_fidelity(
        reference.ChoiMatrix(mat), RHO_73
    ) == pytest.approx(expected, abs=1e-12)


def test_choi_fidelity_of_dephasing_cross_check():
    choi = _choi_from_kraus(DEPHASING)
    assert reference.choi_entanglement_fidelity(choi, RHO_73) == pytest.approx(
        0.58, abs=1e-12
    )


def test_choi_fidelity_matches_kraus_route():
    rng = np.random.default_rng(41)
    for trial in range(100):
        ch = reference.random_channel(2, int(rng.integers(1, 5)), 5000 + trial)
        rho = reference.random_density(2, 6000 + trial)
        direct = quantum.entanglement_fidelity(rho, ch)
        via_choi = reference.choi_entanglement_fidelity(_choi_from_kraus(ch), rho)
        assert abs(direct - via_choi) <= 1e-9


def test_block_distortion_identity():
    ident4 = KrausChannel((np.eye(4, dtype=complex),))
    assert quantum.block_distortions([ident4.elements], RHO_73)[0] == pytest.approx(
        0.0, abs=1e-12
    )


def test_block_distortion_product_channel():
    ch = reference.random_channel(2, 2, 55)
    elements = tuple(np.kron(a, b) for a in ch.elements for b in ch.elements)
    joint = KrausChannel(elements)
    assert quantum.block_distortions([joint.elements], RHO_73)[0] == pytest.approx(
        quantum.distortion(RHO_73, ch), abs=1e-10
    )


def test_block_distortion_two_qubit_dephasing():
    elements = []
    for i in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[i, i] = 1.0
        elements.append(e)
    ch = KrausChannel(tuple(elements))
    assert quantum.block_distortions([ch.elements], RHO_73)[0] == pytest.approx(
        0.42, abs=1e-12
    )


def _padded_random_stack(rng, dim, ks):
    stack = np.zeros((len(ks), 4, dim, dim), dtype=complex)
    for m, k in enumerate(ks):
        stack[m, :k] = quantum.stinespring_kraus(rng, 1, dim, k)[0]
    return stack


@pytest.mark.parametrize("rho", [RHO_73, MIXED], ids=["diag-0.7-0.3", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_distortions_match_marginal_loop(n, rho):
    # the stacked kernel against the reference route of tests/reference.py,
    # one channel and one qubit at a time: marginal_channel, then
    # choi_entanglement_fidelity
    ks = [1, 2, 3, 4, 3, 1, 4, 2]
    stack = _padded_random_stack(np.random.default_rng(40 + n), 2**n, ks)
    got = quantum.block_distortions(stack, rho)
    assert got.shape == (len(ks),)
    for m, k in enumerate(ks):
        ch = KrausChannel(tuple(stack[m, :k]))
        expected = np.mean(
            [
                1.0 - reference.choi_entanglement_fidelity(
                    reference.marginal_channel(ch, rho, alpha), rho
                )
                for alpha in range(1, n + 1)
            ]
        )
        assert abs(got[m] - expected) <= 1e-14
        # one channel as a one-set stack
        assert abs(quantum.block_distortions([ch.elements], rho)[0] - expected) <= 1e-14


def test_block_distortions_take_a_plain_matrix():
    # like every functional, block_distortions takes a state as its bare
    # matrix, which passes DensityMatrix's checks, and gives the same bits
    stack = _padded_random_stack(np.random.default_rng(4), 4, [2, 1, 3])
    got = quantum.block_distortions(stack, RHO_73.mat)
    assert got.tobytes() == quantum.block_distortions(stack, RHO_73).tobytes()
    with pytest.raises(DimensionMismatchError):
        quantum.block_distortions(stack, np.eye(4) / 4)


# Every public functional of a state, at a state rho of one qubit: a random
# three-element channel and a stack of four random three-element sets.
RANDOM_CHANNEL = KrausChannel(
    tuple(quantum.stinespring_kraus(np.random.default_rng(5), 1, 2, 3)[0])
)
RANDOM_STACK = quantum.stinespring_kraus(np.random.default_rng(6), 4, 2, 3)
STATE_FUNCTIONALS = {
    "apply": lambda rho: quantum.apply(RANDOM_CHANNEL, rho),
    "distortion": lambda rho: quantum.distortion(rho, RANDOM_CHANNEL),
    "entanglement_fidelity": lambda rho: quantum.entanglement_fidelity(rho, RANDOM_CHANNEL),
    "entropy_exchange": lambda rho: quantum.entropy_exchange(rho, RANDOM_CHANNEL),
    "average_entropy": lambda rho: quantum.average_entropy(RANDOM_CHANNEL, rho),
    "average_entropies": lambda rho: quantum.average_entropies(RANDOM_STACK, rho),
    "block_distortions": lambda rho: quantum.block_distortions(RANDOM_STACK, rho),
}
# Bare 2x2 matrices that are no state: each breaks one check of DensityMatrix.
NOT_STATES = {
    "negative-eigenvalue": [[0.5, 0.7], [0.7, 0.5]],
    "non-hermitian": [[1, 5], [0, 0]],
    "trace": [[0.7, 0.0], [0.0, 0.4]],
}


@pytest.mark.parametrize("bad", NOT_STATES.values(), ids=NOT_STATES.keys())
@pytest.mark.parametrize("functional", STATE_FUNCTIONALS.values(), ids=STATE_FUNCTIONALS.keys())
def test_functionals_check_a_bare_state_as_a_density_matrix(functional, bad):
    # a bare matrix takes DensityMatrix's checks: the negative eigenvalue of
    # the first gave average_entropy an entropy of -0.3156 when it took none
    with pytest.raises(ContractViolationError):
        functional(bad)


def _bits(value):
    # the bytes of a float, an array, or each of a tuple of them
    parts = value if isinstance(value, tuple) else (value,)
    return [np.asarray(part).tobytes() for part in parts]


@pytest.mark.parametrize("functional", STATE_FUNCTIONALS.values(), ids=STATE_FUNCTIONALS.keys())
def test_functionals_give_a_bare_state_the_bits_of_its_density_matrix(functional):
    for rho in (RHO_73, DensityMatrix(np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))):
        assert _bits(functional(rho.mat)) == _bits(functional(rho))


@pytest.mark.parametrize(
    "kraus, state, error",
    [
        (np.eye(2), I2 / 2, ShapeError),
        (np.zeros((1, 1, 2, 3)), I2 / 2, ShapeError),
        (np.zeros((1, 1, 3, 3)), I2 / 2, ShapeError),
        (np.zeros((1, 1, 4, 4)), I2 / 2, DimensionMismatchError),
    ],
    ids=["2-d", "non-square", "dim-3", "dim-4-at-qubit"],
)
def test_average_entropies_reject_a_stack_that_does_not_fit(kraus, state, error):
    with pytest.raises(error):
        quantum.average_entropies(kraus, state)


def test_block_distortions_reject_incomplete_set():
    stack = _padded_random_stack(np.random.default_rng(3), 4, [2, 3, 1])
    quantum.block_distortions(stack, RHO_73)
    stack[1, 2] *= 1.0 + 1e-6
    with pytest.raises(ContractViolationError, match="in set 1"):
        quantum.block_distortions(stack, RHO_73)


def test_average_entropies_match_per_channel_loop():
    rng = np.random.default_rng(8)
    rho2 = np.kron(RHO_73.mat, MIXED.mat)
    ks = [1, 2, 3, 4, 2, 4]
    stack = _padded_random_stack(rng, 4, ks)
    got = quantum.average_entropies(stack, rho2)
    # tests/reference.py's own route, one element at a time
    for m, k in enumerate(ks):
        expected = 0.0
        for a in stack[m, :k]:
            cond = reference._apply(KrausChannel((a,)), rho2)
            lam = float(np.trace(cond).real)
            if lam > reference.WEIGHT_FLOOR:
                expected += lam * reference.von_neumann_entropy(cond / lam)
        assert abs(got[m] - expected) <= 1e-14


def _broadcast_distortion_terms(kraus, rho):
    # _distortion_terms with its rotation as the broadcast product, one small
    # matmul per matrix of the stack
    n = kraus.shape[-1].bit_length() - 1
    eigvals, eigvecs = np.linalg.eigh(rho)
    l0, l1 = eigvals = np.clip(eigvals, 0.0, None)
    basis = reduce(np.kron, [eigvecs] * n)
    rotated = basis.conj().T @ kraus @ basis
    weight = np.einsum("nkrc,c->n", np.abs(rotated) ** 2, reduce(np.kron, [eigvals] * n))
    others = reduce(np.kron, [eigvals] * (n - 1), np.ones(1))
    tensor = rotated.reshape(kraus.shape[:2] + (2,) * (2 * n))
    squares = np.zeros(len(kraus))
    for alpha in range(n):
        m = np.moveaxis(tensor, (2 + alpha, 2 + n + alpha), (-2, -1))
        terms = l0 * l1 * np.abs(m[..., 0, 0] - m[..., 1, 1]) ** 2
        terms += l1 * np.abs(m[..., 0, 1]) ** 2 + l0 * np.abs(m[..., 1, 0]) ** 2
        terms = terms.reshape(kraus.shape[:2] + (2 ** (n - 1),) * 2)
        squares += np.einsum("nkrc,c->n", terms, others)
    return squares, weight


def _broadcast_average_entropies(kraus, state):
    # average_entropies with K rho as the broadcast product; the product with
    # K† and the spectra come from the same kernels, so only the layout of
    # the K rho product is compared
    cond = quantum._times_adjoint(kraus @ state, kraus)
    lam = np.einsum("nkii->nk", cond).real
    live = np.flatnonzero(lam > quantum.WEIGHT_FLOOR)
    weights = np.take(lam, live)
    terms = np.zeros(lam.shape)
    eigs = quantum._live_spectra(kraus, state, cond, live, weights)
    np.put(terms, live, weights * quantum.eigenvalue_entropy(eigs))
    return terms.sum(axis=1)


def _random_qubit_state(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_products_equal_broadcast_products(n):
    # the stacked kernels run each product as one flat GEMM over the stack;
    # at a state with a permutation eigenbasis the rotation is exact, so the
    # flat and broadcast forms agree bit for bit, and elsewhere to round-off
    rng = np.random.default_rng(60 + n)
    stack = _padded_random_stack(rng, 2**n, [1, 2, 3, 4, 2, 1, 4, 3])
    for rho in (RHO_73.mat, MIXED.mat):
        state = reduce(np.kron, [rho] * n)
        got, expected = quantum._distortion_terms(stack, rho), _broadcast_distortion_terms(stack, rho)
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
        got = quantum.average_entropies(stack, state)
        assert np.array_equal(got, _broadcast_average_entropies(stack, state))
    for _ in range(5):
        rho = _random_qubit_state(rng)
        state = reduce(np.kron, [rho] * n)
        got, expected = quantum._distortion_terms(stack, rho), _broadcast_distortion_terms(stack, rho)
        for g, e in zip(got, expected):
            assert np.all(np.abs(g - e) <= 1e-15 * np.abs(e))
        got = quantum.average_entropies(stack, state)
        expected = _broadcast_average_entropies(stack, state)
        assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))


@pytest.mark.parametrize("count", [1, 7, 256])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_kernels_rows_equal_one_set_calls(count, n):
    # a set's figures do not depend on the stack it sits in
    rng = np.random.default_rng(count + n)
    stack = quantum.stinespring_kraus(rng, count, 2**n, 3)
    for rho in (RHO_73.mat, _random_qubit_state(rng)):
        state = reduce(np.kron, [rho] * n)
        squares, weight = quantum._distortion_terms(stack, rho)
        entropies = quantum.average_entropies(stack, state)
        for m in range(count):
            one_squares, one_weight = quantum._distortion_terms(stack[m : m + 1], rho)
            assert one_squares[0] == squares[m] and one_weight[0] == weight[m]
            assert quantum.average_entropies(stack[m : m + 1], state)[0] == entropies[m]


@pytest.mark.parametrize(
    "rho",
    [RHO_73.mat, np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])],
    ids=["diag-0.7-0.3", "non-diagonal"],
)
@pytest.mark.parametrize("eps, bound", [(1e-5, 1e-11), (1e-7, 5e-9)])
def test_closed_form_spectrum_matches_mpmath_at_near_pure_outputs(rho, eps, bound):
    # A = U diag(1, eps) W gives a conditional output whose smaller
    # eigenvalue is about eps^2: a d - |b|^2 loses it to cancellation, the
    # closed form's |det A|^2 det rho / l_max keeps it
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    # 20 pairs of Haar unitaries U, W
    for u, w in quantum.stinespring_kraus(rng, 40, 2, 1).reshape(20, 2, 2, 2):
        a = u @ np.diag([1.0, eps]) @ w
        kraus = a[np.newaxis, np.newaxis]
        cond = (a @ rho @ a.conj().T)[np.newaxis, np.newaxis]
        lam = np.einsum("nkii->nk", cond).real
        got = quantum._live_spectra(kraus, rho, cond, np.array([0]), lam[0])[0]
        with mp.workdps(50):
            exact_a = mp.matrix(a.tolist())
            sigma = exact_a * mp.matrix(rho.tolist()) * exact_a.H
            trace = mp.re(sigma[0, 0] + sigma[1, 1])
            low, high = sorted(mp.re(e) / trace for e in mp.eig(sigma)[0])
            assert abs(got[0] - low) <= bound * low
            assert abs(got[1] - high) <= 1e-15


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_padded_stack_equals_its_unpadded_sets(dim):
    # zero padding adds nothing and gets no spectrum, so no division by its
    # zero weight either (the suite turns any warning into an error)
    rng = np.random.default_rng(90 + dim)
    ks = [1, 2, 3, 4, 2, 1]
    stack = _padded_random_stack(rng, dim, ks)
    for rho in (RHO_73.mat, _random_qubit_state(rng)):
        state = reduce(np.kron, [rho] * (dim.bit_length() - 1))
        got = quantum.average_entropies(stack, state)
        for m, k in enumerate(ks):
            assert got[m] == quantum.average_entropies(stack[m : m + 1, :k], state)[0]


@pytest.mark.parametrize("dim", [2, 4])
def test_average_entropies_takes_eigvalsh_above_dim_2_on_live_elements(dim, monkeypatch):
    # one eigvalsh call on the live elements only, and none on 2x2 outputs;
    # the state is a DensityMatrix built before the spy, which the gate
    # passes as it is, so only the kernel's calls count
    state = DensityMatrix(np.eye(dim) / dim)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(mats):
        calls.append(mats.shape)
        return eigvalsh(mats)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    ks = [1, 2, 3, 4, 2]
    stack = _padded_random_stack(np.random.default_rng(7), dim, ks)
    quantum.average_entropies(stack, state)
    assert calls == ([] if dim == 2 else [(sum(ks), dim, dim)])


def test_eigenvalue_entropy_clamps_dust_on_stacks():
    spectra = np.array([[0.5, 0.5], [1.0, 1e-15], [1.0, -1e-15], [0.3, 0.7]])
    got = quantum.eigenvalue_entropy(spectra)
    assert got.shape == (4,)
    assert got[0] == 1.0
    assert got[1] == 0.0 and got[2] == 0.0
    assert math.copysign(1.0, got[1]) == 1.0
    assert got[3] == pytest.approx(H2_03, abs=1e-15)
    assert float(quantum.eigenvalue_entropy([0.25] * 4)) == 2.0


def test_random_channel_is_trace_preserving():
    for seed in range(10):
        ch = reference.random_channel(4, 3, seed)
        total = sum(a.conj().T @ a for a in ch.elements)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12


def test_concavity_chain_on_random_channels():
    # sum_i lambda_i S(conditional_i) <= S(full output) for 10^4 channels.
    rng = np.random.default_rng(77)
    worst = -np.inf
    for trial in range(10000):
        k = trial % 4 + 1
        kraus = quantum.stinespring_kraus(rng, 1, 2, k)[0]
        ch = KrausChannel(tuple(kraus))
        rho = reference.random_density(2, 9000 + trial)
        fid = quantum.entanglement_fidelity(rho, ch)
        assert -1e-12 <= fid <= 1 + 1e-10
        exchange = quantum.entropy_exchange(rho, ch)
        assert exchange >= -1e-12
        out, weight = quantum.apply(ch, rho)
        gap = quantum.average_entropy(ch, rho) - reference.von_neumann_entropy(
            out / weight
        )
        worst = max(worst, gap)
    assert worst <= 1e-9


def test_reference_route_imports_only_containers():
    # tests/reference.py stays independent of the functionals it checks:
    # from qubitrd it takes the containers, the random Kraus draw and the
    # error types, nothing else.
    source = Path(reference.__file__).read_text(encoding="utf-8")
    allowed = {
        "qubitrd.quantum": {"DensityMatrix", "KrausChannel", "stinespring_kraus"},
        "qubitrd.errors": {name for name in vars(errors) if name.endswith("Error")},
    }
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module, alias.name) for alias in node.names]
    from_package = [(m, n) for m, n in imported if m.split(".")[0] == "qubitrd"]
    assert from_package
    for module, name in from_package:
        assert name in allowed.get(module, ()), f"{module}.{name}"


def _circuit_of_incomplete_pair(monkeypatch):
    # a pair whose elements 0.5 I, 0.5 I sum to I / 2, so U†U = I / 2
    half = KrausChannel((0.5 * I2, 0.5 * I2))
    monkeypatch.setattr(realization, "pair_channel", lambda alpha, delta: half)
    realization.build_circuit(0.8, SourceSpec(0.7))


RHO7 = np.diag([0.7, 0.3])


# One call per validation branch that no other test takes, with the error
# type and the exact message it documents.
@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda mp: DensityMatrix(np.eye(3) / 3),
            ShapeError, "dimension 3 is not a power of 2", id="density-dim",
        ),
        pytest.param(
            lambda mp: KrausChannel(()),
            ContractViolationError, "channel needs at least one element", id="kraus-empty",
        ),
        pytest.param(
            lambda mp: KrausChannel((I2, np.eye(4))),
            DimensionMismatchError, "all elements must share one dimension", id="kraus-dims",
        ),
        pytest.param(
            lambda mp: quantum.apply(KrausChannel((I2,)), np.eye(4) / 4),
            DimensionMismatchError, "state dimension 4 != channel dimension 2",
            id="state-dim",
        ),
        pytest.param(
            lambda mp: quantum.distortion(np.eye(4) / 4, KrausChannel((np.eye(4),))),
            DimensionMismatchError, "rho must be a single-qubit state", id="distortion-rho",
        ),
        pytest.param(
            lambda mp: quantum.block_distortions(np.zeros((2, 2, 2)), RHO7),
            ShapeError, "expected a (N, k, dim, dim) stack, got shape (2, 2, 2)",
            id="blocks-shape",
        ),
        pytest.param(
            lambda mp: quantum.block_distortions(np.zeros((1, 1, 3, 3)), RHO7),
            ShapeError, "channel dimension 3 is not a power of 2", id="blocks-dim",
        ),
        pytest.param(
            lambda mp: quantum.block_distortions(np.zeros((1, 1, 16, 16)), RHO7),
            DomainError, "block distortions are supported for n <= 3, got n=4",
            id="blocks-n",
        ),
        pytest.param(
            lambda mp: linalg.as_matrix(np.zeros((2, 3))),
            ShapeError, "expected a square matrix, got shape (2, 3)", id="as-matrix",
        ),
        pytest.param(
            _circuit_of_incomplete_pair,
            InternalNumericError, "assembled circuit deviates from unitary by 5.000e-01",
            id="circuit-unitary",
        ),
    ],
)
def test_validation_branches_raise_their_documented_errors(monkeypatch, call, error, message):
    with pytest.raises(error) as info:
        call(monkeypatch)
    assert str(info.value) == message
