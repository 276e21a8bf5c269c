import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitrd import quantum
from qubitrd.errors import (
    AnnihilationError,
    ContractViolationError,
    DomainError,
)
from qubitrd.quantum import ChoiMatrix, DensityMatrix, KrausChannel

I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

RHO_73 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
MIXED = DensityMatrix(I2 / 2)
DEPHASING = KrausChannel((P0, P1), trace_preserving=True)
IDENTITY = KrausChannel((I2,), trace_preserving=True)

# High-precision reference values for the binary entropy (40-digit evaluation).
H2_03 = 0.8812908992306926182
H2_025 = 0.8112781244591328639


def test_density_matrix_validation():
    with pytest.raises(ContractViolationError):
        DensityMatrix(np.diag([0.7, 0.4]).astype(complex))
    with pytest.raises(ContractViolationError):
        DensityMatrix(np.array([[1.2, 0], [0, -0.2]], dtype=complex))
    with pytest.raises(ContractViolationError):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))


def test_density_matrix_properties():
    assert RHO_73.dim == 2
    assert RHO_73.n_qubits == 1
    assert DensityMatrix(np.eye(4, dtype=complex) / 4).n_qubits == 2


def test_kraus_channel_trace_preserving_claim():
    with pytest.raises(ContractViolationError):
        KrausChannel((P0,), trace_preserving=True)
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
    assert quantum.von_neumann_entropy(MIXED) == pytest.approx(1.0, abs=1e-12)
    assert quantum.von_neumann_entropy(DensityMatrix(P0)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert quantum.von_neumann_entropy(RHO_73) == pytest.approx(H2_03, abs=1e-12)


def test_von_neumann_entropy_rejects_invalid():
    with pytest.raises(ContractViolationError):
        quantum.von_neumann_entropy(np.diag([0.5, 0.4]).astype(complex))


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
        ch = quantum.random_channel(2, seed % 3 + 1, seed)
        rho = quantum.random_density(2, 500 + seed)
        assert quantum.distortion(rho, ch) == 1.0 - quantum.entanglement_fidelity(
            rho, ch
        )


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
        ch = KrausChannel((u,), trace_preserving=True)
        rho = quantum.random_density(2, seed)
        assert quantum.entropy_exchange(rho, ch) <= 1e-10


def test_entropy_exchange_matches_explicit_dilation():
    # Oracle: carry a purification through an explicit isometry into an
    # environment qubit and take the environment's entropy directly.
    rng = np.random.default_rng(23)
    for trial in range(200):
        rho = quantum.random_density(2, 1000 + trial)
        ch = quantum.random_channel(2, 2, 2000 + trial)
        eigvals, eigvecs = np.linalg.eigh(rho.mat)
        amp = np.zeros((2, 2, 2), dtype=complex)  # [r, q, e]
        for i in range(2):
            for e, a in enumerate(ch.elements):
                amp[i, :, e] += np.sqrt(max(eigvals[i], 0.0)) * (a @ eigvecs[:, i])
        # reorder reference eigenbasis back: amplitude over R uses |e_i> labels,
        # which is fine since entropy is basis independent
        flat = amp.reshape(4, 2)
        rho_env = flat.conj().T @ flat
        env_entropy = quantum.von_neumann_entropy(rho_env / np.trace(rho_env))
        assert quantum.entropy_exchange(rho, ch) == pytest.approx(
            env_entropy, abs=1e-8
        )


def test_coherent_information_examples():
    assert quantum.coherent_information(MIXED, IDENTITY) == pytest.approx(
        1.0, abs=1e-12
    )
    assert quantum.coherent_information(MIXED, DEPHASING) == pytest.approx(
        0.0, abs=1e-12
    )
    assert quantum.coherent_information(RHO_73, KrausChannel((P0,))) == pytest.approx(
        0.0, abs=1e-12
    )


def test_coherent_information_can_be_negative():
    # Complete replacement by |0><0| erases all entanglement.
    replace = KrausChannel(
        (np.array([[1, 0], [0, 0]], dtype=complex),
         np.array([[0, 1], [0, 0]], dtype=complex)),
        trace_preserving=True,
    )
    assert quantum.coherent_information(MIXED, replace) < -0.9


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
        ch = KrausChannel((a1, a2), trace_preserving=True)
        expected = quantum.binary_entropy(np.cos(theta) ** 2)
        assert quantum.average_entropy(ch, MIXED) == pytest.approx(
            expected, abs=1e-12
        )


def test_average_entropy_requires_trace_preserving():
    with pytest.raises(ContractViolationError):
        quantum.average_entropy(KrausChannel((P0,)), RHO_73)


def test_average_pure_state_fidelity():
    ensemble = [(np.array([1, 0]), 0.7), (np.array([0, 1]), 0.3)]
    assert quantum.average_pure_state_fidelity(ensemble, IDENTITY) == 1.0
    assert quantum.average_pure_state_fidelity(ensemble, DEPHASING) == pytest.approx(
        1.0, abs=1e-12
    )
    flip = KrausChannel((PAULI_X,), trace_preserving=True)
    assert quantum.average_pure_state_fidelity(ensemble, flip) == pytest.approx(
        0.0, abs=1e-12
    )


def test_average_pure_state_fidelity_rejects_bad_ensemble():
    with pytest.raises(ContractViolationError):
        quantum.average_pure_state_fidelity(
            [(np.array([1, 0]), 0.6), (np.array([0, 1]), 0.3)], IDENTITY
        )


def _choi_from_kraus(ch):
    mat = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            block = sum(a @ basis @ a.conj().T for a in ch.elements)
            mat[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
    return ChoiMatrix(mat)


def test_marginal_channel_of_product_channel():
    ch1 = quantum.random_channel(2, 2, 31)
    ch2 = quantum.random_channel(2, 3, 32)
    elements = tuple(
        np.kron(a, b) for a in ch1.elements for b in ch2.elements
    )
    joint = KrausChannel(elements, trace_preserving=True)
    got = quantum.marginal_channel(joint, RHO_73, 1)
    assert np.allclose(got.mat, _choi_from_kraus(ch1).mat, atol=1e-10)
    got2 = quantum.marginal_channel(joint, RHO_73, 2)
    assert np.allclose(got2.mat, _choi_from_kraus(ch2).mat, atol=1e-10)


def test_marginal_channel_of_identity():
    ident4 = KrausChannel((np.eye(4, dtype=complex),), trace_preserving=True)
    for alpha in (1, 2):
        got = quantum.marginal_channel(ident4, RHO_73, alpha)
        assert np.allclose(got.mat, _choi_from_kraus(IDENTITY).mat, atol=1e-12)


def test_marginal_channel_of_swap_is_replacement():
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    ch = KrausChannel((swap,), trace_preserving=True)
    got = quantum.marginal_channel(ch, RHO_73, 1)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 0:2] = RHO_73.mat
    expected[2:4, 2:4] = RHO_73.mat
    assert np.allclose(got.mat, expected, atol=1e-12)


def test_marginal_channel_index_out_of_range():
    ident4 = KrausChannel((np.eye(4, dtype=complex),), trace_preserving=True)
    with pytest.raises(DomainError):
        quantum.marginal_channel(ident4, RHO_73, 3)


def test_choi_fidelity_of_identity():
    choi = _choi_from_kraus(IDENTITY)
    assert quantum.choi_entanglement_fidelity(choi, RHO_73) == pytest.approx(
        1.0, abs=1e-12
    )


def test_choi_fidelity_of_replacement_map():
    # Purification-formula oracle: output is diag(p) x rho, so
    # F_e = sum_i p_i^3 (0.37 at p0 = 0.7).
    mat = np.zeros((4, 4), dtype=complex)
    mat[0:2, 0:2] = RHO_73.mat
    mat[2:4, 2:4] = RHO_73.mat
    expected = 0.7**3 + 0.3**3
    assert quantum.choi_entanglement_fidelity(
        ChoiMatrix(mat), RHO_73
    ) == pytest.approx(expected, abs=1e-12)


def test_choi_fidelity_of_dephasing_cross_check():
    choi = _choi_from_kraus(DEPHASING)
    assert quantum.choi_entanglement_fidelity(choi, RHO_73) == pytest.approx(
        0.58, abs=1e-12
    )


def test_choi_fidelity_matches_kraus_route():
    rng = np.random.default_rng(41)
    for trial in range(100):
        ch = quantum.random_channel(2, int(rng.integers(1, 5)), 5000 + trial)
        rho = quantum.random_density(2, 6000 + trial)
        direct = quantum.entanglement_fidelity(rho, ch)
        via_choi = quantum.choi_entanglement_fidelity(_choi_from_kraus(ch), rho)
        assert abs(direct - via_choi) <= 1e-9


def test_block_distortion_identity():
    ident4 = KrausChannel((np.eye(4, dtype=complex),), trace_preserving=True)
    assert quantum.block_distortion(ident4, RHO_73) == pytest.approx(0.0, abs=1e-12)


def test_block_distortion_product_channel():
    ch = quantum.random_channel(2, 2, 55)
    elements = tuple(np.kron(a, b) for a in ch.elements for b in ch.elements)
    joint = KrausChannel(elements, trace_preserving=True)
    assert quantum.block_distortion(joint, RHO_73) == pytest.approx(
        quantum.distortion(RHO_73, ch), abs=1e-10
    )


def test_block_distortion_two_qubit_dephasing():
    elements = []
    for i in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[i, i] = 1.0
        elements.append(e)
    ch = KrausChannel(tuple(elements), trace_preserving=True)
    assert quantum.block_distortion(ch, RHO_73) == pytest.approx(0.42, abs=1e-12)


def _padded_random_stack(rng, dim, ks):
    stack = np.zeros((len(ks), 4, dim, dim), dtype=complex)
    for m, k in enumerate(ks):
        stack[m, :k] = quantum.stinespring_kraus(rng, 1, dim, k)[0]
    return stack


@pytest.mark.parametrize("rho", [RHO_73, MIXED], ids=["diag-0.7-0.3", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_distortions_match_marginal_loop(n, rho):
    # the stacked kernel against the reference route, one channel and one
    # qubit at a time: marginal_channel, then choi_entanglement_fidelity
    ks = [1, 2, 3, 4, 3, 1, 4, 2]
    stack = _padded_random_stack(np.random.default_rng(40 + n), 2**n, ks)
    got = quantum.block_distortions(stack, rho)
    assert got.shape == (len(ks),)
    for m, k in enumerate(ks):
        ch = KrausChannel(tuple(stack[m, :k]), trace_preserving=True)
        reference = np.mean(
            [
                1.0 - quantum.choi_entanglement_fidelity(
                    quantum.marginal_channel(ch, rho, alpha), rho
                )
                for alpha in range(1, n + 1)
            ]
        )
        assert abs(got[m] - reference) <= 1e-14
        assert abs(quantum.block_distortion(ch, rho) - reference) <= 1e-14


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
    for m, k in enumerate(ks):
        ch = KrausChannel(tuple(stack[m, :k]), trace_preserving=True)
        assert abs(got[m] - quantum.average_entropy(ch, rho2)) <= 1e-14


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
        ch = quantum.random_channel(4, 3, seed)
        total = sum(a.conj().T @ a for a in ch.elements)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12


def test_concavity_chain_on_random_channels():
    # sum_i lambda_i S(conditional_i) <= S(full output) for 10^4 channels.
    rng = np.random.default_rng(77)
    worst = -np.inf
    for trial in range(10000):
        k = trial % 4 + 1
        kraus = quantum.stinespring_kraus(rng, 1, 2, k)[0]
        ch = KrausChannel(tuple(kraus), trace_preserving=True)
        rho = quantum.random_density(2, 9000 + trial)
        fid = quantum.entanglement_fidelity(rho, ch)
        assert -1e-12 <= fid <= 1 + 1e-10
        exchange = quantum.entropy_exchange(rho, ch)
        assert exchange >= -1e-12
        out, weight = quantum.apply(ch, rho)
        gap = quantum.average_entropy(ch, rho) - quantum.von_neumann_entropy(
            out / weight
        )
        worst = max(worst, gap)
    assert worst <= 1e-9
