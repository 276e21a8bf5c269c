import math

import numpy as np
import pytest

from qubitrd import linalg, quantum, realization
from qubitrd.errors import DomainError
from qubitrd.ratedistortion import KrausPair, SourceSpec, r1_curve_point

SRC5 = SourceSpec(0.5)
SRC7 = SourceSpec(0.7)


def _random_operating_points(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield SourceSpec(float(rng.uniform(0.5, 0.95))), float(
            rng.uniform(0.05, math.pi / 2 - 0.05)
        )


def test_circuit_unitarity():
    for src, delta in _random_operating_points(100, seed=1):
        circ = realization.build_circuit(delta, src)
        gap = np.max(np.abs(circ.unitary.conj().T @ circ.unitary - np.eye(4)))
        assert gap <= 1e-12


def test_circuit_rejects_endpoint_delta():
    for bad in (0.0, math.pi / 2, 2.0, -0.3):
        with pytest.raises(DomainError):
            realization.build_circuit(bad, SRC5)


def test_joint_output_blocks():
    # U Xi U† carries A_i rho A_j† in block (i, j).
    for src, delta in _random_operating_points(25, seed=2):
        circ = realization.build_circuit(delta, src)
        joint = realization.joint_output(circ, src)
        rho = src.density().mat
        a1, a2 = circ.kraus_pair.a1, circ.kraus_pair.a2
        assert np.allclose(joint[0:2, 0:2], a1 @ rho @ a1.conj().T, atol=1e-12)
        assert np.allclose(joint[0:2, 2:4], a1 @ rho @ a2.conj().T, atol=1e-12)
        assert np.allclose(joint[2:4, 0:2], a2 @ rho @ a1.conj().T, atol=1e-12)
        assert np.allclose(joint[2:4, 2:4], a2 @ rho @ a2.conj().T, atol=1e-12)


def test_small_delta_circuit_acts_as_probabilistic_identity():
    circ = realization.build_circuit(1e-3, SRC7)
    rho = SRC7.density()
    out, weight = quantum.apply(circ.kraus_pair.channel(), rho)
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out - rho.mat)) <= 1e-5


def test_induced_channel_matches_pair():
    # Project the ancilla, trace it out, and compare against the Kraus route.
    for src, delta in _random_operating_points(100, seed=3):
        circ = realization.build_circuit(delta, src)
        joint = realization.joint_output(circ, src)
        reconstructed = np.zeros((2, 2), dtype=complex)
        for outcome in (0, 1):
            proj = np.zeros((2, 2), dtype=complex)
            proj[outcome, outcome] = 1.0
            proj4 = np.kron(proj, np.eye(2, dtype=complex))
            reduced = linalg.partial_trace(proj4 @ joint @ proj4, {2})
            reconstructed += reduced
        direct, _ = quantum.apply(circ.kraus_pair.channel(), src.density())
        assert np.max(np.abs(reconstructed - direct)) <= 1e-11


def test_measure_ancilla_statistics():
    for delta in (0.3, 0.8, 1.3):
        circ = realization.build_circuit(delta, SRC5)
        p1, post1, post2 = realization.measure_ancilla(circ, SRC5)
        assert p1 == pytest.approx(0.5, abs=1e-12)
        assert post1 is not None and post2 is not None

    circ = realization.build_circuit(0.7, SRC7)
    p1, _, _ = realization.measure_ancilla(circ, SRC7)
    rho = SRC7.density().mat
    a1 = circ.kraus_pair.a1
    assert p1 == pytest.approx(
        float(np.trace(a1 @ rho @ a1.conj().T).real), abs=1e-12
    )


def test_measure_ancilla_projective_limit():
    circ = realization.build_circuit(math.pi / 2 - 1e-6, SRC7)
    p1, post1, post2 = realization.measure_ancilla(circ, SRC7)
    assert p1 + (1 - p1) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post1.mat, np.diag([1.0, 0.0]), atol=1e-4)
    assert np.allclose(post2.mat, np.diag([0.0, 1.0]), atol=1e-4)


def test_outcome_probabilities_sum_to_one():
    for src, delta in _random_operating_points(30, seed=4):
        circ = realization.build_circuit(delta, src)
        rho = src.density().mat
        pair = circ.kraus_pair
        w1 = float(np.trace(pair.a1 @ rho @ pair.a1.conj().T).real)
        w2 = float(np.trace(pair.a2 @ rho @ pair.a2.conj().T).real)
        assert w1 + w2 == pytest.approx(1.0, abs=1e-12)


def test_simulate_stream_deterministic():
    circ = realization.build_circuit(0.8, SRC5)
    a = realization.simulate_stream(circ, SRC5, 50000, seed=7)
    b = realization.simulate_stream(circ, SRC5, 50000, seed=7)
    assert a == b


def test_simulate_stream_chunks_keep_the_counts(monkeypatch):
    # chunked draws from the generator are the numbers of one whole draw
    circ = realization.build_circuit(0.8, SRC7)
    whole = realization.simulate_stream(circ, SRC7, 100003, seed=3)
    monkeypatch.setattr(realization, "SAMPLE_CHUNK", 4097)
    assert realization.simulate_stream(circ, SRC7, 100003, seed=3) == whole


def test_simulate_stream_concentration():
    circ = realization.build_circuit(0.8, SRC5)
    result = realization.simulate_stream(circ, SRC5, 10**6, seed=1)
    # 3 sigma binomial band around 1/2
    assert abs(result.empirical_lambda1 - 0.5) <= 3 * 0.5 / 1000
    assert result.empirical_classical_rate == pytest.approx(
        quantum.binary_entropy(result.empirical_lambda1), abs=1e-15
    )
    assert abs(result.empirical_classical_rate - 1.0) <= 0.01


def test_simulate_stream_matches_curve_point():
    for src, delta in ((SRC5, 0.8), (SRC7, 0.5)):
        circ = realization.build_circuit(delta, src)
        result = realization.simulate_stream(circ, src, 100, seed=2)
        pt = r1_curve_point(delta, src)
        assert result.quantum_rate == pytest.approx(pt.R, abs=1e-10)
        assert result.analytic_distortion == pytest.approx(pt.d, abs=1e-12)


def test_measure_ancilla_suppresses_dead_outcome():
    # alpha = 0 with a tiny angle gap drives the type-2 weight to ~sin^2(D),
    # below the suppression floor.
    delta = 3e-8
    circ = realization.RealizationCircuit(
        alpha=0.0,
        delta=delta,
        unitary=np.eye(4, dtype=complex),
        kraus_pair=KrausPair.from_angles(0.0, delta),
    )
    p1, post1, post2 = realization.measure_ancilla(circ, SRC7)
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert post1 is not None
    assert post2 is None


def test_simulate_stream_validates_samples():
    circ = realization.build_circuit(0.5, SRC5)
    with pytest.raises(DomainError):
        realization.simulate_stream(circ, SRC5, 0, seed=0)


def test_stream_result_serialization():
    circ = realization.build_circuit(0.6, SRC7)
    result = realization.simulate_stream(circ, SRC7, 1000, seed=5)
    record = result.to_dict()
    assert record["n_samples"] == 1000
    assert record["type1_count"] == result.type1_count
    text = result.to_text()
    assert "empirical_lambda1:" in text
    assert "quantum_rate:" in text
