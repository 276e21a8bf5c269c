import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import reference
from qubitrd import cli, quantum, ratedistortion, realization
from qubitrd.errors import DomainError
from qubitrd.ratedistortion import SourceSpec, pair_channel, r1_curve_point, sweep_curve

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
        joint = reference.joint_output(circ.unitary, src)
        rho = src.density().mat
        a1, a2 = circ.channel.elements
        assert np.allclose(joint[0:2, 0:2], a1 @ rho @ a1.conj().T, atol=1e-12)
        assert np.allclose(joint[0:2, 2:4], a1 @ rho @ a2.conj().T, atol=1e-12)
        assert np.allclose(joint[2:4, 0:2], a2 @ rho @ a1.conj().T, atol=1e-12)
        assert np.allclose(joint[2:4, 2:4], a2 @ rho @ a2.conj().T, atol=1e-12)


def test_small_delta_circuit_acts_as_probabilistic_identity():
    circ = realization.build_circuit(1e-3, SRC7)
    rho = SRC7.density()
    out, weight = quantum.apply(circ.channel, rho)
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out - rho.mat)) <= 1e-5


def test_induced_channel_matches_pair():
    # Project the ancilla, trace it out, and compare against the Kraus route.
    for src, delta in _random_operating_points(100, seed=3):
        circ = realization.build_circuit(delta, src)
        joint = reference.joint_output(circ.unitary, src)
        reconstructed = np.zeros((2, 2), dtype=complex)
        for outcome in (0, 1):
            proj = np.zeros((2, 2), dtype=complex)
            proj[outcome, outcome] = 1.0
            proj4 = np.kron(proj, np.eye(2, dtype=complex))
            reduced = reference.partial_trace(proj4 @ joint @ proj4, {2})
            reconstructed += reduced
        direct, _ = quantum.apply(circ.channel, src.density())
        assert np.max(np.abs(reconstructed - direct)) <= 1e-11


def test_measure_ancilla_statistics():
    for delta in (0.3, 0.8, 1.3):
        circ = realization.build_circuit(delta, SRC5)
        p1, post1, post2 = reference.measure_ancilla(circ.unitary, SRC5)
        assert p1 == pytest.approx(0.5, abs=1e-12)
        assert post1 is not None and post2 is not None

    circ = realization.build_circuit(0.7, SRC7)
    p1, _, _ = reference.measure_ancilla(circ.unitary, SRC7)
    rho = SRC7.density().mat
    a1 = circ.channel.elements[0]
    assert p1 == pytest.approx(
        float(np.trace(a1 @ rho @ a1.conj().T).real), abs=1e-12
    )


def test_measure_ancilla_projective_limit():
    circ = realization.build_circuit(math.pi / 2 - 1e-6, SRC7)
    p1, post1, post2 = reference.measure_ancilla(circ.unitary, SRC7)
    assert p1 + (1 - p1) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post1.mat, np.diag([1.0, 0.0]), atol=1e-4)
    assert np.allclose(post2.mat, np.diag([0.0, 1.0]), atol=1e-4)


def test_outcome_probabilities_sum_to_one():
    for src, delta in _random_operating_points(30, seed=4):
        circ = realization.build_circuit(delta, src)
        rho = src.density().mat
        a1, a2 = circ.channel.elements
        w1 = float(np.trace(a1 @ rho @ a1.conj().T).real)
        w2 = float(np.trace(a2 @ rho @ a2.conj().T).real)
        assert w1 + w2 == pytest.approx(1.0, abs=1e-12)


def test_simulate_stream_deterministic():
    circ = realization.build_circuit(0.8, SRC5)
    a = realization.simulate_stream(circ, 50000, seed=7)
    b = realization.simulate_stream(circ, 50000, seed=7)
    assert a == b


def test_simulate_stream_chunks_keep_the_counts(monkeypatch):
    # chunked draws from the generator are the numbers of one whole draw;
    # 100003 samples is no multiple of either chunk
    circ = realization.build_circuit(0.8, SRC7)
    n = 100003
    assert n % realization.SAMPLE_CHUNK and n > realization.SAMPLE_CHUNK
    chunked = realization.simulate_stream(circ, n, seed=3)
    monkeypatch.setattr(realization, "SAMPLE_CHUNK", n)
    whole = realization.simulate_stream(circ, n, seed=3)
    assert chunked == whole
    monkeypatch.setattr(realization, "SAMPLE_CHUNK", 4097)
    assert realization.simulate_stream(circ, n, seed=3) == whole


def test_simulate_stream_memory_is_one_chunk():
    # a 10^6-sample stream holds one chunk of draws at a time, not 8 MB
    circ = realization.build_circuit(0.8, SRC7)
    tracemalloc.start()
    try:
        realization.simulate_stream(circ, 10**6, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("seed", [1.5, 1.9, "7", -1, 2**128])
def test_simulate_stream_rejects_a_bad_seed(seed):
    # a float seed must not be truncated into another seed's stream
    circ = realization.build_circuit(0.8, SRC7)
    with pytest.raises(DomainError, match="seed"):
        realization.simulate_stream(circ, 10, seed)


def test_simulate_stream_takes_every_seed_up_to_2_128():
    # one integer check covers the whole key range: its top end is a key
    circ = realization.build_circuit(0.8, SRC7)
    assert realization.simulate_stream(circ, 10, 2**128 - 1).n_samples == 10


def test_simulate_stream_takes_a_numpy_integer_seed():
    circ = realization.build_circuit(0.8, SRC7)
    assert realization.simulate_stream(circ, 1000, np.int64(3)) == (
        realization.simulate_stream(circ, 1000, 3)
    )


def test_simulate_stream_concentration():
    circ = realization.build_circuit(0.8, SRC5)
    result = realization.simulate_stream(circ, 10**6, seed=1)
    # 3 sigma binomial band around 1/2
    assert abs(result.empirical_lambda1 - 0.5) <= 3 * 0.5 / 1000
    assert result.empirical_classical_rate == pytest.approx(
        quantum.binary_entropy(result.empirical_lambda1), abs=1e-15
    )
    assert abs(result.empirical_classical_rate - 1.0) <= 0.01


def test_simulate_stream_matches_curve_point():
    for src, delta in ((SRC5, 0.8), (SRC7, 0.5)):
        circ = realization.build_circuit(delta, src)
        result = realization.simulate_stream(circ, 100, seed=2)
        pt = r1_curve_point(delta, src)
        assert result.quantum_rate == pt.R
        assert result.analytic_distortion == pt.d


def test_simulate_solves_its_angle_once(capsys, monkeypatch):
    # the circuit carries its curve point, so the stream solves nothing
    calls = []
    solve = ratedistortion._optimal_alpha

    def counted(delta, p0, xp):
        calls.append(delta)
        return solve(delta, p0, xp)

    monkeypatch.setattr(ratedistortion, "_optimal_alpha", counted)
    realization.simulate_stream(realization.build_circuit(0.8, SRC7), 10, seed=0)
    assert calls == [0.8]
    calls.clear()
    assert cli.main(["simulate", "--p0", "0.7", "--delta", "0.8", "--samples", "10"]) == 0
    assert calls == [0.8]


def test_simulate_rates_equal_curve_point_bit_for_bit(capsys):
    # the circuit carries r1_curve_point at its delta, and the stream and
    # the CLI read d, R, r and lambda1 off it; within ENDPOINT_CUTOFF of an
    # end that is the curve's exact end row, as in `curve r1`
    fields = {
        "analytic_distortion": "d",
        "quantum_rate": "R",
        "analytic_classical_rate": "r",
        "analytic_lambda1": "lambda1",
    }
    ends = [(src, delta) for src in (SRC5, SRC7) for delta in (1e-13, math.pi / 2 - 1e-13)]
    for src, delta in [*_random_operating_points(40, seed=5), *ends]:
        circ = realization.build_circuit(delta, src)
        pt = r1_curve_point(delta, src)
        assert circ.point == pt
        result = dataclasses.asdict(realization.simulate_stream(circ, 10, seed=0))
        argv = ["simulate", "--p0", repr(src.p0), "--delta", repr(delta)]
        assert cli.main(argv + ["--samples", "10", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        for key, name in fields.items():
            assert result[key] == getattr(pt, name), key
            assert record[key] == getattr(pt, name), key
    assert r1_curve_point(1e-13, SRC7) == sweep_curve(SRC7, 2).tolist()[0]


@pytest.mark.parametrize("p0", [0.999999, 1.0 - 1e-10])
@pytest.mark.parametrize("delta", [0.1, 0.8, 1.5])
def test_analytic_classical_rate_matches_mpmath(capsys, p0, delta):
    # r = h2(lambda2) with lambda2 = p0 sin^2 a + p1 sin^2(a + D) in closed
    # form; h2(lambda1) loses the digits of 1 - lambda1 at p0 near 1
    mp = pytest.importorskip("mpmath")
    argv = ["simulate", "--p0", repr(p0), "--delta", repr(delta), "--samples", "10"]
    assert cli.main(argv + ["--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    with mp.workdps(50):
        a, d, q0 = mp.mpf(record["alpha"]), mp.mpf(delta), mp.mpf(p0)
        lam2 = q0 * mp.sin(a) ** 2 + (1 - q0) * mp.sin(a + d) ** 2
        exact = -(lam2 * mp.log(lam2) + (1 - lam2) * mp.log(1 - lam2)) / mp.log(2)
        assert abs(record["analytic_classical_rate"] - exact) <= 1e-15 * exact
    src = SourceSpec(p0)
    result = realization.simulate_stream(realization.build_circuit(delta, src), 10, 0)
    assert result.analytic_classical_rate == record["analytic_classical_rate"]


def test_measure_ancilla_suppresses_dead_outcome():
    # alpha = 0 with a tiny angle gap drives the type-2 weight to ~sin^2(D),
    # below the suppression floor.
    a1, a2 = pair_channel(0.0, 3e-8).elements
    unitary = np.block([[a1, -a2], [a2, a1]])
    p1, post1, post2 = reference.measure_ancilla(unitary, SRC7)
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert post1 is not None
    assert post2 is None


def test_simulate_stream_validates_samples():
    circ = realization.build_circuit(0.5, SRC5)
    with pytest.raises(DomainError):
        realization.simulate_stream(circ, 0, seed=0)


def test_stream_result_serialization():
    circ = realization.build_circuit(0.6, SRC7)
    result = realization.simulate_stream(circ, 1000, seed=5)
    record = dataclasses.asdict(result)
    assert list(record) == [
        "n_samples", "type1_count", "empirical_lambda1",
        "empirical_classical_rate", "quantum_rate", "analytic_distortion",
        "analytic_lambda1", "analytic_classical_rate",
    ]
    assert record["n_samples"] == 1000
    assert record["type1_count"] == result.type1_count
    assert cli._record_text(record).startswith("n_samples: 1000\ntype1_count: ")
