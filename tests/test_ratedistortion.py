import math

import numpy as np
import pytest

from qubitrd import quantum, ratedistortion as rd
from qubitrd.errors import (
    ContractViolationError,
    DomainError,
    EndpointSingularityError,
)
from qubitrd.ratedistortion import KrausPair, SourceSpec

SRC5 = SourceSpec(0.5)
SRC7 = SourceSpec(0.7)

# 40-digit evaluations of the binary entropy.
H2_03 = 0.8812908992306926182
H2_01 = 0.4689955935892812213


def test_source_spec_validation():
    with pytest.raises(DomainError):
        SourceSpec(0.4)
    with pytest.raises(DomainError):
        SourceSpec(1.0)
    assert SRC7.p1 == pytest.approx(0.3)
    assert SRC7.d_max == pytest.approx(0.42)


def test_kraus_pair_completeness():
    pair = KrausPair.from_angles(0.3, 0.7)
    total = (
        pair.a1.conj().T @ pair.a1 + pair.a2.conj().T @ pair.a2
    )
    assert np.max(np.abs(total - np.eye(2))) <= 1e-15
    with pytest.raises(ContractViolationError):
        KrausPair(np.diag([1.0, 1.0]).astype(complex), np.diag([0.5, 0.5]).astype(complex))


def test_s1_endpoint_identity_filter():
    for src in (SRC5, SRC7, SourceSpec(0.9)):
        d, entropy = rd.s1_curve_point(math.pi / 4, src)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert entropy == pytest.approx(quantum.binary_entropy(src.p0), abs=1e-12)


def test_s1_endpoint_best_guess():
    d, entropy = rd.s1_curve_point(0.0, SRC7)
    assert d == pytest.approx(0.3, abs=1e-12)
    assert entropy == pytest.approx(0.0, abs=1e-12)


def test_s1_isotropic_closed_form():
    for theta in np.linspace(0.0, math.pi / 4, 60):
        d, entropy = rd.s1_curve_point(float(theta), SRC5)
        assert entropy == pytest.approx(rd.isotropic_s1(d), abs=1e-10)


def test_stationarity_symmetric_root():
    for delta in np.linspace(0.05, math.pi / 2 - 0.05, 25):
        residual = rd.stationarity_residual(
            math.pi / 4 - float(delta) / 2, float(delta), SRC5
        )
        assert abs(residual) <= 1e-10


def test_stationarity_brackets_root():
    for delta in (0.3, 0.8, 1.3):
        sym = math.pi / 4 - delta / 2
        below = rd.stationarity_residual(sym - 0.1, delta, SRC5)
        above = rd.stationarity_residual(sym + 0.1, delta, SRC5)
        assert below < 0 < above


def test_stationarity_matches_finite_difference():
    # Independent oracle: centered finite difference of the average output
    # entropy computed through the channel functionals.
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(100):
        p0 = rng.uniform(0.5, 0.95)
        delta = rng.uniform(0.05, math.pi / 2 - 0.1)
        alpha = rng.uniform(0.02, math.pi / 2 - delta - 0.02)
        src = SourceSpec(p0)
        rho = src.density()

        def sbar(a):
            return quantum.average_entropy(
                KrausPair.from_angles(a, delta).channel(), rho
            )

        fd = (sbar(alpha + step) - sbar(alpha - step)) / (2 * step)
        residual = rd.stationarity_residual(alpha, delta, src)
        assert abs(residual - fd) <= 1e-6 * max(1.0, abs(residual))


def test_stationarity_endpoint_singularity():
    with pytest.raises(EndpointSingularityError):
        rd.stationarity_residual(0.0, 0.5, SRC7)
    with pytest.raises(EndpointSingularityError):
        rd.stationarity_residual(math.pi / 2 - 0.5, 0.5, SRC7)


def test_solve_alpha_symmetric():
    for delta in np.linspace(0.03, math.pi / 2 - 0.03, 50):
        alpha = rd.solve_alpha(float(delta), SRC5)
        assert abs(alpha - (math.pi / 4 - float(delta) / 2)) <= 1e-9


def test_solve_alpha_continuous_and_monotone():
    deltas = np.linspace(5e-3, math.pi / 2 - 5e-3, 200)
    alphas = [rd.solve_alpha(float(d), SRC7) for d in deltas]
    jumps = np.abs(np.diff(alphas))
    assert np.max(jumps) < 0.05
    # rises from the corner, peaks, then falls back toward zero
    peak = int(np.argmax(alphas))
    assert np.all(np.diff(alphas[: peak + 1]) > -1e-9)
    assert np.all(np.diff(alphas[peak:]) < 1e-9)


def test_solve_alpha_minimizes_average_entropy():
    rng = np.random.default_rng(19)
    rho5, rho7 = SRC5.density(), SRC7.density()
    for src, rho in ((SRC5, rho5), (SRC7, rho7)):
        for delta in (0.2, 0.6, 1.0, 1.4):
            root = rd.solve_alpha(delta, src)
            best = quantum.average_entropy(
                KrausPair.from_angles(root, delta).channel(), rho
            )
            hi = math.pi / 2 - delta
            for alpha in rng.uniform(hi * 1e-3, hi * (1 - 1e-3), 50):
                other = quantum.average_entropy(
                    KrausPair.from_angles(float(alpha), delta).channel(), rho
                )
                assert best <= other + 1e-12


def test_r1_point_zero_endpoint():
    pt = rd.r1_curve_point(0.0, SRC7)
    assert pt.d == 0.0
    assert pt.R == pytest.approx(H2_03, abs=1e-12)
    assert pt.r == pytest.approx(quantum.binary_entropy(pt.lambda1), abs=1e-12)


def test_r1_point_max_endpoint():
    pt = rd.r1_curve_point(math.pi / 2, SRC7)
    assert pt.d == pytest.approx(0.42, abs=1e-12)
    assert pt.R == 0.0
    # projective limit: the type-1 slot keeps the |0> weight
    assert pt.lambda1 == pytest.approx(0.7, abs=1e-9)


def test_r1_isotropic_symmetric_values():
    for delta in (0.2, 0.7, 1.2):
        pt = rd.r1_curve_point(delta, SRC5)
        assert pt.lambda1 == pytest.approx(0.5, abs=1e-9)
        assert pt.r == pytest.approx(1.0, abs=1e-9)
        expected = quantum.binary_entropy((1 + math.sin(delta)) / 2)
        assert pt.R == pytest.approx(expected, abs=1e-10)
        # matched-d cross-check against the single-element curve: at the
        # unbiased source, d(theta) = (1 - sin 2 theta)/2 inverts exactly
        theta = math.asin(1 - 2 * pt.d) / 2
        d1, s1 = rd.s1_curve_point(theta, SRC5)
        assert d1 == pytest.approx(pt.d, abs=1e-12)
        assert s1 == pytest.approx(pt.R, abs=1e-9)


def test_distortion_identity_alpha_independent():
    rng = np.random.default_rng(29)
    for p0 in (0.5, 0.6, 0.7, 0.8, 0.9):
        src = SourceSpec(p0)
        rho = src.density()
        for delta in np.linspace(0.05, math.pi / 2 - 0.05, 10):
            closed = 2 * p0 * (1 - p0) * (1 - math.cos(delta))
            hi = math.pi / 2 - delta
            for alpha in rng.uniform(hi * 0.01, hi * 0.99, 3):
                pair = KrausPair.from_angles(float(alpha), float(delta))
                d = quantum.distortion(rho, pair.channel())
                assert abs(d - closed) <= 1e-10


def test_sweep_curve_shape():
    points = rd.sweep_curve(SRC7, 101)
    assert len(points) == 101
    d = np.array([p.d for p in points])
    rate = np.array([p.R for p in points])
    assert d[0] == 0.0 and d[-1] == pytest.approx(0.42, abs=1e-12)
    assert np.all(np.diff(d) > 0)
    assert np.all(np.diff(rate) <= 1e-12)
    assert np.all(d <= SRC7.d_max + 1e-12)
    slopes = np.diff(rate) / np.diff(d)
    assert np.min(np.diff(slopes)) >= -1e-8


def test_sweep_curve_rejects_short_grid():
    with pytest.raises(DomainError):
        rd.sweep_curve(SRC7, 1)


def test_classical_hamming_baseline():
    assert rd.classical_hamming_baseline(SRC7, 0.0) == pytest.approx(
        H2_03, abs=1e-12
    )
    assert rd.classical_hamming_baseline(SRC5, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert rd.classical_hamming_baseline(SRC7, 0.1) == pytest.approx(
        H2_03 - H2_01, abs=1e-12
    )
    with pytest.raises(DomainError):
        rd.classical_hamming_baseline(SRC7, 0.6)


def test_r1_matches_average_entropy_of_pair():
    # The closed-form curve points against the channel functionals of the
    # pair they describe, at every interior point of a sweep.
    for p0 in (0.5, 0.7, 0.9, 0.99):
        src = SourceSpec(p0)
        rho = src.density()
        for pt in rd.sweep_curve(src, 64)[1:-1]:
            pair = KrausPair.from_angles(pt.alpha, pt.delta)
            channel = pair.channel()
            assert quantum.average_entropy(channel, rho) == pytest.approx(
                pt.R, abs=1e-12
            )
            assert quantum.distortion(rho, channel) == pytest.approx(
                pt.d, abs=1e-10
            )
            lam1 = float(np.trace(pair.a1 @ rho.mat @ pair.a1.conj().T).real)
            assert pt.lambda1 == pytest.approx(lam1, abs=1e-12)
