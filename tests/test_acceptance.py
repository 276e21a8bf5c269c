"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 10's scaling clause checks the growth law that stationarity
forces: at the solved optimum the |x|^2 coefficient of the entropy growth
vanishes, so the growth is quartic in the perturbation magnitude and doubling
|x| multiplies it by ~16 (band [12, 20], the criterion's +-25% band around
2^4). The weight functions themselves are quadratic (ratio in [3, 5]).
``tests/test_verify.py`` checks the quartic law against a 60-digit mpmath
evaluation that shares no code with the package.
"""

import math
import time

import numpy as np
import pytest

import reference
from qubitrd import quantum, realization, verify
from qubitrd.quantum import DensityMatrix, KrausChannel
from qubitrd.ratedistortion import (
    SourceSpec,
    isotropic_s1,
    pair_channel,
    r1_curve_point,
    sweep_curve,
)

DEFAULT_P0S = (0.5, 0.6, 0.7, 0.8, 0.9)


def _line(num, name, ok, detail):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_isotropic_closed_form():
    start = time.perf_counter()
    points = sweep_curve(SourceSpec(0.5), 101)
    worst = max(abs(p.R - isotropic_s1(min(p.d, 0.5))) for p in points)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _line(
        1, "isotropic closed form", ok,
        f"worst gap {worst:.3e} over 101 points, {elapsed:.2f}s"
    )


def test_criterion_02_symmetric_root():
    start = time.perf_counter()
    src = SourceSpec(0.5)
    worst = 0.0
    for delta in np.linspace(0.02, math.pi / 2 - 0.02, 50):
        alpha = r1_curve_point(float(delta), src).alpha
        worst = max(worst, abs(alpha - (math.pi / 4 - float(delta) / 2)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _line(
        2, "symmetric root", ok, f"worst |alpha - (pi/4 - delta/2)| {worst:.3e}, {elapsed:.2f}s"
    )


def test_criterion_03_distortion_identity():
    worst = 0.0
    for p0 in DEFAULT_P0S:
        src = SourceSpec(p0)
        rho = src.density()
        for delta in np.linspace(0.02, math.pi / 2 - 0.02, 50):
            alpha = r1_curve_point(float(delta), src).alpha
            pair = pair_channel(alpha, float(delta))
            d = quantum.distortion(rho, pair)
            closed = 2 * p0 * (1 - p0) * (1 - math.cos(float(delta)))
            worst = max(worst, abs(d - closed))
    ok = worst <= 1e-10
    assert _line(3, "distortion identity", ok, f"worst |d - closed form| {worst:.3e}")


def test_criterion_04_endpoints():
    worst_zero, worst_max = 0.0, 0.0
    for p0 in DEFAULT_P0S:
        src = SourceSpec(p0)
        start = r1_curve_point(0.0, src)
        end = r1_curve_point(math.pi / 2, src)
        worst_zero = max(worst_zero, abs(start.R - quantum.binary_entropy(p0)))
        worst_max = max(worst_max, end.R)
        assert end.d == pytest.approx(src.d_max, abs=1e-12)
    ok = worst_zero <= 1e-9 and worst_max <= 1e-9
    assert _line(
        4, "endpoints", ok,
        f"worst |R(0) - h2(p0)| {worst_zero:.3e}, worst R(d_max) {worst_max:.3e}"
    )


def test_criterion_05_convexity_and_zero_slope():
    worst_convexity = math.inf
    all_strict = True
    for p0 in DEFAULT_P0S:
        src = SourceSpec(p0)
        points = sweep_curve(src, 512)
        d = np.array([p.d for p in points])
        rate = np.array([p.R for p in points])
        slopes = np.diff(rate) / np.diff(d)
        worst_convexity = min(worst_convexity, float(np.min(np.diff(slopes))))
        decile = np.abs(slopes[d[:-1] >= 0.9 * src.d_max])
        all_strict = all_strict and bool(np.all(np.diff(decile) < 0))
    ok = worst_convexity >= -1e-8 and all_strict
    assert _line(
        5, "convexity and zero-slope approach", ok,
        f"min slope difference {worst_convexity:.3e}, "
        f"final-decile slopes strictly decreasing: {all_strict}"
    )


def test_criterion_06_lemma_suites():
    start = time.perf_counter()
    reports = []
    for dim in (2, 4, 8):
        reports.append(verify.check_lemma1(10000, dim, seed=42))
        reports.append(verify.check_lemma2(10000, dim, 4, seed=42))
    elapsed = time.perf_counter() - start
    violations = sum(r.n_violations for r in reports)
    ok = violations == 0 and all(r.passed for r in reports) and elapsed < 30.0
    assert _line(
        6, "lemma suites", ok,
        f"{violations} violations over {sum(r.n_trials for r in reports)} trials, "
        f"{elapsed:.1f}s"
    )


def test_criterion_07_theorem1_construction():
    start = time.perf_counter()
    reports = [
        verify.check_theorem1(10000, seed=42, src=SourceSpec(p0))
        for p0 in (0.5, 0.7, 0.9)
    ]
    elapsed = time.perf_counter() - start
    ok = (
        all(r.passed for r in reports)
        and all(r.params["worst_entropy_gap"] <= 1e-8 for r in reports)
        and all(r.params["worst_distortion_increase"] <= 1e-9 for r in reports)
        and all(r.params["worst_commutator"] <= 1e-10 for r in reports)
        and elapsed < 30.0
    )
    detail = ", ".join(
        f"p0={r.params['p0']}: entropy {r.params['worst_entropy_gap']:.1e}, "
        f"distortion {r.params['worst_distortion_increase']:.1e}"
        for r in reports
    )
    assert _line(7, "ordered-diagonal replacement", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_08_curve_dominance():
    start = time.perf_counter()
    reports = [
        verify.random_channel_search(SourceSpec(p0), 100000, seed=42)
        for p0 in (0.5, 0.7)
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 300.0
    detail = ", ".join(
        f"p0={r.params['p0']}: worst undershoot {r.worst_violation:.3e}"
        for r in reports
    )
    assert _line(8, "curve dominance", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_09_block_dominance():
    start = time.perf_counter()
    block_reports = [
        verify.check_theorem2_blocks(SourceSpec(p0), 10000, seed=42)
        for p0 in (0.5, 0.7)
    ]
    iso_report = verify.check_theorem3_isotropic(2, 10000, seed=42)

    worst_membership = 0.0
    for p0, delta in ((0.5, 0.8), (0.7, 0.5), (0.7, 1.1)):
        src = SourceSpec(p0)
        pt = r1_curve_point(delta, src)
        pair = pair_channel(pt.alpha, delta)
        elements = tuple(
            np.kron(a, b)
            for a in pair.elements
            for b in pair.elements
        )
        channel = KrausChannel(elements)
        rho2 = DensityMatrix(np.kron(src.density().mat, src.density().mat))
        rate = 0.5 * quantum.average_entropy(channel, rho2)
        d = quantum.block_distortions([channel.elements], src.density())[0]
        worst_membership = max(
            worst_membership, abs(rate - pt.R), abs(d - pt.d)
        )
    elapsed = time.perf_counter() - start
    ok = (
        all(r.passed for r in block_reports)
        and iso_report.passed
        and worst_membership <= 1e-8
    )
    assert _line(
        9, "block dominance", ok,
        f"diagonal worst {max(r.worst_violation for r in block_reports):.3e}, "
        f"general worst {iso_report.worst_violation:.3e}, "
        f"tensor-square membership {worst_membership:.3e}, {elapsed:.1f}s"
    )


def test_criterion_10_perturbation_local_minimum():
    report = verify.check_perturbation(SourceSpec(0.7), seed=42)
    growth_ok = report.passed and report.worst_violation <= 1e-9
    # stationarity of the optimal angle cancels the |x|^2 term of the
    # entropy growth, so doubling |x| scales it by 2^4: the band is 4 x [3, 5]
    ratios = [r["ratio"] for r in report.params["growth_ratios"]]
    ratio_ok = len(ratios) == 80 and all(12.0 <= r <= 20.0 for r in ratios)
    # the weight functions that keep the pair trace preserving are quadratic
    shift_ratios = report.params["weight_shift_ratios"]
    shifts_ok = len(shift_ratios) == 10 and all(
        3.0 <= r["lambda_ratio"] <= 5.0 and 3.0 <= r["mu_ratio"] <= 5.0
        for r in shift_ratios
    )
    ok = growth_ok and ratio_ok and shifts_ok
    assert _line(
        10, "perturbation local minimum", ok,
        f"local-minimum clause: {'ok' if growth_ok else 'violated'} "
        f"(worst {report.worst_violation:.3e}); entropy-growth doubling ratio "
        f"in [{min(ratios):.2f}, {max(ratios):.2f}] vs quartic band [12, 20]; "
        f"weight-shift ratios in [3, 5]: {shifts_ok}"
    )


def test_criterion_11_realization_consistency():
    rng = np.random.default_rng(42)
    worst_gap = 0.0
    for _ in range(100):
        src = SourceSpec(float(rng.uniform(0.5, 0.95)))
        delta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        circ = realization.build_circuit(delta, src)
        joint = reference.joint_output(circ.unitary, src)
        reconstructed = np.zeros((2, 2), dtype=complex)
        for outcome in (0, 1):
            proj = np.zeros((2, 2), dtype=complex)
            proj[outcome, outcome] = 1.0
            proj4 = np.kron(proj, np.eye(2, dtype=complex))
            reconstructed += reference.partial_trace(proj4 @ joint @ proj4, {2})
        direct, _ = quantum.apply(circ.channel, src.density())
        worst_gap = max(worst_gap, float(np.max(np.abs(reconstructed - direct))))

    src5 = SourceSpec(0.5)
    circ = realization.build_circuit(0.8, src5)
    stream = realization.simulate_stream(circ, 10**6, seed=42)
    sigma = math.sqrt(0.5 * 0.5 / 10**6)
    mc_ok = abs(stream.empirical_lambda1 - 0.5) <= 3 * sigma

    worst_rate = max(
        abs(p.r - 1.0) for p in sweep_curve(src5, 101)
    )
    ok = worst_gap <= 1e-11 and mc_ok and worst_rate <= 1e-9
    assert _line(
        11, "realization consistency", ok,
        f"induced-channel gap {worst_gap:.3e}, empirical lambda1 "
        f"{stream.empirical_lambda1:.6f} (3-sigma band {3*sigma:.2e}), "
        f"classical-rate column gap {worst_rate:.3e}"
    )


def test_criterion_12_entropy_exchange_claims():
    worst_exchange = 0.0
    for p0 in DEFAULT_P0S:
        src = SourceSpec(p0)
        rho = src.density()
        for delta in np.linspace(0.1, math.pi / 2 - 0.1, 9):
            alpha = r1_curve_point(float(delta), src).alpha
            pair = pair_channel(alpha, float(delta))
            for element in pair.elements:
                worst_exchange = max(
                    worst_exchange,
                    quantum.entropy_exchange(rho, KrausChannel((element,))),
                )

    rng = np.random.default_rng(42)
    worst_chain = -math.inf
    for trial in range(10000):
        k = trial % 4 + 1
        kraus = quantum.stinespring_kraus(rng, 1, 2, k)[0]
        channel = KrausChannel(tuple(kraus))
        rho = reference.random_density(2, 10_000 + trial)
        out, weight = quantum.apply(channel, rho)
        gap = quantum.average_entropy(channel, rho) - reference.von_neumann_entropy(
            out / weight
        )
        worst_chain = max(worst_chain, gap)
    ok = worst_exchange <= 1e-12 and worst_chain <= 1e-9
    assert _line(
        12, "entropy-exchange claims", ok,
        f"worst single-element exchange {worst_exchange:.3e}, "
        f"worst concavity-chain excess {worst_chain:.3e}"
    )
