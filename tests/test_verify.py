import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import reference
from qubitrd import cli, quantum, ratedistortion as rd, realization, verify
from qubitrd.errors import DomainError
from qubitrd.quantum import DensityMatrix, KrausChannel
from qubitrd.ratedistortion import (
    SourceSpec,
    isotropic_s1,
    pair_channel,
    r1_curve_point,
    sweep_curve,
)

SRC5 = SourceSpec(0.5)
SRC7 = SourceSpec(0.7)


def test_lemma1_identity_equality():
    # U = V = I gives |tr(D L)| = tr(D L) exactly.
    d = np.diag([2.0, 1.0])
    lam = np.diag([3.0, 1.0])
    lhs = abs(np.trace(np.eye(2) @ d @ np.eye(2) @ lam))
    assert lhs == pytest.approx(np.trace(d @ lam).real, abs=1e-15)


def test_lemma1_swap_pairing():
    # The mismatched pairing trades 2*3 + 1*1 for 2*1 + 1*3.
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    d = np.diag([2.0, 1.0]).astype(complex)
    lam = np.diag([3.0, 1.0]).astype(complex)
    lhs = abs(np.trace(swap @ d @ swap.conj().T @ lam))
    assert lhs == pytest.approx(5.0, abs=1e-12)
    assert lhs <= np.trace(d @ lam).real


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_lemma1_suite(dim):
    report = verify.check_lemma1(2000, dim, seed=42)
    assert report.passed
    assert report.n_violations == 0
    assert report.n_trials == 2000
    assert report.worst_violation <= 1e-9


def test_lemma2_projector_case():
    d = np.diag([3.0, 1.0, 0.5])
    lhs = sum(d[i, i] ** 2 for i in range(3))
    assert lhs <= np.trace(d) ** 2


def test_lemma2_unitary_case():
    u = quantum.stinespring_kraus(np.random.default_rng(5), 1, 4, 1)[0, 0]
    assert abs(np.trace(u)) ** 2 <= 16 + 1e-9


@pytest.mark.parametrize("dim,k", [(2, 2), (4, 4), (8, 3)])
def test_lemma2_suite(dim, k):
    report = verify.check_lemma2(2000, dim, k, seed=11)
    assert report.passed and report.n_violations == 0


def _theorem1_construction(a, src):
    rho = src.density().mat
    sqrt_rho = np.diag([math.sqrt(src.p0), math.sqrt(src.p1)])
    svals = np.linalg.svd(a @ sqrt_rho, compute_uv=False)
    return np.diag(svals) @ np.diag([1 / math.sqrt(src.p0), 1 / math.sqrt(src.p1)])


def test_theorem1_positive_diagonal_is_fixed_point():
    # Descending positive diagonal already commutes with the source.
    a = np.diag([2.0, 1.0]).astype(complex)
    d = _theorem1_construction(a, SRC7)
    assert np.allclose(d, a, atol=1e-12)


def test_theorem1_unitary_factor_removed():
    rng = np.random.default_rng(13)
    rho = SRC7.density()
    for _ in range(50):
        u = quantum.stinespring_kraus(rng, 1, 2, 1)[0, 0]
        pos = np.diag(rng.uniform(0.2, 2.0, 2)).astype(complex)
        a = u @ pos
        d = _theorem1_construction(a, SRC7)
        ch_a, ch_d = KrausChannel((a,)), KrausChannel((d,))
        out_a, w_a = quantum.apply(ch_a, rho)
        out_d, w_d = quantum.apply(ch_d, rho)
        assert w_a == pytest.approx(w_d, abs=1e-9)
        s_a = reference.von_neumann_entropy(out_a / w_a)
        s_d = reference.von_neumann_entropy(out_d / w_d)
        assert s_a == pytest.approx(s_d, abs=1e-8)
        assert quantum.distortion(rho, ch_d) <= quantum.distortion(rho, ch_a) + 1e-9


@pytest.mark.parametrize("p0", [0.5, 0.7, 0.9])
def test_theorem1_suite(p0):
    report = verify.check_theorem1(3000, seed=23, src=SourceSpec(p0))
    assert report.passed
    assert report.params["worst_commutator"] <= 1e-10
    assert report.params["worst_entropy_gap"] <= 1e-8
    assert report.params["worst_distortion_increase"] <= 1e-9


def test_reports_are_deterministic():
    a = verify.check_lemma1(500, 4, seed=9)
    b = verify.check_lemma1(500, 4, seed=9)
    assert a == b
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert cli._record_text(dataclasses.asdict(a)) == cli._record_text(dataclasses.asdict(b))


def test_report_serialization_roundtrip():
    report = verify.check_lemma2(200, 2, 2, seed=3)
    record = dataclasses.asdict(report)
    assert list(record) == [
        "suite_name", "n_trials", "n_violations", "worst_violation", "seed",
        "params", "passed", "tolerance", "failures",
    ]
    assert isinstance(record["failures"], tuple)
    blob = json.dumps(record)
    back = json.loads(blob)
    assert back["suite_name"] == "lemma2"
    assert back["passed"] is True
    text = cli._record_text(record)
    assert "suite_name: lemma2" in text
    assert "passed: true" in text


def test_perturbation_growth_nonnegative_and_quartic():
    report = verify.check_perturbation(SRC7, seed=0)
    assert report.passed
    assert report.worst_violation <= 1e-9
    # entropy growth at the optimum is quartic in |x| (the quadratic
    # coefficient cancels at the stationary angle), so doubling |x|
    # multiplies the growth by ~16
    ratios = [r["ratio"] for r in report.params["growth_ratios"]]
    assert len(ratios) == 80
    assert all(14.0 <= r <= 22.0 for r in ratios)
    # the weight functions themselves are quadratic: ratio ~4
    shift_ratios = report.params["weight_shift_ratios"]
    assert all(3.0 <= r["lambda_ratio"] <= 5.0 for r in shift_ratios)
    assert all(3.0 <= r["mu_ratio"] <= 5.0 for r in shift_ratios)
    assert report.params["worst_distortion_drift"] <= 1e-12


def test_perturbation_masks_infeasible_cells():
    # At p0 0.9 the cell (0.15, 0.02) is infeasible, its |x| longer than
    # the half-chord h of its delta: the cell is recorded, its 8 phases are
    # not trials, and neither ratio table has a row at its delta.
    report = verify.run_suite("perturbation", SourceSpec(0.9), 1, seed=0)[0]
    params = report.params
    assert report.passed
    assert report.n_trials == 152
    assert params["infeasible_points"] == [{"delta": 0.15, "magnitude": 0.02}]
    assert len(params["growths"]) == 152 and len(params["weight_shifts"]) == 19
    assert all(r["delta"] != 0.15 for r in params["growth_ratios"])
    assert all(r["delta"] != 0.15 for r in params["weight_shift_ratios"])


def test_perturbation_passes_up_to_the_last_feasible_p0(monkeypatch):
    # The closed-form weights make every perturbed set complete, unscaled,
    # within 6.4e-15 (the 1/p1 entries amplify round-off, so a weight
    # quadratic was off by 7.2e-9, past the 1e-10 check from p0 0.9525).
    stacks = []
    block_distortions = quantum.block_distortions

    def spy(kraus, rho):
        stacks.append(kraus)
        return block_distortions(kraus, rho)

    monkeypatch.setattr(quantum, "block_distortions", spy)
    for p0 in np.arange(0.5, 0.98751, 0.0025).round(4):
        report = verify.run_suite("perturbation", SourceSpec(float(p0)), 1, seed=0)[0]
        assert report.passed and report.n_trials > 0
        assert report.params["worst_distortion_drift"] <= 1e-10
        gram = np.einsum("nkji,nkjl->nil", stacks[-1].conj(), stacks[-1])
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-13


@pytest.mark.parametrize("p0", [0.99, 0.999])
def test_perturbation_rejects_a_grid_with_no_feasible_cell(p0):
    # Every cell of the default grid is infeasible from p0 0.99 on; an empty
    # report would pass with no trial.
    # The message names the largest feasible |x|, the largest half-chord h.
    with pytest.raises(DomainError, match=f"p0 = {p0}: the largest feasible") as info:
        verify.run_suite("perturbation", SourceSpec(p0), 1, seed=0)
    assert str(info.value).endswith({0.99: "is 0.00996", 0.999: "is 0.000989"}[p0])


def test_perturbation_takes_no_ratio_of_round_off():
    # At the unbiased source every growth is round-off (within 6.1e-16 of
    # 0), so no ratio is taken; at p0 0.7 and 0.9 the smallest growths are
    # 6.5e-8 and 1.7e-6, and every ratio row stays.
    rows = {
        p0: verify.run_suite("perturbation", SourceSpec(p0), 1, seed=0)[0]
        for p0 in (0.5, 0.7, 0.9)
    }
    assert max(abs(g["growth"]) for g in rows[0.5].params["growths"]) < 1e-15
    assert rows[0.5].params["growth_ratios"] == []
    assert len(rows[0.7].params["growth_ratios"]) == 80
    assert len(rows[0.9].params["growth_ratios"]) == 72


def test_perturbation_solves_every_angle_in_one_batch(monkeypatch):
    calls = []
    optimal_alpha = verify._optimal_alpha

    def spy(deltas, p0):
        calls.append(len(deltas))
        return optimal_alpha(deltas, p0)

    monkeypatch.setattr(verify, "_optimal_alpha", spy)
    verify.run_suite("perturbation", SRC7, 1, seed=0)
    assert calls == [len(verify.PERTURBATION_DELTAS)]


def _oracle_weights(mp, p0, alpha, delta, x):
    """The perturbed pair's weights, rebuilt in mpmath.

    Returns f, (c, s) = (cos theta, sin theta), the unperturbed weights
    (lam0, mu0) and the weights (lam, mu) that ``mp.findroot`` finds from
    A1†A1 + A2†A2 = I, starting at (lam0, mu0).
    """
    p0 = mp.mpf(p0)
    p1 = 1 - p0
    alpha, delta = mp.mpf(alpha), mp.mpf(delta)
    t1 = p0 * mp.cos(alpha) + p1 * mp.cos(alpha + delta)
    t2 = p0 * mp.sin(alpha) + p1 * mp.sin(alpha + delta)
    f = mp.sqrt(t1**2 + t2**2)
    c, s = t1 / f, t2 / f
    xx = abs(mp.mpc(x)) ** 2

    def completeness(lam, mu):
        return (
            f**2 * (lam**2 * c**2 + mu**2 * s**2 + xx) - p0**2,
            f**2 * ((1 - lam) ** 2 * c**2 + (1 - mu) ** 2 * s**2 + xx) - p1**2,
        )

    start = (p0 * mp.cos(alpha) / t1, p0 * mp.sin(alpha) / t2)
    return f, (c, s), start, tuple(mp.findroot(completeness, start))


def _oracle_average_entropy(mp, p0, alpha, delta, x):
    """Average output entropy of the perturbed pair, rebuilt in mpmath.

    The elements are A_i = N_i rho^-1 with Hermitian N_i carrying the
    off-diagonal amplitude x, so each unnormalized output is N_i rho^-1 N_i.
    The weights (lam, mu) are found from A1†A1 + A2†A2 = I, which reads
    N1² + N2² = rho²; tr N_i is independent of them, so the entanglement
    fidelity stays at the diagonal pair's value.
    """
    f, (c, s), _, (lam, mu) = _oracle_weights(mp, p0, alpha, delta, x)
    p0, x = mp.mpf(p0), mp.mpc(x)
    rho_inv = mp.matrix([[1 / p0, 0], [0, 1 / (1 - p0)]])
    total = mp.mpf(0)
    for n in (
        mp.matrix([[lam * c, x * s], [mp.conj(x) * s, (1 - lam) * c]]),
        mp.matrix([[mu * s, -x * c], [-mp.conj(x) * c, (1 - mu) * s]]),
    ):
        out = f**2 * n * rho_inv * n
        weight = mp.re(out[0, 0] + out[1, 1])
        det = mp.re(out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0])
        q = (1 + mp.sqrt(1 - 4 * det / weight**2)) / 2
        total += weight * -(q * mp.log(q, 2) + (1 - q) * mp.log(1 - q, 2))
    return total


@pytest.mark.parametrize("delta", verify.PERTURBATION_DELTAS[[0, 3, 7]].tolist())
def test_perturbation_growth_matches_mpmath_oracle(delta):
    mp = pytest.importorskip("mpmath")
    alpha = r1_curve_point(delta, SRC7).alpha
    with mp.workdps(60):

        def growth(a, x):
            return _oracle_average_entropy(mp, 0.7, a, delta, x) - (
                _oracle_average_entropy(mp, 0.7, a, delta, 0)
            )

        def doubling_ratio(a):
            g_lo = growth(a, mp.mpf("1e-4"))
            return g_lo, growth(a, mp.mpf("2e-4")) / g_lo

        # at the solved angle the |x|² coefficient cancels: quartic growth
        g_opt, ratio_opt = doubling_ratio(alpha)
        assert g_opt > 0
        assert abs(ratio_opt - 16) <= 0.01
        # off the optimum it does not: quadratic growth whose sign is
        # opposite to the stationarity residual dS/dalpha of the base pair
        for offset in (-0.01, 0.01):
            g_off, ratio_off = doubling_ratio(alpha + offset)
            assert abs(ratio_off - 4) <= 0.01
            residual = mp.diff(
                lambda a: _oracle_average_entropy(mp, 0.7, a, delta, 0), alpha + offset
            )
            assert residual != 0 and g_off * residual < 0

        report = verify.check_perturbation(SRC7, seed=0)
        rows = [g for g in report.params["growths"] if g["delta"] == delta]
        assert len(rows) == 16
        for g in rows:
            x = mp.mpf(g["magnitude"]) * mp.expj(mp.mpf(g["phase"]))
            exact = growth(alpha, x)
            assert abs(g["growth"] - exact) <= 1e-8 * abs(exact)


@pytest.mark.parametrize("p0", [0.9, 0.98])
def test_perturbation_default_grid_matches_mpmath_oracle(p0):
    # Every growth and weight shift of the default grid against 50 digits.
    # The closed-form weights keep the growths within 1.8e-10 relative and
    # the shifts within 8.1e-13; a weight quadratic with a column rescale
    # was off by 2.3e-7 and 8.5e-9.
    mp = pytest.importorskip("mpmath")
    src = SourceSpec(p0)
    params = verify.run_suite("perturbation", src, 1, seed=0)[0].params
    alphas = {d: r1_curve_point(d, src).alpha for d in params["deltas"]}
    with mp.workdps(50):
        base = {d: _oracle_average_entropy(mp, p0, a, d, 0) for d, a in alphas.items()}
        for g in params["growths"]:
            x = mp.mpf(g["magnitude"]) * mp.expj(mp.mpf(g["phase"]))
            a = alphas[g["delta"]]
            exact = _oracle_average_entropy(mp, p0, a, g["delta"], x) - base[g["delta"]]
            assert abs(g["growth"] - exact) <= 1e-8 * abs(exact)
        for w in params["weight_shifts"]:
            a = alphas[w["delta"]]
            _, _, start, roots = _oracle_weights(mp, p0, a, w["delta"], w["magnitude"])
            for shift, root, unperturbed in zip(
                (w["lambda_shift"], w["mu_shift"]), roots, start
            ):
                exact = root - unperturbed
                assert abs(shift - exact) <= 1e-11 * abs(exact)


def test_interpolator_membership_and_bounds():
    # The exact curve at each row's distortion is the row's rate: the
    # distortion maps back to the row's delta up to round-off.
    for p0 in (0.5, 0.5000001, 0.7, 0.9, 0.999999):
        src = SourceSpec(p0)
        curve = verify.rate_curve_interpolator(src)
        points = sweep_curve(src, 4097)
        assert np.max(np.abs(curve(points.d) - points.R)) <= 1e-15
        assert float(curve(src.d_max)) == 0.0
        assert float(curve(src.d_max + 0.1)) == 0.0
        for d in (0.0, -1e-9):
            assert float(curve(d)) == quantum.binary_entropy(p0)
        # finite distortions outside [0, d_max] are clipped; NaN is refused
        for d in (math.nan, np.array([0.1, math.nan])):
            with pytest.raises(DomainError, match="distortion"):
                curve(d)


def test_reference_takes_one_h2_call_per_evaluation(monkeypatch):
    # R's two entropies and r go through one unchecked call over their
    # (3, n) stack, however many distortions an evaluation takes, and no
    # call of the checked h2.
    curve = verify.RateCurveInterpolator(SRC7)
    calls = []

    def spy(name, h2):
        def call(p):
            calls.append((name, np.shape(p)))
            return h2(p)

        return call

    monkeypatch.setattr(quantum, "binary_entropy", spy("checked", quantum.binary_entropy))
    monkeypatch.setattr(rd, "_h2_unchecked", spy("unchecked", rd._h2_unchecked))
    curve(np.linspace(0.0, SRC7.d_max, 50))
    curve(0.2)
    assert calls == [("unchecked", (3, 50)), ("unchecked", (3,))]


@pytest.mark.parametrize("p0", [0.5, 0.7, 0.9])
def test_reference_stays_below_curve_on_dense_grid(p0):
    # A uniform grid, and a finer one over the last two of 511 equal
    # delta cells, where delta nears pi/2.
    src = SourceSpec(p0)
    curve = verify.rate_curve_interpolator(src)
    deltas = np.concatenate(
        [
            np.linspace(0.0, math.pi / 2, 997),
            np.linspace(np.linspace(0.0, math.pi / 2, 1023)[-5], math.pi / 2, 101),
        ]
    )
    points = [r1_curve_point(float(delta), src) for delta in deltas]
    d = np.array([p.d for p in points])
    rate = np.array([p.R for p in points])
    assert np.max(np.abs(curve(d) - rate)) <= 1e-15


def test_search_optimal_pair_sits_on_curve():
    curve = verify.rate_curve_interpolator(SRC7)
    rho = SRC7.density()
    for delta in (0.4, 0.9):
        pt = r1_curve_point(delta, SRC7)
        pair = pair_channel(pt.alpha, delta)
        sbar = quantum.average_entropy(pair, rho)
        assert sbar >= float(curve(pt.d)) - 1e-12


def test_search_unitary_channel_above_curve():
    curve = verify.rate_curve_interpolator(SRC7)
    rho = SRC7.density()
    for seed in range(20):
        u = quantum.stinespring_kraus(np.random.default_rng(seed), 1, 2, 1)[0, 0]
        ch = KrausChannel((u, np.zeros((2, 2), dtype=complex)))
        d = 1 - abs(np.trace(u @ rho.mat)) ** 2
        sbar = reference.von_neumann_entropy(u @ rho.mat @ u.conj().T)
        assert sbar >= float(curve(d)) - 1e-9


@pytest.mark.parametrize("p0", [0.5, 0.7])
def test_search_suite(p0):
    report = verify.random_channel_search(SourceSpec(p0), 20000, seed=31)
    assert report.passed and report.n_violations == 0


def test_blocks_tensor_square_on_curve():
    for p0, delta in ((0.7, 0.5), (0.7, 1.0), (0.5, 0.8)):
        src = SourceSpec(p0)
        pt = r1_curve_point(delta, src)
        pair = pair_channel(pt.alpha, delta)
        elements = tuple(
            np.kron(a, b)
            for a in pair.elements
            for b in pair.elements
        )
        ch = KrausChannel(elements)
        rho2 = DensityMatrix(np.kron(src.density().mat, src.density().mat))
        rate = 0.5 * quantum.average_entropy(ch, rho2)
        d = quantum.block_distortions([ch.elements], src.density())[0]
        assert rate == pytest.approx(pt.R, abs=1e-8)
        assert d == pytest.approx(pt.d, abs=1e-8)


def test_blocks_complete_dephasing_reaches_max_distortion():
    elements = []
    for i in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[i, i] = 1.0
        elements.append(e)
    ch = KrausChannel(tuple(elements))
    rho2 = DensityMatrix(np.kron(SRC7.density().mat, SRC7.density().mat))
    assert quantum.block_distortions([ch.elements], SRC7.density())[0] == pytest.approx(
        SRC7.d_max, abs=1e-12
    )
    assert quantum.average_entropy(ch, rho2) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p0", [0.5, 0.7])
def test_blocks_suite(p0):
    report = verify.check_theorem2_blocks(SourceSpec(p0), 500, seed=17)
    assert report.passed and report.n_violations == 0


def test_blocks_reports_the_worst_over_two_or_more_elements():
    # Every k = 1 draw is the identity, on the curve at d = 0, so the
    # overall worst reads about 0 and the k >= 2 worst carries the margin.
    report = verify.check_theorem2_blocks(SRC7, 500, seed=17)
    assert abs(report.worst_violation) <= 1e-12
    assert report.params["worst_violation_k2"] < 0


@pytest.mark.parametrize(
    "run",
    [
        lambda seed: verify.check_lemma1(5, 2, seed),
        lambda seed: verify.check_lemma2(5, 2, 2, seed),
        lambda seed: verify.check_theorem1(5, seed, SRC7),
        lambda seed: verify.random_channel_search(SRC7, 5, seed),
        lambda seed: verify.check_theorem2_blocks(SRC7, 5, seed),
        lambda seed: verify.check_theorem3_isotropic(2, 5, seed),
        lambda seed: verify.check_perturbation(SRC7, seed),
    ],
    ids=["lemma1", "lemma2", "theorem1", "search", "blocks", "isotropic", "perturbation"],
)
@pytest.mark.parametrize("seed", [-1, -3, 1.5, -1.5, "7"])
def test_suites_reject_a_bad_seed(run, seed):
    with pytest.raises(DomainError, match="seed"):
        run(seed)


@pytest.mark.parametrize(
    "run, name",
    [
        (lambda bad: verify.check_lemma1(10, bad, 0), "dim"),
        (lambda bad: verify.check_lemma2(10, 2, bad, 0), "k"),
        (lambda bad: verify.check_lemma1(bad, 2, 0), "n_trials"),
        (lambda bad: verify.check_theorem1(bad, 0, SRC7), "n_trials"),
        (lambda bad: verify.random_channel_search(SRC7, bad, 0), "n_trials"),
        (lambda bad: verify.check_theorem2_blocks(SRC7, bad, 0), "n_trials"),
        (lambda bad: verify.check_theorem3_isotropic(2, bad, 0), "n_trials"),
        (lambda bad: verify.run_suite("lemma2", SRC7, bad, 0), "n_trials"),
        (lambda bad: verify.run_suite("perturbation", SRC7, bad, 0), "n_trials"),
        (lambda bad: verify.check_theorem3_isotropic(bad, 10, 0), "n_qubits"),
        (
            lambda bad: realization.simulate_stream(
                realization.build_circuit(0.8, SRC7), bad, 0
            ),
            "n_samples",
        ),
        (lambda bad: verify.check_lemma2(10, bad, 2, 0), "dim"),
        (lambda bad: verify.check_lemma2(bad, 2, 2, 0), "n_trials"),
        (lambda bad: verify.check_lemma1(5, 2, bad), "seed"),
        (lambda bad: verify.check_lemma2(5, 2, 2, bad), "seed"),
        (lambda bad: verify.check_theorem1(5, bad, SRC7), "seed"),
        (lambda bad: verify.random_channel_search(SRC7, 5, bad), "seed"),
        (lambda bad: verify.check_theorem2_blocks(SRC7, 5, bad), "seed"),
        (lambda bad: verify.check_theorem3_isotropic(2, 5, bad), "seed"),
        (lambda bad: verify.check_perturbation(SRC7, bad), "seed"),
        (lambda bad: verify.run_suite("lemma2", SRC7, 5, bad), "seed"),
        (lambda bad: sweep_curve(SRC7, bad), "n_points"),
        (
            lambda bad: realization.simulate_stream(
                realization.build_circuit(0.8, SRC7), 10, bad
            ),
            "seed",
        ),
    ],
    ids=[
        "lemma1-dim", "lemma2-k", "lemma1-trials", "theorem1-trials",
        "search-trials", "blocks-trials", "isotropic-trials", "run_suite-trials",
        "run_suite-perturbation-trials",
        "isotropic-qubits", "simulate-samples", "lemma2-dim", "lemma2-trials",
        "lemma1-seed", "lemma2-seed", "theorem1-seed", "search-seed", "blocks-seed",
        "isotropic-seed", "perturbation-seed", "run_suite-seed", "sweep-points",
        "simulate-seed",
    ],
)
@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "3", None])
def test_counts_must_be_integers(run, name, bad):
    # every integer parameter takes one check (errors.check_integer): a bool
    # is no count and no seed, however Python ranks it among the integers
    with pytest.raises(DomainError, match=name):
        run(bad)
    # NumPy integers are integers
    run(np.int64(2))


def test_empty_runs_pass_vacuously():
    for report in (
        verify.check_theorem1(0, 0, SRC7),
        verify.check_theorem2_blocks(SRC7, 0, 0),
    ):
        assert (report.n_trials, report.passed, report.worst_violation) == (0, True, 0.0)
        assert all(v == 0.0 for k, v in report.params.items() if k.startswith("worst"))


def test_blocks_diagonal_marginal_is_diagonal():
    # Projections of a diagonal two-qubit element onto either qubit stay
    # diagonal, and the marginal map of the whole set sends basis states to
    # diagonal outputs.
    rng = np.random.default_rng(37)
    rho2 = np.kron(SRC7.density().mat, SRC7.density().mat)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        diags = rng.uniform(0.05, 1.0, (k, 4))
        diags /= np.sqrt((diags**2).sum(axis=0))[np.newaxis, :]
        elements = tuple(np.diag(row).astype(complex) for row in diags)
        for element in elements:
            out = element @ rho2 @ element.conj().T
            for alpha in (1, 2):
                reduced = reference.partial_trace(out, {alpha})
                assert abs(reduced[0, 1]) <= 1e-14
        choi = reference.marginal_channel(
            KrausChannel(elements), SRC7.density(), 1
        )
        for i in range(2):
            block = choi.block(i, i)
            assert abs(block[0, 1]) <= 1e-14 and abs(block[1, 0]) <= 1e-14


def test_isotropic_identity_endpoint():
    ch = KrausChannel((np.eye(4, dtype=complex),))
    rho1 = DensityMatrix(np.eye(2, dtype=complex) / 2)
    assert quantum.block_distortions([ch.elements], rho1)[0] == pytest.approx(
        0.0, abs=1e-12
    )
    rho2 = DensityMatrix(np.eye(4, dtype=complex) / 4)
    assert 0.5 * quantum.average_entropy(ch, rho2) == pytest.approx(1.0, abs=1e-12)


def test_isotropic_tensored_pair_on_curve():
    pt = r1_curve_point(0.8, SRC5)
    pair = pair_channel(pt.alpha, 0.8)
    elements = tuple(
        np.kron(a, b) for a in pair.elements for b in pair.elements
    )
    ch = KrausChannel(elements)
    rho1 = DensityMatrix(np.eye(2, dtype=complex) / 2)
    rho2 = DensityMatrix(np.eye(4, dtype=complex) / 4)
    d = quantum.block_distortions([ch.elements], rho1)[0]
    rate = 0.5 * quantum.average_entropy(ch, rho2)
    assert rate == pytest.approx(isotropic_s1(d), abs=1e-9)


@pytest.mark.parametrize("n_qubits", [2, 3])
def test_isotropic_suite(n_qubits):
    trials = 400 if n_qubits == 2 else 150
    report = verify.check_theorem3_isotropic(n_qubits, trials, seed=29)
    assert report.passed and report.n_violations == 0


# Reports recorded by evaluating each drawn trial on its own through the
# one-channel route (a KrausChannel, tests/reference.py's marginal_channel
# and choi_entanglement_fidelity per qubit, average_entropy, and one reference
# call per trial), not through the suites' stacked kernels. The draws are
# those of the keyed streams: block b of BLOCK_CHUNK = 256 trials draws from
# default_rng((seed, b)), first every trial's k, then its elements. The ids
# name that block size, which the rows depend on. The blocks and search rows
# compare against the exact curve, taken per trial from r1_curve_point at
# the trial's delta. A k = 1 trial of the blocks suite is the identity, which
# sits on the curve; seed 33, the smallest seed whose 12 trials draw no
# k = 1, is used so that the worst violation there depends on the trials
# drawn.
# Columns: suite, argument, trials, seed, and the recorded n_violations,
# passed, failure trials and worst_violation.
RECORDED_BLOCK_REPORTS = [
    ("blocks", 0.5, 12, 33, 0, True, [], -0.0033125965685826264),
    ("blocks", 0.7, 12, 33, 0, True, [], -0.0031751643672572882),
    ("isotropic", 2, 600, 29, 0, True, [], -0.6155705013548516),
    ("isotropic", 3, 300, 29, 0, True, [], -0.784461986531631),
    ("search", 0.7, 2000, 7, 0, True, [], -0.04203410018696188),
]


def _run_suite_by_name(suite, arg, trials, seed):
    if suite == "lemma1":
        return verify.check_lemma1(trials, arg, seed)
    if suite == "lemma2":
        return verify.check_lemma2(trials, arg, 4, seed)
    if suite == "blocks":
        return verify.check_theorem2_blocks(SourceSpec(arg), trials, seed)
    if suite == "search":
        return verify.random_channel_search(SourceSpec(arg), trials, seed)
    return verify.check_theorem3_isotropic(arg, trials, seed)


@pytest.mark.parametrize(
    "suite,arg,trials,seed,violations,passed,failed_trials,worst",
    RECORDED_BLOCK_REPORTS,
    ids=[f"{r[0]}-{r[1]}-{verify.BLOCK_CHUNK}" for r in RECORDED_BLOCK_REPORTS],
)
def test_block_suites_replay_recorded_reports(
    suite, arg, trials, seed, violations, passed, failed_trials, worst
):
    report = _run_suite_by_name(suite, arg, trials, seed)
    assert report.n_trials == trials
    assert report.n_violations == violations
    assert report.passed is passed
    assert [f["trial"] for f in report.failures] == failed_trials
    assert abs(report.worst_violation - worst) <= 1e-12


@pytest.mark.parametrize(
    "suite,arg",
    [
        ("lemma1", 8),
        ("lemma2", 4),
        ("blocks", 0.5),
        ("blocks", 0.7),
        ("isotropic", 2),
        ("isotropic", 3),
        ("search", 0.7),
    ],
)
def test_full_blocks_do_not_depend_on_trials(monkeypatch, suite, arg):
    # With every trial recorded as a failure, a run of two full blocks
    # must replay, row for row, the first two blocks of a longer run.
    monkeypatch.setattr(verify, "ALGEBRA_TOL", -math.inf)
    monkeypatch.setattr(verify, "CURVE_TOL", -math.inf)
    monkeypatch.setattr(verify, "MAX_RECORDED_FAILURES", 10**6)
    full = 2 * verify.BLOCK_CHUNK
    short = _run_suite_by_name(suite, arg, full, seed=5)
    longer = _run_suite_by_name(suite, arg, full + 37, seed=5)
    assert len(short.failures) == full and len(longer.failures) == full + 37
    assert list(short.failures) == list(longer.failures[:full])


def test_lemma1_memory_is_bounded_by_one_block():
    tracemalloc.start()
    try:
        verify.check_lemma1(20000, 8, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# Growth of the phase-0 perturbation per (delta, |x|) in criterion 10's
# report, recorded from the per-channel implementation of the suite. The
# growths of the 8 phases of one (delta, |x|) agree to 3e-9 relative.
RECORDED_PHASE0_GROWTHS = [
    1.857652778824992e-06, 3.6702672509880685e-05,
    4.962377595507661e-07, 8.323222133843622e-06,
    2.4151405686456684e-07, 3.94487026722512e-06,
    1.5164528621713913e-07, 2.4544416786786982e-06,
    1.1013232714685017e-07, 1.7750480622025222e-06,
    8.7953033467425e-08, 1.414350488226912e-06,
    7.518769995495944e-08, 1.2074316950161368e-06,
    6.792044698888944e-08, 1.0897903112982998e-06,
    6.494139392909659e-08, 1.0414237001932225e-06,
    6.811418540308978e-08, 1.0920214298382191e-06,
]


def test_perturbation_replays_recorded_growths():
    deltas = np.linspace(0.15, math.pi / 2 - 0.15, 10)
    report = verify.check_perturbation(SRC7, seed=42)
    assert (report.n_trials, report.n_violations, report.passed) == (160, 0, True)
    assert report.failures == ()
    assert report.worst_violation == pytest.approx(-6.494139392909659e-08, rel=1e-6)
    growths = report.params["growths"]
    assert [(g["delta"], g["magnitude"]) for g in growths[::8]] == [
        (float(d), m) for d in deltas for m in (0.01, 0.02)
    ]
    for i, g in enumerate(growths):
        recorded = RECORDED_PHASE0_GROWTHS[i // 8]
        assert abs(g["growth"] - recorded) <= 1e-6 * recorded


def test_isotropic_rejects_bad_block_size():
    with pytest.raises(DomainError):
        verify.check_theorem3_isotropic(4, 10, seed=0)


def test_run_suite_dispatch():
    reports = verify.run_suite("lemma1", SRC5, trials=200, seed=1)
    assert [r.params["dim"] for r in reports] == [2, 4, 8]
    with pytest.raises(DomainError):
        verify.run_suite("bogus", SRC5, trials=10, seed=0)


def test_optimal_pair_elements_have_zero_entropy_exchange():
    rho = SRC7.density()
    for delta in (0.3, 0.9, 1.4):
        pt = r1_curve_point(delta, SRC7)
        pair = pair_channel(pt.alpha, delta)
        for element in pair.elements:
            single = KrausChannel((element,))
            exchange = quantum.entropy_exchange(rho, single)
            assert exchange <= 1e-12
            assert math.copysign(1.0, exchange) == 1.0
