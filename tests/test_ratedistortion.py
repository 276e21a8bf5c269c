import collections
import math
import sys

import numpy as np
import pytest

from qubitrd import quantum, ratedistortion as rd
from qubitrd.errors import DomainError
from qubitrd.ratedistortion import SourceSpec, pair_channel

SRC5 = SourceSpec(0.5)
SRC7 = SourceSpec(0.7)

# A 40-digit evaluation of the binary entropy.
H2_03 = 0.8812908992306926182


def test_source_spec_validation():
    with pytest.raises(DomainError):
        SourceSpec(0.4)
    with pytest.raises(DomainError):
        SourceSpec(1.0)
    assert SRC7.p1 == pytest.approx(0.3)
    assert SRC7.d_max == pytest.approx(0.42)
    # A numpy p0 is kept as a Python float, so a point still runs on floats.
    src = SourceSpec(np.float64(0.7))
    assert type(src.p0) is float
    assert all(type(x) is float for x in rd.r1_curve_point(0.8, src))


def test_kraus_pair_completeness():
    # An incomplete set is rejected by KrausChannel itself (test_quantum).
    pair = pair_channel(0.3, 0.7)
    assert pair.trace_preserving
    total = sum(a.conj().T @ a for a in pair.elements)
    assert np.max(np.abs(total - np.eye(2))) <= 1e-15


def test_s1_endpoint_identity_filter():
    for src in (SRC5, SRC7, SourceSpec(0.9)):
        d, entropy = rd.s1_curve_point(math.pi / 4, src)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert entropy == pytest.approx(quantum.binary_entropy(src.p0), abs=1e-12)


def test_s1_endpoint_best_guess():
    d, entropy = rd.s1_curve_point(0.0, SRC7)
    assert d == pytest.approx(0.3, abs=1e-12)
    assert entropy == pytest.approx(0.0, abs=1e-12)


def test_s1_array_matches_floats_bit_for_bit():
    thetas = np.linspace(math.pi / 4, 0.0, 201)
    d, entropy = rd.s1_curve_point(thetas, SRC7)
    points = [rd.s1_curve_point(float(theta), SRC7) for theta in thetas]
    assert d.tolist() == [p[0] for p in points]
    assert entropy.tolist() == [p[1] for p in points]
    with pytest.raises(DomainError):
        rd.s1_curve_point(np.array([0.1, 1.0]), SRC7)


def test_s1_isotropic_closed_form():
    for theta in np.linspace(0.0, math.pi / 4, 60):
        d, entropy = rd.s1_curve_point(float(theta), SRC5)
        assert entropy == pytest.approx(rd.isotropic_s1(d), abs=1e-10)


@pytest.mark.parametrize("p0", [0.5, 0.7, 0.9])
def test_s1_distortion_is_never_negative(p0):
    # d = p0 p1 (c - s)^2 / weight has no cancellation: at theta = pi/4,
    # where c and s differ in the last bit, 1 - amplitude^2 / weight read
    # -2.2e-16 at p0 0.7 and 0.9.
    d, _ = rd.s1_curve_point(np.linspace(math.pi / 4, 0.0, 201), SourceSpec(p0))
    assert np.all(d >= 0.0)
    assert d[0] < 1e-30


def test_stationarity_symmetric_root():
    for delta in np.linspace(0.05, math.pi / 2 - 0.05, 25):
        residual = rd._residual_arr(math.pi / 4 - float(delta) / 2, float(delta), 0.5)
        assert abs(residual) <= 1e-10


def test_stationarity_brackets_root():
    for delta in (0.3, 0.8, 1.3):
        sym = math.pi / 4 - delta / 2
        below = rd._residual_arr(sym - 0.1, delta, 0.5)
        above = rd._residual_arr(sym + 0.1, delta, 0.5)
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
            return quantum.average_entropy(pair_channel(a, delta), rho)

        fd = (sbar(alpha + step) - sbar(alpha - step)) / (2 * step)
        residual = rd._residual_arr(alpha, delta, p0)
        assert abs(residual - fd) <= 1e-6 * max(1.0, abs(residual))


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
            best = quantum.average_entropy(pair_channel(root, delta), rho)
            hi = math.pi / 2 - delta
            for alpha in rng.uniform(hi * 1e-3, hi * (1 - 1e-3), 50):
                other = quantum.average_entropy(pair_channel(float(alpha), delta), rho)
                assert best <= other + 1e-12


def test_solver_reads_from_the_guessed_bracket(monkeypatch):
    # A timing-free guard on the solver's start: two reads between the two
    # closed forms of the angle leave a bracket a small fraction of
    # (0, pi/2 - delta) wide. The slowest rows of a 512-point sweep take 8
    # batch iterations (at p0 0.6), and a single delta 5.9 reads on
    # average; a first read at G itself instead of between g and G takes
    # 6.45. Two reads about the guess alone, at g and at g / 1.5 or 1.5 g,
    # took 9 and 7.1; from the whole interval, 16-22 and about 9.5.
    reads = []
    residual = rd._residual_arr

    def spy(alpha, delta, p0, xp=np):
        reads.append(np.size(alpha))
        return residual(alpha, delta, p0, xp)

    monkeypatch.setattr(rd, "_residual_arr", spy)
    for p0 in (0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999):
        reads.clear()
        rd.sweep_curve(SourceSpec(p0), 512)
        assert len(reads) <= (0 if p0 == 0.5 else 8), p0
    pool = np.random.default_rng(47)
    p0s = pool.uniform(0.5, 1.0, 2000)
    deltas = pool.uniform(0.0, math.pi / 2, 2000)
    reads.clear()
    for p0, delta in zip(p0s.tolist(), deltas.tolist()):
        rd.solve_alpha(delta, SourceSpec(p0))
    assert len(reads) / 2000 <= 6.2


# p0 from just above 1/2 to 1 - 1e-12, and delta from 1e-8 to pi/2 - 1e-8,
# geometric near both ends: the start's corners, where g and G meet, w is
# near 0 or 1, or the residual's sign is round-off.
START_P0S = [0.5000001, 0.501, 0.55, 0.7, 0.9, 0.99, 0.999999, 1.0 - 1e-12]
_ENDS = np.geomspace(1e-8, 1e-2, 25)
START_DELTAS = np.concatenate(
    [_ENDS, np.linspace(0.02, math.pi / 2 - 0.02, 50), math.pi / 2 - _ENDS[::-1]]
)


@pytest.mark.parametrize("p0", START_P0S)
def test_start_reads_are_distinct_and_inside(monkeypatch, p0):
    # G is no bound on the root, so nothing here asserts g <= alpha <= G;
    # the start only has to read twice, at two angles strictly inside the
    # interval, on floats and arrays alike.
    reads = []
    residual = rd._residual_arr

    def spy(alpha, delta, p0, xp=np):
        reads.append(np.array(alpha, dtype=float))
        return residual(alpha, delta, p0, xp)

    monkeypatch.setattr(rd, "_residual_arr", spy)
    deltas = START_DELTAS
    rd._bracket(rd._guess(deltas, p0), deltas, p0)
    first, second = reads
    for delta in deltas.tolist():
        rd._bracket(rd._guess(delta, p0, rd._FLOATS), delta, p0, rd._FLOATS)
    floats = np.array(reads[2:]).reshape(-1, 2).T
    assert floats.tobytes() == np.array([first, second]).tobytes()
    top = math.pi / 2 - deltas
    assert np.all(first != second)
    for x in (first, second):
        assert np.all((x > 0.0) & (x < top))


def test_isotropic_angle_is_the_guess_exactly():
    # At p0 = 1/2 the guess is the optimum pi/4 - delta/2, taken as
    # p1 (pi/2 - delta); it is returned without a residual read.
    for n in (512, 4097):
        for pt in rd.sweep_curve(SRC5, n)[1:-1]:
            assert pt.alpha == 0.5 * (math.pi / 2 - pt.delta)
    assert rd.solve_alpha(0.3, SRC5) == 0.5 * (math.pi / 2 - 0.3)


def test_solver_survives_deltas_far_below_any_grid():
    # sin^2 of a guess near delta would underflow to 0 in the residual; the
    # guess is floored, so every read stays finite. The angles here are
    # round-off (the residual vanishes as delta^3), not roots.
    deltas = np.array([5e-324, 1e-300, 1e-200, 1e-160])
    for p0 in (0.5000001, 0.7, 0.9, 1.0 - 1e-12):
        alphas = rd._solve_alphas(deltas, p0)
        expected = [rd.solve_alpha(float(d), SourceSpec(p0)) for d in deltas]
        assert alphas.tobytes() == np.array(expected).tobytes()
        assert np.all((alphas >= 0.0) & (alphas <= math.pi / 2 - deltas))


@pytest.mark.parametrize("n", [512, 4097])
@pytest.mark.parametrize("p0", [0.55, 0.7, 0.9, 0.999])
def test_sweep_angles_match_mpmath_roots(p0, n):
    # Twelve-odd rows spread over each sweep, against the 50-digit root
    # inside a sign change of +-1e-9 about the returned angle.
    mp = pytest.importorskip("mpmath")
    points = rd.sweep_curve(SourceSpec(p0), n)[1:-1]
    with mp.workdps(50):
        p0_ = mp.mpf(p0)
        for pt in points[:: len(points) // 12]:
            delta_, alpha = mp.mpf(pt.delta), pt.alpha
            f = lambda x: _oracle_entropy_slope(mp, p0_, delta_, x)  # noqa: E731
            lo = mp.mpf(alpha - 1e-9 if alpha > 2e-9 else alpha / 2)
            hi = mp.mpf(alpha + 1e-9)
            assert f(lo) < 0 < f(hi)
            root = mp.findroot(f, (lo, hi), solver="anderson")
            assert abs(alpha - float(root)) <= 1e-12


def test_r1_point_delta_is_a_float():
    for delta in (1, np.float64(0.8), np.array(0.8)):
        pt = rd.r1_curve_point(delta, SRC7)
        assert type(pt.delta) is float and pt.delta == float(delta)
        assert pt == rd.r1_curve_point(float(delta), SRC7)
    assert type(rd.r1_curve_point(0, SRC7).delta) is float


@pytest.mark.parametrize("p0", [0.5, 0.7, 0.9, 0.999999])
def test_distortion_matches_mpmath_at_small_delta(p0):
    # 2 d_max sin^2(delta / 2) has no cancellation: d_max (1 - cos delta)
    # read 0.0 at delta = 1e-8 and was 8.9e-5 off (relative) at 1e-6.
    mp = pytest.importorskip("mpmath")
    src = SourceSpec(p0)
    deltas = [1e-8, 1e-6, 1e-4, 0.1, 1.5]
    arrays = src.distortion(np.array(deltas))
    with mp.workdps(50):
        p0_ = mp.mpf(p0)
        for delta, d in zip(deltas, arrays):
            exact = 2 * p0_ * (1 - p0_) * (1 - mp.cos(mp.mpf(delta)))
            assert src.distortion(delta) == d
            assert abs(d - exact) <= 1e-15 * exact


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


@pytest.mark.parametrize("p0", [0.5, 0.7, 0.9, 0.999])
def test_r1_endpoints_are_exact_limits(p0):
    # As delta -> 0, alpha / delta -> p1 / (p0 - p1), so alpha -> 0 and
    # lambda1 -> 1, except at p0 = 1/2, where alpha = pi/4 - delta/2. At
    # delta = pi/2 the interval (0, pi/2 - delta) closes on alpha = 0.
    src = SourceSpec(p0)
    h = quantum.binary_entropy(p0)
    alpha, r, lam1 = (math.pi / 4, 1.0, 0.5) if p0 == 0.5 else (0.0, 0.0, 1.0)
    assert rd.r1_curve_point(0.0, src) == rd.CurvePoint(0.0, alpha, 0.0, h, r, lam1)
    end = rd.CurvePoint(math.pi / 2, 0.0, src.d_max, 0.0, h, p0)
    assert rd.r1_curve_point(math.pi / 2, src) == end
    assert rd.sweep_curve(src, 11)[-1] == end


def test_r1_endpoints_solve_nothing(monkeypatch):
    calls = []
    solve_alpha = rd.solve_alpha

    def spy(delta, src):
        calls.append(delta)
        return solve_alpha(delta, src)

    monkeypatch.setattr(rd, "solve_alpha", spy)
    for delta in (0.0, 1e-13, math.pi / 2 - 1e-13, math.pi / 2):
        rd.r1_curve_point(delta, SRC7)
    assert calls == []
    rd.r1_curve_point(0.8, SRC7)
    assert calls == [0.8]


@pytest.mark.parametrize("p0", [0.6, 0.7, 0.9, 0.99])
def test_small_delta_angle_tends_to_its_limit_slope(p0):
    # The delta = 0 row takes alpha = 0 because alpha / delta tends to
    # p1 / (p0 - p1), not to an interior angle.
    p1 = 1.0 - p0
    alpha = rd.solve_alpha(1e-4, SourceSpec(p0))
    assert alpha / 1e-4 == pytest.approx(p1 / (p0 - p1), rel=1e-6)


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
                pair = pair_channel(float(alpha), float(delta))
                d = quantum.distortion(rho, pair)
                assert abs(d - closed) <= 1e-10


def test_sweep_curve_shape():
    points = rd.sweep_curve(SRC7, 101)
    assert len(points) == 101
    assert all(type(p) is rd.CurvePoint for p in points)
    d = np.array([p.d for p in points])
    rate = np.array([p.R for p in points])
    assert d[0] == 0.0 and d[-1] == pytest.approx(0.42, abs=1e-12)
    assert np.all(np.diff(d) > 0)
    assert np.all(np.diff(rate) <= 1e-12)
    assert np.all(d <= SRC7.d_max + 1e-12)
    slopes = np.diff(rate) / np.diff(d)
    assert np.min(np.diff(slopes)) >= -1e-8


@pytest.mark.parametrize("n", [101, 512, 1023])
@pytest.mark.parametrize("p0", [0.5, 0.6, 0.7, 0.8, 0.9, 0.99])
def test_sweep_matches_per_point_solve(p0, n):
    # The sweep solves its interior angles together with solve_alpha's
    # update and takes d, R, lambda1 and r over the whole array; a single
    # point runs the same kernels on Python floats, with math's sin and cos
    # (numpy's bits: test_float_kernels_equal_array_kernels_bit_for_bit)
    # and numpy's log1p. Every square is a product and h2 has one formula,
    # so the two agree bit for bit.
    src = SourceSpec(p0)
    for pt in rd.sweep_curve(src, n)[1:-1]:
        assert pt == rd.r1_curve_point(pt.delta, src)


@pytest.mark.parametrize("n", [101, 512])
def test_sweep_takes_h2_over_whole_arrays(monkeypatch, n):
    # R = h2(p0) and r at delta = 0, three calls over the interior arrays
    # (the two terms of the average entropy, then r = h2(lambda1)), and r at
    # delta = pi/2, whatever the number of points.
    h2 = rd.binary_entropy
    calls = []

    def spy(p):
        calls.append(np.ndim(p))
        return h2(p)

    monkeypatch.setattr(rd, "binary_entropy", spy)
    assert len(rd.sweep_curve(SRC7, n)) == n
    assert calls == [0, 0, 1, 1, 1, 0]


def test_isotropic_s1_on_arrays():
    d = np.array([0.0, 0.1, 0.25, 0.5])
    values = rd.isotropic_s1(d)
    assert values.tolist() == [rd.isotropic_s1(float(x)) for x in d]
    assert type(rd.isotropic_s1(0.1)) is float
    for bad in (0.5 + 2e-12, -1.0, math.nan):
        with pytest.raises(DomainError):
            rd.isotropic_s1(np.array([0.1, bad]))


def test_sweep_solve_equals_solve_alpha_bit_for_bit():
    # The batched solver runs solve_alpha's start and update over arrays, so
    # every row lands on the same bits, from the round-off regime at
    # delta = 1e-8 to the boundary roots near p0 = 1, and on the start's
    # corner grid.
    rng = np.random.default_rng(41)
    for _ in range(20):
        src = SourceSpec(1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.5)))
        deltas = np.exp(rng.uniform(math.log(1e-8), math.log(math.pi / 2 - 1e-8), 100))
        alphas = rd._solve_alphas(deltas, src.p0)
        expected = [rd.solve_alpha(float(d), src) for d in deltas]
        assert alphas.tobytes() == np.array(expected).tobytes()
    for p0 in START_P0S:
        alphas = rd._solve_alphas(START_DELTAS, p0)
        expected = [rd.solve_alpha(d, SourceSpec(p0)) for d in START_DELTAS.tolist()]
        assert alphas.tobytes() == np.array(expected).tobytes()
    # The benchmark's point pool: r1_curve_point equals the array route (one
    # batched solve with a p0 per row, then the closed forms over arrays)
    # field for field, and every field of a point, endpoints included, is a
    # Python float.
    pool = np.random.default_rng(0)
    p0s = pool.uniform(0.5, 1.0, 8192)
    deltas = pool.uniform(0.0, math.pi / 2, 8192)
    sources = [SourceSpec(p0) for p0 in p0s.tolist()]
    ones = [deltas[i : i + 1] for i in range(deltas.size)]
    alphas = rd._solve_alphas(deltas, p0s)
    dist = np.concatenate([src.distortion(d) for d, src in zip(ones, sources)])
    rate, r, lam1 = rd._pair_figures(alphas, deltas, p0s)
    points = [rd.r1_curve_point(d, src) for d, src in zip(deltas.tolist(), sources)]
    expected = np.column_stack((deltas, alphas, dist, rate, r, lam1))
    assert np.array(points).tobytes() == expected.tobytes()
    for src in sources:
        points += (rd.r1_curve_point(0.0, src), rd.r1_curve_point(math.pi / 2, src))
    assert all(type(x) is float for pt in points for x in pt)


def test_float_kernels_equal_array_kernels_bit_for_bit():
    # r1_curve_point runs the kernels on Python floats, taking sin and cos
    # from math (rd._FLOATS); a sweep runs them over arrays with numpy's.
    # Every argument the kernels pass lies in [0, pi].
    rng = np.random.default_rng(43)
    x = np.concatenate([rng.uniform(0.0, math.pi, 100_000), [0.0, math.pi]])
    for name in ("sin", "cos"):
        floats = np.array([getattr(math, name)(v) for v in x.tolist()])
        differ = np.flatnonzero(floats.view(np.int64) != getattr(np, name)(x).view(np.int64))
        assert not differ.size, (
            f"math.{name} and np.{name} differ at {x[differ[:3]]}: a single "
            "curve point no longer gets a sweep's bits, since its float path "
            "rests on their agreement"
        )
    n = 2000
    p0 = 1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.5), n)
    delta = np.exp(rng.uniform(math.log(1e-8), math.log(math.pi / 2 - 1e-8), n))
    alpha = rng.uniform(0.0, 1.0, n) * (math.pi / 2 - delta)
    kernels = {
        "_pair_weights": lambda xp, a, d, p: rd._pair_weights(a, d, p, xp),
        "_residual_arr": lambda xp, a, d, p: (rd._residual_arr(a, d, p, xp),),
        "_end_limits": lambda xp, a, d, p: rd._end_limits(d, p, xp),
        "_pair_figures": lambda xp, a, d, p: rd._pair_figures(a, d, p, xp),
    }
    inputs = list(zip(alpha.tolist(), delta.tolist(), p0.tolist()))
    for name, kernel in kernels.items():
        arrays = np.array(kernel(np, alpha, delta, p0)).T
        floats = np.array([kernel(rd._FLOATS, *v) for v in inputs], dtype=float)
        assert floats.tobytes() == arrays.tobytes(), name


def _oracle_entropy_slope(mp, p0, delta, alpha):
    """d/dalpha of the pair's average entropy, sum -w log2 w + sum lam log2 lam,
    over the unnormalized output weights w, rebuilt in mpmath."""
    p1 = 1 - p0

    def entropy(a):
        w = (
            p0 * mp.cos(a) ** 2,
            p1 * mp.cos(a + delta) ** 2,
            p0 * mp.sin(a) ** 2,
            p1 * mp.sin(a + delta) ** 2,
        )
        xlog = [v * mp.log(v, 2) for v in (*w, w[0] + w[1], w[2] + w[3])]
        return -sum(xlog[:4]) + xlog[4] + xlog[5]

    return mp.diff(entropy, alpha)


# (p0, delta): three roots below the old 512-point grid's inset of
# (pi/2 - delta) * 1e-6, among them a draw of the benchmark's point pool and
# a small delta, and an ordinary interior root.
ORACLE_ROOTS = [
    (0.999999, 1.0),
    (0.9999983833606245, 0.6276912795730949),
    (0.999, 1e-3),
    (0.7, 0.8),
]


@pytest.mark.parametrize("p0, delta", ORACLE_ROOTS)
def test_solve_alpha_matches_mpmath_root(p0, delta):
    mp = pytest.importorskip("mpmath")
    alpha = rd.solve_alpha(delta, SourceSpec(p0))
    with mp.workdps(50):
        p0_, delta_ = mp.mpf(p0), mp.mpf(delta)
        lo, hi = mp.mpf(0), mp.pi / 2 - delta_
        for _ in range(70):
            mid = (lo + hi) / 2
            if _oracle_entropy_slope(mp, p0_, delta_, mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(alpha - float(lo)) <= 1e-12


@pytest.mark.parametrize("p0", [0.5, 0.7, 0.99, 0.999999, 1.0 - 1e-12])
def test_residual_end_limits_match_mpmath(p0):
    mp = pytest.importorskip("mpmath")
    deltas = [1e-8, 1e-4, 0.3, 0.8, 1.3, math.pi / 2 - 1e-8]
    f_lo, f_hi = rd._end_limits(np.array(deltas), p0)
    assert np.all(f_lo < 0) and np.all(f_hi > 0)
    with mp.workdps(50):
        p0_, gap = mp.mpf(p0), mp.mpf("1e-40")
        for delta, lo, hi in zip(deltas, f_lo, f_hi):
            delta_ = mp.mpf(delta)
            top = mp.pi / 2 - delta_
            for value, alpha in ((lo, gap), (hi, top - gap)):
                exact = _oracle_entropy_slope(mp, p0_, delta_, alpha)
                assert abs(value - exact) <= 1e-12 * abs(exact)


class _CountingCalls:
    """A kernel namespace that counts the calls made to each of its
    functions by name and passes them on to ``base``."""

    def __init__(self, base):
        self.base = base
        self.calls = collections.Counter()

    def __getattr__(self, name):
        function = getattr(self.base, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return function(*args, **kwargs)

        return counted


def test_residual_read_takes_five_sines_and_cosines():
    # A timing-free guard on the cost of a read: sin and cos of alpha and
    # alpha + delta, sin delta, and one log1p per term, on floats and arrays.
    alphas, deltas = np.array([0.3, 1e-3, 0.2]), np.array([0.8, 1e-3, 1.3])
    for base, args in (
        (rd._FLOATS, (0.3, 0.8, 0.7)),
        (np, (alphas, deltas, 0.7)),
        (np, (alphas, deltas, np.array([0.55, 0.9, 0.999999]))),
    ):
        xp = _CountingCalls(base)
        value = rd._residual_arr(*args, xp)
        assert xp.calls == {"cos": 2, "sin": 3, "log1p": 2}
        assert np.array_equal(value, rd._residual_arr(*args, base))


@pytest.mark.parametrize("p0", [0.55, 0.7, 0.9, 0.99, 0.999999])
def test_residual_matches_mpmath_inside_the_interval(p0):
    # The residual at alpha 0.1, 0.5 and 0.9 of (0, pi/2 - delta) and 1e-6
    # below its top, on floats and arrays, against the 50-digit slope. The
    # bound is 4 ulps of the two terms' magnitude |T1| + |T2|, not of the
    # residual: the terms cancel to O(delta^2) of themselves at small delta
    # (ROADMAP item 2), so a relative bound on the residual would measure
    # that cancellation, not the kernel. Added to it is the effect of the
    # kernel's one rounded argument, alpha + delta, half an ulp of it times
    # the slope's derivative in delta: 1e-6 below the top, cos(alpha + delta)
    # is 1e-6 and carries that rounding at 1e-10 relative. Measured: at most
    # 1.6 of the unscaled sum (1.4 for the eight-call residual before).
    mp = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    for delta in (1e-3, 0.3, 0.8, 1.3, math.pi / 2 - 1e-3):
        top = math.pi / 2 - delta
        alphas = np.array([0.1 * top, 0.5 * top, 0.9 * top, top - 1e-6])
        values = rd._residual_arr(alphas, delta, p0)
        for alpha, value in zip(alphas.tolist(), values.tolist()):
            assert rd._residual_arr(alpha, delta, p0, rd._FLOATS) == value
            with mp.workdps(50):
                p0_, p1_ = mp.mpf(p0), 1 - mp.mpf(p0)
                a, d = mp.mpf(alpha), mp.mpf(delta)
                c1, c2 = mp.cos(a) ** 2, mp.cos(a + d) ** 2
                s1, s2 = mp.sin(a) ** 2, mp.sin(a + d) ** 2
                lam1, lam2 = p0_ * c1 + p1_ * c2, p0_ * s1 + p1_ * s2
                t1 = p0_ * mp.sin(2 * a) * mp.log(c1 * lam2 / (s1 * lam1), 2)
                t2 = p1_ * mp.sin(2 * (a + d)) * mp.log(s2 * lam1 / (c2 * lam2), 2)
                exact = _oracle_entropy_slope(mp, p0_, d, a)
                slope = mp.diff(lambda x: _oracle_entropy_slope(mp, p0_, x, a), d)
                bound = eps * (abs(t1) + abs(t2)) + math.ulp(alpha + delta) / 2 * abs(slope)
                assert abs(value - exact) <= 4 * bound, (delta, alpha)


def test_sweep_curve_rejects_short_grid():
    with pytest.raises(DomainError):
        rd.sweep_curve(SRC7, 1)


def test_r1_matches_average_entropy_of_pair():
    # The closed-form curve points against the channel functionals of the
    # pair they describe, at every interior point of a sweep.
    for p0 in (0.5, 0.7, 0.9, 0.99):
        src = SourceSpec(p0)
        rho = src.density()
        for pt in rd.sweep_curve(src, 64)[1:-1]:
            pair = pair_channel(pt.alpha, pt.delta)
            channel = pair
            assert quantum.average_entropy(channel, rho) == pytest.approx(
                pt.R, abs=1e-12
            )
            assert quantum.distortion(rho, channel) == pytest.approx(
                pt.d, rel=1e-14
            )
            a1 = pair.elements[0]
            lam1 = float(np.trace(a1 @ rho.mat @ a1.conj().T).real)
            assert pt.lambda1 == pytest.approx(lam1, abs=1e-12)


@pytest.mark.parametrize("p0", [1.0 - 1e-13, 0.999999, 0.99])
def test_rate_columns_match_mpmath_near_p0_one(p0):
    # R and r of the pair at the returned angle, against a 60-digit
    # evaluation of the same pair: every h2 takes an argument at most 1/2
    # from closed forms, so no digits are lost to 1 - p near p0 = 1.
    mp = pytest.importorskip("mpmath")
    src = SourceSpec(p0)
    with mp.workdps(60):
        p0_ = mp.mpf(p0)
        for delta in (1e-3, 0.1, 0.5, 0.8, 1.2, 1.5):
            pt = rd.r1_curve_point(delta, src)
            a, b = mp.mpf(pt.alpha), mp.mpf(pt.alpha) + mp.mpf(delta)
            w = (
                p0_ * mp.cos(a) ** 2,
                (1 - p0_) * mp.cos(b) ** 2,
                p0_ * mp.sin(a) ** 2,
                (1 - p0_) * mp.sin(b) ** 2,
            )
            xlog = [v * mp.log(v, 2) if v else mp.mpf(0) for v in w]
            lam = (w[0] + w[1], w[2] + w[3])
            side = -sum(v * mp.log(v, 2) for v in lam)
            rate = -sum(xlog) - side
            assert abs(pt.R - rate) <= 1e-12 * rate
            assert abs(pt.r - side) <= 1e-12 * side


@pytest.mark.parametrize("p0", [1.0 - 1e-13, 0.999999, 0.99])
def test_s1_entropy_matches_mpmath_near_p0_one(p0):
    # S of the filter against a 60-digit evaluation: h2 takes the output's
    # smaller eigenvalue p1 sin^2 t / weight, so no digits are lost to
    # 1 - p near p0 = 1 (taking p0 cos^2 t / weight read S 7.5e-3 off
    # at p0 = 1 - 1e-13 and t = 0.1).
    mp = pytest.importorskip("mpmath")
    src = SourceSpec(p0)
    thetas = (1e-3, 0.1, 0.4, 0.7, math.pi / 4)
    _, entropies = rd.s1_curve_point(np.array(thetas), src)
    with mp.workdps(60):
        p0_ = mp.mpf(p0)
        for theta, entropy in zip(thetas, entropies):
            c2, s2 = mp.cos(mp.mpf(theta)) ** 2, mp.sin(mp.mpf(theta)) ** 2
            m = (1 - p0_) * s2 / (p0_ * c2 + (1 - p0_) * s2)
            exact = -(m * mp.log(m, 2) + (1 - m) * mp.log(1 - m, 2))
            assert abs(entropy - exact) <= 1e-12 * exact
