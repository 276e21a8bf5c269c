import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qubitrd import cli, quantum, ratedistortion as rd, realization
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


def test_source_spec_keeps_its_dataclass_behaviour():
    # The __init__ is written out (p0 is checked and stored once); the class
    # is still a frozen dataclass with one field.
    src = SourceSpec(0.7)
    assert repr(src) == "SourceSpec(p0=0.7)"
    assert src == SourceSpec(p0=np.float64(0.7)) and src != SRC5
    assert hash(src) == hash(SourceSpec(0.7))
    assert [f.name for f in dataclasses.fields(src)] == ["p0"]
    assert dataclasses.asdict(src) == {"p0": 0.7}
    with pytest.raises(dataclasses.FrozenInstanceError):
        src.p0 = 0.8
    moved = dataclasses.replace(src, p0=np.float64(0.8))
    assert moved == SourceSpec(0.8) and type(moved.p0) is float
    with pytest.raises(DomainError):
        dataclasses.replace(src, p0=0.4)


# What a real-number argument must not be: a string, None, a complex number
# (even a NumPy one with zero imaginary part), a bool, a Fraction, NaN, a
# value out of every bounded range here, an infinity, a ragged nested
# sequence (which numpy refuses), and one- or two-entry arrays where one
# number is due.
NON_NUMBERS = {
    "str": "0.7",
    "None": None,
    "complex": 0.7 + 0j,
    "array1": np.array([0.7]),
    "array2": np.array([0.7, 0.8]),
    "True": True,
    "np_True": np.True_,
    "np_complex": np.complex128(0.7),
    "Fraction": Fraction(7, 10),
    "nan": math.nan,
    "out_of_range": 5.0,
    "inf": math.inf,
    "ragged": [0.7, [0.8]],
}
# Every scalar entry point, with the values above that are no bad value for
# it: distortion and binary_entropy also take arrays, and pair_channel
# takes an angle of any finite size.
ARRAYS = ("array1", "array2")
SCALAR_CALLS = {
    "SourceSpec": (SourceSpec, ()),
    "r1_curve_point": (lambda delta: rd.r1_curve_point(delta, SRC7), ()),
    "build_circuit": (lambda delta: realization.build_circuit(delta, SRC7), ()),
    "distortion": (SRC7.distortion, ARRAYS),
    "binary_entropy": (quantum.binary_entropy, ARRAYS),
    "pair_channel_alpha": (lambda alpha: pair_channel(alpha, 0.8), ("out_of_range",)),
    "pair_channel_delta": (lambda delta: pair_channel(0.3, delta), ("out_of_range",)),
}


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize(
    "call, bad",
    [
        pytest.param(call, bad, id=f"{call_id}-{bad_id}")
        for call_id, (call, not_bad) in SCALAR_CALLS.items()
        for bad_id, bad in NON_NUMBERS.items()
        if bad_id not in not_bad
    ],
)
def test_non_numbers_raise_domain_error(call, bad):
    # a clear DomainError naming the value, not the TypeError of a comparison
    # or of float(), nor a value computed from a truncated or parsed input
    # (ComplexWarning is not raised as an error here, so a call that drops
    # an imaginary part fails by its value)
    with pytest.raises(DomainError, match=re.escape(repr(bad))):
        call(bad)


def test_long_double_is_judged_by_its_float():
    # A long double just inside an end rounds to that end and is judged as
    # the float it becomes: as a p0 it is 1.0 and refused (comparing it
    # first stored p0 = 1.0), and as a delta it is 0.0, the end row's delta.
    below_one = np.nextafter(np.longdouble(1), np.longdouble(0))
    above_zero = np.nextafter(np.longdouble(0), np.longdouble(1))
    if below_one == np.nextafter(1.0, 0.0):
        pytest.skip("long double is double on this platform")
    assert float(below_one) == 1.0 and float(above_zero) == 0.0
    with pytest.raises(DomainError, match="p0 must lie in"):
        SourceSpec(below_one)
    end_row = rd.r1_curve_point(0.0, SRC7)
    assert rd.r1_curve_point(above_zero, SRC7) == end_row
    assert realization.build_circuit(above_zero, SRC7).point == end_row


def test_kraus_pair_completeness():
    # KrausChannel derives trace_preserving from the elements (test_quantum).
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


def _slope(alpha, delta, p0):
    """d/dalpha of the pair's average entropy on floats, in its log-ratio form
    p0 sin 2a log2(c1 lam2 / (s1 lam1)) - p1 sin 2b log2(s2 lam1 / (c2 lam2)),
    with b = a + delta and c1, c2, s1, s2 the squares of cos a, cos b, sin a
    and sin b."""
    p1 = 1.0 - p0
    a, b = alpha, alpha + delta
    c1, c2 = math.cos(a) ** 2, math.cos(b) ** 2
    s1, s2 = math.sin(a) ** 2, math.sin(b) ** 2
    lam1, lam2 = p0 * c1 + p1 * c2, p0 * s1 + p1 * s2
    return p0 * math.sin(2 * a) * math.log2(c1 * lam2 / (s1 * lam1)) - p1 * math.sin(
        2 * b
    ) * math.log2(s2 * lam1 / (c2 * lam2))


def test_stationarity_symmetric_root():
    for delta in np.linspace(0.05, math.pi / 2 - 0.05, 25).tolist():
        assert abs(_slope(rd.r1_curve_point(delta, SRC5).alpha, delta, 0.5)) <= 1e-10


def test_stationarity_brackets_root():
    # The slope is negative below the returned angle and positive above it:
    # the angle is a minimum of the average entropy.
    for p0 in (0.5, 0.7, 0.9):
        for delta in (0.3, 0.8, 1.3):
            root = rd.r1_curve_point(delta, SourceSpec(p0)).alpha
            top = math.pi / 2 - delta
            assert _slope(0.5 * root, delta, p0) < 0 < _slope(0.5 * (root + top), delta, p0)


def test_stationarity_matches_finite_difference():
    # Independent oracle: centered finite difference of the average output
    # entropy computed through the channel functionals. It matches the
    # tests' slope at random angles and vanishes at the returned one.
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

        def fd(a):
            return (sbar(a + step) - sbar(a - step)) / (2 * step)

        residual = _slope(alpha, delta, p0)
        assert abs(residual - fd(alpha)) <= 1e-6 * max(1.0, abs(residual))
        assert abs(fd(rd.r1_curve_point(delta, src).alpha)) <= 2e-8


def test_solve_alpha_symmetric():
    for delta in np.linspace(0.03, math.pi / 2 - 0.03, 50):
        alpha = rd.r1_curve_point(float(delta), SRC5).alpha
        assert abs(alpha - (math.pi / 4 - float(delta) / 2)) <= 1e-9


def test_solve_alpha_continuous_and_monotone():
    deltas = np.linspace(5e-3, math.pi / 2 - 5e-3, 200)
    alphas = [rd.r1_curve_point(float(d), SRC7).alpha for d in deltas]
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
            root = rd.r1_curve_point(delta, src).alpha
            best = quantum.average_entropy(pair_channel(root, delta), rho)
            hi = math.pi / 2 - delta
            for alpha in rng.uniform(hi * 1e-3, hi * (1 - 1e-3), 50):
                other = quantum.average_entropy(pair_channel(float(alpha), delta), rho)
                assert best <= other + 1e-12


# p0 from just above 1/2 to 1 - 1e-12, and delta from 1e-8 to pi/2 - 1e-8,
# geometric near both ends.
ANGLE_P0S = [0.5000001, 0.501, 0.55, 0.7, 0.9, 0.99, 0.999999, 1.0 - 1e-12]
_ENDS = np.geomspace(1e-8, 1e-2, 25)
ANGLE_DELTAS = np.concatenate(
    [_ENDS, np.linspace(0.02, math.pi / 2 - 0.02, 50), math.pi / 2 - _ENDS[::-1]]
)


def test_isotropic_angle_is_the_guess_exactly():
    # At p0 = 1/2 the optimum pi/4 - delta/2 is taken in the form
    # (pi/2 - delta) / 2, on floats and arrays alike.
    for n in (512, 4097):
        for pt in rd.sweep_curve(SRC5, n)[1:-1]:
            assert pt.alpha == 0.5 * (math.pi / 2 - pt.delta)
    assert rd.r1_curve_point(0.3, SRC5).alpha == 0.5 * (math.pi / 2 - 0.3)


def _oracle_alpha(mp, p0, delta):
    """The optimal angle 1/2 atan2(p1 sin 2D, (p0 - p1) + 2 p1 sin^2 D) at
    the working precision; test_oracle_slope_vanishes_at_the_oracle_angle
    checks it against the entropy's own slope."""
    p0, delta = mp.mpf(p0), mp.mpf(delta)
    p1 = 1 - p0
    return mp.atan2(p1 * mp.sin(2 * delta), (p0 - p1) + 2 * p1 * mp.sin(delta) ** 2) / 2


def test_solver_survives_deltas_far_below_any_grid():
    # At normal deltas far below any grid the angle keeps its relative
    # precision (to the subnormal spacing where the angle itself is
    # subnormal: about 1e-312 at p0 = 1 - 1e-12 and delta = 1e-300). At the
    # least subnormal delta it stays finite and inside the interval, within
    # a few subnormal units of the exact angle; at p0 0.9 and above that
    # angle is below half the least subnormal, so 0.0 is its rounding.
    mp = pytest.importorskip("mpmath")
    tiny = 5e-324
    deltas = np.array([tiny, 1e-300, 1e-200, 1e-160])
    for p0 in (0.5000001, 0.7, 0.9, 1.0 - 1e-12):
        alphas = rd._optimal_alpha(deltas, p0)
        expected = [rd._optimal_alpha(d, p0, rd._FLOATS) for d in deltas.tolist()]
        assert alphas.tobytes() == np.array(expected).tobytes()
        assert np.all(np.isfinite(alphas))
        assert np.all((alphas >= 0.0) & (alphas < math.pi / 2 - deltas))
        with mp.workdps(50):
            exact = [float(_oracle_alpha(mp, p0, d)) for d in deltas.tolist()]
        assert abs(alphas[0] - exact[0]) <= 4 * tiny
        for alpha, want in zip(alphas[1:].tolist(), exact[1:]):
            assert abs(alpha - want) <= 1e-15 * want + tiny
    assert rd._optimal_alpha(tiny, 0.5000001, rd._FLOATS) > 0.0


@pytest.mark.parametrize("n", [512, 4097])
@pytest.mark.parametrize("p0", [0.5000001, 0.501, 0.55, 0.7, 0.9, 0.999])
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
    assert rd.sweep_curve(src, 11)[-1].tolist() == end


def _route_calls(monkeypatch):
    """The list that records every call of the checked h2, the two unchecked
    h2 kernels and the angle kernel, as (name, type, shape) of its first
    argument. ratedistortion holds no name of the checked h2, so the spy on
    quantum's sees any call of it."""
    assert not hasattr(rd, "binary_entropy")
    calls = []

    def spy(name, fn):
        def call(x, *rest):
            calls.append((name, type(x), np.shape(x)))
            return fn(x, *rest)

        return call

    monkeypatch.setattr(quantum, "binary_entropy", spy("checked", quantum.binary_entropy))
    for name in ("_h2_float", "_h2_unchecked", "_optimal_alpha"):
        monkeypatch.setattr(rd, name, spy(name, getattr(rd, name)))
    return calls


def test_r1_endpoints_solve_nothing(monkeypatch):
    # An end row takes h2(p0) from the unchecked float kernel, its other
    # columns are constants, and it solves no angle.
    calls = _route_calls(monkeypatch)
    for delta in (0.0, 1e-13, math.pi / 2 - 1e-13, math.pi / 2):
        calls.clear()
        rd.r1_curve_point(delta, SRC7)
        assert calls == [("_h2_float", float, ())]
    calls.clear()
    rd.r1_curve_point(0.8, SRC7)
    assert calls[0] == ("_optimal_alpha", float, ())


@pytest.mark.parametrize("p0", [0.6, 0.7, 0.9, 0.99])
def test_small_delta_angle_tends_to_its_limit_slope(p0):
    # The delta = 0 row takes alpha = 0 because alpha / delta tends to
    # p1 / (p0 - p1), not to an interior angle.
    p1 = 1.0 - p0
    alpha = rd.r1_curve_point(1e-4, SourceSpec(p0)).alpha
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
    curve = rd.sweep_curve(SRC7, 101)
    assert len(curve) == 101
    d, rate = curve.d, curve.R
    assert d[0] == 0.0 and d[-1] == pytest.approx(0.42, abs=1e-12)
    assert np.all(np.diff(d) > 0)
    assert np.all(np.diff(rate) <= 1e-12)
    assert np.all(d <= SRC7.d_max + 1e-12)
    slopes = np.diff(rate) / np.diff(d)
    assert np.min(np.diff(slopes)) >= -1e-8


@pytest.mark.parametrize("p0", [0.5, 0.7, 0.999999])
def test_sweep_is_one_record_array(p0):
    # A sweep is one record array: a float64 column per CurvePoint field,
    # rows read by name in a `for row in curve` loop, and tolist() rows that
    # are tuples of Python floats, each r1_curve_point at its delta bit for
    # bit. Two points give exactly the two end rows.
    src = SourceSpec(p0)
    curve = rd.sweep_curve(src, 33)
    assert type(curve) is np.recarray and len(curve) == 33
    assert curve.dtype.names == rd.CurvePoint._fields
    assert all(curve.dtype[name] == np.float64 for name in curve.dtype.names)
    for name in rd.CurvePoint._fields:
        by_row = np.array([getattr(row, name) for row in curve])
        assert by_row.tobytes() == curve[name].tobytes()
    rows = curve.tolist()
    assert all(type(row) is tuple and all(type(x) is float for x in row) for row in rows)
    points = [rd.r1_curve_point(row[0], src) for row in rows]
    assert np.array(rows).tobytes() == np.array(points).tobytes()
    ends = rd.sweep_curve(src, 2)
    assert len(ends) == 2
    expected = [rd.r1_curve_point(0.0, src), rd.r1_curve_point(math.pi / 2, src)]
    assert ends.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize(
    ("p0", "n"),
    [(p0, n) for p0 in (0.5, 0.6, 0.7, 0.8, 0.9, 0.99) for n in (101, 512, 1023)]
    + [(1.0 - 1e-12, 512)],
)
def test_sweep_matches_per_point_solve(p0, n):
    # The sweep takes its interior angles from r1_curve_point's closed form
    # over the whole array and takes d, R, lambda1 and r over the whole array; a single
    # point runs the same kernels on Python floats, with math's sin and cos
    # (numpy's bits: test_float_kernels_equal_array_kernels_bit_for_bit)
    # and numpy's log1p. Every square is a product and h2 has one formula,
    # so the two agree bit for bit, end rows included.
    src = SourceSpec(p0)
    curve = rd.sweep_curve(src, n)
    points = [rd.r1_curve_point(delta, src) for delta in curve.delta.tolist()]
    assert curve.tobytes() == np.array(points).tobytes()


@pytest.mark.parametrize("n", [101, 512])
def test_sweep_takes_h2_over_whole_arrays(monkeypatch, n):
    # R = h2(p0) at delta = 0 from the float kernel, the interior's angles
    # in one call over the array, then one unchecked h2 call over the
    # (3, n - 2) stack of the interior's three h2 arguments (the two terms
    # of the average entropy, then r = h2(lambda1)), and r = h2(p0) at
    # delta = pi/2, whatever the number of points. Every argument is built
    # inside [0, 1], so none takes the checked h2.
    calls = _route_calls(monkeypatch)
    assert len(rd.sweep_curve(SRC7, n)) == n
    end = ("_h2_float", float, ())
    assert calls == [
        end,
        ("_optimal_alpha", np.ndarray, (n - 2,)),
        ("_h2_unchecked", np.ndarray, (3, n - 2)),
        end,
    ]


def test_point_takes_unchecked_float_h2(monkeypatch):
    # An interior point takes its angle from one call of the angle kernel
    # on its checked delta, then its three h2 (the two terms of the average
    # entropy, then r = h2(lambda1)) from the unchecked float kernel, on
    # arguments built inside [0, 1], with no checked call. An end row
    # takes one unchecked h2, of p0, and no angle.
    calls = _route_calls(monkeypatch)
    h2 = ("_h2_float", float, ())
    for src in (SRC5, SRC7, SourceSpec(1.0 - 1e-12)):
        for delta in (1e-9, 0.8, math.pi / 2 - 1e-9):
            calls.clear()
            rd.r1_curve_point(delta, src)
            assert calls == [("_optimal_alpha", float, ())] + [h2] * 3
        calls.clear()
        rd.r1_curve_point(0.0, src)
        rd.r1_curve_point(math.pi / 2, src)
        assert calls == [h2] * 2


@pytest.mark.parametrize(
    ("curve", "arg"),
    [
        (lambda t: rd.s1_curve_point(t, SRC7)[1], 0.3),
        (lambda t: rd.s1_curve_point(t, SRC7)[1], np.linspace(0.0, math.pi / 4, 201)),
        (rd.isotropic_s1, 0.1),
        (rd.isotropic_s1, np.linspace(0.0, 0.5, 50)),
    ],
    ids=["s1-float", "s1-array", "isotropic-float", "isotropic-array"],
)
def test_entropy_curves_take_one_unchecked_h2(monkeypatch, curve, arg):
    # The filter curve and the isotropic curve check their own argument,
    # then build the h2 argument inside [0, 1] and take one unchecked h2
    # over it; a float still gives a Python float.
    calls = _route_calls(monkeypatch)
    h = curve(arg)
    assert [name for name, _, _ in calls] == ["_h2_unchecked"]
    assert calls[0][2] == np.shape(arg)
    assert type(h) is (float if np.ndim(arg) == 0 else np.ndarray)


@pytest.mark.parametrize("n", [2, 3, 101, 512, 4097, cli.MAX_POINTS])
def test_sweep_grid_is_linspace(n):
    # The sweep takes its interior deltas as i * (pi/2 / (n - 1)), which is
    # what np.linspace computes, up to the largest grid the CLI accepts.
    curve = rd.sweep_curve(SRC7, n)
    assert curve.delta.tobytes() == np.linspace(0.0, math.pi / 2, n).tobytes()


def _interior_grid():
    """49 p0 from 1/2 to 1 - 1e-12 and 520 deltas from 1e-12 to
    pi/2 - 1e-12, dense in decades toward each end."""
    edges = np.geomspace(1e-12, 1e-2, 60)
    deltas = np.concatenate([edges, np.linspace(1e-2, math.pi / 2 - 1e-2, 400)])
    deltas = np.concatenate([deltas, math.pi / 2 - edges[::-1]])
    gaps = np.geomspace(1e-12, 0.1, 24)
    return [0.5, *(0.5 + gaps).tolist(), *(1.0 - gaps[::-1]).tolist()], deltas


def test_pair_figures_h2_arguments_lie_in_unit_interval(monkeypatch):
    # The three h2 arguments of an evaluation over arrays skip the range
    # check of binary_entropy; over p0 from 1/2 to 1 - 1e-12 and delta from
    # 1e-12 to pi/2 - 1e-12 that check could never fire.
    stacks = []

    def spy(q):
        stacks.append(q)
        return quantum._h2_unchecked(q)

    monkeypatch.setattr(rd, "_h2_unchecked", spy)
    p0s, deltas = _interior_grid()
    for p0 in p0s:
        rd._pair_figures(rd._optimal_alpha(deltas, p0), deltas, p0)
    q = np.array(stacks)
    assert q.shape == (49, 3, deltas.size)
    assert np.isfinite(q).all() and (q >= 0.0).all() and (q <= 1.0).all()


def test_pair_figures_float_h2_arguments_lie_in_unit_interval(monkeypatch):
    # The float twin: a single point's three h2 arguments take _h2_float,
    # which has no range check either; on the same grid, at the float
    # kernel's angle, each is a finite float inside [0, 1].
    args = []

    def spy(q):
        args.append(q)
        return quantum._h2_float(q)

    monkeypatch.setattr(rd, "_h2_float", spy)
    p0s, deltas = _interior_grid()
    for p0 in p0s:
        for delta in deltas.tolist():
            alpha = rd._optimal_alpha(delta, p0, rd._FLOATS)
            rd._pair_figures(alpha, delta, p0, rd._FLOATS)
    assert all(type(q) is float for q in args)
    q = np.array(args)
    assert q.shape == (49 * 3 * deltas.size,)
    assert np.isfinite(q).all() and (q >= 0.0).all() and (q <= 1.0).all()


def test_s1_h2_argument_lies_in_unit_interval(monkeypatch):
    # s1's h2 argument p1 s^2 / weight skips the range check: weight is
    # p0 c^2 plus that same rounded product, so over p0 from 1/2 to
    # 1 - 1e-12 and theta over [0, pi/4], ends and their decades included,
    # it is a finite number inside [0, 1].
    args = []

    def spy(q):
        args.append(q)
        return quantum._h2_unchecked(q)

    monkeypatch.setattr(rd, "_h2_unchecked", spy)
    p0s, _ = _interior_grid()
    edges = np.geomspace(1e-16, 1e-2, 60)
    thetas = np.concatenate(
        [[0.0], edges, np.linspace(1e-2, math.pi / 4 - 1e-2, 400), math.pi / 4 - edges[::-1]]
    )
    thetas = np.append(thetas, math.pi / 4)
    for p0 in p0s:
        rd.s1_curve_point(thetas, SourceSpec(p0))
    q = np.array(args)
    assert q.shape == (49, thetas.size)
    assert np.isfinite(q).all() and (q >= 0.0).all() and (q <= 1.0).all()


def test_isotropic_h2_argument_lies_in_unit_interval(monkeypatch):
    # isotropic_s1's h2 argument 1/2 + sqrt(d (1 - d)) skips the range
    # check: over d in [0, 1/2], ends and their decades included, and the
    # entries within 1e-12 outside that the clip moves onto the ends, it
    # lies in [1/2, 1].
    args = []

    def spy(q):
        args.append(q)
        return quantum._h2_unchecked(q)

    monkeypatch.setattr(rd, "_h2_unchecked", spy)
    edges = np.geomspace(1e-17, 1e-2, 80)
    d = np.concatenate([[0.0], edges, np.linspace(1e-2, 0.49, 10001), 0.5 - edges[::-1]])
    d = np.concatenate([d, [np.nextafter(0.5, 0.0), 0.5, -1e-12, 0.5 + 1e-12]])
    rd.isotropic_s1(d)
    (q,) = args
    assert q.shape == d.shape
    assert np.isfinite(q).all() and (q >= 0.5).all() and (q <= 1.0).all()


def test_isotropic_s1_on_arrays():
    d = np.array([0.0, 0.1, 0.25, 0.5])
    values = rd.isotropic_s1(d)
    assert values.tolist() == [rd.isotropic_s1(float(x)) for x in d]
    assert type(rd.isotropic_s1(0.1)) is float
    for bad in (0.5 + 2e-12, -1.0, math.nan):
        with pytest.raises(DomainError):
            rd.isotropic_s1(np.array([0.1, bad]))


# Every array range check (quantum._clipped), by its caller's message.
RANGE_CHECK_CASES = [
    pytest.param(
        quantum.binary_entropy, 0.0, 1.0, "probability {} outside [0, 1]", id="binary_entropy"
    ),
    pytest.param(
        lambda x: np.array(rd.s1_curve_point(x, SRC7)),
        0.0,
        math.pi / 4,
        "theta must lie in [0, pi/4], got {}",
        id="s1_curve_point",
    ),
    pytest.param(
        rd.isotropic_s1, 0.0, 0.5, "distortion must lie in [0, 1/2], got {}", id="isotropic_s1"
    ),
    pytest.param(
        SRC7.distortion, 0.0, math.pi / 2, "delta must lie in [0, pi/2], got {}", id="distortion"
    ),
]
RANGE_CHECKS = pytest.mark.parametrize("call, low, high, message", RANGE_CHECK_CASES)
@RANGE_CHECKS
def test_range_checks_clip_within_1e_12(call, low, high, message):
    # every array range check: NaN and an entry 1e-11 outside raise with the
    # caller's message, one 1e-13 outside is clipped to the end it passed
    for bad in (math.nan, low - 1e-11, high + 1e-11):
        for arg in (np.array([low, bad, high]), bad):
            with pytest.raises(DomainError) as info:
                call(arg)
            assert str(info.value) == message.format(bad)
    near = call(np.array([low - 1e-13, high + 1e-13]))
    assert near.tobytes() == call(np.array([low, high])).tobytes()
    assert np.array(call(high + 1e-13)).tobytes() == np.array(call(high)).tobytes()


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
@RANGE_CHECKS
@pytest.mark.parametrize(
    "bad",
    [
        "0.3",
        b"0.3",
        ["0.3", "0.2"],
        None,
        0.3 + 0.5j,
        np.array([0.3 + 0j, 0.2]),
        np.array([True, False]),
        [[0.3], [0.2, 0.3]],
    ],
    ids=["str", "bytes", "strs", "None", "complex", "complex_array", "bool_array", "ragged"],
)
def test_range_checks_refuse_strings_and_none(call, low, high, message, bad):
    # numpy would parse the strings as numbers, None as NaN, and cast the
    # complex and bool arrays to floats (complex with a warning only, which
    # is not raised as an error here, so the value path is what is tested),
    # and numpy's own ValueError refuses a ragged sequence; each raises
    # DomainError with its own repr in the caller's message
    with pytest.raises(DomainError) as info:
        call(bad)
    assert str(info.value) == message.format(repr(bad))


def test_sweep_solve_equals_solve_alpha_bit_for_bit():
    # The angle kernel runs the same formula over arrays and on floats, so
    # every row lands on the same bits, from delta = 1e-8 to the boundary
    # angles near p0 = 1, and on the corner grid.
    rng = np.random.default_rng(41)
    for _ in range(20):
        src = SourceSpec(1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.5)))
        deltas = np.exp(rng.uniform(math.log(1e-8), math.log(math.pi / 2 - 1e-8), 100))
        alphas = rd._optimal_alpha(deltas, src.p0)
        expected = [rd.r1_curve_point(float(d), src).alpha for d in deltas]
        assert alphas.tobytes() == np.array(expected).tobytes()
    for p0 in [0.5, *ANGLE_P0S]:
        alphas = rd._optimal_alpha(ANGLE_DELTAS, p0)
        expected = [rd.r1_curve_point(d, SourceSpec(p0)).alpha for d in ANGLE_DELTAS.tolist()]
        assert alphas.tobytes() == np.array(expected).tobytes()
    # The benchmark's point pool: r1_curve_point equals the array route (the
    # angle kernel on each one-row array, then the closed forms over arrays
    # with a p0 per row) field for field, and every field of a point,
    # endpoints included, is a Python float.
    pool = np.random.default_rng(0)
    p0s = pool.uniform(0.5, 1.0, 8192)
    deltas = pool.uniform(0.0, math.pi / 2, 8192)
    sources = [SourceSpec(p0) for p0 in p0s.tolist()]
    ones = [deltas[i : i + 1] for i in range(deltas.size)]
    alphas = np.concatenate([rd._optimal_alpha(d, src.p0) for d, src in zip(ones, sources)])
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
        "_pair_figures": lambda xp, a, d, p: rd._pair_figures(a, d, p, xp),
    }
    inputs = list(zip(alpha.tolist(), delta.tolist(), p0.tolist()))
    for name, kernel in kernels.items():
        arrays = np.array(kernel(np, alpha, delta, p0)).T
        floats = np.array([kernel(rd._FLOATS, *v) for v in inputs], dtype=float)
        assert floats.tobytes() == arrays.tobytes(), name
    # The angle kernel takes one p0 (its callers pass a source's), so it is
    # compared per p0, over the deltas drawn above; its arctan2 is numpy's
    # on floats too, since math.atan2 differs from it in the last bit.
    for p in [0.5, *p0[:40].tolist()]:
        arrays = rd._optimal_alpha(delta, p)
        floats = np.array([rd._optimal_alpha(d, p, rd._FLOATS) for d in delta.tolist()])
        assert floats.tobytes() == arrays.tobytes(), p


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
    alpha = rd.r1_curve_point(delta, SourceSpec(p0)).alpha
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


@pytest.mark.parametrize("p0", [0.5000001, 0.501, 0.7, 0.9, 0.999999])
def test_oracle_slope_vanishes_at_the_oracle_angle(p0):
    # The closed-form angle is a zero of the entropy's own 50-digit slope,
    # and the slope changes sign across it, from a relative shift of 1e-10
    # on either side: measured at most 2.1e-51 at the angle against at
    # least 7.7e-39 beside it (p0 0.5000001, delta 1e-8).
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        p0_ = mp.mpf(p0)
        for delta in (1e-8, 1e-3, 0.3, 0.8, 1.3, 1.57):
            delta_ = mp.mpf(delta)
            alpha = _oracle_alpha(mp, p0_, delta_)
            shift = alpha * mp.mpf("1e-10")
            assert abs(_oracle_entropy_slope(mp, p0_, delta_, alpha)) <= 1e-45
            assert _oracle_entropy_slope(mp, p0_, delta_, alpha - shift) < -1e-40
            assert _oracle_entropy_slope(mp, p0_, delta_, alpha + shift) > 1e-40


def test_slope_and_m_share_their_sign():
    # The slope of the average entropy in alpha has the sign of
    # m = p0 sin 2a - p1 sin 2(a + delta) across (0, pi/2 - delta), so the
    # one zero of m is the one stationary point, and a minimum: 16 angles
    # spread over the interval and two 1e-6 (relative) either side of the
    # zero, at 40 digits.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for p0 in (0.5000001, 0.501, 0.7, 0.9, 0.999999):
            p0_ = mp.mpf(p0)
            p1_ = 1 - p0_
            for delta in (1e-6, 1e-3, 0.3, 0.8, 1.3):
                delta_ = mp.mpf(delta)
                top = mp.pi / 2 - delta_
                root = _oracle_alpha(mp, p0_, delta_)
                alphas = [top * (k + mp.mpf(0.5)) / 16 for k in range(16)]
                alphas += [root * (1 - mp.mpf("1e-6")), root * (1 + mp.mpf("1e-6"))]
                for alpha in alphas:
                    m = p0_ * mp.sin(2 * alpha) - p1_ * mp.sin(2 * (alpha + delta_))
                    slope = _oracle_entropy_slope(mp, p0_, delta_, alpha)
                    assert m != 0 and mp.sign(slope) == mp.sign(m), (p0, delta, alpha)


# 400 geometric deltas in (1e-12, 1e-6], at seven p0 from just above 1/2 to
# near 1: there the stationarity residual vanishes as delta^3 and its sign
# is round-off, so only a closed form gets the angle (1.05e-9 at p0 0.7 and
# delta 1.4e-9, not pi/4).
SMALL_DELTAS = np.geomspace(1e-12, 1e-6, 401)[1:]


@pytest.mark.parametrize("p0", [0.5000001, 0.501, 0.55, 0.7, 0.9, 0.99, 0.999999])
def test_small_delta_angles_match_mpmath(p0):
    # The array kernel, the float kernel, r1_curve_point and build_circuit give
    # the same angle, within 1e-15 relative of the 50-digit one; sweeps need
    # no inset in delta to stay right.
    mp = pytest.importorskip("mpmath")
    src = SourceSpec(p0)
    alphas = rd._optimal_alpha(SMALL_DELTAS, p0)
    with mp.workdps(50):
        for delta, alpha in zip(SMALL_DELTAS.tolist(), alphas.tolist()):
            assert rd._optimal_alpha(delta, p0, rd._FLOATS) == alpha
            assert rd.r1_curve_point(delta, src).alpha == alpha
            assert realization.build_circuit(delta, src).point.alpha == alpha
            exact = _oracle_alpha(mp, p0, delta)
            assert abs(alpha - exact) <= 1e-15 * exact, delta


@pytest.mark.parametrize("p0", [0.5000001, 0.501, 0.7, 0.9, 0.99, 0.999999])
def test_angles_match_mpmath_over_the_delta_range(p0):
    # delta from 1e-12 (through the float kernel: r1_curve_point takes the
    # end row there) to pi/2 - 1e-8, geometric near both ends, and every 8th
    # interior row of a 4097-point sweep, whose every row equals
    # r1_curve_point at its delta bit for bit.
    mp = pytest.importorskip("mpmath")
    src = SourceSpec(p0)
    deltas = np.concatenate(
        [
            np.geomspace(1e-12, 1e-2, 120),
            np.linspace(0.02, math.pi / 2 - 0.02, 60),
            math.pi / 2 - np.geomspace(1e-8, 1e-2, 60)[::-1],
        ]
    ).tolist()
    rows = rd.sweep_curve(src, 4097)[1:-1]
    points = [rd.r1_curve_point(delta, src) for delta in rows.delta.tolist()]
    assert rows.tobytes() == np.array(points).tobytes()
    angles = [(d, rd._optimal_alpha(d, p0, rd._FLOATS)) for d in deltas[:1]]
    angles += [(d, rd.r1_curve_point(d, src).alpha) for d in deltas[1:]]
    angles += zip(rows.delta[::8].tolist(), rows.alpha[::8].tolist())
    with mp.workdps(50):
        for delta, alpha in angles:
            exact = _oracle_alpha(mp, p0, delta)
            assert abs(alpha - exact) <= 1e-15 * exact, delta


def test_sweep_curve_rejects_short_grid():
    # and a point count that is no integer, where numpy would raise a
    # TypeError; a NumPy integer is a point count like an int
    for n_points in (1, np.int64(1), 2.5, 3.0, np.float64(4.0), "5", None):
        with pytest.raises(DomainError, match="n_points"):
            rd.sweep_curve(SRC7, n_points)
    assert rd.sweep_curve(SRC7, np.int64(5)).tobytes() == rd.sweep_curve(SRC7, 5).tobytes()


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


def _oracle_figures(mp, p0, delta):
    """R, r, lambda1 and dR/d delta of the pair at the exact optimal angle,
    at the working precision. dR/d delta is the entropy's partial derivative
    in delta there (envelope theorem)."""
    p0, delta = mp.mpf(p0), mp.mpf(delta)
    p1 = 1 - p0
    a = _oracle_alpha(mp, p0, delta)
    b = a + delta
    w = (p0 * mp.cos(a) ** 2, p1 * mp.cos(b) ** 2, p0 * mp.sin(a) ** 2, p1 * mp.sin(b) ** 2)
    lam1, lam2 = w[0] + w[1], w[2] + w[3]
    side = -(lam1 * mp.log(lam1, 2) + lam2 * mp.log(lam2, 2))
    rate = -sum(v * mp.log(v, 2) for v in w) - side
    slope = p1 * mp.sin(2 * b) * mp.log(w[1] * lam2 / (w[3] * lam1), 2)
    return rate, side, lam1, slope


@pytest.mark.parametrize("p0", [0.5, 0.5000001, 0.501, 0.7, 0.9, 0.99, 0.999, 0.999999])
def test_rate_columns_match_mpmath_over_the_delta_range(p0):
    # The R, r and lambda1 columns of a sweep against 50-digit figures at
    # the exact optimal angle: every interior row of a 129-point sweep, and
    # delta from 1e-8 up and from pi/2 - 1e-8 down, geometric, through
    # r1_curve_point (a sweep's rows equal it bit for bit). lambda1 and r are
    # sums of positive terms under h2, which amplifies relative error at
    # most about 1, so both stay within a few ulps. R is stationary in the
    # angle, but near pi/2 it falls as (pi/2 - delta)^2 while the rounding
    # of alpha + delta stays an ulp of pi/2: the bound scales with R's
    # sensitivity to a relative change of delta, R + delta |dR/d delta|.
    # The end rows are the exact limits.
    mp = pytest.importorskip("mpmath")
    src = SourceSpec(p0)
    curve = rd.sweep_curve(src, 129)
    ends = np.geomspace(1e-8, 1e-2, 16)
    deltas = np.concatenate([ends, math.pi / 2 - ends[::-1]]).tolist()
    rows = curve[1:-1].tolist() + [rd.r1_curve_point(d, src) for d in deltas]
    with mp.workdps(50):
        for delta, _, _, rate, side, lam1 in rows:
            rate_, side_, lam1_, slope_ = _oracle_figures(mp, p0, delta)
            assert abs(rate - rate_) <= 1e-15 * (rate_ + delta * abs(slope_)), delta
            assert abs(side - side_) <= 2e-15 * side_, delta
            assert abs(lam1 - lam1_) <= 1e-15 * lam1_, delta
        p0_ = mp.mpf(p0)
        h = -(p0_ * mp.log(p0_, 2) + (1 - p0_) * mp.log(1 - p0_, 2))
        first, last = curve[0].tolist(), curve[-1].tolist()
        assert abs(first[3] - h) <= 1e-15 * h and abs(last[4] - h) <= 1e-15 * h
        assert first[4:] == ((1.0, 0.5) if p0 == 0.5 else (0.0, 1.0))
        assert last[3] == 0.0 and last[5] == p0


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
