"""Entropy-distortion and rate-distortion curves of a biased qubit source.

The source emits qubits in the state ``rho = diag(p0, p1)`` with
``p0 >= 1/2``. Two operation families matter:

* single-element filters ``A = diag(cos t, sin t)`` with ``t in [0, pi/4]``,
  which trace out the entropy-distortion boundary S1(d);
* trace-preserving pairs ``A1 = diag(cos a, cos(a + D))``,
  ``A2 = diag(sin a, sin(a + D))`` (``pair_channel``) with
  ``D in [0, pi/2]``. Their distortion is ``d = 2 p0 p1 (1 - cos D)``
  independently of ``a``, so the rate curve R1(d) is obtained by minimizing
  the average conditional output entropy over the mixing angle ``a`` at
  each ``D``.

The minimizing angle solves a stationarity equation (the derivative of the
average entropy with respect to ``a``). Its residual has closed-form limits
of opposite signs at the two ends of (0, pi/2 - D), so a root always lies
between them, and one bracketed root finder (Chandrupatla's) finds it. The
finder does not start from the whole interval: its first two reads go
between two closed forms of the angle with its limits at both ends of D, a
guess g that lies below the root and a second form G that lies just above
it and tends to the angle as p0 -> 1. Neither is a bound the solver relies
on; the bracket follows the residual's signs. g is the exact angle
pi/4 - D/2 at p0 = 1/2, which is returned without a read. Each read of the
residual takes five sines and cosines, of a, a + D and D, and builds its
double angles and squares from them (``_residual_arr``). A single D runs
the finder on Python floats and a sweep runs the same start and update over
all its interior D at once, so both return the same angle; at D = 0 and
D = pi/2 the angle is its exact limit, solved for nowhere. Every other
quantity of a curve point is closed form in (a, D): the distortion above,
the average entropy
``lambda1 h2(p0 cos^2 a / lambda1) + lambda2 h2(p0 sin^2 a / lambda2)``,
the type-1 weight ``lambda1 = p0 cos^2 a + p1 cos^2(a + D)``, with
``lambda2 = 1 - lambda1``, and the side-channel rate h2(lambda1). R, r and
lambda1 come from one kernel, ``_pair_figures``, on one set of squares. A
sweep takes them over whole arrays by the formulas of a single point, so its
rows equal ``r1_curve_point``'s bit for bit. Each formula is written once, in
a kernel that takes the namespace of the functions it calls: numpy over
arrays, or ``_FLOATS`` on the Python floats of one point, whose functions
give numpy's bits. ``simulate`` reads every analytic figure off
``r1_curve_point``; the channel functionals of ``quantum`` serve the tests as
a cross-check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .quantum import DensityMatrix, KrausChannel, binary_entropy

HALF_PI = math.pi / 2
# Inset in Delta for sweep grids; keeps every interior row above the
# delta ~ 1e-7 floor where round-off swamps the residual's sign.
DELTA_EPS = 1e-6
# Delta values this close to 0 or pi/2 take the curve's exact limits.
ENDPOINT_CUTOFF = 1e-12
# Width to which the bracket of the mixing angle is narrowed.
BISECTION_WIDTH = 1e-12
# The root finder stops once the bracket is narrower than twice
# _RTOL |x| + _ATOL.
_RTOL = 4 * sys.float_info.epsilon
_ATOL = BISECTION_WIDTH / 2
_LN2 = math.log(2.0)
# Ratio between the solver's first read and its second where the two
# closed forms would put both at one angle. The first read lies at most at
# half of pi/2 - delta, so any ratio in (1, 2) keeps both x / ratio and
# x * ratio strictly inside the interval.
_GUESS_RATIO = 1.5
# Least guess; keeps sin^2 of every read angle clear of underflow at a
# delta far below anything a curve takes.
_GUESS_FLOOR = 1e-100
# The kernels' functions for one point on Python floats. math's sin and cos
# give numpy's bits on [0, pi], which holds every argument the kernels
# pass (a test pins this); math.log1p does not, so log1p stays numpy's.
_FLOATS = SimpleNamespace(
    sin=math.sin,
    cos=math.cos,
    log1p=np.log1p,
    sqrt=math.sqrt,
    minimum=min,
    maximum=max,
    where=lambda cond, x, y: x if cond else y,
)


@dataclass(frozen=True)
class SourceSpec:
    """Biased qubit source diag(p0, p1) with the convention p0 >= p1."""

    p0: float

    def __post_init__(self):
        if not 0.5 <= self.p0 < 1.0:
            raise DomainError(f"p0 must lie in [0.5, 1), got {self.p0}")
        # Kept as a Python float, so that one curve point runs on floats.
        object.__setattr__(self, "p0", float(self.p0))

    @property
    def p1(self) -> float:
        return 1.0 - self.p0

    @property
    def d_max(self) -> float:
        """Distortion at which the rate first reaches zero."""
        return 2.0 * self.p0 * self.p1

    def distortion(self, delta):
        """Distortion 2 p0 p1 (1 - cos delta) at angle gap delta (float or array).

        Taken as 2 d_max sin^2(delta / 2), which equals it and does not cancel
        at small delta, where 1 - cos delta loses every digit.
        """
        xp = _FLOATS if isinstance(delta, (int, float)) else np
        s = xp.sin(0.5 * delta)
        d = 2.0 * self.d_max * (s * s)
        return d if isinstance(d, np.ndarray) else float(d)

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.diag([self.p0, self.p1]).astype(complex))


class CurvePoint(NamedTuple):
    """One sample of the rate-distortion sweep."""

    delta: float
    alpha: float
    d: float
    R: float
    r: float
    lambda1: float


# Builds a CurvePoint from a tuple of its fields, as CurvePoint._make does,
# without _make's length check and Python-level call.
_curve_point = partial(tuple.__new__, CurvePoint)


def pair_channel(alpha: float, delta: float) -> KrausChannel:
    """The diagonal pair diag(cos a, cos(a + D)), diag(sin a, sin(a + D)) at
    mixing angle ``alpha`` and angle gap ``delta``, as a trace-preserving
    channel."""
    a1 = np.diag([math.cos(alpha), math.cos(alpha + delta)]).astype(complex)
    a2 = np.diag([math.sin(alpha), math.sin(alpha + delta)]).astype(complex)
    return KrausChannel((a1, a2), trace_preserving=True)


def _weights(c1, c2, s1, s2, p0):
    """The squares of cos alpha, cos(alpha + delta), sin alpha and
    sin(alpha + delta), given as c1, c2, s1 and s2, then lambda1 and
    lambda2. Each square is a product, which rounds alike on Python floats
    and arrays."""
    p1 = 1.0 - p0
    c1, c2, s1, s2 = c1 * c1, c2 * c2, s1 * s1, s2 * s2
    return c1, c2, s1, s2, p0 * c1 + p1 * c2, p0 * s1 + p1 * s2


def _pair_weights(alpha, delta, p0, xp=np):
    """``_weights`` of the pair at alpha and delta, by the functions of
    ``xp`` (numpy, or ``_FLOATS`` on floats)."""
    beta = alpha + delta
    return _weights(xp.cos(alpha), xp.cos(beta), xp.sin(alpha), xp.sin(beta), p0)


def _pair_figures(alpha, delta, p0, xp=np):
    """R, r and lambda1 of the diagonal pair, of floats or arrays, from one
    ``_pair_weights`` call.

    R = lambda1 h2(p1 c2 / lambda1) + lambda2 h2(min(p0 s1, p1 s2) / lambda2)
    and r = h2(min(lambda1, lambda2)): each h2 takes the smaller of its two
    closed-form arguments (p0 c1 is never below p1 c2), which keeps full
    precision at p0 near 1, where 1 - lambda1 would lose the digits of
    lambda2.
    """
    p1 = 1.0 - p0
    _, c2, s1, s2, lam1, lam2 = _pair_weights(alpha, delta, p0, xp)
    rate = lam1 * binary_entropy(p1 * c2 / lam1) + lam2 * binary_entropy(
        xp.minimum(p0 * s1, p1 * s2) / lam2
    )
    return rate, binary_entropy(xp.minimum(lam1, lam2)), lam1


def _residual_arr(alpha, delta, p0, xp=np):
    """Derivative of the average output entropy with respect to alpha.

    p0 sin 2a log2(c1 lam2 / (s1 lam1)) - p1 sin 2(a + D) log2(s2 lam1 / (c2 lam2)).
    Both ratios are at least 1 and exceed it by closed forms,
    p1 k / (s1 lam1) and p0 k / (c2 lam2) with k = sin D sin(2a + D) >= 0,
    so each logarithm is a log1p of a positive number, which keeps full
    relative precision where a ratio is near 1 (small D, or p0 near 1).

    A read takes five sines and cosines, of a, a + D and D, and builds the
    rest from them: sin 2a = 2 sin a cos a, sin 2(a + D) likewise, and
    sin(2a + D) = sin a cos(a + D) + cos a sin(a + D), whose two terms are
    non-negative on the interval, so the sum does not cancel.
    """
    p1 = 1.0 - p0
    beta = alpha + delta
    ca, sa, cb, sb = xp.cos(alpha), xp.sin(alpha), xp.cos(beta), xp.sin(beta)
    _, c2, s1, _, lam1, lam2 = _weights(ca, cb, sa, sb, p0)
    k = xp.sin(delta) * (sa * cb + ca * sb)
    return (
        p0 * (2.0 * sa * ca) * xp.log1p(p1 * k / (s1 * lam1))
        - p1 * (2.0 * sb * cb) * xp.log1p(p0 * k / (c2 * lam2))
    ) / _LN2


def s1_curve_point(theta, src: SourceSpec):
    """Distortion and output entropy of the filter diag(cos t, sin t).

    At ``t = pi/4`` the filter is proportional to the identity (zero
    distortion, entropy h2(p0)); at ``t = 0`` it replaces the source with its
    best-guess pure state (entropy 0). The entropy is h2 of the output's
    smaller eigenvalue p1 sin^2 t / (p0 cos^2 t + p1 sin^2 t), never above
    the other on [0, pi/4], which keeps full precision at p0 near 1. Takes a float, giving floats, or an array, giving arrays;
    entries beyond 1e-12 outside [0, pi/4], or NaN, raise ``DomainError``.
    """
    t = np.asarray(theta, dtype=float)
    inside = (t >= -1e-12) & (t <= math.pi / 4 + 1e-12)
    if not inside.all():
        raise DomainError(f"theta must lie in [0, pi/4], got {t[~inside][0]}")
    t = np.clip(t, 0.0, math.pi / 4)
    p0, p1 = src.p0, src.p1
    c, s = np.cos(t), np.sin(t)
    weight = p0 * c * c + p1 * s * s
    # 1 - (p0 c + p1 s)^2 / weight, without the cancellation near t = pi/4
    gap = c - s
    d = p0 * p1 * gap * gap / weight
    entropy = binary_entropy(p1 * s * s / weight)
    if d.ndim == 0:
        return float(d), entropy
    return d, entropy


def _end_limits(delta, p0, xp=np):
    """The residual's limits at alpha -> 0 and alpha -> pi/2 - delta.

    -p1 sin 2D log2(1 + p0 / (p1 cos^2 D)) < 0 and
    p0 sin 2D log2(1 + p1 / (p0 cos^2 D)) > 0 for every 0 < D < pi/2 and
    0 < p0 < 1, so the interval always holds a root.
    """
    p1 = 1.0 - p0
    cos2 = xp.cos(delta)
    cos2 = cos2 * cos2
    sin2 = xp.sin(2 * delta)
    return (
        -p1 * sin2 * xp.log1p(p0 / (p1 * cos2)) / _LN2,
        p0 * sin2 * xp.log1p(p1 / (p0 * cos2)) / _LN2,
    )


def _interpolated_step(a, fa, fb, c, fc, width, dab, dcb):
    """Chandrupatla's next step as a fraction of the bracket from a to b:
    inverse quadratic interpolation through the newest point a, the other
    bracket end b and the point c dropped last, given the differences
    width = b - a, dab = fa - fb and dcb = fc - fb.

    fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb),
    whose first term divides by -dab and -dcb: the two signs cancel, and
    negation is exact, so the bits are those of the formula."""
    return fa / dab * fc / dcb + (c - a) / width * fa / (fc - fa) * fb / dcb


def _advance(a, fa, b, fb, x, fx, xp=np):
    """Chandrupatla's bookkeeping after a read fx at x inside the bracket
    from a to b: x becomes the newest point a, the old end whose residual
    has the sign of fx is dropped to c, and the other stays b."""
    same = (fx < 0) == (fa < 0)
    w = xp.where
    return x, fx, w(same, b, a), w(same, fb, fa), w(same, a, b), w(same, fa, fb)


def _guess(delta, p0, xp=np):
    """Closed-form guess of the mixing angle, g0 g1 / (g0 + g1).

    g0 = p1 D / (p0 - p1) is the angle's limit as D -> 0 and
    g1 = p1 (pi/2 - D) its limit as D -> pi/2. Taken as
    g1 D / (D + (p0 - p1)(pi/2 - D)), which is g1 exactly at p0 = 1/2,
    where it is the angle pi/4 - D/2 itself. It never exceeds
    g1 <= (pi/2 - D) / 2, and is floored at ``_GUESS_FLOOR``.
    """
    p1 = 1.0 - p0
    top = HALF_PI - delta
    return xp.maximum(p1 * top * (delta / (delta + (p0 - p1) * top)), _GUESS_FLOOR)


def _bracket(g, delta, p0, xp=np):
    """The solver's state after its first two reads, placed by two closed
    forms of the angle: the guess g and
    G = p1 sin D cos D / ((p0 - p1) cos^2 D + sin^2 D), clipped into
    [g, (pi/2 - D) / 2].

    G has g's limits at both ends of D, p1 D / (p0 - p1) and
    p1 (pi/2 - D), and tends to the angle itself as p0 -> 1. On dense grids
    of D >= 1e-6 at p0 from 0.55 to 1 - 1e-12, g lies below the root and G
    above it, G to within a few ulps; neither is a proven bound, and below
    D ~ 1e-7 the residual's sign is round-off.

    The first read is at g + w (G - g) with w = sqrt(2 p0 - 1), which leans
    on g near p0 = 1/2, where g is exact, and on G near p0 = 1. The second
    is at G where the first residual is negative, or at g where it is not;
    if that is the first read again, it is at 1.5 times or a 1.5th of it
    (``_GUESS_RATIO``). Both reads lie in (0, (3/4)(pi/2 - D)) and take the
    update of every later one (``_advance``) from the whole interval
    (0, pi/2 - D), whose ends keep their closed-form limits, so the bracket
    follows the residual's signs alone, and the point c dropped last is
    known, so the next step may interpolate."""
    p1 = 1.0 - p0
    top = HALF_PI - delta
    s, c = xp.sin(delta), xp.cos(delta)
    high = p1 * s * c / ((p0 - p1) * (c * c) + s * s)
    high = xp.minimum(xp.maximum(high, g), 0.5 * top)
    x = g + xp.sqrt(2.0 * p0 - 1.0) * (high - g)
    f_lo, f_hi = _end_limits(delta, p0, xp)
    state = _advance(0.0, f_lo, top, f_hi, x, _residual_arr(x, delta, p0, xp), xp)
    up = state[1] < 0
    y = xp.where(up, high, g)
    y = xp.where(y == x, xp.where(up, x * _GUESS_RATIO, x / _GUESS_RATIO), y)
    return _advance(*state[:4], y, _residual_arr(y, delta, p0, xp), xp)


def solve_alpha(delta: float, src: SourceSpec) -> float:
    """Mixing angle minimizing the average output entropy at fixed delta.

    The root of the stationarity residual on the feasible interval
    (0, pi/2 - delta), by Chandrupatla's method (Adv. Eng. Software 28,
    1997): inverse quadratic interpolation where the last three points
    allow it, bisection otherwise. The residual's closed-form limits at
    the ends of the interval differ in sign for every accepted delta and
    p0, so a root always exists and no grid is scanned. The first two reads
    go between the closed-form guess g and a second closed form G
    (``_bracket``), which leaves a bracket about the root a small fraction
    of the interval wide, so the search takes about six reads in all, fewer
    as p0 -> 1. (From the interval itself, small-delta roots near 0 sent it
    to bisection.) At p0 = 1/2 the guess is the exact angle pi/4 - delta/2
    and is returned without a read. The
    search stops when the bracket is narrower than twice
    4 eps |x| + ``BISECTION_WIDTH`` / 2 or the residual reads 0, and returns
    the bracket end with the smaller residual. Start, update and residual
    run on Python floats (the kernels take ``_FLOATS``), which is fastest
    for one delta; ``_solve_alphas`` runs the same start, update and kernels
    over arrays and gives the same bits.
    """
    if not 0.0 < delta < HALF_PI:
        raise DomainError(f"delta must lie in (0, pi/2), got {delta}")
    p0 = src.p0
    g = _guess(delta, p0, _FLOATS)
    if p0 == 0.5:
        return g
    a, fa, b, fb, c, fc = map(float, _bracket(g, delta, p0, _FLOATS))
    while True:
        xm, fm = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        width = b - a
        tl = (_RTOL * abs(xm) + _ATOL) / abs(width)
        if tl > 0.5 or fm == 0.0:
            return xm
        dab, dcb = fa - fb, fc - fb
        xi = width / (b - c)
        phi = dab / dcb
        t = 0.5
        if phi * phi < xi and (1 - phi) * (1 - phi) < 1 - xi:
            t = _interpolated_step(a, fa, fb, c, fc, width, dab, dcb)
        t = min(max(t, tl), 1 - tl)
        x = a + t * width
        fx = float(_residual_arr(x, delta, p0, _FLOATS))
        if (fx < 0) == (fa < 0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx


def _solve_alphas(deltas: np.ndarray, p0) -> np.ndarray:
    """``solve_alpha`` at every delta of an array, with the same bits.

    ``p0`` is one float or an array of one per delta. Runs ``solve_alpha``'s
    set-up and update, in the same order, on all rows at once, and drops
    each row, its p0 included, from the iteration once it has converged
    (the arrays are compacted only in an iteration where some row has). The
    interpolated step is taken on every row, and kept where ``solve_alpha``
    would take it; elsewhere it may divide by zero, which is ignored.
    """
    p0 = np.broadcast_to(np.asarray(p0, dtype=float), deltas.shape)
    alpha = _guess(deltas, p0)
    rows = np.flatnonzero(p0 != 0.5)
    if not rows.size:
        return alpha
    delta, p0 = deltas[rows], p0[rows]
    a, fa, b, fb, c, fc = _bracket(alpha[rows], delta, p0)
    while True:
        near = np.abs(fa) < np.abs(fb)
        xm, fm = np.where(near, a, b), np.where(near, fa, fb)
        width = b - a
        tl = (_RTOL * np.abs(xm) + _ATOL) / np.abs(width)
        done = (tl > 0.5) | (fm == 0.0)
        if done.any():
            alpha[rows[done]] = xm[done]
            keep = ~done
            a, fa, b, fb, c, fc, width, tl, delta, p0, rows = (
                v[keep] for v in (a, fa, b, fb, c, fc, width, tl, delta, p0, rows)
            )
            if not rows.size:
                return alpha
        dab, dcb = fa - fb, fc - fb
        xi = width / (b - c)
        phi = dab / dcb
        i = (phi * phi < xi) & ((1 - phi) * (1 - phi) < 1 - xi)
        with np.errstate(all="ignore"):
            step = _interpolated_step(a, fa, fb, c, fc, width, dab, dcb)
        t = np.minimum(np.maximum(np.where(i, step, 0.5), tl), 1 - tl)
        x = a + t * width
        a, fa, b, fb, c, fc = _advance(a, fa, b, fb, x, _residual_arr(x, delta, p0))


def r1_curve_point(delta: float, src: SourceSpec) -> CurvePoint:
    """Rate-distortion sample at one delta, in closed form.

    Solves for the optimal mixing angle (``solve_alpha``, to a bracket of
    about 1e-12), then takes the distortion
    2 p0 p1 (1 - cos delta), the average output entropy of the pair and its
    type-1 weight lambda1 from their closed forms. The endpoints solve
    nothing; each column there is its exact limit. As delta -> 0,
    alpha / delta -> p1 / (p0 - p1), so (0, h2(p0)) has alpha = 0 and
    lambda1 = 1, except at p0 = 1/2, where alpha = pi/4 - delta/2 gives
    pi/4 and 1/2. The limit jumps there: alpha stays near pi/4 - delta/2
    until delta is well past p0 - p1, so at p0 = 0.5000001 the delta = 0
    row has r = 0 and the next row of a 101-point sweep r near 1. At
    delta = pi/2, (0, pi/2 - delta) closes on alpha = 0, so (d_max, 0) has
    lambda1 = p0.
    """
    if not -1e-12 <= delta <= HALF_PI + 1e-12:
        raise DomainError(f"delta must lie in [0, pi/2], got {delta}")
    delta, p0 = float(delta), src.p0
    if delta <= ENDPOINT_CUTOFF:
        alpha, lam1 = (math.pi / 4, 0.5) if p0 == 0.5 else (0.0, 1.0)
        return CurvePoint(0.0, alpha, 0.0, binary_entropy(p0), binary_entropy(lam1), lam1)
    if delta >= HALF_PI - ENDPOINT_CUTOFF:
        return CurvePoint(HALF_PI, 0.0, src.d_max, 0.0, binary_entropy(p0), p0)
    alpha = solve_alpha(delta, src)
    figures = _pair_figures(alpha, delta, p0, _FLOATS)
    return CurvePoint(delta, alpha, src.distortion(delta), *figures)


def sweep_curve(src: SourceSpec, n_points: int) -> list[CurvePoint]:
    """Rate-distortion curve on a uniform delta grid, endpoints included.

    Points come back ordered by ascending distortion; the rate is
    non-increasing along the sweep. The endpoints are ``r1_curve_point``'s
    exact limits, which solve nothing. The interior angles are solved
    together (``_solve_alphas``, the update of ``solve_alpha`` over
    arrays), and d, R, r and lambda1 come from the closed forms over the
    whole array, so every interior point equals ``r1_curve_point`` at its
    delta bit for bit.
    """
    if n_points < 2:
        raise DomainError(f"n_points must be at least 2, got {n_points}")
    p0 = src.p0
    deltas = np.linspace(0.0, HALF_PI, n_points)[1:-1]
    deltas = np.clip(deltas, DELTA_EPS, HALF_PI - DELTA_EPS)
    first = r1_curve_point(0.0, src)
    alpha = _solve_alphas(deltas, p0)
    columns = (deltas, alpha, src.distortion(deltas), *_pair_figures(alpha, deltas, p0))
    interior = map(_curve_point, zip(*(c.tolist() for c in columns)))
    return [first, *interior, r1_curve_point(HALF_PI, src)]


def isotropic_s1(d):
    """Closed form of the entropy-distortion curve for the unbiased source.

    h2(1/2 + sqrt(d (1 - d))) for d in [0, 1/2], of a float or of each entry
    of an array; other entries (beyond 1e-12, or NaN) raise ``DomainError``.
    """
    d = np.asarray(d, dtype=float)
    inside = (d >= -1e-12) & (d <= 0.5 + 1e-12)
    if not inside.all():
        raise DomainError(f"distortion must lie in [0, 1/2], got {d[~inside][0]}")
    d = np.clip(d, 0.0, 0.5)
    return binary_entropy(0.5 + np.sqrt(d * (1.0 - d)))
