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

The minimizing angle is closed form. The derivative of the average entropy
in ``a`` is ``p0 sin 2a log2(c1 lambda2 / (s1 lambda1))
- p1 sin 2(a + D) log2(s2 lambda1 / (c2 lambda2))``, with c1, c2, s1, s2 the
squares of cos a, cos(a + D), sin a, sin(a + D). With
``m = p0 sin 2a - p1 sin 2(a + D)`` the weights satisfy
``cos a cos(a + D) lambda2 - sin a sin(a + D) lambda1 = -(sin D / 2) m``,
so where m = 0 the two log ratios are equal and the derivative is
``m log2(...) = 0``. m goes from -p1 sin 2D at a = 0 to p0 sin 2D at
a = pi/2 - D through one zero, the optimal angle

    a* = 1/2 atan2(p1 sin 2D, (p0 - p1) + 2 p1 sin^2 D),

whose terms are all non-negative, so nothing cancels (``_optimal_alpha``).
At p0 = 1/2 it is pi/4 - D/2, taken in that form; as D -> 0,
a* / D -> p1 / (p0 - p1). At D = 0 and D = pi/2 the curve point takes its
exact limits. Every other quantity of a curve point is closed form in
(a, D): the distortion above, the average entropy
``lambda1 h2(p0 cos^2 a / lambda1) + lambda2 h2(p0 sin^2 a / lambda2)``,
the type-1 weight ``lambda1 = p0 cos^2 a + p1 cos^2(a + D)``, with
``lambda2 = 1 - lambda1``, and the side-channel rate h2(lambda1). R, r and
lambda1 come from one kernel, ``_pair_figures``. No h2 here is checked:
each argument is built in [0, 1]. A sweep is one record array with a column per
``CurvePoint`` field. It writes the angle and the figures over whole arrays
by the formulas of a single point, so each of its rows equals
``r1_curve_point``'s bit for bit. Each formula is written once, in a kernel
that takes the namespace of the functions it calls: numpy over arrays, or
``_FLOATS`` on the Python floats of one point, whose functions give numpy's
bits. ``simulate`` reads every analytic figure off ``r1_curve_point``; the
channel functionals of ``quantum`` serve the tests as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import check_integer, check_real, clipped_real
from .quantum import DensityMatrix, KrausChannel, _h2_float, _h2_unchecked

HALF_PI = math.pi / 2
# The largest floats inside the open ends of p0's [0.5, 1) and of the reals.
_P0_MAX = math.nextafter(1.0, 0.0)
_FLOAT_MAX = math.nextafter(math.inf, 0.0)
_DELTA_MESSAGE = "delta must lie in [0, pi/2], got {}"
# Delta values this close to 0 or pi/2 take the curve's exact limits.
ENDPOINT_CUTOFF = 1e-12
# The kernels' functions for one point on Python floats. math's sin and cos
# give numpy's bits on [0, pi], which holds every argument the kernels
# pass (a test pins this); math.atan2 does not (it differs from numpy's in
# the last bit on 2.4% of the angle kernel's inputs), so arctan2 stays
# numpy's, turned into a float at once, so the angle's arithmetic runs on
# floats. minimum picks the operand the builtin min picks, as a comparison,
# which costs a fraction of the builtin's call.
_FLOATS = SimpleNamespace(
    sin=math.sin,
    cos=math.cos,
    arctan2=lambda y, x: float(np.arctan2(y, x)),
    minimum=lambda a, b: b if b < a else a,
)


@dataclass(frozen=True, init=False)
class SourceSpec:
    """Biased qubit source diag(p0, p1) with the convention p0 >= p1.

    ``p0`` is a real number whose float lies in [0.5, 1) (``check_real``);
    anything else raises ``DomainError``. It is kept as that Python float,
    so that one curve point runs on floats. The ``__init__`` is written
    out, so that p0 is checked and stored once.
    """

    p0: float

    def __init__(self, p0: float):
        p0 = check_real(p0, 0.5, _P0_MAX, "p0 must lie in [0.5, 1), got {}")
        object.__setattr__(self, "p0", p0)

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
        at small delta, where 1 - cos delta loses every digit. A real delta
        within 1e-12 of [0, pi/2] is clipped to it (``clipped_real``); any other
        raises ``DomainError``. A scalar gives a Python float.
        """
        d = self._distortion(clipped_real(delta, 0.0, HALF_PI, _DELTA_MESSAGE))
        return d if isinstance(d, np.ndarray) else float(d)

    def _distortion(self, delta, xp=np):
        """``distortion`` unchecked, by ``xp``'s functions, for built deltas."""
        s = xp.sin(0.5 * delta)
        return 2.0 * self.d_max * (s * s)

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


# The record of one sweep row: a float64 field per CurvePoint field, as a
# np.record dtype, which a recarray view keeps instead of rebuilding it.
_CURVE_DTYPE = np.dtype((np.record, [(f, np.float64) for f in CurvePoint._fields]))


def pair_channel(alpha: float, delta: float) -> KrausChannel:
    """The diagonal pair diag(cos a, cos(a + D)), diag(sin a, sin(a + D)) at
    mixing angle ``alpha`` and angle gap ``delta``, as a trace-preserving
    channel. Each angle is a real number with a finite float
    (``check_real``); NaN, an infinity or a value that is not real raises
    ``DomainError``."""
    alpha = check_real(alpha, -_FLOAT_MAX, _FLOAT_MAX, "alpha must be a finite real, got {}")
    delta = check_real(delta, -_FLOAT_MAX, _FLOAT_MAX, "delta must be a finite real, got {}")
    a1 = np.diag([math.cos(alpha), math.cos(alpha + delta)]).astype(complex)
    a2 = np.diag([math.sin(alpha), math.sin(alpha + delta)]).astype(complex)
    return KrausChannel((a1, a2))


def _pair_weights(alpha, delta, p0, xp=np):
    """p0 c1, p1 c2, p0 s1, p1 s2, then their sums lambda1 and lambda2, with
    c1, c2, s1, s2 the squares of cos alpha, cos(alpha + delta), sin alpha
    and sin(alpha + delta), by the functions of ``xp`` (numpy, or ``_FLOATS``
    on floats). Each square is a product, which rounds alike on both."""
    p1 = 1.0 - p0
    beta = alpha + delta
    c1, c2, s1, s2 = xp.cos(alpha), xp.cos(beta), xp.sin(alpha), xp.sin(beta)
    p0c1, p1c2 = p0 * (c1 * c1), p1 * (c2 * c2)
    p0s1, p1s2 = p0 * (s1 * s1), p1 * (s2 * s2)
    return p0c1, p1c2, p0s1, p1s2, p0c1 + p1c2, p0s1 + p1s2


def _pair_figures(alpha, delta, p0, xp=np):
    """R, r and lambda1 of the diagonal pair, of floats or arrays, from one
    ``_pair_weights`` call.

    R = lambda1 h2(p1 c2 / lambda1) + lambda2 h2(min(p0 s1, p1 s2) / lambda2)
    and r = h2(min(lambda1, lambda2)): each h2 takes the smaller of its two
    closed-form arguments (p0 c1 is never below p1 c2), which keeps full
    precision at p0 near 1, where 1 - lambda1 would lose the digits of
    lambda2. Over arrays the three h2 arguments go through one
    ``_h2_unchecked`` call on their (3, n) stack: h2 is elementwise, so
    every entry keeps the bits of its own call, and the dozen or so ufunc
    passes of h2 are paid once, not three times. Each argument is a part of
    a sum of non-negative parts over that sum, or the smaller of two such
    sums, so it lies in [0, 1] and needs no range check. On floats, where a
    stack would only add its cost, they take three ``_h2_float`` calls, the
    same formula with no check either.
    """
    _, p1c2, p0s1, p1s2, lam1, lam2 = _pair_weights(alpha, delta, p0, xp)
    q1 = p1c2 / lam1
    q2 = xp.minimum(p0s1, p1s2) / lam2
    q_side = xp.minimum(lam1, lam2)
    if xp is _FLOATS:
        e1, e2, r = _h2_float(q1), _h2_float(q2), _h2_float(q_side)
    else:
        e1, e2, r = _h2_unchecked(np.array((q1, q2, q_side)))
    return lam1 * e1 + lam2 * e2, r, lam1


def _optimal_alpha(delta, p0, xp=np):
    """The mixing angle minimizing the average entropy at angle gap delta,
    a float or an array, for one p0, by the functions of ``xp``:
    1/2 atan2(p1 sin 2 delta, (p0 - p1) + 2 p1 sin^2 delta), the zero of
    m = p0 sin 2a - p1 sin 2(a + delta) on (0, pi/2 - delta). At p0 = 1/2
    it is taken as (pi/2 - delta) / 2, the same angle, whose bits the atan2
    form differs from on about half of all deltas."""
    if p0 == 0.5:
        return 0.5 * (HALF_PI - delta)
    p1 = 1.0 - p0
    s = xp.sin(delta)
    return 0.5 * xp.arctan2(p1 * xp.sin(2.0 * delta), (p0 - p1) + 2.0 * p1 * (s * s))


def s1_curve_point(theta, src: SourceSpec):
    """Distortion and output entropy of the filter diag(cos t, sin t).

    At ``t = pi/4`` the filter is proportional to the identity (zero
    distortion, entropy h2(p0)); at ``t = 0`` it replaces the source with its
    best-guess pure state (entropy 0). The entropy is h2 of the output's
    smaller eigenvalue p1 sin^2 t / (p0 cos^2 t + p1 sin^2 t), never above
    the other on [0, pi/4], which keeps full precision at p0 near 1. Takes
    a float, giving floats, or an array, giving arrays; entries beyond
    1e-12 outside [0, pi/4], or NaN, raise ``DomainError``.
    """
    t = clipped_real(theta, 0.0, math.pi / 4, "theta must lie in [0, pi/4], got {}")
    p0, p1 = src.p0, src.p1
    c, s = np.cos(t), np.sin(t)
    weight = p0 * c * c + p1 * s * s
    # 1 - (p0 c + p1 s)^2 / weight, without the cancellation near t = pi/4
    gap = c - s
    d = p0 * p1 * gap * gap / weight
    # p1 s^2 / weight <= 1: weight is that same rounded product plus p0 c^2
    entropy = _h2_unchecked(p1 * s * s / weight)
    if d.ndim == 0:
        return float(d), float(entropy)
    return d, entropy


def r1_curve_point(delta: float, src: SourceSpec) -> CurvePoint:
    """Rate-distortion sample at one delta, in closed form.

    Takes the optimal mixing angle from ``_optimal_alpha`` on floats, then
    the distortion 2 p0 p1 (1 - cos delta), the average output entropy of
    the pair and its type-1 weight lambda1 from their closed forms. The
    endpoints solve no angle; each column there is its exact limit. As delta -> 0,
    alpha / delta -> p1 / (p0 - p1), so (0, h2(p0)) has alpha = 0 and
    lambda1 = 1, except at p0 = 1/2, where alpha = pi/4 - delta/2 gives
    pi/4 and 1/2. The limit jumps there: alpha stays near pi/4 - delta/2
    until delta is well past p0 - p1, so at p0 = 0.5000001 the delta = 0
    row has r = 0 and the next row of a 101-point sweep r near 1. At
    delta = pi/2, (0, pi/2 - delta) closes on alpha = 0, so (d_max, 0) has
    lambda1 = p0. A delta whose float (``check_real``) lies more than 1e-12
    outside [0, pi/2], NaN, or one that is not real raises ``DomainError``.
    That is the package's one rule for a scalar delta: ``build_circuit``
    (hence ``simulate --delta``) leaves the check to this call. The point's
    ``alpha`` is the public optimal angle, within a few ulps of the exact
    one however small an interior delta is.
    """
    delta = check_real(delta, -1e-12, HALF_PI + 1e-12, _DELTA_MESSAGE)
    p0 = src.p0
    if delta <= ENDPOINT_CUTOFF:
        alpha, r, lam1 = (math.pi / 4, 1.0, 0.5) if p0 == 0.5 else (0.0, 0.0, 1.0)
        return CurvePoint(0.0, alpha, 0.0, _h2_float(p0), r, lam1)
    if delta >= HALF_PI - ENDPOINT_CUTOFF:
        return CurvePoint(HALF_PI, 0.0, src.d_max, 0.0, _h2_float(p0), p0)
    alpha = _optimal_alpha(delta, p0, _FLOATS)
    figures = _pair_figures(alpha, delta, p0, _FLOATS)
    return CurvePoint(delta, alpha, src._distortion(delta, _FLOATS), *figures)


def sweep_curve(src: SourceSpec, n_points: int) -> np.recarray:
    """Rate-distortion curve on a uniform delta grid, endpoints included.

    One record array of ``n_points`` rows, whose float64 fields are named by
    ``CurvePoint._fields``: ``curve.R`` is the rate column, ``curve[i]`` a
    row, and ``curve.tolist()`` the rows as tuples of Python floats. Rows
    come ordered by ascending distortion; the rate is non-increasing along
    the sweep. The end rows are ``r1_curve_point``'s exact limits. The
    deltas are ``np.linspace(0, pi/2, n_points)`` bit for bit. The interior
    columns are written from the closed forms over the whole array
    (``_optimal_alpha``, ``_pair_figures``), so ``tuple(curve[i])`` equals
    ``r1_curve_point`` at its delta bit for bit. ``n_points`` is an integer
    (Python or NumPy, not a bool) of at least 2; else ``DomainError``.
    """
    check_integer("n_points", n_points, 2)
    p0 = src.p0
    curve = np.empty(n_points, dtype=_CURVE_DTYPE)
    curve[0] = r1_curve_point(0.0, src)
    deltas = np.arange(1.0, n_points - 1) * (HALF_PI / (n_points - 1))
    alpha = _optimal_alpha(deltas, p0)
    inner = curve[1:-1]
    inner["delta"], inner["alpha"], inner["d"] = deltas, alpha, src._distortion(deltas)
    inner["R"], inner["r"], inner["lambda1"] = _pair_figures(alpha, deltas, p0)
    curve[-1] = r1_curve_point(HALF_PI, src)
    return curve.view(np.recarray)


def isotropic_s1(d):
    """Closed form of the entropy-distortion curve for the unbiased source.

    h2(1/2 + sqrt(d (1 - d))) for d in [0, 1/2], of a float or of each entry
    of an array; other entries (beyond 1e-12, or NaN) raise ``DomainError``.
    On the clipped d the h2 argument lies in [1/2, 1] and takes no check.
    """
    d = clipped_real(d, 0.0, 0.5, "distortion must lie in [0, 1/2], got {}")
    h = _h2_unchecked(0.5 + np.sqrt(d * (1.0 - d)))
    return h if isinstance(h, np.ndarray) else float(h)
