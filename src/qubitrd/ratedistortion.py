"""Entropy-distortion and rate-distortion curves of a biased qubit source.

The source emits qubits in the state ``rho = diag(p0, p1)`` with
``p0 >= 1/2``. Two operation families matter:

* single-element filters ``A = diag(cos t, sin t)`` with ``t in [0, pi/4]``,
  which trace out the entropy-distortion boundary S1(d);
* trace-preserving pairs ``A1 = diag(cos a, cos(a + D))``,
  ``A2 = diag(sin a, sin(a + D))`` with ``D in [0, pi/2]``. Their distortion
  is ``d = 2 p0 p1 (1 - cos D)`` independently of ``a``, so the rate curve
  R1(d) is obtained by minimizing the average conditional output entropy
  over the mixing angle ``a`` at each ``D``.

The minimizing angle solves a stationarity equation (the derivative of the
average entropy with respect to ``a``); it is located by bracketing on a
grid followed by bisection. A sweep solves all its interior D together on
the same grid cells, and hands the rows it cannot settle cheaply to the
single-D solver, so both return the same angle. Every other quantity of a
curve point is closed form in (a, D): the distortion above, the average
entropy ``lambda1 h2(p0 cos^2 a / lambda1) + lambda2 h2(p0 sin^2 a / lambda2)``,
the type-1 weight ``lambda1 = p0 cos^2 a + p1 cos^2(a + D)``, with
``lambda2 = 1 - lambda1``, and the side-channel rate h2(lambda1). A sweep
takes them over whole arrays by the formulas of a single point, so its rows
equal ``r1_curve_point``'s bit for bit. The channel functionals of
``quantum`` give the same numbers and serve the tests as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    DomainError,
    EndpointSingularityError,
    RootNotFoundError,
)
from .quantum import DensityMatrix, KrausChannel, binary_entropy

HALF_PI = math.pi / 2
# Inset in Delta for sweep grids; keeps every logarithm argument positive.
DELTA_EPS = 1e-6
# Delta values this close to 0 or pi/2 are handled by analytic limits.
ENDPOINT_CUTOFF = 1e-12
# Offsets at which the endpoint limits of alpha and lambda1 are evaluated.
# Near delta = 0 the average entropy is flat in alpha to O(delta^2), which
# drops below double-precision resolution under ~1e-3; the pi/2 side stays
# well conditioned down to 1e-6.
ZERO_LIMIT_OFFSET = 1e-3
MAX_LIMIT_OFFSET = 1e-6
ALPHA_GRID_SIZE = 512
MAX_BISECTED_BRACKETS = 8
# Width to which each bracket of the mixing angle is bisected.
BISECTION_WIDTH = 1e-12
PAIR_COMPLETENESS_TOL = 1e-12
# A sweep locates its grid cells this many rows at a time, which keeps the
# (rows, grid) temporaries at a few hundred KB.
_SWEEP_BLOCK_ROWS = 64
# The sweep's first pass reads every 32nd grid node and the last one; the
# second reads the 33 nodes of the one coarse segment with a sign change.
_COARSE_NODES = np.append(np.arange(0, ALPHA_GRID_SIZE, 32), ALPHA_GRID_SIZE - 1)
_SEGMENT_OFFSETS = np.arange(33)


@dataclass(frozen=True)
class SourceSpec:
    """Biased qubit source diag(p0, p1) with the convention p0 >= p1."""

    p0: float

    def __post_init__(self):
        if not 0.5 <= self.p0 < 1.0:
            raise DomainError(f"p0 must lie in [0.5, 1), got {self.p0}")

    @property
    def p1(self) -> float:
        return 1.0 - self.p0

    @property
    def d_max(self) -> float:
        """Distortion at which the rate first reaches zero."""
        return 2.0 * self.p0 * self.p1

    def distortion(self, delta):
        """Distortion 2 p0 p1 (1 - cos delta) at angle gap delta (float or array)."""
        d = self.d_max * (1.0 - np.cos(delta))
        return d if isinstance(d, np.ndarray) else float(d)

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.diag([self.p0, self.p1]).astype(complex))


@dataclass(frozen=True)
class CurvePoint:
    """One sample of the rate-distortion sweep."""

    delta: float
    alpha: float
    d: float
    R: float
    r: float
    lambda1: float


@dataclass(frozen=True)
class KrausPair:
    """Diagonal trace-preserving pair of 2x2 operation elements."""

    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        m1 = np.asarray(self.a1, dtype=complex)
        m2 = np.asarray(self.a2, dtype=complex)
        if m1.shape != (2, 2) or m2.shape != (2, 2):
            raise ContractViolationError("pair elements must be 2x2")
        off = max(
            abs(m1[0, 1]), abs(m1[1, 0]), abs(m2[0, 1]), abs(m2[1, 0])
        )
        if off > PAIR_COMPLETENESS_TOL:
            raise ContractViolationError("pair elements must be diagonal")
        total = m1.conj().T @ m1 + m2.conj().T @ m2
        gap = np.max(np.abs(total - np.eye(2)))
        if gap > PAIR_COMPLETENESS_TOL:
            raise ContractViolationError(
                f"A1†A1 + A2†A2 deviates from identity by {gap:.3e}"
            )
        m1.setflags(write=False)
        m2.setflags(write=False)
        object.__setattr__(self, "a1", m1)
        object.__setattr__(self, "a2", m2)

    @classmethod
    def from_angles(cls, alpha: float, delta: float) -> "KrausPair":
        a1 = np.diag([math.cos(alpha), math.cos(alpha + delta)]).astype(complex)
        a2 = np.diag([math.sin(alpha), math.sin(alpha + delta)]).astype(complex)
        return cls(a1, a2)

    def channel(self) -> KrausChannel:
        return KrausChannel((self.a1, self.a2), trace_preserving=True)


def _pair_weights(alpha, delta, p0):
    """The squares c1, c2 of cos alpha, cos(alpha + delta) and s1, s2 of the
    sines, then lambda1 and lambda2. Each square is a product, which numpy
    rounds alike on floats and arrays (it squares a float with pow)."""
    p1 = 1.0 - p0
    c1, c2 = np.cos(alpha), np.cos(alpha + delta)
    s1, s2 = np.sin(alpha), np.sin(alpha + delta)
    c1, c2, s1, s2 = c1 * c1, c2 * c2, s1 * s1, s2 * s2
    return c1, c2, s1, s2, p0 * c1 + p1 * c2, p0 * s1 + p1 * s2


def _average_entropy_arr(alpha, delta, p0):
    """Average output entropy of the diagonal pair; vectorized over alpha."""
    c1, _, s1, _, lam1, lam2 = _pair_weights(alpha, delta, p0)
    return lam1 * binary_entropy(p0 * c1 / lam1) + lam2 * binary_entropy(p0 * s1 / lam2)


def _residual_arr(alpha, delta, p0):
    """Derivative of the average output entropy with respect to alpha."""
    p1 = 1.0 - p0
    c1, c2, s1, s2, lam1, lam2 = _pair_weights(alpha, delta, p0)
    return p0 * np.sin(2 * alpha) * np.log2(c1 * lam2 / (s1 * lam1)) + (
        p1 * np.sin(2 * (alpha + delta)) * np.log2(c2 * lam2 / (s2 * lam1))
    )


def s1_curve_point(theta: float, src: SourceSpec) -> tuple[float, float]:
    """Distortion and output entropy of the filter diag(cos t, sin t).

    At ``t = pi/4`` the filter is proportional to the identity (zero
    distortion, entropy h2(p0)); at ``t = 0`` it replaces the source with its
    best-guess pure state (entropy 0).
    """
    if not -1e-12 <= theta <= math.pi / 4 + 1e-12:
        raise DomainError(f"theta must lie in [0, pi/4], got {theta}")
    theta = min(max(theta, 0.0), math.pi / 4)
    p0, p1 = src.p0, src.p1
    c, s = math.cos(theta), math.sin(theta)
    weight = p0 * c**2 + p1 * s**2
    amplitude = p0 * c + p1 * s
    d = 1.0 - amplitude**2 / weight
    entropy = binary_entropy(p0 * c**2 / weight)
    return d, entropy


def stationarity_residual(alpha: float, delta: float, src: SourceSpec) -> float:
    """Stationarity condition for the mixing angle at fixed delta.

    Returns the derivative of the pair's average output entropy with respect
    to ``alpha``; the optimal angle is a root. Continuous on the open
    interval ``0 < alpha < pi/2 - delta``; at the endpoints a logarithm
    argument vanishes.
    """
    if not 0.0 < delta < HALF_PI:
        raise DomainError(f"delta must lie in (0, pi/2), got {delta}")
    if not 0.0 < alpha < HALF_PI - delta:
        raise EndpointSingularityError(
            f"alpha {alpha} outside the open interval (0, {HALF_PI - delta})"
        )
    return float(_residual_arr(alpha, delta, src.p0))


def solve_alpha(delta: float, src: SourceSpec) -> float:
    """Mixing angle minimizing the average output entropy at fixed delta.

    Scans a 512-point grid of the feasible interval for sign changes of the
    stationarity residual, refines each bracket by bisection to the fixed
    width ``BISECTION_WIDTH`` (1e-12), and returns the root with the
    smallest average entropy. When noise produces many brackets (the
    landscape flattens as delta -> 0), only the most promising few are
    refined.
    """
    if not 0.0 < delta < HALF_PI:
        raise DomainError(f"delta must lie in (0, pi/2), got {delta}")
    p0 = src.p0
    hi = HALF_PI - delta
    inset = hi * 1e-6
    grid = np.linspace(inset, hi - inset, ALPHA_GRID_SIZE)
    values = _residual_arr(grid, delta, p0)

    brackets = list(np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0))
    if len(brackets) > MAX_BISECTED_BRACKETS:
        mids = 0.5 * (grid[brackets] + grid[np.array(brackets) + 1])
        order = np.argsort(_average_entropy_arr(mids, delta, p0), kind="stable")
        brackets = [brackets[i] for i in order[:MAX_BISECTED_BRACKETS]]

    roots: list[float] = []
    for i in brackets:
        lo_a, hi_a = float(grid[i]), float(grid[i + 1])
        f_lo = float(values[i])
        while hi_a - lo_a > BISECTION_WIDTH:
            mid = 0.5 * (lo_a + hi_a)
            f_mid = float(_residual_arr(mid, delta, p0))
            if f_mid == 0.0:
                lo_a = hi_a = mid
                break
            if (f_lo < 0) == (f_mid < 0):
                lo_a, f_lo = mid, f_mid
            else:
                hi_a = mid
        roots.append(0.5 * (lo_a + hi_a))
    roots.extend(float(grid[i]) for i in np.flatnonzero(values == 0.0))

    if not roots:
        raise RootNotFoundError(
            f"no sign change of the stationarity residual for delta={delta}, "
            f"p0={p0} (residual range [{values.min():.3e}, {values.max():.3e}] "
            f"over {ALPHA_GRID_SIZE} grid points)",
            grid=grid,
            values=values,
        )
    if len(roots) == 1:
        return roots[0]
    entropies = [float(_average_entropy_arr(r, delta, p0)) for r in roots]
    return min(zip(entropies, roots))[1]


def _one_sign_change(values):
    """Per row: the cell of the first strict sign change, and whether it is
    the only one with every value finite and nonzero."""
    signs = np.sign(values)
    change = signs[:, :-1] * signs[:, 1:] < 0
    clean = np.all(np.isfinite(values) & (values != 0.0), axis=1)
    return change.argmax(axis=1), clean & (change.sum(axis=1) == 1)


def _solve_alphas(deltas: np.ndarray, src: SourceSpec) -> np.ndarray:
    """``solve_alpha`` at each interior delta, on the same grid cells.

    Each row builds ``solve_alpha``'s 512-point grid and reads the residual
    at every 32nd node and the last, then at the 33 nodes of the coarse
    segment whose sign changes. A row with exactly one strict sign change at
    both levels and no zero or non-finite value has found the cell that
    ``solve_alpha`` brackets; all such cells are bisected together to
    ``BISECTION_WIDTH`` by ``solve_alpha``'s rule. Every other row, and every
    delta below ``ZERO_LIMIT_OFFSET`` (where round-off makes the residual
    change sign many times), is handed to ``solve_alpha`` itself, which makes
    the choice among several roots or raises ``RootNotFoundError``.
    """
    p0 = src.p0
    lo, hi, f_lo = (np.empty_like(deltas) for _ in range(3))
    easy = deltas >= ZERO_LIMIT_OFFSET
    for start in range(0, deltas.size, _SWEEP_BLOCK_ROWS):
        rows = slice(start, start + _SWEEP_BLOCK_ROWS)
        delta = deltas[rows, None]
        top = HALF_PI - deltas[rows]
        inset = top * 1e-6
        grid = np.linspace(inset, top - inset, ALPHA_GRID_SIZE, axis=1)
        coarse = _residual_arr(grid[:, _COARSE_NODES], delta, p0)
        segment, coarse_ok = _one_sign_change(coarse)
        nodes = np.minimum(
            _COARSE_NODES[segment, None] + _SEGMENT_OFFSETS, ALPHA_GRID_SIZE - 1
        )
        alphas = np.take_along_axis(grid, nodes, axis=1)
        fine = _residual_arr(alphas, delta, p0)
        cell, fine_ok = _one_sign_change(fine)
        easy[rows] &= coarse_ok & fine_ok
        pick = np.arange(cell.size)
        lo[rows], hi[rows] = alphas[pick, cell], alphas[pick, cell + 1]
        f_lo[rows] = fine[pick, cell]

    alpha = np.empty_like(deltas)
    for i in np.flatnonzero(~easy):
        alpha[i] = solve_alpha(float(deltas[i]), src)
    rows = np.flatnonzero(easy)
    lo, hi, f_lo, delta = lo[rows], hi[rows], f_lo[rows], deltas[rows]
    live = np.arange(rows.size)
    while True:
        live = live[hi[live] - lo[live] > BISECTION_WIDTH]
        if live.size == 0:
            break
        a, b, f_a = lo[live], hi[live], f_lo[live]
        mid = 0.5 * (a + b)
        f_mid = _residual_arr(mid, delta[live], p0)
        zero = f_mid == 0.0
        same = (f_a < 0) == (f_mid < 0)
        lo[live] = np.where(same | zero, mid, a)
        hi[live] = np.where(same & ~zero, b, mid)
        f_lo[live] = np.where(same, f_mid, f_a)
    alpha[rows] = 0.5 * (lo + hi)
    return alpha


def r1_curve_point(delta: float, src: SourceSpec) -> CurvePoint:
    """Rate-distortion sample at one delta, in closed form.

    Solves for the optimal mixing angle (``solve_alpha``, bisected to a
    fixed width of 1e-12), then takes the distortion
    2 p0 p1 (1 - cos delta), the average output entropy of the pair and its
    type-1 weight lambda1 from their closed forms. The degenerate endpoints
    keep their exact distortion and rate, (0, h2(p0)) and (d_max, 0); their
    angle and lambda1 are limits solved at a small offset inside the
    interval.
    """
    if not -1e-12 <= delta <= HALF_PI + 1e-12:
        raise DomainError(f"delta must lie in [0, pi/2], got {delta}")
    p0 = src.p0
    if delta <= ENDPOINT_CUTOFF:
        delta, solve_at = 0.0, ZERO_LIMIT_OFFSET
    elif delta >= HALF_PI - ENDPOINT_CUTOFF:
        delta, solve_at = HALF_PI, HALF_PI - MAX_LIMIT_OFFSET
    else:
        solve_at = delta

    alpha = solve_alpha(solve_at, src)
    lam1 = float(_pair_weights(alpha, solve_at, p0)[4])
    if delta == 0.0:
        d, rate = 0.0, binary_entropy(p0)
    elif delta == HALF_PI:
        d, rate = src.d_max, 0.0
    else:
        d = src.distortion(delta)
        rate = float(_average_entropy_arr(alpha, delta, p0))
    return CurvePoint(
        delta=delta, alpha=alpha, d=d, R=rate, r=binary_entropy(lam1), lambda1=lam1
    )


def sweep_curve(src: SourceSpec, n_points: int) -> list[CurvePoint]:
    """Rate-distortion curve on a uniform delta grid, endpoints included.

    Points come back ordered by ascending distortion; the rate is
    non-increasing along the sweep. The endpoints are ``r1_curve_point``'s
    limits. The interior angles are solved together (``_solve_alphas``) on
    ``solve_alpha``'s grid cells, and d, R, r and lambda1 come from the
    closed forms over the whole array, so every interior point equals
    ``r1_curve_point`` at its delta bit for bit.
    """
    if n_points < 2:
        raise DomainError(f"n_points must be at least 2, got {n_points}")
    p0 = src.p0
    deltas = np.linspace(0.0, HALF_PI, n_points)[1:-1]
    deltas = np.clip(deltas, DELTA_EPS, HALF_PI - DELTA_EPS)
    first = r1_curve_point(0.0, src)
    alpha = _solve_alphas(deltas, src)
    rate = _average_entropy_arr(alpha, deltas, p0)
    lam1 = _pair_weights(alpha, deltas, p0)[4]
    columns = (deltas, alpha, src.distortion(deltas), rate, binary_entropy(lam1), lam1)
    interior = [CurvePoint(*row) for row in zip(*(c.tolist() for c in columns))]
    return [first, *interior, r1_curve_point(HALF_PI, src)]


def classical_hamming_baseline(src: SourceSpec, d: float) -> float:
    """Rate of the classical Hamming-distortion baseline, max(0, h2(p0) - h2(d))."""
    if not -1e-12 <= d <= 0.5 + 1e-12:
        raise DomainError(f"distortion must lie in [0, 1/2], got {d}")
    d = min(max(d, 0.0), 0.5)
    return max(0.0, binary_entropy(src.p0) - binary_entropy(d))


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
