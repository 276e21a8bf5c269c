"""Correctness checks with references that share no code with qubitrd.

Each check takes plain numbers (arrays, dicts, text) and returns a list of
failure messages; an empty list means the output passed. The entropy and
distortion formulas here are written out from the paper, not imported.
"""

from __future__ import annotations

import json
import math

import numpy as np

HALF_PI = math.pi / 2
DISTORTION_TOL = 1e-10
IDENTITY_TOL = 1e-9
ENDPOINT_TOL = 1e-12
GRID_POINTS = 512
REFINE_POINTS = 257
STREAM_SIGMAS = 6.0
# Rows of the dense-grid check evaluated at once; bounds the temporaries.
GRID_CHUNK = 32


def h2(p):
    """Binary entropy in bits, 0 at p in {0, 1}."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.where(p > 0, p * np.log2(p), 0.0) - np.where(q > 0, q * np.log2(q), 0.0)
    return out


def _neg_xlog2x(w):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w > 0, -w * np.log2(w), 0.0)


def average_entropy(alpha, delta, p0):
    """Average conditional output entropy of the diagonal pair.

    The pair A1 = diag(cos a, cos(a + D)), A2 = diag(sin a, sin(a + D)) maps
    diag(p0, p1) to unnormalized diagonal outputs with weights w_ij; the
    average entropy is sum_i lambda_i h2(w_i0 / lambda_i)
    = sum_ij -w_ij log w_ij + sum_i lambda_i log lambda_i. Broadcasts.
    """
    p1 = 1.0 - p0
    w10 = p0 * np.cos(alpha) ** 2
    w11 = p1 * np.cos(alpha + delta) ** 2
    w20 = p0 * np.sin(alpha) ** 2
    w21 = p1 * np.sin(alpha + delta) ** 2
    lam1, lam2 = w10 + w11, w20 + w21
    return (
        _neg_xlog2x(w10)
        + _neg_xlog2x(w11)
        + _neg_xlog2x(w20)
        + _neg_xlog2x(w21)
        - _neg_xlog2x(lam1)
        - _neg_xlog2x(lam2)
    )


def grid_minimum(delta, p0):
    """Minimum of the average entropy over alpha in [0, pi/2 - delta].

    A 512-point grid, refined by 257 points around its best cell. Vectorized
    over arrays of delta and p0 (one row per point).
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    p0 = np.broadcast_to(np.asarray(p0, dtype=float), delta.shape)
    out = np.empty(delta.shape)
    t = np.linspace(0.0, 1.0, GRID_POINTS)
    u = np.linspace(-1.0, 1.0, REFINE_POINTS)
    for lo in range(0, delta.size, GRID_CHUNK):
        d = delta[lo : lo + GRID_CHUNK, None]
        p = p0[lo : lo + GRID_CHUNK, None]
        hi = HALF_PI - d
        coarse = average_entropy(hi * t, d, p)
        best = np.argmin(coarse, axis=1)[:, None]
        step = hi / (GRID_POINTS - 1)
        fine_alpha = np.clip(best * step + u * step, 0.0, hi)
        fine = average_entropy(fine_alpha, d, p)
        out[lo : lo + GRID_CHUNK] = np.minimum(coarse.min(axis=1), fine.min(axis=1))
    return out


def point_failures(p0, delta, alpha, d, rate):
    """Per-point failures of rate-distortion points, one list per point.

    All arguments are arrays of one length (``p0`` may be a scalar). Every
    point must meet the distortion identity; interior points must not lie
    above the dense-grid minimum of the average entropy; at p0 = 1/2 the
    rate and the interior angle have closed forms.
    """
    delta, alpha, d, rate = (np.asarray(a, dtype=float) for a in (delta, alpha, d, rate))
    p0 = np.broadcast_to(np.asarray(p0, dtype=float), delta.shape)
    fails = [[] for _ in range(delta.size)]
    d_ref = 2.0 * p0 * (1.0 - p0) * (1.0 - np.cos(delta))
    interior = (delta > 0.0) & (delta < HALF_PI)
    isotropic = p0 == 0.5

    def flag(bad, gap, what):
        for i in np.flatnonzero(bad):
            fails[i].append(f"{what} off by {gap[i]:.3e}")

    gap = np.abs(d - d_ref)
    flag(~(gap <= DISTORTION_TOL), gap, "distortion identity")
    gap = np.abs(rate - h2(0.5 + np.sqrt(d_ref * (1.0 - d_ref))))
    flag(isotropic & ~(gap <= IDENTITY_TOL), gap, "p0=0.5 closed-form rate")
    gap = np.abs(alpha - (math.pi / 4 - delta / 2))
    flag(isotropic & interior & ~(gap <= IDENTITY_TOL), gap, "p0=0.5 root pi/4 - delta/2")
    excess = np.full(delta.shape, -np.inf)
    excess[interior] = rate[interior] - grid_minimum(delta[interior], p0[interior])
    flag(~(excess <= IDENTITY_TOL), excess, "rate above the dense-grid minimum")
    return fails


def curve_failures(p0, delta, alpha, d, rate):
    """Failures of one sweep at ``p0``: every point's checks, plus the sweep's.

    A sweep starts at delta = 0 with R = h2(p0) and its rate never increases.
    """
    rate = np.asarray(rate, dtype=float)
    fails = [f for point in point_failures(p0, delta, alpha, d, rate) for f in point]
    if np.any(np.diff(rate) > 0):
        fails.append(f"rate increases by up to {np.max(np.diff(rate)):.3e}")
    if delta[0] != 0.0 or not abs(rate[0] - float(h2(p0))) <= ENDPOINT_TOL:
        fails.append(f"R(0) = {rate[0]!r} differs from h2(p0) = {float(h2(p0))!r}")
    return fails


def report_failures(reports):
    """Failures of verification reports, given as dicts with a ``passed`` key."""
    return [
        f"suite {r.get('suite_name')} did not pass ({r.get('n_violations')} violations)"
        for r in reports
        if r.get("passed") is not True
    ]


def s1_failures(p0, theta, d, entropy):
    """Failures of an S1 sweep: the filter diag(cos t, sin t) recomputed here."""
    theta, d, entropy = (np.asarray(a, dtype=float) for a in (theta, d, entropy))
    p1 = 1.0 - p0
    c, s = np.cos(theta), np.sin(theta)
    weight = p0 * c**2 + p1 * s**2
    d_ref = 1.0 - (p0 * c + p1 * s) ** 2 / weight
    s_ref = h2(p0 * c**2 / weight)
    fails = []
    gap = max(np.max(np.abs(d - d_ref)), np.max(np.abs(entropy - s_ref)))
    if not gap <= IDENTITY_TOL:
        fails.append(f"S1 point off the filter formula by {gap:.3e}")
    if p0 == 0.5:
        gap = np.max(np.abs(entropy - h2(0.5 + np.sqrt(d_ref * (1.0 - d_ref)))))
        if not gap <= IDENTITY_TOL:
            fails.append(f"p0=0.5 S1 closed form off by {gap:.3e}")
    return fails


def stream_failures(p0, delta, record):
    """Failures of a simulate record: type-1 count within 6 sigma of n lambda1.

    lambda1 = p0 cos^2 a + p1 cos^2(a + D) is taken at the reported angle.
    """
    alpha = float(record["alpha"])
    n = int(record["n_samples"])
    lam1 = p0 * math.cos(alpha) ** 2 + (1.0 - p0) * math.cos(alpha + delta) ** 2
    sigma = math.sqrt(n * lam1 * (1.0 - lam1))
    off = abs(int(record["type1_count"]) - n * lam1)
    if off > STREAM_SIGMAS * sigma:
        return [f"type-1 count is {off / sigma:.1f} sigma from n lambda1"]
    return []


def parse_csv(text):
    """Columns of the CLI's CSV output as float arrays."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(header)}


def parse_record(text):
    """The CLI's ``key: value`` record as a dict of strings."""
    return dict(line.split(": ", 1) for line in text.strip().splitlines())


def cli_failures(command, p0, stdout, reference, returncode):
    """Failures of one CLI run.

    ``command`` is the argument list after the interpreter; ``reference`` is
    the stdout the same flags gave in warm-up, or None when this run is the
    warm-up itself. The content of the output is checked only on the
    reference, since every other run must reproduce it byte for byte.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    if reference is not None:
        return [] if stdout == reference else ["stdout differs from the warm-up run"]
    if command[:2] == ["curve", "r1"]:
        cols = parse_csv(stdout)
        return curve_failures(p0, cols["delta"], cols["alpha"], cols["d"], cols["R"])
    if command[:2] == ["curve", "s1"]:
        cols = parse_csv(stdout)
        return s1_failures(p0, cols["theta"], cols["d"], cols["S"])
    if command[0] == "verify":
        return report_failures(json.loads(stdout))
    if command[0] == "simulate":
        delta = float(command[command.index("--delta") + 1])
        return stream_failures(p0, delta, parse_record(stdout))
    raise ValueError(f"no check for command {command!r}")
