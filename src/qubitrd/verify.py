"""Monte Carlo and constructive verification suites.

Each suite samples randomized inputs from an explicitly seeded stream,
checks an inequality or identity on every trial, and returns a
:class:`VerificationReport`. Reports are deterministic given (seed, params);
any violating trial is recorded so a counterexample can be replayed rather
than lost. Curve-dominance suites compare against the exact rate curve
R1(d) (``RateCurveInterpolator``) with a violation tolerance of 1e-6;
algebraic identities use 1e-9 or tighter.

Every Monte Carlo suite draws and evaluates its trials in keyed blocks
(``_run_blocks``), so a report depends on (seed, trials) only, draws each
quantity for a whole block in one call, and keeps a few floats a trial. The
block suites zero-pad their Kraus sets into (chunk, 4, 2^n, 2^n) stacks
and score each stack in one call of ``quantum.average_entropies`` and
``quantum.block_distortions``. The perturbation suite draws nothing; it is
one array pass over its one fixed (delta, |x|, phase) grid
(``check_perturbation``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import quantum
from .errors import DomainError, check_integer, real_array
from .quantum import DensityMatrix, complex_normal, stinespring_kraus
from .ratedistortion import (
    ENDPOINT_CUTOFF,
    HALF_PI,
    SourceSpec,
    _optimal_alpha,
    _pair_figures,
    isotropic_s1,
    r1_curve_point,
)

CURVE_TOL = 1e-6
ALGEBRA_TOL = 1e-9
MAX_RECORDED_FAILURES = 20
# Every Monte Carlo suite draws and evaluates BLOCK_CHUNK trials at a time,
# each block from its own keyed stream, so BLOCK_CHUNK is part of what a
# seed draws. The block suites draw 1..MAX_KRAUS elements per trial,
# zero-padded to MAX_KRAUS; a block of 3-qubit trials then holds
# 256 x 4 x 8 x 8 complex entries (1 MB).
MAX_KRAUS = 4
BLOCK_CHUNK = 256
# The perturbation suite's one grid: 10 deltas inside (0, pi/2) and two
# magnitudes |x|, the second twice the first.
PERTURBATION_DELTAS = np.linspace(0.15, HALF_PI - 0.15, 10)
PERTURBATION_MAGNITUDES = np.array([0.01, 0.02])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite: trial counts, worst excess, and replay data.

    ``worst_violation`` is the largest amount by which the checked
    inequality was exceeded (negative values are margins); the suite passes
    iff no trial exceeded the tolerance.
    """

    suite_name: str
    n_trials: int
    n_violations: int
    worst_violation: float
    seed: int
    params: dict[str, Any]
    passed: bool
    tolerance: float
    failures: tuple[dict[str, Any], ...] = field(default=())


def _report(
    suite_name: str,
    seed: int,
    params: dict[str, Any],
    tolerance: float,
    excesses: np.ndarray,
    failures: list[dict[str, Any]],
) -> VerificationReport:
    excesses = np.asarray(excesses, dtype=float)
    n_violations = int(np.count_nonzero(excesses > tolerance))
    worst = _worst(excesses)
    return VerificationReport(
        suite_name=suite_name,
        n_trials=int(excesses.size),
        n_violations=n_violations,
        worst_violation=worst,
        seed=seed,
        params=params,
        passed=n_violations == 0 and worst <= tolerance,
        tolerance=tolerance,
        failures=tuple(failures[:MAX_RECORDED_FAILURES]),
    )


def _worst(values: np.ndarray) -> float:
    """The largest value; 0.0 for none (an empty run passes vacuously, and
    0.0 keeps the record JSON-serializable)."""
    return float(values.max()) if values.size else 0.0


def _run_blocks(n_trials: int, seed: int, tolerance: float, evaluate, joined=()):
    """Draw and evaluate a suite's trials in consecutive blocks of ``BLOCK_CHUNK``.

    Block b draws from its own stream ``np.random.default_rng((seed, b))``.
    ``evaluate(rng, count)`` draws and evaluates one block of ``count``
    trials; it returns their excesses and a dict of per-trial failure
    fields. A trial whose excess exceeds ``tolerance`` records a failure row:
    its global trial index and its entry of every field. Across blocks only
    the excesses and the fields named in ``joined`` are kept.

    Returns the excesses of all trials, the ``joined`` fields over all
    trials, and at most ``MAX_RECORDED_FAILURES`` failure rows.
    """
    check_integer("n_trials", n_trials, 0)
    check_integer("seed", seed, 0)
    excesses: list[np.ndarray] = [np.empty(0)]
    kept: dict[str, list[np.ndarray]] = {name: [] for name in joined}
    failures: list[dict[str, Any]] = []
    for block, start in enumerate(range(0, n_trials, BLOCK_CHUNK)):
        rng = np.random.default_rng((seed, block))
        excess, fields = evaluate(rng, min(BLOCK_CHUNK, n_trials - start))
        excesses.append(excess)
        for name in joined:
            kept[name].append(fields[name])
        flagged = np.flatnonzero(excess > tolerance)
        for i in flagged[: MAX_RECORDED_FAILURES - len(failures)]:
            row = {key: values[i].tolist() for key, values in fields.items()}
            failures.append({"trial": start + int(i), **row})
    joined_fields = {
        name: np.concatenate(parts) if parts else np.empty(0)
        for name, parts in kept.items()
    }
    return np.concatenate(excesses), joined_fields, failures


class RateCurveInterpolator:
    """The exact rate curve R1(d) of one source, over arrays of distortions.

    A distortion maps back to its angle gap in closed form,
    delta = 2 arcsin(sqrt(d / (2 d_max))), after clipping to [0, d_max], and
    the rate is the pair's average entropy at the closed-form optimal angle:
    ``_optimal_alpha`` and ``_pair_figures`` over the whole array, the two
    kernels a sweep runs on its interior rows. ``_pair_figures`` takes R's
    two entropies and r's in one unchecked h2 call over their stack, so the
    r that this call drops costs a third of that call, not a call of its
    own. A delta within ``ENDPOINT_CUTOFF`` of 0 or pi/2 takes that end's
    rate from ``r1_curve_point``, so h2(p0) at d <= 0 and exactly 0 from
    d_max on. A NaN or one that is not real raises ``DomainError``.

    The class interpolates nothing. Its name, ``__init__(src)`` and the
    cached ``rate_curve_interpolator`` that builds it are kept for the
    benchmark in ``perfbench/`` alone, which reads them from this module
    (``qubitrd`` does not export them): its warm-up calls
    ``rate_curve_interpolator``, its traced run clears and reads that
    cache and hooks ``__init__``, and it divides by the number of builds,
    so the dominance suites build the object through
    ``rate_curve_interpolator``. ROADMAP item 10 frees the names.
    """

    def __init__(self, src: SourceSpec):
        self.src = src
        self.d_max = src.d_max
        self._end_rates = (r1_curve_point(0.0, src).R, r1_curve_point(HALF_PI, src).R)

    def __call__(self, d):
        d = real_array(d, "distortion must be a real number, got {}")
        if np.isnan(d).any():
            raise DomainError("distortion must be a number, got nan")
        d = np.clip(d, 0.0, self.d_max)
        delta = 2.0 * np.arcsin(np.sqrt(d / (2.0 * self.d_max)))
        low = delta <= ENDPOINT_CUTOFF
        high = delta >= HALF_PI - ENDPOINT_CUTOFF
        # an interior delta where the end rates go, so no 0/0 is taken
        delta = np.where(low | high, 1.0, delta)
        p0 = self.src.p0
        rate, _, _ = _pair_figures(_optimal_alpha(delta, p0), delta, p0)
        return np.where(low, self._end_rates[0], np.where(high, self._end_rates[1], rate))


@functools.lru_cache(maxsize=8)
def rate_curve_interpolator(src: SourceSpec) -> RateCurveInterpolator:
    return RateCurveInterpolator(src)


def check_lemma1(n_trials: int, dim: int, seed: int) -> VerificationReport:
    """Trace bound |tr(U D V L)| <= tr(D L) for ordered positive diagonals.

    D and L are random positive diagonal matrices with descending entries;
    U, V are independent Haar unitaries (one-element Stinespring draws).
    """
    check_integer("dim", dim, 2, 8)

    def evaluate(rng, count):
        u = stinespring_kraus(rng, count, dim, 1)[:, 0]
        v = stinespring_kraus(rng, count, dim, 1)[:, 0]
        dvals = np.sort(rng.uniform(0.05, 2.0, (count, dim)), axis=1)[:, ::-1]
        lvals = np.sort(rng.uniform(0.05, 2.0, (count, dim)), axis=1)[:, ::-1]
        lhs = np.abs(np.einsum("nij,nj,nji,ni->n", u, dvals, v, lvals))
        rhs = np.einsum("ni,ni->n", dvals, lvals)
        return lhs - rhs, {"lhs": lhs, "rhs": rhs}

    excess, _, failures = _run_blocks(n_trials, seed, ALGEBRA_TOL, evaluate)
    return _report("lemma1", seed, {"dim": dim}, ALGEBRA_TOL, excess, failures)


def check_lemma2(n_trials: int, dim: int, k: int, seed: int) -> VerificationReport:
    """Sum bound sum_i |tr(Y_i D)|^2 <= tr(D)^2 for complete {Y_i}, positive D."""
    check_integer("dim", dim, 2, 8)
    check_integer("k", k, 1, 4)

    def evaluate(rng, count):
        y = stinespring_kraus(rng, count, dim, k)
        g = complex_normal(rng, (count, dim, dim))
        dmat = g @ g.conj().transpose(0, 2, 1)
        traces = np.einsum("nkij,nji->nk", y, dmat)
        lhs = np.sum(np.abs(traces) ** 2, axis=1)
        rhs = np.einsum("nii->n", dmat).real ** 2
        return lhs - rhs, {"lhs": lhs, "rhs": rhs}

    excess, _, failures = _run_blocks(n_trials, seed, ALGEBRA_TOL, evaluate)
    return _report(
        "lemma2", seed, {"dim": dim, "k": k}, ALGEBRA_TOL, excess, failures
    )


def check_theorem1(n_trials: int, seed: int, src: SourceSpec) -> VerificationReport:
    """Replacing a 2x2 operation by its ordered positive diagonal part.

    For random complex A, the recipe takes the descending singular values of
    A diag(sqrt(p)) and divides them back by sqrt(p), producing a positive
    diagonal D that commutes with the source. The suite checks that D keeps
    the output entropy (1e-8) and the occurrence probability (1e-9) while
    never increasing the distortion (1e-9); the commutator with the source
    must vanish (1e-10). ``worst_violation`` is the worst excess over each
    condition's own tolerance, so the suite tolerance is 0. It reads -1e-10
    on every run: D and the source are diagonal by construction, so the
    commutator excess is exactly 0 - 1e-10, above every other excess. The
    per-condition ``worst_*`` params carry what the draws did. The A and D
    of a block form one stack of one-element sets, whose weights W and
    distortions come from ``quantum._distortion_terms`` and whose entropies
    are ``quantum.average_entropies`` divided by W.
    """
    p0, p1 = src.p0, src.p1
    sq = np.array([math.sqrt(p0), math.sqrt(p1)])
    rho = np.diag([p0, p1]).astype(complex)
    tolerances = {
        "entropy_gap": 1e-8,
        "weight_gap": 1e-9,
        "distortion_increase": 1e-9,
        "commutator": 1e-10,
    }

    def evaluate(rng, count):
        a = complex_normal(rng, (count, 2, 2))
        svals = np.linalg.svd(a * sq, compute_uv=False)
        d_mats = np.zeros((count, 2, 2), dtype=complex)
        d_mats[:, [0, 1], [0, 1]] = svals / sq
        # every A, then every D, as one-element sets
        stack = np.concatenate([a, d_mats])[:, np.newaxis]
        squares, weight = quantum._distortion_terms(stack, rho)
        dist = squares / weight
        entropy = quantum.average_entropies(stack, rho) / weight
        comm = d_mats @ rho - rho @ d_mats
        fields = {
            "entropy_gap": np.abs(entropy[:count] - entropy[count:]),
            "weight_gap": np.abs(weight[:count] - weight[count:]),
            "distortion_increase": dist[count:] - dist[:count],
            "commutator": np.max(np.abs(comm), axis=(1, 2)),
        }
        excess = np.maximum.reduce(
            [fields[name] - tol for name, tol in tolerances.items()]
        )
        return excess, fields

    excess, worst, failures = _run_blocks(n_trials, seed, 0.0, evaluate, tolerances)
    params = {"p0": p0}
    params.update((f"worst_{name}", _worst(w)) for name, w in worst.items())
    return _report("theorem1", seed, params, 0.0, excess, failures)


def check_perturbation(src: SourceSpec, seed: int) -> VerificationReport:
    """Off-diagonal perturbations of the optimal pair at fixed distortion.

    Around each solved diagonal optimum, the pair is deformed by a complex
    off-diagonal amplitude x while two weight functions of |x| keep the
    operation trace preserving and the distortion fixed. The suite verifies
    that the average output entropy never drops below the diagonal optimum
    (tolerance 1e-9).

    The grid is fixed: the 10 deltas of ``PERTURBATION_DELTAS``, the two
    magnitudes |x| = 0.01 and 0.02 of ``PERTURBATION_MAGNITUDES``, and 8
    phases. Scaling data is recorded in the params: entropy growth per
    (delta, |x|, phase) with the growth ratios of |x| = 0.02 over 0.01, and
    the corresponding weight-function shifts with their ratios. The weight
    shifts scale quadratically in |x| (ratio near 4). The entropy growth
    does not. Its |x|^2 coefficient tracks the entropy's slope in alpha,
    dS/dalpha of the base pair, as the ``ratedistortion`` module docstring
    gives it: it has the opposite sign and vanishes where the slope does.
    So at the optimal angle the growth is quartic (ratio near 16); away
    from it the growth of small |x| is quadratic (ratio near 4).

    The suite is one array pass. The angles at every delta come from one
    call of the closed form over the array (``_optimal_alpha``), and the
    weights over the whole (delta, |x|) grid in closed form, as a point of
    a chord that shrinks as |x| grows; a cell whose |x| exceeds the
    unperturbed chord's half-length h is infeasible, is masked out and
    recorded. The base pairs and the pairs of every feasible
    (delta, |x|, phase) form one stack of Kraus sets, over which the
    average entropies, the distortion drift and the completeness check are
    each taken in one call, and the report rows are read off the grid by
    index. All 8 phases are still evaluated and recorded, although the
    growth depends on |x| only (their growths agree to within 3e-11
    relative): they check that the phase of x is immaterial. Growth ratios
    are taken only where the smaller growth exceeds 1e-12, so round-off
    (every growth at p0 = 1/2) gives none. A source with no feasible cell
    (from p0 0.99 on) raises ``DomainError``, whose message names the
    largest h (0.00996 at p0 0.99). The suite draws nothing, but its seed
    is recorded, so it must be a non-negative integer like every suite's.
    """
    check_integer("seed", seed, 0)
    deltas, mags = PERTURBATION_DELTAS, PERTURBATION_MAGNITUDES
    p0, p1 = src.p0, src.p1
    rho = src.density()
    phases = [2.0 * math.pi * i / 8 for i in range(8)]
    units = np.array([complex(math.cos(phase), math.sin(phase)) for phase in phases])

    # one row per delta: the diagonal optimum and its mixture weights
    delta = deltas[:, np.newaxis]
    alpha = _optimal_alpha(deltas, p0)[:, np.newaxis]
    c1, c2 = np.cos(alpha), np.cos(alpha + delta)
    s1, s2 = np.sin(alpha), np.sin(alpha + delta)
    d_target = src._distortion(delta)
    f2 = 1.0 - d_target
    t1, t2 = p0 * c1 + p1 * c2, p0 * s1 + p1 * s2
    theta = np.arctan2(t2, t1)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    lam0, mu0 = p0 * c1 / t1, p0 * s1 / t2
    half_k = 0.5 * ((p0**2 - p1**2) / f2 + 1.0)

    # completeness puts (lam cos, mu sin) on the circle of squared radius
    # p0^2/f2 - |x|^2 and on the line through half_k (cos, sin) normal to
    # it; as |x| grows the chord shrinks about that foot, so a cell is
    # feasible iff |x| <= h, the unperturbed point's distance from the foot
    h_sq = ((lam0 - half_k) * cos_t) ** 2 + ((mu0 - half_k) * sin_t) ** 2
    feasible = mags**2 <= h_sq
    shrink = np.sqrt(np.where(feasible, 1.0 - mags**2 / h_sq, 0.0))
    lam = half_k + (lam0 - half_k) * shrink
    mu = half_k + (mu0 - half_k) * shrink
    lam_shift, mu_shift = lam - lam0, mu - mu0

    # the base pairs, then 8 phases of every feasible cell, as one stack
    i, j = np.nonzero(feasible)
    if not i.size:
        h = _worst(np.sqrt(h_sq))
        raise DomainError(
            f"no (delta, |x|) cell of the grid is feasible at p0 = {p0}: "
            f"the largest feasible |x| is {h:.3g}"
        )
    n_base, n_cells = deltas.size, i.size
    stack = np.zeros((n_base + 8 * n_cells, 2, 2, 2), dtype=complex)
    stack[:n_base, 0, [0, 1], [0, 1]] = np.hstack([c1, c2])
    stack[:n_base, 1, [0, 1], [0, 1]] = np.hstack([s1, s2])
    # A1 = f [[lam c/p0, x s/p1], [x* s/p0, (1 - lam) c/p1]] and
    # A2 = f [[mu s/p0, -x c/p1], [-x* c/p0, (1 - mu) s/p1]], per phase
    pairs = stack[n_base:].reshape(n_cells, 8, 2, 2, 2)
    x = mags[j, np.newaxis] * units
    lam_c, mu_c = lam[i, j, np.newaxis], mu[i, j, np.newaxis]
    c, s = cos_t[i], sin_t[i]
    pairs[..., 0, 0, 0] = lam_c * c / p0
    pairs[..., 0, 0, 1] = x * s / p1
    pairs[..., 0, 1, 0] = x.conj() * s / p0
    pairs[..., 0, 1, 1] = (1.0 - lam_c) * c / p1
    pairs[..., 1, 0, 0] = mu_c * s / p0
    pairs[..., 1, 0, 1] = -x * c / p1
    pairs[..., 1, 1, 0] = -x.conj() * c / p0
    pairs[..., 1, 1, 1] = (1.0 - mu_c) * s / p1
    pairs *= np.sqrt(f2[i])[..., np.newaxis, np.newaxis, np.newaxis]

    sbar = quantum.average_entropies(stack, rho)
    distortions = quantum.block_distortions(stack, rho)[n_base:].reshape(n_cells, 8)
    drift = np.abs(distortions - d_target[i])
    cell_growth = sbar[n_base:].reshape(n_cells, 8) - sbar[i, np.newaxis]
    # by (delta, |x|, phase); NaN in infeasible cells
    growth = np.full(feasible.shape + (8,), np.nan)
    growth[feasible] = cell_growth

    dl, ml = deltas.tolist(), mags.tolist()
    cells = list(zip(i.tolist(), j.tolist()))
    growths = [
        {"delta": dl[a], "magnitude": ml[b], "phase": phase, "growth": g}
        for (a, b), row in zip(cells, cell_growth.tolist())
        for phase, g in zip(phases, row)
    ]
    failures = [dict(g) for g in growths if -g["growth"] > ALGEBRA_TOL]
    weight_shifts = [
        {"delta": dl[a], "magnitude": ml[b], "lambda_shift": ls, "mu_shift": ms}
        for (a, b), ls, ms in zip(
            cells, lam_shift[feasible].tolist(), mu_shift[feasible].tolist()
        )
    ]
    infeasible = [
        {"delta": dl[a], "magnitude": ml[b]} for a, b in zip(*np.nonzero(~feasible))
    ]

    # ratios of |x| = 0.02 (column 1) over |x| = 0.01 (column 0)
    rows, cols = np.nonzero((growth[:, 0] > 1e-12) & feasible[:, 1, np.newaxis])
    ratio = growth[rows, 1, cols] / growth[rows, 0, cols]
    ratios = [
        {"delta": dl[d], "phase": phases[k], "ratio": r}
        for d, k, r in zip(rows.tolist(), cols.tolist(), ratio.tolist())
    ]
    rows = np.flatnonzero(feasible[:, 0] & feasible[:, 1] & (lam_shift[:, 0] != 0))
    shift_ratios = [
        {"delta": dl[d], "lambda_ratio": lr, "mu_ratio": mr}
        for d, lr, mr in zip(
            rows.tolist(),
            (lam_shift[rows, 1] / lam_shift[rows, 0]).tolist(),
            (mu_shift[rows, 1] / mu_shift[rows, 0]).tolist(),
        )
    ]

    params = {
        "p0": p0,
        "deltas": dl,
        "magnitudes": ml,
        "n_phases": len(phases),
        "growths": growths,
        "growth_ratios": ratios,
        "weight_shifts": weight_shifts,
        "weight_shift_ratios": shift_ratios,
        "infeasible_points": infeasible,
        "worst_distortion_drift": float(drift.max()),
    }
    return _report(
        "perturbation", seed, params, ALGEBRA_TOL, -cell_growth.ravel(), failures
    )


def random_channel_search(
    src: SourceSpec, n_trials: int, seed: int
) -> VerificationReport:
    """Random two-element channels never beat the rate curve.

    Samples trace-preserving k=2 single-qubit channels and scores the whole
    stack with the shared kernels: ``quantum.block_distortions`` (n = 1,
    which also checks that every set is trace preserving) for the
    distortion and ``quantum.average_entropies`` for the average output
    entropy. The entropy is checked against the exact curve R1(d), and the
    worst undershoot is reported.
    """
    curve = rate_curve_interpolator(src)
    rho = src.density()

    def evaluate(rng, count):
        kraus = stinespring_kraus(rng, count, 2, 2)
        sbar = quantum.average_entropies(kraus, rho)
        d = quantum.block_distortions(kraus, rho)
        return curve(d) - sbar, {"d": d, "sbar": sbar}

    excess, _, failures = _run_blocks(n_trials, seed, CURVE_TOL, evaluate)
    return _report("search", seed, {"p0": src.p0}, CURVE_TOL, excess, failures)


def check_theorem2_blocks(
    src: SourceSpec, n_trials: int, seed: int
) -> VerificationReport:
    """Diagonal two-qubit operations never beat the single-qubit rate curve.

    Each trial draws k <= 4 positive diagonal 4x4 elements, right-normalizes
    them into a trace-preserving set, and compares the per-qubit average
    output entropy against the exact curve R1(d) at the per-qubit block
    distortion.

    A k = 1 draw normalizes to the identity, which sits on the curve at
    d = 0, so ``worst_violation`` reads about 0 on any run that draws one;
    the ``worst_violation_k2`` param is the worst excess over the trials
    with k >= 2 (0.0 if there are none).
    """
    curve = rate_curve_interpolator(src)
    rho1 = src.density()
    rho2 = np.kron(rho1.mat, rho1.mat)

    def evaluate(rng, count):
        ks = rng.integers(1, MAX_KRAUS + 1, count)
        diags = rng.uniform(0.05, 1.0, (count, MAX_KRAUS, 4))
        diags[np.arange(MAX_KRAUS) >= ks[:, np.newaxis]] = 0.0
        diags /= np.sqrt((diags**2).sum(axis=1))[:, np.newaxis, :]
        kraus = diags[..., np.newaxis] * np.eye(4, dtype=complex)
        rate = 0.5 * quantum.average_entropies(kraus, rho2)
        d = quantum.block_distortions(kraus, rho1)
        diagonals = [row[:k] for row, k in zip(diags, ks)]
        fields = {"k": ks, "d": d, "rate": rate, "diagonals": diagonals}
        return curve(d) - rate, fields

    excess, joined, failures = _run_blocks(n_trials, seed, CURVE_TOL, evaluate, ("k",))
    params = {"p0": src.p0, "worst_violation_k2": _worst(excess[joined["k"] >= 2])}
    return _report("blocks", seed, params, CURVE_TOL, excess, failures)


def check_theorem3_isotropic(
    n_qubits: int, n_trials: int, seed: int
) -> VerificationReport:
    """General operations on the unbiased source never beat the closed form.

    Samples fully general trace-preserving channels (k <= 4) on blocks of
    2 or 3 unbiased qubits and checks the per-qubit average output entropy
    against h2(1/2 + sqrt(d (1 - d))) at the per-qubit block distortion.
    """
    check_integer("n_qubits", n_qubits, 2, 3)
    dim = 2**n_qubits
    rho1 = DensityMatrix(np.eye(2, dtype=complex) / 2)

    def evaluate(rng, count):
        ks = rng.integers(1, MAX_KRAUS + 1, count)
        kraus = np.zeros((count, MAX_KRAUS, dim, dim), dtype=complex)
        for k in range(1, MAX_KRAUS + 1):
            trials = np.flatnonzero(ks == k)
            kraus[trials, :k] = stinespring_kraus(rng, trials.size, dim, k)
        rate = quantum.average_entropies(kraus, np.eye(dim) / dim) / n_qubits
        d = quantum.block_distortions(kraus, rho1)
        return _isotropic_reference(d) - rate, {"k": ks, "d": d, "rate": rate}

    excess, _, failures = _run_blocks(n_trials, seed, CURVE_TOL, evaluate)
    return _report(
        "isotropic", seed, {"n_qubits": n_qubits}, CURVE_TOL, excess, failures
    )


def _isotropic_reference(d: np.ndarray) -> np.ndarray:
    """``isotropic_s1`` over a stack of distortions, and 0 beyond d = 1/2."""
    return np.where(d <= 0.5, isotropic_s1(np.clip(d, 0.0, 0.5)), 0.0)


SUITE_NAMES = (
    "lemma1",
    "lemma2",
    "theorem1",
    "perturbation",
    "search",
    "blocks",
    "isotropic",
)


def run_suite(
    name: str, src: SourceSpec, trials: int, seed: int
) -> list[VerificationReport]:
    """Run one named suite (or ``all``) with its documented default shape.

    Not every suite reads every argument: ``lemma1``, ``lemma2`` and
    ``isotropic`` ignore ``src``, and ``perturbation`` runs its one grid
    (``PERTURBATION_DELTAS`` by ``PERTURBATION_MAGNITUDES`` by 8 phases,
    160 trials where every cell is feasible), though ``trials`` is checked
    for it as for every suite.
    """
    check_integer("n_trials", trials, 0)
    if name == "all":
        reports = []
        for suite in SUITE_NAMES:
            reports.extend(run_suite(suite, src, trials, seed))
        return reports
    if name == "lemma1":
        return [check_lemma1(trials, dim, seed) for dim in (2, 4, 8)]
    if name == "lemma2":
        return [check_lemma2(trials, dim, 4, seed) for dim in (2, 4, 8)]
    if name == "theorem1":
        return [check_theorem1(trials, seed, src)]
    if name == "perturbation":
        return [check_perturbation(src, seed)]
    if name == "search":
        return [random_channel_search(src, trials, seed)]
    if name == "blocks":
        return [check_theorem2_blocks(src, trials, seed)]
    if name == "isotropic":
        return [check_theorem3_isotropic(2, trials, seed)]
    raise DomainError(f"unknown suite {name!r}")
