"""Monte Carlo and constructive verification suites.

Each suite samples randomized inputs from an explicitly seeded stream,
checks an inequality or identity on every trial, and returns a
:class:`VerificationReport`. Reports are deterministic given (seed, params);
any violating trial is recorded so a counterexample can be replayed rather
than lost. Curve-dominance suites compare against a monotone cubic
interpolant of the swept rate curve, lowered by its measured interpolation
error, with a violation tolerance of 1e-6; algebraic identities use 1e-9 or
tighter.

No suite evaluates one channel at a time. The block suites draw each
trial's k and Kraus elements in turn, exactly as a trial-by-trial loop
would, into zero-padded (chunk, 4, 2^n, 2^n) stacks of ``BLOCK_CHUNK``
trials, then take the rates (``quantum.average_entropies``), the per-qubit
block distortions (``quantum.block_distortions``, which also checks that
every set is trace preserving) and the reference curve over each stack.
The perturbation and search suites evaluate all of their Kraus sets as one
stack the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import quantum
from .errors import DomainError
from .quantum import DensityMatrix, stinespring_kraus
from .ratedistortion import (
    HALF_PI,
    SourceSpec,
    KrausPair,
    _h2_arr,
    solve_alpha,
    sweep_curve,
)
from .records import record_to_text

CURVE_TOL = 1e-6
ALGEBRA_TOL = 1e-9
MAX_RECORDED_FAILURES = 20
# The block suites draw 1..MAX_KRAUS elements per trial and evaluate their
# trials in stacks of BLOCK_CHUNK, zero-padded to MAX_KRAUS elements; a
# chunk of 3-qubit trials then holds 256 x 4 x 8 x 8 complex entries (1 MB).
MAX_KRAUS = 4
BLOCK_CHUNK = 256
# Interpolation nodes of the dominance reference curve.
INTERPOLATION_NODES = 512


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

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite_name": self.suite_name,
            "n_trials": self.n_trials,
            "n_violations": self.n_violations,
            "worst_violation": self.worst_violation,
            "seed": self.seed,
            "params": self.params,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "failures": list(self.failures),
        }

    def to_text(self) -> str:
        return record_to_text(list(self.to_dict().items()))


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
    # an empty run passes vacuously; 0.0 keeps the record JSON-serializable
    worst = float(excesses.max()) if excesses.size else 0.0
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


class RateCurveInterpolator:
    """Monotone cubic interpolant of R1(d) with a measured error bound.

    One sweep at ``2 INTERPOLATION_NODES - 1`` deltas supplies both: its even
    points are the interpolation nodes, and the bound is the worst gap
    between the interpolant and the odd points, the delta midpoints of the
    nodes. ``reference`` returns the interpolant lowered by that bound, which
    is what dominance checks compare against. Beyond d_max the curve is
    identically zero.
    """

    def __init__(self, src: SourceSpec):
        points = sweep_curve(src, 2 * INTERPOLATION_NODES - 1)
        self.src = src
        self.d_max = src.d_max
        d = np.array([p.d for p in points])
        rate = np.array([p.R for p in points])
        self._pchip = PchipInterpolator(d[::2], rate[::2], extrapolate=False)
        self.error_bound = float(np.max(np.abs(self._pchip(d[1::2]) - rate[1::2])))

    def __call__(self, d):
        d = np.clip(np.asarray(d, dtype=float), 0.0, self.d_max)
        return self._pchip(d)

    def reference(self, d):
        """Lower confidence curve used by dominance checks."""
        return self(d) - self.error_bound


@functools.lru_cache(maxsize=8)
def rate_curve_interpolator(src: SourceSpec) -> RateCurveInterpolator:
    return RateCurveInterpolator(src)


def check_lemma1(n_trials: int, dim: int, seed: int) -> VerificationReport:
    """Trace bound |tr(U D V L)| <= tr(D L) for ordered positive diagonals.

    D and L are random positive diagonal matrices with descending entries;
    U, V are independent Haar unitaries (one-element Stinespring draws).
    """
    if not 2 <= dim <= 8:
        raise DomainError(f"dim must lie in 2..8, got {dim}")
    rng = np.random.default_rng(seed)
    u = stinespring_kraus(rng, n_trials, dim, 1)[:, 0]
    v = stinespring_kraus(rng, n_trials, dim, 1)[:, 0]
    dvals = np.sort(rng.uniform(0.05, 2.0, (n_trials, dim)), axis=1)[:, ::-1]
    lvals = np.sort(rng.uniform(0.05, 2.0, (n_trials, dim)), axis=1)[:, ::-1]
    lhs = np.abs(np.einsum("nij,nj,nji,ni->n", u, dvals, v, lvals))
    rhs = np.einsum("ni,ni->n", dvals, lvals)
    excess = lhs - rhs
    failures = [
        {"trial": int(i), "lhs": float(lhs[i]), "rhs": float(rhs[i])}
        for i in np.flatnonzero(excess > ALGEBRA_TOL)
    ]
    return _report(
        "lemma1",
        seed,
        {"dim": dim},
        ALGEBRA_TOL,
        excess,
        failures,
    )


def check_lemma2(n_trials: int, dim: int, k: int, seed: int) -> VerificationReport:
    """Sum bound sum_i |tr(Y_i D)|^2 <= tr(D)^2 for complete {Y_i}, positive D."""
    if not 2 <= dim <= 8:
        raise DomainError(f"dim must lie in 2..8, got {dim}")
    if not 1 <= k <= 4:
        raise DomainError(f"k must lie in 1..4, got {k}")
    rng = np.random.default_rng(seed)
    y = stinespring_kraus(rng, n_trials, dim, k)
    g = rng.standard_normal((n_trials, dim, dim)) + 1j * rng.standard_normal(
        (n_trials, dim, dim)
    )
    dmat = g @ g.conj().transpose(0, 2, 1)
    traces = np.einsum("nkij,nji->nk", y, dmat)
    lhs = np.sum(np.abs(traces) ** 2, axis=1)
    rhs = np.einsum("nii->n", dmat).real ** 2
    excess = lhs - rhs
    failures = [
        {"trial": int(i), "lhs": float(lhs[i]), "rhs": float(rhs[i])}
        for i in np.flatnonzero(excess > ALGEBRA_TOL)
    ]
    return _report(
        "lemma2",
        seed,
        {"dim": dim, "k": k},
        ALGEBRA_TOL,
        excess,
        failures,
    )


def check_theorem1(n_trials: int, seed: int, src: SourceSpec) -> VerificationReport:
    """Replacing a 2x2 operation by its ordered positive diagonal part.

    For random complex A, the recipe takes the descending singular values of
    A diag(sqrt(p)) and divides them back by sqrt(p), producing a positive
    diagonal D that commutes with the source. The suite checks that D keeps
    the output entropy (1e-8) and the occurrence probability (1e-9) while
    never increasing the distortion (1e-9); the commutator with the source
    must vanish (1e-10). ``worst_violation`` is the worst excess over each
    condition's own tolerance, so the suite tolerance is 0.
    """
    p0, p1 = src.p0, src.p1
    sq = np.array([math.sqrt(p0), math.sqrt(p1)])
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_trials, 2, 2)) + 1j * rng.standard_normal(
        (n_trials, 2, 2)
    )
    b = a * sq[np.newaxis, np.newaxis, :]
    svals = np.linalg.svd(b, compute_uv=False)
    dvals = svals / sq[np.newaxis, :]

    out_a = b @ b.conj().transpose(0, 2, 1)
    eigs = np.linalg.eigvalsh(out_a)
    lam_a = eigs.sum(axis=1)
    s_a = _h2_arr(np.clip(eigs[:, 1] / lam_a, 0.0, 1.0))
    lam_d = (svals**2).sum(axis=1)
    s_d = _h2_arr(np.clip(svals[:, 0] ** 2 / lam_d, 0.0, 1.0))

    tr_a = p0 * a[:, 0, 0] + p1 * a[:, 1, 1]
    dist_a = 1.0 - np.abs(tr_a) ** 2 / lam_a
    tr_d = p0 * dvals[:, 0] + p1 * dvals[:, 1]
    dist_d = 1.0 - tr_d**2 / lam_d

    rho = np.diag([p0, p1]).astype(complex)
    d_mats = np.zeros((n_trials, 2, 2), dtype=complex)
    d_mats[:, 0, 0] = dvals[:, 0]
    d_mats[:, 1, 1] = dvals[:, 1]
    comm = d_mats @ rho - rho @ d_mats
    comm_max = np.max(np.abs(comm), axis=(1, 2))

    entropy_excess = np.abs(s_a - s_d) - 1e-8
    weight_excess = np.abs(lam_a - lam_d) - 1e-9
    distortion_excess = (dist_d - dist_a) - 1e-9
    commutator_excess = comm_max - 1e-10
    excess = np.maximum.reduce(
        [entropy_excess, weight_excess, distortion_excess, commutator_excess]
    )
    failures = [
        {
            "trial": int(i),
            "entropy_gap": float(abs(s_a[i] - s_d[i])),
            "weight_gap": float(abs(lam_a[i] - lam_d[i])),
            "distortion_increase": float(dist_d[i] - dist_a[i]),
            "commutator": float(comm_max[i]),
        }
        for i in np.flatnonzero(excess > 0.0)
    ]
    params = {
        "p0": p0,
        "worst_entropy_gap": float(np.abs(s_a - s_d).max()),
        "worst_weight_gap": float(np.abs(lam_a - lam_d).max()),
        "worst_distortion_increase": float((dist_d - dist_a).max()),
        "worst_commutator": float(comm_max.max()),
    }
    return _report("theorem1", seed, params, 0.0, excess, failures)


def _solve_perturbation_mixture(
    cos2: float, sin2: float, k_lin: float, radius: float, lam0: float
) -> tuple[float, float] | None:
    """Solve the two weight constraints for (lam, mu) at one |x|.

    Returns None when the quadratic has no real solution. Of the two roots
    the one continuous with the unperturbed weights is returned.
    """
    a_q = cos2 / sin2
    b_q = -k_lin * cos2 / sin2
    c_q = k_lin**2 / (4.0 * sin2) - radius
    disc = b_q**2 - 4.0 * a_q * c_q
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    candidates = [(-b_q - root) / (2 * a_q), (-b_q + root) / (2 * a_q)]
    lam = min(candidates, key=lambda x: abs(x - lam0))
    mu = (k_lin - 2.0 * lam * cos2) / (2.0 * sin2)
    return lam, mu


def check_perturbation(
    delta_grid,
    x_magnitudes,
    src: SourceSpec,
    seed: int,
) -> VerificationReport:
    """Off-diagonal perturbations of the optimal pair at fixed distortion.

    Around each solved diagonal optimum, the pair is deformed by a complex
    off-diagonal amplitude x while two weight functions of |x| keep the
    operation trace preserving and the distortion fixed. The suite verifies
    that the average output entropy never drops below the diagonal optimum
    (tolerance 1e-9).

    Scaling data is recorded in the params: entropy growth per
    (delta, |x|, phase) with the growth ratios between two magnitudes, and
    the corresponding weight-function shifts with their ratios. The weight
    shifts scale quadratically in |x| (ratio near 4 for magnitudes 2x
    apart). The entropy growth does not. Its |x|^2 coefficient tracks the
    stationarity residual dS/dalpha of the base pair: it has the opposite
    sign and vanishes where the residual does. So at the optimal angle the
    growth is quartic (ratio near 16); away from it the growth of small |x|
    is quadratic (ratio near 4).

    The base pairs and the pairs of every (delta, |x|, phase) form one
    stack of Kraus sets, over which the average entropies, the distortion
    drift and the completeness check are each taken in one call. All 8
    phases are still evaluated and recorded, although the growth depends on
    |x| only (their growths agree to about 3e-9 relative): they check that
    the phase of x is immaterial.
    """
    mags = [float(m) for m in x_magnitudes]
    if any(m < 0 or m > 0.05 for m in mags):
        raise DomainError("perturbation magnitudes must lie in [0, 0.05]")
    p0, p1 = src.p0, src.p1
    rho = src.density()
    phases = [2.0 * math.pi * i / 8 for i in range(8)]
    units = np.array([complex(math.cos(phase), math.sin(phase)) for phase in phases])

    weight_shifts: list[dict[str, Any]] = []
    infeasible: list[dict[str, Any]] = []
    base_pairs = []
    perturbed = []
    # per perturbed pair: (delta, |x|, phase), its base pair, its distortion
    keys: list[tuple[float, float, float]] = []
    base_index: list[int] = []
    targets: list[float] = []

    for delta in delta_grid:
        delta = float(delta)
        alpha = solve_alpha(delta, src)
        base = KrausPair.from_angles(alpha, delta)
        base_pairs.append((base.a1, base.a2))
        d_target = 2.0 * p0 * p1 * (1.0 - math.cos(delta))
        f2 = 1.0 - d_target
        f = math.sqrt(f2)
        t1 = p0 * math.cos(alpha) + p1 * math.cos(alpha + delta)
        t2 = p0 * math.sin(alpha) + p1 * math.sin(alpha + delta)
        theta = math.atan2(t2, t1)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        cos2, sin2 = cos_t**2, sin_t**2
        lam0 = p0 * math.cos(alpha) / t1
        mu0 = p0 * math.sin(alpha) / t2
        k_lin = (p0**2 - p1**2) / f2 + 1.0

        for mag in mags:
            solved = _solve_perturbation_mixture(
                cos2, sin2, k_lin, p0**2 / f2 - mag**2, lam0
            )
            if solved is None:
                infeasible.append({"delta": delta, "magnitude": mag})
                continue
            lam, mu = solved
            weight_shifts.append(
                {
                    "delta": delta,
                    "magnitude": mag,
                    "lambda_shift": lam - lam0,
                    "mu_shift": mu - mu0,
                }
            )
            # A1 = f [[lam c/p0, x s/p1], [x* s/p0, (1 - lam) c/p1]] and
            # A2 = f [[mu s/p0, -x c/p1], [-x* c/p0, (1 - mu) s/p1]], per phase
            x = mag * units
            pairs = np.empty((len(x), 2, 2, 2), dtype=complex)
            pairs[:, 0, 0, 0] = lam * cos_t / p0
            pairs[:, 0, 0, 1] = x * sin_t / p1
            pairs[:, 0, 1, 0] = x.conj() * sin_t / p0
            pairs[:, 0, 1, 1] = (1.0 - lam) * cos_t / p1
            pairs[:, 1, 0, 0] = mu * sin_t / p0
            pairs[:, 1, 0, 1] = -x * cos_t / p1
            pairs[:, 1, 1, 0] = -x.conj() * cos_t / p0
            pairs[:, 1, 1, 1] = (1.0 - mu) * sin_t / p1
            perturbed.append(f * pairs)
            keys.extend((delta, mag, phase) for phase in phases)
            base_index.extend([len(base_pairs) - 1] * len(phases))
            targets.extend([d_target] * len(phases))

    # the base pairs, then the perturbed ones, as one stack
    n_base = len(base_pairs)
    stack = np.concatenate([np.reshape(base_pairs, (n_base, 2, 2, 2)), *perturbed])
    sbar = quantum.average_entropies(stack, rho)
    drift = np.abs(quantum.block_distortions(stack, rho)[n_base:] - targets)
    growth_values = sbar[n_base:] - sbar[base_index]
    worst_distortion_drift = float(drift.max()) if drift.size else 0.0

    growths = [
        {"delta": delta, "magnitude": mag, "phase": phase, "growth": float(growth)}
        for (delta, mag, phase), growth in zip(keys, growth_values)
    ]
    failures = [dict(g) for g in growths if -g["growth"] > ALGEBRA_TOL]

    ratios: list[dict[str, Any]] = []
    shift_ratios: list[dict[str, Any]] = []
    distinct = sorted({m for m in mags if m > 0})
    if len(distinct) == 2:
        lo, hi = distinct
        by_key = {
            (g["delta"], g["magnitude"], g["phase"]): g["growth"] for g in growths
        }
        for delta in delta_grid:
            for phase in phases:
                g_lo = by_key.get((float(delta), lo, phase))
                g_hi = by_key.get((float(delta), hi, phase))
                if g_lo is not None and g_hi is not None and g_lo > 0:
                    ratios.append(
                        {"delta": float(delta), "phase": phase, "ratio": g_hi / g_lo}
                    )
        shifts_by_key = {(w["delta"], w["magnitude"]): w for w in weight_shifts}
        for delta in delta_grid:
            w_lo = shifts_by_key.get((float(delta), lo))
            w_hi = shifts_by_key.get((float(delta), hi))
            if w_lo is not None and w_hi is not None and w_lo["lambda_shift"] != 0:
                shift_ratios.append(
                    {
                        "delta": float(delta),
                        "lambda_ratio": w_hi["lambda_shift"] / w_lo["lambda_shift"],
                        "mu_ratio": w_hi["mu_shift"] / w_lo["mu_shift"],
                    }
                )

    params = {
        "p0": p0,
        "deltas": [float(d) for d in delta_grid],
        "magnitudes": mags,
        "n_phases": len(phases),
        "growths": growths,
        "growth_ratios": ratios,
        "weight_shifts": weight_shifts,
        "weight_shift_ratios": shift_ratios,
        "infeasible_points": infeasible,
        "worst_distortion_drift": worst_distortion_drift,
    }
    return _report(
        "perturbation", seed, params, ALGEBRA_TOL, -growth_values, failures
    )


def random_channel_search(
    src: SourceSpec, n_trials: int, seed: int
) -> VerificationReport:
    """Random two-element channels never beat the swept rate curve.

    Samples trace-preserving k=2 single-qubit channels and scores the whole
    stack with the shared kernels: ``quantum.block_distortions`` (n = 1,
    which also checks that every set is trace preserving) for the
    distortion and ``quantum.average_entropies`` for the average output
    entropy. The entropy is checked against the interpolated curve lowered
    by its error bound, and the worst undershoot is reported.
    """
    interp = rate_curve_interpolator(src)
    rho = src.density()
    rng = np.random.default_rng(seed)
    kraus = stinespring_kraus(rng, n_trials, 2, 2)
    sbar = quantum.average_entropies(kraus, rho)
    d = quantum.block_distortions(kraus, rho)

    excess = np.asarray(interp.reference(d)) - sbar
    failures = [
        {"trial": int(i), "d": float(d[i]), "sbar": float(sbar[i])}
        for i in np.flatnonzero(excess > CURVE_TOL)
    ]
    params = {"p0": src.p0, "interpolation_error_bound": interp.error_bound}
    return _report("search", seed, params, CURVE_TOL, excess, failures)


def _stacked_trials(rng: np.random.Generator, n_trials: int, dim: int, draw):
    """Draw the trials of a block suite as zero-padded Kraus stacks.

    Yields ``(start, ks, kraus)`` per chunk of at most ``BLOCK_CHUNK``
    trials, ``kraus`` of shape (chunk, MAX_KRAUS, dim, dim). Each trial draws
    its k and then its elements through ``draw(k)`` before the next trial
    draws, so the random stream is consumed as by one trial at a time.
    """
    for start in range(0, n_trials, BLOCK_CHUNK):
        count = min(BLOCK_CHUNK, n_trials - start)
        kraus = np.zeros((count, MAX_KRAUS, dim, dim), dtype=complex)
        ks = []
        for trial in range(count):
            k = int(rng.integers(1, MAX_KRAUS + 1))
            kraus[trial, :k] = draw(k)
            ks.append(k)
        yield start, ks, kraus


def check_theorem2_blocks(
    src: SourceSpec, n_trials: int, seed: int
) -> VerificationReport:
    """Diagonal two-qubit operations never beat the single-qubit rate curve.

    Each trial draws k <= 4 positive diagonal 4x4 elements, right-normalizes
    them into a trace-preserving set, and compares the per-qubit average
    output entropy against the interpolated curve at the per-qubit block
    distortion.

    A k = 1 draw normalizes to the identity, which sits on the curve at
    d = 0: its excess is minus the interpolation error bound. Other trials
    have had larger margins in every run examined, so a run that draws a
    k = 1 trial (all but (3/4)^n of n-trial runs) reports
    ``worst_violation`` = -``interpolation_error_bound``, which says nothing
    about its other draws; the violation count and the recorded failures
    do.
    """
    interp = rate_curve_interpolator(src)
    rho1 = src.density()
    rho2 = np.kron(rho1.mat, rho1.mat)
    rng = np.random.default_rng(seed)

    def draw(k):
        diags = rng.uniform(0.05, 1.0, (k, 4))
        diags /= np.sqrt((diags**2).sum(axis=0))[np.newaxis, :]
        return diags[:, :, np.newaxis] * np.eye(4)

    excesses = np.empty(n_trials)
    failures: list[dict[str, Any]] = []
    for start, ks, kraus in _stacked_trials(rng, n_trials, 4, draw):
        rate = 0.5 * quantum.average_entropies(kraus, rho2)
        d = quantum.block_distortions(kraus, rho1)
        excess = interp.reference(d) - rate
        excesses[start : start + len(ks)] = excess
        failures.extend(
            {
                "trial": start + int(i),
                "k": ks[i],
                "d": float(d[i]),
                "rate": float(rate[i]),
                "diagonals": np.diagonal(kraus[i, : ks[i]], 0, 1, 2).real.tolist(),
            }
            for i in np.flatnonzero(excess > CURVE_TOL)
        )
    params = {"p0": src.p0, "interpolation_error_bound": interp.error_bound}
    return _report("blocks", seed, params, CURVE_TOL, excesses, failures)


def check_theorem3_isotropic(
    n_qubits: int, n_trials: int, seed: int
) -> VerificationReport:
    """General operations on the unbiased source never beat the closed form.

    Samples fully general trace-preserving channels (k <= 4) on blocks of
    2 or 3 unbiased qubits and checks the per-qubit average output entropy
    against h2(1/2 + sqrt(d (1 - d))) at the per-qubit block distortion.
    """
    if n_qubits not in (2, 3):
        raise DomainError(f"n_qubits must be 2 or 3, got {n_qubits}")
    dim = 2**n_qubits
    rho1 = DensityMatrix(np.eye(2, dtype=complex) / 2)
    rng = np.random.default_rng(seed)

    def draw(k):
        return stinespring_kraus(rng, 1, dim, k)[0]

    excesses = np.empty(n_trials)
    failures: list[dict[str, Any]] = []
    for start, ks, kraus in _stacked_trials(rng, n_trials, dim, draw):
        rate = quantum.average_entropies(kraus, np.eye(dim) / dim) / n_qubits
        d = quantum.block_distortions(kraus, rho1)
        excess = _isotropic_reference(d) - rate
        excesses[start : start + len(ks)] = excess
        failures.extend(
            {
                "trial": start + int(i),
                "k": ks[i],
                "d": float(d[i]),
                "rate": float(rate[i]),
            }
            for i in np.flatnonzero(excess > CURVE_TOL)
        )
    params = {"n_qubits": n_qubits}
    return _report("isotropic", seed, params, CURVE_TOL, excesses, failures)


def _isotropic_reference(d: np.ndarray) -> np.ndarray:
    """``isotropic_s1`` over a stack of distortions, and 0 beyond d = 1/2."""
    clipped = np.clip(d, 0.0, 0.5)
    q = 0.5 + np.sqrt(clipped * (1.0 - clipped))
    h2 = quantum.eigenvalue_entropy(np.stack([q, 1.0 - q], axis=-1))
    return np.where(d <= 0.5, h2, 0.0)


SUITE_NAMES = (
    "lemma1",
    "lemma2",
    "theorem1",
    "perturbation",
    "search",
    "blocks",
    "isotropic",
)

DEFAULT_PERTURBATION_DELTAS = tuple(np.linspace(0.15, HALF_PI - 0.15, 10))
DEFAULT_PERTURBATION_MAGNITUDES = (0.01, 0.02)


def run_suite(
    name: str, src: SourceSpec, trials: int, seed: int
) -> list[VerificationReport]:
    """Run one named suite (or ``all``) with its documented default shape."""
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
        return [
            check_perturbation(
                DEFAULT_PERTURBATION_DELTAS,
                DEFAULT_PERTURBATION_MAGNITUDES,
                src,
                seed,
            )
        ]
    if name == "search":
        return [random_channel_search(src, trials, seed)]
    if name == "blocks":
        return [check_theorem2_blocks(src, trials, seed)]
    if name == "isotropic":
        return [check_theorem3_isotropic(2, trials, seed)]
    raise DomainError(f"unknown suite {name!r}")
