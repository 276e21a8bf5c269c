"""Ancilla-circuit realization of the optimal pair and stream accounting.

The lossy step is one ancilla qubit prepared in |0>, a 4x4 entangling
unitary, and a measurement of the ancilla. Outcome 0 applies the first
element of the optimal pair to the source qubit, outcome 1 the second; the
outcome sequence is the classical side information, whose asymptotic rate is
h2(lambda1). Qubit rates are accounted analytically at the conditional
output entropies; no block code is simulated.

The 4-dimensional basis ordering is ancilla-first:
{|0>A|0>Q, |0>A|1>Q, |1>A|0>Q, |1>A|1>Q}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import quantum
from .errors import DomainError, InternalNumericError
from .quantum import DensityMatrix
from .ratedistortion import HALF_PI, KrausPair, SourceSpec, solve_alpha
from .records import record_to_text

OUTCOME_FLOOR = 1e-14
# Outcomes are drawn and counted in chunks of this many samples, so the
# memory a stream takes does not grow with its length.
SAMPLE_CHUNK = 2**20


@dataclass(frozen=True)
class RealizationCircuit:
    """One ancilla-source entangling circuit at a solved operating point."""

    alpha: float
    delta: float
    unitary: np.ndarray
    kraus_pair: KrausPair

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)


@dataclass(frozen=True)
class StreamResult:
    """Monte Carlo outcome counts plus the analytic rate/distortion figures."""

    n_samples: int
    type1_count: int
    empirical_lambda1: float
    empirical_classical_rate: float
    quantum_rate: float
    analytic_distortion: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_samples": self.n_samples,
            "type1_count": self.type1_count,
            "empirical_lambda1": self.empirical_lambda1,
            "empirical_classical_rate": self.empirical_classical_rate,
            "quantum_rate": self.quantum_rate,
            "analytic_distortion": self.analytic_distortion,
        }

    def to_text(self) -> str:
        return record_to_text(list(self.to_dict().items()))


def build_circuit(delta: float, src: SourceSpec) -> RealizationCircuit:
    """Assemble the entangling unitary at the solved mixing angle.

    The unitary rotates within the two even/odd parity planes by alpha and
    alpha + delta respectively, so the induced operation on the source qubit
    is exactly the optimal diagonal pair.
    """
    if not 0.0 < delta < HALF_PI:
        raise DomainError(f"delta must lie in (0, pi/2), got {delta}")
    alpha = solve_alpha(delta, src)
    c1, c2 = math.cos(alpha), math.cos(alpha + delta)
    s1, s2 = math.sin(alpha), math.sin(alpha + delta)
    unitary = np.array(
        [
            [c1, 0.0, -s1, 0.0],
            [0.0, c2, 0.0, -s2],
            [s1, 0.0, c1, 0.0],
            [0.0, s2, 0.0, c2],
        ],
        dtype=complex,
    )
    gap = np.max(np.abs(unitary.conj().T @ unitary - np.eye(4)))
    if gap > 1e-12:
        raise InternalNumericError(f"assembled circuit deviates from unitary by {gap:.3e}")
    return RealizationCircuit(
        alpha=alpha,
        delta=delta,
        unitary=unitary,
        kraus_pair=KrausPair.from_angles(alpha, delta),
    )


def ancilla_source_state(src: SourceSpec) -> np.ndarray:
    """Joint initial state |0><0|_A x rho_Q in the ancilla-first ordering."""
    ancilla = np.zeros((2, 2), dtype=complex)
    ancilla[0, 0] = 1.0
    return np.kron(ancilla, src.density().mat)


def joint_output(circ: RealizationCircuit, src: SourceSpec) -> np.ndarray:
    """U Xi U†: block (i, j) holds A_i rho A_j†."""
    xi = ancilla_source_state(src)
    return circ.unitary @ xi @ circ.unitary.conj().T


def measure_ancilla(
    circ: RealizationCircuit, src: SourceSpec
) -> tuple[float, DensityMatrix | None, DensityMatrix | None]:
    """Ancilla measurement statistics and the conditional source states.

    Returns (p_type1, post1, post2) where post_i is the normalized source
    state after outcome i. An outcome with probability at or below 1e-14 is
    suppressed (its post state is None).
    """
    rho = src.density().mat
    pair = circ.kraus_pair
    posts: list[DensityMatrix | None] = []
    weights: list[float] = []
    for element in (pair.a1, pair.a2):
        out = element @ rho @ element.conj().T
        weight = float(np.trace(out).real)
        weights.append(weight)
        posts.append(DensityMatrix(out / weight) if weight > OUTCOME_FLOOR else None)
    return weights[0], posts[0], posts[1]


def simulate_stream(
    circ: RealizationCircuit, src: SourceSpec, n_samples: int, seed: int
) -> StreamResult:
    """Sample the ancilla outcome stream and account rates analytically.

    Outcomes are i.i.d. draws with the analytic type-1 probability, produced
    by a counter-based generator keyed on the seed, so the i-th sample is a
    pure function of (seed, i) and results are bit-identical across runs.
    They are counted ``SAMPLE_CHUNK`` at a time; chunked draws from the
    generator are the same numbers as one draw of all samples.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples}")
    p_type1, _, _ = measure_ancilla(circ, src)
    rng = np.random.Generator(np.random.Philox(key=seed))
    type1_count = 0
    for start in range(0, n_samples, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, n_samples - start))
        type1_count += int(np.count_nonzero(draws < p_type1))
    empirical = type1_count / n_samples
    rho = src.density()
    quantum_rate = quantum.average_entropy(circ.kraus_pair.channel(), rho)
    return StreamResult(
        n_samples=n_samples,
        type1_count=type1_count,
        empirical_lambda1=empirical,
        empirical_classical_rate=quantum.binary_entropy(empirical),
        quantum_rate=quantum_rate,
        analytic_distortion=2.0 * src.p0 * src.p1 * (1.0 - math.cos(circ.delta)),
    )
