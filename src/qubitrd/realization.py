"""Ancilla-circuit realization of the optimal pair and stream accounting.

The lossy step is one ancilla qubit prepared in |0>, a 4x4 entangling
unitary, and a measurement of the ancilla. Outcome 0 applies the first
element of the optimal pair to the source qubit, outcome 1 the second; a
circuit carries that pair as its ``KrausChannel`` (``pair_channel``). The
outcome sequence is the classical side information, whose asymptotic rate is
h2(lambda1). Qubit rates are accounted analytically at the conditional
output entropies (``r1_curve_point``'s closed forms); no block code is simulated.

The 4-dimensional basis ordering is ancilla-first:
{|0>A|0>Q, |0>A|1>Q, |1>A|0>Q, |1>A|1>Q}. In it the unitary is the block
matrix [[A1, -A2], [A2, A1]] of the pair's elements.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from . import quantum
from .errors import DomainError, InternalNumericError
from .quantum import DensityMatrix, KrausChannel
from .ratedistortion import _FLOATS, SourceSpec, _average_entropy_arr, _pair_weights
from .ratedistortion import pair_channel, solve_alpha

# Outcomes are drawn and counted in chunks of this many samples, so the
# memory a stream takes does not grow with its length.
SAMPLE_CHUNK = 2**20


@dataclass(frozen=True)
class RealizationCircuit:
    """One ancilla-source entangling circuit at a solved operating point.

    ``channel`` is the operation the circuit induces on the source qubit:
    the optimal diagonal pair, outcome 0's element first.
    """

    alpha: float
    delta: float
    unitary: np.ndarray
    channel: KrausChannel

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
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_circuit(delta: float, src: SourceSpec) -> RealizationCircuit:
    """Assemble the entangling unitary at the solved mixing angle.

    ``solve_alpha`` checks that 0 < delta < pi/2. The unitary
    [[A1, -A2], [A2, A1]] is built from the elements of the optimal pair
    (``pair_channel``): it rotates within the two even/odd parity planes by
    alpha and alpha + delta respectively, so the induced operation on the
    source qubit is exactly that pair.
    """
    alpha = solve_alpha(delta, src)
    channel = pair_channel(alpha, delta)
    a1, a2 = channel.elements
    unitary = np.block([[a1, -a2], [a2, a1]])
    gap = np.max(np.abs(unitary.conj().T @ unitary - np.eye(4)))
    if gap > 1e-12:
        raise InternalNumericError(f"assembled circuit deviates from unitary by {gap:.3e}")
    return RealizationCircuit(alpha=alpha, delta=delta, unitary=unitary, channel=channel)


def measure_ancilla(
    circ: RealizationCircuit, src: SourceSpec
) -> tuple[float, DensityMatrix | None, DensityMatrix | None]:
    """Ancilla measurement statistics and the conditional source states.

    Returns (p_type1, post1, post2) where post_i is the normalized source
    state after outcome i, read off the elements of the circuit's channel.
    An outcome with probability at or below ``quantum.WEIGHT_FLOOR`` (1e-14)
    is suppressed (its post state is None).
    """
    rho = src.density().mat
    posts: list[DensityMatrix | None] = []
    weights: list[float] = []
    for element in circ.channel.elements:
        out = element @ rho @ element.conj().T
        weight = float(np.trace(out).real)
        weights.append(weight)
        posts.append(DensityMatrix(out / weight) if weight > quantum.WEIGHT_FLOOR else None)
    return weights[0], posts[0], posts[1]


def _type1_weight(circ: RealizationCircuit, src: SourceSpec) -> float:
    """lambda1 of the circuit's pair, by ``r1_curve_point``'s closed form."""
    return _pair_weights(circ.alpha, circ.delta, src.p0, _FLOATS)[4]


def simulate_stream(
    circ: RealizationCircuit, src: SourceSpec, n_samples: int, seed: int
) -> StreamResult:
    """Sample the ancilla outcome stream and account rates analytically.

    Outcomes are i.i.d. draws with the analytic type-1 probability, produced
    by a counter-based generator keyed on the seed, so the i-th sample is a
    pure function of (seed, i) and results are bit-identical across runs.
    They are counted ``SAMPLE_CHUNK`` at a time; chunked draws from the
    generator are the same numbers as one draw of all samples. lambda1 and
    R are ``r1_curve_point``'s closed forms, with its bits at that delta.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples}")
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")
    p_type1 = _type1_weight(circ, src)
    rng = np.random.Generator(np.random.Philox(key=seed))
    type1_count = 0
    for start in range(0, n_samples, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, n_samples - start))
        type1_count += int(np.count_nonzero(draws < p_type1))
    empirical = type1_count / n_samples
    return StreamResult(
        n_samples=n_samples,
        type1_count=type1_count,
        empirical_lambda1=empirical,
        empirical_classical_rate=quantum.binary_entropy(empirical),
        quantum_rate=_average_entropy_arr(circ.alpha, circ.delta, src.p0, _FLOATS),
        analytic_distortion=src.distortion(circ.delta),
    )
