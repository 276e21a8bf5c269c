"""Ancilla-circuit realization of the optimal pair and stream accounting.

The lossy step is one ancilla qubit prepared in |0>, a 4x4 entangling
unitary, and a measurement of the ancilla. Outcome 0 applies the first
element of the optimal pair to the source qubit, outcome 1 the second; a
circuit carries that pair as its ``KrausChannel`` (``pair_channel``). The
outcome sequence is the classical side information, whose asymptotic rate is
h2(lambda1). No block code is simulated: the stream's type-1 probability
and every analytic figure of a ``StreamResult`` (d, R, lambda1 and
r = h2(lambda1)) are read off ``r1_curve_point`` at the circuit's delta, as
is the circuit's angle, so they equal that point bit for bit. Within
``ENDPOINT_CUTOFF`` of either end of (0, pi/2) that is the curve's exact end
row, as in ``curve r1``.

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
from .quantum import KrausChannel
from .ratedistortion import HALF_PI, SourceSpec, pair_channel, r1_curve_point

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
    analytic_lambda1: float
    analytic_classical_rate: float

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_circuit(delta: float, src: SourceSpec) -> RealizationCircuit:
    """Assemble the entangling unitary at the solved mixing angle.

    delta must lie in (0, pi/2). The angle is ``r1_curve_point``'s, so the
    circuit realizes the curve's point at delta: within ``ENDPOINT_CUTOFF``
    of an end that is the exact end row's angle. The unitary
    [[A1, -A2], [A2, A1]] is built from the elements of the optimal pair
    (``pair_channel``): it rotates within the two even/odd parity planes by
    alpha and alpha + delta respectively, so the induced operation on the
    source qubit is exactly that pair.
    """
    if not 0.0 < delta < HALF_PI:
        raise DomainError(f"delta must lie in (0, pi/2), got {delta}")
    alpha = r1_curve_point(delta, src).alpha
    channel = pair_channel(alpha, delta)
    a1, a2 = channel.elements
    unitary = np.block([[a1, -a2], [a2, a1]])
    gap = np.max(np.abs(unitary.conj().T @ unitary - np.eye(4)))
    if gap > 1e-12:
        raise InternalNumericError(f"assembled circuit deviates from unitary by {gap:.3e}")
    return RealizationCircuit(alpha=alpha, delta=delta, unitary=unitary, channel=channel)


def simulate_stream(
    circ: RealizationCircuit, src: SourceSpec, n_samples: int, seed: int
) -> StreamResult:
    """Sample the ancilla outcome stream and account rates analytically.

    Outcomes are i.i.d. draws with the analytic type-1 probability, produced
    by a counter-based generator keyed on the seed, so the i-th sample is a
    pure function of (seed, i) and results are bit-identical across runs.
    They are counted ``SAMPLE_CHUNK`` at a time; chunked draws from the
    generator are the same numbers as one draw of all samples. That
    probability and the analytic fields are ``r1_curve_point(circ.delta)``'s
    lambda1, d, R and r.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples}")
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")
    point = r1_curve_point(circ.delta, src)
    rng = np.random.Generator(np.random.Philox(key=seed))
    type1_count = 0
    for start in range(0, n_samples, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, n_samples - start))
        type1_count += int(np.count_nonzero(draws < point.lambda1))
    empirical = type1_count / n_samples
    return StreamResult(
        n_samples=n_samples,
        type1_count=type1_count,
        empirical_lambda1=empirical,
        empirical_classical_rate=quantum.binary_entropy(empirical),
        quantum_rate=point.R,
        analytic_distortion=point.d,
        analytic_lambda1=point.lambda1,
        analytic_classical_rate=point.r,
    )
