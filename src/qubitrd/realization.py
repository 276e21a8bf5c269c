"""Ancilla-circuit realization of the optimal pair and stream accounting.

The lossy step is one ancilla qubit prepared in |0>, a 4x4 entangling
unitary, and a measurement of the ancilla. Outcome 0 applies the first
element of the optimal pair to the source qubit, outcome 1 the second; a
circuit carries that pair as its ``KrausChannel`` (``pair_channel``). The
outcome sequence is the classical side information, whose asymptotic rate is
h2(lambda1). No block code is simulated. A circuit carries the
``r1_curve_point`` it realizes: its pair is that point's, and the stream's
type-1 probability and every analytic figure of a ``StreamResult`` (d, R,
lambda1 and r = h2(lambda1)) are read off it bit for bit.

The 4-dimensional basis ordering is ancilla-first:
{|0>A|0>Q, |0>A|1>Q, |1>A|0>Q, |1>A|1>Q}. In it the unitary is the block
matrix [[A1, -A2], [A2, A1]] of the pair's elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quantum
from .errors import InternalNumericError, check_integer
from .quantum import KrausChannel
from .ratedistortion import CurvePoint, SourceSpec, pair_channel, r1_curve_point

# Outcomes are drawn and counted in chunks of this many samples, so the
# memory a stream takes does not grow with its length: 512 KB of float64
# draws, which stay in cache.
SAMPLE_CHUNK = 2**16


@dataclass(frozen=True)
class RealizationCircuit:
    """One ancilla-source entangling circuit at a solved operating point.

    ``point`` is the curve point the circuit realizes. ``channel`` is the
    operation the circuit induces on the source qubit: that point's
    diagonal pair, outcome 0's element first.
    """

    point: CurvePoint
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


def build_circuit(delta: float, src: SourceSpec) -> RealizationCircuit:
    """Assemble the entangling unitary of the curve's point at delta.

    The circuit carries ``r1_curve_point(delta, src)``, which checks delta:
    a real number whose float lies within 1e-12 of [0, pi/2]; any other
    raises ``DomainError``. It realizes that point's optimal pair
    (``pair_channel`` at its alpha and delta), so at the ends it realizes
    the end rows: the identity code (delta = 0) and measure-and-prepare
    (delta = pi/2). The unitary
    [[A1, -A2], [A2, A1]] is built from the pair's elements: it rotates
    within the two even/odd parity planes by alpha and alpha + delta
    respectively, so the induced operation on the source qubit is exactly
    that pair.
    """
    point = r1_curve_point(delta, src)
    channel = pair_channel(point.alpha, point.delta)
    a1, a2 = channel.elements
    unitary = np.block([[a1, -a2], [a2, a1]])
    gap = np.max(np.abs(unitary.conj().T @ unitary - np.eye(4)))
    if gap > 1e-12:
        raise InternalNumericError(f"assembled circuit deviates from unitary by {gap:.3e}")
    return RealizationCircuit(point=point, unitary=unitary, channel=channel)


def simulate_stream(circ: RealizationCircuit, n_samples: int, seed: int) -> StreamResult:
    """Sample the ancilla outcome stream and account rates analytically.

    Outcomes are i.i.d. draws with the analytic type-1 probability, produced
    by a counter-based generator keyed on the seed, so the i-th sample is a
    pure function of (seed, i) and results are bit-identical across runs.
    They are counted ``SAMPLE_CHUNK`` at a time; chunked draws from the
    generator are the same numbers as one draw of all samples. That
    probability and the analytic fields are the lambda1, d, R and r of the
    circuit's point. ``n_samples`` is an integer >= 1 and ``seed`` one in
    [0, 2**128), not a bool; any other value raises ``DomainError``, so a
    float seed is never truncated into another seed's stream.
    """
    check_integer("n_samples", n_samples, 1)
    check_integer("seed", seed, 0, 2**128 - 1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    type1_count = 0
    for start in range(0, n_samples, SAMPLE_CHUNK):
        draws = rng.random(min(SAMPLE_CHUNK, n_samples - start))
        type1_count += int(np.count_nonzero(draws < circ.point.lambda1))
    empirical = type1_count / n_samples
    return StreamResult(
        n_samples=n_samples,
        type1_count=type1_count,
        empirical_lambda1=empirical,
        empirical_classical_rate=quantum.binary_entropy(empirical),
        quantum_rate=circ.point.R,
        analytic_distortion=circ.point.d,
        analytic_lambda1=circ.point.lambda1,
        analytic_classical_rate=circ.point.r,
    )
