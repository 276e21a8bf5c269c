"""Host-speed calibration: a fixed kernel timed between operations.

The benchmark runs on shared machines whose speed moves by up to 2x within
a minute, for the kernels below and for qubitrd alike. Every timing the
benchmark reports is therefore scaled to a reference speed: a measured time
is multiplied by ``reference / k``, where ``k`` is the median time of a
kernel in the calibration gaps around it. A change in
qubitrd moves the measured time and not ``k``; a change in the machine's
speed moves both.

No kernel calls qubitrd. Each does the kind of work of the operations it
calibrates: ``compute_kernel`` small-array numpy calls between interpreted
loops, like the rate-distortion solver; ``matrix_kernel`` Kronecker
products, reshaped partial traces and eigendecompositions of small complex
matrices, like the Monte Carlo suites; ``start_kernel`` starts an
interpreter that imports numpy, the work that dominates a fresh
interpreter, and calibrates the timings of child processes.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# The share of the time since the previous gap that a gap spends running
# its kernel, so that long operations are bracketed by long gaps, and the
# least operation time between two gaps.
GAP_SHARE = 0.1
GAP_EVERY_S = 0.05

_X = np.linspace(0.01, 0.99, 64)
_M = np.array([[1.0, 0.2j], [-0.2j, 2.0]])
_A = np.array([[0.6, 0.3j], [-0.3j, 0.4]])
_B = np.array([[0.9, 0.1], [0.1, 0.1]], dtype=complex)


def compute_kernel() -> None:
    total = 0.0
    for i in range(40):
        a = _X * ((i % 50) + 1) / 51
        y = -(a * np.log(a) + (1 - a) * np.log1p(-a))
        np.linalg.eigvalsh(_M)
        total += float(y.min())
        for k in range(100):
            total += math.cos(k * 1e-3)


def matrix_kernel() -> None:
    total = 0.0
    for _ in range(12):
        a = np.kron(_A, _B)
        b = np.kron(a, _A)
        reduced = np.einsum("ixjx->ij", b.reshape(2, 4, 2, 4))
        w, _ = np.linalg.eigh(a)
        total += float(np.real(np.trace(reduced @ _B))) + float(w.sum())
        for k in range(20):
            total += math.cos(k * 1e-3)


def start_kernel() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)


@dataclass(frozen=True)
class Kernel:
    run: object
    # Median seconds of one run on the reference machine (2-core Intel Xeon
    # VM, Python 3.11, numpy 2.4) in a quiet period. Reported times are in
    # seconds of that machine at that speed.
    reference_s: float
    min_reps: int


COMPUTE = Kernel(compute_kernel, 7.5e-4, 3)
MATRIX = Kernel(matrix_kernel, 6.9e-4, 3)
START = Kernel(start_kernel, 0.12, 1)


class Calibrator:
    """Calibration gaps, each a list of kernel times, in the order taken."""

    def __init__(self, kernel: Kernel = COMPUTE):
        self.kernel = kernel
        self.gaps: list[list[float]] = []
        self.last = time.perf_counter()

    def gap(self) -> int:
        """Time the kernel; return the new gap's index."""
        since = time.perf_counter() - self.last
        reps = max(self.kernel.min_reps, math.ceil(since * GAP_SHARE / self.kernel.reference_s))
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self.kernel.run()
            times.append(time.perf_counter() - t0)
        self.gaps.append(times)
        self.last = time.perf_counter()
        return len(self.gaps) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= GAP_EVERY_S

    def scale(self, before: int) -> float:
        """Factor for a time measured between gap ``before`` and the next gap.

        The kernel times of those two gaps and of one more on either side,
        where taken, are pooled.
        """
        times = [t for gap in self.gaps[max(0, before - 1) : before + 3] for t in gap]
        return self.kernel.reference_s / statistics.median(times)
