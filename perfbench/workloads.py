"""The four workloads: their inputs, warm-up, one operation, and checks.

Every workload is a closed loop with one caller. Inputs are made from the
benchmark seed (for ``point``, only their order); qubitrd sees the
generated values (``verify`` passes suite seeds drawn from it, ``cli``
passes it as ``--seed``). Inputs are produced in cycles, and a timed phase
ends only at a cycle boundary, so every run times the same mix of
operations and fails on the same share of them.

Each workload is built from the seed and has:
  cycles()              endless iterator of input lists
  warm_up(q)            untimed preparation in a process that imported qubitrd
  run(q, inp)           one operation; its return value is the output
  items(out)            items an output counts for
  kind(inp)             label an operation's time is reported under, or None
  calibration           the calibrate.Kernel that scales its operations' times
  failures(ops)         one list of failure messages per (input, output) pair
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import calibrate
import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "cli_launch.py"

CURVE_P0S = (0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)
CURVE_POINTS = 512
VERIFY_P0S = (0.5, 0.7, 0.9)
# The seven qubitrd.verify.SUITE_NAMES, each run at every VERIFY_P0S; a cycle
# ends with one call of the isotropic suite on 3 qubits, which has no p0.
VERIFY_SUITES = (
    "lemma1",
    "lemma2",
    "theorem1",
    "perturbation",
    "search",
    "blocks",
    "isotropic",
)
VERIFY_KINDS = VERIFY_SUITES + ("isotropic3",)
# The README runs `verify all --trials 2000`. Calls of a fortieth of that
# keep the longest operation near 0.07 s, so that calibration gaps
# (calibrate.py) fall close around every operation, and a cycle of 22 calls
# near 0.3 s, so that a run holds dozens of cycles.
VERIFY_TRIALS = 50
VERIFY_WARMUP_TRIALS = 10
CLI_P0S = (0.5, 0.7, 0.9)
CLI_SAMPLES = 1_000_000
CLI_TIMEOUT_S = 120
# The point pool: POINT_POOL uniform draws from a generator with a fixed
# seed, the same for every benchmark seed, which sets their order. The rare
# draws that fail (see the README) then fail at the same rate in every run.
POINT_POOL = 8192
POINT_POOL_SEED = 0
POINT_WARMUP = 50


def child_env() -> dict:
    """Environment for child interpreters: qubitrd from this checkout's src."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Workload:
    calibration = calibrate.COMPUTE

    def __init__(self, seed: int):
        self.seed = seed
        # Verdicts of outputs already checked, by input and output; inputs
        # repeat in every cycle, so this stops growing after the first.
        self.verdicts: dict = {}

    def items(self, out):
        return 1

    def kind(self, inp):
        return None


class Curve(Workload):
    name = "curve"
    item = "curve point"

    def cycles(self):
        shift = self.seed % len(CURVE_P0S)
        cycle = list(CURVE_P0S[shift:] + CURVE_P0S[:shift])
        return itertools.repeat(cycle)

    def warm_up(self, q):
        q.ratedistortion.sweep_curve(q.ratedistortion.SourceSpec(0.7), CURVE_POINTS)

    def run(self, q, p0):
        rd = q.ratedistortion
        return rd.sweep_curve(rd.SourceSpec(p0), CURVE_POINTS)

    def items(self, out):
        return len(out)

    def failures(self, ops):
        result = []
        for p0, out in ops:
            cols = tuple(np.array([getattr(pt, f) for pt in out]) for f in ("delta", "alpha", "d", "R"))
            key = (p0, *(c.tobytes() for c in cols))
            if key not in self.verdicts:
                self.verdicts[key] = checks.curve_failures(p0, *cols)
            result.append(self.verdicts[key])
        return result


class Point(Workload):
    name = "point"
    item = "curve point"

    def cycles(self):
        pool = np.random.default_rng(POINT_POOL_SEED)
        p0s = pool.uniform(0.5, 1.0, POINT_POOL)
        deltas = pool.uniform(0.0, math.pi / 2, POINT_POOL)
        order = np.random.default_rng(self.seed).permutation(POINT_POOL)
        return itertools.repeat(list(zip(p0s[order].tolist(), deltas[order].tolist())))

    def warm_up(self, q):
        rd = q.ratedistortion
        for i in range(POINT_WARMUP):
            rd.r1_curve_point(0.1 + i * 0.02, rd.SourceSpec(0.7))

    def run(self, q, inp):
        rd = q.ratedistortion
        p0, delta = inp
        return rd.r1_curve_point(delta, rd.SourceSpec(p0))

    def failures(self, ops):
        keys = [(inp, out.delta, out.alpha, out.d, out.R) for inp, out in ops]
        new = list({key: None for key in keys if key not in self.verdicts})
        if new:
            p0 = np.array([inp[0] for inp, *_ in new])
            cols = [np.array(col) for col in zip(*(key[1:] for key in new))]
            self.verdicts.update(zip(new, checks.point_failures(p0, *cols)))
        return [self.verdicts[key] for key in keys]


class Verify(Workload):
    name = "verify"
    item = "Monte Carlo trial"
    calibration = calibrate.MATRIX

    def cycles(self):
        rng = np.random.default_rng(self.seed)
        while True:
            seeds = iter(rng.integers(0, 2**31, len(VERIFY_P0S) * len(VERIFY_SUITES) + 1).tolist())
            cycle = [(name, p0, next(seeds)) for p0 in VERIFY_P0S for name in VERIFY_SUITES]
            yield cycle + [("isotropic3", None, next(seeds))]

    def warm_up(self, q):
        v, rd = q.verify, q.ratedistortion
        for p0 in VERIFY_P0S:
            v.rate_curve_interpolator(rd.SourceSpec(p0))
        for name in VERIFY_KINDS:
            self.run(q, (name, 0.7, 0), trials=VERIFY_WARMUP_TRIALS)

    def run(self, q, inp, trials=VERIFY_TRIALS):
        v, rd = q.verify, q.ratedistortion
        name, p0, seed = inp
        if name == "isotropic3":
            return [v.check_theorem3_isotropic(3, trials, seed)]
        return v.run_suite(name, rd.SourceSpec(p0), trials, seed)

    def items(self, out):
        return sum(r.n_trials for r in out)

    def kind(self, inp):
        return inp[0]

    def failures(self, ops):
        return [
            checks.report_failures(
                [{"suite_name": r.suite_name, "passed": r.passed, "n_violations": r.n_violations} for r in out]
            )
            for _, out in ops
        ]


class Cli(Workload):
    name = "cli"
    item = "CLI invocation"
    calibration = calibrate.START

    def __init__(self, seed: int):
        super().__init__(seed)
        # command -> (warm-up stdout, failures of that stdout's content)
        self.references: dict[tuple, tuple[str, list[str]]] = {}
        # When set, invocations go through the tracing launcher and each
        # writes its spans to a numbered file in this directory.
        self.spans_dir: Path | None = None
        self.launched = 0

    def commands(self):
        """The fixed mix: each of four commands at each of three p0, twelve runs."""
        s = str(self.seed)
        kinds = (
            ["curve", "r1", "--points", "101"],
            ["curve", "s1", "--points", "201"],
            ["verify", "search", "--trials", "2000", "--format", "json", "--seed", s],
            ["simulate", "--delta", "0.8", "--samples", str(CLI_SAMPLES), "--seed", s],
        )
        mix = []
        for i in range(len(kinds) * len(CLI_P0S)):
            p0 = CLI_P0S[i % len(CLI_P0S)]
            mix.append((tuple(kinds[i % len(kinds)] + ["--p0", repr(p0)]), p0))
        return mix

    def cycles(self):
        return itertools.repeat(self.commands())

    def kind(self, inp):
        return " ".join(inp[0][:2])

    def warm_up(self, q):
        """Run each command once; keep its stdout and the checks of its content."""
        for command, p0 in self.commands():
            out = self.run(q, (command, p0))
            self.references[command] = (
                out.stdout,
                checks.cli_failures(list(command), p0, out.stdout, None, out.returncode),
            )

    def run(self, q, inp):
        command, _ = inp
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "qubitrd.cli", *command]
        else:
            self.launched += 1
            spans = self.spans_dir / f"cli-{self.launched}.jsonl"
            argv = [sys.executable, str(LAUNCHER), str(spans), *command]
        return subprocess.run(
            argv,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            cwd=ROOT,
        )

    def failures(self, ops):
        result = []
        for (command, p0), out in ops:
            stdout, content_failures = self.references[command]
            own = checks.cli_failures(list(command), p0, out.stdout, stdout, out.returncode)
            result.append(own + content_failures)
        return result


WORKLOADS = {w.name: w for w in (Curve, Point, Verify, Cli)}
