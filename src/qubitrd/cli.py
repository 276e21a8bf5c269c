"""Command-line front end: curve sweeps, verification suites, stream simulation.

Subcommands:
  curve {s1,r1}                   write one curve sweep as CSV or JSON
  verify {lemma1,lemma2,theorem1,perturbation,search,blocks,isotropic,all}
                                  run verification suites; exit 1 on any failure
  simulate                        Monte Carlo ancilla-outcome stream at one delta

Examples:
  qubitrd curve r1 --p0 0.7 --points 101 --out r1_07.csv
  qubitrd curve s1 --p0 0.5 --points 201 --format json
  qubitrd verify lemma1 --trials 10000 --seed 42
  qubitrd verify all --seed 7 --trials 2000 --out reports.txt
  qubitrd simulate --p0 0.5 --delta 0.8 --samples 1000000 --seed 1

All outputs are bit-identical across repeated runs with identical flags.
Numeric CSV fields carry 17 significant digits so downstream plotting can
round-trip the values exactly. Exit codes: 0 success, 1 verification
failure, 2 usage or domain error, 3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import realization, verify
from .errors import ContractViolationError, DomainError, ToolkitError
from .quantum import binary_entropy
from .ratedistortion import SourceSpec, s1_curve_point, sweep_curve
from .records import record_to_text

CURVE_KINDS = ("s1", "r1")
VERIFY_SUITES = verify.SUITE_NAMES + ("all",)


@dataclass(frozen=True)
class RunConfig:
    """Validated flag set shared by all subcommands.

    ``p0`` is validated where it is used, by ``SourceSpec``.
    """

    p0: float
    points: int
    seed: int
    trials: int
    samples: int
    output_path: str | None
    format: str

    def __post_init__(self):
        if self.points < 2:
            raise DomainError(f"--points must be at least 2, got {self.points}")
        if self.trials < 1:
            raise DomainError(f"--trials must be at least 1, got {self.trials}")
        if self.samples < 1:
            raise DomainError(f"--samples must be at least 1, got {self.samples}")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_rows(header: list[str], rows: list[list[float]]) -> str:
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(cfg.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def run_curve(cfg: RunConfig, which: str) -> int:
    src = SourceSpec(cfg.p0)
    if which == "s1":
        header = ["theta", "d", "S"]
        thetas = np.linspace(math.pi / 4, 0.0, cfg.points)
        rows = []
        for theta in thetas:
            d, entropy = s1_curve_point(float(theta), src)
            rows.append([float(theta), d, entropy])
    else:
        header = ["delta", "alpha", "d", "R", "r", "lambda1"]
        points = sweep_curve(src, cfg.points)
        rows = [[p.delta, p.alpha, p.d, p.R, p.r, p.lambda1] for p in points]
    text = _csv(header, rows) if cfg.format == "csv" else _json_rows(header, rows)
    _emit(cfg, text)
    return 0


def run_verify(cfg: RunConfig, suite: str) -> int:
    src = SourceSpec(cfg.p0)
    reports = verify.run_suite(suite, src, cfg.trials, cfg.seed)
    if cfg.format == "csv":
        text = "\n".join(report.to_text() for report in reports)
    else:
        text = json.dumps([report.to_dict() for report in reports], indent=2) + "\n"
    _emit(cfg, text)
    return 0 if all(report.passed for report in reports) else 1


def run_simulate(cfg: RunConfig, delta: float) -> int:
    if not 0.0 < delta < math.pi / 2:
        raise DomainError(f"--delta must lie in (0, pi/2), got {delta}")
    src = SourceSpec(cfg.p0)
    circuit = realization.build_circuit(delta, src)
    stream = realization.simulate_stream(circuit, src, cfg.samples, cfg.seed)
    lambda1, _, _ = realization.measure_ancilla(circuit, src)
    record = {
        "p0": cfg.p0,
        "delta": delta,
        "alpha": circuit.alpha,
        "seed": cfg.seed,
        **stream.to_dict(),
        "analytic_lambda1": lambda1,
        "analytic_classical_rate": binary_entropy(lambda1),
    }
    if cfg.format == "csv":
        text = record_to_text(list(record.items()))
    else:
        text = json.dumps(record, indent=2) + "\n"
    _emit(cfg, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p0", type=float, default=0.5, help="source bias in [0.5, 1)")
    common.add_argument("--points", type=int, default=101, help="grid points per sweep")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--trials", type=int, default=1000, help="trials per suite")
    common.add_argument("--samples", type=int, default=100000, help="stream samples")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="qubitrd",
        description="Rate-distortion toolkit for biased qubit sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    curve = sub.add_parser("curve", parents=[common], help="write a curve sweep")
    curve.add_argument("which", choices=CURVE_KINDS)
    ver = sub.add_parser("verify", parents=[common], help="run verification suites")
    ver.add_argument("suite", choices=VERIFY_SUITES)
    sim = sub.add_parser("simulate", parents=[common], help="simulate one stream")
    sim.add_argument("--delta", type=float, required=True, help="operating angle")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            p0=args.p0,
            points=args.points,
            seed=args.seed,
            trials=args.trials,
            samples=args.samples,
            output_path=args.out,
            format=args.format,
        )
        if args.command == "curve":
            return run_curve(cfg, args.which)
        if args.command == "verify":
            return run_verify(cfg, args.suite)
        return run_simulate(cfg, args.delta)
    except (DomainError, ContractViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
