"""Command-line front end: curve sweeps, verification suites, stream simulation.

Subcommands:
  curve {s1,r1}                   write one curve sweep as CSV or JSON
  verify {lemma1,lemma2,theorem1,perturbation,search,blocks,isotropic,all}
                                  run verification suites; exit 1 on any failure
  simulate                        Monte Carlo ancilla-outcome stream at one delta

Each subcommand takes only the flags it reads; any other flag is a usage
error:
  curve     --p0 --points --out --format
  verify    --p0 --seed --trials --out --format
  simulate  --p0 --seed --samples --delta --out --format
A verify suite rejects a flag it does not read too: --p0 for lemma1, lemma2
and isotropic, --trials and --seed for perturbation (a fixed grid of 160).

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
import dataclasses
import json
import math
import sys
from collections.abc import Sequence

import numpy as np

from .errors import ContractViolationError, DomainError, ToolkitError
from .ratedistortion import SourceSpec, s1_curve_point, sweep_curve

CURVE_KINDS = ("s1", "r1")
# verify.SUITE_NAMES and "all", written out so that the parser needs no
# verify import: a process loads verify only when it runs a suite
VERIFY_SUITES = (
    "lemma1",
    "lemma2",
    "theorem1",
    "perturbation",
    "search",
    "blocks",
    "isotropic",
    "all",
)
DEFAULT_P0 = 0.5
DEFAULT_TRIALS = 1000
# The largest --points, checked before any sweep is built. At the bound and
# p0 0.7, `curve r1` peaks at about 655 MB RSS in 6.3-6.6 s and `curve s1`
# at 470 MB in 3.7 s (2-core x86-64 Xeon, Python 3.11, numpy 2.4); memory
# grows linearly in --points.
MAX_POINTS = 2**20 + 1
# The one float format of text output: 17 significant digits round-trip
# every double exactly.
FLOAT_FORMAT = "%.17g"
# verify suites and the flags whose values they do not read
UNREAD_VERIFY_FLAGS = {
    "lemma1": ("p0",),
    "lemma2": ("p0",),
    "isotropic": ("p0",),
    "perturbation": ("trials", "seed"),
}


def _csv(header: list[str], rows: Sequence[Sequence[float]]) -> str:
    template = ",".join([FLOAT_FORMAT] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(template % tuple(row) for row in rows)


def _json_rows(header: list[str], rows: Sequence[Sequence[float]]) -> str:
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _json_text(value: object) -> str:
    """``value`` as one line of JSON with sorted keys, every float, however
    deeply nested, in ``FLOAT_FORMAT``."""
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    return json.dumps(value)


def _record_text(record: dict[str, object]) -> str:
    """Render one record as ``key: value`` lines: a string as it is, any
    other value as ``_json_text``."""
    return "".join(
        f"{key}: {value if isinstance(value, str) else _json_text(value)}\n"
        for key, value in record.items()
    )


def _emit(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def run_curve(args: argparse.Namespace) -> int:
    if not 2 <= args.points <= MAX_POINTS:
        raise DomainError(f"--points must lie in [2, {MAX_POINTS}], got {args.points}")
    src = SourceSpec(args.p0)
    if args.which == "s1":
        header = ["theta", "d", "S"]
        thetas = np.linspace(math.pi / 4, 0.0, args.points)
        d, entropy = s1_curve_point(thetas, src)
        rows = np.column_stack([thetas, d, entropy]).tolist()
    else:
        header = ["delta", "alpha", "d", "R", "r", "lambda1"]
        rows = sweep_curve(src, args.points).tolist()
    text = _csv(header, rows) if args.format == "csv" else _json_rows(header, rows)
    _emit(args.out, text)
    return 0


def run_verify(args: argparse.Namespace) -> int:
    from . import verify

    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    if trials < 1:
        raise DomainError(f"--trials must be at least 1, got {trials}")
    seed = 0 if args.seed is None else args.seed
    src = SourceSpec(DEFAULT_P0 if args.p0 is None else args.p0)
    reports = verify.run_suite(args.suite, src, trials, seed)
    if args.format == "csv":
        text = "\n".join(_record_text(dataclasses.asdict(report)) for report in reports)
    else:
        records = [dataclasses.asdict(report) for report in reports]
        text = json.dumps(records, indent=2) + "\n"
    _emit(args.out, text)
    return 0 if all(report.passed for report in reports) else 1


def run_simulate(args: argparse.Namespace) -> int:
    from . import realization

    src = SourceSpec(args.p0)
    circuit = realization.build_circuit(args.delta, src)
    stream = realization.simulate_stream(circuit, args.samples, args.seed)
    record = {
        "p0": args.p0,
        "delta": args.delta,
        "alpha": circuit.point.alpha,
        "seed": args.seed,
        **dataclasses.asdict(stream),
    }
    if args.format == "csv":
        text = _record_text(record)
    else:
        text = json.dumps(record, indent=2) + "\n"
    _emit(args.out, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitrd",
        description="Rate-distortion toolkit for biased qubit sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    curve = sub.add_parser("curve", help="write a curve sweep")
    curve.add_argument("which", choices=CURVE_KINDS)
    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("suite", choices=VERIFY_SUITES)
    sim = sub.add_parser("simulate", help="simulate one stream")
    # verify's --p0, --seed and --trials stay None unless given, so that
    # main can reject them for a suite that does not read them
    for cmd in (curve, ver, sim):
        default = None if cmd is ver else DEFAULT_P0
        cmd.add_argument("--p0", type=float, default=default, help="source bias in [0.5, 1)")
    curve.add_argument("--points", type=int, default=101, help="grid points per sweep")
    for cmd in (ver, sim):
        default = None if cmd is ver else 0
        cmd.add_argument("--seed", type=int, default=default, help="random seed")
    ver.add_argument("--trials", type=int, help="trials per suite")
    sim.add_argument("--samples", type=int, default=100000, help="stream samples")
    sim.add_argument("--delta", type=float, required=True, help="angle gap in [0, pi/2]")
    for cmd in (curve, ver, sim):
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        for flag in UNREAD_VERIFY_FLAGS.get(args.suite, ()):
            if getattr(args, flag) is not None:
                parser.error(f"verify {args.suite} does not read --{flag}")
    run = {"curve": run_curve, "verify": run_verify, "simulate": run_simulate}
    try:
        return run[args.command](args)
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
