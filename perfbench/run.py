"""Outside-in benchmark of qubitrd.

Usage (from the repository root):

  python3 perfbench/run.py --workload {curve,point,verify,cli} \
      --seed N --seconds S --trace {0,1}

With ``--trace 0`` the named workload runs untraced and the end-to-end
metrics are reported. With ``--trace 1`` every workload runs twice, once
untraced and once with span recorders on every public qubitrd function, and
the per-layer metrics plus the tracing overhead are reported. Every time
in the metrics is scaled to the reference machine's speed by a calibration
kernel of ``calibrate.py``, timed between operations. Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

qubitrd is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with status 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import spans
import workloads

OUT_DIR = workloads.ROOT / ".perfbench_out"
# Fresh interpreters timed per run for setup_s, and per traced run for the
# import split; the median of each is reported.
SETUP_PROBES = 3
# Operations whose outputs are held before they are checked and dropped.
CHECK_EVERY = 512


@dataclass
class Phase:
    """What one timed phase ran and checked.

    Times are scaled to the reference speed (see calibrate.py). Outputs are
    checked in batches of at most CHECK_EVERY operations and then dropped,
    so memory does not grow with the number of operations a run holds.
    """

    attempted: int = 0
    failed: int = 0
    items: int = 0
    latencies_ms: array = field(default_factory=lambda: array("d"))  # operations that returned
    busy_s: float = 0.0  # all operations
    unscaled_busy_s: float = 0.0
    wall: float = 0.0
    by_kind: dict = field(default_factory=dict)  # wl.kind(input) -> [(ms, items), ...]
    messages: list = field(default_factory=list)  # the first few failures


def timed_phase(wl, q, seconds: float, recorder=None) -> Phase:
    """Run whole input cycles until ``seconds`` have passed.

    A calibration gap precedes the first operation and follows the last of
    each batch, and one is taken after every operation that ends
    ``GAP_EVERY_S`` or more after the previous gap.
    """
    run = wl.run if recorder is None else recorder.wrap("bench.op", wl.run)
    phase = Phase()
    cal = calibrate.Calibrator(wl.calibration)
    gap = cal.gap()
    ops, gap_before = [], []

    def check_batch():
        nonlocal gap
        if gap == gap_before[-1]:
            gap = cal.gap()
        factors = {g: cal.scale(g) for g in set(gap_before)}
        evaluate(wl, ops, [factors[g] for g in gap_before], phase)
        ops.clear()
        gap_before.clear()

    start = time.perf_counter()
    for cycle in wl.cycles():
        for inp in cycle:
            if recorder is not None:
                recorder.op = phase.attempted + len(ops)
            t0 = time.perf_counter()
            try:
                out = run(q, inp)
            except Exception as exc:  # an operation that raised is a failed one
                out = exc
            ops.append((inp, out, time.perf_counter() - t0))
            gap_before.append(gap)
            if cal.due():
                gap = cal.gap()
            if len(ops) == CHECK_EVERY:
                check_batch()
        if ops:
            check_batch()
        if time.perf_counter() - start >= seconds:
            break
    phase.wall = time.perf_counter() - start
    if recorder is not None:
        recorder.op = -1
    return phase


def evaluate(wl, ops, scales, phase: Phase) -> None:
    """Check ``ops`` (input, output, seconds) and add them to ``phase``.

    Operations that raised or failed a check fail.
    """
    returned = [(inp, out) for inp, out, _ in ops if not isinstance(out, Exception)]
    verdicts = iter(wl.failures(returned))
    for (inp, out, lat), scale in zip(ops, scales):
        phase.attempted += 1
        phase.busy_s += lat * scale
        phase.unscaled_busy_s += lat
        if isinstance(out, Exception):
            fails = [f"raised {type(out).__name__}: {out}"]
        else:
            fails = next(verdicts)
            phase.latencies_ms.append(lat * scale * 1e3)
        items = 0
        if fails:
            phase.failed += 1
            if len(phase.messages) < 5:
                phase.messages.append(f"{inp!r}: {fails[0]}")
        else:
            items = wl.items(out)
            phase.items += items
        kind = wl.kind(inp)
        if kind is not None:
            phase.by_kind.setdefault(kind, []).append((lat * scale * 1e3, items))


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def probe(mode: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), mode, str(seed)],
        env=workloads.child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        cwd=workloads.ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def setup_times(mode: str, seed: int) -> list[float]:
    """Scaled seconds of SETUP_PROBES probes, each between calibration gaps."""
    cal = calibrate.Calibrator(calibrate.START)
    cal.gap()
    times = []
    for _ in range(SETUP_PROBES):
        raw = probe(mode, seed)
        times.append(raw * cal.scale(cal.gap() - 1))
    return times


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: float, q) -> tuple[dict, Phase, dict]:
    wl = workloads.WORKLOADS[name](seed)
    setup_mode = "import" if name == "cli" else name
    setups = setup_times(setup_mode, seed)
    wl.warm_up(q)
    phase = timed_phase(wl, q, seconds)
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    lat = phase.latencies_ms
    metrics = {
        "items_per_s": (phase.items / phase.busy_s, "items/s"),
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_p90_ms": (percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    counts = {
        "operations": phase.attempted,
        "latency_samples": len(lat),
        "setup_samples": len(setups),
        "setup_s_each": setups,
        "timed_wall_s": phase.wall,
        "busy_s": phase.busy_s,
        "unscaled_busy_s": phase.unscaled_busy_s,
        "error_rate": phase.failed / phase.attempted,
    }
    if name == "cli":
        counts["median_ms_by_command"] = {
            kind: statistics.median(ms for ms, _ in ops) for kind, ops in phase.by_kind.items()
        }
    return metrics, phase, counts


def _layer(stats, name):
    return stats.get(name, spans.LayerStats())


def _calls_and_self(out, prefix, stats, names):
    for name in names:
        entry = _layer(stats, name)
        out[f"{prefix}.{name}.calls"] = (entry.calls, "count")
        out[f"{prefix}.{name}.self_ms"] = (entry.self_s * 1e3, "ms")


def _solver_layers(out, prefix, stats):
    solve = _layer(stats, "ratedistortion.solve_alpha")
    point = _layer(stats, "ratedistortion.r1_curve_point")
    returned = point.calls - point.errors
    out[f"{prefix}.ratedistortion.solve_alpha.calls_per_point"] = (solve.calls / returned, "ratio")
    out[f"{prefix}.quantum.KrausChannel.constructions"] = (
        _layer(stats, "quantum.KrausChannel").calls,
        "count",
    )


def _interpolator_layers(out, prefix, span_lists):
    builds = build_s = r1_points = 0
    for recorded in span_lists:
        entry = _layer(spans.aggregate(recorded), "verify.RateCurveInterpolator")
        builds += entry.calls
        build_s += entry.total_s
        r1_points += spans.count_under(
            recorded, "ratedistortion.r1_curve_point", "verify.RateCurveInterpolator"
        )
    out[f"{prefix}.verify.RateCurveInterpolator.build_ms"] = (build_s / builds * 1e3, "ms")
    out[f"{prefix}.verify.RateCurveInterpolator.r1_points"] = (r1_points / builds, "count")


def merge(stat_dicts) -> dict:
    total: dict[str, spans.LayerStats] = {}
    for stats in stat_dicts:
        for name, entry in stats.items():
            acc = total.setdefault(name, spans.LayerStats())
            acc.calls += entry.calls
            acc.self_s += entry.self_s
            acc.total_s += entry.total_s
            acc.errors += entry.errors
    return total


def scipy_import_ms() -> float:
    """Cumulative import time of scipy under ``import qubitrd``, from -X importtime.

    Sums the cumulative column of every scipy module that no other scipy
    module imported, directly or through a module outside scipy.
    """
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qubitrd"],
        env=workloads.child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        cwd=workloads.ROOT,
    )
    rows = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line[len("import time:") :].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        depth = (len(module) - len(module.lstrip())) // 2
        rows.append((depth, module.strip(), int(cumulative)))
    # importtime prints children before their importer; walk it backwards,
    # keeping the chain of importers of the current row.
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for depth, module, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = module.split(".")[0] == "scipy"
        if is_scipy and not any(inside for _, inside in stack):
            total_us += cumulative
        stack.append((depth, is_scipy))
    return total_us / 1e3


def layer_metrics(name, stats, span_lists, phase, interpolators, seed) -> dict:
    """Per-layer metrics of one workload's traced phase."""
    out: dict = {}
    if name in ("curve", "point"):
        names = ["ratedistortion.r1_curve_point", "ratedistortion.solve_alpha",
                 "quantum.average_entropy", "quantum.distortion"]
        if name == "curve":
            names.insert(0, "ratedistortion.sweep_curve")
            out["curve.ratedistortion.solve_alpha.errors"] = (
                _layer(stats, "ratedistortion.solve_alpha").errors,
                "count",
            )
        _calls_and_self(out, name, stats, names)
        _solver_layers(out, name, stats)
    elif name == "verify":
        _calls_and_self(out, name, stats, [
            "quantum.block_distortion", "quantum.marginal_channel",
            "quantum.choi_entanglement_fidelity", "quantum.stinespring_kraus",
            "linalg.partial_trace", "linalg.haar_unitaries",
        ])
        for suite in workloads.VERIFY_KINDS:
            ops = phase.by_kind[suite]
            ms = sum(ms for ms, _ in ops)
            trials = sum(items for _, items in ops)
            out[f"verify.verify.{suite}.us_per_trial"] = (ms / trials * 1e3, "us")
        _interpolator_layers(out, "verify", span_lists)
        info = interpolators.cache_info()
        out["verify.verify.rate_curve_interpolator.hit_ratio"] = (
            info.hits / (info.hits + info.misses),
            "ratio",
        )
    else:
        _calls_and_self(out, "cli", stats, [
            "realization.build_circuit", "ratedistortion.sweep_curve",
            "ratedistortion.r1_curve_point",
        ])
        stream = _layer(stats, "realization.simulate_stream")
        samples = stream.calls * workloads.CLI_SAMPLES
        out["cli.realization.simulate_stream.ns_per_sample"] = (
            stream.total_s / samples * 1e9,
            "ns",
        )
        out["cli.cli.main.self_ms"] = (_layer(stats, "cli.main").self_s * 1e3, "ms")
        _interpolator_layers(out, "cli", span_lists)
        bare = statistics.median(setup_times("bare", seed))
        full = statistics.median(setup_times("import", seed))
        out["cli.cli.import_ms"] = ((full - bare) * 1e3, "ms")
        out["cli.cli.import.scipy_ms"] = (
            statistics.median(scipy_import_ms() for _ in range(SETUP_PROBES)),
            "ms",
        )
    return out


def traced(seed: int, seconds: float, q) -> tuple[dict, list, dict]:
    """Untraced then traced phase of every workload; per-layer metrics."""
    OUT_DIR.mkdir(exist_ok=True)
    share = seconds / len(workloads.WORKLOADS)
    metrics: dict = {}
    outcomes = []
    notes: dict = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed)
        wl.warm_up(q)
        plain = timed_phase(wl, q, share)
        recorder = spans.Recorder()
        # The wrapper hides the lru_cache API, so keep the cached function.
        interpolators = q.verify.rate_curve_interpolator
        if name == "cli":
            wl.spans_dir = OUT_DIR / "cli-spans"
            wl.spans_dir.mkdir(exist_ok=True)
            for stale in wl.spans_dir.glob("cli-*.jsonl"):
                stale.unlink()
            phase = timed_phase(wl, q, share, recorder)
            span_lists = [spans.load(path) for path in sorted(wl.spans_dir.glob("cli-*.jsonl"))]
        else:
            uninstall = spans.install(recorder, q)
            try:
                if name == "verify":
                    # Trace the interpolator builds that warm-up normally hides.
                    interpolators.cache_clear()
                    wl.warm_up(q)
                phase = timed_phase(wl, q, share, recorder)
            finally:
                uninstall()
            span_lists = [recorder.finished()]
            recorder.dump(OUT_DIR / f"trace-{name}.jsonl")
        stats = merge(spans.aggregate(s) for s in span_lists)
        outcomes += [plain, phase]
        base = percentile(plain.latencies_ms, 50)
        slow = percentile(phase.latencies_ms, 50)
        metrics[f"{name}.trace.overhead_pct"] = ((slow / base - 1.0) * 100.0, "%")
        notes[name] = {
            "untraced_operations": plain.attempted,
            "traced_operations": phase.attempted,
            "spans": sum(len(s) for s in span_lists),
            "untraced_op_p50_ms": base,
            "traced_op_p50_ms": slow,
        }

        metrics.update(layer_metrics(name, stats, span_lists, phase, interpolators, seed))
    return metrics, outcomes, notes


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    scipy = sys.modules.get("scipy")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", "not imported"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {
            key: os.environ.get(key, "unset")
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    head = workloads.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (workloads.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (workloads.SRC / "qubitrd" / "__init__.py").is_file():
        print(f"error: no qubitrd source tree under {workloads.SRC}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and the interpreters it starts, so that the
    # calibration kernel runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(workloads.SRC))
    import qubitrd
    import qubitrd.cli  # noqa: F401  (the traced run wraps cli.main)

    if args.trace:
        metrics, outcomes, notes = traced(args.seed, args.seconds, qubitrd)
        print("waiting time: not reported; one caller, no queues, so no span waits")
    else:
        metrics, outcome, notes = end_to_end(args.workload, args.seed, args.seconds, qubitrd)
        outcomes = [outcome]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    items = sum(o.items for o in outcomes)

    print("provenance: " + json.dumps(provenance(args)))
    print("counts: " + json.dumps(notes))
    for o in outcomes:
        for message in o.messages[:5]:
            print(f"failed operation: {message}")
    if not args.trace:
        print(f"error_rate = {failed / attempted!r} fraction ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        # Every operation was checked; those that raised or failed a check are
        # counted in "failed" and excluded from items.
        "correct": items > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
