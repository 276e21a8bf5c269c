"""Tests of the benchmark's own code: span arithmetic, checks, generators.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, raised=False):
    return spans.Span(name, start, end, parent, 0, raised)


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 6.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("b", 3.5, 5.0, 1, raised=True),
        _span("a", 7.0, 9.0, 0),
    ]
    stats = spans.aggregate(tree)
    assert stats["op"].self_s == pytest.approx(10.0 - 5.0 - 2.0)
    assert stats["a"].calls == 2
    assert stats["a"].total_s == pytest.approx(7.0)
    assert stats["a"].self_s == pytest.approx((5.0 - 2.5) + 2.0)
    assert stats["b"].self_s == pytest.approx(2.5)
    assert stats["b"].errors == 1
    assert spans.count_under(tree, "b", "a") == 2
    assert spans.count_under(tree, "a", "b") == 0


def test_recorder_nests_spans_and_restores_bindings():
    import qubitrd
    import qubitrd.cli  # noqa: F401

    original = qubitrd.ratedistortion.solve_alpha
    recorder = spans.Recorder()
    undo = spans.install(recorder, qubitrd)
    try:
        assert qubitrd.verify.solve_alpha is not original
        qubitrd.r1_curve_point(0.8, qubitrd.SourceSpec(0.7))
    finally:
        undo()
    assert qubitrd.ratedistortion.solve_alpha is original
    assert qubitrd.verify.solve_alpha is original
    recorded = recorder.finished()
    names = [s.name for s in recorded]
    assert names[0] == "ratedistortion.r1_curve_point"
    assert "quantum.KrausChannel" in names
    solve = next(s for s in recorded if s.name == "ratedistortion.solve_alpha")
    assert recorded[solve.parent].name == "ratedistortion.r1_curve_point"


def _isotropic_sweep(n=65):
    """An exact p0 = 1/2 sweep from the closed forms."""
    delta = np.linspace(0.0, math.pi / 2, n)
    d = 0.5 * (1.0 - np.cos(delta))
    alpha = math.pi / 4 - delta / 2
    rate = checks.h2(0.5 + np.sqrt(d * (1.0 - d)))
    return delta, alpha, d, rate


def test_exact_isotropic_sweep_passes():
    assert checks.curve_failures(0.5, *_isotropic_sweep()) == []


def test_alpha_off_by_1e_6_at_p0_half_is_flagged():
    delta, alpha, d, rate = _isotropic_sweep()
    alpha = alpha.copy()
    alpha[10] += 1e-6
    fails = checks.curve_failures(0.5, delta, alpha, d, rate)
    assert any("pi/4 - delta/2" in f for f in fails)


@pytest.mark.parametrize("p0", [0.5, 0.8])
def test_rate_raised_by_1e_6_is_flagged(p0):
    if p0 == 0.5:
        delta, alpha, d, rate = _isotropic_sweep()
    else:
        import qubitrd

        pts = qubitrd.sweep_curve(qubitrd.SourceSpec(p0), 33)
        delta, alpha, d, rate = (np.array([getattr(p, f) for p in pts]) for f in ("delta", "alpha", "d", "R"))
        assert checks.curve_failures(p0, delta, alpha, d, rate) == []
    rate = rate.copy()
    rate[12] += 1e-6
    fails = checks.curve_failures(p0, delta, alpha, d, rate)
    assert any("dense-grid minimum" in f for f in fails)


def test_sweep_level_checks():
    delta, alpha, d, rate = _isotropic_sweep()
    bumped = rate.copy()
    bumped[0] -= 1e-9
    assert any("R(0)" in f for f in checks.curve_failures(0.5, delta, alpha, d, bumped))
    wrong_d = d.copy()
    wrong_d[5] += 1e-9
    assert any("distortion identity" in f for f in checks.curve_failures(0.5, delta, alpha, wrong_d, rate))


def test_failed_report_is_flagged():
    ok = {"suite_name": "blocks", "passed": True, "n_violations": 0}
    bad = {"suite_name": "search", "passed": False, "n_violations": 3}
    assert checks.report_failures([ok]) == []
    assert len(checks.report_failures([ok, bad])) == 1


def test_cli_exit_code_and_altered_stdout_are_flagged():
    command = ["curve", "s1", "--points", "201", "--p0", "0.5"]
    assert checks.cli_failures(command, 0.5, "x", "x", 3) == ["exit code 3"]
    assert checks.cli_failures(command, 0.5, "x\n", "x", 0) == ["stdout differs from the warm-up run"]
    assert checks.cli_failures(command, 0.5, "x", "x", 0) == []


def test_stream_bound():
    record = {"alpha": repr(0.3), "n_samples": "1000000"}
    lam1 = 0.7 * math.cos(0.3) ** 2 + 0.3 * math.cos(1.1) ** 2
    record["type1_count"] = str(round(1e6 * lam1))
    assert checks.stream_failures(0.7, 0.8, record) == []
    record["type1_count"] = str(round(1e6 * lam1) + 5000)
    assert checks.stream_failures(0.7, 0.8, record) != []


def _first_cycles(wl, n=3):
    return list(itertools.islice(wl.cycles(), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    assert _first_cycles(cls(7)) == _first_cycles(cls(7))


def test_seeds_change_random_inputs():
    assert _first_cycles(workloads.Point(1)) != _first_cycles(workloads.Point(2))
    assert _first_cycles(workloads.Verify(1)) != _first_cycles(workloads.Verify(2))
    assert workloads.Cli(1).commands() != workloads.Cli(2).commands()


def test_verify_mix_covers_every_suite():
    import qubitrd

    assert workloads.VERIFY_SUITES == qubitrd.verify.SUITE_NAMES
    cycle = _first_cycles(workloads.Verify(0), 1)[0]
    assert len(cycle) == len(workloads.VERIFY_P0S) * len(workloads.VERIFY_SUITES) + 1
    assert {name for name, _, _ in cycle} == set(workloads.VERIFY_KINDS)


def test_cli_mix_holds_every_command_at_every_p0():
    mix = workloads.Cli(0).commands()
    pairs = {(command[0] + command[1], p0) for command, p0 in mix}
    assert len(mix) == 12 and len(pairs) == 12


def test_evaluate_counts_raised_and_checked_failures():
    class Fake:
        def failures(self, ops):
            return [[] if out == "good" else ["bad output"] for _, out in ops]

        def items(self, out):
            return 2

        def kind(self, inp):
            return inp % 2

    ops = [(1, "good", 0.1), (2, "bad", 0.2), (3, RuntimeError("x"), 0.3), (4, "good", 0.4)]
    phase = run.Phase()
    run.evaluate(Fake(), ops, [1.0, 1.0, 2.0, 0.5], phase)
    run.evaluate(Fake(), ops[:1], [3.0], phase)
    assert (phase.attempted, phase.failed, phase.items) == (5, 2, 6)
    assert list(phase.latencies_ms) == pytest.approx([100.0, 200.0, 200.0, 300.0])
    assert phase.busy_s == pytest.approx(0.1 + 0.2 + 0.6 + 0.2 + 0.3)
    assert phase.by_kind[0] == pytest.approx([(200.0, 0), (200.0, 2)])
    assert len(phase.messages) == 2


def test_calibration_scales_by_the_gaps_around_a_time():
    cal = calibrate.Calibrator()
    cal.gaps = [[1.0, 1.0], [2.0, 2.0, 9.0], [3.0], [8.0, 8.0, 8.0], [9.0]]
    ref = calibrate.COMPUTE.reference_s
    assert cal.scale(0) == pytest.approx(ref / 2.0)  # gaps 0-2
    assert cal.scale(1) == pytest.approx(ref / 3.0)  # gaps 0-3
    assert cal.scale(3) == pytest.approx(ref / 8.0)  # gaps 2-4


def test_point_seeds_order_one_fixed_pool():
    one, two = (_first_cycles(workloads.Point(seed), 1)[0] for seed in (1, 2))
    assert len(one) == workloads.POINT_POOL
    assert one != two and sorted(one) == sorted(two)


def test_missing_source_tree_exits_non_zero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_phase_records_operation_ids(monkeypatch):
    import qubitrd

    monkeypatch.setattr(workloads, "POINT_POOL", 64)
    recorder = spans.Recorder()
    wl = workloads.Point(3)
    undo = spans.install(recorder, qubitrd)
    try:
        phase = run.timed_phase(wl, qubitrd, 0.0, recorder)
    finally:
        undo()
    recorded = recorder.finished()
    ops = [s for s in recorded if s.name == "bench.op"]
    assert len(ops) == phase.attempted == 64
    assert [s.op for s in ops] == list(range(len(ops)))
    assert all(recorded[s.parent].name == "bench.op" for s in recorded if s.name == "ratedistortion.r1_curve_point")


def test_scipy_import_time_is_positive():
    assert run.scipy_import_ms() > 0

