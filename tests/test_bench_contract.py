"""The names the benchmark in ``perfbench/`` reads from qubitrd still exist.

The benchmark runs on an unchanged copy of its own code, so a change that
deletes or renames a name it calls breaks the benchmark run. These tests
import the benchmark's workloads and span tracer and exercise the package
through them, so such a change fails here first.
"""

import sys
from pathlib import Path

import pytest

import qubitrd
import qubitrd.cli  # noqa: F401  (the tracer wraps cli.main)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["curve", "point", "verify"])
def test_workload_warm_up_runs(name):
    workloads.WORKLOADS[name](1).warm_up(qubitrd)


def test_cli_warm_up_content_checks_pass():
    # The benchmark's own checks of each command's stdout (CSV and JSON
    # shape, curve identities, simulate's estimates) on its fixed CLI mix.
    wl = workloads.WORKLOADS["cli"](1)
    wl.warm_up(qubitrd)
    assert len(wl.references) == len(wl.commands())
    assert {cmd: failures for cmd, (_, failures) in wl.references.items() if failures} == {}


def test_verify_workload_perturbation_passes_at_every_p0():
    # The benchmark's own perturbation inputs and checks, at every p0 it
    # runs, so a suite that fails on one of them fails here first.
    wl = workloads.WORKLOADS["verify"](1)
    inputs = [inp for inp in next(wl.cycles()) if inp[0] == "perturbation"]
    assert [p0 for _, p0, _ in inputs] == list(workloads.VERIFY_P0S)
    ops = [(inp, wl.run(qubitrd, inp)) for inp in inputs]
    assert wl.failures(ops) == [[] for _ in ops]


def test_span_tracer_installs_and_undoes():
    original = qubitrd.ratedistortion.r1_curve_point
    undo = spans.install(spans.Recorder(), qubitrd)
    try:
        assert qubitrd.ratedistortion.r1_curve_point is not original
    finally:
        undo()
    assert qubitrd.ratedistortion.r1_curve_point is original


@pytest.mark.parametrize("name", ["curve", "point"])
def test_traced_layer_metrics_compute(name):
    # The traced run divides the spans it names ratedistortion.solve_alpha
    # by the r1_curve_point calls that returned, so a sweep must still
    # return at least one through it. The package has no solve_alpha (the
    # public angle is r1_curve_point's alpha), so the tracer records no such
    # span and the ratio is 0 on both workloads.
    wl = workloads.WORKLOADS[name](1)
    inputs = [0.7] if name == "curve" else next(wl.cycles())[:2]
    recorder = spans.Recorder()
    undo = spans.install(recorder, qubitrd)
    try:
        for inp in inputs:
            wl.run(qubitrd, inp)
    finally:
        undo()
    recorded = recorder.finished()
    stats = spans.aggregate(recorded)
    point = stats["ratedistortion.r1_curve_point"]
    assert point.calls - point.errors >= 1
    metrics = run.layer_metrics(name, stats, [recorded], None, None, 1)
    ratio = metrics[f"{name}.ratedistortion.solve_alpha.calls_per_point"][0]
    assert ratio == 0.0


def test_dominance_suites_build_the_traced_curve_object():
    # The traced verify phase clears and reads rate_curve_interpolator's
    # cache, hooks RateCurveInterpolator.__init__, and divides by the
    # number of builds, so a dominance suite must build one through it.
    interpolators = qubitrd.verify.rate_curve_interpolator
    recorder = spans.Recorder()
    undo = spans.install(recorder, qubitrd)
    try:
        interpolators.cache_clear()
        qubitrd.verify.run_suite("search", qubitrd.ratedistortion.SourceSpec(0.7), 10, 0)
    finally:
        undo()
    recorded = recorder.finished()
    assert spans.aggregate(recorded)["verify.RateCurveInterpolator"].calls >= 1
    out: dict = {}
    run._interpolator_layers(out, "verify", [recorded])
    assert out["verify.verify.RateCurveInterpolator.build_ms"][0] > 0
    assert interpolators.cache_info().misses >= 1
