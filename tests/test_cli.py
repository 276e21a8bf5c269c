import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qubitrd
from qubitrd import cli, verify
from qubitrd.ratedistortion import SourceSpec, r1_curve_point, sweep_curve


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return header, rows


def test_curve_r1_isotropic(capsys):
    code, out = _run(capsys, ["curve", "r1", "--p0", "0.5", "--points", "101"])
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["delta", "alpha", "d", "R", "r", "lambda1"]
    assert len(rows) == 101
    assert rows[0]["d"] == 0.0
    assert rows[0]["R"] == pytest.approx(1.0, abs=1e-12)


def test_curve_r1_biased_endpoint(capsys):
    code, out = _run(capsys, ["curve", "r1", "--p0", "0.7", "--points", "101"])
    assert code == 0
    _, rows = _csv_rows(out)
    assert rows[-1]["d"] == pytest.approx(0.42, abs=1e-12)
    assert rows[-1]["R"] <= 1e-9


@pytest.mark.parametrize("p0", ["0.999", "0.99999", "0.999999", "0.9999999999999"])
def test_curve_r1_high_p0_exits_zero(capsys, p0):
    # Every optimal angle lies inside (0, pi/2 - delta), some of them within
    # 1e-6 of 0 at these p0, and every row is finite.
    code, out = _run(capsys, ["curve", "r1", "--p0", p0, "--points", "101"])
    assert code == 0
    _, rows = _csv_rows(out)
    assert len(rows) == 101
    assert all(math.isfinite(v) for row in rows for v in row.values())
    rates = [row["R"] for row in rows]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_curve_classical_isotropic_rate_column(capsys):
    # the classical side-information rate is the r column of `curve r1`
    code, out = _run(capsys, ["curve", "r1", "--p0", "0.5", "--points", "51"])
    assert code == 0
    _, rows = _csv_rows(out)
    assert all(abs(row["r"] - 1.0) <= 1e-9 for row in rows)


def test_curve_s1_schema(capsys):
    code, out = _run(capsys, ["curve", "s1", "--p0", "0.7", "--points", "11"])
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["theta", "d", "S"]
    assert len(rows) == 11
    assert rows[0]["d"] == pytest.approx(0.0, abs=1e-12)
    assert rows[-1]["d"] == pytest.approx(0.3, abs=1e-12)


def test_curve_output_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["curve", "r1", "--p0", "0.6", "--points", "31"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_curve_json_mirrors_csv(capsys):
    code, csv_text = _run(
        capsys, ["curve", "r1", "--p0", "0.7", "--points", "11"]
    )
    assert code == 0
    code, json_text = _run(
        capsys,
        ["curve", "r1", "--p0", "0.7", "--points", "11", "--format", "json"],
    )
    assert code == 0
    _, rows = _csv_rows(csv_text)
    json_rows = json.loads(json_text)
    assert len(json_rows) == len(rows)
    for a, b in zip(rows, json_rows):
        for key, value in a.items():
            assert b[key] == pytest.approx(value, abs=0.0)


@pytest.mark.parametrize(
    "flags",
    [
        ["curve", "r1", "--p0", "0.3"],
        ["curve", "r1", "--p0", "1.0"],
        ["curve", "r1", "--points", "1"],
        ["curve", "r1", "--tol", "0.01"],
        ["verify", "lemma1", "--trials", "0"],
        ["verify", "search", "--seed", "-1", "--trials", "5"],
        ["simulate", "--delta", "0.8", "--seed", "-1"],
        ["simulate", "--delta", "0.8", "--seed", str(2**128)],
    ],
)
def test_config_validation(capsys, flags):
    if "--tol" in flags:
        # the angle is closed form, with no tolerance, so argparse rejects it
        with pytest.raises(SystemExit) as exc:
            cli.main(flags)
        assert exc.value.code == 2
    else:
        code, _ = _run(capsys, flags)
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["verify", "lemma1", "--seed", "-1"], ["simulate", "--delta", "0.8", "--seed", "-1"]],
    ids=["verify", "simulate"],
)
def test_negative_seed_takes_the_library_check(capsys, argv):
    # The CLI passes the seed on; the library's integer check rejects it.
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: seed must be an integer")


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "r1", "--seed", "9"],
        ["curve", "s1", "--trials", "5"],
        ["curve", "r1", "--samples", "2"],
        ["verify", "search", "--points", "7"],
        ["verify", "lemma1", "--samples", "3"],
        ["simulate", "--delta", "0.8", "--points", "7"],
        ["simulate", "--delta", "0.8", "--trials", "5"],
    ],
)
def test_subcommand_rejects_flags_it_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma1", "--p0", "0.7"],
        ["verify", "lemma2", "--p0", "0.5"],
        ["verify", "isotropic", "--p0", "0.9", "--trials", "5"],
        ["verify", "perturbation", "--trials", "5"],
        ["verify", "perturbation", "--seed", "3"],
    ],
)
def test_verify_suite_rejects_values_it_does_not_read(capsys, argv):
    # lemma1, lemma2 and isotropic read no source, perturbation runs a fixed
    # grid and draws nothing: a value they would ignore is a usage error,
    # even the default one
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "does not read --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma1", "--trials", "5"],
        ["verify", "isotropic", "--trials", "5", "--seed", "3"],
        ["verify", "perturbation", "--p0", "0.7"],
        ["verify", "theorem1", "--p0", "0.7", "--trials", "5"],
        ["verify", "search", "--p0", "0.9", "--trials", "5"],
        ["verify", "blocks", "--p0", "0.5", "--trials", "5"],
        ["verify", "all", "--p0", "0.7", "--trials", "5"],
    ],
)
def test_verify_suite_takes_values_it_reads(capsys, argv):
    assert cli.main(argv) == 0


def test_verify_lemma1(capsys, tmp_path):
    out = tmp_path / "report.txt"
    code = cli.main(
        ["verify", "lemma1", "--trials", "500", "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.count("suite_name: lemma1") == 3
    assert "passed: true" in text


def test_verify_all_aggregate(capsys):
    code, out = _run(
        capsys, ["verify", "all", "--trials", "100", "--seed", "7", "--format", "json"]
    )
    assert code == 0
    reports = json.loads(out)
    names = {r["suite_name"] for r in reports}
    assert names == {
        "lemma1", "lemma2", "theorem1", "perturbation", "search", "blocks",
        "isotropic",
    }
    assert all(r["passed"] for r in reports)


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    failed = verify.VerificationReport(
        suite_name="lemma1",
        n_trials=1,
        n_violations=1,
        worst_violation=0.5,
        seed=0,
        params={},
        passed=False,
        tolerance=1e-9,
    )
    monkeypatch.setattr(verify, "check_lemma1", lambda *a, **k: failed)
    code, _ = _run(capsys, ["verify", "lemma1", "--trials", "10"])
    assert code == 1


def test_simulate_record(capsys):
    code, out = _run(
        capsys,
        [
            "simulate", "--p0", "0.5", "--delta", "0.8",
            "--samples", "200000", "--seed", "1", "--format", "json",
        ],
    )
    assert code == 0
    record = json.loads(out)
    assert abs(record["empirical_lambda1"] - 0.5) <= 3 * 0.5 / (200000**0.5)
    assert record["analytic_lambda1"] == pytest.approx(0.5, abs=1e-9)
    assert record["analytic_classical_rate"] == pytest.approx(1.0, abs=1e-9)
    for key in ("quantum_rate", "analytic_distortion", "alpha", "type1_count"):
        assert key in record


def test_simulate_deterministic(tmp_path):
    argv = [
        "simulate", "--p0", "0.7", "--delta", "0.5",
        "--samples", "10000", "--seed", "3",
    ]
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("p0", ["0.5", "0.7"])
@pytest.mark.parametrize("delta", [1e-13, math.pi / 2 - 1e-13])
def test_simulate_end_row_angle_is_the_points(capsys, p0, delta):
    # within ENDPOINT_CUTOFF of an end the record is the curve's end row,
    # its angle included: pi/4 at p0 0.5 and delta -> 0, else 0
    argv = ["simulate", "--p0", p0, "--delta", repr(delta), "--samples", "10"]
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    record = json.loads(out)
    point = r1_curve_point(delta, SourceSpec(float(p0)))
    assert record["alpha"] == point.alpha
    assert record["analytic_lambda1"] == point.lambda1
    assert record["alpha"] == (math.pi / 4 if (p0, delta) == ("0.5", 1e-13) else 0.0)


def test_simulate_takes_the_optimal_angle_at_small_delta(capsys):
    # alpha / delta -> p1 / (p0 - p1) = 0.75 as delta -> 0, so the pair is
    # nearly the identity's: every sample is type 1 and the classical rate
    # is about 0 (not alpha = pi/4, lambda1 = 1/2 and rate 1).
    argv = ["simulate", "--p0", "0.7", "--delta", "2e-12", "--samples", "1000", "--seed", "3"]
    code, out = _run(capsys, argv)
    assert code == 0
    record = dict(line.split(": ", 1) for line in out.splitlines())
    assert float(record["alpha"]) == pytest.approx(1.5e-12, rel=1e-12)
    assert float(record["analytic_lambda1"]) == pytest.approx(1.0, abs=1e-15)
    assert 0.0 <= float(record["analytic_classical_rate"]) < 1e-20
    assert int(record["type1_count"]) == 1000


def test_simulate_domain_error(capsys):
    code, _ = _run(capsys, ["simulate", "--p0", "0.5", "--delta", "2.0"])
    assert code == 2
    # one delta rule, r1_curve_point's: NaN or 0.1 beyond either end
    for delta in ("nan", "-0.1", repr(math.pi / 2 + 0.1)):
        assert cli.main(["simulate", "--delta", delta]) == 2
        assert "delta must lie in [0, pi/2]" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["0", "1.5707963267948966"])
def test_simulate_takes_both_ends_of_the_delta_range(capsys, delta):
    argv = ["simulate", "--p0", "0.7", "--delta", delta, "--samples", "1000", "--seed", "3"]
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    record = json.loads(out)
    point = r1_curve_point(float(delta), SourceSpec(0.7))
    assert record["alpha"] == point.alpha == 0.0
    assert record["analytic_lambda1"] == point.lambda1
    assert record["analytic_classical_rate"] == point.r


@pytest.mark.parametrize("p0, code", [("0.96", 0), ("0.9875", 0), ("0.99", 2)])
def test_verify_perturbation_exit_code_at_high_p0(capsys, p0, code):
    # `all` stops at the first suite that raises, so from p0 0.99 it exits 2
    # with the perturbation suite's domain error, as the README documents.
    for suite in ("perturbation", "all"):
        assert cli.main(["verify", suite, "--p0", p0]) == code
        if code == 2:
            assert "no (delta, |x|) cell" in capsys.readouterr().err


def test_solver_failure_exit_code(capsys, monkeypatch):
    from qubitrd.errors import InternalNumericError

    def boom(*args, **kwargs):
        raise InternalNumericError("no sign change")

    monkeypatch.setattr(cli, "sweep_curve", boom)
    code = cli.main(["curve", "r1", "--points", "5"])
    assert code == 3
    assert "no sign change" in capsys.readouterr().err


def test_unwritable_output_path(capsys):
    code = cli.main(
        ["curve", "r1", "--points", "5", "--out", "/nonexistent-dir/x.csv"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "/nonexistent-dir/x.csv" in err


def test_csv_floats_round_trip(capsys):
    for p0, points in (("0.7", 11), ("0.999999", 513)):
        code, out = _run(capsys, ["curve", "r1", "--p0", p0, "--points", str(points)])
        assert code == 0
        _, rows = _csv_rows(out)
        curve = sweep_curve(SourceSpec(float(p0)), points)
        assert len(rows) == len(curve) == points
        for row, pt in zip(rows, curve):
            assert row["R"] == pt.R
            assert row["d"] == pt.d
            assert row["lambda1"] == pt.lambda1
        for line, pt in zip(out.splitlines()[1:], curve):
            assert line.split(",") == [format(v, ".17g") for v in pt]


def test_record_text_exact_bytes():
    record = {
        "passed": True,
        "worst": 0.1 + 0.2,
        "n_trials": 7,
        "params": {"zeta": [0.1, 2], "alpha": {"b": False, "a": None}},
        "failures": ({"trial": 3, "excess": 2.5}, {"trial": 9}),
    }
    assert cli._record_text(record) == (
        "passed: true\n"
        "worst: 0.30000000000000004\n"
        "n_trials: 7\n"
        'params: {"alpha": {"a": null, "b": false}, "zeta": [0.10000000000000001, 2]}\n'
        'failures: [{"excess": 2.5, "trial": 3}, {"trial": 9}]\n'
    )


@pytest.mark.parametrize("which, builder", [("r1", "sweep_curve"), ("s1", "s1_curve_point")])
def test_curve_rejects_points_above_bound(capsys, monkeypatch, which, builder):
    # the bound is checked before any sweep is built
    def boom(*args):
        raise AssertionError("sweep built past the --points bound")

    monkeypatch.setattr(cli, builder, boom)
    assert cli.main(["curve", which, "--points", str(2**20 + 2)]) == 2
    assert "--points must lie in [2, 1048577]" in capsys.readouterr().err


def test_curve_takes_points_at_bound(capsys, monkeypatch):
    calls = []
    empty = sweep_curve(SourceSpec(0.5), 2)[:0]
    monkeypatch.setattr(cli, "sweep_curve", lambda *args: calls.append(args) or empty)
    assert cli.main(["curve", "r1", "--points", str(2**20 + 1)]) == 0
    assert calls == [(SourceSpec(0.5), 2**20 + 1)]


def _python(probe, *args):
    """Run ``probe`` in a fresh interpreter that imports qubitrd from this tree."""
    src = str(Path(qubitrd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True
    )


def test_import_loads_no_scipy():
    # every CLI run pays the import; the package needs numpy alone. The
    # exports resolve on first use, so the probe resolves all of them and
    # every submodule before it looks.
    probe = (
        "import sys, qubitrd; "
        "[getattr(qubitrd, name) for name in qubitrd.__all__]; "
        "[getattr(qubitrd, name) for name in qubitrd._SUBMODULES]; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = _python(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["curve", "r1"], ["qubitrd.realization", "qubitrd.verify"]),
        (["curve", "s1"], ["qubitrd.realization", "qubitrd.verify"]),
        (["simulate", "--delta", "0.8", "--samples", "1000"], ["qubitrd.verify"]),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, absent):
    probe = (
        "import sys; from qubitrd import cli; code = cli.main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.startswith('qubitrd'))); "
        "sys.exit(code)"
    )
    result = _python(probe, *argv, "--out", os.devnull)
    assert result.returncode == 0, result.stderr
    loaded = ast.literal_eval(result.stdout)
    assert "qubitrd.ratedistortion" in loaded
    assert not set(absent) & set(loaded)


def test_verify_suites_are_the_suite_names():
    # the parser's literal tuple, so that it needs no verify import
    assert cli.VERIFY_SUITES == verify.SUITE_NAMES + ("all",)


def test_every_export_resolves_to_its_module_attribute():
    for name in qubitrd.__all__:
        value = getattr(qubitrd, name)
        if name != "__version__":
            module = getattr(qubitrd, qubitrd._EXPORTS[name])
            assert value is getattr(module, name), name
    for name in qubitrd._SUBMODULES:
        assert getattr(qubitrd, name) is sys.modules[f"qubitrd.{name}"]


def test_dir_lists_exports_and_submodules():
    listed = set(dir(qubitrd))
    assert set(qubitrd.__all__) <= listed
    assert {"cli", "errors", "linalg", "quantum", "ratedistortion", "realization", "verify"} <= listed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        qubitrd.bogus
    with pytest.raises(ImportError):
        from qubitrd import bogus  # noqa: F401


# The private names a package module takes from another one, as
# (module, owner.name). Everything else crosses a module boundary by a
# public name.
PRIVATE_CROSSINGS = {
    ("ratedistortion", "quantum._h2_float"),
    ("ratedistortion", "quantum._h2_unchecked"),
    ("verify", "ratedistortion._optimal_alpha"),
    ("verify", "ratedistortion._pair_figures"),
    ("verify", "quantum._distortion_terms"),
    ("verify", "SourceSpec._distortion"),
}
# NamedTuple's own API, whose names start with an underscore
NAMEDTUPLE_API = {"_asdict", "_field_defaults", "_fields", "_make", "_replace"}


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_modules_take_only_the_listed_private_names_of_another():
    # `from .m import _x`, `m._x` on an imported package module, and
    # `obj._x` where _x is a method of a class another module defines
    # (`src._distortion`); not `self._x`, nor NamedTuple's `_fields`. A
    # private attribute of any other kind is listed under its own receiver,
    # so that it fails here until it is named.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(qubitrd.__file__).parent.glob("*.py")
    }
    methods = {}  # private method name -> (module, class)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _is_private(item.name):
                        methods[item.name] = (module, node.name)
    found = set()
    for module, tree in trees.items():
        aliases = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    elif _is_private(alias.name):
                        found.add((module, f"{node.module}.{alias.name}"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
                continue
            receiver, name = node.value.id, node.attr
            if not _is_private(name) or receiver in ("self", "cls") or name in NAMEDTUPLE_API:
                continue
            if receiver in aliases:
                found.add((module, f"{aliases[receiver]}.{name}"))
            elif name in methods:
                owner, cls = methods[name]
                if owner != module:
                    found.add((module, f"{cls}.{name}"))
            else:
                found.add((module, f"{receiver}.{name}"))
    assert found == PRIVATE_CROSSINGS
