import json

import pytest

from qubitrd import cli, verify


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
    argv = ["curve", "r1", "--p0", "0.6", "--points", "31", "--seed", "5"]
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
        ["--p0", "0.3"],
        ["--p0", "1.0"],
        ["--points", "1"],
        ["--tol", "0.01"],
        ["--trials", "0"],
    ],
)
def test_config_validation(capsys, flags):
    if flags[0] == "--tol":
        # the solver bisects to a fixed width, so argparse rejects the flag
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "r1", *flags])
        assert exc.value.code == 2
    else:
        code, _ = _run(capsys, ["curve", "r1", *flags])
        assert code == 2


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


def test_simulate_domain_error(capsys):
    code, _ = _run(capsys, ["simulate", "--p0", "0.5", "--delta", "2.0"])
    assert code == 2


def test_solver_failure_exit_code(capsys, monkeypatch):
    from qubitrd.errors import RootNotFoundError

    def boom(*args, **kwargs):
        raise RootNotFoundError("no sign change")

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
    code, out = _run(capsys, ["curve", "r1", "--p0", "0.7", "--points", "11"])
    assert code == 0
    _, rows = _csv_rows(out)
    from qubitrd.ratedistortion import SourceSpec, sweep_curve

    points = sweep_curve(SourceSpec(0.7), 11)
    for row, pt in zip(rows, points):
        assert row["R"] == pt.R
        assert row["d"] == pt.d
        assert row["lambda1"] == pt.lambda1
