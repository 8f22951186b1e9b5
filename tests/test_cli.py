"""Command-line behaviour: outputs, exit codes, determinism."""

import json
import math
import os
import stat
from dataclasses import replace

import pytest

from starsched import cli
from starsched.cli import run


def test_avg_trials_first_row(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    assert run(["avg-trials", "--m-max", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,avg_trials"
    m, value = lines[1].split(",")
    assert m == "1" and float(value) == 2.0


def test_compare_serial_row(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run(["compare-serial", "--n", "4", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "4" and row[1] == "1856"
    assert 0 < float(row[3]) < 100


def test_simulate_rus_outputs(tmp_path):
    out = tmp_path / "summary.json"
    hist = tmp_path / "hist.csv"
    code = run(
        [
            "simulate-rus", "--m", "4", "--runs", "50", "--seed", "1",
            "--out", str(out), "--hist", str(hist),
        ]
    )
    assert code == 0
    summary = json.loads(out.read_text())
    assert set(summary) == {"mean", "p50", "p95", "max", "runs", "seed"}
    assert summary["runs"] == 50 and summary["seed"] == 1
    rows = hist.read_text().splitlines()
    assert rows[0] == "clock,count"
    assert sum(int(r.split(",")[1]) for r in rows[1:]) == 50


def test_compile_trotter_outputs(tmp_path):
    out = tmp_path / "summary.json"
    timeline = tmp_path / "timeline.jsonl"
    code = run(
        ["compile-trotter", "--n", "4", "--out", str(out), "--timeline", str(timeline)]
    )
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["fixed_clocks"] == 14 * 4 + 55
    assert summary["L"] == 3
    assert {g["basis"] for g in summary["rus_groups"]} == {"Z", "ZZ"}
    assert all(json.loads(line) for line in timeline.read_text().splitlines())


def test_compile_trotter_timeline_written_atomically(tmp_path):
    from starsched.trotter import compile_step

    timeline = tmp_path / "timeline.jsonl"
    code = run(["compile-trotter", "--n", "3", "--timeline", str(timeline)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["timeline.jsonl"]
    assert timeline.read_text() == compile_step(3).timeline.to_jsonl()


def test_outputs_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        timeline = tmp_path / "timeline.jsonl"
        out = tmp_path / "summary.json"
        code = run(
            ["compile-trotter", "--n", "3", "--timeline", str(timeline),
             "--out", str(out)]
        )
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(timeline.stat().st_mode) == 0o644
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_estimate_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    assert run(["estimate", "--n", "4"]) == 2  # no error norm, no calibration
    assert (
        run(["estimate", "--n", "4", "--calibrate-nmax", "3397", "--out", str(out)])
        == 0
    )
    report = json.loads(out.read_text())
    assert report["d"] == 9


def test_estimate_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trotter": {"w_norm": 1.0e7}}))
    out = tmp_path / "report.json"
    assert run(["estimate", "--n", "4", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["w_norm"] == 1.0e7


def test_malformed_config_names_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qcels": {"shots": 5}}))
    assert run(["estimate", "--n", "4", "--config", str(cfg)]) == 1
    assert "qcels.shots" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["estimate", "--n", "4", "--config", str(cfg)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_qcels_demo_output(tmp_path):
    out = tmp_path / "demo.json"
    code = run(
        ["qcels-demo", "--trials", "10", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    demo = json.loads(out.read_text())
    assert 0 <= demo["success_rate"] <= 1
    assert demo["params"]["trials"] == 10


def test_custom_spectrum_file(tmp_path):
    spec = tmp_path / "spectrum.json"
    spec.write_text(json.dumps({"phases": [0.3], "weights": [1.0]}))
    out = tmp_path / "demo.json"
    code = run(
        [
            "qcels-demo", "--spectrum", str(spec), "--trials", "5",
            "--samples", "0", "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["success_rate"] == 1.0


def test_bad_spectrum_is_validation_error(tmp_path, capsys):
    spec = tmp_path / "spectrum.json"
    spec.write_text(json.dumps({"phases": [0.3], "weights": [0.5]}))
    assert run(["qcels-demo", "--spectrum", str(spec)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-rus", "--m", "8", "--runs", "40", "--seed", "11"],
        ["qcels-demo", "--trials", "5", "--seed", "11"],
        ["compile-trotter", "--n", "3"],
        ["avg-trials", "--m-max", "12"],
    ],
)
def test_repeat_runs_byte_identical(tmp_path, argv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


ESTIMATE = ["estimate", "--n", "4", "--calibrate-nmax", "3397"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-rus", "--runs", "0"],
        ["qcels-demo", "--trials", "0"],
        ["estimate", "--n", "4", "--calibrate-nmax", "-5"],
        ["simulate-rus", "--p-pass", "0"],
        ["simulate-rus", "--p-pass", "1.5"],
        ["simulate-rus", "--p-pass", "nan"],
        ["simulate-rus", "--attempts", "0"],
        ["qcels-demo", "--eps", "0"],
        ["qcels-demo", "--eps", "2"],
        ["qcels-demo", "--delta", "0"],
        *(
            ESTIMATE + ["--config", config]
            for config in (
                {"qcels": {"eps_targ": 100}},
                {"code": {"p_phys": "x"}},
                {"code": {"p_phys": -1}},
                {"model": {"t": 10**400}},
                {"model": {"u": None}},
                {"code": {"d_override": 8}},
                {"code": {"d_override": 1}},
                {"qcels": {"n_pairs": 1.5}},
                {"qcels": {"n_samples": True}},
            )
        ),
        ["simulate-rus", "--theta", "nan"],
        *(
            ["qcels-demo", "--spectrum", spectrum]
            for spectrum in (
                {"phases": 3, "weights": [1.0]},
                [1, 2],
                {"phases": ["a"], "weights": [1.0]},
                {"noise": 0.1, "phases": [0.3], "weights": [1.0]},
            )
        ),
        ["avg-trials", "--m-max", "0"],
        ["qcels-demo", "--pairs", "0", "--trials", "1"],
        ["qcels-demo", "--pairs", "-1", "--trials", "1"],
    ],
)
def test_out_of_range_input_is_one_line_error(tmp_path, capsys, argv):
    # a JSON value in the last place is written to a file passed in its stead
    content = argv[-1] if not isinstance(argv[-1], str) else None
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        argv = argv[:-1] + [str(path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if argv[-2] == "--config":  # one key per config, named in the message
        ((section, keys),) = content.items()
        assert f"{section}.{next(iter(keys))}" in err
    elif isinstance(content, dict):  # the offending spectrum key comes first
        assert next(iter(content)) in err
    elif argv[0] == "avg-trials":
        assert "--m-max" in err
    elif "--pairs" in argv:
        assert "data points per level" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["simulate-rus", "--m", "3", "--runs", "2"], "--hist"),
        (["simulate-rus", "--m", "3", "--runs", "2"], "--out"),
        (["compile-trotter", "--n", "2"], "--timeline"),
    ],
)
def test_missing_output_directory_names_the_path(tmp_path, capsys, argv, option):
    path = str(tmp_path / "missing" / "out.txt")
    assert run(argv + [option, path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_runaway_rus_run_is_infeasible(capsys):
    assert run(["simulate-rus", "--m", "4", "--runs", "1", "--p-pass", "1e-12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and err.count("\n") == 1


def test_negative_sample_count_is_named(capsys):
    assert run(["qcels-demo", "--samples", "-1", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sample count" in err


def test_overflowing_mitigation_overhead_is_infeasible(capsys):
    assert run(["estimate", "--n", "300", "--calibrate-nmax", "3397"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and err.count("\n") == 1
    assert "mitigation overhead" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compile-trotter", "--dt", "0.5"],
        ["estimate", "--seed", "1"],
        ["avg-trials", "--format", "text"],
        ["simulate-rus", "--p-pass-table", "t.json"],
    ],
)
def test_deleted_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "delta, named",
    [
        ("inf", "delta must be a finite positive number, got inf"),
        ("1e308", "tau_0 must be finite, got inf for delta 1e+308"),
        ("1e20", "collapsed below numeric resolution at level 1 (eps 0.01, delta 1e+20)"),
    ],
)
def test_huge_qcels_delta_is_one_line_error(capsys, recwarn, delta, named):
    assert run(["qcels-demo", "--delta", delta, "--trials", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not recwarn.list


@pytest.mark.parametrize("delta", ["1e300", "2e153"])
def test_overflowing_qcels_sample_time_is_one_line_error(capsys, recwarn, delta):
    # One level (eps 1): no spacing is infinite and no interval collapses,
    # but the fit squares sample times near delta.
    assert run(["qcels-demo", "--eps", "1", "--delta", delta, "--trials", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: QCELS delta {float(delta)} is too large")
    assert captured.err.count("\n") == 1
    assert not recwarn.list


def test_largest_accepted_qcels_delta_is_finite(capsys, recwarn):
    assert run(["qcels-demo", "--eps", "1", "--delta", "1e153", "--trials", "3"]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["median_error"])
    assert not recwarn.list


def _assert_nan_refused(capsys, out):
    err = capsys.readouterr().err
    assert err.startswith("error: Out of range float values are not JSON compliant")
    assert err.count("\n") == 1
    assert not out.exists()


def test_json_summary_never_holds_nan(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "multilevel_qcels", lambda *args, **kwargs: [math.nan] * 3)
    out = tmp_path / "demo.json"
    assert run(["qcels-demo", "--trials", "3", "--out", str(out)]) == 1
    _assert_nan_refused(capsys, out)


def test_estimate_report_never_holds_nan(tmp_path, capsys, monkeypatch):
    build_report = cli.build_report
    monkeypatch.setattr(
        cli, "build_report", lambda *a, **kw: replace(build_report(*a, **kw), n_qubit=math.nan)
    )
    out = tmp_path / "report.json"
    assert run(["estimate", "--n", "4", "--calibrate-nmax", "3397", "--out", str(out)]) == 1
    _assert_nan_refused(capsys, out)
