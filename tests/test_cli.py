"""Command-line behaviour: outputs, exit codes, determinism."""

import errno
import json
import math
import os
import stat
import subprocess
import sys
import threading
from dataclasses import replace
from unittest import mock

import pytest

import check_goldens
import starsched
from starsched import cli
from starsched.cli import run
from starsched.injection import ANGLE_CAP, effective_angle


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


def test_compile_trotter_evaluates_each_rus_group_once(tmp_path):
    # the timeline and formula_clocks share one rough_t_rus evaluation per
    # (M, basis) group: (12, Z), (12, ZZ) and (16, ZZ) at n = 4
    from starsched import trotter

    calls = mock.Mock(wraps=trotter.expected_trials)
    with mock.patch.object(trotter, "expected_trials", calls):
        assert run(["compile-trotter", "--n", "4", "--out", str(tmp_path / "s.json")]) == 0
    assert sorted(c.args for c in calls.call_args_list) == [(12,), (12,), (16,)]


def test_compile_trotter_timeline_written_atomically(tmp_path):
    from starsched.trotter import compile_step

    timeline = tmp_path / "timeline.jsonl"
    code = run(["compile-trotter", "--n", "3", "--timeline", str(timeline)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["timeline.jsonl"]
    assert timeline.read_text() == compile_step(3).timeline.to_jsonl()


# The entries of tests/pins.json that name no perfbench golden: timelines past
# the goldens' n = 10 (test ids n-mode) and seeded runs no golden covers.
PINS = {name: entry for name, entry in check_goldens.load_manifest().items() if "sha256" in entry}
TIMELINE_PINS = sorted(name for name, entry in PINS.items() if entry["argv"][0] == "compile-trotter")


@pytest.mark.parametrize(
    "name", TIMELINE_PINS, ids=[name.removeprefix("step_n").replace("_", "-") for name in TIMELINE_PINS]
)
def test_timeline_bytes_are_pinned(tmp_path, name):
    assert check_goldens.check(name, PINS[name], run, tmp_path) == []


@pytest.mark.parametrize("name", sorted(set(PINS) - set(TIMELINE_PINS)))
def test_simulate_rus_bytes_are_pinned(tmp_path, name):
    assert check_goldens.check(name, PINS[name], run, tmp_path) == []


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


def test_symlink_output_writes_its_target(tmp_path):
    plain, target, link = tmp_path / "plain.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    assert run(["compare-serial", "--n", "4", "--out", str(plain)]) == 0
    target.write_text("old bytes\n")
    link.symlink_to(target.name)
    assert run(["compare-serial", "--n", "4", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "plain.csv", "target.csv"]


def test_dangling_symlink_output_creates_its_target(tmp_path):
    link = tmp_path / "link.txt"
    link.symlink_to("missing.txt")
    cli.write_atomic(str(link), "bytes\n")
    assert link.is_symlink()
    assert (tmp_path / "missing.txt").read_text() == "bytes\n"


def test_fifo_output_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    # daemon: a write that never opens the FIFO leaves the reader blocked
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    cli.write_atomic(str(fifo), "through the pipe\n")
    reader.join(timeout=10)
    assert received == [b"through the pipe\n"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


def test_failed_rename_leaves_no_temp_file_and_names_the_path(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "replace", mock.Mock(side_effect=OSError(errno.EXDEV, "cross-device")))
    path = str(tmp_path / "out.txt")
    with pytest.raises(OSError) as info:
        cli.write_atomic(path, "bytes\n")
    assert (info.value.errno, info.value.filename) == (errno.EXDEV, path)
    assert list(tmp_path.iterdir()) == []


def test_interrupted_write_is_reraised_and_leaves_no_temp_file(tmp_path, monkeypatch):
    interrupt, fdopen = KeyboardInterrupt(), os.fdopen

    def interrupted(fd, mode):
        fh = fdopen(fd, mode)
        fh.write = mock.Mock(side_effect=interrupt)
        return fh

    monkeypatch.setattr(cli.os, "fdopen", interrupted)
    with pytest.raises(KeyboardInterrupt) as info:
        cli.write_atomic(str(tmp_path / "out.txt"), "bytes\n")
    assert info.value is interrupt and list(tmp_path.iterdir()) == []


# Spacings this small put the smallest level's half spacing below 2^-1022, so
# the budget split sums the levels one by one instead of in closed form.
LEVEL_LOOP_REPORT = """{
 "d": 7,
 "eps_qcels": 0.006666666666666666,
 "eps_trotter": 0.003333333333333334,
 "k": 3,
 "levels": 13,
 "max_runtime_s": 0.009515259727766867,
 "n": 4,
 "n_max": 5,
 "n_qubit": 6370,
 "n_total": 26000,
 "one_norm": 64.0,
 "steps_per_level": [
""" + ",\n".join(["  1"] * 13) + """
 ],
 "t_trotter": 271.86456365048195,
 "total_runtime_s": 54.211350584387716,
 "w_norm": 1.0
}"""


def test_estimate_through_the_level_loop(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qcels": {"delta": 1e-307}, "trotter": {"w_norm": 1.0}}))
    out = tmp_path / "report.json"
    assert run(["estimate", "--n", "4", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == LEVEL_LOOP_REPORT + "\n"


def test_estimate_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    assert run(["estimate", "--n", "4"]) == 2  # no error norm, no calibration
    assert (
        run(["estimate", "--n", "4", "--calibrate-nmax", "3397", "--out", str(out)])
        == 0
    )
    report = json.loads(out.read_text())
    assert report["d"] == 9
    # the smallest target the largest circuit can meet: qcels.n_pairs steps
    assert run(["estimate", "--n", "4", "--calibrate-nmax", "5", "--out", str(out)]) == 0


@pytest.mark.parametrize("target", [10**16, 10**22])
def test_estimate_target_floats_cannot_meet_is_one_line_error(capsys, target):
    assert run(["estimate", "--n", "4", "--calibrate-nmax", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --calibrate-nmax {target} ") and err.count("\n") == 1


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


def test_parser_built_once_leaks_nothing_between_runs(tmp_path, capsys, monkeypatch):
    # One cached parser serves every run; each run's output and namespace
    # must equal what a freshly built parser gives for the same argv.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trotter": {"w_norm": 1.0e7}, "code": {"d_override": 17}}))
    runs = [
        ["compare-serial", "--n", "5", "7"],
        ESTIMATE + ["--config", str(cfg)],
        ["compare-serial"],
        ["compile-trotter", "--n", "2", "--mode", "controlled"],
        ESTIMATE,
        ["simulate-rus", "--m", "4", "--runs", "3", "--theta=-1e-8"],
        ["compare-serial", "--n", "4"],
        ["estimate", "--n", "6", "--config", str(cfg)],
        ["avg-trials", "--m-max", "3"],
        ["estimate", "--n", "4"],  # exits 2: no error norm
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = [(run(argv), capsys.readouterr()) for argv in runs * 2]
    assert [code for code, _ in cached] == [0] * 9 + [2] + [0] * 9 + [2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [(run(argv), capsys.readouterr()) for argv in runs * 2]
    assert cached == fresh
    monkeypatch.undo()
    for argv in runs:
        expected = vars(cli.build_parser.__wrapped__().parse_args(argv))
        assert vars(cli.build_parser().parse_args(argv)) == expected


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
                {"code": {"d_override": 10**400 + 1}},
                {"code": {"d_override": 53}},
                {"code": {"d_override": 10**20 + 1}},
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
        ["estimate", "--n", "4", "--calibrate-nmax", "1"],
        ["estimate", "--n", "4", "--calibrate-nmax", "4"],
        # integers past the float range
        ESTIMATE + ["--config", {"injection": {"k": 10**400}}],
        ESTIMATE + ["--config", {"qcels": {"n_samples": 10**400}}],
        [
            "estimate", "--n", "4", "--config",
            {"qcels": {"n_pairs": 10**400}, "trotter": {"w_norm": 1.0}},
        ],
        ["simulate-rus", "--m", "3", "--runs", "2", "--seed", "-1"],
        ["qcels-demo", "--trials", "1", "--seed", "-1"],
        ["simulate-rus", "--theta", "inf"],
        ["simulate-rus", "--theta=-inf"],
        # past the largest angle trial 1 can prepare, effective_angle(ANGLE_CAP, k)
        ["simulate-rus", "--theta", "3.2"],
        ["simulate-rus", "--theta", "1e308"],
        ["simulate-rus", "--theta=-0.8"],
        ["simulate-rus", "--theta", "0.7853981633974483"],
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
    if argv[-2] == "--config":  # the offending key comes first, named in the message
        section, keys = next(iter(content.items()))
        assert f"{section}.{next(iter(keys))}" in err
    elif isinstance(content, dict):  # the offending spectrum key comes first
        assert next(iter(content)) in err
    elif argv[0] == "avg-trials":
        assert "--m-max" in err
    elif argv[-2] == "--calibrate-nmax":
        assert "--calibrate-nmax" in err and "qcels.n_pairs" in err
    elif "--pairs" in argv:
        assert "data points per level" in err
    elif "--seed" in argv:
        assert "--seed" in err
    elif argv[1].startswith("--theta"):  # the option and its bound
        assert "--theta" in err and repr(effective_angle(ANGLE_CAP, 3)) in err


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



# error paths no other test reaches: argv, exit code and the one stderr line; a
# JSON value in the last place is written to a file passed in its stead
@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["estimate", "--config", [1]], 1, "error: config must be a JSON object"),
        (["estimate", "--config", {"model": 3}], 1, "error: config section 'model' must be an object"),
        (["estimate", "--n", "10", "--calibrate-nmax", "8538", "--config", {"code": {"p_phys": 0.0099}}],
         2, "infeasible: no code distance up to 51 meets the error budget"),
        (["qcels-demo", "--spectrum", {"phases": [0.3, 0.9], "weights": [1.0]}],
         1, "error: phases and weights must align"),
        (["qcels-demo", "--spectrum", {"phases": [0.3, 0.9], "weights": [1.5, -0.5]}],
         1, "error: weights must be nonnegative"),
        (["estimate", "--n", "1", "--calibrate-nmax", "3397"],
         1, "error: lattice size must be at least 2, got 1"),
        (["compare-serial", "--n", "1"], 1, "error: lattice size must be at least 2, got 1"),
    ],
)
def test_error_path_exit_code_and_message(tmp_path, capsys, argv, code, message):
    if not isinstance(argv[-1], str):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(path)]
    assert run(argv) == code
    assert capsys.readouterr().err == message + "\n"


def test_runaway_rus_run_is_infeasible(capsys):
    assert run(["simulate-rus", "--m", "4", "--runs", "1", "--p-pass", "1e-12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and err.count("\n") == 1


@pytest.mark.parametrize("config", [{"qcels": {"delta": 1e300}}, {"model": {"u": 1e300}}])
def test_underflowing_calibrated_norm_is_named(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(ESTIMATE + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: calibrated Trotter error norm is 0.0")
    assert err.count("\n") == 1
    for name in ("--calibrate-nmax", "qcels.delta", "one-norm", "model.t", "model.u"):
        assert name in err


def test_overflowing_calibrated_norm_is_named(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"qcels": {"delta": 1e-300}}))
    assert run(ESTIMATE + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: calibrated Trotter error norm is inf")
    assert err.count("\n") == 1
    for name in ("--calibrate-nmax", "qcels.delta", "one-norm"):
        assert name in err


@pytest.mark.parametrize("d, code", [(3, 2), (7, 2), (9, 0), (11, 0), (51, 0)])
def test_d_override_must_meet_logical_error_budget(tmp_path, capsys, d, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"code": {"d_override": d}}))
    assert run(ESTIMATE + ["--config", str(path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith(f"infeasible: code.d_override {d} expects ")
        assert err.count("\n") == 1
        assert "logical errors" in err and "code.eps_logerr 0.01" in err
    else:
        assert json.loads(out)["d"] == d


def test_calibrated_nmax_meets_every_target(capsys):
    # the largest circuit runs n_pairs · n_last steps, so the smallest
    # reachable count at or above target t is 5·ceil(t/5)
    for target in range(5, 401):
        assert run(["estimate", "--n", "4", "--calibrate-nmax", str(target)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_max"] == 5 * math.ceil(target / 5), target


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


def test_deterministic_commands_do_not_import_numpy(tmp_path):
    # A fresh interpreter: this one has numpy loaded already.
    code = (
        "import sys\n"
        "from starsched import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (\n"
        "    ['avg-trials'],\n"
        "    ['compile-trotter', '--n', '2'],\n"
        "    ['compare-serial', '--n', '4'],\n"
        "    ['estimate', '--n', '4', '--calibrate-nmax', '3397'],\n"
        "):\n"
        "    assert cli.run(argv + ['--out', f'{out}/{argv[0]}']) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(starsched.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert len(list(tmp_path.iterdir())) == 4
