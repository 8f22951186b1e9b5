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
# the goldens' n = 10 (test ids n-mode), and runs of the other commands that no
# golden covers.
PINS = {name: entry for name, entry in check_goldens.load_manifest().items() if "sha256" in entry}


def pins_of(*commands):
    return sorted(name for name, entry in PINS.items() if entry["argv"][0] in commands)


TIMELINE_PINS = pins_of("compile-trotter")


@pytest.mark.parametrize(
    "name", TIMELINE_PINS, ids=[name.removeprefix("step_n").replace("_", "-") for name in TIMELINE_PINS]
)
def test_timeline_bytes_are_pinned(tmp_path, name):
    assert check_goldens.check(name, PINS[name], run, tmp_path) == []


@pytest.mark.parametrize("name", pins_of("simulate-rus"))
def test_simulate_rus_bytes_are_pinned(tmp_path, name):
    assert check_goldens.check(name, PINS[name], run, tmp_path) == []


@pytest.mark.parametrize("name", pins_of("avg-trials", "compare-serial", "qcels-demo"))
def test_table_and_demo_bytes_are_pinned(tmp_path, name):
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
    # with no error norm and no calibration target it exits 2: row estimate-no-norm
    out = tmp_path / "report.json"
    assert (
        run(["estimate", "--n", "4", "--calibrate-nmax", "3397", "--out", str(out)])
        == 0
    )
    report = json.loads(out.read_text())
    assert report["d"] == 9
    # the smallest target the largest circuit can meet: qcels.n_pairs steps
    assert run(["estimate", "--n", "4", "--calibrate-nmax", "5", "--out", str(out)]) == 0


def test_estimate_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trotter": {"w_norm": 1.0e7}}))
    out = tmp_path / "report.json"
    assert run(["estimate", "--n", "4", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["w_norm"] == 1.0e7


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


# Every error path's exit code and its one stderr line, with nothing on stdout
# and no warning.  A last argument that is not a str is an input file's
# content, written to a file passed in its stead: a dict or list as JSON,
# bytes as they are.
# nested deeper than the JSON decoder recurses: 1,000 to 10,000 levels, by Python version
DEEP = b"[" * 100_000 + b"]" * 100_000
ERRORS = [
    ("avg-trials-m-max-0", ["avg-trials", "--m-max", "0"],
     1, "error: --m-max must be at least 1, got 0"),
    ("compare-n-1", ["compare-serial", "--n", "1"],
     1, "error: lattice size must be at least 2, got 1"),
    ("rus-runs-0", ["simulate-rus", "--runs", "0"], 1, "error: runs must be at least 1, got 0"),
    ("rus-p-pass-0", ["simulate-rus", "--p-pass", "0"],
     1, "error: pass rate must be a number in (0, 1], got 0.0"),
    ("rus-p-pass-1.5", ["simulate-rus", "--p-pass", "1.5"],
     1, "error: pass rate must be a number in (0, 1], got 1.5"),
    ("rus-p-pass-nan", ["simulate-rus", "--p-pass", "nan"],
     1, "error: pass rate must be a number in (0, 1], got nan"),
    ("rus-attempts-0", ["simulate-rus", "--attempts", "0"],
     1, "error: attempts_per_clock must be at least 1"),
    ("rus-seed-neg", ["simulate-rus", "--m", "3", "--runs", "2", "--seed", "-1"],
     1, "error: --seed must be at least 0, got -1"),
    # past the largest angle trial 1 can prepare, effective_angle(ANGLE_CAP, 3)
    ("rus-theta-nan", ["simulate-rus", "--theta", "nan"],
     1, "error: --theta must be an angle of magnitude at most 0.7853981633974481, got nan"),
    ("rus-theta-inf", ["simulate-rus", "--theta", "inf"],
     1, "error: --theta must be an angle of magnitude at most 0.7853981633974481, got inf"),
    ("rus-theta-neg-inf", ["simulate-rus", "--theta=-inf"],
     1, "error: --theta must be an angle of magnitude at most 0.7853981633974481, got -inf"),
    ("rus-theta-3.2", ["simulate-rus", "--theta", "3.2"],
     1, "error: --theta must be an angle of magnitude at most 0.7853981633974481, got 3.2"),
    ("rus-theta-1e308", ["simulate-rus", "--theta", "1e308"],
     1, "error: --theta must be an angle of magnitude at most 0.7853981633974481, got 1e+308"),
    ("rus-theta-neg-0.8", ["simulate-rus", "--theta=-0.8"],
     1, "error: --theta must be an angle of magnitude at most 0.7853981633974481, got -0.8"),
    ("rus-theta-pi-4", ["simulate-rus", "--theta", "0.7853981633974483"],
     1, "error: --theta must be an angle of magnitude at most 0.7853981633974481, got 0.7853981633974483"),
    ("rus-runaway", ["simulate-rus", "--m", "4", "--runs", "1", "--p-pass", "1e-12"],
     2, "infeasible: run 0 exceeded 1000000 clocks"),
    ("estimate-nmax-neg", ["estimate", "--n", "4", "--calibrate-nmax", "-5"],
     1, "error: --calibrate-nmax must be at least qcels.n_pairs = 5, got -5"),
    ("estimate-nmax-1", ["estimate", "--n", "4", "--calibrate-nmax", "1"],
     1, "error: --calibrate-nmax must be at least qcels.n_pairs = 5, got 1"),
    ("estimate-nmax-4", ["estimate", "--n", "4", "--calibrate-nmax", "4"],
     1, "error: --calibrate-nmax must be at least qcels.n_pairs = 5, got 4"),
    ("estimate-n-1", ["estimate", "--n", "1", "--calibrate-nmax", "3397"],
     1, "error: lattice size must be at least 2, got 1"),
    # the smallest target is qcels.n_pairs steps; past 2^53 the step count is inexact
    ("estimate-nmax-1e16", ["estimate", "--n", "4", "--calibrate-nmax", "10000000000000000"],
     1, "error: --calibrate-nmax 10000000000000000 is past what float arithmetic resolves: the largest circuit comes out at 9999999999999965 steps"),
    ("estimate-nmax-1e22", ["estimate", "--n", "4", "--calibrate-nmax", "10000000000000000000000"],
     1, "error: --calibrate-nmax 10000000000000000000000 is past what float arithmetic resolves: the largest circuit comes out at 9999999999999964610560 steps"),
    ("estimate-n-300", ["estimate", "--n", "300", "--calibrate-nmax", "3397"],
     2, "infeasible: PEC mitigation overhead e^(4·193.9) is too large for a float"),
    ("estimate-no-norm", ["estimate", "--n", "4"],
     2, "infeasible: no Trotter error norm given and no step-count calibration target"),
    ("config-eps-targ", ESTIMATE + ["--config", {"qcels": {"eps_targ": 100}}],
     1, "error: config key qcels.eps_targ must be a number in (0, 1], got 100"),
    ("config-p-phys-str", ESTIMATE + ["--config", {"code": {"p_phys": "x"}}],
     1, "error: config key code.p_phys must be a number in (0, 1), got 'x'"),
    ("config-p-phys-neg", ESTIMATE + ["--config", {"code": {"p_phys": -1}}],
     1, "error: config key code.p_phys must be a number in (0, 1), got -1"),
    ("config-t-huge", ESTIMATE + ["--config", {"model": {"t": 10**400}}],
     1, f"error: config key model.t must be a number > 0, got {10**400}"),
    ("config-u-null", ESTIMATE + ["--config", {"model": {"u": None}}],
     1, "error: config key model.u must be a number >= 0, got None"),
    ("config-d-even", ESTIMATE + ["--config", {"code": {"d_override": 8}}],
     1, "error: config key code.d_override must be an odd integer in [3, 51] or null, got 8"),
    ("config-d-1", ESTIMATE + ["--config", {"code": {"d_override": 1}}],
     1, "error: config key code.d_override must be an odd integer in [3, 51] or null, got 1"),
    ("config-d-huge", ESTIMATE + ["--config", {"code": {"d_override": 10**400 + 1}}],
     1, f"error: config key code.d_override must be an odd integer in [3, 51] or null, got {10**400 + 1}"),
    ("config-d-53", ESTIMATE + ["--config", {"code": {"d_override": 53}}],
     1, "error: config key code.d_override must be an odd integer in [3, 51] or null, got 53"),
    ("config-d-1e20", ESTIMATE + ["--config", {"code": {"d_override": 10**20 + 1}}],
     1, "error: config key code.d_override must be an odd integer in [3, 51] or null, got 100000000000000000001"),
    ("config-pairs-float", ESTIMATE + ["--config", {"qcels": {"n_pairs": 1.5}}],
     1, "error: config key qcels.n_pairs must be an integer >= 2 a float can hold, got 1.5"),
    ("config-samples-bool", ESTIMATE + ["--config", {"qcels": {"n_samples": True}}],
     1, "error: config key qcels.n_samples must be an integer >= 1 a float can hold, got True"),
    # integers past the float range
    ("config-k-huge", ESTIMATE + ["--config", {"injection": {"k": 10**400}}],
     1, f"error: config key injection.k must be an integer >= 1 a float can hold, or null, got {10**400}"),
    ("config-samples-huge", ESTIMATE + ["--config", {"qcels": {"n_samples": 10**400}}],
     1, f"error: config key qcels.n_samples must be an integer >= 1 a float can hold, got {10**400}"),
    ("config-pairs-huge", ["estimate", "--n", "4", "--config", {"qcels": {"n_pairs": 10**400}, "trotter": {"w_norm": 1.0}}],
     1, f"error: config key qcels.n_pairs must be an integer >= 2 a float can hold, got {10**400}"),
    ("config-list", ["estimate", "--config", [1]], 1, "error: config must be a JSON object"),
    ("config-section-int", ["estimate", "--config", {"model": 3}],
     1, "error: config section 'model' must be an object"),
    ("config-no-distance", ["estimate", "--n", "10", "--calibrate-nmax", "8538", "--config", {"code": {"p_phys": 0.0099}}],
     2, "infeasible: no code distance up to 51 meets the error budget"),
    ("config-unknown-key", ["estimate", "--n", "4", "--config", {"qcels": {"shots": 5}}],
     1, "error: unknown config key: qcels.shots"),
    ("config-not-json", ["estimate", "--n", "4", "--config", b"{not json"],
     1, "error: config is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    # the error norm that the calibration backs out, out of the float range
    ("config-norm-0-delta", ESTIMATE + ["--config", {"qcels": {"delta": 1e300}}],
     2, "infeasible: calibrated Trotter error norm is 0.0: --calibrate-nmax 3397, qcels.delta 1e+300 and one-norm 64.0 (from model.t 1.0, model.u 4.0) put it out of range"),
    ("config-norm-0-u", ESTIMATE + ["--config", {"model": {"u": 1e300}}],
     2, "infeasible: calibrated Trotter error norm is 0.0: --calibrate-nmax 3397, qcels.delta 0.06 and one-norm 4e+300 (from model.t 1.0, model.u 1e+300) put it out of range"),
    ("config-norm-inf", ESTIMATE + ["--config", {"qcels": {"delta": 1e-300}}],
     2, "infeasible: calibrated Trotter error norm is inf: --calibrate-nmax 3397, qcels.delta 1e-300 and one-norm 64.0 (from model.t 1.0, model.u 4.0) put it out of range"),
    ("config-deep", ["estimate", "--n", "4", "--config", DEEP],
     1, "error: config is not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    ("qcels-trials-0", ["qcels-demo", "--trials", "0"],
     1, "error: --trials must be at least 1, got 0"),
    ("qcels-eps-0", ["qcels-demo", "--eps", "0"],
     1, "error: QCELS precision must be in (0, 1], got 0.0"),
    ("qcels-eps-2", ["qcels-demo", "--eps", "2"],
     1, "error: QCELS precision must be in (0, 1], got 2.0"),
    ("qcels-delta-0", ["qcels-demo", "--delta", "0"],
     1, "error: QCELS delta must be a finite positive number, got 0.0"),
    ("qcels-pairs-0", ["qcels-demo", "--pairs", "0", "--trials", "1"],
     1, "error: QCELS data points per level must be at least 2, got 0"),
    ("qcels-pairs-neg", ["qcels-demo", "--pairs", "-1", "--trials", "1"],
     1, "error: QCELS data points per level must be at least 2, got -1"),
    ("qcels-seed-neg", ["qcels-demo", "--trials", "1", "--seed", "-1"],
     1, "error: --seed must be at least 0, got -1"),
    ("qcels-samples-neg", ["qcels-demo", "--samples", "-1", "--trials", "1"],
     1, "error: QCELS sample count must be at least 0, got -1"),
    ("qcels-delta-inf", ["qcels-demo", "--delta", "inf", "--trials", "2"],
     1, "error: QCELS delta must be a finite positive number, got inf"),
    ("qcels-delta-1e308", ["qcels-demo", "--delta", "1e308", "--trials", "2"],
     1, "error: QCELS level spacing tau_0 must be finite, got inf for delta 1e+308, pairs 5, eps 0.01"),
    ("qcels-delta-1e20", ["qcels-demo", "--delta", "1e20", "--trials", "2"],
     1, "error: search interval collapsed below numeric resolution at level 1 (eps 0.01, delta 1e+20)"),
    # one level (eps 1): no spacing is infinite and no interval collapses,
    # but the fit squares sample times near delta
    ("qcels-time-1e300", ["qcels-demo", "--eps", "1", "--delta", "1e300", "--trials", "3"],
     1, "error: QCELS delta 1e+300 is too large: sample time 8e+299 squared overflows the fit (pairs 5, eps 1.0)"),
    ("qcels-time-2e153", ["qcels-demo", "--eps", "1", "--delta", "2e153", "--trials", "3"],
     1, "error: QCELS delta 2e+153 is too large: sample time 1.6e+153 squared overflows the fit (pairs 5, eps 1.0)"),
    ("spectrum-phases-int", ["qcels-demo", "--spectrum", {"phases": 3, "weights": [1.0]}],
     1, "error: spectrum key phases must be a list of numbers"),
    ("spectrum-list", ["qcels-demo", "--spectrum", [1, 2]],
     1, "error: spectrum must be a JSON object {phases, weights}"),
    ("spectrum-phases-str", ["qcels-demo", "--spectrum", {"phases": ["a"], "weights": [1.0]}],
     1, "error: spectrum key phases must be a list of numbers"),
    ("spectrum-unknown-key", ["qcels-demo", "--spectrum", {"noise": 0.1, "phases": [0.3], "weights": [1.0]}],
     1, "error: unknown spectrum key: noise"),
    ("spectrum-misaligned", ["qcels-demo", "--spectrum", {"phases": [0.3, 0.9], "weights": [1.0]}],
     1, "error: phases and weights must align"),
    ("spectrum-weight-neg", ["qcels-demo", "--spectrum", {"phases": [0.3, 0.9], "weights": [1.5, -0.5]}],
     1, "error: weights must be nonnegative"),
    ("spectrum-weights-sum", ["qcels-demo", "--spectrum", {"phases": [0.3], "weights": [0.5]}],
     1, "error: weights must sum to 1"),
    ("spectrum-deep", ["qcels-demo", "--spectrum", DEEP],
     1, "error: spectrum is not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    ("spectrum-truncated", ["qcels-demo", "--spectrum", b'{"phases": [0.3], "weights": [1.0'],
     1, "error: spectrum is not valid JSON: Expecting ',' delimiter: line 1 column 34 (char 33)"),
]


@pytest.mark.parametrize(
    "argv, code, line", [row[1:] for row in ERRORS], ids=[row[0] for row in ERRORS]
)
def test_error_exit_code_and_line(tmp_path, capsys, recwarn, argv, code, line):
    if not isinstance(argv[-1], str):
        content = argv[-1]
        path = tmp_path / "input.json"
        path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        argv = argv[:-1] + [str(path)]
    assert run(argv) == code
    assert capsys.readouterr() == ("", line + "\n")
    assert not recwarn.list


BUDGET_MISSES = {
    3: "infeasible: code.d_override 3 expects 1922 logical errors per circuit, not below code.eps_logerr 0.01",
    7: "infeasible: code.d_override 7 expects 0.4484 logical errors per circuit, not below code.eps_logerr 0.01",
}


@pytest.mark.parametrize("d, code", [(3, 2), (7, 2), (9, 0), (11, 0), (51, 0)])
def test_d_override_must_meet_logical_error_budget(tmp_path, capsys, recwarn, d, code):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"code": {"d_override": d}}))
    assert run(ESTIMATE + ["--config", str(path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", BUDGET_MISSES[d] + "\n")
        assert not recwarn.list
    else:
        assert json.loads(out)["d"] == d


def test_calibrated_nmax_meets_every_target(capsys):
    # the largest circuit runs n_pairs · n_last steps, so the smallest
    # reachable count at or above target t is 5·ceil(t/5)
    for target in range(5, 401):
        assert run(["estimate", "--n", "4", "--calibrate-nmax", str(target)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_max"] == 5 * math.ceil(target / 5), target


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
