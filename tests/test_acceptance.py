"""End-to-end checks against published reference values.

Each numbered test verifies one externally stated requirement: known
resource figures, structural counts, or statistical behaviour the pipeline
must reproduce.
"""

import json
import math
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import check_goldens
from starsched import cli
from starsched.cli import run
from starsched.estimator import (
    QcelsParams,
    build_report,
    calibrate_w_norm,
    choose_distance,
    normalize,
    optimize_split,
)
from starsched.fabric import build_grid, validate
from starsched.hubbard import HubbardSpec, _odd_even_route, default_orderings, one_norm, route_orderings
from starsched.injection import SHIPPED_CONFIGS
from starsched.qcels import SyntheticSpectrum, multilevel_qcels
from starsched.rus import calibrate_p_pass, expected_trials, prob_finish_at, simulate_parallel_rus
from starsched.trotter import compile_step, controlled_circuit_clocks, serial_clocks, trotter_clocks

# Published per-size reference values (4x4, 6x6, 8x8, 10x10).
LAMBDA = {4: 64.0, 6: 156.0, 8: 288.0, 10: 460.0}
T_TROTTER = {4: 248.355, 6: 307.51, 8: 359.51, 10: 404.25}
N_TOTAL = {4: 2_717_609, 6: 4_040_743, 8: 5_399_835, 10: 6_830_416}
N_MAX = {4: 3397, 6: 5051, 8: 6750, 10: 8538}
DISTANCE = {4: 9, 6: 11, 8: 11, 10: 11}
MAX_RUNTIME = {4: 7.59, 6: 17.09, 8: 26.69, 10: 37.97}
TOTAL_RUNTIME = {4: 7158, 6: 18314, 8: 35247, 10: 63220}
N_QUBIT = {4: 10530, 6: 35090, 8: 62194, 10: 97042}


# 1 ----------------------------------------------------------------------
def test_01_interaction_one_norm_table():
    for n, lam in LAMBDA.items():
        assert one_norm(HubbardSpec(n)) == lam


# 2 ----------------------------------------------------------------------
def test_02_analytic_trial_counts():
    assert expected_trials(1) == 2.0
    assert expected_trials(2) == pytest.approx(8 / 3, abs=1e-9)
    for m in (1, 16, 512, 4096):
        total = math.fsum(prob_finish_at(k, m) for k in range(1, 80))
        assert total == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(2024)
    runs = 10_000
    for m in (1, 4, 32):
        draws = rng.geometric(0.5, size=(runs, m)).max(axis=1)
        sigma = draws.std(ddof=1) / math.sqrt(runs)
        assert abs(draws.mean() - expected_trials(m)) < 3 * sigma


# 3 ----------------------------------------------------------------------
def test_03_swap_routing_depths():
    assert len(route_orderings(default_orderings(4))) == 3
    for n in (4, 6, 8, 10):
        assert len(route_orderings(default_orderings(n))) == n - 1


def test_03_routing_composition_on_random_pairs():
    rnd = random.Random(99)
    for _ in range(1000):
        size = rnd.randrange(2, 26)
        start = list(range(size))
        goal = list(range(size))
        rnd.shuffle(start)
        rnd.shuffle(goal)
        layers = _odd_even_route(tuple(start), tuple(goal), rnd.randrange(2))
        cur = list(start)
        for layer in layers:
            used: set[int] = set()
            for p in layer:
                assert p not in used and p + 1 not in used
                used.update((p, p + 1))
                cur[p], cur[p + 1] = cur[p + 1], cur[p]
        assert cur == goal


# 4 ----------------------------------------------------------------------
@pytest.mark.parametrize("n", range(2, 11))
def test_04_compiled_step_structure(n):
    sched = compile_step(n)
    v = n * n
    multiset = sched.rus_group_multiset()
    assert multiset[(v - n, "Z")] == 7
    assert multiset[(v - n, "ZZ")] == 7
    assert multiset[(v, "ZZ")] == 2
    assert sum(multiset.values()) == 16
    assert sched.fixed_clocks == 14 * n + 55
    assert validate(sched.timeline, build_grid(n)) is None


# 5 ----------------------------------------------------------------------
def _simulated_step_clocks(n: int, runs: int, seed: int) -> float:
    cfg = SHIPPED_CONFIGS[9]

    def simulated_mean(m: int, basis: str) -> float:
        return simulate_parallel_rus(m, basis, 1e-8, cfg, "adaptive", runs, seed).mean

    return trotter_clocks(n, simulated_mean)


def test_05_simulated_step_clocks_4x4_bracket():
    sim = _simulated_step_clocks(4, runs=2000, seed=17)
    k12, k16 = expected_trials(12), expected_trials(16)
    lower = 7 * (k12 + 1) * 2 + 2 * (k16 + 1) + 111
    upper = 14 * 2 * k12 + 4 * k16 + 111
    assert lower <= sim <= upper
    assert sim == pytest.approx(T_TROTTER[4], rel=0.15)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_05_simulated_step_clocks_larger_grids(n):
    sim = _simulated_step_clocks(n, runs=600, seed=17)
    assert sim == pytest.approx(T_TROTTER[n], rel=0.15)


# 6 ----------------------------------------------------------------------
def test_06_adaptive_assignment_reduction():
    base = SHIPPED_CONFIGS[9]
    rate = calibrate_p_pass(161.0, m=32, basis="Z", runs=400, seed=23)
    cfg = replace(base, p_pass=rate)
    naive = simulate_parallel_rus(32, "Z", 1e-8, cfg, "naive", runs=800, seed=31)
    assert naive.mean == pytest.approx(161.0, rel=0.10)
    adaptive = simulate_parallel_rus(32, "Z", 1e-8, cfg, "adaptive", runs=800, seed=31)
    assert 1 - adaptive.mean / naive.mean >= 0.60


def test_06_high_success_regime_approaches_lower_bound():
    stats = simulate_parallel_rus(
        32, "Z", 1e-8, SHIPPED_CONFIGS[9], "adaptive", runs=2000, seed=13
    )
    assert stats.mean == pytest.approx(expected_trials(32) + 1, rel=0.10)


# 7 ----------------------------------------------------------------------
def test_07_serial_baseline_and_reduction_span():
    assert serial_clocks(4) == 1856
    reductions = {
        n: 100 * (1 - T_TROTTER[n] / serial_clocks(n)) for n in (4, 6, 8, 10)
    }
    assert min(reductions.values()) == pytest.approx(86.0, abs=2.0)
    assert max(reductions.values()) == pytest.approx(97.0, abs=2.0)
    assert all(86 - 2 <= r <= 97 + 2 for r in reductions.values())


# 8 ----------------------------------------------------------------------
def test_08_phase_estimation_bookkeeping():
    for n in (4, 6, 8, 10):
        report = build_report(n, calibrate_nmax=N_MAX[n])
        params = QcelsParams(
            0.06, 5, 100, normalize(report.eps_qcels, LAMBDA[n])
        )
        # N tau_J = delta / eps exactly
        assert math.isclose(
            params.n_pairs * params.tau[-1], 0.06 / params.eps_qcels_norm, rel_tol=1e-12
        )
        j = params.levels
        expected_ratio = 800 * (1 - 2.0**-j)
        assert report.n_total / report.n_max == pytest.approx(
            expected_ratio, rel=0.005
        )
    assert N_TOTAL[4] / N_MAX[4] == pytest.approx(800.0, rel=5e-4)
    assert N_TOTAL[8] / N_MAX[8] == pytest.approx(800.0, rel=5e-4)


# 9 ----------------------------------------------------------------------
def test_09_calibrated_totals_match_reference():
    for n in (4, 6, 8, 10):
        lam = LAMBDA[n]
        eps_q = 2 / 3 * 0.01
        eps_t = 0.01 - eps_q
        w = calibrate_w_norm(
            N_MAX[n], normalize(eps_q, lam), normalize(eps_t, lam), 0.06
        )
        _, _, n_total, _ = optimize_split(0.01, lam, w)
        assert n_total == pytest.approx(N_TOTAL[n], rel=0.01)


# 10 ---------------------------------------------------------------------
def test_10_code_distance_choice():
    for n in (4, 6, 8, 10):
        report = build_report(n, calibrate_nmax=N_MAX[n])
        assert report.d == DISTANCE[n]


def test_10_clocks_only_exposure_yields_smaller_distance():
    # Counting only circuit duration (ignoring that all 4n²+1 patches are
    # simultaneously exposed) under-weights the error budget and picks d=7
    # for the 4x4 model; the patches x clocks convention is the one used.
    report = build_report(4, calibrate_nmax=N_MAX[4])
    clocks = controlled_circuit_clocks(report.n_max, report.t_trotter)
    d_patches = choose_distance(4, clocks, 1e-4)
    assert d_patches == 9
    d_clocks_only = next(
        d
        for d in range(3, 53, 2)
        if 0.1 * d * (100 * 1e-4) ** ((d + 1) / 2) * clocks < 0.01
    )
    assert d_clocks_only == 7


# 11 ---------------------------------------------------------------------
def test_11_final_report_runtimes_and_qubits():
    for n in (4, 6, 8, 10):
        report = build_report(n, t_trotter=T_TROTTER[n], calibrate_nmax=N_MAX[n])
        max_rt = report.n_max * T_TROTTER[n] * DISTANCE[n] * 1e-6
        assert max_rt == pytest.approx(MAX_RUNTIME[n], rel=0.01)
        assert report.max_runtime_s == pytest.approx(MAX_RUNTIME[n], rel=0.01)
        assert report.total_runtime_s == pytest.approx(TOTAL_RUNTIME[n], rel=0.10)
        assert report.n_qubit == N_QUBIT[n]


# 12 ---------------------------------------------------------------------
def test_12_phase_estimation_success_rate():
    spectrum = SyntheticSpectrum(
        (-0.5, 0.9, 1.8, 2.6, -2.8), (0.8, 0.05, 0.05, 0.05, 0.05)
    )
    estimates = multilevel_qcels(spectrum, 0.01, delta=0.06, n_pairs=5,
                                 n_samples=100, seeds=range(100))
    successes = sum(abs(est - (-0.5)) < 0.01 for est in estimates)
    assert successes >= 90


# 13 ---------------------------------------------------------------------
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-rus", "--m", "12", "--runs", "100", "--seed", "5"],
        ["simulate-rus", "--m", "12", "--runs", "100", "--seed", "5",
         "--mode", "naive"],
        ["qcels-demo", "--trials", "20", "--seed", "5"],
        ["compile-trotter", "--n", "4"],
        ["estimate", "--n", "4", "--calibrate-nmax", "3397"],
        ["avg-trials", "--m-max", "32"],
        ["compare-serial"],
    ],
)
def test_13_seeded_commands_are_byte_identical(tmp_path, argv):
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# 14 ---------------------------------------------------------------------
# Every pinned CLI output: the entries of tests/pins.json, run through cli.run
# by the rule scripts/check_goldens.py runs the console script with.
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
PINS = check_goldens.load_manifest()
SEEDED = {name: "--seed" in entry["argv"] for name, entry in PINS.items() if "golden" in entry}


@pytest.mark.parametrize("name", sorted(name for name, seeded in SEEDED.items() if not seeded))
def test_14_unseeded_commands_match_golden_outputs(tmp_path, name):
    assert check_goldens.check(name, PINS[name], run, tmp_path) == []


def test_14_manifest_names_each_golden_item_once():
    # a repeated key would collapse in a dict, so read the raw pairs
    pairs = json.loads(Path(check_goldens.MANIFEST).read_text(), object_pairs_hook=list)
    named = [(dict(entry)["golden"], name) for name, entry in pairs if "golden" in dict(entry)]
    items = [(path.stem, item) for path in GOLDEN.glob("*.json")
             for item in json.loads(path.read_text())["items"]]
    assert sorted(named) == sorted(item for item in items if item[1] != "calibrate")


def test_14_checker_names_the_entry_and_both_digests(tmp_path, monkeypatch, capsys):
    name, entry = next((name, entry) for name, entry in PINS.items() if "sha256" in entry)
    kind, digest = next(iter(entry["sha256"].items()))
    flipped = digest[:-1] + ("1" if digest[-1] == "0" else "0")
    manifest = tmp_path / "pins.json"
    monkeypatch.setattr(check_goldens, "MANIFEST", str(manifest))
    argv = ["--starsched", f"{sys.executable} -m starsched.cli"]
    manifest.write_text(json.dumps({name: {**entry, "sha256": {**entry["sha256"], kind: flipped}}}))
    assert check_goldens.main(argv) == 1
    assert f"{name} {kind}: expected sha256 {flipped}, got {digest}" in capsys.readouterr().out
    manifest.write_text(json.dumps({name: entry}))
    assert check_goldens.main(argv) == 0


def test_14_estimate_pins_follow_the_one_json_writer(tmp_path, monkeypatch):
    # every JSON summary goes through cli._json_text: one byte more there
    # must break each estimate pin as it breaks the other summaries
    writer = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda obj: writer(obj) + " ")
    names = [name for name, entry in PINS.items() if entry["argv"][0] == "estimate"]
    assert len(names) == 4
    for name in names:
        differs = check_goldens.check(name, PINS[name], run, tmp_path)
        assert [line.split()[:2] for line in differs] == [[name, "out:"]]


# 15 ---------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(name for name, seeded in SEEDED.items() if seeded))
def test_15_seeded_commands_match_golden_outputs(tmp_path, name):
    assert check_goldens.check(name, PINS[name], run, tmp_path) == []


def test_15_calibrated_rate_matches_golden():
    # the rate rus-calibrate's naive and adaptive items run at
    golden = json.loads((GOLDEN / "rus-calibrate.json").read_text())["items"]["calibrate"]
    rate = calibrate_p_pass(161.0, m=32, basis="Z", runs=200, seed=0)
    assert repr(rate) == golden["rate"]
