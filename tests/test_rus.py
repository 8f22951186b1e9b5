"""Analytic trial-count series and the parallel rotation Monte Carlo.

``reference_update_injection_regions`` is the original region growth on
coordinate sets, with ``_grid_neighbors`` as its neighbour lookup: every ring
rescans all region cells and collects the claimants of each free node before
picking the smallest region.  ``update_injection_regions`` grows bitmasks by
shifts, one dilation per claimant per ring; the tests reach it through
``grow_masks``, which converts sets to masks and back.  Both must return the
same regions and leave the same free set.

``reference_simulate_parallel_rus`` is the original Monte Carlo loop on
coordinate sets, growing regions with ``reference_update_injection_regions``:
one scalar ``rng.random()`` per draw and the per-clock injection chance
recomputed at every use.  ``simulate_parallel_rus`` holds regions as
bitmasks, reads the same uniforms from blocks and keeps each awaiting
process's chance; both must return the same completions, or raise the same
error, after the same ``success_prob`` calls.

``reference_calibrate_p_pass`` is the original calibration: every bisection
step runs all its naive runs through ``simulate_parallel_rus``.
``calibrate_p_pass`` reuses a run whose comparisons cannot change; both must
return the same rate, or raise the same error, except that the change rejects
a target no pass rate in [1e-4, 1] reaches where the reference returned a
bracket end.
"""

import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsched import injection, rus
from starsched.cli import run
from starsched.injection import SHIPPED_CONFIGS, InfeasibleModel, InjectionConfig, success_prob
from starsched.rus import (
    MAX_RUN_CLOCKS,
    FreeCells,
    RusStats,
    benchmark_layout,
    calibrate_p_pass,
    expected_trials,
    prob_finish_at,
    simulate_parallel_rus,
    update_injection_regions,
)

CFG = SHIPPED_CONFIGS[9]


def test_single_process_mean_is_two():
    assert expected_trials(1) == 2.0


def test_two_process_mean():
    assert expected_trials(2) == pytest.approx(8 / 3, abs=1e-9)


def test_known_group_means():
    assert expected_trials(12) == pytest.approx(4.9773, abs=5e-4)
    assert expected_trials(16) == pytest.approx(5.3770, abs=5e-4)
    assert expected_trials(32) == pytest.approx(6.3549, abs=5e-4)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 512, 4096])
def test_finish_distribution_normalized(m):
    total = math.fsum(prob_finish_at(k, m) for k in range(1, 80))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_finish_distribution_is_max_of_geometrics():
    # oracle: P(max trial count of m coin-flip processes == k)
    for m in (1, 3, 8):
        for k in (1, 2, 5):
            cdf_k = (1 - 2.0**-k) ** m
            cdf_prev = (1 - 2.0 ** -(k - 1)) ** m
            assert prob_finish_at(k, m) == pytest.approx(cdf_k - cdf_prev)


@given(st.integers(1, 4096))
@settings(max_examples=60, deadline=None)
def test_mean_monotone_in_group_size(m):
    assert expected_trials(m + 1) > expected_trials(m)


def test_sampled_mean_matches_series():
    rng = np.random.default_rng(123)
    runs = 40_000
    for m in (1, 2, 12, 32):
        draws = rng.geometric(0.5, size=(runs, m)).max(axis=1)
        sigma = draws.std(ddof=1) / math.sqrt(runs)
        assert abs(draws.mean() - expected_trials(m)) < 3 * sigma


def _grid_neighbors(cells):
    """Lookup of each cell's in-grid neighbours, built once per grid."""
    table = {
        (r, c): [nb for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)) if nb in cells]
        for r, c in cells
    }
    return table.__getitem__


def to_mask(cells, cols):
    """Bitmask of coordinate cells, cell (r, c) at bit r·cols + c."""
    return sum(1 << (r * cols + c) for r, c in cells)


def to_cells(bits, cols):
    return {divmod(i, cols) for i in range(bits.bit_length()) if bits >> i & 1}


def grid_masks(rows, cols):
    """(cols, not_first_col, not_last_col) of a rows × cols grid."""
    first_col = to_mask(((r, 0) for r in range(rows)), cols)
    full = (1 << rows * cols) - 1
    return cols, full ^ first_col, full ^ (first_col << (cols - 1))


def grow_masks(free, regions, rows, cols):
    """``update_injection_regions`` on coordinate sets over a rows × cols grid.

    Converts ``free`` and ``regions`` to bitmasks, grows them, and returns
    the grown regions as sets; ``free`` loses the assigned cells in place.
    Also checks that it returns exactly the pids whose regions grew.
    """
    box = FreeCells(to_mask(free, cols))
    masks = {pid: to_mask(region, cols) for pid, region in regions.items()}
    grown_pids = update_injection_regions(box, masks, grid_masks(rows, cols))
    free.intersection_update(to_cells(box.bits, cols))
    grown = {pid: to_cells(bits, cols) for pid, bits in masks.items()}
    assert grown_pids == {pid for pid in regions if grown[pid] != regions[pid]}
    return grown


def test_region_growth_stays_disjoint_and_consumes_free():
    free = {(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)}
    regions = {0: {(0, 0)}, 1: {(0, 4)}}
    grown = grow_masks(free, regions, 2, 5)
    assert not grown[0] & grown[1]
    assert grown[0] >= regions[0] and grown[1] >= regions[1]
    for pid, region in grown.items():
        assert not region & free  # claimed cells were removed from free


def reference_update_injection_regions(free, regions, neighbors):
    regions = {pid: set(cells) for pid, cells in regions.items()}
    while True:
        sizes = {pid: len(cells) for pid, cells in regions.items()}
        claims = {}
        for pid in sorted(regions):
            for cell in regions[pid]:
                for nb in neighbors(cell):
                    if nb in free:
                        claimants = claims.setdefault(nb, [])
                        if pid not in claimants:
                            claimants.append(pid)
        if not claims:
            return regions
        for node in sorted(claims):
            winner = min(claims[node], key=lambda pid: (sizes[pid], pid))
            regions[winner].add(node)
            free.discard(node)


def labelled_grid(labels):
    """Neighbour function, free set and regions of a labelled grid."""
    neighbors = _grid_neighbors({cell for cell, lab in labels.items() if lab != -3})
    free = {cell for cell, lab in labels.items() if lab == -1}
    regions: dict[int, set] = {}
    for cell, lab in labels.items():
        if lab >= 0:
            regions.setdefault(lab, set()).add(cell)
    return neighbors, free, regions


def draw_grid(rows, cols, data):
    """Neighbour function, free set and regions of a random labelled grid."""
    # label per cell: -3 hole (not a cell), -2 target, -1 free, 0..3 region id
    return labelled_grid(
        {(r, c): data.draw(st.integers(-3, 3)) for r in range(rows) for c in range(cols)}
    )


@given(st.integers(1, 5), st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_region_growth_invariants(rows, cols, data):
    neighbors, free, regions = draw_grid(rows, cols, data)
    free_before = set(free)
    grown = grow_masks(free, regions, rows, cols)
    claimed = [cell for region in grown.values() for cell in region]
    assert len(claimed) == len(set(claimed))  # pairwise disjoint
    assert not set(claimed) & free
    assert all(grown[pid] >= region for pid, region in regions.items())
    assert set(claimed) - set().union(*regions.values()) == free_before - free
    assert not {nb for cell in claimed for nb in neighbors(cell)} & free


@given(st.integers(1, 5), st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_region_growth_matches_reference(rows, cols, data):
    neighbors, free, regions = draw_grid(rows, cols, data)
    free_ref = set(free)
    grown = grow_masks(free, regions, rows, cols)
    expected = reference_update_injection_regions(free_ref, regions, neighbors)
    assert grown == expected
    assert list(grown) == list(expected)
    assert free == free_ref


@pytest.mark.parametrize("seed", range(5))
def test_region_growth_matches_reference_past_one_word(seed):
    # 4 × 100 cells: masks of 400 bits, and regions that cross bit 64
    rows, cols = 4, 100
    rng = random.Random(seed)
    weights = [1, 2, 24] + [1] * 12  # mostly free cells, twelve region ids
    labels = {
        (r, c): rng.choices(range(-3, 12), weights)[0] for r in range(rows) for c in range(cols)
    }
    neighbors, free, regions = labelled_grid(labels)
    assert any(c >= 64 for region in regions.values() for _, c in region)
    free_ref = set(free)
    grown = grow_masks(free, regions, rows, cols)
    expected = reference_update_injection_regions(free_ref, regions, neighbors)
    assert grown == expected
    assert free == free_ref
    assert any(len(region) > 30 for region in grown.values())


def test_region_tie_break_prefers_lower_id():
    # one free cell adjacent to both equally sized regions
    free = {(0, 1)}
    regions = {0: {(0, 0)}, 1: {(0, 2)}}
    grown = grow_masks(free, regions, 1, 3)
    assert (0, 1) in grown[0]
    assert grown[1] == {(0, 2)}


def test_layout_shapes():
    targets, regions, cells = benchmark_layout(8, "Z")
    assert len(targets) == 8
    assert len(regions) == 8
    all_target_cells = {c for t in targets.values() for c in t}
    all_region_cells = {c for r in regions.values() for c in r}
    assert not all_target_cells & all_region_cells
    assert all_target_cells | all_region_cells <= cells
    targets_zz, _, _ = benchmark_layout(4, "ZZ")
    assert all(len(t) == 2 for t in targets_zz.values())


@pytest.mark.parametrize("m, basis", [(1, "Z"), (7, "Z"), (40, "Z"), (1, "ZZ"), (100, "ZZ")])
def test_batch_masks_match_layout(m, basis):
    targets, regions, cells = benchmark_layout(m, basis)
    cols = len(cells) // 4
    used = {c for t in targets.values() for c in t} | {c for r in regions.values() for c in r}
    masks, free, grid, meas_clocks = rus._batch(m, basis)
    assert masks == {pid: to_mask(region, cols) for pid, region in regions.items()}
    assert free == to_mask(cells - used, cols)
    assert grid == grid_masks(4, cols)
    assert meas_clocks == len(basis)


def test_single_rotation_mean_clocks():
    # one Z rotation: inject (1 clock) + measure (1 clock) per trial, with
    # pre-injection overlapping later measurements → <trials> + 1 clocks
    stats = simulate_parallel_rus(1, "Z", 1e-8, CFG, "adaptive", runs=4000, seed=5)
    assert stats.mean == pytest.approx(3.0, abs=0.1)
    naive = simulate_parallel_rus(1, "Z", 1e-8, CFG, "naive", runs=4000, seed=5)
    assert naive.mean == pytest.approx(4.0, abs=0.1)


def test_two_patch_rotation_measurement_takes_two_clocks():
    stats = simulate_parallel_rus(1, "ZZ", 1e-8, CFG, "adaptive", runs=4000, seed=5)
    assert stats.mean == pytest.approx(2 * 2.0 + 1, abs=0.15)


def test_adaptive_beats_naive_at_scale():
    adaptive = simulate_parallel_rus(32, "Z", 1e-8, CFG, "adaptive", runs=500, seed=2)
    naive = simulate_parallel_rus(32, "Z", 1e-8, CFG, "naive", runs=500, seed=2)
    assert adaptive.mean < naive.mean


def test_stats_accessors():
    stats = simulate_parallel_rus(4, "Z", 1e-8, CFG, "adaptive", runs=200, seed=9)
    hist = stats.histogram()
    assert sum(hist.values()) == 200
    assert stats.percentile(50) <= stats.percentile(95) <= stats.max
    assert min(hist) >= 2


def test_determinism_per_seed():
    a = simulate_parallel_rus(16, "ZZ", 1e-8, CFG, "adaptive", runs=300, seed=42)
    b = simulate_parallel_rus(16, "ZZ", 1e-8, CFG, "adaptive", runs=300, seed=42)
    assert a.completions == b.completions
    d = simulate_parallel_rus(16, "ZZ", 1e-8, CFG, "adaptive", runs=300, seed=43)
    assert d.completions != a.completions


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        simulate_parallel_rus(4, "Z", 1e-8, CFG, "greedy", runs=10, seed=0)


def test_pass_rate_calibration_hits_target():
    rate = calibrate_p_pass(40.0, m=8, runs=200, seed=3)
    check = simulate_parallel_rus(
        8, "Z", 1e-8, replace(CFG, p_pass=rate), "naive", runs=200, seed=3
    )
    assert check.mean == pytest.approx(40.0, rel=0.1)


def reference_simulate_parallel_rus(
    m: int,
    basis: str,
    theta_star: float,
    cfg,
    mode: str = "adaptive",
    runs: int = 1000,
    seed: int = 0,
) -> RusStats:
    if mode not in ("naive", "adaptive"):
        raise ValueError(f"mode must be naive or adaptive, got {mode!r}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    targets, regions0, cells = benchmark_layout(m, basis)
    neighbors = _grid_neighbors(cells)
    target_cells = {c for t in targets.values() for c in t}
    free0 = cells - target_cells - {c for r in regions0.values() for c in r}
    meas_clocks = 1 if basis == "Z" else 2
    adaptive = mode == "adaptive"

    # per-attempt success probability by trial index (angle doubles each trial)
    p_cache: dict[int, float] = {}

    def q(k: int, size: int) -> float:
        """Chance that one clock of size·a attempts prepares a trial-k ancilla."""
        if k not in p_cache:
            p_cache[k] = success_prob(theta_star, k, cfg)
        return 1 - (1 - p_cache[k]) ** (size * cfg.attempts_per_clock)

    def run_once(run_idx: int) -> int:
        rng = np.random.default_rng((seed, run_idx))
        # A process is ongoing while its pid is a key of regions; it is
        # measuring while meas_left > 0 and awaiting an ancilla otherwise.
        regions = {pid: set(region) for pid, region in regions0.items()}
        k = [1] * m
        meas_left = [0] * m
        buffered = [False] * m
        free = set(free0)
        t = 0
        while regions:
            t += 1
            if t > MAX_RUN_CLOCKS:
                raise InfeasibleModel(f"run {run_idx} exceeded {MAX_RUN_CLOCKS} clocks")
            finishing = []
            for pid, region in regions.items():
                if meas_left[pid]:
                    if adaptive and not buffered[pid]:
                        buffered[pid] = rng.random() < q(k[pid] + 1, len(region))
                    meas_left[pid] -= 1
                    if not meas_left[pid]:
                        finishing.append(pid)
                elif rng.random() < q(k[pid], len(region)):
                    meas_left[pid] = meas_clocks
            ongoing = len(regions)
            for pid in finishing:
                if rng.random() < 0.5:
                    free |= regions.pop(pid)
                else:
                    k[pid] += 1
                    if buffered[pid]:
                        buffered[pid] = False
                        meas_left[pid] = meas_clocks
            if adaptive and 0 < len(regions) < ongoing:
                regions = reference_update_injection_regions(free, regions, neighbors)
        return t

    completions = tuple(run_once(i) for i in range(runs))
    return RusStats(completions, runs, seed)


def outcomes(*args, clock_cap=MAX_RUN_CLOCKS):
    """(result, success_prob trial indices) of the reference, then the change.

    The result is the completion tuple, or the error's type and message.
    """
    found = []
    for simulate, namespace in (
        (reference_simulate_parallel_rus, globals()),
        (simulate_parallel_rus, vars(rus)),
    ):
        trials = []

        def counted(target_angle, trial, cfg):
            trials.append(trial)
            return injection.success_prob(target_angle, trial, cfg)

        with mock.patch.dict(namespace, MAX_RUN_CLOCKS=clock_cap, success_prob=counted):
            try:
                result = simulate(*args).completions
            except ValueError as exc:  # AngleCapError and InfeasibleModel
                result = (type(exc), str(exc))
        found.append((result, trials))
    return found


@given(
    m=st.integers(1, 40),
    basis=st.sampled_from(["Z", "ZZ"]),
    mode=st.sampled_from(["naive", "adaptive"]),
    log_p_pass=st.floats(-3, 0),
    attempts=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    runs=st.integers(1, 5),
    log_theta=st.one_of(st.just(-8.0), st.floats(-9, 0)),
    clock_cap=st.one_of(st.just(MAX_RUN_CLOCKS), st.integers(1, 400)),
)
@settings(max_examples=150, deadline=None)
def test_simulation_matches_reference(
    m, basis, mode, log_p_pass, attempts, seed, runs, log_theta, clock_cap
):
    cfg = InjectionConfig(k=3, p_pass=10.0**log_p_pass, attempts_per_clock=attempts)
    args = (m, basis, 10.0**log_theta, cfg, mode, runs, seed)
    reference, change = outcomes(*args, clock_cap=clock_cap)
    assert change == reference


def test_angle_cap_abort_matches_reference():
    # one process of run 36 fails 27 trials in a row on a 72-cell region
    args = (36, "ZZ", 1e-8, CFG, "adaptive", 100, 909)
    reference, change = outcomes(*args)
    assert change == reference
    (kind, message), _ = change
    assert kind.__name__ == "AngleCapError" and message.endswith("at trial 28")


def test_angle_cap_abort_exits_one(capsys):
    argv = ["simulate-rus", "--m", "36", "--basis", "ZZ", "--mode", "adaptive",
            "--runs", "100", "--seed", "909"]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "error: trial angle 1.342 exceeds the small-angle cap 0.7854 at trial 28\n"
    )


def test_naive_large_angle_matches_reference_per_seed():
    # θ* = 0.1 reaches the cap at trial 4: a run finishes unless its one
    # process fails three trials in a row.  Low clock caps also put that
    # third failure on the last clock allowed, where the clock cap must win.
    finished = set()
    for seed in range(24):
        for clock_cap in (*range(1, 13), MAX_RUN_CLOCKS):
            reference, change = outcomes(
                1, "Z", 0.1, CFG, "naive", 1, seed, clock_cap=clock_cap
            )
            assert change == reference
        result, _ = change
        finished.add(isinstance(result[0], int))
    assert finished == {True, False}


@pytest.mark.parametrize("mode", ["naive", "adaptive"])
def test_batch_wider_than_block_matches_reference(mode):
    # 2·M > RNG_BLOCK: the block holds exactly one clock's worst case
    assert 2 * 150 > rus.RNG_BLOCK
    reference, change = outcomes(150, "ZZ", 1e-8, CFG, mode, 3, 8)
    assert change == reference


def reference_calibrate_p_pass(
    target_mean: float,
    m: int = 32,
    basis: str = "Z",
    theta_star: float = 1e-8,
    cfg: InjectionConfig | None = None,
    runs: int = 300,
    seed: int = 7,
) -> float:
    """Pass rate making the naive-mode mean completion ≈ target_mean clocks.

    Bisects on log10(p_pass); the naive mean is monotone decreasing in the
    pass rate.
    """
    base = cfg or SHIPPED_CONFIGS[9]

    def mean_at(log_p: float) -> float:
        trial = replace(base, p_pass=10.0**log_p)
        return simulate_parallel_rus(
            m, basis, theta_star, trial, "naive", runs, seed
        ).mean

    lo, hi = -4.0, 0.0
    for _ in range(22):
        mid = (lo + hi) / 2
        if mean_at(mid) > target_mean:
            lo = mid
        else:
            hi = mid
    return 10.0 ** ((lo + hi) / 2)


# What the reference returns when every step moved the same bracket end.
BRACKET_ENDS = {repr(10.0 ** -(2.0**-21)), repr(10.0 ** (-4 + 2.0**-21))}


def not_reached(target):
    return (ValueError, f"target mean {target!r} clocks is not reached for pass rates in [1e-4, 1]")


def calibration_outcomes(*args, clock_cap=MAX_RUN_CLOCKS):
    """repr of the rate, or the error's type and message: reference, then change."""
    found = []
    for calibrate in (reference_calibrate_p_pass, calibrate_p_pass):
        with mock.patch.object(rus, "MAX_RUN_CLOCKS", clock_cap):
            try:
                found.append(repr(calibrate(*args)))
            except ValueError as exc:  # AngleCapError and InfeasibleModel
                found.append((type(exc), str(exc)))
    return found


# Half the targets lie where a cap of at most 400 clocks lets the bisection
# finish, and half the caps are 400: elsewhere most cases raise at the first
# step.
@given(
    log_target=st.one_of(st.floats(1, 2.3), st.floats(0, 6)),
    m=st.integers(1, 24),
    basis=st.sampled_from(["Z", "ZZ"]),
    log_theta=st.one_of(st.just(-8.0), st.floats(-9, -0.5)),
    k=st.sampled_from([3, 5]),
    attempts=st.integers(1, 3),
    runs=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    clock_cap=st.one_of(st.integers(1, 400), st.just(400)),
)
@settings(max_examples=200, deadline=None)
def test_calibration_matches_reference(
    log_target, m, basis, log_theta, k, attempts, runs, seed, clock_cap
):
    target = 10.0**log_target
    cfg = InjectionConfig(k=k, attempts_per_clock=attempts)
    args = (target, m, basis, 10.0**log_theta, cfg, runs, seed)
    reference, change = calibration_outcomes(*args, clock_cap=clock_cap)
    if reference in BRACKET_ENDS:
        reference = not_reached(target)
    assert change == reference


def test_calibration_reuses_runs():
    calls = mock.Mock(wraps=rus._simulate_run)
    with mock.patch.object(rus, "_simulate_run", calls):
        calibrate_p_pass(161.0, m=32, runs=50, seed=0)
    assert 50 <= calls.call_count < 22 * 50


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0, -1.0])
def test_calibration_rejects_target(target):
    with pytest.raises(ValueError, match="target mean must be a positive number"):
        calibrate_p_pass(target, m=4, runs=5)


@pytest.mark.parametrize("target", [1.0, 1e9])
def test_calibration_rejects_unreached_target(target):
    reference, change = calibration_outcomes(target, 4, "Z", 1e-8, None, 5, 7)
    assert reference in BRACKET_ENDS
    assert change == not_reached(target)


def test_calibration_rejects_no_runs():
    with pytest.raises(ValueError, match="^runs must be at least 1, got 0$"):
        calibrate_p_pass(161.0, runs=0)
