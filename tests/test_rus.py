"""Analytic trial-count series and the parallel rotation Monte Carlo.

``reference_update_injection_regions`` is the original region growth on
coordinate sets, with ``_grid_neighbors`` as its neighbour lookup: every ring
rescans all region cells and collects the claimants of each free node before
picking the smallest region.  ``update_injection_regions`` grows bitmasks by
shifts, one dilation per claimant per ring; the tests reach it through
``grow_masks``, which converts sets to masks and back.  Both must return the
same regions and leave the same free set.

``benchmark_layout`` lays a batch out as coordinate sets, as ``src/`` once
did; ``rus._batch`` must build the same regions, free cells and growth as
bitmasks by arithmetic.

``reference_simulate_parallel_rus`` is the original Monte Carlo loop on
coordinate sets, growing regions with ``reference_update_injection_regions``:
one scalar ``rng.random()`` per draw and the per-clock injection chance
recomputed at every use.  ``simulate_parallel_rus`` holds regions as
bitmasks, reads the same uniforms from blocks and keeps each awaiting
process's chance.  Both regrow regions at the end of every clock with
completions that leaves processes ongoing, and must return the same
completions, or raise the same error, after the same ``success_prob`` calls.
``_chunk_pass`` runs a chunk of runs trial by trial while every draw
succeeds at the initial region size; patched to decline, it leaves every run
to the clock loop, which must return the same clock, count of uniforms read
and largest trial index, read the same uniforms, and regrow as often as the
reference.  ``reference_trial_pass`` is the original pass, one run at a
time; with the chunk budget patched to 1-3 runs, chunks end at every
boundary the suite samples.

``reference_calibrate_p_pass`` is the original calibration: every bisection
step runs all its naive runs through ``simulate_parallel_rus``.
``calibrate_p_pass`` keeps a table of records from every step that simulated
and reuses a run whose comparisons cannot change at the new threshold,
whichever step recorded it; it re-simulates the other runs in index order,
with the uniforms the runner drew.  Both must return the same rate, or raise
the same error, including the index of the run that hits the clock or angle
cap, except that the change rejects a target no pass rate in [1e-4, 1]
reaches where the reference returned a bracket end.
"""

import contextlib
import json
import math
import random
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starsched import injection, rus, seeding
from starsched.cli import run
from starsched.fabric import bit_grid
from starsched.injection import SHIPPED_CONFIGS, InfeasibleModel, InjectionConfig, success_prob
from starsched.rus import (
    MAX_RUN_CLOCKS,
    FreeCells,
    RusStats,
    calibrate_p_pass,
    expected_trials,
    prob_finish_at,
    simulate_parallel_rus,
    update_injection_regions,
)
from starsched.seeding import generate_states

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


def box_grow(rows, cols):
    """``bit_grid``'s one ring of growth over a rows × cols grid, whose
    cell bits are those of ``to_mask``."""
    bit, grow = bit_grid((r, c) for r in range(rows) for c in range(cols))
    assert bit == {(r, c): to_mask([(r, c)], cols) for r in range(rows) for c in range(cols)}
    return grow


def grow_masks(free, regions, rows, cols):
    """``update_injection_regions`` on coordinate sets over a rows × cols grid.

    Converts ``free`` and ``regions`` to bitmasks, grows them, and returns
    the grown regions as sets; ``free`` loses the assigned cells in place.
    Also checks that it returns exactly the pids whose regions grew.
    """
    box = FreeCells(to_mask(free, cols))
    masks = {pid: to_mask(region, cols) for pid, region in regions.items()}
    grown_pids = update_injection_regions(box, masks, box_grow(rows, cols))
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


def benchmark_layout(m: int, basis: str):
    """Targets and initial injection regions for an M-process batch, as
    coordinate sets: the layout ``rus._batch`` builds as bitmasks.

    Z processes occupy single data patches on the outer rows with a one-patch
    region on the adjacent routing row; ZZ processes occupy a vertical data
    pair per column with a two-patch region below.
    """
    if m < 1:
        raise ValueError("need at least one process")
    targets = {}
    regions = {}
    if basis == "Z":
        cols = (m + 1) // 2
        for pid in range(m):
            if pid < cols:
                targets[pid] = ((0, pid),)
                regions[pid] = {(1, pid)}
            else:
                c = pid - cols
                targets[pid] = ((3, c),)
                regions[pid] = {(2, c)}
    elif basis == "ZZ":
        cols = m
        for pid in range(m):
            targets[pid] = ((0, pid), (1, pid))
            regions[pid] = {(2, pid), (3, pid)}
    else:
        raise ValueError(f"basis must be Z or ZZ, got {basis!r}")
    cells = {(r, c) for r in range(4) for c in range(cols)}
    return targets, regions, cells


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


@pytest.mark.parametrize("basis", ["Z", "ZZ"])
@pytest.mark.parametrize("m", [*range(1, 10), 40, 63, 64, 65, 100, 101, 150])
def test_batch_masks_match_layout(m, basis):
    targets, regions, cells = benchmark_layout(m, basis)
    cols = len(cells) // 4
    used = {c for t in targets.values() for c in t} | {c for r in regions.values() for c in r}
    masks, free, grow, meas_clocks, size = rus._batch(m, basis)
    assert masks == {pid: to_mask(region, cols) for pid, region in regions.items()}
    assert list(masks) == list(regions)
    assert free == to_mask(cells - used, cols)
    neighbors = _grid_neighbors(cells)
    full = to_mask(cells, cols)
    for cell in cells:  # one ring of growth reaches exactly the grid neighbours
        assert grow(to_mask([cell], cols)) & full == to_mask(neighbors(cell), cols)
    assert meas_clocks == len(basis)
    assert {len(region) for region in regions.values()} == {size}


@pytest.mark.parametrize("m", [-1, 0, 1])
@pytest.mark.parametrize("basis", ["Z", "ZZ", "X", "", None])
def test_batch_rejects_what_the_layout_rejects(m, basis):
    # "need at least one process" comes before the basis check
    try:
        benchmark_layout(m, basis)
    except ValueError as exc:
        with pytest.raises(ValueError) as ours:
            rus._batch(m, basis)
        assert str(ours.value) == str(exc)
    else:
        rus._batch(m, basis)


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


SIMULATION_CASES = dict(
    m=st.integers(1, 40),
    basis=st.sampled_from(["Z", "ZZ"]),
    log_p_pass=st.floats(-3, 0),
    attempts=st.integers(1, 3),
    # multi-word seeds too: from 2^32 up, (seed, run) spans 3 or more words
    seed=st.one_of(st.integers(0, 2**16), st.integers(2**32, 2**100)),
    runs=st.integers(1, 5),
    log_theta=st.one_of(st.just(-8.0), st.floats(-9, 0)),
)


@given(
    **SIMULATION_CASES,
    mode=st.sampled_from(["naive", "adaptive"]),
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
    # 2·M > RNG_BLOCK at 2 uniforms per process: the block holds exactly one
    # clock's worst case, so every clock refills
    assert 2 * 150 > rus.RNG_BLOCK
    with mock.patch.object(rus, "RNG_BLOCK_PER_PROCESS", 2):
        reference, change = outcomes(150, "ZZ", 1e-8, CFG, mode, 3, 8)
    assert change == reference


@given(
    p_pass=st.one_of(
        st.floats(0, 1, exclude_min=True), st.floats(2.0**-60, 2.0**-40)
    ),
    k=st.sampled_from([3, 5]),
    attempts=st.integers(1, 3),
    trial=st.integers(1, 27),  # trial 28 passes the angle cap at θ* = 1e-8
    size=st.integers(1, 400),
)
@settings(max_examples=500, deadline=None)
def test_injection_chance_never_falls_as_a_region_grows(p_pass, k, attempts, trial, size):
    # the trial pass's assumption: a draw below its threshold at the initial
    # region size would succeed at any size the region grows to
    q = rus._thresholds(1e-8, InjectionConfig(k=k, p_pass=p_pass, attempts_per_clock=attempts))
    assert q(trial, size) <= q(trial, size + 1)


def regrowth_calls(*args) -> tuple[tuple[int, ...], int]:
    """Completions of ``simulate_parallel_rus(*args)`` and its regrowth calls."""
    with mock.patch.object(
        rus, "update_injection_regions", wraps=update_injection_regions
    ) as kernel:
        completions = simulate_parallel_rus(*args).completions
    return completions, kernel.call_count


def trial_count_mismatches(m, basis, chunk_pass):
    """Runs 0..199 at seed 0 whose completion clock breaks the per-run law
    of the shipped pass rate, each chunk of runs through ``chunk_pass``
    first."""
    # at SHIPPED_CONFIGS[9] an injection clock fails with chance 2.7e-15 at
    # trial 1 (7.1e-10 at trial 10), so a run's completion clock is fixed by
    # its largest trial index K: 1 + meas·K adaptive, (1 + meas)·K naive.
    batch = rus._batch(m, basis)
    q = rus._thresholds(1e-8, CFG)
    meas = len(basis)
    mismatches = []
    with mock.patch.object(rus, "_chunk_pass", chunk_pass):
        by_mode = [list(rus._simulate_runs(batch, q, adaptive, 0, range(200)))
                   for adaptive in (True, False)]
    for i, ((adaptive, _, k, _), (naive, _, k_naive, _)) in enumerate(zip(*by_mode)):
        if (adaptive, naive) != (1 + meas * k, (1 + meas) * k_naive):
            mismatches.append((i, adaptive, k, naive, k_naive))
    return mismatches


@pytest.mark.parametrize("m", [1, 7, 32, 100])
@pytest.mark.parametrize("basis", ["Z", "ZZ"])
def test_shipped_pass_rate_completion_follows_trial_count(m, basis):
    # The clock loop runs every run: the trial pass assumes this law.
    assert trial_count_mismatches(m, basis, decline) == []


@pytest.mark.parametrize("m", [1, 7, 32, 100])
@pytest.mark.parametrize("basis", ["Z", "ZZ"])
def test_trial_pass_completion_follows_trial_count(m, basis):
    # the same law through the trial pass, which ends every run
    with declined_runs() as declined:
        assert trial_count_mismatches(m, basis, rus._chunk_pass) == []
    assert declined == []


def decline(*args):
    """A ``_chunk_pass`` that leaves every run to the clock loop."""


@given(**SIMULATION_CASES)
@example(
    m=32, basis="ZZ", log_p_pass=math.log10(0.3), attempts=3, seed=1, runs=5, log_theta=-8.0
)
@settings(max_examples=100, deadline=None)
def test_clock_loop_regrows_at_every_clock_with_completions(
    m, basis, log_p_pass, attempts, seed, runs, log_theta
):
    # the per-clock rule: one regrowth per clock whose completions leave
    # processes ongoing, counted up to the error if a run raises
    cfg = InjectionConfig(k=3, p_pass=10.0**log_p_pass, attempts_per_clock=attempts)
    args = (m, basis, 10.0**log_theta, cfg, "adaptive", runs, seed)
    calls = []
    for simulate, namespace, kernel in (
        (reference_simulate_parallel_rus, globals(), "reference_update_injection_regions"),
        (simulate_parallel_rus, vars(rus), "update_injection_regions"),
    ):
        counted = mock.Mock(wraps=namespace[kernel])
        with mock.patch.dict(namespace, {kernel: counted}):
            with mock.patch.object(rus, "_chunk_pass", decline):
                try:
                    simulate(*args)
                except ValueError:  # AngleCapError
                    pass
        calls.append(counted.call_count)
    reference, change = calls
    assert change == reference


@contextlib.contextmanager
def declined_runs():
    """The index of each run that enters the clock loop, in order, logged
    while the context is open: a run the trial pass declines enters it
    once, and a run the pass completes never does."""
    declined = []
    clock_loop = rus._clock_loop

    def logged(*args):
        declined.append(args[-1])
        return clock_loop(*args)

    with mock.patch.object(rus, "_clock_loop", logged):
        yield declined


def pass_and_clock_loop(batch, q, adaptive, seed, runs):
    """``run_outcomes`` of runs 0..runs - 1 through the trial pass, then
    through the clock loop alone, and the runs the pass declined.  Only the
    uniforms read are compared: the clock loop may draw a refill that the
    pass never needs."""
    with declined_runs() as declined:
        by_pass = run_outcomes(batch, q, adaptive, seed, range(runs))
    with mock.patch.object(rus, "_chunk_pass", decline):
        by_clock_loop = run_outcomes(batch, q, adaptive, seed, range(runs))
    return by_pass, by_clock_loop, declined


@pytest.mark.parametrize("m", [1, 7, 32, 100])
@pytest.mark.parametrize("basis", ["Z", "ZZ"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_trial_pass_matches_clock_loop_at_shipped_rate(m, basis, adaptive):
    batch = rus._batch(m, basis)
    q = rus._thresholds(1e-8, CFG)
    by_pass, by_clock_loop, declined = pass_and_clock_loop(batch, q, adaptive, 0, 200)
    for i, (found, want) in enumerate(zip(by_pass, by_clock_loop)):
        assert found == want, i
    assert declined == []


@pytest.mark.parametrize("m", [100, 150])
@pytest.mark.parametrize("mode, factor", [("naive", 4), ("adaptive", 5)])
def test_trial_pass_declined_at_the_window_matches_clock_loop(m, mode, factor):
    # At the shipped rate a draw fails with chance 2.7e-15, so a pass
    # declines only at the window.  A block of at least 3·M fits trial 1 (M
    # read, 2·M to read); a whole run reads about 4·M naive and 5·M adaptive,
    # so about half the passes complete trial 1 and then decline.
    batch = rus._batch(m, "ZZ")
    q = rus._thresholds(1e-8, CFG)
    with mock.patch.object(rus, "RNG_BLOCK_PER_PROCESS", factor):
        assert max(rus.RNG_BLOCK, factor * m) >= 3 * m
        by_pass, by_clock_loop, declined = pass_and_clock_loop(
            batch, q, mode == "adaptive", 1, 40
        )
    for i, (found, want) in enumerate(zip(by_pass, by_clock_loop)):
        assert found == want, i
        if i in declined:
            assert want[2] > 1, i  # trial 1 left processes ongoing
    # some runs declined, each once, and some completed
    assert declined == sorted(set(declined)) and 0 < len(declined) < 40


def run_outcomes(batch, q, adaptive, seed, indices):
    """(clock, uniforms read, largest trial index, the uniforms read) of each
    run of ``indices``, simulated in one call."""
    return [
        (t, read, max_k, np.concatenate(blocks)[:read].tolist())
        for t, read, max_k, blocks in rus._simulate_runs(batch, q, adaptive, seed, indices)
    ]


def run_outcome(batch, q, adaptive, seed, i):
    """``run_outcomes`` of run i alone, or the error's type and message."""
    try:
        return run_outcomes(batch, q, adaptive, seed, [i])[0]
    except ValueError as exc:  # AngleCapError and InfeasibleModel
        return type(exc), str(exc)


@given(
    m=st.integers(1, 160),
    basis=st.sampled_from(["Z", "ZZ"]),
    adaptive=st.booleans(),
    p_pass=st.one_of(st.just(CFG.p_pass), st.floats(0.02, 0.9)),
    seed=st.one_of(st.integers(0, 2**16), st.integers(2**32, 2**100)),
    i=st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_run_does_not_depend_on_the_block_length(m, basis, adaptive, p_pass, seed, i):
    # the block length moves only where refills fall: 2 uniforms per process
    # refills at nearly every clock, 40 almost never
    batch = rus._batch(m, basis)
    q = rus._thresholds(1e-8, replace(CFG, p_pass=p_pass))
    found = []
    for factor in (2, 8, 40):
        with mock.patch.object(rus, "RNG_BLOCK_PER_PROCESS", factor):
            found.append(run_outcome(batch, q, adaptive, seed, i))
    assert found[0] == found[1] == found[2]


def blocks_drawn(*args) -> list[int]:
    """The number of blocks each run of ``simulate_parallel_rus(*args)`` drew."""
    simulate_runs = rus._simulate_runs
    blocks = []

    def counted(*run_args):
        for found in simulate_runs(*run_args):
            blocks.append(len(found[3]))
            yield found

    with mock.patch.object(rus, "_simulate_runs", counted):
        simulate_parallel_rus(*args)
    return blocks


def test_shipped_rate_m100_zz_draws_one_block_per_run():
    # 523 refills over these 100 runs when a block held max(256, 2·M)
    assert blocks_drawn(100, "ZZ", 1e-8, CFG, "adaptive", 100, 0) == [1] * 100


@pytest.mark.parametrize("mode", ["naive", "adaptive"])
def test_each_run_builds_one_generator(mode):
    # A block of 2·M uniforms cannot fit trial 1 (M read, 2·M to read), so
    # every pass declines and every run's clock loop, refilling at each
    # clock, draws more than one block, all from the run's one generator.
    generators = mock.Mock(wraps=seeding.generator)
    cfg = replace(CFG, p_pass=0.7)
    with mock.patch.object(rus, "RNG_BLOCK_PER_PROCESS", 2), mock.patch.object(
        seeding, "generator", generators
    ):
        blocks = blocks_drawn(150, "ZZ", 1e-8, cfg, mode, 40, 1)
    assert generators.call_count == len(blocks) == 40
    assert min(blocks) > 1


def test_angle_cap_error_leaves_the_trial_pass_once():
    # the pass evaluates q(28) where the clock loop would, and its error is
    # the run's: the clock loop does not run the run again
    with declined_runs() as declined:
        reference, change = outcomes(36, "ZZ", 1e-8, CFG, "adaptive", 100, 909)
    assert change == reference
    (kind, _), _ = change
    assert kind.__name__ == "AngleCapError" and declined == []


def test_rus_adaptive_shapes_never_enter_the_clock_loop():
    # the 12 batch shapes of the rus-adaptive goldens, 100 runs at seed 0
    shapes = golden_adaptive_trials()
    assert len(shapes) == 12
    runs = {shape: sum(counts.values()) for shape, counts in shapes.items()}
    assert sum(runs.values()) == 1200
    with declined_runs() as declined:
        for (m, basis), count in runs.items():
            simulate_parallel_rus(m, basis, 1e-8, CFG, "adaptive", count, 0)
    assert declined == []


def reference_trial_pass(batch, q, adaptive, buf):
    """The trial pass of one run, as ``src/`` once ran it: the run's (clock,
    uniforms read, largest trial index), or the trial at which it declines
    (0 at clock 1)."""
    m, meas, size = len(batch[0]), batch[3], batch[4]
    if max(buf[:m]) >= q(1, size):
        return 0
    pos, t, k, n = m, 1, 1, m
    while True:
        if t + meas > MAX_RUN_CLOCKS or pos + 2 * n > len(buf):
            return k
        if adaptive:
            if max(buf[pos : pos + n]) >= q(k + 1, size):
                return k
            pos += n
        coins = buf[pos : pos + n]
        pos += n
        t += meas
        n = sum(coin >= 0.5 for coin in coins)
        if not n:
            return t, pos, k
        k += 1
        if not adaptive:
            if t >= MAX_RUN_CLOCKS or max(buf[pos : pos + n]) >= q(k, size):
                return k
            pos += n
            t += 1


def first_blocks(m, seed, runs):
    """The first blocks of runs 0..runs - 1 of ``seed`` at M processes."""
    width = max(rus.RNG_BLOCK, rus.RNG_BLOCK_PER_PROCESS * m)
    return np.array([seeding.generator(state).random(width)
                     for state in generate_states([(seed, i) for i in range(runs)])])


def chunk_pass_outcomes(batch, q, adaptive, u):
    """What ``_chunk_pass`` sets per row of ``u``, and the (k, lowest row)
    of each threshold it asks for."""
    asked = []

    def level(k, lowest):
        asked.append((k, lowest))
        return q(k, batch[4])

    done = [None] * len(u)
    rus._chunk_pass(batch, u, adaptive, level, done)
    return done, asked


@given(
    m=st.integers(1, 40),
    basis=st.sampled_from(["Z", "ZZ"]),
    adaptive=st.booleans(),
    p_pass=st.one_of(st.just(CFG.p_pass), st.floats(0.02, 1)),
    seed=st.integers(0, 2**16),
    runs=st.integers(1, 9),
)
@settings(max_examples=150, deadline=None)
def test_chunk_pass_completes_what_the_pass_of_each_run_completes(
    m, basis, adaptive, p_pass, seed, runs
):
    batch = rus._batch(m, basis)
    q = rus._thresholds(1e-8, replace(CFG, p_pass=p_pass))
    u = first_blocks(m, seed, runs)
    done, asked = chunk_pass_outcomes(batch, q, adaptive, u)
    by_run = [reference_trial_pass(batch, q, adaptive, row.tolist()) for row in u]
    assert [found and found[:3] for found in done] == [
        found if isinstance(found, tuple) else None for found in by_run
    ]
    # a completed run's one block is its row
    assert all(len(found[3]) == 1 and (found[3][0] == u[r]).all()
               for r, found in enumerate(done) if found)
    # each threshold once, in trial order, asked with a row still in the pass
    assert [k for k, _ in asked] == sorted({k for k, _ in asked})
    assert all(done[row] is None or asked_at <= done[row][2] + adaptive
               for asked_at, row in asked)


@given(
    m=st.integers(1, 6),
    basis=st.sampled_from(["Z", "ZZ"]),
    adaptive=st.booleans(),
    p_pass=st.floats(0.3, 1),
    runs=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_chunk_pass_breaks_ties_as_the_pass_of_each_run(m, basis, adaptive, p_pass, runs, data):
    # blocks tiled from a pattern of the values where a comparison flips:
    # 1/2 and the thresholds themselves, and the doubles just below them
    batch = rus._batch(m, basis)
    q = rus._thresholds(1e-8, replace(CFG, p_pass=p_pass))
    edges = [0.5, *(q(k, batch[4]) for k in range(1, 8))]
    values = [0.0, *edges, *(math.nextafter(edge, 0) for edge in edges)]
    pattern = data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=48))
    width = max(rus.RNG_BLOCK, rus.RNG_BLOCK_PER_PROCESS * m)
    u = np.resize(np.array(pattern), (runs, width))

    def outcome(run):  # a coin pattern of failures can reach the angle cap
        try:
            return run()
        except ValueError as exc:  # AngleCapError
            return type(exc), str(exc)

    done = outcome(lambda: [found and found[:3]
                            for found in chunk_pass_outcomes(batch, q, adaptive, u)[0]])
    by_run = outcome(lambda: [found if isinstance(found, tuple) else None for found in (
        reference_trial_pass(batch, q, adaptive, row.tolist()) for row in u)])
    assert done == by_run


@given(
    **{**SIMULATION_CASES, "runs": st.integers(1, 9),
       "log_p_pass": st.floats(math.log10(0.02), 0)},
    mode=st.sampled_from(["naive", "adaptive"]),
    per_chunk=st.integers(1, 3),
    clock_cap=st.one_of(st.just(MAX_RUN_CLOCKS), st.integers(1, 400)),
)
# run 0 meets the clock cap in the clock loop before run 1's pass needs q(2)
@example(m=1, basis="Z", log_p_pass=-0.3, attempts=1, seed=3, runs=3,
         log_theta=-0.5, mode="naive", per_chunk=3, clock_cap=10)
@settings(max_examples=200, deadline=None)
def test_chunk_boundaries_match_reference(
    m, basis, mode, log_p_pass, attempts, seed, runs, log_theta, per_chunk, clock_cap
):
    # chunks of 1-3 runs: every boundary falls between runs of one call, and
    # the clock loops of declined runs, run before a new threshold, keep the
    # reference's success_prob calls and first error
    cfg = InjectionConfig(k=3, p_pass=10.0**log_p_pass, attempts_per_clock=attempts)
    args = (m, basis, 10.0**log_theta, cfg, mode, runs, seed)
    width = max(rus.RNG_BLOCK, rus.RNG_BLOCK_PER_PROCESS * m)
    with mock.patch.object(rus, "CHUNK_DOUBLES", per_chunk * width + width - 1):
        reference, change = outcomes(*args, clock_cap=clock_cap)
    assert change == reference


def test_runs_of_one_chunk_decline_at_different_trials():
    # blocks of 5·M at M = 100 ZZ: a run reads about 5·M, so runs decline at
    # the window after different trials, and all 12 share one chunk
    args = (100, "ZZ", 1e-8, CFG, "adaptive", 12, 0)
    batch = rus._batch(100, "ZZ")
    q = rus._thresholds(1e-8, CFG)
    with mock.patch.object(rus, "RNG_BLOCK_PER_PROCESS", 5):
        assert rus.CHUNK_DOUBLES // 500 >= 12
        u = first_blocks(100, 0, 12)
        by_run = [reference_trial_pass(batch, q, True, row.tolist()) for row in u]
        done, _ = chunk_pass_outcomes(batch, q, True, u)
        reference, change = outcomes(*args)
    declined_at = {found for found in by_run if not isinstance(found, tuple)}
    assert len(declined_at) >= 2 and any(isinstance(found, tuple) for found in by_run)
    assert [found and found[:3] for found in done] == [
        found if isinstance(found, tuple) else None for found in by_run
    ]
    assert change == reference


def test_shipped_pass_rate_never_regrows():
    # q(k, 2) is 1.0 up to trial 10 here: every run ends in the trial pass,
    # which never regrows
    _, calls = regrowth_calls(100, "ZZ", 1e-8, CFG, "adaptive", 20, 0)
    assert calls == 0


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def golden_adaptive_trials():
    """{(M, basis): {largest trial index j: runs}} read from the rus-adaptive
    golden histograms, each clock 1 + meas·j checked to have that form."""
    items = json.loads((GOLDEN / "rus-adaptive.json").read_text())["items"]
    hists = {}
    for item, files in items.items():
        _, m, basis = item.split("-")
        meas = len(basis)
        counts = {}
        for line in files["hist"].splitlines()[1:]:
            clock, count = map(int, line.split(","))
            j, rest = divmod(clock - 1, meas)
            assert rest == 0 and j >= 1, (item, clock)
            counts[j] = count
        hists[int(m[1:]), basis] = counts
    return hists


def chi2_against_finish_law(counts: dict[int, int], m: int) -> tuple[float, int]:
    """Pearson χ² and degrees of freedom of trial counts against
    ``prob_finish_at(j, m)``, the largest bin taking the tail past it and
    adjacent bins merged until each expects at least 5 runs."""
    runs, top = sum(counts.values()), max(counts)
    expected = [runs * prob_finish_at(j, m) for j in range(1, top)]
    expected.append(runs - sum(expected))
    bins = []
    observed = want = 0.0
    for j, e in enumerate(expected, start=1):
        observed += counts.get(j, 0)
        want += e
        if want >= 5:
            bins.append([observed, want])
            observed = want = 0.0
    bins[-1][0] += observed
    bins[-1][1] += want
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


def test_adaptive_goldens_follow_the_finish_law():
    # at the shipped pass rate an adaptive run ends at clock 1 + meas·K, K
    # its largest trial index, so each golden histogram of 100 runs samples
    # the law of the slowest of M geometric(1/2) processes.  At one seed the
    # Z and ZZ batches of one M read the same coins, so each such pair is one
    # sample and counts once in the pooled χ².
    pooled = {}
    for (m, basis), counts in sorted(golden_adaptive_trials().items()):
        if m in pooled:
            assert pooled[m] == counts, m
        pooled[m] = counts
    assert sorted(pooled) == [12, 16, 30, 36, 56, 64, 90, 100]
    fits = [chi2_against_finish_law(counts, m) for m, counts in pooled.items()]
    chi2, dof = map(sum, zip(*fits))
    # the 0.999 quantile of χ²(dof), Wilson–Hilferty
    z = NormalDist().inv_cdf(0.999)
    critical = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
    assert dof >= 30
    assert chi2 < critical, (chi2, dof, critical)


@pytest.mark.parametrize("basis", ["Z", "ZZ"])
def test_low_pass_rate_regrows(basis):
    args = (12, basis, 1e-8, replace(CFG, p_pass=0.02), "adaptive", 20, 4)
    completions, calls = regrowth_calls(*args)
    assert calls > 0
    assert completions == reference_simulate_parallel_rus(*args).completions


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
    # 1,922 runs simulated when each step reused only the records of the
    # step before; reuse from every earlier step needs fewer
    simulate_runs = rus._simulate_runs
    simulated = []

    def counted(batch, q, adaptive, seed, indices):
        simulated.extend(indices)
        return simulate_runs(batch, q, adaptive, seed, indices)

    with mock.patch.object(rus, "_simulate_runs", counted):
        calibrate_p_pass(161.0, m=32, runs=200, seed=0)
    assert 200 <= len(simulated) < 1922


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
