"""Parallel repeat-until-success rotations: analytics and Monte Carlo simulation.

A batch of M rotations runs as M independent RUS processes.  Each trial needs
a freshly injected ancilla (prepared in its injection region) and a joint
Pauli measurement (Z: 1 clock, ZZ: 2 clocks) that succeeds with probability
1/2; a failure doubles the rotation angle for the next trial.  The batch
finishes when the slowest process completes.

The Monte Carlo holds each injection region, and a run's free patches, as
an int over the batch's rows × cols grid, cell (r, c) at bit r·cols + c.  One
ring of growth is four shifts, ``x >> cols``, ``x << cols``, ``(x &
not_first_col) >> 1`` and ``(x & not_last_col) << 1``; the column masks stop
a row's edge from wrapping into the next row.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .injection import (
    SHIPPED_CONFIGS,
    InfeasibleModel,
    InjectionConfig,
    success_prob,
)

Coord = tuple[int, int]

# Clock cap of one run: the longest golden run takes 352 clocks and the slowest
# runs calibrate_p_pass meets (naive M = 32 at its floor log10 p = -4) about
# 4·10^4, so a run past 10^6 clocks means a pass rate too small to model.
MAX_RUN_CLOCKS = 1_000_000

# Length of a run's block of uniforms (at least 2·M).  PCG64 gives the same
# doubles to rng.random(n) as to n scalar rng.random() calls.
RNG_BLOCK = 256


# ---------------------------------------------------------------------------
# Analytics


def prob_finish_at(k: int, m: int) -> float:
    """Probability that the slowest of m processes finishes at trial k."""
    if k < 1 or m < 1:
        raise ValueError("k and m must be at least 1")
    return (1 - 2.0**-k) ** m - (1 - 2.0 ** (-k + 1)) ** m


def expected_trials(m: int) -> float:
    """Expected trial count of the slowest of m processes, summed to 1e-12.

    The tail beyond K is bounded by sum_{k>K} k·m·2^{-k}, which is driven
    below the tolerance before truncating.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    terms = []
    k = 1
    while True:
        terms.append(k * prob_finish_at(k, m))
        # geometric tail bound: sum_{j>k} j*m*2^-j = m*(k+2)*2^-k
        if m * (k + 2) * 2.0**-k < 1e-16:
            return math.fsum(terms)
        k += 1


# ---------------------------------------------------------------------------
# Injection-region growth


@dataclass(slots=True)
class FreeCells:
    """The free patches of a run as one mutable bitmask; len() counts them."""

    bits: int

    def __len__(self) -> int:
        return self.bits.bit_count()


def update_injection_regions(
    free: FreeCells, regions: dict[int, int], grid: tuple[int, int, int]
) -> set[int]:
    """Grow the ongoing regions over the free patches by simultaneous BFS.

    Masks lie on ``grid = (cols, not_first_col, not_last_col)`` (module
    docstring).  A free cell next to several regions goes to the one with the
    fewest patches at the start of the ring, ties to the lower pid: claimants
    go in (size, pid) order, each taking the free cells next to it that no
    earlier one took.  Only regions next to a free cell join the first ring,
    and only those that gained join the next.  ``regions`` grows in place and
    ``free.bits`` loses the cells; returns the pids whose regions grew.
    """
    cols, not_first, not_last = grid

    def grow(x: int) -> int:
        return (x >> cols) | (x << cols) | ((x & not_first) >> 1) | ((x & not_last) << 1)

    avail = free.bits
    near = grow(avail)
    ring = [pid for pid, region in regions.items() if region & near]
    grown: set[int] = set()
    while ring:
        claimed = []
        for _, pid in sorted([(regions[pid].bit_count(), pid) for pid in ring]):
            if got := grow(regions[pid]) & avail:
                avail ^= got
                regions[pid] |= got
                claimed.append(pid)
        grown.update(claimed)
        ring = claimed
    free.bits = avail
    return grown


# ---------------------------------------------------------------------------
# Simulator


@dataclass(frozen=True)
class RusStats:
    """Completion-clock statistics over independent simulated runs."""

    completions: tuple[int, ...]
    runs: int
    seed: int

    @property
    def mean(self) -> float:
        return sum(self.completions) / len(self.completions)

    @property
    def max(self) -> int:
        return max(self.completions)

    def histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(self.completions).items()))

    def percentile(self, q: float) -> int:
        ordered = sorted(self.completions)
        idx = min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1)
        return ordered[max(idx, 0)]


def benchmark_layout(m: int, basis: str):
    """Targets and initial injection regions for an M-process batch.

    Z processes occupy single data patches on the outer rows with a one-patch
    region on the adjacent routing row; ZZ processes occupy a vertical data
    pair per column with a two-patch region below.
    """
    if m < 1:
        raise ValueError("need at least one process")
    targets: dict[int, tuple[Coord, ...]] = {}
    regions: dict[int, set[Coord]] = {}
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


def _batch(m: int, basis: str):
    """Region masks, free mask, grid and measurement clocks of an M-process
    batch: ``benchmark_layout``'s 4 × cols grid as bitmasks."""
    targets, regions0, cells = benchmark_layout(m, basis)
    cols = len(cells) // 4

    def mask(coords) -> int:
        return sum(1 << (r * cols + c) for r, c in coords)

    used = {c for t in targets.values() for c in t} | {c for r in regions0.values() for c in r}
    full, first_col = mask(cells), mask((r, 0) for r in range(4))
    grid = (cols, full ^ first_col, full ^ (first_col << (cols - 1)))
    regions = {pid: mask(region) for pid, region in regions0.items()}
    return regions, full ^ mask(used), grid, 1 if basis == "Z" else 2


def _thresholds(theta_star: float, cfg: InjectionConfig):
    """Per-clock injection chance q(k, size), evaluated once per key.

    The per-attempt success probability depends on the trial index only
    (the angle doubles each trial); q is the chance that one clock of
    size·a attempts prepares a trial-k ancilla.
    """

    @functools.cache
    def p(k: int) -> float:
        return success_prob(theta_star, k, cfg)

    @functools.cache
    def q(k: int, size: int) -> float:
        return 1 - (1 - p(k)) ** (size * cfg.attempts_per_clock)

    return q


def _simulate_run(batch, q, adaptive: bool, seed: int, run_idx: int) -> tuple[int, int, int]:
    """One run of a batch: (completion clock, uniforms read, largest trial index).

    The uniforms read are the first ones of ``default_rng((seed, run_idx))``.
    """
    regions0, free0, grid, meas_clocks = batch
    m = len(regions0)
    # A clock draws at most one uniform per ongoing process plus one coin per
    # finishing process, so a clock starting with 2·m unread never runs out.
    block = max(RNG_BLOCK, 2 * m)
    refill_at = block - 2 * m
    rng = np.random.default_rng((seed, run_idx))
    buf = rng.random(block).tolist()
    pos = drawn = 0
    # A process is ongoing while its pid is a key of regions; it is
    # measuring while meas_left > 0 and awaiting an ancilla otherwise.
    # size[pid] counts its region's patches and now[pid] is an awaiting
    # process's per-clock injection chance.
    regions = dict(regions0)
    size = [region.bit_count() for region in regions0.values()]
    k = [1] * m
    meas_left = [0] * m
    buffered = [False] * m
    now = [q(1, n) for n in size]
    free = FreeCells(free0)
    t = 0
    while True:
        t += 1
        if t > MAX_RUN_CLOCKS:
            raise InfeasibleModel(f"run {run_idx} exceeded {MAX_RUN_CLOCKS} clocks")
        if pos > refill_at:
            buf = buf[pos:] + rng.random(pos).tolist()
            drawn += pos
            pos = 0
        finishing = []
        for pid in regions:
            if meas_left[pid]:
                if adaptive and not buffered[pid]:
                    buffered[pid] = buf[pos] < q(k[pid] + 1, size[pid])
                    pos += 1
                meas_left[pid] -= 1
                if not meas_left[pid]:
                    finishing.append(pid)
            else:
                if buf[pos] < now[pid]:
                    meas_left[pid] = meas_clocks
                pos += 1
        if not finishing:
            continue
        ongoing = len(regions)
        stale = []
        for pid in finishing:
            if buf[pos] < 0.5:
                free.bits |= regions.pop(pid)
            else:
                k[pid] += 1
                if buffered[pid]:
                    buffered[pid] = False
                    meas_left[pid] = meas_clocks
                else:
                    stale.append(pid)
            pos += 1
        if not regions:
            return t, drawn + pos, max(k)
        if adaptive and len(regions) < ongoing:
            grown = update_injection_regions(free, regions, grid)
            for pid in grown:
                size[pid] = regions[pid].bit_count()
            stale += grown
        # Thresholds of the awaiting processes whose trial or region
        # changed, evaluated only if a next clock runs to need them.  Only a
        # changed trial calls success_prob, and those come in pid order.
        if t < MAX_RUN_CLOCKS:
            for pid in stale:
                if not meas_left[pid]:
                    now[pid] = q(k[pid], size[pid])


def simulate_parallel_rus(
    m: int,
    basis: str,
    theta_star: float,
    cfg: InjectionConfig,
    mode: str = "adaptive",
    runs: int = 1000,
    seed: int = 0,
) -> RusStats:
    """Monte Carlo of M parallel RUS processes; returns per-run completion clocks.

    Per clock each awaiting process makes l·a injection attempts (l = region
    size, a = attempts per clock); a prepared ancilla starts its joint
    measurement on the next clock.  In adaptive mode processes pre-inject the
    next trial's ancilla during measurement clocks (one buffered state at
    most) and regions regrow over freed patches whenever processes complete;
    naive mode keeps the fixed initial regions and no pre-injection.

    Run i draws from ``np.random.default_rng((seed, i))`` in a fixed order,
    which every seeded output depends on.  Each clock first takes one uniform
    per ongoing process that draws, in pid order: an awaiting process for its
    injection, and in adaptive mode a measuring process with no buffered
    ancilla for its pre-injection.  It then takes one coin per process whose
    measurement ends, in pid order; below 1/2 is a success.
    """
    if mode not in ("naive", "adaptive"):
        raise ValueError(f"mode must be naive or adaptive, got {mode!r}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    batch = _batch(m, basis)
    q = _thresholds(theta_star, cfg)
    adaptive = mode == "adaptive"
    completions = tuple(_simulate_run(batch, q, adaptive, seed, i)[0] for i in range(runs))
    return RusStats(completions, runs, seed)


def calibrate_p_pass(
    target_mean: float,
    m: int = 32,
    basis: str = "Z",
    theta_star: float = 1e-8,
    cfg: InjectionConfig | None = None,
    runs: int = 300,
    seed: int = 7,
) -> float:
    """Pass rate making the naive-mode mean completion ≈ target_mean clocks.

    Bisects on log10(p_pass) over [1e-4, 1]; the naive mean is monotone
    decreasing in the pass rate.  Every step averages the same ``runs``
    seeded naive runs that ``simulate_parallel_rus`` makes, and returns the
    same mean, but reuses a run's completion clock from an earlier step when
    no uniform it read lies between the old and the new threshold.

    That reuse is exact.  With its uniforms fixed, a naive run depends on
    the pass rate only through its comparisons ``u < q(k, l)``: the regions
    never change, so l is the initial region size, k runs up to the run's
    largest trial index, and the coins are compared with 1/2.  Each run
    keeps, per k, the largest uniform it read below q(k, l) and the smallest
    at or above it; if every new threshold lies above the first and at or
    below the second, every comparison keeps its outcome and the run repeats
    draw for draw.  Any other run is simulated again.  A reused run has
    completed before, and the angle and clock caps do not depend on the pass
    rate, so the errors raised are those of a full re-run too.
    """
    if not (math.isfinite(target_mean) and target_mean > 0):
        raise ValueError(
            f"target mean must be a positive number of clocks, got {target_mean!r}"
        )
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    base = cfg or SHIPPED_CONFIGS[9]
    batch = _batch(m, basis)
    size = batch[0][0].bit_count()  # every naive region keeps this initial size
    # per run: its completion clock and, for k = 1..max k, the uniforms it
    # read just below and at or above q(k, size)
    records: list[tuple[int, np.ndarray, np.ndarray] | None] = [None] * runs

    def mean_at(log_p: float) -> float:
        q = _thresholds(theta_star, replace(base, p_pass=10.0**log_p))

        def levels(max_k: int) -> np.ndarray:
            return np.array([q(k, size) for k in range(1, max_k + 1)])

        total = 0
        for i, record in enumerate(records):
            if record is not None:
                clocks, below, above = record
                now = levels(len(below))
                if ((below < now) & (now <= above)).all():
                    total += clocks
                    continue
            clocks, drawn, max_k = _simulate_run(batch, q, False, seed, i)
            u = np.random.default_rng((seed, i)).random(drawn)
            u.sort()
            n_below = np.searchsorted(u, levels(max_k))
            # -1 and 2 stand for "no uniform below" and "none at or above"
            bounded = np.concatenate(([-1.0], u, [2.0]))
            records[i] = (clocks, bounded[n_below], bounded[n_below + 1])
            total += clocks
        return total / runs

    lo, hi = -4.0, 0.0
    for _ in range(22):
        mid = (lo + hi) / 2
        if mean_at(mid) > target_mean:
            lo = mid
        else:
            hi = mid
    if lo == -4.0 or hi == 0.0:
        raise ValueError(
            f"target mean {target_mean!r} clocks is not reached for pass rates in [1e-4, 1]"
        )
    return 10.0 ** ((lo + hi) / 2)
