"""Parallel repeat-until-success rotations: analytics and Monte Carlo simulation.

A batch of M rotations runs as M independent RUS processes.  Each trial needs
a freshly injected ancilla (prepared in its injection region) and a joint
Pauli measurement (Z: 1 clock, ZZ: 2 clocks) that succeeds with probability
1/2; a failure doubles the rotation angle for the next trial.  The batch
finishes when the slowest process completes.

A batch of M processes sits on a 4 × cols grid, cell (r, c) at bit
r·cols + c.  Z processes take cols = ⌈M/2⌉: process p < cols targets (0, p)
with region (1, p), and process p ≥ cols targets (3, p - cols) with region
(2, p - cols), so region p is bit cols + p and an odd M leaves the last
column of rows 2 and 3 free.  ZZ processes take cols = M: process p targets
the pair (0, p), (1, p) with region (2, p), (3, p), and no cell is free.
The Monte Carlo holds each injection region, and a run's free patches, as
such a mask, and grows a region one ring at a time through
``fabric.bit_grid``.

In adaptive mode a completing process frees its region at once, and each
clock with completions that leaves processes ongoing ends with one
``update_injection_regions``, so every draw sees its region's exact size.

Runs go in chunks of as many as ``CHUNK_DOUBLES`` (2^14) doubles of first
blocks hold, and at least one.  ``_chunk_pass`` runs a chunk trial by trial
as numpy arrays while every draw lands below its threshold at the batch's
common initial size: then no draw depends on regrowth, and each run reads
one fixed sequence in its first block.  At the shipped pass rate runs end
there; a failed draw, the clock cap or a trial that might read past the
block hands a run to the per-clock loop, from the block's first uniform.
The completions, the first error and the ``success_prob`` calls are those
of running each run through the pass and then the clock loop before the
next: before the pass first needs a threshold, the runs that left it below
its lowest remaining run go through the clock loop, in index order.

Run i draws the stream of ``np.random.default_rng((seed, i))``.  The runs'
generator states are computed by ``seeding`` in one batched pass per
``seeding.CHUNK`` runs, so no ``SeedSequence`` is built per run of a seed
below 2^63.  Its uniforms come in blocks sized so that one covers a
shipped-rate run.

numpy is imported only inside the functions that draw, so the analytics
(and every command that needs only them) start without it.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from itertools import islice

from . import seeding
from .fabric import bit_grid
from .injection import (
    SHIPPED_CONFIGS,
    InfeasibleModel,
    InjectionConfig,
    success_prob,
)

# Clock cap of one run: the longest golden run takes 352 clocks and the slowest
# runs calibrate_p_pass meets (naive M = 32 at its floor log10 p = -4) about
# 4·10^4, so a run past 10^6 clocks means a pass rate too small to model.
MAX_RUN_CLOCKS = 1_000_000

# A run's first block holds max(RNG_BLOCK, RNG_BLOCK_PER_PROCESS·M) uniforms,
# the same doubles as scalar rng.random() calls, and is all the trial pass
# reads.  At the shipped pass rate a process runs 2 trials on average, each
# reading a draw and a coin, so with the M first injections a run reads about
# 5·M, well inside 8·M: the pass starts a trial of n processes only with 2·n
# unread.  The floor serves small batches at low pass rates.
RNG_BLOCK = 256
RNG_BLOCK_PER_PROCESS = 8

# The trial pass takes a call's runs in chunks of as many as this many doubles
# of first blocks hold (128 KiB), and at least one, so its arrays stay small
# however many runs a call makes.
CHUNK_DOUBLES = 2**14


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
    free: FreeCells, regions: dict[int, int], grow: Callable[[int], int]
) -> set[int]:
    """Grow the ongoing regions over the free patches by simultaneous BFS.

    Masks lie on the batch's grid, and ``grow`` is its one ring of growth
    (``fabric.bit_grid``).  A free cell next to several regions goes to the
    one with the fewest patches at the start of the ring, ties to the lower
    pid: claimants go in (size, pid) order, each taking the free cells next
    to it that no earlier one took.  Only regions next to a free cell join
    the first ring, and only those that gained join the next, while any
    free cell is left.  ``regions``
    grows in place and ``free.bits`` loses the cells; returns the pids whose
    regions grew.
    """
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
        ring = claimed if avail else []
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


def _batch(m: int, basis: str):
    """Region masks, free mask, one ring of growth, measurement clocks and
    common initial region size of an M-process batch, on the grid of the
    module docstring: masks by arithmetic, and ``grow`` from
    ``fabric.bit_grid`` over the grid's two corner cells, whose bounding box
    is the grid."""
    if m < 1:
        raise ValueError("need at least one process")
    if basis == "Z":
        cols = (m + 1) // 2
        regions = {pid: 1 << (cols + pid) for pid in range(m)}
        # all of row 0, and row 3 up to column m - cols
        targets = ((1 << cols) - 1) | ((1 << (m - cols)) - 1) << (3 * cols)
    elif basis == "ZZ":
        cols = m
        regions = {pid: (1 | 1 << m) << (2 * m + pid) for pid in range(m)}
        targets = (1 << 2 * m) - 1  # rows 0 and 1
    else:
        raise ValueError(f"basis must be Z or ZZ, got {basis!r}")
    _, grow = bit_grid([(0, 0), (3, cols - 1)])
    free = ((1 << 4 * cols) - 1) ^ targets ^ sum(regions.values())
    # Z: 1 measurement clock and 1-patch regions, ZZ: 2 and 2
    return regions, free, grow, len(basis), len(basis)


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


def _chunk_pass(batch, u, adaptive: bool, level, done) -> None:
    """Run a chunk of runs trial by trial, all at once, while every draw lands
    below its threshold at the batch's common initial region size.

    Row r of ``u`` is run r's first block.  While every draw succeeds, no
    draw depends on regrowth, and a trial reads one draw per ongoing process
    (its injection in naive mode, its next trial's pre-injection in adaptive
    mode), then one coin each.  As run r completes, sets ``done[r]`` to its
    (clock, uniforms read, largest trial index, blocks drawn).  A run
    declines, leaving its row, if a draw fails, a clock passes
    ``MAX_RUN_CLOCKS`` or a trial's 2·n uniforms might not fit in its block.
    ``level(k, r)`` is q(k, size), asked for only where the clock loop
    evaluates it, with r the lowest row still in the pass.
    """
    import numpy as np

    m, meas = len(batch[0]), batch[3]
    runs, width = u.shape
    flat = u.ravel()
    # a column per run in the pass: its row, the flat index of its next
    # uniform, its ongoing processes and the end of its block
    rows = np.arange(runs)
    live = np.array([rows, rows * width, np.full(runs, m), rows * width + width])

    def marked(where):
        """How many of each run's next n uniforms lie at the flat indices ``where``."""
        _, at, n, _ = live
        return where.searchsorted(at + n) - where.searchsorted(at)

    def draw(threshold):
        """The runs whose next n uniforms all lie below the threshold, past them."""
        kept = live[:, marked(np.flatnonzero(flat >= threshold)) == 0]
        kept[1] += kept[2]
        return kept

    live = draw(level(1, 0))  # clock 1: every process draws its first injection
    if not live.shape[1]:
        return
    heads = np.flatnonzero(u >= 0.5)  # the coins that fail
    t = k = 1
    while live.shape[1] and t + meas <= MAX_RUN_CLOCKS:
        # trial k measures over clocks t + 1 .. t + meas, its coins at the last
        room = live[3] - live[1] - 2 * live[2]
        if room.min() < 0:  # a run's 2·n uniforms might not fit in its block
            live = live[:, room >= 0]
        if adaptive and live.shape[1]:  # pre-injections at clock t + 1
            live = draw(level(k + 1, live[0, 0]))
        failed = marked(heads)
        _, at, n, _ = live
        at += n
        n[:] = failed  # failures go on to trial k + 1
        t += meas
        if not n.all():
            for r, at_r, n_r in zip(*live[:3].tolist()):
                if not n_r:
                    done[r] = (t, at_r - r * width, k, [u[r]])
            live = live[:, n.astype(bool)]
        k += 1
        if not adaptive and live.shape[1]:  # injections at clock t + 1
            if t >= MAX_RUN_CLOCKS:
                return
            live = draw(level(k, live[0, 0]))
            t += 1


def _clock_loop(batch, q, adaptive: bool, rng, block, run_idx: int):
    """One run by the per-clock rules: (completion clock, uniforms read,
    largest trial index, blocks drawn).

    The run reads ``block``, its first block, from the first uniform, and
    refills (drops the read uniforms and draws as many from ``rng``, its
    generator) at a clock starting with < 2·M unread.
    """
    regions0, free0, grow, meas_clocks, size0 = batch
    m = len(regions0)
    # A clock draws at most one uniform per ongoing process plus one coin per
    # finishing process, so a clock starting with 2·m unread never runs out.
    refill_at = len(block) - 2 * m
    blocks = [block]
    buf = block.tolist()
    pos = drawn = 0
    # A process is ongoing while its pid is a key of live; it is measuring
    # while meas_left > 0 and awaiting an ancilla otherwise.  In adaptive
    # mode regions holds the ongoing regions, size[pid] counts its region's
    # patches and now[pid] is an awaiting process's per-clock injection
    # chance, both exact at every draw.
    live = dict.fromkeys(regions0)
    regions = dict(regions0)
    size = [size0] * m
    k = [1] * m
    meas_left = [0] * m
    buffered = [False] * m
    now = [q(1, size0)] * m
    free = FreeCells(free0)
    t = 0
    while True:
        t += 1
        if t > MAX_RUN_CLOCKS:
            raise InfeasibleModel(f"run {run_idx} exceeded {MAX_RUN_CLOCKS} clocks")
        if pos > refill_at:
            blocks.append(rng.random(pos))
            buf = buf[pos:] + blocks[-1].tolist()
            drawn += pos
            pos = 0
        finishing = []
        for pid in live:
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
        done = False
        stale = []
        for pid in finishing:
            if buf[pos] < 0.5:
                del live[pid]
                if adaptive:
                    free.bits |= regions.pop(pid)
                done = True
            else:
                k[pid] += 1
                if buffered[pid]:
                    buffered[pid] = False
                    meas_left[pid] = meas_clocks
                else:
                    stale.append(pid)
            pos += 1
        if not live:
            return t, drawn + pos, max(k), blocks
        # Thresholds of the awaiting processes whose trial changed, then of
        # those whose region grew, evaluated only if a next clock runs to
        # need them; the first success_prob calls come in pid order.
        if t < MAX_RUN_CLOCKS:
            for pid in stale:
                now[pid] = q(k[pid], size[pid])
            if adaptive and done:
                for pid in update_injection_regions(free, regions, grow):
                    size[pid] = regions[pid].bit_count()
                    if not meas_left[pid]:
                        now[pid] = q(k[pid], size[pid])


def _simulate_runs(batch, q, adaptive: bool, seed: int, indices):
    """(completion clock, uniforms read, largest trial index, blocks drawn)
    of the runs ``indices`` of ``seed``, in order.  A run's first block is a
    row of one array that the next chunk's runs overwrite.

    Run i draws the stream of ``default_rng((seed, i))`` from its row of
    ``seeding.states``, one generator per run.  Runs go in chunks of as many
    as ``CHUNK_DOUBLES`` doubles of first blocks hold, and at least one:
    each run draws its first block into its row of the chunk's array,
    ``_chunk_pass`` runs the chunk, and each run it declines goes through
    the clock loop from its block's first uniform.  Before the pass asks for
    a threshold that no pass of the call has evaluated, the declined runs
    below its lowest run go through the clock loop, in index order; so
    ``success_prob`` is called, and the first error raised, as when each
    run goes through the pass and then the clock loop before the next.
    """
    import numpy as np

    m, size = len(batch[0]), batch[4]
    width = max(RNG_BLOCK, RNG_BLOCK_PER_PROCESS * m)
    per_chunk = max(1, CHUNK_DOUBLES // width)
    levels = [q(1, size)]  # q(k, size) for k = 1, 2, ..., as the pass needs them
    states = seeding.states((seed, i) for i in indices)
    first_blocks = np.empty((min(per_chunk, len(indices)), width))
    for start in range(0, len(indices), per_chunk):
        chunk = indices[start : start + per_chunk]
        u = first_blocks[: len(chunk)]
        rngs = [seeding.generator(state) for state in islice(states, len(chunk))]
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        done = [None] * len(chunk)

        def clock_loop(r):
            return _clock_loop(batch, q, adaptive, rngs[r], u[r], chunk[r])

        def level(k, lowest):
            if k > len(levels):
                for r in range(lowest):
                    done[r] = done[r] or clock_loop(r)
                levels.append(q(k, size))
            return levels[k - 1]

        _chunk_pass(batch, u, adaptive, level, done)
        for r, found in enumerate(done):
            yield found or clock_loop(r)


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
    most), and a clock with completions ends by regrowing the ongoing
    regions over the freed patches; naive mode keeps the fixed initial
    regions and no pre-injection.  Runs whose draws all succeed are checked
    trial by trial, a chunk of runs at a time (module docstring), with the
    same completions, first error and ``success_prob`` calls as the
    per-clock rules below applied to one run after another.

    Run i draws from the stream of ``np.random.default_rng((seed, i))`` in
    a fixed order, which every seeded output depends on; the runs' streams
    are seeded in one batched pass (``seeding``).  Each clock first takes
    one uniform per ongoing process that draws, in pid order: an awaiting
    process for its injection, and in adaptive mode a measuring process
    with no buffered ancilla for its pre-injection.  It then takes one coin
    per process whose measurement ends, in pid order; below 1/2 is a
    success.
    """
    if mode not in ("naive", "adaptive"):
        raise ValueError(f"mode must be naive or adaptive, got {mode!r}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    runs_found = _simulate_runs(
        _batch(m, basis), _thresholds(theta_star, cfg), mode == "adaptive", seed, range(runs)
    )
    completions = tuple(found[0] for found in runs_found)
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
    seeded naive runs that ``simulate_parallel_rus`` makes, through the same
    chunked trial pass and clock loop, and returns the same mean, but
    reuses a run's completion clock from any earlier step when no uniform
    the run read there lies between that step's threshold and the new one.

    That reuse is exact.  With its uniforms fixed, a naive run depends on
    the pass rate only through its comparisons ``u < q(k, l)``: the regions
    never change, so l is the initial region size, k runs up to the run's
    largest trial index, and the coins are compared with 1/2.  Each step
    that simulates keeps a table of the runs it simulated: their completion
    clocks and, per k, the largest uniform each read below q(k, l) and the
    smallest at or above it.  If every new threshold lies above the first
    and at or below the second, every comparison keeps its outcome and the
    run repeats draw for draw, whichever step made the record.  A run that
    no table covers is simulated again, in index order.  A reused run has
    completed before, and the angle and clock caps do not depend on the pass
    rate, so the errors raised are those of a full re-run too.
    """
    import numpy as np

    if not (math.isfinite(target_mean) and target_mean > 0):
        raise ValueError(
            f"target mean must be a positive number of clocks, got {target_mean!r}"
        )
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    base = cfg or SHIPPED_CONFIGS[9]
    batch = _batch(m, basis)
    size = batch[4]  # every naive region keeps this initial size
    # one table per step that simulated: its runs' indices and completion
    # clocks, and per k the uniforms each read just below and at or above
    # q(k, size) as rows × K arrays; past a run's largest k, -1 and 2 stand
    # for "no uniform below" and "none at or above"
    tables: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    def mean_at(log_p: float) -> float:
        q = _thresholds(theta_star, replace(base, p_pass=10.0**log_p))

        def levels(max_k: int) -> np.ndarray:
            return np.array([q(k, size) for k in range(1, max_k + 1)])

        # q(k, size) once per step, for every k that a table holds
        level = levels(max((below.shape[1] for _, _, below, _ in tables), default=0))
        clocks = np.full(runs, -1)
        for idx, done, below, above in tables:
            at = level[: below.shape[1]]
            exact = ((below < at) & (at <= above)).all(axis=1)
            clocks[idx[exact]] = done[exact]
        total = int(clocks[clocks >= 0].sum())
        idx, done, lows, highs = [], [], [], []
        todo = np.flatnonzero(clocks < 0).tolist()
        runs_found = _simulate_runs(batch, q, False, seed, todo)
        for i, (t, drawn, max_k, blocks) in zip(todo, runs_found):
            if max_k > len(level):
                level = levels(max_k)
            u = np.concatenate(blocks)[:drawn]
            u.sort()
            n_below = np.searchsorted(u, level[:max_k])
            bounded = np.concatenate(([-1.0], u, [2.0]))
            idx.append(i)
            done.append(t)
            lows.append(bounded[n_below])
            highs.append(bounded[n_below + 1])
            total += t
        if idx:
            below = np.full((len(idx), max(map(len, lows))), -1.0)
            above = np.full_like(below, 2.0)
            for r, (low, high) in enumerate(zip(lows, highs)):
                below[r, : len(low)] = low
                above[r, : len(high)] = high
            tables.append((np.array(idx), np.array(done), below, above))
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
