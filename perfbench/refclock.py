"""Reference clock: a fixed loop timed while the program runs, to cancel host speed.

On a shared host the speed of the core a run gets moves by up to 1.8x within
milliseconds to seconds and by a third over tens of minutes with other
tenants' load, and process CPU time moves with it, so wall time measures the
host as much as the program.  A fixed loop that does the same kind of work as
the program slows down with it.  Two loops are defined here, and each
workload names the one closer to its hot code:

- ``region_loop`` grows four regions over a small grid by simultaneous
  breadth-first search, as ``rus.update_injection_regions`` does, with the
  coordinate tuples, set lookups, closure calls and sorting that also fill
  ``fabric.validate``;
- ``process_loop`` steps a few RUS processes per clock, as
  ``rus.simulate_parallel_rus`` does (attribute updates, float powers,
  scalar draws from a numpy Generator), plus a short vectorised numpy
  expression of the kind ``qcels`` evaluates.

The kind of work matters: under contention for the core's shared resources
the slowdown differs between kinds of code, and normalising the regrowth of
``rus-adaptive`` by ``process_loop`` instead of ``region_loop`` left its
per-item spread four times wider.

While a RefClock is active a SIGALRM timer times its loop every INTERVAL
seconds, and ``sample()`` times it on demand between items.  An item's time
less the time spent in timer samples during it, times the mean rate (1 / loop
time) of the samples taken during it and at its two ends, is the item's time
in reference loops: how many loops the host would have run in that time.
The samples must be this frequent: the host's speed changes within tens of
milliseconds, and with one sample every 50 ms the normalised times of one
item spread two to three times as widely as with one every 5 ms.
"""

from __future__ import annotations

import gc
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

INTERVAL = 0.005  # seconds between timer samples; each loop takes about 0.2 ms


class _Proc:
    def __init__(self, pid: int):
        self.pid = pid
        self.k = 0
        self.status = "awaiting"
        self.region = {(pid, 0), (pid, 1)}


_PROCS = [_Proc(pid) for pid in range(8)]
_RNG = np.random.default_rng(12345)
_X = np.linspace(0.0, 1.0, 64)


def process_loop() -> None:
    table: dict = {}
    free: set = set()
    acc = 0.0
    for i in range(10):
        for p in _PROCS:
            p.k += 1
            q = 1 - (1 - 0.05) ** (len(p.region) * 3)
            if _RNG.random() < q:
                p.status = "ready" if p.status == "awaiting" else "awaiting"
                free |= p.region
            table[(i & 15, p.pid)] = p.k
        acc += float(np.exp(1j * _X * i).real.sum())


_CELLS = {(r, c) for r in range(4) for c in range(6)}
_SEEDS = {0: {(0, 0)}, 1: {(3, 5)}, 2: {(0, 5)}, 3: {(3, 0)}}


def _neighbors(coord):
    r, c = coord
    return [nb for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)) if nb in _CELLS]


def region_loop() -> None:
    for _ in range(2):
        free = _CELLS - {c for cells in _SEEDS.values() for c in cells}
        regions = {pid: set(cells) for pid, cells in _SEEDS.items()}
        while free:
            sizes = {pid: len(cells) for pid, cells in regions.items()}
            claims: dict = {}
            for pid in sorted(regions):
                for cell in regions[pid]:
                    for nb in _neighbors(cell):
                        if nb in free:
                            claimants = claims.setdefault(nb, [])
                            if pid not in claimants:
                                claimants.append(pid)
            for node in sorted(claims):
                winner = min(claims[node], key=lambda pid: (sizes[pid], pid))
                regions[winner].add(node)
                free.discard(node)


def time_loop(loop: Callable[[], None]) -> float:
    """Wall time of one call of ``loop``.  The collector is paused so that
    the program's heap does not change the loop's cost."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        loop()
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


@dataclass
class Sample:
    start: float
    end: float
    loop: float  # wall time of the reference loop alone
    timer: bool  # taken by the SIGALRM timer, inside whatever was running


class RefClock:
    """Context manager running the sampling timer; see the module docstring."""

    def __init__(self, loop: Callable[[], None]):
        self.loop = loop
        self.samples: list[Sample] = []
        self._previous = None

    def _take(self, timer: bool) -> int:
        # SIGALRM is held off so no timer sample lands inside this one
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            start = perf_counter()
            loop = time_loop(self.loop)
            self.samples.append(Sample(start, perf_counter(), loop, timer))
            return len(self.samples) - 1
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)

    def _on_alarm(self, signum, frame) -> None:
        self._take(timer=True)

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self) -> int:
        """Time the loop now, between items; returns the sample's index."""
        return self._take(timer=False)

    def between(self, first: int, last: int, start: float, stop: float) -> tuple[float, float]:
        """For an item timed from ``start`` to ``stop`` between samples
        ``first`` and ``last``: the time timer samples took inside it, and
        the mean rate (loops per second) of all samples from ``first`` to
        ``last``."""
        window = self.samples[first : last + 1]
        stolen = sum(
            s.end - s.start for s in window if s.timer and start <= s.start and s.end <= stop
        )
        return stolen, statistics.fmean(1 / s.loop for s in window)
