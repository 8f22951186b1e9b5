"""Per-layer spans, recorded by wrapping starsched's public functions from outside.

Each function is wrapped in every module namespace where a caller looks it
up: ``cli`` imports the subcommand back-ends by name, ``trotter`` imports the
hubbard routines by name and calls ``fabric.validate`` through the module,
and ``rus``, ``qcels`` and ``estimator`` call their helpers as globals.
Nothing under src/ is changed; the wrappers are removed after each traced
item.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from starsched import cli, estimator, fabric, qcels, rus, trotter


def _validate_counts(args, kwargs):
    ops = len(args[0].ops)
    return lambda conflict: {"ops": ops, "conflicts": int(conflict is not None)}


def _compile_counts(args, kwargs):
    return lambda sched: {"ops": len(sched.timeline.ops), "batches": len(sched.batches)}


def _simulate_counts(args, kwargs):
    return lambda stats: {"runs": stats.runs, "clocks": sum(stats.completions)}


def _regrow_counts(args, kwargs):
    free = args[0]
    before = len(free)
    return lambda _regions: {"cells": before - len(free)}


# (module, attribute, span name, probe)
PATCHES = (
    (cli, "run", "cli", None),
    (cli, "compile_step", "trotter.compile_step", _compile_counts),
    (cli, "simulate_parallel_rus", "rus.simulate", _simulate_counts),
    (cli, "build_report", "estimator.build_report", None),
    (cli, "multilevel_qcels", "qcels.multilevel", None),
    (cli, "expected_trials", "rus.expected_trials", None),
    (trotter, "expected_trials", "rus.expected_trials", None),
    (trotter, "default_orderings", "hubbard.default_orderings", None),
    (trotter, "route_orderings", "hubbard.route_orderings", None),
    (fabric, "validate", "fabric.validate", _validate_counts),
    (rus, "calibrate_p_pass", "rus.calibrate", None),
    (rus, "simulate_parallel_rus", "rus.simulate", _simulate_counts),
    (rus, "update_injection_regions", "rus.regrow", _regrow_counts),
    (rus, "success_prob", "injection.success_prob", None),
    (qcels, "qcels_fit", "qcels.fit", None),
    (qcels, "synth_signal", "qcels.synth_signal", None),
    (estimator, "optimize_split", "estimator.optimize_split", None),
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent, item, pass, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: str | None = None
        self.pass_idx = -1

    def _wrap(self, name, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = probe(args, kwargs) if probe else None
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), None, parent, self.item, self.pass_idx, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if finish:
                span[6] = finish(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry of PATCHES, restoring the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
        try:
            for (mod, attr, name, probe), (_, _, fn) in zip(PATCHES, saved):
                setattr(mod, attr, self._wrap(name, fn, probe))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def aggregate(self) -> dict[int, "PassAggregate"]:
        """Per traced pass: time, self time, calls and counts by span name."""
        covered = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        passes: dict[int, PassAggregate] = defaultdict(PassAggregate)
        for idx, (name, start, end, _parent, _item, pass_idx, counts) in enumerate(self.spans):
            agg = passes[pass_idx]
            agg.time[name] += end - start
            agg.self_time[name] += end - start - covered[idx]
            agg.calls[name] += 1
            for key, value in (counts or {}).items():
                agg.counts[f"{name}.{key}"] += value
        return dict(passes)


@dataclass
class PassAggregate:
    time: Counter = field(default_factory=Counter)
    self_time: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric name -> (unit, value from one pass's aggregate)
LAYER_METRICS = {
    "fabric.validate.s": ("s", lambda a: a.time["fabric.validate"]),
    "fabric.validate.calls": ("count", lambda a: a.calls["fabric.validate"]),
    "fabric.ops_validated": ("count", lambda a: a.counts["fabric.validate.ops"]),
    "fabric.validate.us_per_op": ("us/op", lambda a: 1e6 * _ratio(
        a.time["fabric.validate"], a.counts["fabric.validate.ops"])),
    "fabric.conflicts": ("count", lambda a: a.counts["fabric.validate.conflicts"]),
    "trotter.compile_step.s": ("s", lambda a: a.time["trotter.compile_step"]),
    "trotter.compile_step.self_s": ("s", lambda a: a.self_time["trotter.compile_step"]),
    "trotter.ops_emitted": ("count", lambda a: a.counts["trotter.compile_step.ops"]),
    "trotter.batches": ("count", lambda a: a.counts["trotter.compile_step.batches"]),
    "hubbard.default_orderings.s": ("s", lambda a: a.time["hubbard.default_orderings"]),
    "hubbard.default_orderings.calls": ("count", lambda a: a.calls["hubbard.default_orderings"]),
    "hubbard.route_orderings.s": ("s", lambda a: a.time["hubbard.route_orderings"]),
    "rus.regrow.s": ("s", lambda a: a.time["rus.regrow"]),
    "rus.regrow.calls": ("count", lambda a: a.calls["rus.regrow"]),
    "rus.regrow.cells_assigned": ("count", lambda a: a.counts["rus.regrow.cells"]),
    "rus.regrow.cells_per_call": ("cells/call", lambda a: _ratio(
        a.counts["rus.regrow.cells"], a.calls["rus.regrow"])),
    "rus.simulate.s": ("s", lambda a: a.time["rus.simulate"]),
    "rus.simulate.self_s": ("s", lambda a: a.self_time["rus.simulate"]),
    "rus.runs": ("count", lambda a: a.counts["rus.simulate.runs"]),
    "rus.sim_clocks": ("count", lambda a: a.counts["rus.simulate.clocks"]),
    "rus.runs_per_s": ("1/s", lambda a: _ratio(
        a.counts["rus.simulate.runs"], a.time["rus.simulate"])),
    "rus.calibrate.s": ("s", lambda a: a.time["rus.calibrate"]),
    "rus.expected_trials.s": ("s", lambda a: a.time["rus.expected_trials"]),
    "injection.success_prob.calls": ("count", lambda a: a.calls["injection.success_prob"]),
    "injection.success_prob.s": ("s", lambda a: a.time["injection.success_prob"]),
    "estimator.build_report.s": ("s", lambda a: a.time["estimator.build_report"]),
    "estimator.optimize_split.s": ("s", lambda a: a.time["estimator.optimize_split"]),
    "qcels.multilevel.s": ("s", lambda a: a.time["qcels.multilevel"]),
    "qcels.multilevel.calls": ("count", lambda a: a.calls["qcels.multilevel"]),
    "qcels.fit.s": ("s", lambda a: a.time["qcels.fit"]),
    "qcels.fit.calls": ("count", lambda a: a.calls["qcels.fit"]),
    "qcels.synth_signal.s": ("s", lambda a: a.time["qcels.synth_signal"]),
    "cli.calls": ("count", lambda a: a.calls["cli"]),
    "cli.self_s": ("s", lambda a: a.self_time["cli"]),
}


def layer_metrics(aggregates: list[PassAggregate]) -> dict[str, tuple[float, str]]:
    """Median over traced passes of every per-layer metric."""
    return {
        name: (statistics.median(fn(a) for a in aggregates), unit)
        for name, (unit, fn) in LAYER_METRICS.items()
    }


def self_shares(aggregates: list[PassAggregate], walls: list[float]) -> dict[str, float]:
    """Median share of a traced pass's wall time spent in each span's own code."""
    names = sorted({n for a in aggregates for n in a.self_time})
    shares = {
        n: statistics.median(a.self_time[n] / w for a, w in zip(aggregates, walls))
        for n in names
    }
    shares["outside spans"] = statistics.median(
        1 - sum(a.self_time.values()) / w for a, w in zip(aggregates, walls)
    )
    return shares
