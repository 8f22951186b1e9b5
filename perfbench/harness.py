"""Measurement loop, correctness checks and metric assembly for one run."""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import env
from refclock import RefClock
from spans import PassAggregate, Tracer, layer_metrics, self_shares
from workloads import Workload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SETUP_SAMPLES = 6  # cold starts before the passes, and as many after them


@dataclass
class Checks:
    """Checks attempted and failed: exit codes, golden bytes, published values."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Pass:
    wall: float  # seconds
    ref: float  # reference loops (see refclock.py); 0 without a RefClock
    item_times: dict[str, float]
    item_refs: dict[str, float]
    outputs: dict[str, dict[str, bytes] | None]


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        return json.load(fh)


def setup_seconds(workload: Workload, samples: int = SETUP_SAMPLES) -> list[float]:
    """Cold starts in fresh interpreters: import starsched, load the
    shipped ordering pairs the workload uses."""
    code = (
        "import sys, starsched\n"
        "from starsched.hubbard import default_orderings\n"
        f"if not starsched.__file__.startswith({str(env.SRC)!r}): sys.exit(3)\n"
        f"for n in {workload.orderings!r}: default_orderings(n)\n"
    )
    times = []
    for _ in range(samples):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env.source_env(), cwd=env.ROOT, check=True)
        times.append(perf_counter() - start)
    return times


def _run_item(item, state: dict, workdir: Path, clock: RefClock | None = None):
    """Seconds, reference loops (0 without a clock) and outputs of one item."""
    first = clock.sample() if clock else 0
    start = perf_counter()
    try:
        outputs = item.run(state, workdir)
    except Exception as exc:  # a failing item is a failed check, not a crash
        print(f"perfbench: item {item.id} failed: {exc!r}", file=sys.stderr)
        outputs = None
    stop = perf_counter()
    if clock is None:
        return stop - start, 0.0, outputs
    stolen, rate = clock.between(first, clock.sample(), start, stop)
    return stop - start - stolen, (stop - start - stolen) * rate, outputs


def run_pass(
    workload: Workload,
    seed: int,
    workdir: Path,
    tracer: Tracer | None = None,
    clock: RefClock | None = None,
) -> list[Pass]:
    """One pass over the items.  With a tracer each item runs twice back to
    back, untraced and then traced, giving two passes: the pairing keeps slow
    drift in machine speed out of the measured tracing overhead."""
    state = {"seed": seed}
    passes = [Pass(0.0, 0.0, {}, {}, {}) for _ in range(2 if tracer else 1)]
    for item in workload.items:
        runs = [_run_item(item, state, workdir, clock)]
        if tracer:
            tracer.item = item.id
            with tracer.installed():
                runs.append(_run_item(item, state, workdir))
        for p, (elapsed, refs, outputs) in zip(passes, runs):
            p.wall += elapsed
            p.ref += refs
            p.item_times[item.id] = elapsed
            p.item_refs[item.id] = refs
            p.outputs[item.id] = outputs
    return passes


def check_pass(
    workload: Workload,
    p: Pass,
    first: Pass | None,
    golden: dict | None,
    seed: int,
    checks: Checks,
) -> None:
    """Exit codes, then bytes against the golden (unseeded items, or the golden
    seed) or else against the run's first pass, then published values."""
    for item in workload.items:
        outs = p.outputs[item.id]
        checks.check(outs is not None, f"{item.id}: exit status")
        if outs is None:
            continue
        entry = None
        if golden is not None and (not item.seeded or seed == golden["seed"]):
            entry = golden["items"].get(item.id)
            if entry is None:
                checks.check(False, f"{item.id}: no golden output")
                continue
        if entry is not None:
            for kind, data in outs.items():
                checks.check(entry.get(kind) == data.decode(), f"{item.id}.{kind}: golden mismatch")
        elif first is not None and first.outputs[item.id] is not None:
            for kind, data in outs.items():
                checks.check(first.outputs[item.id].get(kind) == data, f"{item.id}.{kind}: differs between passes")
    if workload.reference:
        for what, ok in workload.reference(p.outputs):
            checks.check(ok, what)


def _quartiles(values: list[float]) -> dict:
    # inclusive: with two or three passes the quartiles stay between the samples
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure(
    workload: Workload,
    warmup: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    golden: dict | None,
) -> dict:
    """One benchmark run.  Returns the result object and a detail record.

    Untraced: whole passes back to back until the next would end past
    ``seconds``, and at least two, so the medians rest on more than one
    sample and seeded outputs can be compared between passes, with a
    RefClock running (see refclock.py).  Traced: paired untraced and traced
    passes (see run_pass), at least one pair, without a RefClock, whose
    timer samples would land inside the spans.
    """
    env.OUT.mkdir(parents=True, exist_ok=True)
    workdir = env.OUT / f"work-{workload.name}-{seed}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    checks = Checks()
    setup = [] if trace else setup_seconds(workload)

    tracer = Tracer() if trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    min_rounds = 1 if trace else 2
    with nullcontext() if trace else RefClock(workload.ref_loop) as clock:
        # imports, lazy set-up, first reference loops; not checked or timed
        run_pass(warmup, seed, workdir, clock=clock)
        start = perf_counter()
        while True:
            if tracer:
                tracer.pass_idx = len(traced)
            plain, *with_trace = run_pass(workload, seed, workdir, tracer, clock)
            check_pass(workload, plain, untraced[0] if untraced else None, golden, seed, checks)
            untraced.append(plain)
            for p in with_trace:
                check_pass(workload, p, untraced[0], golden, seed, checks)
                traced.append(p)
            elapsed = perf_counter() - start
            rounds = len(untraced)
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
    shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        setup += setup_seconds(workload)

    walls = [p.wall for p in untraced]
    largest = [p.item_times[workload.largest] for p in untraced]
    wall_q = _quartiles(walls)
    largest_q = _quartiles(largest)
    detail = {
        "wall_s": wall_q,
        "largest_item_s": largest_q | {"item": workload.largest},
        "item_s": {i.id: statistics.median(p.item_times[i.id] for p in untraced) for i in workload.items},
        "failed_frac": checks.failed / checks.attempted,
        "failures": checks.failures,
    }
    if tracer:
        aggs = tracer.aggregate()
        per_pass = [aggs.get(i, PassAggregate()) for i in range(len(traced))]
        traced_walls = [p.wall for p in traced]
        metrics = layer_metrics(per_pass)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = (overhead, "s")
        detail["traced_wall_s"] = _quartiles(traced_walls)
        detail["self_share"] = self_shares(per_pass, traced_walls)
        tracer.write(env.OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        wall_ref = _quartiles([p.ref for p in untraced])
        largest_ref = _quartiles([p.item_refs[workload.largest] for p in untraced])
        detail["wall_ref"] = wall_ref
        detail["largest_item_ref"] = largest_ref
        detail["ref_loop_ms"] = _quartiles([1e3 * s.loop for s in clock.samples])
        detail["setup_s"] = _quartiles(setup)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        detail["peak_rss_mb"] = {"median": peak_kib / 1024, "n": 1}
        metrics = {
            "wall_ref": (wall_ref["median"], "ref_loops"),
            "largest_item_ref": (largest_ref["median"], "ref_loops"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_kib / 1024, "MiB"),
        }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "detail": detail, "passes": len(untraced)}
