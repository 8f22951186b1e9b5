"""Time compile_step, fabric.validate and Timeline.to_jsonl per size and mode.

    python3 scripts/bench_validate.py [--src DIR]

Imports starsched from DIR (default: the src/ tree next to this script), so the
same script can time another checkout.  Prints one JSON object: per
"n<N>-<mode>" entry (N in SIZES) the op count and, per layer, the median and
quartiles of REPEATS wall times in seconds after one warm-up.  The layers are
the whole compile_step (which runs fabric.validate once), fabric.validate
alone on the compiled timeline, and Timeline.to_jsonl, which compile-trotter
--timeline writes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

SIZES = (4, 8, 10, 12, 16, 20)
REPEATS = 5


def _quartiles(fn) -> dict:
    fn()  # warm-up
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4)}


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, "..", "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from starsched import fabric
    from starsched.trotter import compile_step

    out = {}
    for n in SIZES:
        for mode in ("plain", "controlled"):
            timeline = compile_step(n, mode=mode).timeline
            grid = fabric.build_grid(n, with_qpe_ancilla=(mode == "controlled"))
            layers = {
                "compile_step": _quartiles(lambda: compile_step(n, mode=mode)),
                "validate": _quartiles(lambda: fabric.validate(timeline, grid)),
                "to_jsonl": _quartiles(timeline.to_jsonl),
            }
            ops = len(timeline.ops)
            out[f"n{n}-{mode}"] = {"ops": ops, "repeats": REPEATS, **layers}
            summary = ", ".join(f"{k} {v['median_s']:.4f} s" for k, v in layers.items())
            print(f"n={n} {mode}: {summary}", file=sys.stderr, flush=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
