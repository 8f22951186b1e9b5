"""Time compile_step (which runs fabric.validate) over lattice sizes and modes.

    python3 scripts/bench_validate.py [--src DIR]

Imports starsched from DIR (default: the src/ tree next to this script), so the
same script can time another checkout.  Prints one JSON object: per
"n<N>-<mode>" entry (N in SIZES) the op count, the median and quartiles of
REPEATS wall times in seconds, and the repeat count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

SIZES = (4, 8, 10, 12)
REPEATS = 5


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, "..", "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from starsched.trotter import compile_step

    out = {}
    for n in SIZES:
        for mode in ("plain", "controlled"):
            ops = len(compile_step(n, mode=mode).timeline.ops)  # warm-up
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                compile_step(n, mode=mode)
                times.append(time.perf_counter() - t0)
            q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
            out[f"n{n}-{mode}"] = {
                "ops": ops,
                "median_s": round(median, 4),
                "q1_s": round(q1, 4),
                "q3_s": round(q3, 4),
                "repeats": REPEATS,
            }
            print(f"n={n} {mode}: {median:.4f} s", file=sys.stderr, flush=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
