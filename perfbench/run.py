"""starsched benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name with its unit and sample count, a provenance
record, and as the last line one JSON object {correct, attempted, failed,
metrics}.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Spans of a traced run are written under perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import env


def main(argv: list[str] | None = None) -> int:
    starsched = env.import_starsched()
    import numpy

    import harness
    from workloads import GOLDEN_SEED, WORKLOADS, build

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    golden = harness.load_golden(args.workload)
    run = harness.measure(
        build(args.workload),
        build(args.workload, tiny=True),
        args.seed,
        args.seconds,
        bool(args.trace),
        golden,
    )
    detail = run["detail"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": env.commit(),
        "starsched": starsched.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": run["passes"],
        "golden_seed": GOLDEN_SEED,
        "golden_commit": golden["commit"],
    }
    print(json.dumps({"provenance": provenance, "detail": detail}, sort_keys=True))
    for name, metric in run["result"]["metrics"].items():
        samples = detail.get(name, {}).get("n", run["passes"])
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']:10s} n={samples}")
    print(f"{'failed_frac':34s} {detail['failed_frac']:>14.6g} {'ratio':10s} "
          f"n={run['result']['attempted']}")
    for shown in detail["failures"]:
        print(f"check failed: {shown}")
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
