"""Capture golden outputs of every workload at the golden seed.

    python3 perfbench/capture_golden.py [WORKLOAD ...]

Runs two passes of each workload, refuses to write anything if an item
fails, a published-value check fails or the passes differ, and otherwise
writes perfbench/golden/<workload>.json: per item, the summary JSON and
histogram CSV verbatim and the timeline as its SHA-256 digest.  Run it only
at a commit whose outputs are meant to be the reference.
"""

from __future__ import annotations

import json
import shutil
import sys

import env


def main(names: list[str]) -> int:
    env.import_starsched()
    import harness
    from workloads import GOLDEN_SEED, WORKLOADS, build

    env.OUT.mkdir(parents=True, exist_ok=True)
    workdir = env.OUT / "capture"
    harness.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = build(name)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        [first] = harness.run_pass(workload, GOLDEN_SEED, workdir)
        [second] = harness.run_pass(workload, GOLDEN_SEED, workdir)
        shutil.rmtree(workdir)
        checks = harness.Checks()
        harness.check_pass(workload, second, first, None, GOLDEN_SEED, checks)
        if checks.failed:
            print(f"{name}: not captured: {checks.failures}", file=sys.stderr)
            return 1
        golden = {
            "seed": GOLDEN_SEED,
            "commit": env.commit(),
            "items": {
                item_id: {kind: data.decode() for kind, data in outs.items()}
                for item_id, outs in first.outputs.items()
            },
        }
        path = harness.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(golden['items'])} items, {checks.attempted} checks -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
