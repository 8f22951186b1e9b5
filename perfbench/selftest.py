"""Self-test of the benchmark (about 25 s on 2 cores).

    python3 perfbench/selftest.py

- A tiny-size run of every workload, untraced and traced, emits exactly the
  metrics BENCHMARK.json names, and all its checks pass (the compile sweep's
  against its goldens).
- A corrupted golden output, and an item that exits nonzero, each raise
  failed_frac above 0.
- Without src/ next to it the benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import env

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_cli(cwd, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True
    )


def main() -> int:
    env.import_starsched()
    import harness
    from workloads import GOLDEN_SEED, WORKLOADS, build, cli_item

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    names = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json lists every workload")

    def failed_frac(run) -> float:
        return run["result"]["failed"] / run["result"]["attempted"]

    compile_golden = harness.load_golden("compile-trotter-sweep")
    for name in sorted(WORKLOADS):
        tiny = build(name, tiny=True)
        # only the compile sweep's tiny items share ids, and so goldens, with full size
        golden = compile_golden if name == "compile-trotter-sweep" else None
        for trace in ("0", "1"):
            run = harness.measure(tiny, tiny, GOLDEN_SEED, 0.5, trace == "1", golden)
            expect(set(run["result"]["metrics"]) == names[trace],
                   f"{name} trace {trace}: tiny run emits every named metric")
            expect(run["result"]["correct"] and failed_frac(run) == 0,
                   f"{name} trace {trace}: tiny run passes its checks")

    compile_tiny = build("compile-trotter-sweep", tiny=True)
    golden = harness.load_golden("compile-trotter-sweep")
    golden["items"]["compile-plain-n2"]["out"] += " "
    run = harness.measure(compile_tiny, compile_tiny, GOLDEN_SEED, 0.1, False, golden)
    expect(failed_frac(run) > 0, "corrupted golden: failed_frac above 0")

    estimate_tiny = build("estimate-qcels", tiny=True)
    bad = cli_item("bad-item", ["simulate-rus", "--m", "0"], ("out",), seeded=False)
    broken = replace(estimate_tiny, items=estimate_tiny.items + (bad,))
    run = harness.measure(broken, broken, GOLDEN_SEED, 0.1, False, None)
    expect(failed_frac(run) > 0, "failing item: failed_frac above 0")

    bare = env.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(env.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", bare)
    proc = run_cli(bare, "--workload", "estimate-qcels", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/: nonzero exit and no result")

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
