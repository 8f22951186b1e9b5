"""Check `starsched simulate-rus` against the rus-adaptive and rus-calibrate goldens.

    python3 scripts/check_rus_goldens.py [--starsched CMD]

Runs the console script CMD (default: starsched) with --out and --hist, in a
temporary directory, at seed 0: the 12 rus-adaptive items (`--mode adaptive
--runs 100`), and naive-m32 and adaptive-m32 (`--m 32 --basis Z --runs 200`)
at the golden calibrated pass rate.  Each summary and histogram must equal
the golden "out" and "hist" of perfbench/golden/rus-adaptive.json or
rus-calibrate.json byte for byte.  Exits 1 naming every item that differs,
0 when all 14 match.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.normpath(os.path.join(HERE, "..", "perfbench", "golden"))


def load(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as f:
        return json.load(f)["items"]


def items(golden: dict) -> list[tuple[str, str, list[str]]]:
    """(golden file, item id, simulate-rus arguments) of every checked item."""
    found = []
    for n in (4, 6, 8, 10):
        for m, basis in ((n * n - n, "Z"), (n * n - n, "ZZ"), (n * n, "ZZ")):
            found.append(
                ("rus-adaptive", f"rus-m{m}-{basis}",
                 ["--m", str(m), "--basis", basis, "--mode", "adaptive", "--runs", "100"])
            )
    rate = golden["rus-calibrate"]["calibrate"]["rate"]
    for mode in ("naive", "adaptive"):
        found.append(
            ("rus-calibrate", f"{mode}-m32",
             ["--m", "32", "--basis", "Z", "--p-pass", rate, "--mode", mode, "--runs", "200"])
        )
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starsched", default="starsched")
    args = parser.parse_args(argv)
    golden = {name: load(name) for name in ("rus-adaptive", "rus-calibrate")}
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, item, options in items(golden):
            out = os.path.join(tmp, f"{item}.out")
            hist = os.path.join(tmp, f"{item}.hist")
            subprocess.run(
                shlex.split(args.starsched)
                + ["simulate-rus", *options, "--seed", "0", "--out", out, "--hist", hist],
                check=True,
            )
            ok = True
            for kind, path in (("out", out), ("hist", hist)):
                with open(path, "rb") as f:
                    ok &= f.read() == golden[name][item][kind].encode()
            print(f"{item}: {'ok' if ok else 'DIFFERS'}")
            if not ok:
                bad.append(f"{name}/{item}")
    if bad:
        print(f"differ from the goldens in {GOLDEN_DIR}: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
