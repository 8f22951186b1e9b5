"""Check the `starsched` console script against the benchmark goldens.

    python3 scripts/check_goldens.py [--starsched CMD]

Runs the console script CMD (default: starsched) in a temporary directory on
36 items of perfbench/golden:
  - compile-trotter for n = 2..10 in both modes, with --out and --timeline;
  - estimate at the four paper sizes, with --out;
  - simulate-rus at seed 0, with --out and --hist: the 12 rus-adaptive items
    (`--mode adaptive --runs 100`), and naive-m32 and adaptive-m32 (`--m 32
    --basis Z --runs 200`) at the golden calibrated pass rate.
Each summary and histogram must equal the item's golden "out" and "hist" byte
for byte, and each timeline's SHA-256 its golden "timeline" digest.  Exits 1
naming every item that differs, 0 when all 36 match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.normpath(os.path.join(HERE, "..", "perfbench", "golden"))
GOLDENS = ("compile-trotter-sweep", "estimate-qcels", "rus-adaptive", "rus-calibrate")
# the published largest-circuit step counts the estimate items calibrate to
N_MAX = {4: 3397, 6: 5051, 8: 6750, 10: 8538}
# option writing each checked output; a timeline is checked by its digest
OPTIONS = {"out": "--out", "timeline": "--timeline", "hist": "--hist"}


def load(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as f:
        return json.load(f)["items"]


def items(golden: dict) -> list[tuple[str, str, list[str]]]:
    """(golden file, item id, starsched arguments) of every checked item."""
    found = [
        ("compile-trotter-sweep", f"compile-{mode}-n{n}",
         ["compile-trotter", "--n", str(n), "--mode", mode])
        for mode in ("plain", "controlled")
        for n in range(2, 11)
    ]
    found += [
        ("estimate-qcels", f"estimate-n{n}",
         ["estimate", "--n", str(n), "--calibrate-nmax", str(n_max)])
        for n, n_max in N_MAX.items()
    ]
    rus = ["simulate-rus", "--seed", "0", "--m"]
    for n in (4, 6, 8, 10):
        for m, basis in ((n * n - n, "Z"), (n * n - n, "ZZ"), (n * n, "ZZ")):
            found.append(
                ("rus-adaptive", f"rus-m{m}-{basis}",
                 rus + [str(m), "--basis", basis, "--mode", "adaptive", "--runs", "100"])
            )
    rate = golden["rus-calibrate"]["calibrate"]["rate"]
    for mode in ("naive", "adaptive"):
        found.append(
            ("rus-calibrate", f"{mode}-m32",
             rus + ["32", "--basis", "Z", "--p-pass", rate, "--mode", mode, "--runs", "200"])
        )
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starsched", default="starsched")
    args = parser.parse_args(argv)
    golden = {name: load(name) for name in GOLDENS}
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, item, options in items(golden):
            expected = golden[name][item]
            paths = {kind: os.path.join(tmp, f"{item}.{kind}") for kind in expected}
            command = shlex.split(args.starsched) + options
            for kind, path in paths.items():
                command += [OPTIONS[kind], path]
            subprocess.run(command, check=True)
            ok = True
            for kind, path in paths.items():
                with open(path, "rb") as f:
                    data = f.read()
                if kind == "timeline":
                    ok &= hashlib.sha256(data).hexdigest() == expected[kind]
                else:
                    ok &= data == expected[kind].encode()
            print(f"{item}: {'ok' if ok else 'DIFFERS'}")
            if not ok:
                bad.append(f"{name}/{item}")
    if bad:
        print(f"differ from the goldens in {GOLDEN_DIR}: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
