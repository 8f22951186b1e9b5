"""Check `starsched compile-trotter` against the compile-trotter-sweep goldens.

    python3 scripts/check_compile_goldens.py [--starsched CMD]

Runs the console script CMD (default: starsched) for n = 2..10 in both modes,
with --out and --timeline, in a temporary directory.  Each summary must equal
the golden "out" of perfbench/golden/compile-trotter-sweep.json byte for byte,
and each timeline's SHA-256 its golden digest.  Exits 1 naming every item
that differs, 0 when all 18 match.
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
GOLDEN = os.path.normpath(
    os.path.join(HERE, "..", "perfbench", "golden", "compile-trotter-sweep.json")
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starsched", default="starsched")
    args = parser.parse_args(argv)
    with open(GOLDEN) as f:
        golden = json.load(f)["items"]
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("plain", "controlled"):
            for n in range(2, 11):
                item = f"compile-{mode}-n{n}"
                out = os.path.join(tmp, f"{item}.out")
                timeline = os.path.join(tmp, f"{item}.jsonl")
                subprocess.run(
                    shlex.split(args.starsched)
                    + ["compile-trotter", "--n", str(n), "--mode", mode]
                    + ["--out", out, "--timeline", timeline],
                    check=True,
                )
                with open(out, "rb") as f:
                    summary = f.read()
                with open(timeline, "rb") as f:
                    digest = hashlib.sha256(f.read()).hexdigest()
                ok = (
                    summary == golden[item]["out"].encode()
                    and digest == golden[item]["timeline"]
                )
                print(f"{item}: {'ok' if ok else 'DIFFERS'}")
                if not ok:
                    bad.append(item)
    if bad:
        print(f"differ from {GOLDEN}: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
