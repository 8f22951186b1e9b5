"""Check `starsched compile-trotter` and `starsched estimate` against the goldens.

    python3 scripts/check_compile_goldens.py [--starsched CMD]

Runs the console script CMD (default: starsched) in a temporary directory:
compile-trotter for n = 2..10 in both modes, with --out and --timeline, and
estimate at the four paper sizes with --out.  Each summary must equal the
golden "out" of perfbench/golden/compile-trotter-sweep.json or
estimate-qcels.json byte for byte, and each timeline's SHA-256 its golden
digest.  Exits 1 naming every item that differs, 0 when all 22 match.
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
# the published largest-circuit step counts the estimate items calibrate to
N_MAX = {4: 3397, 6: 5051, 8: 6750, 10: 8538}


def load(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as f:
        return json.load(f)["items"]


def items() -> list[tuple[str, str, list[str]]]:
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
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starsched", default="starsched")
    args = parser.parse_args(argv)
    golden = {name: load(name) for name in ("compile-trotter-sweep", "estimate-qcels")}
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, item, options in items():
            expected = golden[name][item]
            out = os.path.join(tmp, f"{item}.out")
            timeline = os.path.join(tmp, f"{item}.jsonl")
            extra = ["--timeline", timeline] if "timeline" in expected else []
            subprocess.run(
                shlex.split(args.starsched) + options + ["--out", out] + extra,
                check=True,
            )
            with open(out, "rb") as f:
                ok = f.read() == expected["out"].encode()
            if extra:
                with open(timeline, "rb") as f:
                    ok &= hashlib.sha256(f.read()).hexdigest() == expected["timeline"]
            print(f"{item}: {'ok' if ok else 'DIFFERS'}")
            if not ok:
                bad.append(f"{name}/{item}")
    if bad:
        print(f"differ from the goldens in {GOLDEN_DIR}: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
