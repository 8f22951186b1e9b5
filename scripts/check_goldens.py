"""Check the `starsched` console script against its pinned outputs.

    python3 scripts/check_goldens.py [--starsched CMD]

Runs each entry of tests/pins.json, one line each, through the console
script CMD (default: starsched) in a temporary directory, writing each output
it pins (--out, --hist, --timeline), and compares the output's SHA-256 with
the pinned one.  An entry's outputs are pinned either by "golden", the
perfbench/golden file whose item of the entry's name holds them ("out" and
"hist" bytes, a "timeline" digest; "{rate}" in the argv is the file's
calibrated pass rate), or by "sha256", each output's digest.  A
declared change to an output edits its entry's line.  Prints each entry as ok
or, per output that differs, the entry, the output and both digests; exits 1
if any differs.  The tier-1 tests run the same entries through
`starsched.cli.run` with `check`.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "pins.json")
GOLDEN_DIR = os.path.join(ROOT, "perfbench", "golden")


def load_manifest() -> dict[str, dict]:
    with open(MANIFEST) as f:
        return json.load(f)


def expected(name: str, entry: dict) -> tuple[list[str], dict[str, str]]:
    """The entry's starsched argv, and the SHA-256 of each output it pins."""
    if "sha256" in entry:
        return entry["argv"], entry["sha256"]
    with open(os.path.join(GOLDEN_DIR, f"{entry['golden']}.json")) as f:
        items = json.load(f)["items"]
    fill = {"rate": items["calibrate"]["rate"]} if "calibrate" in items else {}
    digests = {
        kind: value if kind == "timeline" else hashlib.sha256(value.encode()).hexdigest()
        for kind, value in items[name].items()
    }
    return [arg.format(**fill) for arg in entry["argv"]], digests


def check(name: str, entry: dict, run, directory) -> list[str]:
    """Run one manifest entry by ``run(argv) -> exit code``, writing its outputs
    into ``directory``; one line for each output that differs from its pin."""
    argv, digests = expected(name, entry)
    paths = {kind: os.path.join(directory, f"{name}.{kind}") for kind in digests}
    code = run(argv + [arg for kind, path in paths.items() for arg in (f"--{kind}", path)])
    if code != 0:
        return [f"{name}: exit code {code}"]
    differs = []
    for kind, path in paths.items():
        with open(path, "rb") as f:
            actual = hashlib.sha256(f.read()).hexdigest()
        if actual != digests[kind]:
            differs.append(f"{name} {kind}: expected sha256 {digests[kind]}, got {actual}")
    return differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starsched", default="starsched")
    args = parser.parse_args(argv)
    command = shlex.split(args.starsched)

    def run(options: list[str]) -> int:
        return subprocess.run(command + options, stdout=subprocess.DEVNULL).returncode

    manifest = load_manifest()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, entry in manifest.items():
            differs = check(name, entry, run, tmp)
            print("\n".join(differs) or f"{name}: ok")
            failed += bool(differs)
    print(f"{len(manifest) - failed}/{len(manifest)} ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
