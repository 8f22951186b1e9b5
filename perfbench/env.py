"""Locate the checkout and import starsched from its own src/ tree.

The benchmark measures the sources next to it, never an installed copy, so
a checkout without src/starsched is an error rather than a silent fallback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / ".out"


def import_starsched():
    """Import starsched from ROOT/src, exiting with status 1 if it is not there.

    STAR_THREADS is dropped first: it would move the Monte Carlo onto worker
    threads, changing what is timed and the span nesting of a traced run.
    """
    os.environ.pop("STAR_THREADS", None)
    package = SRC / "starsched"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no starsched sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import starsched

    if Path(starsched.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported starsched from {starsched.__file__}, not {package}")
    return starsched


def source_env() -> dict[str, str]:
    """Environment for child interpreters that must import the same sources."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def commit() -> str:
    """Commit of the checkout, or "unknown" when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"
