"""Every top-level function and class in ``src/starsched`` has a use in
``src/starsched`` outside its own definition, unless listed below, and every
``BENCH_*.json`` file the README names exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "starsched"

# "module.name" -> why it stays with no use in src/
ALLOWED = {
    "rus.calibrate_p_pass": "the perfbench rus-calibrate workload and the tests "
    "call it; no command does",
    "qcels.synth_signal": "the one-level signal from trial seeds, which the tests "
    "call; multilevel_qcels seeds all its levels at once and calls _signal",
}


def unreferenced(src: Path) -> set[str]:
    """The "module.name" of each top-level def or class whose name no Name or
    Attribute node under ``src`` mentions, outside the definition itself."""
    statements, defs = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
            statements.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, node))
    return {
        f"{module}.{node.name}"
        for module, node in defs
        if not any(node.name in names for other, names in statements if other is not node)
    }


def test_every_definition_is_used_in_src():
    # equality, not inclusion: an entry whose name gained a use must go too
    assert unreferenced(SRC) == set(ALLOWED)


def test_every_bench_file_the_readme_names_exists():
    named = set(re.findall(r"BENCH_\w+\.json", (ROOT / "README.md").read_text()))
    assert len(named) > 1
    assert sorted(name for name in named if not (ROOT / name).is_file()) == []
