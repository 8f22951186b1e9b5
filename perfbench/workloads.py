"""The four benchmark workloads: their items, sizes and published-value checks.

Every workload is a closed loop with one client: items run back to back in
one thread of one process, through ``starsched.cli.run`` or, where no
subcommand exists, the public library call.  ``build(name, tiny=True)``
gives the same items at toy sizes, used for warm-up and the self-test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from refclock import process_loop, region_loop
from starsched import cli, rus

# Default seed; golden outputs of seeded items are captured at this seed.
GOLDEN_SEED = 0

PAPER_NS = (4, 6, 8, 10)
T_TROTTER = {4: 248.355, 6: 307.51, 8: 359.51, 10: 404.25}
N_MAX = {4: 3397, 6: 5051, 8: 6750, 10: 8538}
DISTANCE = {4: 9, 6: 11, 8: 11, 10: 11}
N_QUBIT = {4: 10530, 6: 35090, 8: 62194, 10: 97042}
CONTROLLED_FIXED_EXTRA = 18  # two multi-target CNOT (5) and two CZ layers (4)

# Monte Carlo sizes: large enough that the seed moves a pass's simulated work
# by a few percent at most, small enough that two passes take under about 30 s
# on a 2-core machine; the published-value checks hold on every seed tried.
ADAPTIVE_RUNS = 100
CALIBRATE_RUNS = 200
CALIBRATE_TARGET = 161.0
COMPARE_RUNS = 200


class ItemFailed(Exception):
    """An item exited nonzero or raised."""


@dataclass(frozen=True)
class Item:
    id: str
    seeded: bool  # output depends on --seed
    run: Callable[[dict, Path], dict[str, bytes]]  # (state, workdir) -> outputs


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    largest: str  # id of the biggest instance
    orderings: tuple[int, ...]  # shipped ordering pairs the workload loads
    # pass outputs (item id -> outputs, None if the item failed) -> named verdicts
    reference: Callable[[dict], list[tuple[str, bool]]] | None
    ref_loop: Callable[[], None]  # refclock loop closest to the hot code


def cli_item(item_id: str, argv: list[str], files: tuple[str, ...], seeded: bool) -> Item:
    """An item running ``starsched <argv> --out F [--hist F] [--timeline F]``.

    ``{seed}`` and ``{rate}`` in argv are filled from the pass state.  The
    timeline is returned as its SHA-256 digest; other files verbatim.
    """

    def run(state: dict, workdir: Path) -> dict[str, bytes]:
        paths = {kind: workdir / f"{item_id}.{kind}" for kind in files}
        full = [a.format(**state) for a in argv]
        for kind, path in paths.items():
            full += [f"--{kind}", str(path)]
        try:
            code = cli.run(full)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        if code != 0:
            raise ItemFailed(f"{item_id}: exit code {code}")
        out = {kind: path.read_bytes() for kind, path in paths.items()}
        if "timeline" in out:
            out["timeline"] = hashlib.sha256(out["timeline"]).hexdigest().encode()
        return out

    return Item(item_id, seeded, run)


def _summary(outputs: dict | None) -> dict | None:
    return None if outputs is None else json.loads(outputs["out"])


# ---------------------------------------------------------------------------
# compile-trotter-sweep


def compile_trotter_sweep(tiny: bool) -> Workload:
    ns = (2, 3) if tiny else tuple(range(2, 11))
    items = tuple(
        cli_item(
            f"compile-{mode}-n{n}",
            ["compile-trotter", "--n", str(n), "--mode", mode],
            ("out", "timeline"),
            seeded=False,
        )
        for mode in ("plain", "controlled")
        for n in ns
    )

    def reference(outs: dict) -> list[tuple[str, bool]]:
        verdicts = []
        for mode in ("plain", "controlled"):
            extra = CONTROLLED_FIXED_EXTRA if mode == "controlled" else 0
            for n in ns:
                s = _summary(outs[f"compile-{mode}-n{n}"])
                ok = (
                    s is not None
                    and s["fixed_clocks"] == 14 * n + 55 + extra
                    and sum(g["count"] for g in s["rus_groups"]) == 16
                )
                verdicts.append((f"compile-{mode}-n{n}: 14n+55 fixed clocks, 16 RUS groups", ok))
        return verdicts

    return Workload(
        "compile-trotter-sweep", items, f"compile-controlled-n{ns[-1]}", ns, reference, region_loop
    )


# ---------------------------------------------------------------------------
# rus-adaptive


def _shapes(n: int) -> tuple[tuple[int, str], ...]:
    v = n * n
    return ((v - n, "Z"), (v - n, "ZZ"), (v, "ZZ"))


def rus_adaptive(tiny: bool) -> Workload:
    ns = (2,) if tiny else PAPER_NS
    runs = 5 if tiny else ADAPTIVE_RUNS
    items = tuple(
        cli_item(
            f"rus-m{m}-{basis}",
            ["simulate-rus", "--m", str(m), "--basis", basis, "--mode", "adaptive",
             "--runs", str(runs), "--seed", "{seed}"],
            ("out", "hist"),
            seeded=True,
        )
        for n in ns
        for m, basis in _shapes(n)
    )

    def reference(outs: dict) -> list[tuple[str, bool]]:
        verdicts = []
        for n in ns:
            means = [_summary(outs[f"rus-m{m}-{b}"]) for m, b in _shapes(n)]
            ok = all(s is not None for s in means)
            if ok:
                z, zz, full = (s["mean"] for s in means)
                t_step = 7 * z + 7 * zz + 2 * full + 14 * n + 55
                ok = abs(t_step / T_TROTTER[n] - 1) <= 0.15
            verdicts.append((f"n={n}: simulated T_trotter within 15% of published", ok))
        return verdicts

    last = ns[-1] * ns[-1]
    return Workload(
        "rus-adaptive", items, f"rus-m{last}-ZZ", (), None if tiny else reference, region_loop
    )


# ---------------------------------------------------------------------------
# rus-calibrate


def rus_calibrate(tiny: bool) -> Workload:
    cal_runs = 2 if tiny else CALIBRATE_RUNS
    runs = 5 if tiny else COMPARE_RUNS

    def calibrate(state: dict, workdir: Path) -> dict[str, bytes]:
        # looked up on the module at call time, so a traced run sees its wrapper
        rate = rus.calibrate_p_pass(
            CALIBRATE_TARGET, m=32, basis="Z", runs=cal_runs, seed=state["seed"]
        )
        state["rate"] = repr(rate)
        return {"rate": state["rate"].encode()}

    items = (Item("calibrate", True, calibrate),) + tuple(
        cli_item(
            f"{mode}-m32",
            ["simulate-rus", "--m", "32", "--basis", "Z", "--p-pass", "{rate}",
             "--mode", mode, "--runs", str(runs), "--seed", "{seed}"],
            ("out", "hist"),
            seeded=True,
        )
        for mode in ("naive", "adaptive")
    )

    def reference(outs: dict) -> list[tuple[str, bool]]:
        naive, adaptive = _summary(outs["naive-m32"]), _summary(outs["adaptive-m32"])
        near = naive is not None and abs(naive["mean"] / CALIBRATE_TARGET - 1) <= 0.10
        cut = (
            naive is not None
            and adaptive is not None
            and 1 - adaptive["mean"] / naive["mean"] >= 0.60
        )
        return [
            ("naive mean within 10% of 161 clocks", near),
            ("adaptive mode cuts the naive mean by at least 60%", cut),
        ]

    return Workload(
        "rus-calibrate", items, "calibrate", (), None if tiny else reference, process_loop
    )


# ---------------------------------------------------------------------------
# estimate-qcels


def estimate_qcels(tiny: bool) -> Workload:
    ns = (4,) if tiny else PAPER_NS
    items = tuple(
        cli_item(
            f"estimate-n{n}",
            ["estimate", "--n", str(n), "--calibrate-nmax", str(N_MAX[n])],
            ("out",),
            seeded=False,
        )
        for n in ns
    ) + (
        cli_item(
            "qcels-demo",
            ["qcels-demo", "--eps", "0.01", "--seed", "{seed}"]
            + (["--trials", "3"] if tiny else []),
            ("out",),
            seeded=True,
        ),
    )

    def reference(outs: dict) -> list[tuple[str, bool]]:
        verdicts = []
        for n in ns:
            s = _summary(outs[f"estimate-n{n}"])
            ok = s is not None and s["d"] == DISTANCE[n] and s["n_qubit"] == N_QUBIT[n]
            verdicts.append((f"estimate n={n}: published d and n_qubit", ok))
        demo = _summary(outs["qcels-demo"])
        verdicts.append(("qcels-demo success rate >= 0.90", demo is not None and demo["success_rate"] >= 0.90))
        return verdicts

    return Workload(
        "estimate-qcels", items, "qcels-demo", (), None if tiny else reference, process_loop
    )


WORKLOADS = {
    "compile-trotter-sweep": compile_trotter_sweep,
    "rus-adaptive": rus_adaptive,
    "rus-calibrate": rus_calibrate,
    "estimate-qcels": estimate_qcels,
}


def build(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](tiny)
