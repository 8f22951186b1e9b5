"""Logical-patch grid, lattice-surgery operation catalog, and timeline checks.

Time is measured in lattice-surgery clocks (1 clock = d code cycles).  All
starts and durations are multiples of 0.5 clocks.  A ``Timeline`` stores them
as given; ``validate`` is the one place that checks them (granularity, a
non-negative duration, the catalog value of a catalog kind) and converts them
to integer half-clocks, so its interval comparisons are exact.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

# Clock cost per operation kind.  This is data, not code.
CATALOG: dict[str, float] = {
    "hadamard": 3.0,
    "hadamard_no_moveback": 2.0,
    "cnot": 3.0,
    "cnot_no_moveback": 2.0,
    "cz": 4.0,
    "s_gate": 1.5,
    "multi_target_cnot": 8.0,
    "multi_target_cnot_reduced": 5.0,
    "multi_target_cz": 2.0,
    "fswap": 7.0,
    "patch_move_layer": 3.0,
    "zz_rotation_trial": 2.0,
    "joint_pauli_measurement": 1.0,
}

# Kinds realized as merge/split joint measurements: their participants must be
# mutually connected on the grid.
_MERGE_KINDS = {
    "hadamard",
    "hadamard_no_moveback",
    "cnot",
    "cnot_no_moveback",
    "cz",
    "multi_target_cnot",
    "multi_target_cnot_reduced",
    "multi_target_cz",
    "fswap",
    "joint_pauli_measurement",
    "zz_rotation_trial",
}


def to_half(clocks: float) -> int:
    """Convert a clock value to integer half-clocks, requiring 0.5 granularity."""
    h = round(clocks * 2)
    if abs(h - clocks * 2) > 1e-9:
        raise ValueError(f"clock value {clocks} is not a multiple of 0.5")
    return h


Coord = tuple[int, int]


@dataclass
class PatchGrid:
    """4 x V grid of logical patches: data row / two routing rows / data row."""

    n: int
    cells: dict[Coord, str]  # role: "data" | "routing"
    qpe_ancilla: Coord | None = None


def build_grid(n: int, with_qpe_ancilla: bool = False) -> PatchGrid:
    """Patch grid for an n x n model: rows 0/3 data, rows 1/2 routing.

    Initially the spin-up orbital of site i sits at (0, i) and the spin-down
    orbital at the vertically adjacent (1, i); rows 2 and 3 start free.  The
    optional phase-estimation ancilla patch attaches to the routing region at
    the right edge.
    """
    if n < 2:
        raise ValueError(f"lattice size must be at least 2, got {n}")
    v = n * n
    cells: dict[Coord, str] = {}
    for r in range(4):
        role = "data" if r in (0, 3) else "routing"
        for c in range(v):
            cells[(r, c)] = role
    qpe = None
    if with_qpe_ancilla:
        qpe = (1, v)
        cells[qpe] = "data"
    return PatchGrid(n, cells, qpe)


@dataclass(frozen=True)
class SurgeryOp:
    kind: str
    participants: tuple[Coord, ...]
    duration: float  # clocks, 0.5 granularity


@dataclass
class Timeline:
    ops: list[tuple[float, SurgeryOp]] = field(default_factory=list)

    def add(self, start: float, op: SurgeryOp) -> None:
        self.ops.append((start, op))

    @property
    def horizon(self) -> float:
        return max((s + op.duration for s, op in self.ops), default=0.0)

    def to_jsonl(self) -> str:
        """One op per line with stable field order, for diffing.

        Each line is what ``json.dumps`` writes for {"start", "kind",
        "participants", "duration"}: a finite float goes through
        ``float.__repr__`` as in ``json.encoder`` (so ``np.float64(3)`` writes
        ``3.0``) and a coord is ``[r, c]``.  The text after the start is built
        once per op object and the text before it once per run of ops sharing
        one start object; both caches key by identity, because equal values
        can print differently (``3``, ``3.0``; ``0.0``, ``-0.0``).
        """
        kinds: dict[str, str] = {}
        tails: dict[int, str] = {}  # id(op) -> line text after the start
        lines = []
        last, head = object(), ""  # no start is that object
        for start, op in self.ops:
            if start is not last:
                last = start
                head = f'{{"start": {_json_number(start)}, "kind": '
            tail = tails.get(id(op))
            if tail is None:
                if op.kind not in kinds:
                    kinds[op.kind] = json.dumps(op.kind)
                parts = ", ".join([f"[{r}, {c}]" for r, c in op.participants])
                tail = tails[id(op)] = (
                    f'{kinds[op.kind]}, "participants": [{parts}], '
                    f'"duration": {_json_number(op.duration)}}}\n'
                )
            lines.append(head + tail)
        return "".join(lines)


def _json_number(x: float) -> str:
    # finite floats as json.encoder writes them; ints, NaN and inf through json
    return float.__repr__(x) if isinstance(x, float) and x - x == 0 else json.dumps(x)


@dataclass(frozen=True)
class Conflict:
    clock: float
    coord: Coord
    op_indices: tuple[int, int] | tuple[int]
    reason: str


def validate(timeline: Timeline, grid: PatchGrid) -> Conflict | None:
    """Check a timeline for spatial conflicts; None means the schedule is ok.

    First each op's timing: a start or duration that is not a multiple of 0.5
    clocks, a negative duration, or a catalog kind whose duration differs
    from ``CATALOG`` raises ValueError.  Each distinct start and each distinct
    (kind, duration) is checked once per call.

    Then it rejects out-of-bounds coords, two ops claiming the same patch over
    overlapping clock intervals, and merge-type ops whose participants are
    not connected through their own patches plus free routing patches at the
    start clock.  The verdict does not depend on op-list order: candidate
    conflicts are collected and the earliest (by clock, then coord) returned.

    A routing patch is free at clock t when no op holds it over [s, e) with
    s <= t < e.  Free patches only add cells to a merge's search from its
    first participant, so a merge whose participants are connected through
    its own patches alone passes without looking at busy state.  The merges
    left over (in a compiled controlled step, the two multi-target CZs on
    row 3, whose ancilla touches row 1) get the free routing set at their
    start clock from the per-patch intervals of the overlap check, and their
    search goes on from the cells already reached.

    Cost: one sort of the ops and of each patch's intervals, one search over
    its own patches per distinct participant tuple of a merge (a tuple found
    self-connected is remembered, so its later merges cost one dict lookup),
    and one pass over the routing patches' intervals per start clock of a
    merge that is not self-connected.
    """
    # deterministic op identity independent of insertion order
    ordered = sorted(
        timeline.ops, key=lambda so: (so[0], so[1].kind, so[1].participants)
    )
    cells = grid.cells
    half = lru_cache(maxsize=None)(to_half)

    @lru_cache(maxsize=None)
    def length(kind: str, duration: float) -> int:
        if duration < 0:
            raise ValueError(f"{kind} duration {duration} is negative")
        if kind in CATALOG and duration != CATALOG[kind]:
            raise ValueError(
                f"{kind} duration {duration} does not match "
                f"catalog value {CATALOG[kind]}"
            )
        return to_half(duration)

    conflicts: list[Conflict] = []
    intervals: dict[Coord, list[tuple[int, int, int]]] = defaultdict(list)
    merges = []  # (rank, start half-clock) of in-bounds merge ops
    for rank, (start, op) in enumerate(ordered):
        s = half(start)
        span = (s, s + length(op.kind, op.duration), rank)
        inside = True
        for coord in op.participants:
            if coord in cells:
                intervals[coord].append(span)
            else:
                conflicts.append(Conflict(start, coord, (rank,), "out of bounds"))
                inside = False
        if inside and len(op.participants) >= 2 and op.kind in _MERGE_KINDS:
            merges.append((rank, s))
    for coord, ivs in intervals.items():
        ivs.sort()
        for (s1, e1, r1), (s2, e2, r2) in zip(ivs, ivs[1:]):
            if s2 < e1:
                conflicts.append(
                    Conflict(s2 / 2, coord, tuple(sorted((r1, r2))), "patch overlap")
                )
    free_at: dict[int, set[Coord]] = {}
    # participant tuple -> cells its first participant reaches through its
    # own patches, or None once those reach every participant
    own_reach: dict[tuple[Coord, ...], set[Coord] | None] = {}
    for rank, s in merges:
        start, op = ordered[rank]
        parts = op.participants
        if parts not in own_reach:
            seen = _reach({parts[0]}, set(parts))
            own_reach[parts] = None if seen.issuperset(parts) else seen
        seen = own_reach[parts]
        if seen is None:
            continue
        if s not in free_at:
            free_at[s] = {
                c
                for c, role in cells.items()
                if role == "routing"
                and not any(a <= s < b for a, b, _ in intervals.get(c, ()))
            }
        seen = _reach(set(seen), free_at[s].union(parts))
        for coord in parts:
            if coord not in seen:
                conflicts.append(
                    Conflict(start, coord, (rank,), "participants disconnected")
                )
                break
    if not conflicts:
        return None
    return min(conflicts, key=lambda c: (c.clock, c.coord, c.op_indices))


def _reach(seen: set[Coord], allowed: set[Coord]) -> set[Coord]:
    """Grow ``seen`` in place to every cell joined to it through ``allowed``."""
    stack = list(seen)
    while stack:
        r, c = stack.pop()
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in allowed and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen
