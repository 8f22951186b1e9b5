"""Logical-patch grid, lattice-surgery operation catalog, and timeline checks.

Time is measured in lattice-surgery clocks (1 clock = d code cycles).  All
starts and durations are multiples of 0.5 clocks.  A ``Timeline`` stores them
as floats, checked for that granularity when added; ``validate`` converts
them to integer half-clocks, so its interval comparisons are exact.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

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


def catalog_cost(kind: str) -> float:
    """Clock cost of a catalog operation."""
    try:
        return CATALOG[kind]
    except KeyError:
        raise KeyError(f"unknown operation kind: {kind!r}") from None


def to_half(clocks: float) -> int:
    """Convert a clock value to integer half-clocks, requiring 0.5 granularity."""
    h = round(clocks * 2)
    if abs(h - clocks * 2) > 1e-9:
        raise ValueError(f"clock value {clocks} is not a multiple of 0.5")
    return h


Coord = tuple[int, int]


@dataclass
class Patch:
    role: str  # "data" | "routing"


@dataclass
class PatchGrid:
    """4 x V grid of logical patches: data row / two routing rows / data row."""

    n: int
    cells: dict[Coord, Patch]
    qpe_ancilla: Coord | None = None

    @property
    def cols(self) -> int:
        return self.n * self.n

    @property
    def patch_count(self) -> int:
        return len(self.cells)

    def in_bounds(self, coord: Coord) -> bool:
        return coord in self.cells

    def neighbors(self, coord: Coord):
        r, c = coord
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in self.cells:
                yield nb


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
    cells: dict[Coord, Patch] = {}
    for r in range(4):
        role = "data" if r in (0, 3) else "routing"
        for c in range(v):
            cells[(r, c)] = Patch(role)
    qpe = None
    if with_qpe_ancilla:
        qpe = (1, v)
        cells[qpe] = Patch("data")
    return PatchGrid(n, cells, qpe)


@dataclass(frozen=True)
class SurgeryOp:
    kind: str
    participants: tuple[Coord, ...]
    duration: float  # clocks, 0.5 granularity

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"{self.kind} duration {self.duration} is negative")
        if self.kind in CATALOG and self.duration != CATALOG[self.kind]:
            raise ValueError(
                f"{self.kind} duration {self.duration} does not match "
                f"catalog value {CATALOG[self.kind]}"
            )
        to_half(self.duration)  # granularity check


@dataclass
class Timeline:
    ops: list[tuple[float, SurgeryOp]] = field(default_factory=list)

    def add(self, start: float, op: SurgeryOp) -> None:
        to_half(start)
        self.ops.append((start, op))

    @property
    def horizon(self) -> float:
        return max((s + op.duration for s, op in self.ops), default=0.0)

    def to_jsonl(self) -> str:
        """One op per line with stable field order, for diffing."""
        return "".join(
            json.dumps(
                {
                    "start": start,
                    "kind": op.kind,
                    "participants": [list(c) for c in op.participants],
                    "duration": op.duration,
                }
            )
            + "\n"
            for start, op in self.ops
        )


@dataclass(frozen=True)
class Conflict:
    clock: float
    coord: Coord
    op_indices: tuple[int, int] | tuple[int]
    reason: str


def validate(timeline: Timeline, grid: PatchGrid) -> Conflict | None:
    """Check a timeline for spatial conflicts; None means the schedule is ok.

    Rejects out-of-bounds coords, two ops claiming the same patch over
    overlapping clock intervals, and merge-type ops whose participants are
    not connected through their own patches plus free routing patches at the
    start clock.  The verdict does not depend on op-list order: candidate
    conflicts are collected and the earliest (by clock, then coord) returned.

    Cost: one sort of the ops, then an event sweep over the distinct start
    clocks of merge ops.  The set of busy patches is kept incrementally and
    the free routing set is built once per such clock, so the check is
    O(ops log ops + clocks x routing patches) plus one search per merge op,
    which stops as soon as it reaches all of the op's participants.
    """
    # deterministic op identity independent of insertion order
    ordered = sorted(
        timeline.ops, key=lambda so: (so[0], so[1].kind, so[1].participants)
    )
    spans = []  # (s, e) half-clocks per rank
    conflicts: list[Conflict] = []
    intervals: dict[Coord, list[tuple[int, int, int]]] = {}
    for rank, (start, op) in enumerate(ordered):
        s = to_half(start)
        e = s + to_half(op.duration)
        spans.append((s, e))
        for coord in op.participants:
            if not grid.in_bounds(coord):
                conflicts.append(Conflict(start, coord, (rank,), "out of bounds"))
                continue
            intervals.setdefault(coord, []).append((s, e, rank))
    for coord, ivs in intervals.items():
        ivs.sort()
        for (s1, e1, r1), (s2, e2, r2) in zip(ivs, ivs[1:]):
            if s2 < e1:
                conflicts.append(
                    Conflict(s2 / 2, coord, tuple(sorted((r1, r2))), "patch overlap")
                )
    conflicts.extend(_disconnected_merges(ordered, spans, grid))
    if not conflicts:
        return None
    return min(conflicts, key=lambda c: (c.clock, c.coord, c.op_indices))


def _disconnected_merges(ordered, spans, grid: PatchGrid):
    """Connectivity of merge-type ops at their start clock, by event sweep.

    Ranks are in start order.  A patch is busy at clock t when some op holds
    it over [s, e) with s <= t < e.  The merge op itself counts as busy too,
    which changes nothing: its own participants are always allowed in its
    search.
    """
    merges = [
        rank
        for rank, (_, op) in enumerate(ordered)
        if op.kind in _MERGE_KINDS
        and len(op.participants) >= 2
        and all(grid.in_bounds(c) for c in op.participants)
    ]
    if not merges:
        return
    routing = [c for c, p in grid.cells.items() if p.role == "routing"]
    by_end = sorted(range(len(spans)), key=lambda r: spans[r][1])
    busy: Counter = Counter()
    added = ended = 0
    clock = None
    for rank in merges:
        if spans[rank][0] != clock:
            clock = spans[rank][0]
            while added < len(spans) and spans[added][0] <= clock:
                busy.update(ordered[added][1].participants)
                added += 1
            while ended < len(by_end) and spans[by_end[ended]][1] <= clock:
                busy.subtract(ordered[by_end[ended]][1].participants)
                ended += 1
            free = {c for c in routing if busy[c] <= 0}
        start, op = ordered[rank]
        parts = op.participants
        own = set(parts)
        missing = own - {parts[0]}
        seen = {parts[0]}
        stack = [parts[0]]
        while stack and missing:
            cur = stack.pop()
            for nb in grid.neighbors(cur):
                if (nb in free or nb in own) and nb not in seen:
                    seen.add(nb)
                    missing.discard(nb)
                    stack.append(nb)
        for coord in parts:
            if coord not in seen:
                yield Conflict(start, coord, (rank,), "participants disconnected")
                break
