"""Logical-patch grid, lattice-surgery operation catalog, and timeline checks.

Time is measured in lattice-surgery clocks (1 clock = d code cycles).  All
starts and durations are multiples of 0.5 clocks.  A ``Timeline`` stores them
as given; ``validate`` is the one place that checks them (granularity, a
non-negative duration, the catalog value of a catalog kind) and converts them
to integer half-clocks, so its interval comparisons are exact.  It shows a
valid timeline valid with one sweep over groups of ops sharing a start, the
patches held as bits of an int; only a timeline the sweep finds fault with
goes on to the ranked pass, which names the earliest conflict.  Both passes,
and the injection regions of ``rus``, map patches to bits and grow masks
only through ``bit_grid`` (and ``flood``, its fill through allowed cells).
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Callable, Iterable
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


def bit_grid(cells: Iterable[Coord]) -> tuple[dict[Coord, int], Callable[[int], int]]:
    """Each cell's bit over the cells' bounding box, and one ring of growth.

    Cell (r, c) is bit (r - r0)·cols + (c - c0), (r0, c0) the box's corner.
    ``grow(x)`` holds the cells next to x's, plus bits past the box, by four
    shifts; column masks stop a row's edge from wrapping into the next row.
    """
    cells = list(cells)
    r0, c0 = min(r for r, _ in cells), min(c for _, c in cells)
    cols = max(c for _, c in cells) - c0 + 1
    rows = max(r for r, _ in cells) - r0 + 1
    first_col = sum(1 << (r * cols) for r in range(rows))
    box = (first_col << cols) - first_col  # every bit of the bounding box
    not_first, not_last = box ^ first_col, box ^ (first_col << (cols - 1))
    bit = {cell: 1 << ((cell[0] - r0) * cols + cell[1] - c0) for cell in cells}

    def grow(x: int) -> int:
        return (x >> cols) | (x << cols) | ((x & not_first) >> 1) | ((x & not_last) << 1)

    return bit, grow


def flood(grow: Callable[[int], int], reach: int, allowed: int) -> int:
    """``reach`` grown by ``grow``, ring by ring, through ``allowed`` until
    it stops: the cells joined to it through allowed cells."""
    while True:
        more = reach | (grow(reach) & allowed)
        if more == reach:
            return reach
        reach = more


@dataclass
class PatchGrid:
    """4 x V grid of logical patches: data row / two routing rows / data row."""

    cells: dict[Coord, str]  # role: "data" | "routing"
    qpe_ancilla: Coord | None = None


def build_grid(n: int, with_qpe_ancilla: bool = False) -> PatchGrid:
    """Patch grid for an n x n model: rows 0/3 data, rows 1/2 routing.

    Initially the spin-up orbital of site i sits at (0, i) and the spin-down
    orbital at the vertically adjacent (1, i); rows 2 and 3 start free.  The
    optional phase-estimation ancilla patch attaches to the routing region at
    the right edge.  Cells are keyed row by row, the ancilla last, so
    ``list(cells)[r * n * n + c]`` is (r, c).
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
    return PatchGrid(cells, qpe)


@dataclass(frozen=True, slots=True)
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
        ``3.0``) and a coord is ``[r, c]`` (``[true, 0]`` for a bool).  The
        text of a coord is built once per coord object, the text after the
        start once per op object and the text before it once per run of ops
        sharing one start object; each line goes out as those two fragments.
        All three caches key by identity, because equal values can print
        differently (``3``, ``3.0``; ``0.0``, ``-0.0``; ``(1, 0)``,
        ``(True, 0)``).  The coord cache holds each coord it keys, so no id
        is freed and reused for another coord during the call.
        """
        kinds: dict[str, str] = {}
        coords: dict[int, str] = {}  # id(coord) -> its text
        held: list[Coord] = []  # every coord keyed in ``coords``
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
                texts = []
                for coord in op.participants:
                    text = coords.get(id(coord))
                    if text is None:
                        r, c = coord
                        text = coords[id(coord)] = (
                            json.dumps([r, c]) if type(r) is bool or type(c) is bool
                            else f"[{r}, {c}]"
                        )
                        held.append(coord)
                    texts.append(text)
                tail = tails[id(op)] = (
                    f'{kinds[op.kind]}, "participants": [{", ".join(texts)}], '
                    f'"duration": {_json_number(op.duration)}}}\n'
                )
            lines.append(head)
            lines.append(tail)
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
    (kind, duration) is checked once per call.  Then it rejects out-of-bounds
    coords, two ops claiming the same patch over overlapping clock intervals,
    and merge-type ops whose participants are not connected through their own
    patches plus the routing patches free at the start clock (held by no op
    over [s, e) with s <= t < e).  The verdict does not depend on op-list
    order: the earliest conflict (by clock, then coord) is returned, with op
    indices ranked by (start, kind, participants).

    A bitmask sweep (``_sweep``) first tries to show the timeline valid.
    Anything it finds, and any op or grid it does not model, sends the whole
    timeline to the ranked pass ``_ranked``, which names the conflict or
    raises what the first op in ranked order raises; so only valid timelines
    skip it, and both passes give the same verdict.

    Cost: on a valid timeline, a few big-int operations per op and, per
    distinct op object, one mask and for a merge one flood fill over its own
    patches; one flood fill per merge its own patches do not join (in a
    compiled controlled step, the two multi-target CZs on row 3, whose ancilla
    touches row 1).  No sort when the ops come in start order.
    """
    try:
        if _sweep(timeline.ops, grid):
            return None
    except Exception:  # the ranked pass raises what the first op in its order raises
        pass
    return _ranked(timeline, grid)


def _length(kind: str, duration: float) -> int:
    """An op's duration in half-clocks, checked against the catalog."""
    if duration < 0:
        raise ValueError(f"{kind} duration {duration} is negative")
    if kind in CATALOG and duration != CATALOG[kind]:
        raise ValueError(
            f"{kind} duration {duration} does not match catalog value {CATALOG[kind]}"
        )
    return to_half(duration)


def _sweep(ops: list[tuple[float, SurgeryOp]], grid: PatchGrid) -> bool:
    """True if the ops are valid on ``grid``; False if any may conflict.

    Cells are bits of an int (``bit_grid``).  Ops are walked in groups sharing
    a start half-clock, in clock order, with the cells earlier groups still
    hold kept per end clock.  A positive-length op must miss those cells and
    every other positive-length op of its group; a zero-length op only those
    cells, since it overlaps only an op it starts strictly inside.  A merge
    its own patches do not join is flood-filled through them and the routing
    cells its group's clock leaves free.
    """
    bit, grow = bit_grid(grid.cells)
    routing = sum(bit[c] for c, role in grid.cells.items() if role == "routing")
    half = lru_cache(maxsize=None)(to_half)
    length = lru_cache(maxsize=None)(_length)
    info: dict[int, tuple[int, int, int, int]] = {}  # id(op) -> describe(op)

    def describe(op: SurgeryOp) -> tuple[int, int, int, int] | None:
        """Mask, length, cells counted (none for a zero-length op) and, for a
        merge its own patches do not join, its first participant's bit;
        None for an op left to the ranked pass."""
        parts = op.participants
        if not (isinstance(op.kind, str) and isinstance(parts, tuple)):
            return None  # the ranked sort may fail to order it
        mask = 0
        for coord in parts:
            b = bit.get(coord)
            if b is None:
                return None  # out of bounds
            mask |= b
        n = length(op.kind, op.duration)
        seed = 0
        if op.kind in _MERGE_KINDS and len(parts) >= 2:
            first = bit[parts[0]]
            if flood(grow, first, mask) != mask:
                seed = first
        return mask, n, len(parts) if n else 0, seed

    def walk(ops: list[tuple[float, SurgeryOp]]) -> bool | None:
        """The verdict on start-ordered ops; None if they are out of order."""
        held: dict[int, int] = {}  # end half-clock -> cells held until then
        group: dict[int, int] = {}  # length -> cells of the group's ops
        searches: list[tuple[int, int]] = []  # (seed, mask) of the group's merges
        at, busy, count = float("-inf"), 0, 0  # group clock, held cells, cells counted

        def close() -> bool:
            """Check the group at clock ``at``, then hold its cells."""
            zero, cells = group.pop(0, 0), 0
            for n, mask in group.items():
                cells |= mask
                held[at + n] = held.get(at + n, 0) | mask
            # a cell counted twice is held twice (also by one op listing it twice)
            if (zero | cells) & busy or cells.bit_count() != count:
                return False
            free = routing & ~(busy | cells)
            return all(flood(grow, seed, m | free) & m == m for seed, m in searches)

        last = object()  # no start is that object
        for start, op in ops:
            if start is not last:
                last = start
                s = half(start)
                if s != at:
                    if s < at:
                        return None
                    if not close():
                        return False
                    group.clear()
                    searches.clear()
                    at, busy, count = s, 0, 0
                    for e in list(held):
                        if e <= s:
                            del held[e]
                        else:
                            busy |= held[e]
            d = info.get(id(op))
            if d is None:
                d = describe(op)
                if d is None:
                    return False
                info[id(op)] = d
            mask, n, size, seed = d
            group[n] = group.get(n, 0) | mask
            count += size
            if seed:
                searches.append((seed, mask))
        return close()

    verdict = walk(ops)
    if verdict is None:
        verdict = walk(sorted(ops, key=lambda so: half(so[0])))
    return verdict


def _ranked(timeline: Timeline, grid: PatchGrid) -> Conflict | None:
    """``validate``'s full check: every candidate conflict, the earliest
    returned.  Op indices rank the ops by (start, kind, participants)."""
    ordered = sorted(
        timeline.ops, key=lambda so: (so[0], so[1].kind, so[1].participants)
    )
    cells = grid.cells
    bit, grow = bit_grid(cells)
    half = lru_cache(maxsize=None)(to_half)
    length = lru_cache(maxsize=None)(_length)
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
    for rank, s in merges:
        start, op = ordered[rank]
        parts = op.participants
        own = sum(bit[c] for c in set(parts))
        seen = flood(grow, bit[parts[0]], own)
        if seen == own:
            continue
        free = 0
        for c, role in cells.items():
            held = intervals.get(c, ())
            if role == "routing" and not any(a <= s < b for a, b, _ in held):
                free |= bit[c]
        seen = flood(grow, seen, own | free)
        for coord in parts:
            if not bit[coord] & seen:
                conflicts.append(
                    Conflict(start, coord, (rank,), "participants disconnected")
                )
                break
    if not conflicts:
        return None
    return min(conflicts, key=lambda c: (c.clock, c.coord, c.op_indices))
