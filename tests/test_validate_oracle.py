"""Differential test of fabric.validate against the quadratic reference check.

``reference_validate`` is the original implementation: for every merge op it
rescans all ops to collect the patches busy at the op's start clock, and it
searches the whole grid for a path.  ``validate`` must return the same
Conflict (or None) on every timeline, and its bitmask sweep must prove every
valid one: the ranked pass ``fabric._ranked`` is entered only when the
reference finds a conflict.
"""

from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsched import fabric
from starsched.fabric import (
    _MERGE_KINDS,
    CATALOG,
    Conflict,
    SurgeryOp,
    Timeline,
    build_grid,
    to_half,
    validate,
)
from starsched.trotter import compile_step


def _neighbors(grid, coord):
    r, c = coord
    for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
        if nb in grid.cells:
            yield nb


def reference_validate(timeline, grid):
    indexed = sorted(
        range(len(timeline.ops)),
        key=lambda i: (
            timeline.ops[i][0],
            timeline.ops[i][1].kind,
            timeline.ops[i][1].participants,
        ),
    )
    ranked = [timeline.ops[i] for i in indexed]
    # half-clock span [s, e) of each ranked op
    spans = [
        (to_half(start), to_half(start) + to_half(op.duration)) for start, op in ranked
    ]
    conflicts = []
    intervals = {}
    for rank, (start, op) in enumerate(ranked):
        s, e = spans[rank]
        for coord in op.participants:
            if coord not in grid.cells:
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
    for rank, (start, op) in enumerate(ranked):
        if op.kind not in _MERGE_KINDS or len(op.participants) < 2:
            continue
        if any(c not in grid.cells for c in op.participants):
            continue
        s = spans[rank][0]
        busy = set()
        for rank2, (s2, e2) in enumerate(spans):
            if rank2 != rank and s2 <= s < e2:
                busy.update(ranked[rank2][1].participants)
        allowed = set(op.participants) | {
            c for c, role in grid.cells.items() if role == "routing" and c not in busy
        }
        seen = {op.participants[0]}
        stack = [op.participants[0]]
        while stack:
            cur = stack.pop()
            for nb in _neighbors(grid, cur):
                if nb in allowed and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        for coord in op.participants:
            if coord not in seen:
                conflicts.append(
                    Conflict(start, coord, (rank,), "participants disconnected")
                )
                break
    if not conflicts:
        return None
    conflicts.sort(key=lambda c: (c.clock, c.coord, c.op_indices))
    return conflicts[0]


def assert_matches_reference(tl, grid):
    """validate agrees with the reference, and enters the ranked pass only
    on a timeline the reference rejects."""
    expected = reference_validate(tl, grid)
    with mock.patch.object(fabric, "_ranked", wraps=fabric._ranked) as ranked:
        assert validate(tl, grid) == expected
    if expected is None:
        assert ranked.call_count == 0


KINDS = sorted(_MERGE_KINDS) + ["s_gate", "rus_block_zz", "xxyy_block"]
STARTS = st.integers(0, 8).map(lambda h: h / 2)
FREE_DURATIONS = st.integers(0, 8).map(lambda h: h / 2)
LONG_DURATIONS = st.integers(0, 16).map(lambda h: h / 2)  # span later groups


@st.composite
def surgery_op(draw, participants):
    kind = draw(st.sampled_from(KINDS))
    duration = CATALOG[kind] if kind in CATALOG else draw(FREE_DURATIONS)
    return SurgeryOp(kind, participants, duration)


@st.composite
def disjoint_timelines(draw):
    """Ops on pairwise-disjoint patches: no overlap, so connectivity decides."""
    n = draw(st.sampled_from([2, 3]))
    grid = build_grid(n, with_qpe_ancilla=draw(st.booleans()))
    cells = draw(st.permutations(sorted(grid.cells)))
    tl = Timeline()
    taken = 0
    for size in draw(st.lists(st.integers(1, 4), max_size=16)):
        parts = tuple(cells[taken : taken + size])
        if not parts:
            break
        taken += size
        tl.add(draw(STARTS), draw(surgery_op(parts)))
    return grid, tl


@st.composite
def adversarial_timelines(draw):
    """Merges at a few shared clocks, plus routing blockers placed on those
    clocks: starting with the merge, ending exactly at its start, zero
    duration, or covering it; some participants out of bounds.  Merges of
    three or four participants mix cells adjacent to one already drawn with
    distant ones, so some are joined through their own patches and some need
    free routing patches."""
    n = draw(st.sampled_from([2, 3]))
    grid = build_grid(n, with_qpe_ancilla=draw(st.booleans()))
    v = n * n
    endpoints = [(r, c) for r in (0, 3) for c in range(v)]
    if grid.qpe_ancilla is not None:
        endpoints.append(grid.qpe_ancilla)
    outside = [(4, 0), (-1, 0), (0, v + 1), (2, v)]
    clocks = draw(st.lists(STARTS, min_size=1, max_size=3, unique=True))
    tl = Timeline()
    for _ in range(draw(st.integers(1, 4))):
        pool = endpoints + outside if draw(st.integers(0, 4)) == 0 else endpoints
        a, b = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(sorted(_MERGE_KINDS)))
        tl.add(draw(st.sampled_from(clocks)), SurgeryOp(kind, (a, b), CATALOG[kind]))
    for _ in range(draw(st.integers(0, 2))):
        parts = [draw(st.sampled_from(sorted(grid.cells)))]
        for _ in range(draw(st.integers(2, 3))):
            if draw(st.booleans()):
                r, c = draw(st.sampled_from(parts))
                near = [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]
                cell = draw(st.sampled_from([nb for nb in near if nb in grid.cells]))
            else:
                cell = draw(st.sampled_from(endpoints))
            if cell not in parts:
                parts.append(cell)
        kind = draw(st.sampled_from(sorted(_MERGE_KINDS)))
        tl.add(
            draw(st.sampled_from(clocks)), SurgeryOp(kind, tuple(parts), CATALOG[kind])
        )
    for _ in range(draw(st.integers(0, 6))):
        t = draw(st.sampled_from(clocks))
        col = draw(st.integers(0, v - 1))
        rows = draw(st.sampled_from([(1,), (2,), (1, 2)]))
        parts = tuple((r, col) for r in rows)
        if draw(st.integers(0, 5)) == 0:
            parts += (draw(st.sampled_from(outside)),)
        dur = draw(st.integers(1, 8)) / 2
        how = draw(st.sampled_from(["same_start", "ends_at", "zero", "covers"]))
        if how == "same_start":
            start = t
        elif how == "ends_at":
            dur = min(dur, t)
            start = t - dur
        elif how == "zero":
            start, dur = t, 0.0
        else:
            start, dur = max(0.0, t - 0.5), dur + 0.5
        tl.add(start, SurgeryOp("xxyy_block", parts, dur))
    return grid, tl


@st.composite
def sweep_timelines(draw):
    """Shuffled ops, mostly on fresh cells so that many timelines are valid,
    some reusing earlier cells; long ops that span later start groups;
    zero-duration ops at the start of, inside and at the end of other ops;
    and one op listing a patch twice, with positive or zero duration."""
    n = draw(st.sampled_from([2, 3]))
    grid = build_grid(n, with_qpe_ancilla=draw(st.booleans()))
    cells = draw(st.permutations(sorted(grid.cells)))
    ops = []
    taken = 0
    for size in draw(st.lists(st.integers(1, 3), max_size=8)):
        if taken and draw(st.integers(0, 3)) == 0:
            pool = st.sampled_from(cells[:taken])
            parts = tuple(draw(st.lists(pool, min_size=1, max_size=size, unique=True)))
        else:
            parts = tuple(cells[taken : taken + size])
            taken += len(parts)
        if not parts:
            break
        kind = draw(st.sampled_from(KINDS))
        duration = CATALOG[kind] if kind in CATALOG else draw(LONG_DURATIONS)
        ops.append((draw(STARTS), SurgeryOp(kind, parts, duration)))
    for _ in range(draw(st.integers(0, 3)) if ops else 0):
        s, op = draw(st.sampled_from(ops))
        t = s + draw(st.integers(0, to_half(op.duration))) / 2
        parts = (draw(st.sampled_from(op.participants)),)
        ops.append((t, SurgeryOp("xxyy_block", parts, 0.0)))
    if ops and draw(st.booleans()):
        i = draw(st.integers(0, len(ops) - 1))
        s, op = ops[i]
        twice = op.participants + (draw(st.sampled_from(op.participants)),)
        ops[i] = (s, SurgeryOp("rus_block_zz", twice, draw(st.sampled_from([0.0, 1.5]))))
    return grid, Timeline(list(draw(st.permutations(ops))))


@lru_cache(maxsize=None)
def compiled_case(n, mode):
    """A compiled step's ops, its merge start clocks, and per such clock the
    routing-holding ops that could move there without overlapping any patch."""
    ops = tuple(compile_step(n, mode=mode).timeline.ops)
    held = {}
    for i, (s, op) in enumerate(ops):
        for c in op.participants:
            held.setdefault(c, []).append((s, s + op.duration, i))
    routing_ops = [
        i for i, (_, op) in enumerate(ops) if any(r in (1, 2) for r, _ in op.participants)
    ]
    merge_starts = sorted({s for s, op in ops if op.kind in _MERGE_KINDS})
    clean = {
        t: [
            i
            for i in routing_ops
            if all(
                e <= t or t + ops[i][1].duration <= s
                for c in ops[i][1].participants
                for s, e, j in held[c]
                if j != i
            )
        ]
        for t in merge_starts
    }
    return ops, routing_ops, merge_starts, clean


@given(disjoint_timelines())
@settings(max_examples=200, deadline=None)
def test_matches_reference_on_disjoint_timelines(case):
    grid, tl = case
    assert_matches_reference(tl, grid)


@given(adversarial_timelines())
@settings(max_examples=200, deadline=None)
def test_matches_reference_on_adversarial_timelines(case):
    grid, tl = case
    assert_matches_reference(tl, grid)


@given(sweep_timelines())
@settings(max_examples=300, deadline=None)
def test_matches_reference_on_sweep_timelines(case):
    grid, tl = case
    assert_matches_reference(tl, grid)


@given(st.integers(2, 6), st.sampled_from(["plain", "controlled"]), st.data())
@settings(max_examples=200, deadline=None)
def test_matches_reference_on_shifted_compiled_steps(n, mode, data):
    ops, routing_ops, merge_starts, clean = compiled_case(n, mode)
    t = data.draw(st.sampled_from(merge_starts))
    # half the time, an op that blocks routing at t without overlapping a patch
    pool = clean[t] if clean[t] and data.draw(st.booleans()) else routing_ops
    i = data.draw(st.sampled_from(pool))
    tl = Timeline([(t, op) if k == i else (s, op) for k, (s, op) in enumerate(ops)])
    grid = build_grid(n, with_qpe_ancilla=(mode == "controlled"))
    assert_matches_reference(tl, grid)


# Every clean move of a routing-holding op onto a merge start clock, n = 2..6,
# gives a "participants disconnected" conflict in exactly these four cases,
# all in controlled steps: (n, merge start clock, index of the moved op).
DISCONNECTING_MOVES = [(2, 17.0, 19), (2, 17.0, 23), (4, 21.0, 45), (6, 23.0, 103)]


@pytest.mark.parametrize("n, t, i", DISCONNECTING_MOVES)
def test_matches_reference_on_disconnecting_moves(n, t, i):
    ops, _, _, clean = compiled_case(n, "controlled")
    assert i in clean[t]
    tl = Timeline([(t, op) if k == i else (s, op) for k, (s, op) in enumerate(ops)])
    grid = build_grid(n, with_qpe_ancilla=True)
    conflict = validate(tl, grid)
    assert conflict == reference_validate(tl, grid)
    assert conflict.reason == "participants disconnected"


# Merges whose participants touch through their own patches (an fSWAP shape
# and an L of four cells), each with a cell whose removal splits them.
SELF_CONNECTED = [
    ("fswap", ((0, 2), (0, 3), (1, 2)), (0, 2)),
    ("multi_target_cz", ((3, 1), (2, 1), (1, 1), (1, 2)), (1, 1)),
]


def _blocked_merge(kind, parts, grid):
    """The merge at clock 2, with every other routing patch held over [1, 3)."""
    routing = [c for c, role in grid.cells.items() if role == "routing"]
    blocker = SurgeryOp("xxyy_block", tuple(c for c in routing if c not in parts), 2.0)
    return Timeline([(2.0, SurgeryOp(kind, parts, CATALOG[kind])), (1.0, blocker)])


@pytest.mark.parametrize("kind, parts, cut", SELF_CONNECTED)
def test_self_connected_merge_needs_no_free_routing(kind, parts, cut):
    grid = build_grid(3)
    tl = _blocked_merge(kind, parts, grid)
    assert validate(tl, grid) is None
    assert reference_validate(tl, grid) is None
    # without the cut cell the merge is split, and no free patch rejoins it
    split = _blocked_merge(kind, tuple(c for c in parts if c != cut), grid)
    conflict = validate(split, grid)
    assert conflict == reference_validate(split, grid)
    assert conflict.reason == "participants disconnected"


def test_compiled_steps_never_enter_the_ranked_pass():
    with mock.patch.object(fabric, "_ranked", wraps=fabric._ranked) as ranked:
        for n in range(2, 21):
            for mode in ("plain", "controlled"):
                compile_step(n, mode=mode)
    assert ranked.call_count == 0
