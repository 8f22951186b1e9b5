"""Patch grid, operation catalog, timeline conflict validation and export."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsched import trotter
from starsched.fabric import (
    CATALOG,
    SurgeryOp,
    Timeline,
    bit_grid,
    build_grid,
    flood,
    to_half,
    validate,
)
from starsched.trotter import compile_step


def test_catalog_costs():
    assert CATALOG == {
        "hadamard": 3,
        "hadamard_no_moveback": 2,
        "cnot": 3,
        "cnot_no_moveback": 2,
        "cz": 4,
        "s_gate": 1.5,
        "multi_target_cnot": 8,
        "multi_target_cnot_reduced": 5,
        "multi_target_cz": 2,
        "fswap": 7,
        "patch_move_layer": 3,
        "zz_rotation_trial": 2,
        "joint_pauli_measurement": 1,
    }


def test_half_clock_granularity():
    assert to_half(1.5) == 3
    assert to_half(4) == 8
    with pytest.raises(ValueError):
        to_half(1.25)


def test_grid_shape():
    grid = build_grid(4)
    assert len(grid.cells) == 4 * 16
    assert set(grid.cells) == {(r, c) for r in range(4) for c in range(16)}
    assert [grid.cells[(r, 0)] for r in range(4)] == ["data", "routing", "routing", "data"]
    qpe = build_grid(4, with_qpe_ancilla=True)
    assert len(qpe.cells) == 4 * 16 + 1
    assert qpe.qpe_ancilla is not None and qpe.cells[qpe.qpe_ancilla] == "data"


@st.composite
def ragged_cells(draw):
    """A set of cells drawn from a box at nonzero row and column offsets,
    sometimes with a lone cell in an extra column, as the QPE ancilla."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    r0 = draw(st.integers(-4, 4).filter(bool))
    c0 = draw(st.integers(-4, 4).filter(bool))
    box = [(r0 + r, c0 + c) for r in range(rows) for c in range(cols)]
    cells = {cell for cell in box if draw(st.booleans())}
    if draw(st.booleans()):
        cells.add((r0 + draw(st.integers(0, rows - 1)), c0 + cols))
    return cells or {box[0]}


def _neighbors(cell, cells):
    r, c = cell
    return {nb for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)) if nb in cells}


@given(ragged_cells())
@settings(max_examples=300, deadline=None)
def test_bit_grid_grows_to_the_neighbors(cells):
    bit, grow = bit_grid(cells)
    assert set(bit) == cells
    assert len(set(bit.values())) == len(cells)
    assert all(b > 0 and b.bit_count() == 1 for b in bit.values())
    full = sum(bit.values())
    for cell in cells:
        assert grow(bit[cell]) & full == sum(bit[nb] for nb in _neighbors(cell, cells))


@given(ragged_cells(), st.data())
@settings(max_examples=300, deadline=None)
def test_flood_matches_coordinate_bfs(cells, data):
    ordered = sorted(cells)
    reach = set(data.draw(st.sets(st.sampled_from(ordered), min_size=1)))
    allowed = set(data.draw(st.sets(st.sampled_from(ordered))))
    seen, stack = set(reach), list(reach)
    while stack:
        for nb in _neighbors(stack.pop(), allowed):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    bit, grow = bit_grid(cells)

    def mask(coords):
        return sum(bit[c] for c in coords)

    assert flood(grow, mask(reach), mask(allowed)) == mask(seen)


def _validate_one(start, op):
    """Validate a timeline holding only ``op`` at ``start`` on a 2 x 2 grid."""
    return validate(Timeline([(start, op)]), build_grid(2))


def test_op_duration_must_match_catalog():
    with pytest.raises(ValueError, match="does not match catalog value 3.0"):
        _validate_one(0.0, SurgeryOp("cnot", ((0, 0), (1, 0)), duration=2.5))


@pytest.mark.parametrize("kind", ["rus_block_zz", "xxyy_block", "cnot"])
def test_negative_duration_rejected(kind):
    with pytest.raises(ValueError, match="negative"):
        _validate_one(0.0, SurgeryOp(kind, ((0, 0), (1, 0)), duration=-1.5))


@pytest.mark.parametrize(
    "start, duration", [(0.25, 1.0), (0.0, 1.25)], ids=["start", "duration"]
)
def test_off_grid_clock_rejected(start, duration):
    op = SurgeryOp("xxyy_block", ((0, 0), (1, 0)), duration)
    with pytest.raises(ValueError, match="is not a multiple of 0.5"):
        _validate_one(start, op)


# Two timing errors, inserted against canonical (start, kind, participants)
# order: the op first in canonical order names the error.
OFF_GRID = SurgeryOp("xxyy_block", ((0, 0), (1, 0)), 1.0)
MISMATCHED = SurgeryOp("cnot", ((0, 1), (1, 1)), 2.5)
PRECEDENCE = [
    (
        [(0.25, OFF_GRID), (0.0, MISMATCHED)],
        "cnot duration 2.5 does not match catalog value 3.0",
    ),
    (
        [(1.0, MISMATCHED), (0.25, OFF_GRID)],
        "clock value 0.25 is not a multiple of 0.5",
    ),
    (
        [(1.0, SurgeryOp("cnot", ((0, 1), (1, 1)), 3.0)), (float("nan"), OFF_GRID)],
        "cannot convert float NaN to integer",
    ),
]


@pytest.mark.parametrize(
    "ops, message", PRECEDENCE, ids=["mismatch-first", "off-grid-first", "nan-start"]
)
def test_timing_error_precedence(ops, message):
    with pytest.raises(ValueError) as excinfo:
        validate(Timeline(ops), build_grid(2))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "odd", [SurgeryOp(None, ((0, 0),), 1.0), SurgeryOp("cnot", [(0, 0), (1, 0)], 3.0)]
)
def test_ops_the_ranked_order_cannot_sort_raise(odd):
    # otherwise valid, but ranking them compares a str kind with None or a
    # tuple of participants with a list
    ops = [(0.0, SurgeryOp("cnot", ((0, 1), (1, 1)), 3.0)), (0.0, odd)]
    with pytest.raises(TypeError, match="not supported between instances"):
        validate(Timeline(ops), build_grid(2))


def test_zero_duration_op_blocks_nothing():
    grid = build_grid(2)
    tl = Timeline()
    tl.add(0.0, SurgeryOp("xxyy_block", ((1, 0), (2, 0), (1, 1), (2, 1)), 0))
    tl.add(0.0, SurgeryOp("joint_pauli_measurement", ((0, 0), (3, 0)), 1))
    assert validate(tl, grid) is None


def test_overlap_detected():
    grid = build_grid(2)
    tl = Timeline()
    tl.add(0.0, SurgeryOp("cnot", ((0, 0), (1, 0)), 3))
    tl.add(1.0, SurgeryOp("cnot", ((0, 0), (1, 0)), 3))
    conflict = validate(tl, grid)
    assert conflict is not None
    assert conflict.coord in ((0, 0), (1, 0))
    assert conflict.reason


def test_back_to_back_ops_allowed():
    grid = build_grid(2)
    tl = Timeline()
    tl.add(0.0, SurgeryOp("cnot", ((0, 0), (1, 0)), 3))
    tl.add(3.0, SurgeryOp("cnot", ((0, 0), (1, 0)), 3))
    assert validate(tl, grid) is None


def test_merge_requires_connectivity():
    grid = build_grid(4)
    tl = Timeline()
    # joint measurement between the two data rows: routing rows are free,
    # so a connecting path exists
    tl.add(0.0, SurgeryOp("joint_pauli_measurement", ((0, 0), (3, 0)), 1))
    assert validate(tl, grid) is None
    # fill the routing column with a long op; the merge cannot route
    tl2 = Timeline()
    tl2.add(0.0, SurgeryOp("multi_target_cz", ((1, 0), (2, 0), (1, 1), (2, 1)), 2))
    tl2.add(0.0, SurgeryOp("joint_pauli_measurement", ((0, 0), (3, 0)), 1))
    conflict = validate(tl2, grid)
    assert conflict is not None


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_validation_is_order_independent(rnd):
    grid = build_grid(3)
    ops = [
        (0.0, SurgeryOp("cnot", ((0, 0), (1, 0)), 3)),
        (3.0, SurgeryOp("cz", ((0, 0), (1, 0)), 4)),
        (0.0, SurgeryOp("fswap", ((0, 1), (1, 1), (2, 1)), 7)),
        (1.0, SurgeryOp("s_gate", ((3, 2),), 1.5)),
        (7.0, SurgeryOp("cnot", ((0, 0), (1, 0)), 3)),
    ]
    baseline = Timeline()
    for start, op in ops:
        baseline.add(start, op)
    expected = validate(baseline, grid)
    shuffled = ops[:]
    rnd.shuffle(shuffled)
    tl = Timeline()
    for start, op in shuffled:
        tl.add(start, op)
    assert validate(tl, grid) == expected


def test_export_jsonl_round_trip():
    tl = Timeline()
    tl.add(0.0, SurgeryOp("cnot", ((0, 0), (1, 0)), 3))
    tl.add(3.0, SurgeryOp("cz", ((0, 0), (1, 0)), 4))
    lines = [json.loads(line) for line in tl.to_jsonl().splitlines()]
    assert lines[0]["kind"] == "cnot" and lines[0]["start"] == 0.0
    assert lines[1]["duration"] == 4
    assert tl.horizon == 7.0


def reference_jsonl(timeline):
    """The exporter that ``Timeline.to_jsonl`` replaced: one json.dumps per op."""
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
        for start, op in timeline.ops
    )


@pytest.mark.parametrize("mode", ["plain", "controlled"])
def test_jsonl_matches_reference_on_compiled_steps(mode):
    for n in range(2, 11):
        tl = compile_step(n, mode=mode).timeline
        assert tl.to_jsonl() == reference_jsonl(tl)


def _clock(halves, as_type):
    """A clock at 0.5 granularity as an int (whole clocks only), a float or an
    np.float64, all of which json.dumps writes."""
    if as_type is int:
        return halves // 2 if halves % 2 == 0 else halves / 2
    return as_type(halves / 2)


# equal values that json.dumps writes differently: a line cache keyed by
# value would merge them
LOOK_ALIKES = (3, 3.0, np.float64(3), 0.0, -0.0, np.float64(-0.0), 1, True)
CLOCKS = st.one_of(
    st.builds(_clock, st.integers(0, 400), st.sampled_from([int, float, np.float64])),
    st.sampled_from(LOOK_ALIKES),
)
COORD = st.one_of(st.integers(-(10**6), 10**6), st.booleans())
COORDS = st.tuples(COORD, COORD)


# coords that are equal but print differently: a text cache keyed by value
# would merge them
LOOK_ALIKE_COORDS = ((1, 0), (True, 0), (0, 1), (0, True))


@st.composite
def any_op(draw, coords=COORDS):
    kind = draw(st.one_of(st.text(), st.sampled_from(sorted(CATALOG))))
    duration = CATALOG[kind] if kind in CATALOG else draw(CLOCKS)
    parts = tuple(draw(st.lists(coords, max_size=5)))
    return draw(CLOCKS), SurgeryOp(kind, parts, duration)


@st.composite
def any_timeline(draw):
    """Ops from ``any_op``, then, as ``compile_step`` reuses them, some of
    those op objects again at other starts, some start objects again for
    other ops, and look-alike twins (an equal op of another duration type).
    As ``compile_step`` takes coords from its grid, the ops draw most coords
    from one shared pool of objects, look-alike coords among them."""
    pool = draw(st.lists(COORDS, min_size=1, max_size=6)) + list(LOOK_ALIKE_COORDS)
    coords = st.one_of(st.sampled_from(pool), COORDS)
    ops = draw(st.lists(any_op(coords), max_size=8))
    tl = Timeline()
    for start, op in ops:
        tl.add(start, op)
    if not ops:
        return tl
    index = st.integers(0, len(ops) - 1)
    for _ in range(draw(st.integers(0, 8))):
        op = ops[draw(index)][1]
        how = draw(st.sampled_from(["same op", "same start", "twin"]))
        if how == "same op":
            tl.add(draw(CLOCKS), op)
        elif how == "same start":
            tl.add(ops[draw(index)][0], op)
        else:
            tl.add(draw(CLOCKS), SurgeryOp(op.kind, op.participants, draw(CLOCKS)))
    return tl


@given(any_timeline())
@settings(max_examples=200, deadline=None)
def test_jsonl_matches_reference_on_any_ops(tl):
    assert tl.to_jsonl() == reference_jsonl(tl)


def test_jsonl_writes_bool_coords_as_json():
    # and look-alike coords apart, each coord object shared by several ops
    assert len({id(c) for c in LOOK_ALIKE_COORDS}) == len(LOOK_ALIKE_COORDS)
    shared = [LOOK_ALIKE_COORDS[i:] + LOOK_ALIKE_COORDS[:i] for i in range(4)]
    tl = Timeline([(0.0, SurgeryOp("x", ((True, 0), (1, False)), 1.0))])
    tl.ops += [(0.0, SurgeryOp("x", parts, 1.0)) for parts in shared]
    assert '"participants": [[true, 0], [1, false]]' in tl.to_jsonl()
    assert '"participants": [[1, 0], [true, 0], [0, 1], [0, true]]' in tl.to_jsonl()
    assert tl.to_jsonl() == reference_jsonl(tl)


def test_jsonl_writes_look_alike_numbers_as_given():
    # one op object at every look-alike start, each start object used twice
    # in a row, and equal ops whose durations print differently
    op = SurgeryOp("xxyy_block", ((0, 0), (1, 0)), 3)
    tl = Timeline()
    for start in LOOK_ALIKES:
        tl.add(start, op)
        tl.add(start, op)
    for duration in LOOK_ALIKES:
        tl.add(0.0, SurgeryOp("xxyy_block", ((0, 0), (1, 0)), duration))
    text = tl.to_jsonl()
    assert text == reference_jsonl(tl)
    starts = [line.split(",")[0] for line in text.splitlines()[: 2 * len(LOOK_ALIKES) : 2]]
    assert starts == [
        '{"start": 3', '{"start": 3.0', '{"start": 3.0', '{"start": 0.0',
        '{"start": -0.0', '{"start": -0.0', '{"start": 1', '{"start": true',
    ]


@pytest.mark.parametrize("mode", ["plain", "controlled"])
def test_compiled_ops_share_the_grid_coords(monkeypatch, mode):
    # compile_step takes every participant from the grid it validates on, so
    # each patch is one coord object, and its ops carry no __dict__
    grids = []

    def capture(*args, **kwargs):
        grids.append(build_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(trotter, "build_grid", capture)
    for n in range(2, 7):
        ops = compile_step(n, mode=mode).timeline.ops
        keys = {id(cell) for cell in grids[-1].cells}
        for _, op in ops:
            assert all(id(coord) in keys for coord in op.participants), op
            assert not hasattr(op, "__dict__")
