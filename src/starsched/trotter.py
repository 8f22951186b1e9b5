"""Compile one second-order Trotter step into a clock-stamped schedule.

``step_batches`` is the step's structure: its batches in execution order,
each with its RUS groups, fixed clocks and the hopping sub-layer or fSWAP
route layer it uses.  A step runs, in order: onsite ZZ rotations, a
patch-move layer separating the spin rows, the hopping terms local under
ordering A (two vertex-disjoint sub-layers A0 and A1), fermionic-swap layers
routing to ordering B, the hopping terms local under B (B0 and B1), and then
the mirror image.  The two middle B1 batches are merged into one with
doubled angle, so the step contains 7 hopping batches, 2 onsite batches,
2 move layers and 2(n-1) fSWAP layers.  A controlled step adds a
multi-target CNOT layer at each end and a multi-target CZ layer on the
hopping side of each move layer.  ``compile_step`` walks the list to build a
patch timeline, emitting a batch's ops once per ordering it meets the batch
under; ``trotter_clocks`` sums it without routing.  Every participant is the
grid's own cell tuple, so each patch is one object shared by all ops and by
``validate``'s bit map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import fabric
from .fabric import SurgeryOp, Timeline, build_grid
from .hubbard import OrderingPair, default_orderings, route_orderings, sublayers
from .rus import expected_trials


XXYY_FIXED_CLOCKS = 9.0  # CNOT/Hadamard frame around the two rotation phases
MOVE_CLOCKS = fabric.CATALOG["patch_move_layer"]
FSWAP_CLOCKS = fabric.CATALOG["fswap"]
MULTI_CNOT_CLOCKS = fabric.CATALOG["multi_target_cnot_reduced"]
MULTI_CZ_LAYER_CLOCKS = 2 * fabric.CATALOG["multi_target_cz"]  # both spin rows
# a controlled step adds two multi-target CNOT and two multi-target CZ layers
CONTROLLED_STEP_CLOCKS = 2 * MULTI_CNOT_CLOCKS + 2 * MULTI_CZ_LAYER_CLOCKS
# once per circuit: two CNOT layers and two ancilla move layers at the ends
# of the controlled evolution
CONTROLLED_BOUNDARY_CLOCKS = 2 * MULTI_CNOT_CLOCKS + 2 * MOVE_CLOCKS


@dataclass(frozen=True)
class Batch:
    kind: str  # zz_rotation_layer | move_layer | xxyy_batch | fswap_layer |
    #            multi_cnot_layer | multi_cz_layer
    rus_groups: tuple[tuple[int, str], ...]  # (count M, basis)
    fixed_clocks: float
    layer: str | int | None = None  # hopping sub-layer A0..B1 or fSWAP route layer


@dataclass
class TrotterSchedule:
    mode: str
    batches: list[Batch]
    timeline: Timeline
    pair: OrderingPair
    fswaps: tuple[tuple[int, ...], ...]  # swap layers taking ordering A to B

    @property
    def fixed_clocks(self) -> float:
        return sum(b.fixed_clocks for b in self.batches)

    def rus_group_multiset(self) -> Counter:
        return Counter(g for b in self.batches for g in b.rus_groups)


def step_batches(n: int, mode: str = "plain") -> list[Batch]:
    """The batches of one step in execution order, without routing.

    The step is a palindrome about B1: the two middle B1 batches of the
    mirrored halves are merged into one at doubled angle.  fSWAP batch i uses
    layer i of the route from A to B, whose depth is n - 1 for the default
    orderings, so the way back applies the layers in reverse.
    """
    if mode not in ("plain", "controlled"):
        raise ValueError(f"mode must be plain or controlled, got {mode!r}")
    v = n * n
    groups = ((v - n, "ZZ"), (v - n, "Z"))
    a0, a1, b0, b1 = (
        Batch("xxyy_batch", groups, XXYY_FIXED_CLOCKS, layer)
        for layer in ("A0", "A1", "B0", "B1")
    )
    half = [Batch("zz_rotation_layer", ((v, "ZZ"),), 0.0)]
    half.append(Batch("move_layer", (), MOVE_CLOCKS))
    if mode == "controlled":
        half.insert(0, Batch("multi_cnot_layer", (), MULTI_CNOT_CLOCKS))
        half.append(Batch("multi_cz_layer", (), MULTI_CZ_LAYER_CLOCKS))
    half += [a0, a1]
    half += [Batch("fswap_layer", (), FSWAP_CLOCKS, i) for i in range(n - 1)]
    half.append(b0)
    return half + [b1] + half[::-1]


def rough_t_rus(m: int, basis: str) -> float:
    """Rough per-batch RUS clock model: one injection clock and one
    measurement clock per expected trial of the slowest process."""
    return 2 * expected_trials(m)


def trotter_clocks(n: int, t_rus) -> float:
    """Clocks of one plain step given a per-batch RUS clock model t_rus(M, basis).

    The RUS clocks are summed per group in sorted (M, basis) order, then the
    fixed clocks are added.
    """
    batches = step_batches(n)
    groups = sorted(Counter(g for b in batches for g in b.rus_groups).items())
    rus = sum(count * t_rus(m, basis) for (m, basis), count in groups)
    return rus + sum(b.fixed_clocks for b in batches)


def controlled_circuit_clocks(steps: int, t_step: float) -> float:
    """Clocks of a controlled evolution of ``steps`` plain steps of t_step clocks."""
    return steps * (t_step + CONTROLLED_STEP_CLOCKS) + CONTROLLED_BOUNDARY_CLOCKS


def serial_clocks(n: int) -> float:
    """Clock count of one step under the serial one-rotation-at-a-time layout."""
    if n < 2:
        raise ValueError(f"lattice size must be at least 2, got {n}")
    v, m = n * n, n
    return 154 * v - 152 * m


def compile_step(n: int, mode: str = "plain", t_rus=None) -> TrotterSchedule:
    """Compile one Trotter step to batches plus a validated patch timeline.

    ``t_rus(M, basis)`` supplies the clock count charged to each RUS batch
    (rough analytic model by default; quantized to half clocks).  The
    quantized values are the durations of the RUS ops, so the step's clock
    count is ``timeline.horizon``.
    """
    batches = step_batches(n, mode)
    pair = default_orderings(n)
    fswaps = route_orderings(pair)
    assert len(fswaps) == n - 1, "step_batches assumes a route of depth n - 1"
    v = n * n
    model = t_rus or rough_t_rus
    groups = dict.fromkeys(g for b in batches for g in b.rus_groups)
    rus_clocks = {g: round(model(*g) * 2) / 2 for g in groups}
    hopping = dict(zip(("A0", "A1"), sublayers(pair.edges_a, pair.order_a)))
    hopping.update(zip(("B0", "B1"), sublayers(pair.edges_b, pair.order_b)))
    grid = build_grid(n, with_qpe_ancilla=mode == "controlled")
    # each participant is the grid's own coord object: rk[c] is (k, c), as
    # build_grid adds the cells row by row
    cells = list(grid.cells)
    r0, r1, r2, r3 = (cells[r * v : (r + 1) * v] for r in range(4))
    order = list(pair.order_a)
    pos = {s: p for p, s in enumerate(order)}
    swap_ops: dict[tuple[int, float], tuple[SurgeryOp, SurgeryOp]] = {}

    def emit(batch: Batch, dur: float) -> tuple[tuple[float, list[SurgeryOp]], ...]:
        """The batch's ops under the current ordering, as (offset from the
        batch's start, ops at that offset) groups."""
        kind = batch.kind
        ops = []
        if kind == "zz_rotation_layer":
            for s in range(v):
                c = pos[s]
                ops.append(SurgeryOp("rus_block_zz", (r0[c], r1[c], r2[c], r3[c]), dur))
        elif kind == "move_layer":
            for c in range(v):
                ops.append(SurgeryOp("patch_move_layer", (r1[c], r2[c], r3[c]), dur))
        elif kind == "xxyy_batch":
            for a, b in hopping[batch.layer]:
                p1, p2 = sorted((pos[a], pos[b]))
                ops.append(SurgeryOp("xxyy_block", (r0[p1], r0[p2], r1[p1], r1[p2]), dur))
                ops.append(SurgeryOp("xxyy_block", (r3[p1], r3[p2], r2[p1], r2[p2]), dur))
        elif kind == "fswap_layer":
            # route layers swap at overlapping positions: share those ops too
            for p in fswaps[batch.layer]:
                if (p, dur) not in swap_ops:
                    swap_ops[p, dur] = (
                        SurgeryOp("fswap", (r0[p], r0[p + 1], r1[p]), dur),
                        SurgeryOp("fswap", (r3[p], r3[p + 1], r2[p]), dur),
                    )
                ops += swap_ops[p, dur]
        elif kind == "multi_cnot_layer":
            # flips spin-down orbitals (row 1 arrangement) controlled on the ancilla
            parts = (grid.qpe_ancilla, *r1, *r2)
            ops.append(SurgeryOp("multi_target_cnot_reduced", parts, dur))
        else:  # multi_cz_layer: phases odd-parity sites, one spin row at a time
            odd = sorted(pos[s] for s in range(v) if (s // n + s % n) % 2 == 1)
            cz = fabric.CATALOG["multi_target_cz"]
            for row, routing in ((r0, r1), (r3, r2)):
                parts = (grid.qpe_ancilla, *(row[c] for c in odd), *routing)
                ops.append(SurgeryOp("multi_target_cz", parts, cz))
            return ((0.0, ops[:1]), (cz, ops[1:]))
        return ((0.0, ops),)

    # A batch's ops depend only on the batch and the ordering, so a batch met
    # again under the same ordering (every mirrored batch of the palindrome
    # but the fSWAP layers) re-adds the ops it emitted the first time.
    memo: dict[tuple[Batch, tuple[int, ...]], tuple] = {}
    timeline = Timeline()
    start = 0.0
    for batch in batches:
        dur = batch.fixed_clocks + sum(rus_clocks[g] for g in batch.rus_groups)
        key = (batch, tuple(order))
        if key not in memo:
            memo[key] = emit(batch, dur)
        for offset, ops in memo[key]:
            at = start + offset
            timeline.ops += [(at, op) for op in ops]
        if batch.kind == "fswap_layer":
            for p in fswaps[batch.layer]:
                a, b = order[p], order[p + 1]
                order[p], order[p + 1] = b, a
                pos[a], pos[b] = p + 1, p
        start += dur

    schedule = TrotterSchedule(mode, batches, timeline, pair, fswaps)
    conflict = fabric.validate(timeline, grid)
    if conflict is not None:
        raise AssertionError(f"compiled timeline failed validation: {conflict}")
    return schedule
