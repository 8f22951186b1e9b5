"""Compile one second-order Trotter step into a clock-stamped schedule.

A step runs, in order: onsite ZZ rotations, a patch-move layer separating the
spin rows, the hopping terms local under ordering A (two vertex-disjoint
sub-layers), fermionic-swap layers routing to ordering B, the hopping terms
local under B, and then the mirror image.  The two middle hopping batches are
merged into one with doubled angle, so the step contains 7 hopping batches,
2 onsite batches, 2 move layers and 2(n-1) fSWAP layers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

from . import fabric
from .fabric import SurgeryOp, Timeline, build_grid
from .hubbard import (
    HubbardSpec,
    OrderingPair,
    build_hamiltonian,
    default_orderings,
    route_orderings,
    sublayers,
)
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


@dataclass
class TrotterSchedule:
    n: int
    mode: str
    batches: list[Batch]
    timeline: Timeline
    pair: OrderingPair
    fswaps: tuple[tuple[int, ...], ...]  # swap layers taking ordering A to B

    @property
    def fixed_clocks(self) -> float:
        return sum(b.fixed_clocks for b in self.batches)

    def rus_group_multiset(self) -> Counter:
        out: Counter = Counter()
        for b in self.batches:
            out.update(b.rus_groups)
        return out


def rough_t_rus(m: int, basis: str) -> float:
    """Rough per-batch RUS clock model: one injection clock and one
    measurement clock per expected trial of the slowest process."""
    return 2 * expected_trials(m)


def trotter_clocks(n: int, t_rus) -> float:
    """Clocks of one plain step given a per-batch RUS clock model t_rus(M, basis)."""
    v = n * n
    return (
        7 * t_rus(v - n, "Z")
        + 7 * t_rus(v - n, "ZZ")
        + 2 * t_rus(v, "ZZ")
        + 14 * n
        + 55
    )


def controlled_circuit_clocks(steps: int, t_step: float) -> float:
    """Clocks of a controlled evolution of ``steps`` plain steps of t_step clocks."""
    return steps * (t_step + CONTROLLED_STEP_CLOCKS) + CONTROLLED_BOUNDARY_CLOCKS


def anticommuting_controls(n: int):
    """Pauli operators anticommuting with the hopping / onsite sub-Hamiltonians.

    K0 applies Z to both spin-orbitals of every odd-parity site (row + col
    odd); K1 applies X to the spin-down orbital of every site.  Both are
    verified symbolically against the term set: an operator pair
    anticommutes iff it disagrees (with non-identity letters) on an odd
    number of qubits.
    """
    v = n * n
    k0 = tuple(
        (spin * v + r * n + c, "Z")
        for spin in (0, 1)
        for r in range(n)
        for c in range(n)
        if (r + c) % 2 == 1
    )
    k1 = tuple((v + s, "X") for s in range(v))
    for term in build_hamiltonian(HubbardSpec(n)):
        control = k0 if term.kind.startswith("hopping") else k1
        if not _anticommutes(control, term.support):
            raise AssertionError(
                f"control does not anticommute with {term.kind} term {term.support}"
            )
    return k0, k1


def _anticommutes(a, b) -> bool:
    letters_a = dict(a)
    odd = 0
    for q, letter in b:
        other = letters_a.get(q)
        if other is not None and other != letter:
            odd += 1
    return odd % 2 == 1


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
    if mode not in ("plain", "controlled"):
        raise ValueError(f"mode must be plain or controlled, got {mode!r}")
    pair = default_orderings(n)
    fswaps = route_orderings(pair)
    v = n * n
    model = t_rus or rough_t_rus
    rus_clocks = {
        (v, "ZZ"): round(model(v, "ZZ") * 2) / 2,
        (v - n, "ZZ"): round(model(v - n, "ZZ") * 2) / 2,
        (v - n, "Z"): round(model(v - n, "Z") * 2) / 2,
    }

    sub_a = sublayers(pair.edges_a, pair.order_a)
    sub_b = sublayers(pair.edges_b, pair.order_b)

    batches: list[Batch] = []
    controlled = mode == "controlled"
    grid = build_grid(n, with_qpe_ancilla=controlled)
    timeline = Timeline()
    clock = [0.0]  # running start time, mutated by emitters
    order = list(pair.order_a)

    def pos_of() -> dict[int, int]:
        return {s: p for p, s in enumerate(order)}

    def advance(duration: float) -> float:
        start = clock[0]
        clock[0] = start + duration
        return start

    def emit_zz_layer() -> None:
        dur = rus_clocks[(v, "ZZ")]
        start = advance(dur)
        pos = pos_of()
        for s in range(v):
            c = pos[s]
            timeline.add(
                start,
                SurgeryOp("rus_block_zz", ((0, c), (1, c), (2, c), (3, c)), dur),
            )
        batches.append(Batch("zz_rotation_layer", ((v, "ZZ"),), 0.0))

    def emit_move_layer() -> None:
        start = advance(MOVE_CLOCKS)
        for c in range(v):
            timeline.add(
                start,
                SurgeryOp("patch_move_layer", ((1, c), (2, c), (3, c)), MOVE_CLOCKS),
            )
        batches.append(Batch("move_layer", (), MOVE_CLOCKS))

    def emit_xxyy(edges) -> None:
        dur = (
            XXYY_FIXED_CLOCKS
            + rus_clocks[(v - n, "ZZ")]
            + rus_clocks[(v - n, "Z")]
        )
        start = advance(dur)
        pos = pos_of()
        for a, b in edges:
            p1, p2 = sorted((pos[a], pos[b]))
            timeline.add(
                start,
                SurgeryOp("xxyy_block", ((0, p1), (0, p2), (1, p1), (1, p2)), dur),
            )
            timeline.add(
                start,
                SurgeryOp("xxyy_block", ((3, p1), (3, p2), (2, p1), (2, p2)), dur),
            )
        batches.append(
            Batch("xxyy_batch", ((v - n, "ZZ"), (v - n, "Z")), XXYY_FIXED_CLOCKS)
        )

    def emit_fswap_layer(layer: tuple[int, ...]) -> None:
        start = advance(FSWAP_CLOCKS)
        for p in layer:
            timeline.add(
                start, SurgeryOp("fswap", ((0, p), (0, p + 1), (1, p)), FSWAP_CLOCKS)
            )
            timeline.add(
                start, SurgeryOp("fswap", ((3, p), (3, p + 1), (2, p)), FSWAP_CLOCKS)
            )
        for p in layer:
            order[p], order[p + 1] = order[p + 1], order[p]
        batches.append(Batch("fswap_layer", (), FSWAP_CLOCKS))

    def emit_multi_cnot() -> None:
        # flips spin-down orbitals (row 1 arrangement) controlled on the ancilla
        start = advance(MULTI_CNOT_CLOCKS)
        parts = (grid.qpe_ancilla,) + tuple((1, c) for c in range(v)) + tuple(
            (2, c) for c in range(v)
        )
        timeline.add(
            start, SurgeryOp("multi_target_cnot_reduced", parts, MULTI_CNOT_CLOCKS)
        )
        batches.append(Batch("multi_cnot_layer", (), MULTI_CNOT_CLOCKS))

    def emit_multi_cz() -> None:
        # phases odd-parity sites on both spin rows, one row at a time
        pos = pos_of()
        odd_cols = tuple(
            pos[r * n + c] for r in range(n) for c in range(n) if (r + c) % 2 == 1
        )
        dur = fabric.CATALOG["multi_target_cz"]
        for row, routing in ((0, 1), (3, 2)):
            start = advance(dur)
            parts = (
                (grid.qpe_ancilla,)
                + tuple((row, c) for c in sorted(odd_cols))
                + tuple((routing, c) for c in range(v))
            )
            timeline.add(start, SurgeryOp("multi_target_cz", parts, dur))
        batches.append(Batch("multi_cz_layer", (), MULTI_CZ_LAYER_CLOCKS))

    # The step is a palindrome about B1: the two middle B1 batches of the
    # mirrored halves are merged into one at doubled angle.
    half = [emit_multi_cnot] if controlled else []
    half += [emit_zz_layer, emit_move_layer]
    if controlled:
        half.append(emit_multi_cz)
    half += [partial(emit_xxyy, sub_a[0]), partial(emit_xxyy, sub_a[1])]
    half += [partial(emit_fswap_layer, layer) for layer in fswaps]
    half.append(partial(emit_xxyy, sub_b[0]))
    for emit in half + [partial(emit_xxyy, sub_b[1])] + half[::-1]:
        emit()

    assert tuple(order) == pair.order_a, "step must restore the initial ordering"

    schedule = TrotterSchedule(n, mode, batches, timeline, pair, fswaps)
    conflict = fabric.validate(timeline, grid)
    if conflict is not None:
        raise AssertionError(f"compiled timeline failed validation: {conflict}")
    return schedule
