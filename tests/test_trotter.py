"""Trotter-step compilation: batch structure, clock accounting, timeline."""

import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest

from starsched import trotter
from starsched.cli import run
from starsched.estimator import build_report
from starsched.fabric import validate
from starsched.hubbard import HubbardSpec, sublayers
from starsched.trotter import (
    CONTROLLED_STEP_CLOCKS,
    compile_step,
    rough_t_rus,
    serial_clocks,
    step_batches,
    trotter_clocks,
)

from hamiltonian import anticommuting_controls, build_hamiltonian


@pytest.mark.parametrize("n", range(2, 8))
def test_fixed_clock_formula(n):
    sched = compile_step(n)
    assert sched.fixed_clocks == 14 * n + 55


@pytest.mark.parametrize("n", [2, 4, 6])
def test_rotation_group_multiset(n):
    v = n * n
    sched = compile_step(n)
    assert sched.rus_group_multiset() == Counter(
        {(v - n, "Z"): 7, (v - n, "ZZ"): 7, (v, "ZZ"): 2}
    )


def test_total_clocks_matches_timeline_horizon():
    # the batches' fixed clocks plus each rotation group's clocks add up to
    # the timeline's horizon, in both modes
    flat = lambda m, basis: 6.0
    for n in (2, 4, 5):
        for mode in ("plain", "controlled"):
            sched = compile_step(n, mode=mode, t_rus=flat)
            groups = sum(sched.rus_group_multiset().values())
            assert sched.fixed_clocks + 6.0 * groups == sched.timeline.horizon


def test_compiled_horizon_matches_closed_form():
    # at every paper size the compiled step's horizon equals trotter_clocks
    # up to half-clock rounding of each of the 16 rotation batches; a
    # controlled step adds exactly CONTROLLED_STEP_CLOCKS
    def quantized(m, basis):
        return round(rough_t_rus(m, basis) * 2) / 2

    for n in range(2, 11):
        closed = trotter_clocks(n, quantized)
        plain = compile_step(n).timeline.horizon
        controlled = compile_step(n, mode="controlled").timeline.horizon
        assert plain == pytest.approx(closed), n
        assert controlled - CONTROLLED_STEP_CLOCKS == pytest.approx(closed), n
        assert plain == pytest.approx(
            trotter_clocks(n, rough_t_rus), abs=16 * 0.25 + 1e-9
        ), n


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_timeline_has_no_conflicts(n):
    sched = compile_step(n)
    from starsched.fabric import build_grid

    grid = build_grid(n, with_qpe_ancilla=(sched.mode == "controlled"))
    assert validate(sched.timeline, grid) is None


def _inversions(seq) -> int:
    return sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("mode", ["plain", "controlled"])
def test_large_lattice_validates(n, mode):
    from starsched.fabric import build_grid

    sched = compile_step(n, mode=mode)
    grid = build_grid(n, with_qpe_ancilla=(mode == "controlled"))
    assert validate(sched.timeline, grid) is None
    # two ZZ layers and two move layers of V ops, 7 hopping batches of
    # 2 ops per edge (n(n-1)/2 edges each), 2 ops per adjacent swap on each
    # of the two routing passes, plus 2 multi-CNOT and 4 multi-CZ ops when
    # controlled; the swap count is the inversion count of B relative to A
    v = n * n
    pos_b = {s: p for p, s in enumerate(sched.pair.order_b)}
    swaps = _inversions([pos_b[s] for s in sched.pair.order_a])
    assert swaps == sum(map(len, sched.fswaps))
    expected = 4 * v + 7 * n * (n - 1) + 4 * swaps + (6 if mode == "controlled" else 0)
    assert len(sched.timeline.ops) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_controlled_mode_adds_fixed_layers(n):
    plain = compile_step(n)
    controlled = compile_step(n, mode="controlled")
    assert controlled.fixed_clocks - plain.fixed_clocks == CONTROLLED_STEP_CLOCKS == 18


def test_controlled_timeline_validates():
    from starsched.fabric import build_grid

    sched = compile_step(4, mode="controlled")
    assert validate(sched.timeline, build_grid(4, with_qpe_ancilla=True)) is None


def test_control_paulis_anticommute_with_every_term():
    # anticommuting_controls checks K0/K1 against the term set; the compiled
    # controlled step must apply exactly those controls
    from starsched.fabric import build_grid

    for n in range(2, 9):
        v = n * n
        k0, k1 = anticommuting_controls(n)
        assert len(k1) == v and {letter for _, letter in k1} == {"X"}
        sched = compile_step(n, mode="controlled")
        pos_a = {s: p for p, s in enumerate(sched.pair.order_a)}
        # data row 0 holds spin up (qubits 0..V-1), row 3 spin down (V..2V-1)
        k0_cols = {
            row: {pos_a[q - spin * v] for q, _ in k0 if q // v == spin}
            for spin, row in ((0, 0), (1, 3))
        }
        cnot_parts = {build_grid(n, with_qpe_ancilla=True).qpe_ancilla}
        cnot_parts |= {(row, c) for row in (1, 2) for c in range(v)}
        kinds = Counter()
        for _, op in sched.timeline.ops:
            kinds[op.kind] += 1
            if op.kind == "multi_target_cz":
                data = [(r, c) for r, c in op.participants if r in (0, 3)]
                (row,) = {r for r, _ in data}
                assert {c for _, c in data} == k0_cols[row]
            elif op.kind == "multi_target_cnot_reduced":
                assert set(op.participants) == cnot_parts
        assert kinds["multi_target_cz"] == 4
        assert kinds["multi_target_cnot_reduced"] == 2


# trotter_clocks(n, rough_t_rus) beyond the compile goldens (which stop at
# n = 10); compared by repr, so a change in the last bit fails
STEP_CLOCKS = {
    11: 469.4085292263927,
    12: 491.7435106632048,
    13: 513.389070577636,
    14: 534.4504981227997,
    15: 555.0107507930431,
    16: 575.13619846049,
    17: 594.8807865194264,
    18: 614.2890386697513,
    19: 633.3981628466424,
    20: 652.2395441492736,
    21: 670.8398611554435,
    22: 689.2219657049345,
    23: 707.4055891512274,
    24: 725.4079031486569,
    25: 743.2439569873691,
    26: 760.9270164878078,
    27: 778.4688301311212,
    28: 795.8798441276658,
    29: 813.1693817048964,
    30: 830.3457957656378,
}

COMPARE_SERIAL_CSV = (
    "n,serial_clocks,parallel_clocks,reduction_pct\n"
    "4,1856,271.865,85.35\n"
    "6,4632,340.470,92.65\n"
    "8,8640,396.658,95.41\n"
    "10,13880,446.248,96.78\n"
)


def test_step_clocks_and_default_comparison_are_pinned(capsys):
    assert {n: repr(trotter_clocks(n, rough_t_rus)) for n in STEP_CLOCKS} == {
        n: repr(clocks) for n, clocks in STEP_CLOCKS.items()
    }
    assert run(["compare-serial"]) == 0
    assert capsys.readouterr().out == COMPARE_SERIAL_CSV


def test_step_clocks_need_no_routing(monkeypatch, capsys):
    # compare-serial and estimate charge trotter_clocks at any n: it sums
    # the batch list and must neither build nor route the orderings
    def fail(*args):
        raise AssertionError("step clocks must not route")

    monkeypatch.setattr(trotter, "default_orderings", fail)
    monkeypatch.setattr(trotter, "route_orderings", fail)
    assert repr(trotter_clocks(12, rough_t_rus)) == repr(STEP_CLOCKS[12])
    assert run(["compare-serial", "--n", "4", "1000"]) == 0
    assert capsys.readouterr().out.count("\n") == 3
    build_report(4, calibrate_nmax=3397)


@pytest.mark.parametrize("n", [2, 3, 7])
@pytest.mark.parametrize("mode", ["plain", "controlled"])
def test_step_batches_are_the_compiled_palindrome(n, mode):
    batches = step_batches(n, mode)
    assert compile_step(n, mode).batches == batches
    assert [b.kind for b in batches] == [b.kind for b in reversed(batches)]
    hopping = [b.layer for b in batches if b.kind == "xxyy_batch"]
    assert hopping == ["A0", "A1", "B0", "B1", "B0", "A1", "A0"]
    route = [b.layer for b in batches if b.kind == "fswap_layer"]
    assert route == list(range(n - 1)) + list(reversed(range(n - 1)))


def batch_ops(sched):
    """Per batch of ``sched.batches``, its ops as (offset from the batch's
    start, kind, participants, duration) in timeline order, each op assigned
    by its start clock under the default RUS clock model."""
    quantized = {
        g: round(rough_t_rus(*g) * 2) / 2 for b in sched.batches for g in b.rus_groups
    }
    ends = list(
        accumulate(
            b.fixed_clocks + sum(quantized[g] for g in b.rus_groups)
            for b in sched.batches
        )
    )
    starts = [0.0] + ends[:-1]
    per_batch = [[] for _ in sched.batches]
    for start, op in sched.timeline.ops:
        i = bisect_right(ends, start)
        per_batch[i].append((start - starts[i], op.kind, op.participants, op.duration))
    return per_batch


@pytest.mark.parametrize("n", range(2, 15))
@pytest.mark.parametrize("mode", ["plain", "controlled"])
def test_mirrored_batches_emit_the_same_ops(n, mode):
    # past the goldens (n <= 10): compile_step re-adds a batch's ops when it
    # meets the batch again under the same ordering, and validates the step
    # itself (it raises on a conflict); the step is a palindrome, so each
    # batch and its mirror must carry the same op sequence
    sched = compile_step(n, mode)
    per_batch = batch_ops(sched)
    assert all(per_batch)
    assert sum(map(len, per_batch)) == len(sched.timeline.ops)
    for i, ops in enumerate(per_batch):
        assert ops == per_batch[-1 - i], (i, sched.batches[i])


@pytest.mark.parametrize("shape", ["step", "half twice"])
def test_batches_follow_the_ordering_in_force(monkeypatch, shape):
    # each ZZ, hopping and CZ op sits at the columns of its sites under the
    # ordering reached by the fSWAP layers before it, replayed here from the
    # route; "half twice" is no palindrome, so its second half runs under
    # other orderings than its first and a memo keyed without the ordering
    # would re-add ops from the wrong one
    n, mode = 5, "controlled"
    v = n * n
    if shape == "half twice":
        batches = step_batches(n, mode)
        half = batches[: len(batches) // 2]
        monkeypatch.setattr(trotter, "step_batches", lambda n, mode: half + half)
    sched = compile_step(n, mode)
    pair = sched.pair
    hopping = dict(zip(("A0", "A1"), sublayers(pair.edges_a, pair.order_a)))
    hopping.update(zip(("B0", "B1"), sublayers(pair.edges_b, pair.order_b)))
    order = list(pair.order_a)
    seen_orders = set()
    for batch, ops in zip(sched.batches, batch_ops(sched)):
        pos = {s: p for p, s in enumerate(order)}
        seen_orders.add(tuple(order))
        cols = [sorted({c for r, c in parts if r == 0}) for _, _, parts, _ in ops]
        if batch.kind == "zz_rotation_layer":
            assert cols == [[pos[s]] for s in range(v)]
        elif batch.kind == "xxyy_batch":
            edges = [sorted((pos[a], pos[b])) for a, b in hopping[batch.layer]]
            assert cols[::2] == edges
        elif batch.kind == "multi_cz_layer":
            odd = sorted(pos[s] for s in range(v) if (s // n + s % n) % 2 == 1)
            assert cols[0] == odd
        elif batch.kind == "fswap_layer":
            for p in sched.fswaps[batch.layer]:
                order[p], order[p + 1] = order[p + 1], order[p]
    assert len(seen_orders) == (n if shape == "step" else 2 * n - 1)


def test_serial_baseline_counts():
    assert serial_clocks(4) == 154 * 16 - 152 * 4
    assert serial_clocks(10) == 154 * 100 - 152 * 10


def test_parallel_beats_serial():
    for n in (4, 6, 8, 10):
        assert trotter_clocks(n, rough_t_rus) < serial_clocks(n)


def test_rough_group_clock_model():
    from starsched.rus import expected_trials

    # Z rotations: one measurement clock per trial plus overlap bookkeeping
    assert rough_t_rus(12, "ZZ") == pytest.approx(2 * expected_trials(12), rel=1e-12)


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        compile_step(4, mode="fancy")
