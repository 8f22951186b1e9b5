"""Decode a compiled Trotter step back into the Hubbard Hamiltonian.

The decoder shares no code with the emitters: it reads only the ordering
pair's ``order_a``, the timeline and the term list of ``hamiltonian.py``.
It keeps one Jordan-Wigner line per spin (data row 0 is spin up, row 3 spin
down), both starting in ordering A, and walks the ops in start order:

- an ``fswap`` swaps the two adjacent line positions it holds on its row;
- an ``xxyy_block`` on two adjacent columns of one row is the XX and YY
  hopping terms of the sites at those positions, whose Jordan-Wigner string
  cancels because the positions are adjacent;
- a ``rus_block_zz`` on one whole column is the onsite term of the site at
  that position on both lines;
- a ``multi_target_cz`` on some columns of one data row, controlled by the
  phase-estimation ancilla, is Z on the orbitals of the sites at those
  positions of that row's spin;
- a ``multi_target_cnot_reduced``, controlled by the ancilla, is X on the
  spin-down orbitals of the sites at the row-1 positions it holds: it runs
  before the first patch-move layer and after the last, while the spin-down
  patches sit in row 1, with routing row 2 as its path.

The controlled step's control layers must decode to the Pauli operators of
``anticommuting_controls``, derived from the Hamiltonian's terms.  Patch
moves carry no term.  The timeline carries no angles, so the doubled angle
of the merged middle B1 batch stays a fact of ``trotter.step_batches``; here
the merge shows only as the middle batch's terms appearing once.
"""

from collections import Counter, defaultdict

import pytest

from starsched.hubbard import HubbardSpec
from starsched.trotter import compile_step

from hamiltonian import anticommuting_controls, build_hamiltonian

SPIN_ROW = {0: 0, 3: 1}  # data row -> spin


def _data_cells(op):
    """The op's data-row participants, as {row: sorted columns}."""
    cells = defaultdict(list)
    for r, c in op.participants:
        if r in SPIN_ROW:
            cells[r].append(c)
    return {r: sorted(cs) for r, cs in cells.items()}


def _control(op, v, lines):
    """The Pauli operator of a multi-target op, as a frozenset of (qubit,
    letter), checking that one participant off the data columns (the
    ancilla) controls it."""
    assert sum(c >= v for _, c in op.participants) == 1, op
    data = _data_cells(op)
    if op.kind == "multi_target_cz":
        ((row, cols),) = data.items()
        spin = SPIN_ROW[row]
        return frozenset((spin * v + lines[spin][c], "Z") for c in cols)
    assert not data, op
    rows = defaultdict(set)
    for r, c in op.participants:
        if c < v:
            rows[r].add(c)
    assert rows == {1: set(range(v)), 2: set(range(v))}, op
    return frozenset((v + lines[1][c], "X") for c in rows[1])


def decode(n, order_a, ops):
    """The term groups of the step in start order, the control operators in
    start order, and the final lines.

    Each group is the frozenset of Hamiltonian terms of the ops sharing one
    start; starts with no term op give no group.  Raises AssertionError on an
    op the Hamiltonian cannot explain.
    """
    v = n * n
    terms = {t.support: t for t in build_hamiltonian(HubbardSpec(n))}

    def term(*support):
        assert support in terms, f"{support} is no term of the Hamiltonian"
        return terms[support]

    lines = {spin: list(order_a) for spin in (0, 1)}
    by_start = defaultdict(list)
    for start, op in ops:
        by_start[start].append(op)
    groups = []
    controls = []
    for start in sorted(by_start):
        found = []
        swaps = []
        for op in by_start[start]:
            data = _data_cells(op)
            if op.kind == "rus_block_zz":
                assert sorted(op.participants) == [(r, data[0][0]) for r in range(4)], op
                c = data[0][0]
                site = lines[0][c]
                assert lines[1][c] == site, f"spin lines differ at column {c}"
                found.append(term((site, "Z"), (v + site, "Z")))
            elif op.kind in ("xxyy_block", "fswap"):
                ((row, (p1, p2)),) = data.items()
                assert p2 == p1 + 1, f"{op.kind} on columns {p1}, {p2} of row {row}"
                spin = SPIN_ROW[row]
                if op.kind == "fswap":
                    swaps.append((spin, p1))
                    continue
                a, b = sorted((lines[spin][p1], lines[spin][p2]))
                qa, qb = spin * v + a, spin * v + b
                found += [term((qa, x), (qb, x)) for x in "XY"]
            elif op.kind.startswith("multi_target"):
                controls.append((op.kind, _control(op, v, lines)))
        assert not (found and swaps), f"terms and fSWAPs share start {start}"
        for spin, p in swaps:
            line = lines[spin]
            line[p], line[p + 1] = line[p + 1], line[p]
        if found:
            groups.append(frozenset(found))
    return groups, controls, lines


def _twin(op):
    """The op mirrored onto the other spin's rows: row r becomes row 3 - r."""
    return op.kind, op.duration, frozenset((3 - r, c) for r, c in op.participants)


@pytest.mark.parametrize("mode", ["plain", "controlled"])
@pytest.mark.parametrize("n", range(2, 21))
def test_compiled_step_decodes_to_the_hamiltonian(n, mode):
    sched = compile_step(n, mode)
    order_a = sched.pair.order_a
    ops = sched.timeline.ops

    # each spin-up hopping or fSWAP op has its spin-down twin at its start
    per_start = defaultdict(Counter)
    for start, op in ops:
        if op.kind in ("xxyy_block", "fswap"):
            per_start[start][op.kind, op.duration, frozenset(op.participants)] += 1
    for start, op in ops:
        if op.kind in ("xxyy_block", "fswap") and 0 in _data_cells(op):
            assert per_start[start][_twin(op)], (start, op)

    groups, controls, lines = decode(n, order_a, ops)
    # the symmetric second-order product: a palindrome about the merged B1
    assert len(groups) % 2 == 1 and groups == groups[::-1]
    middle = groups[len(groups) // 2]
    counts = Counter(t for g in groups for t in g)
    hamiltonian = build_hamiltonian(HubbardSpec(n))
    assert set(counts) == set(hamiltonian)
    for term in hamiltonian:
        if term.kind == "onsite_zz":
            assert counts[term] == 2, term
        else:
            assert counts[term] == (1 if term in middle else 2), term
    assert all(t.kind != "onsite_zz" for t in middle)
    assert lines[0] == lines[1] == list(order_a)

    # a controlled step: a CNOT layer at each end, and a CZ layer (one op per
    # spin row) on the hopping side of each move layer
    if mode == "plain":
        assert controls == []
        return
    k0, k1 = map(frozenset, anticommuting_controls(n))
    kinds = [kind for kind, _ in controls]
    cz = ["multi_target_cz"] * 2
    assert kinds == ["multi_target_cnot_reduced", *cz, *cz, "multi_target_cnot_reduced"]
    assert controls[0][1] == controls[-1][1] == k1
    for first, second in (controls[1:3], controls[3:5]):
        assert first[1] | second[1] == k0 and not first[1] & second[1]
