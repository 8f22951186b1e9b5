"""Hamiltonian construction, orderings, and swap routing."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsched.hubbard import (
    HubbardSpec,
    OrderingError,
    OrderingPair,
    _odd_even_route,
    build_hamiltonian,
    default_orderings,
    grid_edges,
    one_norm,
    route_orderings,
    sublayers,
    validate_ordering_pair,
)


def test_grid_edges_count():
    # open-boundary n x n grid has 2n(n-1) edges
    for n in range(2, 8):
        assert len(grid_edges(n)) == 2 * n * (n - 1)


def test_term_counts_and_kinds():
    spec = HubbardSpec(4)
    kinds = Counter(t.kind for t in build_hamiltonian(spec))
    # 2 spins x 24 edges hopping, each contributing an XX and a YY term
    assert kinds == {"hopping_xx": 48, "hopping_yy": 48, "onsite_zz": 16}


def test_one_norm_matches_term_sum():
    # independent oracle: sum of |coefficients| over all generated terms
    for n in (2, 3, 4, 5):
        spec = HubbardSpec(n)
        direct = sum(abs(t.coefficient) for t in build_hamiltonian(spec))
        assert math.isclose(one_norm(spec), direct, rel_tol=1e-12)


def test_one_norm_scales_with_couplings():
    assert one_norm(HubbardSpec(4, t=2.0, u=0.0)) == 2 * one_norm(
        HubbardSpec(4, t=1.0, u=0.0)
    )
    assert one_norm(HubbardSpec(4, t=0.0, u=8.0)) == 2 * one_norm(
        HubbardSpec(4, t=0.0, u=4.0)
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_generated_pairs_validate(n):
    pair = default_orderings(n)
    assert pair.n == n
    validate_ordering_pair(pair)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_default_orderings_rejects_small_lattices(n):
    with pytest.raises(ValueError, match="at least 2"):
        default_orderings(n)


@pytest.mark.parametrize("n", range(2, 11))
def test_shipped_pairs_cover_all_edges(n):
    pair = default_orderings(n)
    validate_ordering_pair(pair)
    assert set(pair.edges_a) | set(pair.edges_b) == {
        tuple(sorted(e)) for e in grid_edges(n)
    }
    assert not set(pair.edges_a) & set(pair.edges_b)


@pytest.mark.parametrize("n", range(2, 11))
def test_routing_depth(n):
    sched = route_orderings(default_orderings(n))
    assert sched.depth == n - 1


@pytest.mark.parametrize("n", range(2, 11))
def test_sublayers_balanced_and_disjoint(n):
    pair = default_orderings(n)
    for edges, order in ((pair.edges_a, pair.order_a), (pair.edges_b, pair.order_b)):
        halves = sublayers(edges, order)
        assert len(halves) == 2
        assert abs(len(halves[0]) - len(halves[1])) == 0
        for half in halves:
            seen: set[int] = set()
            for a, b in half:
                assert a not in seen and b not in seen
                seen.update((a, b))


def test_invalid_ordering_rejected():
    pair = default_orderings(4)
    broken = OrderingPair(
        pair.n, pair.order_a, pair.order_a, pair.edges_a, pair.edges_b
    )
    with pytest.raises(OrderingError):
        validate_ordering_pair(broken)


@given(st.integers(2, 40), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_routing_composes_for_random_permutations(size, rnd):
    start = list(range(size))
    goal = list(range(size))
    rnd.shuffle(start)
    rnd.shuffle(goal)
    layers = _odd_even_route(tuple(start), tuple(goal), 0)
    cur = list(start)
    for layer in layers:
        used: set[int] = set()
        for p in layer:
            assert p not in used and p + 1 not in used
            used.update((p, p + 1))
            cur[p], cur[p + 1] = cur[p + 1], cur[p]
    assert cur == goal


def test_routing_depth_bounded_by_size():
    rnd = random.Random(11)
    for _ in range(50):
        size = rnd.randrange(2, 30)
        perm = list(range(size))
        rnd.shuffle(perm)
        layers = _odd_even_route(tuple(range(size)), tuple(perm), 0)
        assert len(layers) <= size + 1
