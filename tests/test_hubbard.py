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
    _odd_even_route,
    default_orderings,
    grid_edges,
    one_norm,
    route_orderings,
    sublayers,
)
from starsched import hubbard

from hamiltonian import build_hamiltonian


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


def _apply(order, layers):
    cur = list(order)
    for layer in layers:
        used: set[int] = set()
        for p in layer:
            assert p not in used and p + 1 not in used
            used.update((p, p + 1))
            cur[p], cur[p + 1] = cur[p + 1], cur[p]
    return tuple(cur)


@pytest.mark.parametrize("n", range(2, 17))
def test_generated_pairs_validate(n):
    # every property the construction guarantees, checked from scratch
    pair = default_orderings(n)
    assert pair.n == n
    v = n * n
    assert sorted(pair.order_a) == sorted(pair.order_b) == list(range(v))
    grid = set(grid_edges(n))
    ea, eb = set(pair.edges_a), set(pair.edges_b)
    assert not ea & eb
    assert ea | eb == grid
    for edges, order in ((ea, pair.order_a), (eb, pair.order_b)):
        pos = {s: p for p, s in enumerate(order)}
        assert all(abs(pos[a] - pos[b]) == 1 for a, b in edges)
        half0, half1 = sublayers(edges, order)
        assert len(half0) == len(half1)
        assert set(half0) | set(half1) == edges
        for half in (half0, half1):
            sites = [s for e in half for s in e]
            assert len(sites) == len(set(sites))
    layers = route_orderings(pair)
    assert len(layers) == n - 1
    assert _apply(pair.order_a, layers) == pair.order_b


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_default_orderings_rejects_small_lattices(n):
    with pytest.raises(ValueError, match="at least 2"):
        default_orderings(n)


@pytest.mark.parametrize("n", range(2, 11))
def test_shipped_pairs_cover_all_edges(n):
    pair = default_orderings(n)
    assert set(pair.edges_a) | set(pair.edges_b) == {
        tuple(sorted(e)) for e in grid_edges(n)
    }
    assert not set(pair.edges_a) & set(pair.edges_b)


@pytest.mark.parametrize("n", range(2, 11))
def test_routing_depth(n):
    assert len(route_orderings(default_orderings(n))) == n - 1


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


def test_uncovered_edges_rejected(monkeypatch):
    # row-major for both phases leaves every vertical edge non-local
    monkeypatch.setattr(
        hubbard, "_band_order", lambda n, phase: tuple(range(n * n))
    )
    with pytest.raises(OrderingError, match=r"local to neither ordering: \[\(0, 3\)"):
        default_orderings(3)


def test_unbalanced_sublayers_rejected():
    # edges at line positions 0 and 2 both fall in the even half
    with pytest.raises(OrderingError, match="unbalanced: 2 vs 0"):
        sublayers([(0, 1), (2, 3)], (0, 1, 2, 3))


@given(st.integers(2, 40), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_routing_composes_for_random_permutations(size, rnd):
    start = list(range(size))
    goal = list(range(size))
    rnd.shuffle(start)
    rnd.shuffle(goal)
    layers = _odd_even_route(tuple(start), tuple(goal), 0)
    assert _apply(start, layers) == tuple(goal)


def test_routing_depth_bounded_by_size():
    rnd = random.Random(11)
    for _ in range(50):
        size = rnd.randrange(2, 30)
        perm = list(range(size))
        rnd.shuffle(perm)
        layers = _odd_even_route(tuple(range(size)), tuple(perm), 0)
        assert len(layers) <= size + 1
