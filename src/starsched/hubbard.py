"""2D Hubbard model size, one-norm and Jordan-Wigner orderings on an open lattice.

Sites of the n x n lattice are indexed row-major: site = row * n + col.
Spin-orbitals are indexed spin * n**2 + site with spin 0 = up, 1 = down.
A Jordan-Wigner ordering maps line positions (0..V-1) to sites; both spin
sectors share the same site ordering on separate lines.
"""

from __future__ import annotations

from dataclasses import dataclass


class OrderingError(ValueError):
    """Raised when an ordering pair violates a structural requirement."""


@dataclass(frozen=True)
class HubbardSpec:
    """Problem instance: n x n lattice with hopping t and onsite repulsion u."""

    n: int
    t: float = 1.0
    u: float = 4.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"lattice size must be at least 2, got {self.n}")


def grid_edges(n: int) -> list[tuple[int, int]]:
    """All nearest-neighbour edges of the n x n grid, as sorted site pairs."""
    edges = []
    for r in range(n):
        for c in range(n):
            s = r * n + c
            if c + 1 < n:
                edges.append((s, s + 1))
            if r + 1 < n:
                edges.append((s, s + n))
    return edges


def one_norm(spec: HubbardSpec) -> float:
    """Sum of absolute coefficients: 4n(n-1)t + n^2 u / 4."""
    n = spec.n
    return 4 * n * (n - 1) * spec.t + n * n * spec.u / 4


# ---------------------------------------------------------------------------
# Jordan-Wigner ordering pairs


@dataclass(frozen=True)
class OrderingPair:
    """Two site orderings that together make every grid edge line-local.

    ``order_a`` and ``order_b`` map line position -> site index.  ``edges_a``
    are the grid edges executed while the register sits in ordering A (their
    endpoints are adjacent on line A), ``edges_b`` likewise for B.  Together
    they partition the full edge set.
    """

    n: int
    order_a: tuple[int, ...]
    order_b: tuple[int, ...]
    edges_a: tuple[tuple[int, int], ...]
    edges_b: tuple[tuple[int, int], ...]


def _local_edges(order: tuple[int, ...], grid: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Edges of ``grid`` whose endpoints sit on adjacent line positions."""
    out = set()
    for p in range(len(order) - 1):
        e = tuple(sorted((order[p], order[p + 1])))
        if e in grid:
            out.add(e)
    return out


def _band_order(n: int, phase: int) -> tuple[int, ...]:
    """Site ordering by anti-diagonal bands of width two.

    Band k collects sites with row + col in {2k - 1 + phase, 2k + phase},
    each band sorted by col - row descending.  The two phases (0 and 1)
    produce complementary orderings: horizontal and vertical edges swap
    their locality between them.

    A band is built from its two anti-diagonals lo and hi = lo + 1: the site
    of row r on hi has col - row one above the one on lo, and both exceed
    those of every later row, so walking the rows takes (r, hi - r) then
    (r, lo - r).
    """
    out: list[int] = []
    for lo in range(phase - 1, 2 * n - 1, 2):
        hi = lo + 1
        for r in range(max(0, lo - n + 1), min(hi, n - 1) + 1):
            out.extend(r * n + c for c in (hi - r, lo - r) if 0 <= c < n)
    return tuple(out)


def _split_shared(loc_a: set, loc_b: set) -> tuple[tuple, tuple]:
    """Partition the grid edges into A-local and B-local execution sets.

    Edges local to only one ordering are forced; edges local to both are
    distributed alternately (in sorted order) to keep the sets balanced.
    """
    shared = sorted(loc_a & loc_b)
    edges_a = set(loc_a - loc_b)
    edges_b = set(loc_b - loc_a)
    for i, e in enumerate(shared):
        (edges_a if i % 2 == 0 else edges_b).add(e)
    return tuple(sorted(edges_a)), tuple(sorted(edges_b))


def sublayers(
    edges, order: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Split line-local edges into two equal vertex-disjoint halves.

    Edges are coloured by the parity of the lower line position of their
    endpoints; since every edge occupies two consecutive positions, edges of
    equal colour cannot share a site.
    """
    pos = {s: p for p, s in enumerate(order)}
    half0, half1 = [], []
    for e in sorted(edges):
        p = min(pos[e[0]], pos[e[1]])
        (half0 if p % 2 == 0 else half1).append(e)
    if len(half0) != len(half1):
        raise OrderingError(
            f"sub-layers unbalanced: {len(half0)} vs {len(half1)} edges"
        )
    return tuple(half0), tuple(half1)


def default_orderings(n: int) -> OrderingPair:
    """The band ordering pair for an n x n lattice.

    The construction makes both orders permutations, the edge sets disjoint
    and each edge local to its ordering.  It does not guarantee the edge
    cover: OrderingError names any grid edge local to neither ordering.
    """
    if n < 2:
        raise ValueError(f"lattice size must be at least 2, got {n}")
    order_a = _band_order(n, 0)
    order_b = _band_order(n, 1)
    grid = set(grid_edges(n))
    edges_a, edges_b = _split_shared(_local_edges(order_a, grid), _local_edges(order_b, grid))
    missing = sorted(grid - set(edges_a) - set(edges_b))
    if missing:
        raise OrderingError(f"grid edges local to neither ordering: {missing}")
    return OrderingPair(n, order_a, order_b, edges_a, edges_b)


# ---------------------------------------------------------------------------
# Routing between orderings


def _odd_even_route(
    order_a: tuple[int, ...], order_b: tuple[int, ...], start_phase: int
) -> tuple[tuple[int, ...], ...]:
    """Odd-even transposition routing from order_a to order_b.

    In each layer only positions with the current parity may swap, and a
    pair swaps exactly when doing so reduces displacement (the elements are
    inverted relative to the target ordering).
    """
    target = {s: p for p, s in enumerate(order_b)}
    cur = list(order_a)
    v = len(cur)
    layers: list[tuple[int, ...]] = []
    phase = start_phase
    while cur != list(order_b):
        layer = []
        for p in range(phase, v - 1, 2):
            if target[cur[p]] > target[cur[p + 1]]:
                layer.append(p)
        for p in layer:
            cur[p], cur[p + 1] = cur[p + 1], cur[p]
        layers.append(tuple(layer))
        phase ^= 1
        if len(layers) > 2 * v:
            raise OrderingError("routing failed to converge")
    return tuple(layers)


def route_orderings(pair: OrderingPair) -> tuple[tuple[int, ...], ...]:
    """Layers of disjoint adjacent swaps taking line A to line B.

    Each layer is a tuple of left positions p, meaning positions (p, p+1)
    are swapped simultaneously.  Both starting parities of the odd-even
    router are tried and the shorter schedule is returned, phase 0 on a
    tie.  For the default ordering pairs the depth is n - 1.
    """
    return min(
        (_odd_even_route(pair.order_a, pair.order_b, phase) for phase in (0, 1)),
        key=len,
    )
