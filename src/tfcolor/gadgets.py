"""Generators for the structured graph families: cycle-cliques, clover
graphs, the 12-vertex bichromatic-edge gadget and the triangle of three
such gadgets, Mycielski iterates, and stock graphs."""

from itertools import combinations

from .graph import Graph


def gen_cycle_clique(k: int) -> Graph:
    """The 5k-vertex cycle-clique: a ring of five size-k cliques, the
    joints J0..J4, where member j of joint i is vertex i·k + j. Two
    distinct vertices are adjacent iff their joints are at ring distance
    at most 1, so each joint and the next induce a clique on 2k vertices.
    k=1 yields the 5-cycle."""
    if k < 1:
        raise ValueError("joint size must be at least 1")
    # u < v, so v's joint is u's, the next, or (4) J0-J4 across the ring's wrap
    return Graph(5 * k, [(u, v) for u, v in combinations(range(5 * k), 2) if v // k - u // k in (0, 1, 4)])


def gen_clover(k: int) -> Graph:
    """Three k-cycle-cliques contracted on one joint each: the three
    joints 0 merge into the (k+1)-clique at the center, on 0..k-1 and
    5k. Has 13k+1 vertices. Copy 0 sits at 0..5k-1. Copy 1 puts vertex
    j at j for j <= k-2 and at 5k + j - (k-1) otherwise. Copy 2 puts
    vertex j at j for j <= k-3, vertex k-2 at k-1, vertex k-1 at 5k and
    vertex j >= k at 9k+1 + j - k."""
    if k < 2:
        raise ValueError("clover joint size must be at least 2")
    cc_edges = gen_cycle_clique(k).edges()
    places = (
        range(5 * k),
        (*range(k - 1), *range(5 * k, 9 * k + 1)),
        (*range(k - 2), k - 1, 5 * k, *range(9 * k + 1, 13 * k + 1)),
    )
    # each place is increasing, so mapped edges stay ordered and the set
    # drops the repeats the merged joints share
    return Graph(13 * k + 1, {(p[a], p[b]) for p in places for a, b in cc_edges})


# vertex labels of the bichromatic-edge gadget; (U, V) is its forced edge
U, V = 0, 1
W1, W2, W3, W4 = 2, 3, 4, 5
Z1, Z2, Z3 = 6, 7, 8
Y1, Y2, Y3 = 9, 10, 11

GADGET_EDGES = (
    (U, V),
    (U, W1), (U, W2), (U, W3), (U, W4),
    (V, W1), (V, W2), (V, W3), (V, W4),
    (V, Z1), (V, Y1), (Z1, Y1),
    (W1, Z1), (W1, Z2), (Z1, Z2),
    (U, Z2), (U, Z3), (Z2, Z3),
    (W2, Z1), (W2, Z3), (Z1, Z3),
    (W3, Y1), (W3, Y2), (Y1, Y2),
    (U, Y2), (U, Y3), (Y2, Y3),
    (W4, Y1), (W4, Y3), (Y1, Y3),
)


def gen_polar_gadget() -> Graph:
    """The 12-vertex, 30-edge gadget on GADGET_EDGES whose (U, V) edge is
    forced bichromatic: it admits a triangle-free 2-coloring, every
    triangle-free 2-coloring gives U and V different colors, and it has
    no K4. Unchecked at run time: acceptance test 01 proves all three
    over the 2^12 two-colorings."""
    return Graph(12, GADGET_EDGES)


def gadget_edges_across(u: int, v: int, base: int) -> list:
    """The edges of a bichromatic-edge gadget laid across the host edge
    uv: U goes at u, V at v, and private label i at base + i - 2. The
    host edge itself is left out."""
    place = (u, v) + tuple(range(base, base + 10))
    return [(place[a], place[b]) for a, b in GADGET_EDGES if (a, b) != (U, V)]


def gen_gadget_triangle() -> Graph:
    """Three bichromatic-edge gadgets whose (u, v) edges are identified
    with the three edges of a central triangle; 33 vertices. The forced
    bichromatic edges make the triangle need a third color while the
    graph stays free of 4-cliques."""
    centers = ((0, 1), (1, 2), (2, 0))
    edges = list(centers)
    for gi, (ea, eb) in enumerate(centers):
        edges += gadget_edges_across(ea, eb, 3 + 10 * gi)
    return Graph(33, edges)


def mycielskian(g: Graph) -> Graph:
    """One Mycielski step: shadow vertex n+i copies i's neighborhood, a
    new apex 2n joins all shadows. Preserves triangle-freeness while
    raising the chromatic number by one."""
    n = g.n
    edges = g.edges()
    shadows = [e for u, v in edges for e in ((u, n + v), (v, n + u))]
    return Graph(2 * n + 1, edges + shadows + [(n + i, 2 * n) for i in range(n)])


def gen_mycielski(t: int) -> Graph:
    """t Mycielski steps applied to a single edge; t=0 gives K2, t=1 the
    5-cycle, and each further step keeps the graph triangle-free."""
    if t < 0:
        raise ValueError("iteration count must be non-negative")
    g = Graph(2, [(0, 1)])
    for _ in range(t):
        g = mycielskian(g)
    return g


def gen_complete(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))  # Graph refuses n < 0


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle length must be at least 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])
