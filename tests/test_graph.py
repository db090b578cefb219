"""Graph core: construction errors, contraction, triangle listing and
the triangle index, 4-clique detection, and DIMACS/DOT round trips."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from tfcolor import (
    Coloring,
    Graph,
    contains_k4,
    gen_cycle,
    quotient,
    read_dimacs_graph,
    triangle_pairs,
    write_dimacs_graph,
    write_dot,
)
from util_graphs import brute_triangles, graphs, graphs_with_polar, rand_graph, triangle_set


def test_build_c5():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.n == 5 and g.m == 5 and g.max_degree == 2
    assert g == gen_cycle(5)


def test_build_k4():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert g.m == 6 and g.max_degree == 3


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph(3, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])


def test_identify_triangle_to_edge():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    h, vmap = quotient(g, [(0, 1)])
    assert h.n == 2 and h.m == 1
    assert vmap == {0: 0, 1: 0, 2: 1}


def test_identify_attaches_neighbors():
    # path 0-1 plus isolated 2; merging 0 and 2 leaves the path
    g = Graph(3, [(0, 1)])
    h, vmap = quotient(g, [(0, 2)])
    assert h.n == 2 and h.m == 1
    assert vmap[2] == vmap[0]


def test_identify_rejects_same_vertex():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="already identified"):
        quotient(g, [(1, 1)])
    with pytest.raises(ValueError, match="already identified"):
        quotient(g, [(0, 1), (2, 0), (1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        quotient(g, [(0, 3)])


def test_identify_never_leaves_loops_or_duplicates():
    rng = random.Random(101)
    for _ in range(500):
        n = rng.randint(2, 8)
        g = rand_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        h, vmap = quotient(g, [(u, v)])
        assert h.n == n - 1
        assert vmap[v] == vmap[u]
        assert sorted(set(vmap.values())) == list(range(n - 1))
        # the Graph constructor would reject loops or parallel edges
        assert set(h.edges()) == {
            tuple(sorted((vmap[a], vmap[b]))) for a, b in g.edges() if vmap[a] != vmap[b]
        }


def check_triangle_listing(g):
    brute = brute_triangles(g)
    assert triangle_set(g) == brute
    tri = triangle_pairs(g)
    for v in range(g.n):
        through = {frozenset(t) - {v} for t in brute if v in t}
        assert len(tri[v]) == len(through)  # a triangle listed twice shows here
        assert {frozenset(ab) for ab in tri[v]} == through


def test_triangle_listing_matches_brute_force():
    rng = random.Random(202)
    for _ in range(500):
        check_triangle_listing(rand_graph(rng, rng.randint(0, 8), rng.choice([0.15, 0.35, 0.55, 0.8])))
    # a hub joined to every vertex: each edge below it closes a triangle
    base = rand_graph(rng, 30, 0.3)
    check_triangle_listing(Graph(31, base.edges() + [(v, 30) for v in range(30)]))


@given(graphs())
def test_triangle_listing_matches_brute_force_on_drawn_graphs(g):
    check_triangle_listing(g)


def test_triangle_listing_examples():
    assert triangle_set(gen_cycle(5)) == frozenset()
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert len(triangle_set(k4)) == 4


def test_contains_k4():
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert contains_k4(k4)
    assert not contains_k4(gen_cycle(5))


@given(graphs())
def test_contains_k4_matches_brute_force(g):
    brute = any(all(g.has_edge(a, b) for a, b in combinations(quad, 2))
                for quad in combinations(range(g.n), 4))
    assert contains_k4(g) == brute


def test_dimacs_round_trip_bit_exact():
    rng = random.Random(404)
    for _ in range(100):
        g = rand_graph(rng, rng.randint(0, 9), rng.choice([0.3, 0.7]))
        text = write_dimacs_graph(g)
        back = read_dimacs_graph(text)
        assert back == g
        assert write_dimacs_graph(back) == text
        # a '%' line ends the input, as in SATLIB files
        assert read_dimacs_graph(text + "%\n0\n") == g


@settings(max_examples=200)
@given(graphs_with_polar())
def test_dimacs_round_trip_property(inst):
    g, _ = inst
    text = write_dimacs_graph(g)
    back = read_dimacs_graph(text)
    assert back == g and back.m == g.m
    assert write_dimacs_graph(back) == text


def test_dimacs_tolerates_comments():
    g = read_dimacs_graph("c a comment\np edge 3 2\nc more\ne 1 2\ne 2 3\n")
    assert g.n == 3 and g.m == 2 and g.has_edge(0, 1) and g.has_edge(1, 2)


@pytest.mark.parametrize("text,msg", [
    ("e 1 2\n", "before"),
    ("p edge 2 1\n", "claims"),
    ("p col 2 1\ne 1 2\n", "expected"),
    ("p edge 2 1\ne 1 3\n", "^line 2: .*out of range: [(]1, 3[)] with n=2$"),
    ("p edge 3 1\nc loop\ne 3 3\n", "^line 3: self-loop on vertex 3$"),
    ("p edge 2 2\ne 1 2\ne 2 1\n", "^line 3: duplicate edge [(]1, 2[)]$"),
    ("p edge x 1\n", "^line 1: .*'x'"),
    ("c header next\np edge 2 1\ne 1 x\n", "^line 3: .*'x'"),
    ("p edge -3 0\n", "^line 1: .*non-negative"),
    ("p edge 3 -1\n", "^line 1: .*non-negative"),
    ("c negative n\np edge -3 1\ne 1 2\n", "^line 2: .*non-negative"),
])
def test_dimacs_rejects_malformed(text, msg):
    with pytest.raises(ValueError, match=msg):
        read_dimacs_graph(text)


def test_dot_export():
    g = Graph(3, [(0, 1), (1, 2)])
    plain = write_dot(g)
    assert "0 -- 1;" in plain and "1 -- 2;" in plain
    colored = write_dot(g, Coloring(2, (1, 2, 1)))
    assert "fillcolor=1" in colored and "fillcolor=2" in colored
