"""Graph core: construction errors, contraction, triangle listing and
the triangle index, 4-clique detection, and DIMACS/DOT round trips."""

import random
import re
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tfcolor import (
    Graph,
    contains_k4,
    gen_cycle,
    quotient,
    read_dimacs_graph,
    triangle_pairs,
    write_dimacs_graph,
    write_dot,
)
from tfcolor import dimacs
from tfcolor.dimacs import read_graph_rows
from tfcolor.graph import read_polar_graph
from util_graphs import brute_triangles, graphs, graphs_with_polar, rand_graph, triangle_set


def test_build_c5():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.n == 5 and g.m == 5 and g.max_degree == 2
    assert g == gen_cycle(5)


def test_equal_edges_give_equal_graphs():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = Graph(4, [(3, 2), (0, 1), (2, 1)])
    assert g == h and hash(g) == hash(h)
    assert Graph(1) != 1
    assert Graph(0).__eq__(0) is NotImplemented


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


@pytest.mark.parametrize("edges", [[(0, -1)], [(0, -4)], [(0, 2), (0, -1)], [(-1, -1)]])
def test_build_names_a_negative_endpoint(edges):
    # -1 indexes a list from its end, so no IndexError flags it
    msg = f"^edge endpoint out of range: {re.escape(str(edges[-1]))} with n=3$"
    for given_edges in (edges, iter(edges), (e for e in edges)):
        with pytest.raises(ValueError, match=msg):
            Graph(3, given_edges)


def per_edge_graph(n, edges):
    """The adjacency sets of n and edges, or the message of the first bad
    edge, checked one edge at a time."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge endpoint out of range: ({u}, {v}) with n={n}"
        if u == v:
            return f"self-loop on vertex {u}"
        if v in adj[u]:
            return f"duplicate edge ({min(u, v)}, {max(u, v)})"
        adj[u].add(v)
        adj[v].add(u)
    return tuple(map(frozenset, adj))


@settings(max_examples=300)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-n - 2, n + 1), st.integers(-n - 2, n + 1)), max_size=8))))
def test_build_matches_the_per_edge_checks(case):
    n, edges = case
    want = per_edge_graph(n, edges)
    try:
        got = Graph(n, iter(edges))._adj
    except ValueError as e:
        got = str(e)
    assert got == want


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


def test_contains_k4_matches_brute_force_on_random_graphs():
    # densities around the K4 threshold of G(n, p) for n <= 14, so both
    # answers come up, and the K4 sits anywhere in the vertex order
    rng = random.Random(44)
    found = 0
    for _ in range(400):
        g = rand_graph(rng, rng.randint(4, 14), rng.choice([0.3, 0.45, 0.6]))
        brute = any(all(g.has_edge(a, b) for a, b in combinations(quad, 2))
                    for quad in combinations(range(g.n), 4))
        assert contains_k4(g) == brute
        found += brute
    assert 50 < found < 350


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


@st.composite
def mutated_graph_texts(draw):
    """Graph text with polar rows as the writer prints it, then edited
    line by line: comments, blank lines, a '%' tail, doubled spaces,
    label 0, labels out of range, repeated rows, self-loops, 's' rows that
    are not edges, header counts off by one or recounted, and CRLF line
    ends."""
    g, polar = draw(graphs_with_polar(max_n=8))
    lines = write_dimacs_graph(g, sorted(tuple(sorted(p)) for p in polar)).splitlines()
    n = g.n
    label = st.integers(1, max(n, 1)).map(str)
    for edit in draw(st.lists(st.sampled_from(range(12)), max_size=4)):
        at = draw(st.integers(0, len(lines)))
        if edit == 0:
            lines.insert(at, draw(st.sampled_from(["c", "c a comment", "c 1 2", "cx 1 2 3"])))
        elif edit == 1:
            lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
        elif edit == 2:
            lines.insert(at, draw(st.sampled_from(["%", "%", "% 1 2"])))
            lines.insert(at + 1, "0")
        elif edit == 3 and at < len(lines):
            lines[at] = lines[at].replace(" ", "  ")
        elif edit in (4, 5) and at < len(lines) and lines[at][:2] in ("e ", "s "):
            bad = "0" if edit == 4 else draw(st.sampled_from([str(n + 1), "-1", str(-n)]))
            kind, a, b = lines[at].split()
            lines[at] = f"{kind} {a} {bad}" if draw(st.booleans()) else f"{kind} {bad} {b}"
        elif edit == 6 and at < len(lines) and lines[at][:2] in ("e ", "s "):
            lines.insert(at, lines[at])
        elif edit == 7:
            v = draw(label)
            lines.insert(at, f"{draw(st.sampled_from('es'))} {v} {v}")
        elif edit == 8:
            lines.insert(at, f"s {draw(label)} {draw(label)}")
        elif edit in (9, 10, 11) and lines and lines[0].startswith("p edge"):
            counts = [int(t) for t in lines[0].split()[2:]]
            if edit == 11:  # the edge count that the rows give, so the edges themselves decide
                counts[1] = sum(line.split()[:1] == ["e"] for line in lines)
            else:
                counts[edit - 9] += draw(st.sampled_from([-1, 1]))
            lines[0] = f"p edge {counts[0]} {counts[1]}"
    return ("\r\n" if draw(st.booleans()) else "\n").join(lines) + "\n"


def read_or_message(read, text):
    try:
        return read(text)
    except ValueError as e:
        return str(e)


@settings(max_examples=500)
@given(mutated_graph_texts())
def test_lean_reader_agrees_with_the_dimacs_rows_path(text):
    # the same graph and polar set, or the same message; and the lean
    # reader takes every text that dimacs_rows takes, so the dimacs_rows
    # path only runs to name a fault
    for kinds, read in ((("e",), lambda t: (read_dimacs_graph(t), frozenset())), (("e", "s"), read_polar_graph)):
        want = read_or_message(lambda t: read_graph_rows(t, kinds), text)
        if kinds == ("e",) and not isinstance(want, str):
            want = want[0], frozenset()
        with mock.patch.object(dimacs, "read_graph_rows", side_effect=read_graph_rows) as rows_path:
            assert read_or_message(read, text) == want
        assert isinstance(want, str) == rows_path.called


@pytest.mark.parametrize("row", ["e 0 1", "e -1 2"])
def test_dimacs_names_the_line_of_a_label_below_one(row):
    u, v = (int(t) for t in row.split()[1:])
    msg = f"^line 3: edge endpoint out of range: [(]{u}, {v}[)] with n=3$"
    for read in (read_dimacs_graph, read_polar_graph):
        with pytest.raises(ValueError, match=msg):
            read(f"p edge 3 2\ne 2 3\n{row}\n")


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


@pytest.mark.parametrize("text,line", [
    ("p edge 2 1\ne +1 \u0662\n", 2), ("p edge 2 1\ne 0_1 2\n", 2), ("p edge +2 1\ne 1 2\n", 1),
    ("p edge 2 +1\ne 1 2\n", 1), ("p edge 2 1\ne 1 \uff12\n", 2), ("c\np edge 2 1\ne 1 --2\n", 3),
    ("p edge 3 1\ne 1 2\n\ne 2 +3\n", 4),
])
def test_dimacs_refuses_integers_that_are_not_plain_decimals(text, line):
    # int() alone reads '+1', '\u0662' (Arabic-Indic two) and '0_1' as numbers
    for read in (read_dimacs_graph, read_polar_graph):
        with pytest.raises(ValueError, match=f"^line {line}: bad line "):
            read(text)


def test_dimacs_reads_leading_zeros_as_the_lean_reader_reads_plain_labels():
    g, polar = read_polar_graph("p edge 03 2\ne 01 2\ne 2 003\ns 02 3\n")
    assert (g.n, sorted(g.edges()), polar) == (3, [(0, 1), (1, 2)], frozenset({(1, 2)}))
    with pytest.raises(ValueError, match="^line 3: bad line 's 1 \\+2'"):
        read_polar_graph("p edge 2 1\ne 1 2\ns 1 +2\n")
    assert read_dimacs_graph("p edge 03 2\ne 01 2\ne 2 003\n").edges() == read_dimacs_graph(
        "p edge 3 2\ne 1 2\ne 2 3\n").edges()


def test_dot_export():
    g = Graph(3, [(0, 1), (1, 2)])
    plain = write_dot(g)
    assert "0 -- 1;" in plain and "1 -- 2;" in plain
