"""Verifiers and the pairwise recoloring, cross-checked against
brute-force baselines."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tfcolor import (
    Coloring,
    Graph,
    gen_complete,
    gen_cycle,
    gen_polar_gadget,
    standard_recolor,
    verify_triangle_free,
)
from tfcolor.gadgets import U, Y1, Z1
from util_graphs import brute_triangles, graphs_with_polar, greedy_proper, rand_graph


def test_coloring_validates_range():
    with pytest.raises(ValueError):
        Coloring(2, (1, 3))
    with pytest.raises(ValueError):
        Coloring(1, (0,))


def test_coloring_json_round_trip():
    c = Coloring(3, (1, 3, 2))
    assert Coloring.from_json_dict({"k": c.k, "colors": list(c.colors)}) == c


@pytest.mark.parametrize("doc", [
    {"k": 2, "colors": [1.9, "2", True]},
    {"k": 2, "colors": [1, 2.0]},
    {"k": "2", "colors": [1, 2]},
    {"k": 2.0, "colors": [1, 2]},
    {"k": True, "colors": [1]},
])
def test_coloring_json_rejects_non_integers(doc):
    with pytest.raises(ValueError, match="integers"):
        Coloring.from_json_dict(doc)


def test_coloring_json_aliases():
    # solve prints {"chi3": k, "coloring": [...]} or {"feasible": true, "coloring": [...]}
    assert Coloring.from_json_dict({"chi3": 3, "coloring": [1, 3, 2]}) == Coloring(3, (1, 3, 2))
    assert Coloring.from_json_dict({"feasible": True, "coloring": [2, 1]}) == Coloring(2, (2, 1))
    assert Coloring.from_json_dict({"k": 4, "colors": [1, 2]}, 2) == Coloring(4, (1, 2))


def test_coloring_json_length_must_match():
    with pytest.raises(ValueError, match="covers 2 vertices, graph has 3"):
        Coloring.from_json_dict({"k": 2, "colors": [1, 2]}, 3)


def test_verify_proper_examples():
    # a proper coloring is a triangle-free one with every edge polar
    c5 = gen_cycle(5)
    assert verify_triangle_free(c5, Coloring(3, (1, 2, 1, 2, 3)), c5.edges())
    assert not verify_triangle_free(Graph(2, [(0, 1)]), Coloring(1, (1, 1)), [(0, 1)])
    assert verify_triangle_free(Graph(3, []), Coloring(1, (1, 1, 1)), [])


def test_verify_proper_size_mismatch():
    c5 = gen_cycle(5)
    with pytest.raises(ValueError, match="size"):
        verify_triangle_free(c5, Coloring(1, (1, 1)), c5.edges())


def test_verify_triangle_free_examples():
    k4 = gen_complete(4)
    assert verify_triangle_free(k4, Coloring(2, (1, 1, 2, 2)))
    assert not verify_triangle_free(gen_complete(3), Coloring(1, (1, 1, 1)))
    # one color on u, z1, y1 and the other everywhere else is valid
    colors = [2] * 12
    for v in (U, Z1, Y1):
        colors[v] = 1
    assert verify_triangle_free(gen_polar_gadget(), Coloring(2, tuple(colors)))


def test_verify_polar_edges():
    c5 = gen_cycle(5)
    c = Coloring(2, (1, 1, 2, 1, 2))
    assert verify_triangle_free(c5, c, polar=[(2, 3)])
    assert not verify_triangle_free(c5, c, polar=[(0, 1)])
    with pytest.raises(ValueError, match="not present"):
        verify_triangle_free(c5, c, polar=[(0, 2)])


@settings(max_examples=300)
@given(graphs_with_polar(), st.data())
def test_verify_triangle_free_matches_brute_force(inst, data):
    # one to three colors, so that both verdicts come up
    g, polar = inst
    k = data.draw(st.integers(1, 3))
    colors = data.draw(st.lists(st.integers(1, k), min_size=g.n, max_size=g.n))
    brute = (all(not colors[a] == colors[b] == colors[c] for a, b, c in brute_triangles(g))
             and all(colors[u] != colors[v] for u, v in polar))
    assert verify_triangle_free(g, Coloring(k, tuple(colors)), polar) == brute


def test_standard_recolor_examples():
    k4 = gen_complete(4)
    merged = standard_recolor(Coloring(4, (1, 2, 3, 4)))
    assert merged.k == 2 and verify_triangle_free(k4, merged)
    assert standard_recolor(Coloring(1, (1, 1))) == Coloring(1, (1, 1))
    merged3 = standard_recolor(Coloring(3, (1, 2, 3)))
    assert merged3 == Coloring(2, (1, 1, 2))
    assert verify_triangle_free(gen_complete(3), merged3)


def test_standard_recolor_property():
    # any proper coloring recolors to a triangle-free one on ceil(k/2) labels
    rng = random.Random(55)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = rand_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        colors = greedy_proper(rng, g)
        k = max(colors)
        c = Coloring(k, tuple(colors))
        assert verify_triangle_free(g, c, g.edges())
        merged = standard_recolor(c)
        assert verify_triangle_free(g, merged)
        assert len(set(merged.colors)) == (k + 1) // 2
