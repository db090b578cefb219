"""Class pipelines: chordal recognition and coloring, the
bounded-chromatic dispatch."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tfcolor import (
    Coloring,
    Graph,
    bounded_chi_chi3,
    chordal_chi3,
    gen_complete,
    gen_cycle,
    gen_mycielski,
    recognize_chordal,
    solve_chi3,
    triangle_pairs,
    verify_triangle_free,
)
from tfcolor.graph_classes import BOUNDED_TAGS
from util_graphs import circulant, graphs, icosahedron, oracle_chi3, petersen, planar_subgraph, random_ktree


def _is_peo(g, peo):
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=lambda u: pos[u])
        if not set(later) - {parent} <= g.neighbors(parent):
            return False
    return True


def test_recognize_chordal_examples():
    peo = recognize_chordal(gen_complete(5))
    assert peo is not None and _is_peo(gen_complete(5), peo)
    assert recognize_chordal(gen_cycle(4)) is None
    assert recognize_chordal(gen_cycle(6)) is None


def test_recognize_chordal_on_ktrees():
    rng = random.Random(71)
    for _ in range(80):
        g = random_ktree(rng, rng.randint(1, 3), rng.randint(2, 10))
        peo = recognize_chordal(g)
        assert peo is not None and _is_peo(g, peo)


def test_recognize_chordal_rejects_random_holes():
    # random graphs with an induced 4-cycle and no chord must be refused
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    assert recognize_chordal(g) is None


def test_chordal_chi3_examples():
    assert chordal_chi3(gen_complete(6)).k == 3
    tree = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    w = chordal_chi3(tree)
    assert w.k == 1 and w.colors == (1,) * 6
    assert chordal_chi3(Graph(0)) == Coloring(0, ())


def test_chordal_chi3_matches_oracle():
    rng = random.Random(72)
    for _ in range(120):
        g = random_ktree(rng, rng.randint(1, 3), rng.randint(1, 10))
        w = chordal_chi3(g)
        assert w.k == oracle_chi3(g)[0]
        assert verify_triangle_free(g, w)


def naive_is_chordal(g):
    """Remove simplicial vertices, whose remaining neighbours are pairwise
    adjacent, one at a time; g is chordal iff every vertex goes."""
    left = set(range(g.n))
    while left:
        v = next((v for v in left
                  if all(b in g.neighbors(a) for a in g.neighbors(v) & left
                         for b in g.neighbors(v) & left if a < b)), None)
        if v is None:
            return False
        left.remove(v)
    return True


@st.composite
def ktrees_less_an_edge(draw):
    """A random k-tree with one random edge deleted: chordal exactly when
    that edge lies in one maximal clique, so both answers come up."""
    rng = draw(st.randoms(use_true_random=False))
    g = random_ktree(rng, draw(st.integers(1, 4)), draw(st.integers(2, 16)))
    edges = g.edges()
    del edges[draw(st.integers(0, len(edges) - 1))]
    return Graph(g.n, edges)


@settings(max_examples=300)
@given(st.one_of(graphs(), ktrees_less_an_edge()))
def test_recognize_chordal_matches_simplicial_elimination(g):
    peo = recognize_chordal(g)
    assert (peo is not None) == naive_is_chordal(g)
    if peo is not None:
        assert sorted(peo) == list(range(g.n)) and _is_peo(g, peo)


def test_chordal_chi3_large_ktree():
    # quadratic partition refinement took about 5 s at 5000 vertices
    g = random_ktree(random.Random(73), 3, 20000)
    w = chordal_chi3(g)
    assert w.k == 2
    assert verify_triangle_free(g, w)


def test_chordal_chi3_rejects_non_chordal():
    with pytest.raises(ValueError, match="chordal"):
        chordal_chi3(gen_cycle(4))


def test_bounded_triangle_free_case():
    g = gen_cycle(7)
    w = bounded_chi_chi3(g, "planar")
    assert w.k == 1 and w.colors == (1,) * 7


def test_bounded_k4():
    w = bounded_chi_chi3(gen_complete(4), "planar")
    assert w.k == 2 and sorted(w.colors) == [1, 1, 2, 2]


def test_bounded_icosahedron():
    g = icosahedron()
    w = bounded_chi_chi3(g, "planar")
    assert w.k == 2 == oracle_chi3(g)[0]
    assert verify_triangle_free(g, w)


def test_bounded_matches_oracle_on_planar_subgraphs():
    rng = random.Random(73)
    for _ in range(80):
        g = planar_subgraph(rng, rng.randint(3, 10))
        w = bounded_chi_chi3(g, "planar")
        assert w.k == oracle_chi3(g)[0]
        assert verify_triangle_free(g, w)


def test_bounded_outerplanar_path():
    # maximal outerplanar strip: triangles sharing edges along a fan
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                  (0, 2), (0, 3), (3, 5)])
    w = bounded_chi_chi3(g, "outerplanar")
    assert w.k == 2 == oracle_chi3(g)[0]
    assert verify_triangle_free(g, w)


def test_bounded_regular_cases():
    k5 = gen_complete(5)
    w = bounded_chi_chi3(k5, "regular4")
    assert w.k == 3 == oracle_chi3(k5)[0]
    assert verify_triangle_free(k5, w)
    k4 = gen_complete(4)
    assert bounded_chi_chi3(k4, "regular4").k == 2
    assert triangle_pairs(petersen()) == [[]] * 10
    assert bounded_chi_chi3(petersen(), "regular4").k == 1
    two_k5 = Graph(10, gen_complete(5).edges()
                   + [(u + 5, v + 5) for u, v in gen_complete(5).edges()])
    w = bounded_chi_chi3(two_k5, "regular4")
    assert w.k == 3 and verify_triangle_free(two_k5, w)


def test_bounded_wrong_chi_hint_still_exact():
    # M4 has chi = 5, so a planar hint is wrong about chi, yet chi3 = 2
    # still fits the class bound and is returned exactly
    m4 = gen_mycielski(3)
    g = Graph(26, m4.edges() + [(23, 24), (24, 25), (23, 25)])
    w = bounded_chi_chi3(g, "planar")
    assert w.k == 2 == solve_chi3(g).k
    assert verify_triangle_free(g, w)


def test_bounded_regular_circulants():
    # C_n(1, 2) is 4-regular with chi3 = 2; beside two K5 the answer is 3
    for n in (20, 21):
        g = circulant(n)
        w = bounded_chi_chi3(g, "regular4")
        assert w.k == 2 and verify_triangle_free(g, w)
    k5 = gen_complete(5).edges()
    g = Graph(20, k5 + [(u + 5, v + 5) for u, v in k5]
              + [(u + 10, v + 10) for u, v in circulant(10).edges()])
    w = bounded_chi_chi3(g, "regular4")
    assert w.k == 3 and verify_triangle_free(g, w)


@pytest.mark.parametrize("tag", BOUNDED_TAGS)
def test_bounded_empty_graph(tag):
    # no degree makes the empty graph irregular, and none exceeds 4
    assert bounded_chi_chi3(Graph(0), tag) == Coloring(0, ())


def test_bounded_rejects_violated_hints():
    with pytest.raises(ValueError, match="'planar' violated: chi3 is 3"):
        bounded_chi_chi3(gen_complete(5), "planar")
    with pytest.raises(ValueError, match="regular"):
        bounded_chi_chi3(Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), "regular4")
    # triangle-free graphs are checked against the regular4 hint too
    with pytest.raises(ValueError, match="not regular"):
        bounded_chi_chi3(Graph(3, [(0, 1), (1, 2)]), "regular4")
    with pytest.raises(ValueError, match="degree exceeds 4"):
        bounded_chi_chi3(Graph(10, [(u, v) for u in range(5) for v in range(5, 10)]), "regular4")
    with pytest.raises(ValueError):
        bounded_chi_chi3(gen_cycle(5), "chordal")
    with pytest.raises(ValueError, match="not handled"):
        bounded_chi_chi3(gen_complete(3), "bipartite")
