"""Generator suite: cycle-cliques, the contraction scheme, clovers, the
bichromatic-edge gadget, the gadget triangle, and Mycielski iterates."""

import random
from itertools import combinations

import pytest
from tfcolor import (
    Coloring,
    Graph,
    clique_contraction,
    connected_components,
    contains_k4,
    decide_tf_q,
    gen_clover,
    gen_complete,
    gen_cycle,
    gen_cycle_clique,
    gen_gadget_triangle,
    gen_mycielski,
    gen_polar_gadget,
    oracle_omega,
    verify_triangle_free,
)
from tfcolor.gadgets import U, V, gadget_edges_across
from util_graphs import brute_triangles, oracle_chi, oracle_chi3, triangle_set


def joints(k):
    """The five joints of gen_cycle_clique(k): member j of joint i is vertex i·k + j."""
    return [range(i * k, (i + 1) * k) for i in range(5)]


def test_cycle_clique_k1_is_c5():
    assert gen_cycle_clique(1) == gen_cycle(5)


def test_cycle_clique_k2_shape():
    cc = gen_cycle_clique(2)
    assert cc.n == 10 and cc.m == 25


def test_cycle_clique_joint_structure():
    for k in (1, 2, 3):
        cc, js = gen_cycle_clique(k), joints(k)
        for i in range(5):
            for a, b in combinations(js[i], 2):
                assert cc.has_edge(a, b)
            nxt = js[(i + 1) % 5]
            both = list(js[i]) + list(nxt)
            for a, b in combinations(both, 2):
                assert cc.has_edge(a, b)
            far = js[(i + 2) % 5]
            for a in js[i]:
                for b in far:
                    assert not cc.has_edge(a, b)


def test_cycle_clique_rainbow_coloring_works():
    for k in (1, 2, 3):
        cc = gen_cycle_clique(k)
        colors = [0] * cc.n
        for joint in joints(k):
            for slot, v in enumerate(joint):
                colors[v] = slot + 1
        assert verify_triangle_free(cc, Coloring(k, tuple(colors)))


def test_cycle_clique_rejects_zero():
    with pytest.raises(ValueError):
        gen_cycle_clique(0)


def _disjoint_cliques(k, copies=3):
    edges = []
    for c in range(copies):
        for a, b in combinations(range(c * k, (c + 1) * k), 2):
            edges.append((a, b))
    return Graph(copies * k, edges)


def test_contraction_three_triangles_to_k4():
    g = _disjoint_cliques(3)
    h, vmap = clique_contraction(g, (0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert h == gen_complete(4)
    assert len(set(vmap.values())) == 4


def test_contraction_three_edges_to_k3():
    g = _disjoint_cliques(2)
    h, _ = clique_contraction(g, (0, 1), (2, 3), (4, 5))
    assert h == gen_complete(3)


def test_contraction_rejects_non_clique():
    g = Graph(6, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="clique"):
        clique_contraction(g, (0, 1), (2, 3), (4, 5))


def test_contraction_rejects_overlap():
    g = _disjoint_cliques(2)
    with pytest.raises(ValueError, match="disjoint"):
        clique_contraction(g, (0, 1), (1, 2), (4, 5))


def test_clover_counts():
    assert gen_clover(2).n == 27
    assert gen_clover(3).n == 40


def test_clover_is_connected():
    assert len(connected_components(gen_clover(2))) == 1


def test_clover_rainbow_center_witness_construction():
    # rebuild the clover through the public contraction to learn which
    # vertices were merged into the central clique, then check the
    # constructive witness: rainbow center, every joint copying its
    # clique's merged-joint colors
    for k in (2, 3):
        parts = [gen_cycle_clique(k) for _ in range(3)]
        n1 = parts[0].n
        edges = list(parts[0].edges())
        edges += [(u + n1, v + n1) for u, v in parts[1].edges()]
        edges += [(u + 2 * n1, v + 2 * n1) for u, v in parts[2].edges()]
        union = Graph(3 * n1, edges)
        cv = tuple(joints(k)[0])
        cu = tuple(x + n1 for x in joints(k)[0])
        cw = tuple(x + 2 * n1 for x in joints(k)[0])
        replay, vmap = clique_contraction(union, cu, cv, cw)
        clover = gen_clover(k)
        assert replay == clover
        center = sorted({vmap[x] for x in cu + cv + cw})
        assert len(center) == k + 1
        for a, b in combinations(center, 2):
            assert clover.has_edge(a, b)
        colors = [0] * clover.n
        for slot, v in enumerate(center):
            colors[v] = slot + 1
        for offset in (0, n1, 2 * n1):
            joint0 = [vmap[v + offset] for v in joints(k)[0]]
            for joint in joints(k):
                for slot, v in enumerate(joint):
                    colors[vmap[v + offset]] = colors[joint0[slot]]
        witness = Coloring(k + 1, tuple(colors))
        assert verify_triangle_free(clover, witness)
        assert len({witness.colors[v] for v in center}) == k + 1


def test_polar_gadget_shape():
    pg = gen_polar_gadget()
    assert pg.n == 12 and pg.m == 30
    assert (U, V) == (0, 1) and pg.has_edge(U, V)
    assert not contains_k4(pg)


def test_polar_gadget_triangles_match_brute_force():
    pg = gen_polar_gadget()
    assert triangle_set(pg) == brute_triangles(pg)


def test_reductions_lay_down_the_certified_gadget():
    # acceptance test 01 certifies gen_polar_gadget(); the reductions lay the
    # gadget down through gadget_edges_across, which must give the same graph
    assert Graph(12, gadget_edges_across(U, V, 2) + [(U, V)]) == gen_polar_gadget()


def test_gadget_triangle_shape():
    g = gen_gadget_triangle()
    assert g.n == 33
    assert not contains_k4(g)
    assert oracle_omega(g) == 3


def test_mycielski_base_cases():
    assert gen_mycielski(0) == Graph(2, [(0, 1)])
    m1 = gen_mycielski(1)
    assert m1.n == 5 and m1.m == 5
    assert all(m1.degree(v) == 2 for v in range(5)) and len(connected_components(m1)) == 1


def test_mycielski_two_steps():
    m2 = gen_mycielski(2)
    assert m2.n == 11
    assert triangle_set(m2) == frozenset()
    assert oracle_chi(m2) == 4
    assert oracle_chi3(m2)[0] == 1


def test_stock_generators():
    assert gen_complete(4).m == 6
    assert gen_cycle(6).m == 6
    with pytest.raises(ValueError):
        gen_cycle(2)
