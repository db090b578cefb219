"""Generator suite: cycle-cliques, clovers against the paper's clique
contraction, the bichromatic-edge gadget, the gadget triangle, and
Mycielski iterates."""

import random
from itertools import combinations

import pytest
from tfcolor import (
    Coloring,
    Graph,
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
from util_graphs import brute_triangles, disjoint_union, oracle_chi, oracle_chi3, quotient, triangle_set


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
                assert b in cc.neighbors(a)
            nxt = js[(i + 1) % 5]
            both = list(js[i]) + list(nxt)
            for a, b in combinations(both, 2):
                assert b in cc.neighbors(a)
            far = js[(i + 2) % 5]
            for a in js[i]:
                for b in far:
                    assert b not in cc.neighbors(a)


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


def contract(g, cu, cv, cw):
    """The paper's clique contraction: merge three ordered k-cliques U,
    V, W of g into one (k+1)-clique by identifying (v_i, u_i) for
    i <= k-2, then (v_i, w_i) for i <= k-3, then (v_{k-1}, w_{k-2}) and
    (u_{k-1}, w_{k-1}); each pair keeps its first member. Returns
    quotient's (graph, vmap)."""
    k = len(cu)
    pairs = [(cv[i], cu[i]) for i in range(k - 1)]
    pairs += [(cv[i], cw[i]) for i in range(k - 2)]
    pairs += [(cv[k - 1], cw[k - 2]), (cu[k - 1], cw[k - 1])]
    return quotient(g, pairs)


def test_contraction_three_triangles_to_k4():
    g = disjoint_union(*[gen_complete(3)] * 3)
    h, vmap = contract(g, (0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert h == gen_complete(4)
    assert len(set(vmap.values())) == 4


def test_contraction_three_edges_to_k3():
    g = disjoint_union(*[gen_complete(2)] * 3)
    h, _ = contract(g, (0, 1), (2, 3), (4, 5))
    assert h == gen_complete(3)


def test_clover_counts():
    assert gen_clover(2).n == 27
    assert gen_clover(3).n == 40


def test_clover_is_connected():
    assert len(connected_components(gen_clover(2))) == 1


def test_clover_rainbow_center_witness_construction():
    # replay the paper's contraction on three disjoint copies to learn
    # which vertices were merged into the central clique, then check the
    # constructive witness: rainbow center, every joint copying its
    # clique's merged-joint colors
    for k in range(2, 7):
        union = disjoint_union(*[gen_cycle_clique(k)] * 3)
        n1 = 5 * k
        cv = tuple(joints(k)[0])
        cu = tuple(x + n1 for x in joints(k)[0])
        cw = tuple(x + 2 * n1 for x in joints(k)[0])
        replay, vmap = contract(union, cu, cv, cw)
        clover = gen_clover(k)
        assert replay == clover
        center = sorted({vmap[x] for x in cu + cv + cw})
        assert center == [*range(k), 5 * k]
        for a, b in combinations(center, 2):
            assert b in clover.neighbors(a)
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
    assert (U, V) == (0, 1) and V in pg.neighbors(U)
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
