"""Solver suite: enumeration oracles, the pruned decision procedure,
clique/chromatic/vertex-cover search, and the cover-parameterized
algorithm. Oracles and the optimized path must agree everywhere."""

import random
from itertools import combinations, product

import pytest
from tfcolor import (
    Graph,
    StructuralParams,
    decide_tf_q,
    fpt_tf_q_coloring,
    gen_clover,
    gen_complete,
    gen_cycle,
    gen_mycielski,
    min_vertex_cover,
    oracle_chi,
    oracle_chi3,
    oracle_omega,
    verify_triangle_free,
)
from util_graphs import rand_graph


def test_oracle_chi3_stock_values():
    assert oracle_chi3(gen_complete(5))[0] == 3
    assert oracle_chi3(gen_cycle(5))[0] == 1
    assert oracle_chi3(Graph(0, []))[0] == 0
    assert oracle_chi3(Graph(1, []))[0] == 1


def test_decide_matches_oracle_with_and_without_polar():
    rng = random.Random(9001)
    for _ in range(150):
        n = rng.randint(1, 10)
        g = rand_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        best, witness = oracle_chi3(g)
        assert verify_triangle_free(g, witness)
        for q in (1, 2, 3):
            got = decide_tf_q(g, q)
            assert (got is not None) == (best <= q)
            if got is not None:
                assert verify_triangle_free(g, got)
        edges = g.edges()
        polar = [e for e in edges if rng.random() < 0.4]
        if polar:
            pbest, pwitness = oracle_chi3(g, polar)
            assert verify_triangle_free(g, pwitness, polar)
            for q in (1, 2, 3):
                got = decide_tf_q(g, q, polar=polar)
                assert (got is not None) == (pbest <= q)
                if got is not None:
                    assert verify_triangle_free(g, got, polar)


def test_decide_complete_graph_pairing():
    got = decide_tf_q(gen_complete(6), 3)
    assert got is not None
    counts = sorted(got.colors.count(x) for x in set(got.colors))
    assert counts == [2, 2, 2]


def test_decide_rejects_bad_budget():
    with pytest.raises(ValueError):
        decide_tf_q(gen_cycle(5), 0)


def test_oracle_chi_and_omega():
    m2 = gen_mycielski(2)
    assert oracle_chi(m2) == 4
    assert oracle_omega(m2) == 2
    assert oracle_chi(gen_complete(7)) == 7
    assert oracle_omega(gen_complete(7)) == 7
    assert oracle_omega(gen_clover(2)) == 4


def test_min_vertex_cover_examples():
    assert len(min_vertex_cover(gen_complete(3))) == 2
    star = Graph(6, [(0, i) for i in range(1, 6)])
    assert min_vertex_cover(star) == frozenset({0})
    assert len(min_vertex_cover(gen_cycle(5))) == 3


def test_min_vertex_cover_matches_brute_force():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 9)
        g = rand_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        cover = min_vertex_cover(g)
        for u, v in g.edges():
            assert u in cover or v in cover
        best = g.n
        for r in range(g.n + 1):
            if any(all(u in set(s) or v in set(s) for u, v in g.edges())
                   for s in combinations(range(g.n), r)):
                best = r
                break
        assert len(cover) == best


def test_fpt_direct_construction_case():
    # budget above half the cover size always succeeds
    rng = random.Random(32)
    for _ in range(60):
        n = rng.randint(1, 10)
        g = rand_graph(rng, n, rng.choice([0.3, 0.6]))
        k = len(min_vertex_cover(g))
        q = (k + 1) // 2 + 1
        got = fpt_tf_q_coloring(g, q)
        assert got is not None and verify_triangle_free(g, got)


def test_fpt_k4_one_color():
    assert fpt_tf_q_coloring(gen_complete(4), 1) is None


def test_fpt_matches_oracle():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 11)
        g = rand_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        best, _ = oracle_chi3(g)
        for q in (1, 2, 3):
            got = fpt_tf_q_coloring(g, q)
            assert (got is not None) == (best <= q)
            if got is not None:
                assert verify_triangle_free(g, got)


def test_every_color_twice_on_k2k():
    # full enumeration: each color appears exactly twice in any
    # triangle-free k-coloring of the complete graph on 2k vertices
    for k in (1, 2, 3):
        g = gen_complete(2 * k)
        for assign in product(range(1, k + 1), repeat=2 * k):
            mono = any(
                assign[a] == assign[b] == assign[c]
                for a, b, c in combinations(range(2 * k), 3)
            )
            if not mono:
                assert all(assign.count(x) == 2 for x in range(1, k + 1))


def test_randomized_restarts_stay_correct():
    clover = gen_clover(2)
    for seed in range(5):
        assert decide_tf_q(clover, 2, rng=random.Random(seed)) is None
        got = decide_tf_q(clover, 3, rng=random.Random(seed))
        assert got is not None and verify_triangle_free(clover, got)


def test_structural_params_validation():
    with pytest.raises(ValueError):
        StructuralParams(omega=4, chi=4, chi3=1, vc=2, delta=3)
    with pytest.raises(ValueError):
        StructuralParams(omega=5, chi=4, chi3=2, vc=2, delta=3)
    p = StructuralParams(omega=3, chi=5, chi3=2, vc=8, delta=9)
    assert p.to_json_dict()["chi"] == 5
