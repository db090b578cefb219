"""Solver suite: enumeration oracles, the pruned decision procedure,
clique/chromatic/vertex-cover search, and the cover-parameterized
algorithm. Oracles and the optimized path must agree everywhere."""

import hashlib
import random
import sys
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from tfcolor import fpt, solvers
from tfcolor import (
    Coloring,
    Graph,
    compute_params,
    decide_tf_q,
    fpt_tf_q_coloring,
    gen_clover,
    gen_complete,
    gen_cycle,
    gen_mycielski,
    min_vertex_cover,
    oracle_omega,
    solve_chi3,
    verify_triangle_free,
)
from util_graphs import (
    brute_min_cover,
    c4_ring,
    circulant,
    disjoint_union,
    graphs_with_polar,
    grid_graph,
    oracle_chi,
    oracle_chi3,
    rand_graph,
    random_ktree,
    refute_tf_q,
    refuted_chi3,
    relabelled,
    square_of_path,
    stacked_planar,
    triangulated_grid,
)


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


@st.composite
def polar_instances(draw):
    """A random core of up to 6 vertices, pendant vertices each hanging
    off one earlier vertex (edges in no triangle), n <= 8, and a random
    polar subset of the edges."""
    core = draw(st.integers(1, 6))
    n = core + draw(st.integers(0, 8 - core))
    edges = [e for e in combinations(range(core), 2) if draw(st.booleans())]
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(core, n)]
    g = Graph(n, edges)
    return g, [e for e in g.edges() if draw(st.booleans())]


@settings(max_examples=300)
@given(polar_instances())
def test_decide_feasible_iff_oracle_fits(inst):
    # with PIECE = 1 every part of more than one vertex is searched with
    # conflict analysis, so small graphs exercise the backjumping too;
    # with every edge polar the search decides proper q-coloring. The same
    # instance spread over 300 vertices (vertex i becomes 37i + 5, the
    # rest isolated) makes every vertex set wider than a machine word.
    g, polar = inst
    best, _ = oracle_chi3(g, polar)
    chi = oracle_chi(g)
    wide = Graph(300, [(37 * u + 5, 37 * v + 5) for u, v in g.edges()])
    wide_polar = [(37 * u + 5, 37 * v + 5) for u, v in polar]
    for piece in (solvers.PIECE, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "PIECE", piece)
            for q in (1, 2, 3):
                got = decide_tf_q(g, q, polar=polar)
                assert (got is not None) == (best <= q)
                if got is not None:
                    assert got.k == q and verify_triangle_free(g, got, polar)
                got = decide_tf_q(g, q, polar=g.edges())
                assert (got is not None) == (chi <= q)
                if got is not None:
                    assert got.k == q and verify_triangle_free(g, got, g.edges())
                got = decide_tf_q(wide, q, polar=wide_polar)
                assert (got is not None) == (best <= q)
                if got is not None:
                    assert verify_triangle_free(wide, got, wide_polar)


def blow_up(sizes, cliques, base_edges, perm):
    """Base vertex i becomes a clique (cliques[i]) or an independent set
    of sizes[i] vertices, one twin class; a base edge joins every copy of
    its ends. perm relabels the vertices."""
    groups, start = [], 0
    for size in sizes:
        groups.append(perm[start:start + size])
        start += size
    edges = []
    for grp, clique in zip(groups, cliques):
        if clique:
            edges += combinations(grp, 2)
    for a, b in base_edges:
        edges += [(x, y) for x in groups[a] for y in groups[b]]
    return Graph(start, edges), groups


@st.composite
def twin_instances(draw):
    """A blow-up of a random base graph (n <= 10) with a polar subset
    drawn either per base edge, keeping twin classes intact, or per
    edge, splitting them; sometimes with a pendant vertex hung off one
    member of a class by a non-polar edge. That edge lies in no
    triangle, so the member keeps its twins' constraint neighbors but
    not their adjacency."""
    sizes = []
    while len(sizes) < 5 and sum(sizes) < 10:
        sizes.append(draw(st.integers(1, min(3, 10 - sum(sizes)))))
    cliques = [draw(st.booleans()) for _ in sizes]
    base = [e for e in combinations(range(len(sizes)), 2) if draw(st.booleans())]
    g, groups = blow_up(sizes, cliques, base, draw(st.permutations(range(sum(sizes)))))
    if draw(st.booleans()):
        polar = [(x, y) for a, b in base if draw(st.booleans()) for x in groups[a] for y in groups[b]]
    else:
        polar = [e for e in g.edges() if draw(st.booleans())]
    classes = [grp for grp in groups if len(grp) > 1]
    if classes and draw(st.booleans()):
        g = Graph(g.n + 1, g.edges() + [(draw(st.sampled_from(classes))[0], g.n)])
    return g, polar


@settings(max_examples=250)
@given(twin_instances())
def test_decide_twin_blow_ups_match_oracle(inst):
    g, polar = inst
    best, _ = oracle_chi3(g, polar)
    for piece in (solvers.PIECE, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "PIECE", piece)
            for q in range(1, best + 1):
                got = decide_tf_q(g, q, polar=polar)
                assert (got is not None) == (q == best)
                if got is not None:
                    assert verify_triangle_free(g, got, polar)


@st.composite
def twin_cover_instances(draw):
    """A blow-up of up to 3 core base vertices joined at random, plus up
    to 4 outer base vertices, independent sets pairwise non-adjacent and
    each joined to some of the core: at most 21 vertices, covered by the
    core's at most 9, so fpt_tf_q_coloring stays cheap."""
    core = draw(st.integers(1, 3))
    outer = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(core + outer)]
    cliques = [draw(st.booleans()) for _ in range(core)] + [False] * outer
    base = [(a, b) for a in range(core) for b in range(a + 1, core + outer) if draw(st.booleans())]
    g, _ = blow_up(sizes, cliques, base, draw(st.permutations(range(sum(sizes)))))
    return g


@settings(max_examples=120)
@given(twin_cover_instances())
def test_decide_twin_blow_ups_match_fpt(g):
    for q in range(1, 5):
        fits = fpt_tf_q_coloring(g, q) is not None
        for piece in (solvers.PIECE, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "PIECE", piece)
                got = decide_tf_q(g, q)
            assert (got is not None) == fits
            if got is not None:
                assert verify_triangle_free(g, got)


@settings(max_examples=200)
@given(graphs_with_polar(max_n=8), graphs_with_polar(max_n=8))
@example((Graph(2, [(0, 1)]), [(0, 1)]),
         (Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]),
          [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]))
def test_decide_solves_each_component_on_its_own(first, second):
    # components share no constraint and each has its own label cap, so on
    # G + H the search fails iff one part fails, and otherwise colors each
    # part as it colors that part alone. In the example, a cap shared with
    # the K2 colors the second part (1, 2, 3, 2, 3) at q=3, not (1, 2, 3, 3, 2).
    (g, gpolar), (h, hpolar) = first, second
    union = disjoint_union(g, h)
    polar = gpolar + [(u + g.n, v + g.n) for u, v in hpolar]
    for q in range(1, 5):
        got = decide_tf_q(union, q, polar=polar)
        parts = decide_tf_q(g, q, polar=gpolar), decide_tf_q(h, q, polar=hpolar)
        if None in parts:
            assert got is None
        else:
            assert got is not None and got.colors == parts[0].colors + parts[1].colors


def test_decide_backjumping_blames_blocked_colors():
    # feasible at q=3, but a search that left the blocked colors of an
    # exhausted decision out of its conflict set backjumped past the
    # decision that blocked them and reported no coloring
    edges = [
        (0, 1), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (1, 3), (1, 4), (1, 6),
        (1, 7), (1, 8), (1, 9), (1, 10), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
        (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (4, 5), (4, 6), (4, 7),
        (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9), (5, 10), (6, 7), (6, 9),
        (6, 10), (7, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10),
    ]
    g = Graph(11, edges)
    polar = [(0, 7), (2, 6), (2, 7), (3, 8), (6, 9), (7, 8)]
    assert oracle_chi3(g, polar)[0] == 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "PIECE", 1)
        got = decide_tf_q(g, 3, polar=polar)
    assert got is not None and verify_triangle_free(g, got, polar)


def test_decide_backjumping_agrees_with_plain_search():
    # up to PIECE vertices the default search runs without conflict
    # analysis, so PIECE = 1 against the default checks the backjumping
    # on graphs too large for the oracle
    rng = random.Random(5)
    answers = set()
    for it in range(40):
        n = rng.randint(12, 26)
        p = rng.uniform(0.3, 0.7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        polar = [e for e in g.edges() if rng.random() < 0.15] if it % 2 else None
        for q in (2, 3, 4):
            plain = decide_tf_q(g, q, polar=polar)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "PIECE", 1)
                got = decide_tf_q(g, q, polar=polar)
            assert (got is None) == (plain is None)
            answers.add(got is None)
    assert answers == {True, False}


@pytest.mark.parametrize("piece", [solvers.PIECE, 1])
def test_decide_tries_least_used_color_first(piece, monkeypatch):
    # the wheel W5: the hub 0 is decided first and takes 1; rim vertex 1
    # is decided next with the hub, colored 1, among its constraint
    # neighbors, so the least-used color 2 comes before 1; label order
    # would give (1, 1, 2, 1, 2, 2) at both budgets
    monkeypatch.setattr(solvers, "PIECE", piece)
    wheel = Graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    for q, want in ((2, (1, 2, 1, 2, 1, 2)), (3, (1, 2, 3, 2, 3, 1))):
        got = decide_tf_q(wheel, q)
        assert got.colors == want and verify_triangle_free(wheel, got)


def test_solve_chi3_one_color_needs_no_search():
    c5 = gen_cycle(5)
    assert solve_chi3(c5) == Coloring(1, (1,) * 5)
    got = solve_chi3(c5, polar=[(1, 2)])
    assert got.k == 2 and got.colors[1] != got.colors[2] and verify_triangle_free(c5, got, [(1, 2)])


@settings(max_examples=200)
@given(st.one_of(twin_instances(), graphs_with_polar(max_n=9)), st.sampled_from([0, 64]))
def test_solve_chi3_starts_each_budget_from_fresh_state(inst, piece):
    # the ladder keeps its index across budgets but no search state, so the
    # budget it stops at answers as a search at that budget alone does;
    # PIECE = 0 searches every part with conflict analysis and twin nogoods
    # held on the decisions behind them
    g, polar = inst
    assume(g.n)
    k = oracle_chi3(g, polar)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "PIECE", piece)
        assert solve_chi3(g, polar) == decide_tf_q(g, k, polar)


@settings(max_examples=200)
@given(graphs_with_polar(max_n=9))
def test_budget_one_fits_exactly_without_constraints(inst):
    # a triangle or a polar edge needs two colors, so budget 1 is never
    # searched: it is the all-ones coloring or nothing
    g, polar = inst
    got = decide_tf_q(g, 1, polar)
    if oracle_chi3(g, polar)[0] <= 1:
        assert got == Coloring(1, (1,) * g.n)
    else:
        assert got is None


def test_the_ladder_indexes_the_graph_once(monkeypatch):
    # one index per climb of the budgets, not one per budget
    index = solvers.triangle_pairs
    calls = []
    monkeypatch.setattr(solvers, "triangle_pairs", lambda g: calls.append(g.n) or index(g))
    clover = gen_clover(3)
    assert solve_chi3(clover).k == 4
    assert calls == [40]
    calls.clear()
    compute_params(clover)
    assert calls == [40, 40]


def test_decide_sparse_graph_has_no_deep_chain():
    # edges in no triangle no longer join search components, so the
    # sparse G(2000, m=10^4) splits into small ones instead of one
    # component whose decision chain overran the recursion limit
    rng = random.Random(2000)
    edges = set()
    while len(edges) < 10**4:
        u, v = rng.sample(range(2000), 2)
        edges.add((min(u, v), max(u, v)))
    g = Graph(2000, sorted(edges))
    got = decide_tf_q(g, 3)
    assert got is not None and verify_triangle_free(g, got)


def test_decide_deep_chains_stay_within_recursion_limit():
    # one decision after another along a chain thousands of vertices long;
    # a search recursing per decision overruns the recursion limit here
    n = 3000
    path_square = Graph(n, [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n])
    grid = triangulated_grid(45)
    for g, q, polar in ((path_square, 2, None), (grid, 2, None), (grid, 4, grid.edges())):
        got = decide_tf_q(g, q, polar=polar)
        assert got is not None and verify_triangle_free(g, got, polar)


def test_decide_huge_budget_searches_at_most_n_labels():
    tracemalloc.start()
    try:
        got = decide_tf_q(gen_cycle(5), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is not None and got.k == 10**6
    assert verify_triangle_free(gen_cycle(5), got)
    assert peak < 10**6


def test_decide_complete_graph_pairing():
    got = decide_tf_q(gen_complete(6), 3)
    assert got is not None
    counts = sorted(got.colors.count(x) for x in set(got.colors))
    assert counts == [2, 2, 2]


def test_decide_deep_chains_in_the_core_stay_within_recursion_limit():
    # the square of C_3000 puts every vertex in 3 triangles, so at q=2 the
    # peel removes nothing and the search walks the whole chain; 4 | n,
    # so 1122... colors it
    g = circulant(3000)
    got = decide_tf_q(g, 2)
    assert got is not None and verify_triangle_free(g, got)


@pytest.mark.parametrize("piece", [solvers.PIECE, 1])
def test_decide_tries_least_used_color_first_in_a_whole_core(piece, monkeypatch):
    # W5 with a polar rim: each rim vertex is under 2 triangles and 2 polar
    # edges, the hub under 5 triangles, so at q = 3 and 4 nothing is peeled.
    # The hub is decided first and takes 1; rim vertex 1 then tries the
    # least-used 2 before 1 (label order would give it 1), and at q=4 rim
    # vertex 5, with 2 and 3 blocked, takes the new label 4 before the
    # hub's 1
    monkeypatch.setattr(solvers, "PIECE", piece)
    wheel = Graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    rim = [(i, i % 5 + 1) for i in range(1, 6)]
    for q, want in ((3, (1, 2, 3, 2, 3, 1)), (4, (1, 2, 3, 2, 3, 4))):
        got = decide_tf_q(wheel, q, polar=rim)
        assert got.colors == want and verify_triangle_free(wheel, got, rim)


@st.composite
def peelable_instances(draw):
    """A dense core (a K4 plus random edges, at most 6 vertices) with
    parts the peel removes hung on it: pendant triangles on a vertex,
    strips of triangles grown from an edge, paths of polar edges; with or
    without a random polar subset of the core's edges. At q = 2 and 3 the
    peel keeps the K4 and removes every part hung on it, so it cuts the
    graph only partly. The vertices are relabeled at random."""
    core = draw(st.integers(4, 6))
    edges = [(u, v) for u, v in combinations(range(core), 2) if v < 4 or draw(st.booleans())]
    polar = [e for e in edges if draw(st.booleans())] if draw(st.booleans()) else []
    n = core
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["pendant", "strip", "polar path"]))
        if kind == "pendant":
            u = draw(st.integers(0, n - 1))
            edges += [(u, n), (u, n + 1), (n, n + 1)]
            n += 2
            continue
        a, b = draw(st.sampled_from(edges))
        for _ in range(draw(st.integers(1, 3))):
            if kind == "strip":
                edges += [(a, n), (b, n)]
                a, b = b, n
            else:
                edges.append((b, n))
                polar.append((b, n))
                b = n
            n += 1
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges]), [(perm[u], perm[v]) for u, v in polar]


@settings(max_examples=150)
@given(peelable_instances(), st.sampled_from([0, 64]), st.integers(0, 2**16))
def test_peeled_search_matches_oracle(inst, piece, seed):
    # only the q-core is searched and the peeled vertices are colored last,
    # so the answers must still be the oracle's, with PIECE = 0 (conflict
    # analysis everywhere) as with the default, and on relabelled copies
    g, polar = inst
    best = oracle_chi3(g, polar)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "PIECE", piece)
        witness = solve_chi3(g, polar)
        assert witness.k == best and verify_triangle_free(g, witness, polar)
        for q in range(1, best + 2):
            for got in (decide_tf_q(g, q, polar), relabelled(decide_tf_q, g, q, polar, seed)):
                assert (got is not None) == (q >= best)
                if got is not None:
                    assert got.k == q and verify_triangle_free(g, got, polar)


@settings(max_examples=150)
@given(graphs_with_polar(max_n=9))
def test_refuter_matches_oracle(inst):
    g, polar = inst
    k = refuted_chi3(g, polar)
    assert k == oracle_chi3(g, polar)[0]
    assert verify_triangle_free(g, Coloring(k, tuple(refute_tf_q(g, k, polar))), polar)


@st.composite
def refuter_instances(draw):
    """G(n, p) with n 10-30 and p 0.3-0.7, or a blow-up of G(n, p) on
    6-12 base vertices into classes of one or two twins, since the
    refuter breaks no twin symmetry; no edge or a fifth of them polar."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from((0.3, 0.4, 0.5, 0.6, 0.7)))
    if draw(st.booleans()):
        g = rand_graph(rng, draw(st.integers(10, 30)), p)
    else:
        sizes = [rng.randint(1, 2) for _ in range(draw(st.integers(6, 12)))]
        base = [e for e in combinations(range(len(sizes)), 2) if rng.random() < p]
        g, _ = blow_up(sizes, [rng.random() < 0.5 for _ in sizes], base, rng.sample(range(sum(sizes)), sum(sizes)))
    return g, [e for e in g.edges() if rng.random() < 0.2] if draw(st.booleans()) else None


@settings(max_examples=1000)
@given(refuter_instances(), st.sampled_from([0, 64]), st.integers(0, 2**16))
def test_search_matches_the_independent_refuter(inst, piece, seed):
    # past the oracle's reach: the refuter shares no code with the
    # engine, which decides a relabelled copy, with conflict analysis
    # everywhere (PIECE = 0) as with the default
    g, polar = inst
    k = refuted_chi3(g, polar)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "PIECE", piece)
        assert solve_chi3(g, polar).k == k
        for q in range(max(k - 1, 1), k + 1):
            got = relabelled(decide_tf_q, g, q, polar, seed)
            assert (got is not None) == (refute_tf_q(g, q, polar) is not None) == (q == k)
            assert got is None or verify_triangle_free(g, got, polar)


def test_search_witnesses_match_pinned_digest():
    """The search's witnesses, not only its answers, pinned by one SHA-256
    over about 300 seeded calls: G(n, p) with n 4-40 and p 0.2-0.9, and
    blow-ups whose classes are cliques (closed twins) or independent sets
    (open twins), so the twin nogoods and their undo run; none, 10% or 30%
    of the edges polar; q 2-5; relabelled by a seeded permutation on
    every other call, the witness mapped back; PIECE 64, and 1
    on every fifth call; solve_chi3 on every eighth graph. A change that
    keeps the search order keeps the digest. One that alters which
    vertex, color or piece the search tries updates the digest and says
    why in CHANGES.md."""
    rng = random.Random(1710)
    digest = hashlib.sha256()
    for i in range(300):
        if i % 6 == 5:
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(3, 7))]
            cliques = [rng.random() < 0.5 for _ in sizes]
            base = [e for e in combinations(range(len(sizes)), 2) if rng.random() < 0.6]
            g, _ = blow_up(sizes, cliques, base, rng.sample(range(sum(sizes)), sum(sizes)))
        else:
            g = rand_graph(rng, rng.randint(4, 40), rng.choice((0.2, 0.35, 0.5, 0.65, 0.8, 0.9)))
        share = (0, 0.1, 0.3)[i % 3]
        polar = [e for e in g.edges() if rng.random() < share]
        q = rng.randint(2, 5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "PIECE", 1 if i % 5 == 2 else 64)
            got = relabelled(decide_tf_q, g, q, polar, i) if i % 2 else decide_tf_q(g, q, polar)
            digest.update(repr((i, got and got.colors)).encode())
            if i % 8 == 0:
                w = solve_chi3(g, polar)
                digest.update(repr((w.k, w)).encode())
    assert digest.hexdigest() == "3d3d782761d6eb32d0ac399954e73b8fbe355e13434e535b2796056f69a1bef3"


def test_decision_key_fields_settle_picks_at_their_maxima():
    """Each decision takes the uncolored vertex with the largest key
    nblk * n**3 + colored * n**2 + degree * n + (n - 1 - index): most
    blocked colors, then most colored constraint neighbors, then highest
    constraint degree, then the lower index. Each case below is
    settled by one field against the fields under it near their largest
    values, on n = 40 vertices.

    - index against degree: hub 39 (degree 39, index 39) against vertex 0
      (degree 38, index 0). An index radix of n - 1 makes them equal, and
      vertex 0, scanned first, is decided first.
    - degree against colored neighbors, at q=2: the apex 39 of a fan over
      the path 1..38 is decided first; then vertex 0, a second apex over
      1..37 with no colored neighbor, loses to path vertices of degree 4
      with one. A degree radix k2 <= 1283 (of n**2 = 1600) decides vertex 0.
    - colored neighbors against blocked colors, at q=3: deciding vertex 0
      forces 17 pairs (y, z) polar to it and to each other, which leaves
      vertex 38, in a triangle with each pair, with 34 colored neighbors
      and no blocked color. Vertex 35, polar to vertex 0, has one
      blocked color and one colored neighbor, and must come first.
      k1 <= 54117 (of n**3 = 64000) decides vertex 38.

    A core vertex has constraint degree at least 2, and the first decision
    of a component takes its highest degree, so no pick meets the
    degree or colored field at its bound: the last two cases come within
    20% of it."""
    n = 40
    hub = Graph(n, [(i, n - 1) for i in range(n - 1)] + [(0, i) for i in range(1, n - 2)] + [(1, n - 2)])
    assert decide_tf_q(hub, 3, hub.edges()).colors == (2,) + (3,) * 37 + (2, 1)

    fans = Graph(n, [(i, i + 1) for i in range(1, n - 2)] + [(i, n - 1) for i in range(1, n - 1)]
                 + [(0, i) for i in range(1, n - 2)])
    assert decide_tf_q(fans, 2).colors == (1, 2, 2, 1) + (2,) * 34 + (1, 1)

    ys, zs = range(1, 18), range(18, 35)
    a, w1, w2, b, t = 35, 36, 37, 38, 39
    polar = [(0, t), (0, a), (a, w1), (a, w2)]
    for y, z in zip(ys, zs):
        polar += [(0, y), (t, y), (0, z), (y, z)]
    plain = [(b, y) for y in ys] + [(b, z) for z in zs] + [(b, w1), (b, w2), (w1, w2)]
    forced = Graph(n, polar + plain)
    assert decide_tf_q(forced, 3, polar).colors == (1,) + (3,) * 17 + (2,) * 18 + (1, 3, 1, 2)


def fan(n):
    """The maximal outerplanar fan: vertex 0 joined to the path 1..n-1."""
    return Graph(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])


def test_decide_empty_two_cores_answer_without_search():
    # at q=2 the peel removes every vertex of these: each end of the chain
    # of triangles (or of polar edges) is under one constraint. The search
    # then meets nothing, and the peeled vertices are colored last
    n = 20000
    cycle = gen_cycle(n)
    for g, polar in ((square_of_path(n), None), (fan(n), None),
                     (cycle, [e for e in cycle.edges() if e != (0, 1)])):
        got = decide_tf_q(g, 2, polar)
        assert got is not None and verify_triangle_free(g, got, polar)


def test_decide_memory_of_an_empty_core_stays_small():
    # the square of P_5000 at q=2 leaves no core, so no n-bit vertex set is
    # built per vertex: peeled, it peaks at 3.5 MB, where a search of the
    # whole chain peaks at 11.0 MB
    g = square_of_path(5000)
    tracemalloc.start()
    try:
        got = decide_tf_q(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is not None and verify_triangle_free(g, got)
    assert peak < 6 * 10**6


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


def test_oracle_omega_of_a_clique_above_the_recursion_limit():
    # one stack frame per clique vertex used to raise RecursionError past K999
    assert oracle_omega(gen_complete(1100)) == 1100


def test_oracle_chi_of_a_path_above_the_recursion_limit():
    # one stack frame per vertex used to raise RecursionError past P999
    assert oracle_chi(Graph(3000, [(v, v + 1) for v in range(2999)])) == 2


def test_min_vertex_cover_examples():
    assert len(min_vertex_cover(gen_complete(3))) == 2
    star = Graph(6, [(0, i) for i in range(1, 6)])
    assert min_vertex_cover(star) == frozenset({0})
    assert len(min_vertex_cover(gen_cycle(5))) == 3


def test_min_vertex_cover_matches_brute_force():
    rng = random.Random(31)
    # the sparse inputs bring pendant chains and several components; the
    # k-trees and stacked triangulations bring long simplicial cascades
    inputs = [rand_graph(rng, rng.randint(1, top), rng.choice(ps))
              for count, top, ps in ((120, 9, [0.2, 0.5, 0.8]), (80, 12, [0.1, 0.15]))
              for _ in range(count)]
    inputs += [random_ktree(rng, rng.randint(1, 3), rng.randint(1, 12)) for _ in range(30)]
    inputs += [stacked_planar(rng, rng.randint(3, 12)) for _ in range(20)]
    for g in inputs:
        cover = min_vertex_cover(g)
        for u, v in g.edges():
            assert u in cover or v in cover
        assert len(cover) == brute_min_cover(g)


def test_min_vertex_cover_matches_brute_force_on_triangle_rich_graphs():
    # the bound packs a triangle for two cover vertices, so it must stay a
    # lower bound where triangles overlap and share edges
    rng = random.Random(77)
    inputs = [triangulated_grid(s) for s in (2, 3)] + [square_of_path(n) for n in range(3, 12)]
    for _ in range(60):
        n = rng.randint(3, 12)
        edges = {e for e in combinations(range(n), 2) if rng.random() < rng.choice([0.3, 0.6])}
        for _ in range(rng.randint(1, 4)):
            edges |= set(combinations(sorted(rng.sample(range(n), 3)), 2))
        inputs.append(Graph(n, edges))
    for g in inputs:
        assert len(min_vertex_cover(g)) == brute_min_cover(g)


@st.composite
def cover_instances(draw):
    """A random core of up to 6 vertices with pendant paths hanging off
    it and a disjoint cycle, n <= 12, so the simplicial rule runs down
    pendant paths and the branching meets bare cycles."""
    core = draw(st.integers(1, 6))
    edges = [e for e in combinations(range(core), 2) if draw(st.booleans())]
    n = core
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(1, 12 - n)) if n < 12 else 0
        if length:
            edges.append((draw(st.integers(0, n - 1)), n))
            edges += [(v, v + 1) for v in range(n, n + length - 1)]
            n += length
    length = draw(st.integers(0, 12 - n))
    if length >= 3:
        edges += [(v, v + 1) for v in range(n, n + length - 1)] + [(n, n + length - 1)]
        n += length
    return Graph(n, edges)


@given(cover_instances())
def test_min_vertex_cover_property(g):
    cover = min_vertex_cover(g)
    assert all(u in cover or v in cover for u, v in g.edges())
    assert len(cover) == brute_min_cover(g)


def test_min_vertex_cover_random_tree_equals_matching():
    # Koenig: on a tree the minimum cover equals the maximum matching, and
    # matching each free vertex to its free parent, children first, is maximum
    rng = random.Random(34)
    n = 1500
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    cover = min_vertex_cover(Graph(n, edges))
    assert all(u in cover or v in cover for u, v in edges)
    parent = {v: u for u, v in edges}
    matched = set()
    matching = 0
    for v in range(n - 1, 0, -1):  # every child follows its parent
        if v not in matched and parent[v] not in matched:
            matched.update((v, parent[v]))
            matching += 1
    assert len(cover) == matching


def test_min_vertex_cover_disjoint_k4s():
    blocks = 200
    edges = [(4 * i + a, 4 * i + b) for i in range(blocks) for a, b in combinations(range(4), 2)]
    cover = min_vertex_cover(Graph(4 * blocks, edges))
    assert len(cover) == 3 * blocks
    assert all(u in cover or v in cover for u, v in edges)


def test_min_vertex_cover_square_of_long_path():
    # every end of the triangle chain is simplicial, so the rule peels it
    # whole; an independent set of P_n^2 keeps its vertices 3 apart
    g = square_of_path(3000)
    cover = min_vertex_cover(g)
    assert len(cover) == 3000 - 1000
    assert all(u in cover or v in cover for u, v in g.edges())


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_min_vertex_cover_long_chains_stay_within_recursion_limit():
    # no vertex of either chain is simplicial, so the search branches
    # along it hundreds of times; a search recursing per branch overruns
    # a limit a few dozen frames above the caller
    cases = ((c4_ring(200), 400), (grid_graph(3, 200), 300))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        for g, size in cases:
            cover = min_vertex_cover(g)
            assert len(cover) == size
            assert all(u in cover or v in cover for u, v in g.edges())
            got = fpt_tf_q_coloring(g, 2)
            assert got is not None and verify_triangle_free(g, got)
    finally:
        sys.setrecursionlimit(limit)


def test_fpt_large_tree_has_no_deep_recursion():
    rng = random.Random(35)
    n = 3000
    g = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
    assert len(min_vertex_cover(g)) > 1000
    got = fpt_tf_q_coloring(g, 1)
    assert got is not None and verify_triangle_free(g, got)


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


def test_fpt_k3_one_color():
    assert fpt_tf_q_coloring(gen_complete(3), 1) is None


def test_fpt_star_one_color():
    # the cover {0} needs the enumeration at q=1; the leaves lie in no triangle
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert fpt_tf_q_coloring(star, 1) == Coloring(1, (1, 1, 1, 1))


def test_fpt_k4_independent_vertex_avoids_its_monochromatic_pair():
    # the cover {0, 1, 2} takes (1, 1, 2), so vertex 3 must avoid color 1
    assert fpt_tf_q_coloring(gen_complete(4), 2) == Coloring(2, (1, 1, 2, 2))


def test_fpt_backtracks_past_a_cover_coloring_that_does_not_extend(monkeypatch):
    # with the minimum cover 0 1 2 5 6, the first cover coloring, 1 1 2 2 1,
    # blocks vertex 3: triangle 136 forbids color 1 and triangle 235 color 2
    g = Graph(7, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (1, 6), (2, 3),
                  (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)])
    assert len(min_vertex_cover(g)) == 5
    monkeypatch.setattr(fpt, "min_vertex_cover", lambda g: frozenset({0, 1, 2, 5, 6}))
    assert fpt_tf_q_coloring(g, 2) == Coloring(2, (1, 1, 2, 1, 1, 2, 2))


def test_fpt_enumeration_raises_on_a_rejected_witness(monkeypatch):
    # C5 at q=1: a cover of 3 needs the enumeration, not the direct construction
    monkeypatch.setattr(fpt, "verify_triangle_free", lambda g, c, polar=None: False)
    with pytest.raises(RuntimeError):
        fpt_tf_q_coloring(gen_cycle(5), 1)


def test_fpt_colors_each_component_on_its_own():
    # K5 has no 2-coloring, found without going back through the colorings
    # of the K4s before it (one enumeration over the whole cover takes
    # about 50 s here)
    g = disjoint_union(*[gen_complete(4)] * 8, gen_complete(5))
    assert fpt_tf_q_coloring(g, 2) is None
    got = fpt_tf_q_coloring(g, 3)
    assert got is not None and verify_triangle_free(g, got)


def test_fpt_matches_oracle():
    rng = random.Random(33)
    for count, top, ps in ((60, 11, [0.25, 0.5, 0.75]), (40, 12, [0.1, 0.15])):
        for _ in range(count):
            n = rng.randint(1, top)
            g = rand_graph(rng, n, rng.choice(ps))
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


def test_relabelled_clover_stays_correct():
    clover = gen_clover(2)
    for seed in range(5):
        assert relabelled(decide_tf_q, clover, 2, None, seed) is None
        got = relabelled(decide_tf_q, clover, 3, None, seed)
        assert got is not None and verify_triangle_free(clover, got)


def test_compute_params_matches_oracles():
    rng = random.Random(2024)
    for _ in range(200):
        g = rand_graph(rng, rng.randint(0, 9), rng.choice([0.2, 0.4, 0.6, 0.8]))
        p = compute_params(g)
        assert list(p) == ["omega", "chi", "chi3", "vc", "delta"]
        assert p["omega"] == oracle_omega(g)
        assert p["chi"] == oracle_chi(g)
        assert p["chi3"] == oracle_chi3(g)[0]
        assert p["vc"] == brute_min_cover(g)
        assert p["delta"] == g.max_degree


def test_compute_params_reports_a_broken_bound_as_an_internal_error(monkeypatch):
    # on K4 (omega 4, delta 3): chi3 1 breaks ceil(omega/2) <= chi3, and chi 6 breaks chi <= delta+1
    for chi, chi3, message in ((4, 1, "sandwich"), (6, 3, "delta")):
        monkeypatch.setattr(solvers, "solve_chi3", lambda g, polar=None: Coloring(chi if polar else chi3, ()))
        with pytest.raises(RuntimeError, match=f"^internal error: .*{message}"):
            compute_params(gen_complete(4))
