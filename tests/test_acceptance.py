"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see
them). Expected values come from independent enumeration oracles, never
from the optimized solver under test.

The clique-bound monitor (criterion 13) reports graphs above the
ceil(omega/2)+1 ceiling. That ceiling cannot hold in general: by
Folkman's vertex theorem (1970), for every r some K4-free graph has a
monochromatic triangle in each of its r-colorings, so chi3 is unbounded
on K4-free graphs. A sighting is therefore logged loudly but is never a
suite failure; none shows up on the sampled graphs of n <= 9.
"""

import random
from functools import lru_cache
from itertools import combinations, product

from tfcolor import (
    CnfFormula,
    chordal_chi3,
    connected_components,
    contains_k4,
    decide_tf_q,
    fpt_tf_q_coloring,
    gen_clover,
    gen_complete,
    gen_cycle,
    gen_cycle_clique,
    gen_gadget_triangle,
    gen_mycielski,
    gen_polar_gadget,
    lift_witness,
    oracle_omega,
    pull_witness,
    reduce_nae4_to_polar,
    reduce_nae_to_k4free,
    reduce_q_to_q1,
    reduce_sat4_to_nae4,
    solve_chi3,
    variable_occurrences,
    verify_triangle_free,
)
from util_graphs import (
    brute_triangles,
    draw_nm_occ4,
    oracle_chi,
    oracle_chi3,
    oracle_nae,
    oracle_sat,
    path_graph,
    rand_cnf,
    rand_cnf_occ4,
    rand_graph,
    random_ktree,
    relabelled,
)


def report(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_polar_gadget_certification():
    g = gen_polar_gadget()
    tris = sorted(brute_triangles(g))
    exists_tf = False
    forced_apart = True
    for mask in range(1 << g.n):
        tf = all(
            ((mask >> a) ^ (mask >> b)) & 1 or ((mask >> a) ^ (mask >> c)) & 1
            for a, b, c in tris
        )
        if tf:
            exists_tf = True
            if ((mask >> 0) ^ (mask >> 1)) & 1 == 0:
                forced_apart = False
    ok = exists_tf and forced_apart and not contains_k4(g)
    report(1, "gadget certification", ok)


def test_02_cycle_clique_rainbow():
    g = gen_cycle_clique(2)
    tris = sorted(brute_triangles(g))
    ok = True
    saw_tf = False
    for mask in range(1 << g.n):
        tf = all(
            ((mask >> a) ^ (mask >> b)) & 1 or ((mask >> a) ^ (mask >> c)) & 1
            for a, b, c in tris
        )
        if tf:
            saw_tf = True
            for a in range(0, g.n, 2):  # joint i is the vertex pair 2i, 2i + 1
                b = a + 1
                if ((mask >> a) ^ (mask >> b)) & 1 == 0:
                    ok = False
    report(2, "cycle-clique joints rainbow", ok and saw_tf)


def test_03_clover_extremality():
    clover = gen_clover(2)
    infeasible = decide_tf_q(clover, 2) is None
    witness = decide_tf_q(clover, 3)
    ok = (
        infeasible
        and witness is not None
        and verify_triangle_free(clover, witness)
        and oracle_omega(clover) == 4
    )
    report(3, "clover extremality (k=2)", ok)


def test_03b_clover_extremality_k3():
    clover = gen_clover(3)
    infeasible = decide_tf_q(clover, 3) is None
    witness = decide_tf_q(clover, 4)
    ok = (
        infeasible
        and witness is not None
        and verify_triangle_free(clover, witness)
        and oracle_omega(clover) == 6
    )
    report(3, "clover extremality (k=3)", ok)


def test_03c_clover_extremality_k4_k5():
    # the twin nogoods in decide_tf_q make these infeasibility proofs fast
    ok = True
    for k in (4, 5):
        clover = gen_clover(k)
        witness = decide_tf_q(clover, k + 1)
        ok = ok and (
            decide_tf_q(clover, k) is None
            and witness is not None
            and verify_triangle_free(clover, witness)
            and oracle_omega(clover) == 2 * k
        )
    ring = gen_cycle_clique(5)
    chi3, witness = solve_chi3(ring)
    ok = ok and chi3 == 5 and verify_triangle_free(ring, witness)
    report(3, "clover extremality (k=4, 5), cycle-clique(5) chi3", ok)


def test_04_gadget_triangle():
    g = gen_gadget_triangle()
    witness = decide_tf_q(g, 3)
    ok = (
        decide_tf_q(g, 2) is None
        and witness is not None
        and verify_triangle_free(g, witness)
        and not contains_k4(g)
        and oracle_omega(g) == 3
    )
    report(4, "three-gadget triangle needs a third color", ok)


@lru_cache(maxsize=1)
def bound_sample():
    """500 seeded random graphs with their exact parameters; shared by
    the bound sandwich and the clique-bound monitor."""
    rng = random.Random(20240503)
    records = []
    for i in range(500):
        n = 1 + i % 9
        g = rand_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        records.append(
            {
                "g": g,
                "omega": oracle_omega(g),
                "chi": oracle_chi(g),
                "chi3": oracle_chi3(g)[0],
                "delta": g.max_degree,
                "connected": len(connected_components(g)) == 1,
            }
        )
    return tuple(records)


def test_05_bound_sandwich_and_degree_bound():
    violations = 0
    for rec in bound_sample():
        if not ((rec["omega"] + 1) // 2 <= rec["chi3"] <= (rec["chi"] + 1) // 2):
            violations += 1
        complete = rec["omega"] == rec["g"].n
        # the degree bound rides on the classic coloring bound, whose
        # hypotheses need a connected, non-complete-odd input
        if rec["g"].n > 3 and rec["connected"] and not (complete and rec["g"].n % 2 == 1):
            if rec["chi3"] > (rec["delta"] + 1) // 2:
                violations += 1
    report(5, "bound sandwich + degree bound on 500 graphs", violations == 0)


def test_06_mycielski_gap():
    g = gen_mycielski(2)
    ok = oracle_chi3(g)[0] == 1 and oracle_chi(g) == 4
    report(6, "triangle-free iterate with chromatic number 4", ok)


def test_07_every_color_exactly_twice():
    ok = True
    for k in (1, 2, 3):
        n = 2 * k
        tris = list(combinations(range(n), 3))
        for assign in product(range(1, k + 1), repeat=n):
            if any(assign[a] == assign[b] == assign[c] for a, b, c in tris):
                continue
            if any(assign.count(x) != 2 for x in range(1, k + 1)):
                ok = False
    report(7, "complete-graph colorings pair up", ok)


def test_08_fpt_matches_oracle():
    rng = random.Random(20240508)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 12)
        g = rand_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        best, _ = oracle_chi3(g)
        for q in (1, 2, 3):
            got = fpt_tf_q_coloring(g, q)
            if (got is not None) != (best <= q):
                ok = False
            if got is not None and not verify_triangle_free(g, got):
                ok = False
    report(8, "cover-parameterized algorithm matches oracle", ok)


def test_09_chordal_pipeline():
    rng = random.Random(20240509)
    ok = True
    for _ in range(200):
        g = random_ktree(rng, rng.randint(1, 3), rng.randint(1, 10))
        k, w = chordal_chi3(g)
        if k != oracle_chi3(g)[0] or not verify_triangle_free(g, w):
            ok = False
    report(9, "chordal pipeline matches oracle", ok)


def _structured_formulas():
    """All width-3 clause multisets over variables {1,2,3}, combined
    into formulas of up to three clauses, filtered to the 4-occurrence
    budget the transformation requires."""
    lits = (1, -1, 2, -2, 3, -3)
    clauses = sorted(set(tuple(sorted(c)) for c in product(lits, repeat=3)))
    for m in (1, 2, 3):
        for combo in combinations(range(len(clauses)), m):
            phi = CnfFormula(3, tuple(clauses[i] for i in combo))
            if all(c <= 4 for c in variable_occurrences(phi).values()):
                yield phi


def test_10a_satisfiability_to_not_all_equal():
    ok = True
    count = 0
    for phi in _structured_formulas():
        count += 1
        out = reduce_sat4_to_nae4(phi)
        sat = oracle_sat(phi)
        nae = oracle_nae(out.instance)
        if (sat is None) != (nae is None):
            ok = False
        if sat is not None:
            lift_witness(out, sat)
            pull_witness(out, nae)
    rng = random.Random(20241001)
    for _ in range(200):
        n, m = draw_nm_occ4(rng, 4, 4)
        phi = rand_cnf_occ4(rng, n, m)
        out = reduce_sat4_to_nae4(phi)
        if (oracle_sat(phi) is None) != (oracle_nae(out.instance) is None):
            ok = False
    report(10, f"a: SAT <-> not-all-equal on {count}+200 formulas", ok)


def test_10b_not_all_equal_to_k4free():
    rng = random.Random(20241002)
    ok = True
    done = 0
    while done < 120:
        n, m = draw_nm_occ4(rng)
        phi = rand_cnf(rng, n, m)
        if any(len(set(cl)) < 2 for cl in phi.clauses):
            continue
        done += 1
        out = reduce_nae_to_k4free(phi)
        if contains_k4(out.instance):
            ok = False
        nae = oracle_nae(phi)
        col = decide_tf_q(out.instance, 2)
        if (nae is None) != (col is None):
            ok = False
        if nae is not None:
            lift_witness(out, nae)
            pull_witness(out, col)
    report(10, "b: not-all-equal <-> 2-coloring without 4-cliques", ok)


def test_10c_not_all_equal_to_polar():
    rng = random.Random(20241003)
    ok = True
    for _ in range(120):
        n, m = draw_nm_occ4(rng)
        phi = rand_cnf_occ4(rng, n, m)
        out = reduce_nae4_to_polar(phi)
        g, polar = out.instance
        if g.max_degree > 3:
            ok = False
        nae = oracle_nae(phi)
        col = decide_tf_q(g, 2, polar=polar)
        if (nae is None) != (col is None):
            ok = False
        if nae is not None:
            lift_witness(out, nae)
            pull_witness(out, col)
    report(10, "c: not-all-equal <-> degree-3 polar instance", ok)


def test_11_budget_increment_on_triangle():
    g = gen_complete(3)
    out = reduce_q_to_q1(g, 2)
    ok = out.instance.n == 43
    base = decide_tf_q(g, 2)
    lifted = lift_witness(out, base)
    ok = ok and verify_triangle_free(out.instance, lifted)
    hub = g.n  # the hub follows the source vertices, which keep their indices
    for seed in range(20):
        w = relabelled(decide_tf_q, out.instance, 3, None, seed)
        if w is None or not verify_triangle_free(out.instance, w):
            ok = False
            break
        if any(w.colors[v] == w.colors[hub] for v in range(3)):
            ok = False
            break
    report(11, "budget increment forces fresh hub color", ok)


def has_odd_all_polar_cycle(g, polar):
    # at maximum degree 2, a component with as many edges as vertices is a cycle
    for comp in connected_components(g):
        edges = [(u, v) for u in comp for v in g.neighbors(u) if u < v]
        odd_cycle = len(edges) == len(comp) and len(comp) % 2 == 1
        if odd_cycle and polar.issuperset(edges):
            return True
    return False


def test_12_small_degree_polar_decision():
    # the paper's polynomial side of the polar dichotomy (maximum degree 2):
    # a triangle-free polar 2-coloring exists unless some component is an
    # odd cycle with every edge polar, and the one search engine decides it
    ok = True
    cases = [path_graph(n) for n in range(1, 10)]
    cases += [gen_cycle(n) for n in range(3, 10)]
    for g in cases:
        edges = g.edges()
        for mask in range(1 << len(edges)):
            polar = frozenset(edges[i] for i in range(len(edges)) if mask >> i & 1)
            got = decide_tf_q(g, 2, polar)
            best, _ = oracle_chi3(g, polar)
            feasible = got is not None
            if feasible != (best <= 2) or feasible == has_odd_all_polar_cycle(g, polar):
                ok = False
            if got is not None and not (got.k == 2 and verify_triangle_free(g, got, polar or None)):
                ok = False
    report(12, "degree-2 polar decision is exact", ok)


def test_13_clique_bound_monitor():
    """Logs each sampled graph with chi3 > ceil(omega/2)+1. Folkman's
    vertex theorem makes such graphs exist (chi3 is unbounded on K4-free
    graphs), so a sighting does not fail the suite; the 500 graphs of
    n <= 9 hold none."""
    sightings = [
        rec for rec in bound_sample()
        if rec["chi3"] > (rec["omega"] + 1) // 2 + 1
    ]
    for rec in sightings:
        print(
            "CLIQUE-BOUND MONITOR: counterexample found! "
            f"n={rec['g'].n} edges={rec['g'].edges()} "
            f"chi3={rec['chi3']} omega={rec['omega']}"
        )
    print(f"ACCEPTANCE 13 clique-bound monitor: {len(sightings)} sighting(s) on 500 graphs")
    assert True
