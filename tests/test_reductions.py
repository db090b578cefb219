"""CNF semantics, file formats, the four instance transformations with
witness round trips, each kind's witness contract, the composed
reduction chains, and degree-2 polar instances."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from tfcolor import (
    CnfFormula,
    Coloring,
    Graph,
    ReductionOutput,
    contains_k4,
    decide_tf_q,
    fits_occurrence_limit,
    gen_complete,
    gen_cycle,
    gen_cycle_clique,
    lift_witness,
    nae_satisfies,
    parse_dimacs_cnf,
    pull_witness,
    quotient,
    reduce_nae4_to_polar,
    reduce_nae_to_k4free,
    reduce_q_to_q1,
    reduce_sat4_to_nae4,
    sat_satisfies,
    variable_occurrences,
    verify_triangle_free,
    write_dimacs_cnf,
    write_dimacs_graph,
)
from tfcolor import witness
from tfcolor.graph import read_polar_graph
from util_graphs import (
    cnf_formulas,
    draw_nm_occ4,
    graphs,
    graphs_with_polar,
    nae_dpll,
    oracle_chi3,
    oracle_nae,
    oracle_sat,
    path_graph,
    planted_nae_cnf,
    rand_cnf,
    rand_cnf_occ4,
    relabelled,
)


def test_cnf_validation():
    with pytest.raises(ValueError, match="literals"):
        CnfFormula(2, ((1, 2),))
    with pytest.raises(ValueError, match="literal"):
        CnfFormula(2, ((1, 2, 3),))


def test_nae_semantics():
    phi = CnfFormula(3, ((1, 2, 3),))
    assert nae_satisfies(phi, {1: True, 2: False, 3: False})
    assert not nae_satisfies(phi, {1: True, 2: True, 3: True})
    tripled = CnfFormula(1, ((1, 1, 1),))
    assert oracle_nae(tripled) is None
    chain = CnfFormula(2, ((-1, -1, 2),))
    for a in (False, True):
        for b in (False, True):
            assert nae_satisfies(chain, {1: a, 2: b}) == (a == b)


def test_sat_oracle():
    phi = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    assert oracle_sat(phi) is None
    assert oracle_nae(phi) is None
    phi2 = CnfFormula(2, ((1, 2, 2),))
    a = oracle_sat(phi2)
    assert a is not None and sat_satisfies(phi2, a)


def test_cnf_dimacs_round_trip():
    phi = CnfFormula(3, ((1, -2, 3), (-1, -1, 2)))
    text = write_dimacs_cnf(phi)
    assert parse_dimacs_cnf(text) == phi
    assert parse_dimacs_cnf("c hi\np cnf 2 1\n1 -2 2 0\n").clauses == ((1, -2, 2),)
    # SATLIB files end with a '%' line and a lone 0, which is not a clause
    assert parse_dimacs_cnf("p cnf 3 2\n1 -2 3 0\n-1 2 2 0\n%\n0\n\n") == CnfFormula(3, ((1, -2, 3), (-1, 2, 2)))
    with pytest.raises(ValueError, match="claims"):
        parse_dimacs_cnf("p cnf 2 2\n1 2 2 0\n")
    with pytest.raises(ValueError, match="literals"):
        parse_dimacs_cnf("p cnf 2 1\n1 2 0\n")


@pytest.mark.parametrize("text,msg", [
    ("p cnf x 1\n", "^line 1: .*'x'"),
    ("p cnf 2 1\n1 x 2 0\n", "^line 2: .*'x'"),
    ("c clause first\n1 2 2 0\np cnf 2 1\n", "^line 2: .*header"),
    ("p cnf 2 1\n1 2 2 0\np cnf 2 1\n", "^line 3: .*duplicate header"),
    ("p cnf -2 0\n", "^line 1: .*non-negative"),
    ("p cnf 2 -1\n", "^line 1: .*non-negative"),
])
def test_cnf_rejects_malformed(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_dimacs_cnf(text)


@pytest.mark.parametrize("text,line", [
    ("p cnf 3 1\n1 \u0662 3 0\n", 2), ("p cnf 3 1\n1 +2 3 0\n", 2), ("p cnf 3 1\n1 0_2 3 0\n", 2),
    ("p cnf 3 1\n1 --2 3 0\n", 2), ("p cnf 3 1\n1 2- 3 0\n", 2), ("p cnf +3 1\n1 2 3 0\n", 1),
    ("c\np cnf 3 1\n1 2 \uff13 0\n", 3),
])
def test_cnf_refuses_integers_that_are_not_plain_decimals(text, line):
    # int() alone reads '+2', '\u0662' (Arabic-Indic two) and '0_2' as 2
    with pytest.raises(ValueError, match=f"^line {line}: bad line "):
        parse_dimacs_cnf(text)
    # leading zeros and a leading '-' are decimal
    assert parse_dimacs_cnf("p cnf 03 1\n01 -02 3 0\n") == CnfFormula(3, ((1, -2, 3),))


def test_occurrence_validator():
    phi = CnfFormula(1, ((1, 1, 1), (1, -1, -1)))
    assert variable_occurrences(phi) == {1: 6}
    assert not fits_occurrence_limit(phi)
    # the paper's bound is 4: four occurrences fit, five do not
    assert fits_occurrence_limit(CnfFormula(2, ((1, 1, -1), (-1, 2, 2))))
    assert not fits_occurrence_limit(CnfFormula(2, ((1, 1, -1), (-1, 1, 2))))


def test_rand_cnf_occ4_reaches_the_occurrence_bound():
    # clauses are dealt from a pool of literal slots, so m = 4n/3 needs no retries
    rng = random.Random(1)
    for n in range(1, 31):
        phi = rand_cnf_occ4(rng, n, 4 * n // 3)
        assert phi.num_vars == n and len(phi.clauses) == 4 * n // 3
        assert fits_occurrence_limit(phi)


# --- plain SAT to not-all-equal, occurrence bound preserved


def test_sat4_to_nae4_shape():
    phi = CnfFormula(3, ((1, 2, 3),))
    out = reduce_sat4_to_nae4(phi)
    assert out.instance.num_vars == 3 + 2
    assert len(out.instance.clauses) == 3
    assert fits_occurrence_limit(out.instance)
    assert oracle_nae(out.instance) is not None


def test_sat4_to_nae4_rejects_busy_variable():
    with pytest.raises(ValueError, match="occurs"):
        reduce_sat4_to_nae4(CnfFormula(1, ((1, 1, 1), (1, -1, -1))))


def test_sat4_to_nae4_equivalence_and_round_trip():
    rng = random.Random(81)
    for _ in range(200):
        n, m = draw_nm_occ4(rng, 4, 4)
        phi = rand_cnf_occ4(rng, n, m)
        out = reduce_sat4_to_nae4(phi)
        assert out.instance.num_vars == n + 2 * m
        assert len(out.instance.clauses) == 3 * m
        assert fits_occurrence_limit(out.instance)
        sat = oracle_sat(phi)
        nae = oracle_nae(out.instance)
        assert (sat is None) == (nae is None)
        if sat is not None:
            lifted = lift_witness(out, sat)
            assert nae_satisfies(out.instance, lifted)
            pulled = pull_witness(out, nae)
            assert sat_satisfies(phi, pulled)


def test_sat4_to_nae4_pull_negates_when_flags_true():
    phi = CnfFormula(3, ((1, 2, 3),))
    out = reduce_sat4_to_nae4(phi)
    base = lift_witness(out, oracle_sat(phi))
    flipped = {v: not val for v, val in base.items()}
    assert nae_satisfies(out.instance, flipped)
    pulled = pull_witness(out, flipped)
    assert sat_satisfies(phi, pulled)


# --- not-all-equal SAT to a K4-free graph


def test_nae_to_k4free_shape_and_equivalence():
    phi = CnfFormula(3, ((1, 2, 3),))
    out = reduce_nae_to_k4free(phi)
    g = out.instance
    assert g.n == 3 * 1 + 2 * 3 + 10 * (3 + 3)
    assert not contains_k4(g)
    assert oracle_nae(phi) is not None
    assert decide_tf_q(g, 2) is not None


def test_nae_to_k4free_decide_matches_oracle_nae():
    # the images have hundreds of vertices, so decide_tf_q backjumps
    # outside the small pieces that its decisions cut off
    rng = random.Random(11)
    answers = set()
    for _ in range(40):
        phi = rand_cnf(rng, 4, rng.randint(2, 8))
        if any(len(set(cl)) == 1 for cl in phi.clauses):
            continue
        got = decide_tf_q(reduce_nae_to_k4free(phi).instance, 2)
        assert (got is not None) == (oracle_nae(phi) is not None)
        answers.add(got is not None)
    assert answers == {True, False}


def test_nae_to_k4free_repeated_literal_clause():
    phi = CnfFormula(2, ((1, 1, 2),))
    out = reduce_nae_to_k4free(phi)
    assert (oracle_nae(phi) is not None) == (decide_tf_q(out.instance, 2) is not None)


def test_nae_to_k4free_rejects_tripled_literal():
    with pytest.raises(ValueError, match="repeats"):
        reduce_nae_to_k4free(CnfFormula(1, ((1, 1, 1),)))


def test_nae_to_k4free_equivalence_and_round_trip():
    rng = random.Random(82)
    done = 0
    while done < 40:
        n, m = draw_nm_occ4(rng)
        phi = rand_cnf(rng, n, m)
        if any(len(set(cl)) < 2 for cl in phi.clauses):
            continue
        done += 1
        out = reduce_nae_to_k4free(phi)
        nae = oracle_nae(phi)
        col = decide_tf_q(out.instance, 2)
        assert (nae is None) == (col is None)
        assert not contains_k4(out.instance)
        if nae is not None:
            lifted = lift_witness(out, nae)
            assert verify_triangle_free(out.instance, lifted)
            pulled = pull_witness(out, col)
            assert nae_satisfies(phi, pulled)


@settings(max_examples=200)
@given(cnf_formulas(max_vars=10, max_clauses=30))
def test_nae_dpll_matches_oracle_nae(phi):
    model = nae_dpll(phi)
    assert (model is None) == (oracle_nae(phi) is None)
    if model is not None:
        assert sorted(model) == list(range(1, phi.num_vars + 1)) and nae_satisfies(phi, model)


@st.composite
def threshold_formulas(draw, min_n, max_n):
    """A width-3 formula on n variables and m clauses, m/n from 1.5 to
    3.2, each clause over three distinct variables with drawn signs, so
    both sides of the NAE threshold come up."""
    n = draw(st.integers(min_n, max_n))
    clause = st.tuples(st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True),
                       st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3))
    m = draw(st.integers(-(-3 * n // 2), 16 * n // 5))
    return CnfFormula(n, tuple(tuple(v * s for v, s in zip(*draw(clause))) for _ in range(m)))


def decides_nae_through(phi, q):
    """Decide phi through its K4-free image lifted q-2 times at budget q,
    against nae_dpll, and pull a found coloring back to a model of phi.
    Returns whether phi has one."""
    outs = [reduce_nae_to_k4free(phi)]
    for budget in range(2, q):
        outs.append(reduce_q_to_q1(outs[-1].instance, budget))
    witness = decide_tf_q(outs[-1].instance, q)
    assert (witness is None) == (nae_dpll(phi) is None)
    if witness is not None:
        for out in reversed(outs):
            witness = pull_witness(out, witness)
        assert nae_satisfies(phi, witness)
    return witness is not None


def test_nae_images_are_refuted_exactly_when_the_dpll_finds_no_model():
    # the paper's central instances on both sides of the threshold, past
    # oracle_nae's reach: the images have hundreds of vertices
    answers = set()

    @settings(max_examples=30)
    @given(threshold_formulas(6, 14))
    def check(phi):
        answers.add(decides_nae_through(phi, 2))

    check()
    assert answers == {True, False}


def test_lifted_nae_images_are_refuted_exactly_when_the_dpll_finds_no_model():
    answers = set()

    @settings(max_examples=3)
    @given(threshold_formulas(3, 4))
    def check(phi):
        answers.add(decides_nae_through(phi, 3))

    check()
    assert answers == {True, False}


# --- bounded-occurrence not-all-equal SAT to a degree-3 polar instance


def test_nae4_to_polar_shape():
    phi = CnfFormula(3, ((1, 2, 3),))
    g, _ = reduce_nae4_to_polar(phi).instance
    assert g.n == 3 * 1 + 14 * 3
    assert g.max_degree <= 3


def test_nae4_to_polar_lift_pattern():
    # a true variable colors its occurrences 1 and its tree root 2, with
    # levels alternating below the root
    phi = CnfFormula(3, ((1, 2, 3),))
    out = reduce_nae4_to_polar(phi)
    a = {1: True, 2: False, 3: False}
    assert nae_satisfies(phi, a)
    w = lift_witness(out, a)
    m = len(phi.clauses)
    assert list(w.colors[:3]) == [1, 2, 2]  # slot j of clause 0 is vertex j
    for x in (1, 2, 3):
        # x's true tree is a heap at 3m + 14(x-1), its false tree 7 later;
        # children oppose the root, leaves match it, and the false tree mirrors
        r = 2 if a[x] else 1
        troot = 3 * m + 14 * (x - 1)
        tree = [r, 3 - r, 3 - r, r, r, r, r]
        assert list(w.colors[troot:troot + 14]) == tree + [3 - c for c in tree]


def test_nae4_to_polar_equivalence_and_round_trip():
    rng = random.Random(83)
    for _ in range(40):
        n, m = draw_nm_occ4(rng)
        phi = rand_cnf_occ4(rng, n, m)
        out = reduce_nae4_to_polar(phi)
        g, polar = out.instance
        assert g.max_degree <= 3
        nae = oracle_nae(phi)
        col = decide_tf_q(g, 2, polar=polar)
        assert (nae is None) == (col is None)
        if nae is not None:
            lifted = lift_witness(out, nae)
            assert verify_triangle_free(g, lifted, polar)
            pulled = pull_witness(out, col)
            assert nae_satisfies(phi, pulled)


def test_nae4_to_polar_oracle_cross_check():
    # heavy polar forcing keeps the plain enumeration tractable here
    phi = CnfFormula(3, ((1, 2, 3),))
    g, polar = reduce_nae4_to_polar(phi).instance
    k, w = oracle_chi3(g, polar)
    assert k == 2
    assert verify_triangle_free(g, w, polar)


def test_polar_instance_file_round_trip():
    phi = CnfFormula(2, ((1, -2, 2),))
    inst = reduce_nae4_to_polar(phi).instance
    assert read_polar_graph(write_dimacs_graph(*inst)) == inst
    with pytest.raises(ValueError, match=r"^line 3: .*\(1, 3\) not present"):
        read_polar_graph("p edge 2 1\ne 1 2\ns 1 3\n")
    with pytest.raises(ValueError, match="^line 2: .*'s 1 x'"):
        read_polar_graph("p edge 2 1\ns 1 x\ne 1 2\n")
    with pytest.raises(ValueError, match="^line 3: .*out of range"):
        read_polar_graph("p edge 2 1\ns 1 2\ne 1 3\n")
    # an 's' line before its edge is fine, and it is not an edge itself
    g, polar = read_polar_graph("c polar first\np edge 3 2\ns 2 1\ne 1 2\ne 2 3\n")
    assert g.edges() == [(0, 1), (1, 2)] and polar == {(0, 1)}
    with pytest.raises(ValueError, match=r"^line 4: duplicate edge \(1, 2\)$"):
        read_polar_graph("p edge 2 2\ns 1 2\ne 1 2\ne 2 1\n")
    with pytest.raises(ValueError, match=r"^line 5: polar edge \(2, 4\) not present in graph$"):
        read_polar_graph("p edge 3 2\ns 1 2\ne 1 2\ne 2 3\ns 2 4\n")
    with pytest.raises(ValueError, match="^line 1: .*before the 'p edge' header"):
        read_polar_graph("s 1 2\np edge 2 1\ne 1 2\n")
    with pytest.raises(ValueError, match="^line 1: .*non-negative"):
        read_polar_graph("p edge -3 1\ne 1 2\ns 1 2\n")


@settings(max_examples=200)
@given(graphs_with_polar())
def test_polar_instance_text_round_trip_property(inst):
    # the writer writes each pair as given, the reader returns (min, max) pairs
    g, polar = inst
    pair = (g, frozenset((min(e), max(e)) for e in polar))
    text = write_dimacs_graph(*pair)
    back = read_polar_graph(text)
    assert back == pair
    assert write_dimacs_graph(*back) == text


@settings(max_examples=100)
@given(cnf_formulas())
def test_nae4_to_polar_instance_is_what_its_text_reads_back(phi):
    assume(fits_occurrence_limit(phi))
    out = reduce_nae4_to_polar(phi)
    assert read_polar_graph(write_dimacs_graph(*out.instance)) == out.instance


# --- budget increment


def test_q_to_q1_counts():
    out = reduce_q_to_q1(gen_complete(3), 2)
    assert out.instance.n == 43
    with pytest.raises(ValueError):
        reduce_q_to_q1(gen_complete(3), 1)
    # the empty graph raises to the hub alone: n(5q+4)+1 = 1 vertex
    out = reduce_q_to_q1(Graph(0, []), 2)
    assert write_dimacs_graph(out.instance) == "p edge 1 0\n"
    lifted = lift_witness(out, Coloring(2, ()))
    assert lifted == Coloring(3, (3,))
    assert pull_witness(out, lifted) == Coloring(2, ())


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8), st.integers(2, 4))
def test_q_to_q1_matches_the_construction_by_identification(g, q):
    # the construction as the paper states it: g, a hub u and n disjoint
    # (q+1)-cycle-cliques; each copy's vertex 0 merges into u and copy i's
    # vertex 1 into source vertex i
    n, cc = g.n, gen_cycle_clique(q + 1)
    offsets = range(n + 1, n + 1 + cc.n * n, cc.n)
    union = Graph(n + 1 + cc.n * n, g.edges() + [(a + off, b + off) for off in offsets for a, b in cc.edges()])
    pairs = [(n, off) for off in offsets] + [(i, off + 1) for i, off in enumerate(offsets)]
    assert reduce_q_to_q1(g, q).instance == quotient(union, pairs)[0]


def test_q_to_q1_witness_round_trip():
    g = gen_complete(3)
    out = reduce_q_to_q1(g, 2)
    base = decide_tf_q(g, 2)
    lifted = lift_witness(out, base)
    assert lifted.k == 3 and verify_triangle_free(out.instance, lifted)
    got = decide_tf_q(out.instance, 3)
    pulled = pull_witness(out, got)
    assert pulled.k == 2 and verify_triangle_free(g, pulled)


def test_q_to_q1_infeasible_source():
    # a 3-clique pair needs 2 colors; the 5-clique needs 3, so its
    # raised instance is not 3-colorable triangle-free when q=2
    k5 = gen_complete(5)
    out = reduce_q_to_q1(k5, 2)
    assert decide_tf_q(k5, 2) is None
    assert decide_tf_q(out.instance, 3) is None


def test_q_to_q1_forces_hub_color_apart():
    g = gen_cycle(5)
    out = reduce_q_to_q1(g, 2)
    hub = g.n  # the hub follows the source vertices, which keep their indices
    for seed in range(5):
        w = relabelled(decide_tf_q, out.instance, 3, None, seed)
        assert w is not None
        for v in range(g.n):
            assert w.colors[v] != w.colors[hub]


# --- witness round trips and large inputs


@settings(max_examples=100)
@given(cnf_formulas())
def test_sat4_to_nae4_lift_pull_round_trip(phi):
    assume(fits_occurrence_limit(phi))
    w = oracle_sat(phi)
    assume(w is not None)
    out = reduce_sat4_to_nae4(phi)
    assert pull_witness(out, lift_witness(out, w)) == w


@settings(max_examples=100)
@given(cnf_formulas())
def test_nae_to_k4free_lift_pull_round_trip(phi):
    assume(all(len(set(cl)) > 1 for cl in phi.clauses))
    w = oracle_nae(phi)
    assume(w is not None)
    out = reduce_nae_to_k4free(phi)
    assert pull_witness(out, lift_witness(out, w)) == w


@settings(max_examples=100)
@given(cnf_formulas())
def test_nae4_to_polar_lift_pull_round_trip(phi):
    assume(fits_occurrence_limit(phi))
    w = oracle_nae(phi)
    assume(w is not None)
    out = reduce_nae4_to_polar(phi)
    assert pull_witness(out, lift_witness(out, w)) == w


@settings(max_examples=50)
@given(graphs(max_n=6))
def test_q_to_q1_lift_pull_round_trip(g):
    assume(g.n > 0)
    k, w = oracle_chi3(g)
    q = max(k, 2)
    w = Coloring(q, w.colors)
    out = reduce_q_to_q1(g, q)
    assert pull_witness(out, lift_witness(out, w)) == w


# --- the witness contract of each kind, and the composed chains


def contract_case(kind):
    """(out, a source witness, source non-witnesses, target non-witnesses)
    of a small reduction of the given kind. A coloring fails once a vertex
    short and once a vertex long, once with one vertex moved to a fresh
    color, which makes no monochromatic triangle or polar edge, and once
    all in one color; an assignment fails once a witness short of its
    last variable."""
    def refused(c):
        return [Coloring(c.k, c.colors[:-1]), Coloring(c.k, c.colors + (1,)),
                Coloring(c.k + 1, (c.k + 1,) + c.colors[1:]), Coloring(c.k, (1,) * len(c))]

    def short(a):
        return {x: a[x] for x in a if x != max(a)}

    phi = CnfFormula(3, ((1, 2, 3), (-1, 2, -3)))
    if kind == "q_to_q1":
        g = gen_complete(3)
        out, source = reduce_q_to_q1(g, 2), decide_tf_q(g, 2)
        return out, source, refused(source), refused(lift_witness(out, source))
    if kind == "sat4_to_nae4":
        out, source = reduce_sat4_to_nae4(phi), oracle_sat(phi)
        every = dict.fromkeys(range(1, out.instance.num_vars + 1), True)
        return out, source, [short(source), dict.fromkeys((1, 2, 3), False)], [short(lift_witness(out, source)), every]
    out = (reduce_nae_to_k4free if kind == "nae_to_k4free" else reduce_nae4_to_polar)(phi)
    source = oracle_nae(phi)
    return out, source, [short(source), dict.fromkeys((1, 2, 3), True)], refused(lift_witness(out, source))


KINDS = ["sat4_to_nae4", "nae_to_k4free", "nae4_to_polar", "q_to_q1"]


@pytest.mark.parametrize("kind", KINDS)
def test_lift_and_pull_refuse_a_non_witness(kind):
    out, source, bad_sources, bad_targets = contract_case(kind)
    assert out.kind == kind and pull_witness(out, lift_witness(out, source))
    for w in bad_sources:
        with pytest.raises(ValueError, match=f"^{kind}: .* source instance$"):
            lift_witness(out, w)
    for w in bad_targets:
        with pytest.raises(ValueError, match=f"^{kind}: .* target instance$"):
            pull_witness(out, w)


def test_a_variable_in_no_clause_still_needs_a_value():
    phi = CnfFormula(4, ((1, 2, 3),))
    for reduce in (reduce_sat4_to_nae4, reduce_nae_to_k4free, reduce_nae4_to_polar):
        with pytest.raises(ValueError, match="source instance$"):
            lift_witness(reduce(phi), {1: True, 2: False, 3: False})


@pytest.mark.parametrize("kind", KINDS)
def test_a_translation_to_a_non_witness_is_a_reduction_bug(kind, monkeypatch):
    out, source, bad_sources, bad_targets = contract_case(kind)
    lift, pull, source_ok, target_ok = witness._CONTRACTS[kind]
    target = lift_witness(out, source)
    monkeypatch.setitem(witness._CONTRACTS, kind, (lambda o, w: bad_targets[-1], pull, source_ok, target_ok))
    with pytest.raises(RuntimeError, match=f"^reduction bug: {kind} carried a source witness"):
        lift_witness(out, source)
    monkeypatch.setitem(witness._CONTRACTS, kind, (lift, lambda o, w: bad_sources[-1], source_ok, target_ok))
    with pytest.raises(RuntimeError, match=f"^reduction bug: {kind} carried a target witness"):
        pull_witness(out, target)


def test_an_unknown_kind_has_no_contract():
    out = ReductionOutput("x", None, None)
    for carry in (lift_witness, pull_witness):
        with pytest.raises(KeyError):
            carry(out, {})


CHAIN_FORMULAS = [
    CnfFormula(3, ((1, 2, 3), (1, 2, -3), (1, -2, 3), (1, -2, -3))),  # satisfiable, never not-all-equal
    CnfFormula(3, ((1, 1, 1), (-1, 2, 2), (-2, -2, 3), (-3, -3, -3))),  # unsatisfiable
    CnfFormula(4, ((1, -2, 3), (-1, 2, 4), (-3, -4, 2))),
    CnfFormula(4, ((1, 2, 3), (-1, -2, 4), (2, -3, -4), (1, 3, 4))),
]


@pytest.mark.parametrize("phi", CHAIN_FORMULAS)
def test_composed_chains_pull_back_to_a_source_witness(phi):
    # sat4 -> nae4 -> polar: lift twice, decide the polar instance, pull twice
    to_nae = reduce_sat4_to_nae4(phi)
    to_polar = reduce_nae4_to_polar(to_nae.instance)
    sat = oracle_sat(phi)
    if sat is not None:
        assert lift_witness(to_polar, lift_witness(to_nae, sat))
    g, polar = to_polar.instance
    got = decide_tf_q(g, 2, polar=polar)
    assert (got is None) == (sat is None)
    if got is not None:
        assert sat_satisfies(phi, pull_witness(to_nae, pull_witness(to_polar, got)))
    # nae -> k4free -> q+1 at q=2: lift, decide at 3, pull twice
    if any(len(set(cl)) == 1 for cl in phi.clauses):
        return
    to_graph = reduce_nae_to_k4free(phi)
    raised = reduce_q_to_q1(to_graph.instance, 2)
    nae = oracle_nae(phi)
    if nae is not None:
        assert lift_witness(raised, lift_witness(to_graph, nae))
    got = decide_tf_q(raised.instance, 3)
    assert (got is None) == (nae is None)
    if got is not None:
        assert nae_satisfies(phi, pull_witness(to_graph, pull_witness(raised, got)))


def test_nae_reductions_on_large_planted_formula():
    # both used to rescan every clause for every variable
    phi = planted_nae_cnf(random.Random(85), 3000)
    n, m = phi.num_vars, len(phi.clauses)
    assert fits_occurrence_limit(phi)
    g, polar = reduce_nae4_to_polar(phi).instance
    assert g.n == 3 * m + 14 * n and g.max_degree <= 3
    assert len(polar) == 13 * n + 3 * m
    assert reduce_nae_to_k4free(phi).instance.n == 33 * m + 12 * n


# --- degree-2 polar instances, decided by the one search engine


def test_polar_small_degree_examples():
    c5 = gen_cycle(5)
    assert decide_tf_q(c5, 2, c5.edges()) is None
    c6 = gen_cycle(6)
    got = decide_tf_q(c6, 2, c6.edges())
    assert got is not None and verify_triangle_free(c6, got, c6.edges())
    p = path_graph(6)
    got = decide_tf_q(p, 2, [(1, 2), (3, 4)])
    assert got is not None and verify_triangle_free(p, got, [(1, 2), (3, 4)])


def test_polar_small_degree_triangle_component():
    c3 = gen_cycle(3)
    got = decide_tf_q(c3, 2, frozenset())
    assert got is not None and len(set(got.colors)) == 2


def test_polar_small_degree_at_scale():
    # an odd cycle with every edge polar has no polar 2-coloring; an even one
    # with any polar subset has one
    odd = gen_cycle(10001)
    assert decide_tf_q(odd, 2, odd.edges()) is None
    even = gen_cycle(10000)
    rng = random.Random(86)
    polar = [e for e in even.edges() if rng.random() < 0.7]
    got = decide_tf_q(even, 2, polar)
    assert got is not None and got.k == 2 and verify_triangle_free(even, got, polar)
