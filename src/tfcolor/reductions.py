"""CNF machinery (parsing and writing, occurrence counts) and the four
instance transformations, each checking its own output; witness.py
translates witnesses and holds CNF truth.

Literals are nonzero signed integers over 1-based variables, DIMACS
style.
"""

from .graph import Graph, Record, contains_k4


class CnfFormula(Record):
    """Width-3 CNF: every clause is exactly three signed literals;
    repeated literals inside a clause are allowed."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple):
        super().__init__(num_vars, tuple(tuple(cl) for cl in clauses))
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
        for i, cl in enumerate(self.clauses):
            if len(cl) != 3:
                raise ValueError(f"clause {i + 1} has {len(cl)} literals, expected exactly 3")
            for lit in cl:
                if lit == 0 or not (1 <= abs(lit) <= self.num_vars):
                    raise ValueError(f"clause {i + 1} holds invalid literal {lit}")


class ReductionOutput(Record):
    """What a reduction was called with (source: the CnfFormula, or the
    pair (g, q) for q_to_q1) and what it produced (instance). Each
    reduce_* docstring states where the parts of the source sit in the
    instance; witness.py computes positions from that layout."""

    __slots__ = ("kind", "source", "instance")

    def __init__(self, kind: str, source: object, instance: object):
        super().__init__(kind, source, instance)


def variable_occurrences(phi: CnfFormula) -> dict:
    """Total occurrence count per variable, every literal slot counted."""
    occ = {v: 0 for v in range(1, phi.num_vars + 1)}
    for cl in phi.clauses:
        for l in cl:
            occ[abs(l)] += 1
    return occ


def _literal_slots(phi: CnfFormula) -> dict:
    """literal -> the clause-triangle vertices 3i + j holding it, in
    clause order."""
    slots = {}
    for i, cl in enumerate(phi.clauses):
        for j, lit in enumerate(cl):
            slots.setdefault(lit, []).append(3 * i + j)
    return slots


def _clause_triangles(m: int) -> list:
    """The edges of m clause triangles: slot j of clause i is vertex
    3i + j, and each clause's three slots are pairwise joined."""
    return [e for a in range(0, 3 * m, 3) for e in ((a, a + 1), (a + 1, a + 2), (a, a + 2))]


def _host_edges(phi: CnfFormula) -> list:
    """The edges that reduce_nae_to_k4free forces bichromatic, in gadget
    order: every {t_x, f_x}, then for each variable x in turn the edges
    from t_x to the occurrences of ~x and from f_x to those of x."""
    n, first = phi.num_vars, 3 * len(phi.clauses)
    slots = _literal_slots(phi)
    edges = [(first + 2 * x - 2, first + 2 * x - 1) for x in range(1, n + 1)]
    for x in range(1, n + 1):
        t = first + 2 * x - 2
        edges += [(t, vtx) for vtx in slots.get(-x, ())]
        edges += [(t + 1, vtx) for vtx in slots.get(x, ())]
    return edges


def fits_occurrence_limit(phi: CnfFormula) -> bool:
    """No variable occurs more than 4 times, the paper's bound."""
    return all(c <= 4 for c in variable_occurrences(phi).values())


# ---------------------------------------------------------------------------
# file formats


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Width-3 clauses terminated by 0 under a 'p cnf N M' header, read
    by dimacs.dimacs_rows, so a '%' line ends the input as in the SATLIB
    files that trail it with a lone 0."""
    from .dimacs import dimacs_rows  # graph readers and --to q+1 never load the grammar

    rows = dimacs_rows(text, "cnf")
    num_vars, num_clauses = next(rows)[1]
    clauses = [[]]  # each 0 closes the last clause and opens the next
    for _, row in rows:
        for t in row:
            if t == 0:
                clauses.append([])
            else:
                clauses[-1].append(t)
    if clauses.pop():
        raise ValueError("final clause is not terminated by 0")
    if num_clauses != len(clauses):
        raise ValueError(f"header claims {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def write_dimacs_cnf(phi: CnfFormula) -> str:
    lines = [f"p cnf {phi.num_vars} {len(phi.clauses)}"]
    for cl in phi.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# width-3 SAT with bounded occurrences -> not-all-equal with the same bound


def reduce_sat4_to_nae4(phi: CnfFormula) -> ReductionOutput:
    """Rewrite a width-3, at-most-4-occurrence formula so that plain
    satisfiability becomes not-all-equal satisfiability, preserving the
    occurrence bound.

    Each clause (x|y|z) becomes (x|y|c_i) and (z|~c_i|f_i); the flag
    variables are chained by (~f_i|~f_i|f_{i+1}) clauses (cyclically), so
    all flags take one shared value and each chain clause is always
    not-all-equal. Output: n+2m variables, exactly 3m clauses; the source
    variables keep their numbers, c_i is n+1+i and f_i is n+m+1+i for
    0-based clause i.
    """
    if not fits_occurrence_limit(phi):
        raise ValueError("a variable occurs more than 4 times")
    n, m = phi.num_vars, len(phi.clauses)
    cvar = [n + 1 + i for i in range(m)]
    fvar = [n + m + 1 + i for i in range(m)]
    clauses = []
    for i, (x, y, z) in enumerate(phi.clauses):
        clauses.append((x, y, cvar[i]))
        clauses.append((z, -cvar[i], fvar[i]))
    if m:
        clauses.append((-fvar[m - 1], -fvar[m - 1], fvar[0]))
        for i in range(m - 1):
            clauses.append((-fvar[i], -fvar[i], fvar[i + 1]))
    out = CnfFormula(n + 2 * m, tuple(clauses))
    if not fits_occurrence_limit(out):
        raise RuntimeError("internal error: construction exceeded the occurrence budget")
    return ReductionOutput("sat4_to_nae4", phi, out)


# ---------------------------------------------------------------------------
# not-all-equal SAT -> triangle-free 2-coloring of a K4-free graph


def reduce_nae_to_k4free(phi: CnfFormula) -> ReductionOutput:
    """Encode not-all-equal satisfiability as triangle-free
    2-colorability of a graph without 4-cliques.

    Each clause becomes a triangle on per-occurrence literal vertices;
    each variable gets an edge {t_x, f_x}; every occurrence is tied to
    the opposite polarity endpoint. Every non-clause edge is then forced
    bichromatic by attaching a fresh bichromatic-edge gadget across it.
    Clauses of three identical literals are rejected (they are never
    not-all-equal satisfiable). Output: 33m + 12n vertices. Slot j of
    clause i is vertex 3i + j; t_x is 3m + 2(x-1) and f_x is t_x + 1;
    gadget g lies across the g-th edge of _host_edges(phi), with private
    label l at vertex 3m + 2n + 10g + l - 2.
    """
    for i, cl in enumerate(phi.clauses):
        if len(set(cl)) < 2:
            raise ValueError(f"clause {i + 1} repeats one literal three times and is never not-all-equal satisfiable")
    from .gadgets import gadget_edges_across

    m = len(phi.clauses)
    first = 3 * m + 2 * phi.num_vars
    forced_edges = _host_edges(phi)
    gadget_edges = [e for g, (u, v) in enumerate(forced_edges) for e in gadget_edges_across(u, v, first + 10 * g)]
    graph = Graph(first + 10 * len(forced_edges), _clause_triangles(m) + forced_edges + gadget_edges)
    if contains_k4(graph):
        raise RuntimeError("reduction bug: output graph contains a 4-clique")
    return ReductionOutput("nae_to_k4free", phi, graph)


# ---------------------------------------------------------------------------
# bounded-occurrence not-all-equal SAT -> degree-3 polar instance


def reduce_nae4_to_polar(phi: CnfFormula) -> ReductionOutput:
    """Encode a width-3, at-most-4-occurrence formula as a polar
    triangle-free 2-coloring instance of maximum degree 3.

    Clause triangles are plain edges; each variable carries two
    height-2 complete binary trees (7 vertices each) whose edges,
    root-to-root bridge and occurrence-to-leaf edges are all polar, so
    leaf colors mirror the roots and same-polarity occurrences agree.
    Output: 3m + 14n vertices. Slot j of clause i is vertex 3i + j; x's
    true tree is a heap at 3m + 14(x-1) (node i at base + i, children
    2i+1 and 2i+2, leaves 3..6 take x's occurrences in clause order) and
    its false tree, which takes ~x's, is the same 7 vertices later.
    The instance is the pair (graph, polar) that graph.read_polar_graph
    returns for its DIMACS text; every polar pair is already (min, max).
    """
    if not fits_occurrence_limit(phi):
        raise ValueError("a variable occurs more than 4 times")
    n, m = phi.num_vars, len(phi.clauses)
    slots = _literal_slots(phi)
    polar = []
    for x in range(1, n + 1):
        t = 3 * m + 14 * (x - 1)
        f = t + 7
        for b, lit in ((t, x), (f, -x)):
            polar += [(b + i, b + 2 * i + c) for i in range(3) for c in (1, 2)]
            polar += [(vtx, b + 3 + idx) for idx, vtx in enumerate(slots.get(lit, ()))]
        polar.append((t, f))

    graph = Graph(3 * m + 14 * n, _clause_triangles(m) + polar)
    if graph.max_degree > 3:
        raise RuntimeError("reduction bug: output degree exceeds 3")
    return ReductionOutput("nae4_to_polar", phi, (graph, frozenset(polar)))


# ---------------------------------------------------------------------------
# budget increment: q colors -> q+1 colors


def reduce_q_to_q1(g: Graph, q: int) -> ReductionOutput:
    """Attach one (q+1)-cycle-clique per vertex, merge one designated
    joint vertex of every clique into a single hub u, and identify each
    original vertex with another vertex of its clique's first joint. In
    every triangle-free (q+1)-coloring the first joints are rainbow, so
    every original vertex avoids the hub color: the original graph is
    triangle-free q-colorable iff the output is (q+1)-colorable. Output
    has n(5q+4)+1 vertices. With k = q+1, source vertex v keeps index v
    and the hub is n; clique i puts cycle-clique vertex 0 at the hub,
    vertex 1 at i and vertex t >= 2 at n + 1 + i(5k-2) + t - 2.
    """
    if q < 2:
        raise ValueError("color budget must be at least 2")
    from .gadgets import gen_cycle_clique

    n, span = g.n, 5 * q + 3  # span: the vertices a clique adds besides the hub and its source vertex
    cc_edges = gen_cycle_clique(q + 1).edges()
    edges = g.edges()
    for i in range(n):
        base = n + 1 + span * i
        place = (n, i, *range(base, base + span))
        edges += [(place[a], place[b]) for a, b in cc_edges]
    return ReductionOutput("q_to_q1", (g, q), Graph(n + 1 + span * n, edges))
