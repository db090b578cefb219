"""CNF machinery (parsing, SAT and not-all-equal brute-force oracles)
and the four instance transformations with bidirectional witness
translation.

Literals are nonzero signed integers over 1-based variables, DIMACS
style. Assignments are dicts variable -> bool.
"""

from __future__ import annotations

from .coloring import Coloring, verify_triangle_free
from .gadgets import gadget_edges_across, gen_cycle_clique
from .graph import (
    Graph,
    Record,
    as_edge_subset,
    contains_k4,
    dimacs_rows,
    quotient,
    read_polar_graph,
    write_dimacs_graph,
)


class CnfFormula(Record):
    """Width-3 CNF: every clause is exactly three signed literals;
    repeated literals inside a clause are allowed."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple):
        super().__init__(num_vars, clauses)
        object.__setattr__(self, "clauses", tuple(tuple(cl) for cl in self.clauses))
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
        for i, cl in enumerate(self.clauses):
            if len(cl) != 3:
                raise ValueError(f"clause {i + 1} has {len(cl)} literals, expected exactly 3")
            for lit in cl:
                if lit == 0 or not (1 <= abs(lit) <= self.num_vars):
                    raise ValueError(f"clause {i + 1} holds invalid literal {lit}")


class PolarInstance(Record):
    """A graph plus the subset of its edges that must be bichromatic."""

    __slots__ = ("graph", "polar")

    def __init__(self, graph: Graph, polar: frozenset):
        super().__init__(graph, polar)
        object.__setattr__(self, "polar", as_edge_subset(self.graph, self.polar))


class ReductionOutput(Record):
    """Produced instance plus the correspondence needed to translate
    witnesses in both directions."""

    __slots__ = ("kind", "instance", "forward_map", "metadata")

    def __init__(self, kind: str, instance: object, forward_map: dict, metadata: dict):
        super().__init__(kind, instance, forward_map, metadata)


# ---------------------------------------------------------------------------
# semantics and oracles


def literal_value(lit: int, assignment) -> bool:
    val = assignment[abs(lit)]
    return bool(val) if lit > 0 else not val


def sat_satisfies(phi: CnfFormula, assignment) -> bool:
    return all(any(literal_value(l, assignment) for l in cl) for cl in phi.clauses)


def nae_satisfies(phi: CnfFormula, assignment) -> bool:
    """Each clause must see at least one true and one false literal
    value; repetitions count as their values, so (x|x|x) never passes."""
    for cl in phi.clauses:
        vals = [literal_value(l, assignment) for l in cl]
        if all(vals) or not any(vals):
            return False
    return True


def _mask_to_assignment(mask: int, num_vars: int) -> dict:
    return {v: bool((mask >> (v - 1)) & 1) for v in range(1, num_vars + 1)}


def oracle_sat(phi: CnfFormula):
    """First satisfying assignment by full enumeration, or None.
    Intended for small variable counts."""
    for mask in range(1 << phi.num_vars):
        ok = True
        for cl in phi.clauses:
            if not any(((mask >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in cl):
                ok = False
                break
        if ok:
            return _mask_to_assignment(mask, phi.num_vars)
    return None


def oracle_nae(phi: CnfFormula):
    """First not-all-equal satisfying assignment by full enumeration, or
    None. Intended for small variable counts."""
    for mask in range(1 << phi.num_vars):
        ok = True
        for cl in phi.clauses:
            t = f = False
            for l in cl:
                if ((mask >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0):
                    t = True
                else:
                    f = True
            if not (t and f):
                ok = False
                break
        if ok:
            return _mask_to_assignment(mask, phi.num_vars)
    return None


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


def fits_occurrence_limit(phi: CnfFormula, limit: int = 4) -> bool:
    return all(c <= limit for c in variable_occurrences(phi).values())


# ---------------------------------------------------------------------------
# file formats


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Width-3 clauses terminated by 0 under a 'p cnf N M' header, read
    by graph.dimacs_rows, so a '%' line ends the input as in the SATLIB
    files that trail it with a lone 0."""
    rows = dimacs_rows(text, "cnf")
    num_vars, num_clauses = next(rows)
    clauses = [[]]  # each 0 closes the last clause and opens the next
    for row in rows:
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


def parse_polar_instance(text: str) -> PolarInstance:
    """A DIMACS graph plus 's u v' lines (1-based) declaring polar
    edges, each an edge of the graph (graph.read_polar_graph)."""
    return PolarInstance(*read_polar_graph(text))


def write_polar_instance(inst: PolarInstance) -> str:
    return write_dimacs_graph(inst.graph) + "".join(f"s {u + 1} {v + 1}\n" for u, v in sorted(inst.polar))


# ---------------------------------------------------------------------------
# width-3 SAT with bounded occurrences -> not-all-equal with the same bound


def reduce_sat4_to_nae4(phi: CnfFormula) -> ReductionOutput:
    """Rewrite a width-3, at-most-4-occurrence formula so that plain
    satisfiability becomes not-all-equal satisfiability, preserving the
    occurrence bound.

    Each clause (x|y|z) becomes (x|y|c_i) and (z|~c_i|f_i); the flag
    variables are chained by (~f_i|~f_i|f_{i+1}) clauses (cyclically), so
    all flags take one shared value and each chain clause is always
    not-all-equal. Output: n+2m variables, exactly 3m clauses.
    """
    if not fits_occurrence_limit(phi, 4):
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
    if not fits_occurrence_limit(out, 4):
        raise RuntimeError("internal error: construction exceeded the occurrence budget")
    return ReductionOutput(
        kind="sat4_to_nae4",
        instance=out,
        forward_map={"selector": dict(enumerate(cvar)), "flag": dict(enumerate(fvar))},
        metadata={"source": phi},
    )


def _lift_sat4_to_nae4(out: ReductionOutput, assignment):
    phi: CnfFormula = out.metadata["source"]
    if not sat_satisfies(phi, assignment):
        raise ValueError("witness does not satisfy the source formula")
    target: CnfFormula = out.instance
    lifted = {x: bool(assignment[x]) for x in range(1, phi.num_vars + 1)}
    for i, (x, y, _z) in enumerate(phi.clauses):
        lifted[out.forward_map["selector"][i]] = (
            not literal_value(x, assignment) and not literal_value(y, assignment)
        )
        lifted[out.forward_map["flag"][i]] = False
    if not nae_satisfies(target, lifted):
        raise RuntimeError("reduction bug: lifted assignment is not not-all-equal satisfying")
    return lifted


def _pull_sat4_to_nae4(out: ReductionOutput, assignment):
    phi: CnfFormula = out.metadata["source"]
    target: CnfFormula = out.instance
    if not nae_satisfies(target, assignment):
        raise ValueError("witness does not not-all-equal satisfy the produced formula")
    a = dict(assignment)
    flags = out.forward_map["flag"]
    if flags and a[flags[0]]:
        a = {v: not val for v, val in a.items()}
    pulled = {x: a[x] for x in range(1, phi.num_vars + 1)}
    if not sat_satisfies(phi, pulled):
        raise RuntimeError("reduction bug: pulled assignment does not satisfy the source formula")
    return pulled


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
    not-all-equal satisfiable). Output: 33m + 12n vertices.
    """
    for i, cl in enumerate(phi.clauses):
        if len(set(cl)) < 2:
            raise ValueError(f"clause {i + 1} repeats one literal three times and is never not-all-equal satisfiable")
    n, m = phi.num_vars, len(phi.clauses)
    occ = {(i, j): 3 * i + j for i in range(m) for j in range(3)}
    t_end = {x: 3 * m + 2 * (x - 1) for x in range(1, n + 1)}
    f_end = {x: 3 * m + 2 * (x - 1) + 1 for x in range(1, n + 1)}

    clause_edges = []
    for i in range(m):
        a, b, c = occ[(i, 0)], occ[(i, 1)], occ[(i, 2)]
        clause_edges += [(a, b), (b, c), (a, c)]
    forced_edges = [(t_end[x], f_end[x]) for x in range(1, n + 1)]
    slots = _literal_slots(phi)
    for x in range(1, n + 1):
        forced_edges += [(t_end[x], vtx) for vtx in slots.get(-x, ())]
        forced_edges += [(f_end[x], vtx) for vtx in slots.get(x, ())]

    base = 3 * m + 2 * n
    gadgets = []
    gadget_edges = []
    for host_u, host_v in forced_edges:
        gadget_edges += gadget_edges_across(host_u, host_v, base)
        gadgets.append((host_u, host_v, base))
        base += 10

    graph = Graph(base, clause_edges + forced_edges + gadget_edges)
    if contains_k4(graph):
        raise RuntimeError("reduction bug: output graph contains a 4-clique")
    return ReductionOutput(
        kind="nae_to_k4free",
        instance=graph,
        forward_map={"occurrence": occ, "true_end": t_end, "false_end": f_end, "gadgets": tuple(gadgets)},
        metadata={"source": phi},
    )


def _gadget_private_colors(host_u_color: int):
    """Colors for gadget-local vertices 2..11 given the color of the
    u-side host endpoint: z1 and y1 follow u, everything else opposes."""
    same = host_u_color
    other = 3 - host_u_color
    by_local = {loc: other for loc in range(2, 12)}
    by_local[6] = same  # z1
    by_local[9] = same  # y1
    return by_local


def _lift_nae_to_k4free(out: ReductionOutput, assignment):
    phi: CnfFormula = out.metadata["source"]
    if not nae_satisfies(phi, assignment):
        raise ValueError("witness does not not-all-equal satisfy the source formula")
    graph: Graph = out.instance
    fm = out.forward_map
    colors = [0] * graph.n
    for (i, j), vtx in fm["occurrence"].items():
        colors[vtx] = 1 if literal_value(phi.clauses[i][j], assignment) else 2
    for x in range(1, phi.num_vars + 1):
        colors[fm["true_end"][x]] = 1 if assignment[x] else 2
        colors[fm["false_end"][x]] = 2 if assignment[x] else 1
    for host_u, host_v, base in fm["gadgets"]:
        if colors[host_u] == colors[host_v]:
            raise RuntimeError("reduction bug: forced edge came out monochromatic")
        for loc, c in _gadget_private_colors(colors[host_u]).items():
            colors[base + loc - 2] = c
    witness = Coloring(2, tuple(colors))
    if not verify_triangle_free(graph, witness):
        raise RuntimeError("reduction bug: lifted coloring is not triangle-free")
    return witness


def _pull_nae_to_k4free(out: ReductionOutput, coloring: Coloring):
    graph: Graph = out.instance
    phi: CnfFormula = out.metadata["source"]
    if max(coloring.colors, default=1) > 2:
        raise ValueError("witness must be a 2-coloring")
    if not verify_triangle_free(graph, coloring):
        raise ValueError("witness is not a triangle-free coloring of the produced graph")
    pulled = {x: coloring.colors[out.forward_map["true_end"][x]] == 1 for x in range(1, phi.num_vars + 1)}
    if not nae_satisfies(phi, pulled):
        raise RuntimeError("reduction bug: pulled assignment is not not-all-equal satisfying")
    return pulled


# ---------------------------------------------------------------------------
# bounded-occurrence not-all-equal SAT -> degree-3 polar instance


def reduce_nae4_to_polar(phi: CnfFormula) -> ReductionOutput:
    """Encode a width-3, at-most-4-occurrence formula as a polar
    triangle-free 2-coloring instance of maximum degree 3.

    Clause triangles are plain edges; each variable carries two
    height-2 complete binary trees (7 vertices each) whose edges,
    root-to-root bridge and occurrence-to-leaf edges are all polar, so
    leaf colors mirror the roots and same-polarity occurrences agree.
    Output: 3m + 14n vertices.
    """
    if not fits_occurrence_limit(phi, 4):
        raise ValueError("a variable occurs more than 4 times")
    n, m = phi.num_vars, len(phi.clauses)
    occ = {(i, j): 3 * i + j for i in range(m) for j in range(3)}

    def tnode(x, i):
        return 3 * m + 14 * (x - 1) + (i - 1)

    def fnode(x, i):
        return 3 * m + 14 * (x - 1) + 7 + (i - 1)

    plain = []
    for i in range(m):
        a, b, c = occ[(i, 0)], occ[(i, 1)], occ[(i, 2)]
        plain += [(a, b), (b, c), (a, c)]

    polar = []
    for x in range(1, n + 1):
        for node in (tnode, fnode):
            for i in (1, 2, 3):
                polar.append((node(x, i), node(x, 2 * i)))
                polar.append((node(x, i), node(x, 2 * i + 1)))
        polar.append((tnode(x, 1), fnode(x, 1)))
    slots = _literal_slots(phi)
    for x in range(1, n + 1):
        for idx, vtx in enumerate(slots.get(x, ())):
            polar.append((vtx, tnode(x, 4 + idx)))
        for idx, vtx in enumerate(slots.get(-x, ())):
            polar.append((vtx, fnode(x, 4 + idx)))

    graph = Graph(3 * m + 14 * n, plain + polar)
    if graph.max_degree > 3:
        raise RuntimeError("reduction bug: output degree exceeds 3")
    inst = PolarInstance(graph, polar)
    return ReductionOutput(
        kind="nae4_to_polar",
        instance=inst,
        forward_map={"occurrence": occ, "t_root": {x: tnode(x, 1) for x in range(1, n + 1)},
                     "f_root": {x: fnode(x, 1) for x in range(1, n + 1)}},
        metadata={"source": phi},
    )


def _lift_nae4_to_polar(out: ReductionOutput, assignment):
    phi: CnfFormula = out.metadata["source"]
    if not nae_satisfies(phi, assignment):
        raise ValueError("witness does not not-all-equal satisfy the source formula")
    inst: PolarInstance = out.instance
    n, m = phi.num_vars, len(phi.clauses)
    colors = [0] * inst.graph.n
    for (i, j), vtx in out.forward_map["occurrence"].items():
        colors[vtx] = 1 if literal_value(phi.clauses[i][j], assignment) else 2
    for x in range(1, n + 1):
        troot = 2 if assignment[x] else 1
        tbase = 3 * m + 14 * (x - 1)
        fbase = tbase + 7
        # levels alternate: root, its two children, four leaves
        for base, root in ((tbase, troot), (fbase, 3 - troot)):
            colors[base] = root
            colors[base + 1] = colors[base + 2] = 3 - root
            for leaf in range(3, 7):
                colors[base + leaf] = root
    witness = Coloring(2, tuple(colors))
    if not verify_triangle_free(inst.graph, witness, inst.polar):
        raise RuntimeError("reduction bug: lifted coloring violates a triangle or polar edge")
    return witness


def _pull_nae4_to_polar(out: ReductionOutput, coloring: Coloring):
    inst: PolarInstance = out.instance
    phi: CnfFormula = out.metadata["source"]
    if max(coloring.colors, default=1) > 2:
        raise ValueError("witness must be a 2-coloring")
    if not verify_triangle_free(inst.graph, coloring, inst.polar):
        raise ValueError("witness does not respect the produced polar instance")
    pulled = {x: coloring.colors[out.forward_map["t_root"][x]] == 2 for x in range(1, phi.num_vars + 1)}
    if not nae_satisfies(phi, pulled):
        raise RuntimeError("reduction bug: pulled assignment is not not-all-equal satisfying")
    return pulled


# ---------------------------------------------------------------------------
# budget increment: q colors -> q+1 colors


def reduce_q_to_q1(g: Graph, q: int) -> ReductionOutput:
    """Attach one (q+1)-cycle-clique per vertex, merge one designated
    joint vertex of every clique into a single hub u, and identify each
    original vertex with another vertex of its clique's first joint. In
    every triangle-free (q+1)-coloring the first joints are rainbow, so
    every original vertex avoids the hub color: the original graph is
    triangle-free q-colorable iff the output is (q+1)-colorable. Output
    has n(5q+4)+1 vertices.
    """
    if q < 2:
        raise ValueError("color budget must be at least 2")
    n = g.n
    if n == 0:
        raise ValueError("source graph must have at least one vertex")
    k = q + 1
    block = 5 * k
    cc = gen_cycle_clique(k)
    edges = list(g.edges())
    for i in range(n):
        off = n + block * i
        edges += [(a + off, b + off) for a, b in cc.graph.edges()]
    union = Graph(n + block * n, edges)

    def slot(i, j, l):
        # clique i (0-based), joint j, member l
        return n + block * i + j * k + l

    hub0 = slot(0, 0, 0)
    pairs = [(hub0, slot(i, 0, 0)) for i in range(1, n)]
    pairs += [(i, slot(i, 0, 1)) for i in range(n)]
    h, vmap = quotient(union, pairs)

    if h.n != n * (5 * q + 4) + 1:
        raise AssertionError(f"output has {h.n} vertices, expected {n * (5 * q + 4) + 1}")
    clique_map = {(i, j, l): vmap[slot(i, j, l)] for i in range(n) for j in range(5) for l in range(k)}
    return ReductionOutput(
        kind="q_to_q1",
        instance=h,
        forward_map={"g_vertex": {v: vmap[v] for v in range(n)}, "hub": vmap[hub0], "clique": clique_map},
        metadata={"source": g, "q": q},
    )


def _lift_q_to_q1(out: ReductionOutput, coloring: Coloring):
    g: Graph = out.metadata["source"]
    q: int = out.metadata["q"]
    if max(coloring.colors, default=1) > q:
        raise ValueError(f"witness must use at most {q} colors")
    if not verify_triangle_free(g, coloring):
        raise ValueError("witness is not a triangle-free coloring of the source graph")
    target: Graph = out.instance
    k = q + 1
    fm = out.forward_map
    colors = [0] * target.n
    colors[fm["hub"]] = k
    for v in range(g.n):
        colors[fm["g_vertex"][v]] = coloring.colors[v]
    for i in range(g.n):
        own = coloring.colors[i]
        rest = [c for c in range(1, k + 1) if c not in (k, own)]
        for l in range(2, k):
            colors[fm["clique"][(i, 0, l)]] = rest[l - 2]
        for j in range(1, 5):
            for l in range(k):
                colors[fm["clique"][(i, j, l)]] = l + 1
    witness = Coloring(k, tuple(colors))
    if not verify_triangle_free(target, witness):
        raise RuntimeError("reduction bug: constructed witness is not triangle-free")
    return witness


def _pull_q_to_q1(out: ReductionOutput, coloring: Coloring):
    g: Graph = out.metadata["source"]
    q: int = out.metadata["q"]
    target: Graph = out.instance
    if max(coloring.colors, default=1) > q + 1:
        raise ValueError(f"witness must use at most {q + 1} colors")
    if not verify_triangle_free(target, coloring):
        raise ValueError("witness is not a triangle-free coloring of the produced graph")
    hub_color = coloring.colors[out.forward_map["hub"]]
    pulled = []
    for v in range(g.n):
        c = coloring.colors[out.forward_map["g_vertex"][v]]
        if c == hub_color:
            raise RuntimeError("reduction bug: hub color reappears on a source vertex")
        pulled.append(c if c < hub_color else c - 1)
    witness = Coloring(q, tuple(pulled))
    if not verify_triangle_free(g, witness):
        raise RuntimeError("reduction bug: pulled coloring is not triangle-free")
    return witness


# ---------------------------------------------------------------------------
# dispatch


_LIFTS = {
    "sat4_to_nae4": _lift_sat4_to_nae4,
    "nae_to_k4free": _lift_nae_to_k4free,
    "nae4_to_polar": _lift_nae4_to_polar,
    "q_to_q1": _lift_q_to_q1,
}

_PULLS = {
    "sat4_to_nae4": _pull_sat4_to_nae4,
    "nae_to_k4free": _pull_nae_to_k4free,
    "nae4_to_polar": _pull_nae4_to_polar,
    "q_to_q1": _pull_q_to_q1,
}


def lift_witness(out: ReductionOutput, witness):
    """Translate a source-side witness into a verified target-side one."""
    return _LIFTS[out.kind](out, witness)


def pull_witness(out: ReductionOutput, witness):
    """Translate a target-side witness into a verified source-side one."""
    return _PULLS[out.kind](out, witness)
