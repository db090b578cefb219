"""Witness translation for the reductions of reductions.py, with CNF
truth and the brute-force CNF oracles: lift_witness and pull_witness
carry a witness across a reduction and re-verify it. Only these need the
coloring verifier, and the `reduce` command translates no witness, so it
never loads this module. Assignments are dicts variable -> bool.
"""

from __future__ import annotations

from .coloring import Coloring, verify_triangle_free
from .gadgets import Y1, Z1
from .graph import Graph
from .reductions import CnfFormula, PolarInstance, ReductionOutput

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


def _gadget_private_colors(host_u_color: int):
    """Colors for gadget-local vertices 2..11 given the color of the
    u-side host endpoint: z1 and y1 follow u, everything else opposes."""
    same = host_u_color
    other = 3 - host_u_color
    by_local = {loc: other for loc in range(2, 12)}
    by_local[Z1] = by_local[Y1] = same
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


def _lift_nae4_to_polar(out: ReductionOutput, assignment):
    phi: CnfFormula = out.metadata["source"]
    if not nae_satisfies(phi, assignment):
        raise ValueError("witness does not not-all-equal satisfy the source formula")
    inst: PolarInstance = out.instance
    # every tree and occurrence vertex lies in the polar component of
    # some variable's true root; polar edges alternate colors from it
    polar_nbrs = [[] for _ in range(inst.graph.n)]
    for u, v in inst.polar:
        polar_nbrs[u].append(v)
        polar_nbrs[v].append(u)
    colors = [0] * inst.graph.n
    stack = []
    for x, root in out.forward_map["t_root"].items():
        colors[root] = 2 if assignment[x] else 1
        stack.append(root)
    while stack:
        u = stack.pop()
        for v in polar_nbrs[u]:
            if not colors[v]:
                colors[v] = 3 - colors[u]
                stack.append(v)
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
