"""Witness translation for the reductions of reductions.py, with CNF
truth and the brute-force CNF oracles: lift_witness and pull_witness
carry a witness across a reduction and re-verify it. Only these need the
coloring verifier, and the `reduce` command translates no witness, so it
never loads this module. Assignments are dicts variable -> bool.

Each reduction kind states its witness contract once, in _CONTRACTS:

    kind            source side                      target side
    sat4_to_nae4    sat_satisfies(phi)               nae_satisfies(psi)
    nae_to_k4free   nae_satisfies(phi)               <= 2 colors, triangle-free on G
    nae4_to_polar   nae_satisfies(phi)               <= 2 colors, triangle-free on G, polar
    q_to_q1         <= q colors, triangle-free on G  <= q+1 colors, triangle-free on H

A witness that fails the side it enters on raises ValueError; one that
the translation carries out failing the other side is a reduction bug
and raises RuntimeError. The translations only translate and check their
own invariants, such as a gadget's forced edge coming out bichromatic.
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


# ---------------------------------------------------------------------------
# the translations


def _lift_sat4_to_nae4(out: ReductionOutput, assignment):
    phi: CnfFormula = out.metadata["source"]
    lifted = {x: bool(assignment[x]) for x in range(1, phi.num_vars + 1)}
    for i, (x, y, _z) in enumerate(phi.clauses):
        lifted[out.forward_map["selector"][i]] = not (literal_value(x, assignment) or literal_value(y, assignment))
        lifted[out.forward_map["flag"][i]] = False
    return lifted


def _pull_sat4_to_nae4(out: ReductionOutput, assignment):
    a = dict(assignment)
    flags = out.forward_map["flag"]
    if flags and a[flags[0]]:
        a = {v: not val for v, val in a.items()}
    return {x: a[x] for x in range(1, out.metadata["source"].num_vars + 1)}


def _gadget_private_colors(host_u_color: int):
    """Colors for gadget-local vertices 2..11 given the color of the
    u-side host endpoint: z1 and y1 follow u, everything else opposes."""
    by_local = dict.fromkeys(range(2, 12), 3 - host_u_color)
    by_local[Z1] = by_local[Y1] = host_u_color
    return by_local


def _lift_nae_to_k4free(out: ReductionOutput, assignment):
    phi: CnfFormula = out.metadata["source"]
    fm = out.forward_map
    colors = [0] * out.instance.n
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
    return Coloring(2, tuple(colors))


def _pull_nae_to_k4free(out: ReductionOutput, coloring: Coloring):
    true_end = out.forward_map["true_end"]
    return {x: coloring.colors[true_end[x]] == 1 for x in range(1, out.metadata["source"].num_vars + 1)}


def _lift_nae4_to_polar(out: ReductionOutput, assignment):
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
    return Coloring(2, tuple(colors))


def _pull_nae4_to_polar(out: ReductionOutput, coloring: Coloring):
    t_root = out.forward_map["t_root"]
    return {x: coloring.colors[t_root[x]] == 2 for x in range(1, out.metadata["source"].num_vars + 1)}


def _lift_q_to_q1(out: ReductionOutput, coloring: Coloring):
    g: Graph = out.metadata["source"]
    k = out.metadata["q"] + 1
    fm = out.forward_map
    colors = [0] * out.instance.n
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
    return Coloring(k, tuple(colors))


def _pull_q_to_q1(out: ReductionOutput, coloring: Coloring):
    hub_color = coloring.colors[out.forward_map["hub"]]
    pulled = []
    for v in range(out.metadata["source"].n):
        c = coloring.colors[out.forward_map["g_vertex"][v]]
        if c == hub_color:
            raise RuntimeError("reduction bug: hub color reappears on a source vertex")
        pulled.append(c if c < hub_color else c - 1)
    return Coloring(out.metadata["q"], tuple(pulled))


# ---------------------------------------------------------------------------
# the contracts and the one dispatch


def _fits(k: int, g: Graph, coloring: Coloring, polar=None) -> bool:
    """At most k colors, and no monochromatic triangle or polar edge."""
    return max(coloring.colors, default=1) <= k and verify_triangle_free(g, coloring, polar)


# kind -> (lift, pull, source test, target test); each test takes (out, witness)
_CONTRACTS = {
    "sat4_to_nae4": (
        _lift_sat4_to_nae4, _pull_sat4_to_nae4,
        lambda out, a: sat_satisfies(out.metadata["source"], a),
        lambda out, a: nae_satisfies(out.instance, a),
    ),
    "nae_to_k4free": (
        _lift_nae_to_k4free, _pull_nae_to_k4free,
        lambda out, a: nae_satisfies(out.metadata["source"], a),
        lambda out, c: _fits(2, out.instance, c),
    ),
    "nae4_to_polar": (
        _lift_nae4_to_polar, _pull_nae4_to_polar,
        lambda out, a: nae_satisfies(out.metadata["source"], a),
        lambda out, c: _fits(2, out.instance.graph, c, out.instance.polar),
    ),
    "q_to_q1": (
        _lift_q_to_q1, _pull_q_to_q1,
        lambda out, c: _fits(out.metadata["q"], out.metadata["source"], c),
        lambda out, c: _fits(out.metadata["q"] + 1, out.instance, c),
    ),
}


def _carry(out: ReductionOutput, witness, translate, enters, leaves, side: str, other: str):
    """Test witness on the side it enters, translate it, test the result on the other side."""
    if not enters(out, witness):
        raise ValueError(f"{out.kind}: witness is not a solution of the {side} instance")
    carried = translate(out, witness)
    if not leaves(out, carried):
        raise RuntimeError(f"reduction bug: {out.kind} carried a {side} witness to a non-solution of the {other}")
    return carried


def lift_witness(out: ReductionOutput, witness):
    """Translate a source-side witness into a verified target-side one."""
    lift, _, source_ok, target_ok = _CONTRACTS[out.kind]
    return _carry(out, witness, lift, source_ok, target_ok, "source", "target")


def pull_witness(out: ReductionOutput, witness):
    """Translate a target-side witness into a verified source-side one."""
    _, pull, source_ok, target_ok = _CONTRACTS[out.kind]
    return _carry(out, witness, pull, target_ok, source_ok, "target", "source")
