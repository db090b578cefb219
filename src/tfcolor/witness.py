"""Witness translation for the reductions of reductions.py, with CNF
truth: lift_witness and pull_witness carry a witness across a reduction
and re-verify it. Only these need the coloring verifier, and the
`reduce` command translates no witness, so it never loads this module. Assignments are dicts variable -> bool.

Each reduction kind states its witness contract once, in _CONTRACTS:

    kind            source side                      target side
    sat4_to_nae4    sat_satisfies(phi)               nae_satisfies(psi)
    nae_to_k4free   nae_satisfies(phi)               <= 2 colors, triangle-free on G
    nae4_to_polar   nae_satisfies(phi)               <= 2 colors, triangle-free on G, polar
    q_to_q1         <= q colors, triangle-free on G  <= q+1 colors, triangle-free on H

A witness failing the side it enters on, one of the wrong size too,
raises ValueError; one carried out failing the other side is a reduction
bug and raises RuntimeError. The translations only translate and check
their own invariants, such as a gadget's forced edge coming out bichromatic.
"""

from __future__ import annotations

from .coloring import Coloring, verify_triangle_free
from .gadgets import Y1, Z1
from .graph import Graph
from .reductions import CnfFormula, ReductionOutput, _host_edges

# ---------------------------------------------------------------------------
# semantics


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


# ---------------------------------------------------------------------------
# the translations


def _lift_sat4_to_nae4(out: ReductionOutput, assignment):
    phi: CnfFormula = out.source
    n, m = phi.num_vars, len(phi.clauses)
    lifted = {x: bool(assignment[x]) for x in range(1, n + 1)}
    for i, (x, y, _z) in enumerate(phi.clauses):
        lifted[n + 1 + i] = not (literal_value(x, assignment) or literal_value(y, assignment))
        lifted[n + m + 1 + i] = False
    return lifted


def _pull_sat4_to_nae4(out: ReductionOutput, assignment):
    n, m = out.source.num_vars, len(out.source.clauses)
    flip = bool(m and assignment[n + m + 1])  # the flags share one value; a true one flips every variable
    return {x: bool(assignment[x]) != flip for x in range(1, n + 1)}


def _occurrence_colors(phi: CnfFormula, assignment) -> list:
    """Color 1 on each clause slot whose literal is true, 2 on the others."""
    return [1 if literal_value(lit, assignment) else 2 for cl in phi.clauses for lit in cl]


def _lift_nae_to_k4free(out: ReductionOutput, assignment):
    phi: CnfFormula = out.source
    colors = _occurrence_colors(phi, assignment)
    for x in range(1, phi.num_vars + 1):
        colors += (1, 2) if assignment[x] else (2, 1)
    for u, v in _host_edges(phi):
        if colors[u] == colors[v]:
            raise RuntimeError("reduction bug: forced edge came out monochromatic")
        # private labels 2..11 in order: z1 and y1 follow u, everything else opposes
        colors += (colors[u] if l in (Z1, Y1) else 3 - colors[u] for l in range(2, 12))
    return Coloring(2, tuple(colors))


def _pull_nae_to_k4free(out: ReductionOutput, coloring: Coloring):
    first = 3 * len(out.source.clauses)
    return {x: coloring.colors[first + 2 * x - 2] == 1 for x in range(1, out.source.num_vars + 1)}


def _lift_nae4_to_polar(out: ReductionOutput, assignment):
    # along the polar edges colors alternate: x's true root is 2 when x is
    # true, its children oppose it, its leaves match it, and the false tree
    # is the mirror image
    phi: CnfFormula = out.source
    colors = _occurrence_colors(phi, assignment)
    for x in range(1, phi.num_vars + 1):
        r = 2 if assignment[x] else 1
        tree = [r, 3 - r, 3 - r, r, r, r, r]
        colors += tree + [3 - c for c in tree]
    return Coloring(2, tuple(colors))


def _pull_nae4_to_polar(out: ReductionOutput, coloring: Coloring):
    first = 3 * len(out.source.clauses)
    return {x: coloring.colors[first + 14 * (x - 1)] == 2 for x in range(1, out.source.num_vars + 1)}


def _lift_q_to_q1(out: ReductionOutput, coloring: Coloring):
    # the hub takes the new color k; clique i's joint 0 holds the hub, vertex
    # i and the colors left, and its joints 1..4 take colors 1..k in member order
    k = out.source[1] + 1
    colors = [*coloring.colors, k]
    for own in coloring.colors:
        colors += [c for c in range(1, k) if c != own]
        colors += list(range(1, k + 1)) * 4
    return Coloring(k, tuple(colors))


def _pull_q_to_q1(out: ReductionOutput, coloring: Coloring):
    g, q = out.source
    hub_color = coloring.colors[g.n]
    pulled = []
    for c in coloring.colors[:g.n]:
        if c == hub_color:
            raise RuntimeError("reduction bug: hub color reappears on a source vertex")
        pulled.append(c if c < hub_color else c - 1)
    return Coloring(q, tuple(pulled))


# ---------------------------------------------------------------------------
# the contracts and the one dispatch


def _fits(k: int, g: Graph, coloring: Coloring, polar=None) -> bool:
    """One color per vertex, at most k colors, and no monochromatic triangle or polar edge."""
    return len(coloring) == g.n and max(coloring.colors, default=1) <= k and verify_triangle_free(g, coloring, polar)


def _solves(test, phi: CnfFormula, assignment) -> bool:
    """A value for every variable of phi, and test(phi, assignment)."""
    return all(x in assignment for x in range(1, phi.num_vars + 1)) and test(phi, assignment)


# kind -> (lift, pull, source test, target test); each test takes (out, witness)
_CONTRACTS = {
    "sat4_to_nae4": (
        _lift_sat4_to_nae4, _pull_sat4_to_nae4,
        lambda out, a: _solves(sat_satisfies, out.source, a),
        lambda out, a: _solves(nae_satisfies, out.instance, a),
    ),
    "nae_to_k4free": (
        _lift_nae_to_k4free, _pull_nae_to_k4free,
        lambda out, a: _solves(nae_satisfies, out.source, a),
        lambda out, c: _fits(2, out.instance, c),
    ),
    "nae4_to_polar": (
        _lift_nae4_to_polar, _pull_nae4_to_polar,
        lambda out, a: _solves(nae_satisfies, out.source, a),
        lambda out, c: _fits(2, out.instance[0], c, out.instance[1]),
    ),
    "q_to_q1": (
        _lift_q_to_q1, _pull_q_to_q1,
        lambda out, c: _fits(out.source[1], out.source[0], c),
        lambda out, c: _fits(out.source[1] + 1, out.instance, c),
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
