"""Pipelines for graph classes where the problem is easy: chordal
recognition by maximum cardinality search (linear time with one counter
per vertex and one stack per count) and exact coloring, and the
bounded-chromatic classes, where the triangle-free search's budget
ladder stops by budget 2 (or 3)."""

from __future__ import annotations

from .coloring import Coloring, standard_recolor, verify_triangle_free
from .graph import Graph

BOUNDED_TAGS = ("planar", "outerplanar", "regular4")


def max_cardinality_search(g: Graph) -> list:
    """Maximum cardinality search (Tarjan & Yannakakis 1984): visit next
    an unvisited vertex with the most visited neighbours, the smallest
    index first among the initial ties. Linear time: each unvisited vertex
    sits on the stack of its count, a visit pushes each unvisited
    neighbour one stack up, and entries left behind are skipped when
    popped, so there are at most n + 2m pushes; the top rises by at most
    one per visit."""
    count = [0] * g.n  # visited neighbours of each unvisited vertex; -1 once visited
    stacks = [list(range(g.n - 1, -1, -1))] + [[] for _ in range(g.n)]  # top never passes n
    top = 0
    order = []
    while top >= 0:
        stack = stacks[top]
        if not stack:
            top -= 1
            continue
        v = stack.pop()
        if count[v] != top:
            continue
        count[v] = -1
        order.append(v)
        for w in g.neighbors(v):
            c = count[w]
            if c >= 0:
                count[w] = c + 1
                stacks[c + 1].append(w)
        top += 1
    return order


def recognize_chordal(g: Graph):
    """A perfect elimination ordering if g is chordal, else None: the
    reversed maximum cardinality search order, which is one for every
    chordal graph, checked for zero fill-in in linear time."""
    peo = max_cardinality_search(g)[::-1]
    pos = [0] * g.n
    for i, v in enumerate(peo):
        pos[v] = i
    for v in peo:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=lambda u: pos[u])
        if not set(later) - {parent} <= g.neighbors(parent):
            return None
    return peo


def chordal_chi3(g: Graph):
    """Exact triangle-free chromatic number of a chordal graph with a
    witness: an optimal proper coloring along the elimination ordering is
    merged pairwise, giving ceil(omega/2) colors."""
    peo = recognize_chordal(g)
    if peo is None:
        raise ValueError("graph is not chordal")
    if g.n == 0:
        return 0, Coloring(0, ())
    pos = [0] * g.n
    for i, v in enumerate(peo):
        pos[v] = i
    omega = max(1 + sum(1 for u in g.neighbors(v) if pos[u] > pos[v]) for v in peo)
    colors = [0] * g.n
    for v in reversed(peo):
        taken = {colors[u] for u in g.neighbors(v) if colors[u]}
        x = 1
        while x in taken:
            x += 1
        colors[v] = x
    if max(colors) != omega:
        raise RuntimeError("internal error: greedy elimination coloring missed the clique bound")
    witness = standard_recolor(Coloring(omega, tuple(colors)))
    if not verify_triangle_free(g, witness):
        raise RuntimeError("internal error: recolored chordal witness is invalid")
    return witness.k, witness


def bounded_chi_chi3(g: Graph, tag: str):
    """Triangle-free chromatic number on the tagged classes, where chi3 <=
    ceil(chi/2) is at most 2 on planar and outerplanar graphs and at most 3
    on regular graphs of degree at most 4 (by Brooks' theorem only a K5
    component needs 3), so solve_chi3 stops by that budget. The regular4
    tag's regularity and degree are checked first; the planar/outerplanar
    tags are trusted, so chi3 above the class bound signals a violated
    hint."""
    if tag not in BOUNDED_TAGS:
        raise ValueError(f"class tag {tag!r} is not handled by the bounded pipeline")
    if g.n == 0:
        return 0, Coloring(0, ())
    if tag == "regular4":
        degs = {g.degree(v) for v in range(g.n)}
        if len(degs) != 1:
            raise ValueError("regular4 hint violated: graph is not regular")
        if degs.pop() > 4:
            raise ValueError("regular4 hint violated: degree exceeds 4")
    from .solvers import solve_chi3

    k, witness = solve_chi3(g)
    if k > (3 if tag == "regular4" else 2):
        raise ValueError(f"class hint {tag!r} violated: chi3 is {k}")
    return k, witness
