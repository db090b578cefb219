"""Pipelines for graph classes where the problem is easy: chordal
recognition and exact coloring, the bounded-chromatic dispatch that reads
the answer off a triangle check."""

from __future__ import annotations

from .coloring import Coloring, standard_recolor, verify_triangle_free
from .graph import Graph, Record, connected_components, is_triangle_free
from .solvers import decide_tf_q

BOUNDED_TAGS = ("planar", "outerplanar", "regular4")
CLASS_TAGS = ("chordal",) + BOUNDED_TAGS + ("general",)


class ClassHint(Record):
    """Claimed graph class of an input. 'chordal' is always re-verified;
    the planar/outerplanar/regular4 tags are trusted assertions
    (recognition is out of scope), though regularity itself is checked
    and witnesses are re-verified before being returned."""

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        super().__init__(tag)
        if self.tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.tag!r}")


def lex_bfs(g: Graph) -> list:
    """Lexicographic BFS visit order; smallest index wins ties.

    Linear-time partition refinement (Rose, Tarjan & Lueker 1976): the
    unvisited vertices sit in a linked sequence of parts, each an
    ascending list. Visiting v moves its unvisited neighbours, in
    ascending order, into fresh parts placed just before their old ones,
    so a visit touches only v's neighbourhood. A moved vertex stays in
    its old list and is skipped when that list is read."""
    n = g.n
    part = [0] * n  # each unvisited vertex's part; -1 once visited
    members, start = [list(range(n))], [0]
    before, after = [-1], [-1]
    first = 0 if n else -1
    order = []
    while first != -1:
        lst, i = members[first], start[first]
        while i < len(lst) and part[lst[i]] != first:
            i += 1
        if i == len(lst):
            first = after[first]
            if first != -1:
                before[first] = -1
            continue
        start[first] = i + 1
        v = lst[i]
        part[v] = -1
        order.append(v)
        split = {}
        for w in sorted(u for u in g.neighbors(v) if part[u] >= 0):
            old = part[w]
            new = split.get(old)
            if new is None:
                new = split[old] = len(members)
                members.append([])
                start.append(0)
                prev = before[old]
                before.append(prev)
                after.append(old)
                before[old] = new
                if prev == -1:
                    first = new
                else:
                    after[prev] = new
            members[new].append(w)
            part[w] = new
    return order


def recognize_chordal(g: Graph):
    """A perfect elimination ordering if g is chordal, else None; the
    reversed lex-BFS order is checked for the elimination property."""
    peo = list(reversed(lex_bfs(g)))
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
    if omega <= 2:
        return 1, Coloring(1, (1,) * g.n)
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


def _complete_component_sizes(g: Graph):
    """Sizes of connected components that are complete graphs."""
    out = []
    for comp in connected_components(g):
        size = len(comp)
        if all(g.degree(v) == size - 1 for v in comp):
            out.append(size)
    return out


def bounded_chi_chi3(g: Graph, hint):
    """Triangle-free chromatic number for classes with chromatic number
    at most 4: the value is 0/1/2 read off emptiness and a triangle
    check, and the witness comes from an exact small-budget proper
    coloring (the triangle-free search with every edge polar) merged
    pairwise. The planar/outerplanar tags are trusted; a
    failed proper coloring therefore signals a violated hint. Regular
    inputs are re-checked, and a 5-clique component (the one Brooks
    exception reachable at degree 4) bumps the answer to 3."""
    tag = hint.tag if isinstance(hint, ClassHint) else str(hint)
    if tag not in BOUNDED_TAGS:
        raise ValueError(f"class tag {tag!r} is not handled by the bounded pipeline")
    if g.n == 0:
        return 0, Coloring(0, ())
    if is_triangle_free(g):
        return 1, Coloring(1, (1,) * g.n)
    if tag == "regular4":
        degs = {g.degree(v) for v in range(g.n)}
        if len(degs) != 1:
            raise ValueError("regular4 hint violated: graph is not regular")
        d = degs.pop()
        if d > 4:
            raise ValueError("regular4 hint violated: degree exceeds 4")
        budget = 5 if any(s == 5 for s in _complete_component_sizes(g)) else 4
    elif tag == "outerplanar":
        budget = 3
    else:
        budget = 4
    proper = decide_tf_q(g, budget, polar=g.edges())
    if proper is None:
        raise ValueError(f"class hint {tag!r} violated: graph is not {budget}-colorable")
    witness = standard_recolor(proper)
    if not verify_triangle_free(g, witness):
        raise RuntimeError("internal error: recolored witness is invalid")
    return witness.k, witness
