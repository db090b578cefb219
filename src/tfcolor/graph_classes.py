"""Pipelines for graph classes where the problem is easy: chordal
recognition and exact coloring, and the bounded-chromatic classes, where
the triangle-free search needs at most budget 2 (or 3)."""

from __future__ import annotations

from .coloring import Coloring, standard_recolor, verify_triangle_free
from .graph import Graph, is_triangle_free

BOUNDED_TAGS = ("planar", "outerplanar", "regular4")
CLASS_TAGS = ("chordal",) + BOUNDED_TAGS + ("general",)


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


def bounded_chi_chi3(g: Graph, tag: str):
    """Triangle-free chromatic number on the tagged classes, where chi3 <=
    ceil(chi/2) is at most 2 on planar and outerplanar graphs and at most 3
    on regular graphs of degree at most 4 (by Brooks' theorem only a K5
    component needs 3). After the empty and triangle-free cases, the
    triangle-free search decides budget 2, then for regular4 only budget
    3, and returns the first witness. The planar/outerplanar tags are
    trusted, so a failure within the class bound signals a violated hint;
    regularity and degree are checked."""
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
        if degs.pop() > 4:
            raise ValueError("regular4 hint violated: degree exceeds 4")
    from .solvers import decide_tf_q

    for q in (2, 3) if tag == "regular4" else (2,):
        witness = decide_tf_q(g, q)
        if witness is not None:
            return q, witness
    raise ValueError(f"class hint {tag!r} violated: chi3 exceeds {q}")
