"""Plain-enumeration oracles: exact chi3, chi and omega. They are naive
loops on explicit stacks that share no pruning machinery with the search
engine in solvers, so tests use them as ground truth. params loads this
module for oracle_omega; no other command does."""

from __future__ import annotations

from itertools import combinations

from .coloring import Coloring
from .graph import Graph, as_edge_subset


def _brute_triangle_pairs(g: Graph):
    """tri[v] lists pairs (a, b) with a < b < v completing a triangle;
    computed by a raw scan over all vertex triples."""
    tri = [[] for _ in range(g.n)]
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            tri[c].append((a, b))
    return tri


def _tf_enumerate(n, k, tri, pol):
    """Plain k^n enumeration in vertex order with early cutoff on a completed
    monochromatic triangle or polar edge. A loop over positions with colors as
    the stack: position i resumes after colors[i], and backtracking resets it to 0."""
    colors = [0] * n
    i = 0
    while 0 <= i < n:
        for x in range(colors[i] + 1, k + 1):
            for a, b in tri[i]:
                if colors[a] == x and colors[b] == x:
                    break
            else:
                for a in pol[i]:
                    if colors[a] == x:
                        break
                else:  # no triangle or polar edge rules x out
                    colors[i] = x
                    i += 1
                    break
        else:
            colors[i] = 0
            i -= 1
    return tuple(colors) if i == n else None


def oracle_chi3(g: Graph, polar=None):
    """Smallest k admitting a triangle-free (polar-respecting) k-coloring
    plus one witness, by plain enumeration; k=0 for the empty graph. For
    small graphs only (the caller bounds n): however much polar edges
    prune, the cubic triple scan of _brute_triangle_pairs bounds n."""
    n = g.n
    pairs = as_edge_subset(g, polar) if polar else frozenset()
    tri = _brute_triangle_pairs(g)
    pol = [[] for _ in range(n)]
    for u, v in pairs:
        pol[v].append(u)
    for k in range(n + 1):
        res = _tf_enumerate(n, k, tri, pol)
        if res is not None:
            return k, Coloring(k, res)
    raise AssertionError("a rainbow coloring always fits")


def oracle_chi(g: Graph) -> int:
    """Exact chromatic number by the plain enumeration of oracle_chi3: a
    proper k-coloring is one with every edge polar, and then no triangle
    constraint is needed."""
    pol = [[u for u in g.neighbors(v) if u < v] for v in range(g.n)]
    return next(k for k in range(g.n + 1) if _tf_enumerate(g.n, k, [()] * g.n, pol) is not None)


def oracle_omega(g: Graph) -> int:
    """Exact clique number by branch and bound with a size cutoff, on an
    explicit stack of (clique size, candidates) so no clique size reaches
    the recursion limit. Candidates go by degree, highest first, and each
    list holds them reversed, so the next one is popped off its end."""
    adj = [g.neighbors(v) for v in range(g.n)]
    best = 0
    stack = [(0, sorted(range(g.n), key=lambda v: -len(adj[v]))[::-1])]
    while stack:
        size, cand = stack[-1]
        if size + len(cand) <= best:
            stack.pop()
            continue
        v = cand.pop()
        stack.append((size + 1, [u for u in cand if u in adj[v]]))
        best = max(best, size + 1)
    return best
