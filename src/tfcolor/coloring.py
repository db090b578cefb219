"""Coloring values, their verifier (triangle-free, honoring optional polar
edges; with every edge polar it checks a proper coloring), and the
pairwise class-merging recoloring."""

from __future__ import annotations

from .graph import Graph, Record, as_edge_subset


class Coloring(Record):
    """Total map vertex -> color in {1..k}; k is the color budget.

    Colors are 1-based; 0 is reserved for "uncolored" inside solver
    internals and never appears in a finished Coloring.
    """

    __slots__ = ("k", "colors")

    def __init__(self, k: int, colors: tuple):
        super().__init__(k, colors)
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.k < 0:
            raise ValueError("color count must be non-negative")
        for v, c in enumerate(self.colors):
            if not (1 <= c <= self.k):
                raise ValueError(f"vertex {v} has color {c} outside 1..{self.k}")

    def __len__(self) -> int:
        return len(self.colors)

    @staticmethod
    def from_json_dict(d: dict, n=None) -> "Coloring":
        """Colors from 'colors' (or 'coloring', as solve prints them), the
        budget from 'k' (or 'chi3'; by default the largest color); given n,
        exactly n colors. Raises ValueError on any malformed document."""
        if not isinstance(d, dict):
            raise ValueError("a coloring must be a JSON object")
        colors = d.get("colors", d.get("coloring"))
        if not isinstance(colors, list):
            raise ValueError("a coloring needs a 'colors' (or 'coloring') array")
        if any(type(c) is not int for c in colors):
            raise ValueError("'k' and every color must be integers")
        k = d.get("k", d.get("chi3", max(colors, default=0)))
        if type(k) is not int:
            raise ValueError("'k' and every color must be integers")
        if n is not None and len(colors) != n:
            raise ValueError(f"coloring covers {len(colors)} vertices, graph has {n}")
        return Coloring(k, tuple(colors))


def verify_triangle_free(g: Graph, c: Coloring, polar=None) -> bool:
    """True iff no triangle is monochromatic and, when a polar edge set
    is given, no polar edge is monochromatic. Reads only the adjacency
    sets: same[v] = N(v) & (v's color class), and a monochromatic edge
    vu, v < u, lies in a monochromatic triangle iff same[v] meets same[u]."""
    if len(c.colors) != g.n:
        raise ValueError("coloring size does not match graph")
    cols = c.colors
    classes = {}
    for v, x in enumerate(cols):
        classes.setdefault(x, set()).add(v)
    same = [g.neighbors(v) & classes[x] for v, x in enumerate(cols)]
    for v, sv in enumerate(same):
        for u in sv:
            if u > v and not sv.isdisjoint(same[u]):
                return False
    return not polar or all(cols[u] != cols[v] for u, v in as_edge_subset(g, polar))


def standard_recolor(c: Coloring) -> Coloring:
    """Merge color classes pairwise: (1,2)->1, (3,4)->2, ...; an odd last
    class maps alone. A proper input yields a triangle-free output with
    ceil(k/2) colors (monochromatic cycles become even). The input being
    proper is the caller's obligation and is not re-verified."""
    return Coloring((c.k + 1) // 2, tuple((x + 1) // 2 for x in c.colors))

