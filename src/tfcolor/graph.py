"""Immutable simple-graph core: construction, vertex identification,
the one triangle listing, a per-vertex index built by intersecting the
adjacency sets of each edge, a K4 certifier that reads only the
adjacency sets, the member iterator of vertex sets held as int bitsets,
DIMACS/DOT output, the reader of valid graph and polar-instance text,
and the read-only record base of the value classes."""

from __future__ import annotations

from itertools import chain


class Record:
    """Base of the immutable value classes. A subclass names its fields
    in __slots__ and sets them once through Record.__init__, in slot
    order; equality, hash, repr and pickling go over the fields in that
    order, and assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def _read_only(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __setattr__ = __delattr__ = _read_only


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Adjacency is one frozenset per vertex, so pair queries are O(1)
    expected. Instances are immutable after construction and safe to
    share across threads; every operation on them returns a new graph.
    """

    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = list(edges)
        nbrs = [[] for _ in range(n)]
        try:
            for u, v in edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            # a negative endpoint indexes nbrs from the end, so only the minimum catches it
            if min(chain.from_iterable(nbrs), default=0) >= 0 and self._freeze(nbrs, len(edges)):
                return
        except IndexError:
            pass
        # the bulk checks refused the edges: name the first bad one
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)

    def _freeze(self, nbrs: list, m: int) -> bool:
        """Freeze each nbrs[v], a list of vertices, once as v's adjacency if the lists hold 2m
        entries and so do their frozensets, which collapse loops and repeats; say if they did."""
        adj = tuple(map(frozenset, nbrs))
        if sum(map(len, nbrs)) != 2 * m or sum(map(len, adj)) != 2 * m:
            return False
        self.n, self.m, self._adj = len(nbrs), m, adj
        return True

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list:
        """All edges as (u, v) pairs with u < v, sorted."""
        return sorted([(u, v) for u, nu in enumerate(self._adj) for v in nu if u < v])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def quotient(g: Graph, pairs):
    """Identify vertices in one union-find pass. Each (keep, drop) pair
    merges drop's class into keep's; the surviving representatives are
    renumbered in ascending original index, and the loops and parallel
    edges the merges create are dropped.

    Returns (graph, vmap) where vmap sends every original vertex to the
    new index of its class.
    """
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for keep, drop in pairs:
        if not (0 <= keep < g.n and 0 <= drop < g.n):
            raise ValueError(f"vertex out of range: ({keep}, {drop}) with n={g.n}")
        rk, rd = find(keep), find(drop)
        if rk == rd:
            raise ValueError(f"vertices {keep} and {drop} are already identified")
        parent[rd] = rk
    index = {}
    for v in range(g.n):
        if parent[v] == v:
            index[v] = len(index)
    vmap = {v: index[find(v)] for v in range(g.n)}
    # each edge is seen from both ends; the end whose new labels are in order keeps it
    edges = {(vmap[a], vmap[b]) for a, na in enumerate(g._adj) for b in na if vmap[a] < vmap[b]}
    return Graph(len(index), edges), vmap


def triangle_pairs(g: Graph) -> list:
    """The triangle index: tri[v] lists the pairs (a, b), a < b, that
    close a triangle with v, one pair per triangle through v.

    Each triangle abc, a < b < c, is found once, from its edge ab: the
    two adjacency sets are intersected and the common neighbours c > b
    kept. A set intersection walks the smaller set, so the work is the
    sum over edges of min(deg a, deg b), which Chiba & Nishizeki (1985)
    bound by 2·arboricity·m.
    """
    adj = g._adj
    tri = [[] for _ in range(g.n)]
    for a, na in enumerate(adj):
        for b in na:
            if b > a:
                for c in na & adj[b]:
                    if c > b:
                        tri[a].append((b, c))
                        tri[b].append((a, c))
                        tri[c].append((a, b))
    return tri


def contains_k4(g: Graph) -> bool:
    """True iff some four vertices are pairwise adjacent: with up[v] the
    neighbours of v above v, a K4 a < b < c < d has c, d in up[a] & up[b]
    and d in up[c]. Reads only the adjacency sets, not the triangle index."""
    up = [{x for x in nv if x > v} for v, nv in enumerate(g._adj)]
    for ua in up:
        if len(ua) < 3:  # a needs b, c and d above it
            continue
        for b in ua:
            common = ua & up[b]
            if len(common) < 2:  # the pair needs c and d
                continue
            for c in common:
                if not up[c].isdisjoint(common):
                    return True
    return False


def connected_components(g: Graph) -> list:
    """Vertex lists of the connected components, each sorted, in order
    of smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if not seen[s]:
            seen[s] = True
            comp = [s]
            for v in comp:  # comp grows as the search reaches new vertices
                for u in g._adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
            comps.append(sorted(comp))
    return comps


def _members(m):
    """The vertices of the vertex set m, in index order."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def as_edge_subset(g: Graph, pairs) -> frozenset:
    """Normalize pairs to (min, max) tuples and require each to be an
    edge of g."""
    adj = g._adj
    out = set()
    for u, v in pairs:
        if u > v:
            u, v = v, u
        if not (0 <= u and v < g.n and v in adj[u]):
            raise ValueError(f"edge ({u}, {v}) not present in graph")
        out.add((u, v))
    return frozenset(out)


def write_dimacs_graph(g: Graph, polar=()) -> str:
    """DIMACS text: 'p edge N M' header plus sorted 'e u v' lines with
    1-based endpoints, u < v, then a sorted 's u v' line per polar pair
    (u, v). Bit-exact for round-tripping."""
    label = list(map(str, range(1, g.n + 1)))
    lines = [f"p edge {g.n} {g.m}"]
    # vertex by vertex, each one's higher neighbours in order: g.edges()'s order, with no sort of the whole list
    lines += [f"e {label[u]} {label[v]}" for u, nu in enumerate(g._adj) for v in sorted(nu) if v > u]
    lines += [f"s {label[u]} {label[v]}" for u, v in sorted(polar)]
    return "\n".join(lines) + "\n"


def _read_graph(text: str, kinds: tuple):
    """(graph, polar edges) of graph text, read row by row into neighbour lists through a
    table of the labels '1'..'N'; dimacs.read_graph_rows reads other text and names its fault."""
    try:
        rows = iter(text.splitlines())
        _, _, n, m = header = next((head for head in map(str.split, rows) if head and head[0][0] != "c"), ())
        n, m = int(n), int(m)
        if header != ["p", "edge", str(n), str(m)] or n < 0:
            raise ValueError
        vertex = dict(zip(map(str, range(1, n + 1)), range(n)))
        nbrs = [[] for _ in range(n)]
        polar = []
        for line in rows:
            try:
                kind, a, b = line.split()
            except ValueError:  # not three tokens
                kind = None
            if kind == "e":
                u, v = vertex[a], vertex[b]
                nbrs[u].append(v)
                nbrs[v].append(u)
            elif kind == "s" and kind in kinds:
                polar.append((vertex[a], vertex[b]))
            elif line.lstrip()[:1] == "%":
                break
            elif line.lstrip()[:1] not in ("", "c"):
                raise ValueError
        g = object.__new__(Graph)
        if g._freeze(nbrs, m):
            return g, as_edge_subset(g, polar)
    except (ValueError, KeyError):
        pass
    from .dimacs import read_graph_rows

    return read_graph_rows(text, kinds)


def read_dimacs_graph(text: str) -> Graph:
    """Graph of DIMACS 'p edge N M' text with 'e u v' lines, 1-based."""
    return _read_graph(text, ("e",))[0]


def read_polar_graph(text: str):
    """(graph, polar edges as (min, max) pairs) of DIMACS graph text plus 's u v' lines."""
    return _read_graph(text, ("e", "s"))


def write_dot(g: Graph) -> str:
    """DOT export of an undirected graph."""
    lines = ["graph g {", *(f"  {v};" for v in range(g.n))]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    return "\n".join(lines) + "\n}\n"
