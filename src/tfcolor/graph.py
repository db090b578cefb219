"""Immutable simple-graph core: construction, vertex identification,
the one triangle listing, a per-vertex index built by intersecting the
adjacency sets of each edge, a K4 certifier that reads only the
adjacency sets, the member iterator of vertex sets held as int bitsets,
DIMACS/DOT output, the one DIMACS-style reader behind
the graph, polar-instance and CNF readers, and the read-only record
base of the value classes."""

from __future__ import annotations


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
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self._adj = tuple(map(frozenset, adj))

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
        out = []
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out

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
    edges = set()
    for a, b in g.edges():
        a2, b2 = vmap[a], vmap[b]
        if a2 != b2:
            edges.add((a2, b2) if a2 < b2 else (b2, a2))
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
    """True iff some four vertices are pairwise adjacent: for some edge
    uv, u < v, a w in common = N(u) & N(v) has a neighbor in common. Reads
    only the adjacency sets, never the triangle index."""
    adj = g._adj
    for u, au in enumerate(adj):
        for v in au:
            if v > u:
                common = au & adj[v]
                for w in common:
                    if not adj[w].isdisjoint(common):
                        return True
    return False


def connected_components(g: Graph) -> list:
    """Vertex lists of the connected components, each sorted, in order
    of smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
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


def write_dimacs_graph(g: Graph) -> str:
    """DIMACS text: 'p edge N M' header plus sorted 'e u v' lines with
    1-based endpoints, u < v. Bit-exact for round-tripping."""
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def dimacs_rows(text: str, fmt: str, kinds: tuple = ()):
    """Stream DIMACS-style text in one pass. Yields (N, M), both
    non-negative, from its one 'p <fmt> N M' header, then per data line
    (kind, a, b) for a 'kind a b' line with kind in kinds or, with no
    kinds, the line's integers. Blank and 'c' lines are skipped and a '%'
    line ends the input. Every error names its line, also one a caller
    throws in at the row it refuses."""
    header = None
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        head = parts[0]
        try:
            if head in kinds and len(parts) == 3 and header is not None:
                row = head, int(parts[1]), int(parts[2])
            elif head[0] == "c":
                continue
            elif head[0] == "%":
                break
            elif head == "p":
                if header is not None:
                    raise ValueError("duplicate header")
                if len(parts) != 4 or parts[1] != fmt:
                    raise ValueError(f"expected 'p {fmt} N M'")
                row = header = int(parts[2]), int(parts[3])
                if min(header) < 0:
                    raise ValueError("counts must be non-negative")
            elif header is None:
                raise ValueError(f"data before the 'p {fmt}' header")
            elif not kinds:
                row = [int(t) for t in parts]
            else:
                raise ValueError(f"expected {' or '.join(repr(k + ' u v') for k in kinds)}")
        except ValueError as e:
            raise ValueError(f"line {ln}: bad line {raw.strip()!r}: {e}") from None
        try:
            yield row
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from None
    if header is None:
        raise ValueError(f"missing 'p {fmt}' header")


def _read_graph(text: str, kinds: tuple):
    rows = dimacs_rows(text, "edge", kinds)
    n, m = next(rows)
    edges, polar = [], []
    for kind, u, v in rows:
        (edges if kind == "e" else polar).append((u - 1, v - 1))
    if m != len(edges):
        raise ValueError(f"header claims {m} edges, found {len(edges)}")
    g = None
    try:
        g = Graph(n, edges)
        return g, as_edge_subset(g, polar)
    except ValueError:
        # name the refused pair's line and 1-based labels only now, at no cost to valid input
        rows = dimacs_rows(text, "edge", kinds)
        next(rows)
        seen = set()
        for kind, u, v in rows:
            a, b = sorted((u, v))
            if kind == "s":
                if g is not None and not (1 <= a and b <= n and g.has_edge(a - 1, b - 1)):
                    rows.throw(ValueError(f"polar edge ({u}, {v}) not present in graph"))
            elif a < 1 or b > n:
                rows.throw(ValueError(f"edge endpoint out of range: ({u}, {v}) with n={n}"))
            elif a == b:
                rows.throw(ValueError(f"self-loop on vertex {a}"))
            elif (a, b) in seen:
                rows.throw(ValueError(f"duplicate edge ({a}, {b})"))
            else:
                seen.add((a, b))
        raise


def read_dimacs_graph(text: str) -> Graph:
    """Graph of DIMACS 'p edge N M' text with 'e u v' lines, 1-based."""
    return _read_graph(text, ("e",))[0]


def read_polar_graph(text: str):
    """(graph, polar edges as (min, max) pairs) of DIMACS graph text plus 's u v' lines."""
    return _read_graph(text, ("e", "s"))


def write_dot(g: Graph, coloring=None) -> str:
    """DOT export of an undirected graph; when a coloring is given the
    vertices carry filled colors from a 12-color scheme."""
    lines = ["graph g {"]
    if coloring is not None:
        if len(coloring.colors) != g.n:
            raise ValueError("coloring size does not match graph")
        lines.append('  node [style=filled colorscheme="set312"];')
        for v in range(g.n):
            lines.append(f"  {v} [fillcolor={(coloring.colors[v] - 1) % 12 + 1}];")
    else:
        for v in range(g.n):
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
