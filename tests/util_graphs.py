"""Shared generators and the ground truths of the test suite: plain
enumerations and searches that share no code with the engine. Exact
chi3 and chi by enumeration (oracle_chi3, oracle_chi) and the
independent refuter (refute_tf_q) on graphs; first models by
enumeration (oracle_sat, oracle_nae) and a plain NAE backtracking search
(nae_dpll) on formulas."""

import random
from collections import Counter
from itertools import combinations

from hypothesis import strategies as st
from tfcolor import CnfFormula, Coloring, Graph, as_edge_subset, triangle_pairs


def rand_graph(rng, n, p):
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def relabelled(decide, g, q, polar, seed):
    """decide(h, q, polar) on g with vertex v renamed perm[v], for a
    permutation perm drawn from seed, and its witness mapped back to g's
    labels; None stays None. A search whose answer depends on labels or
    tie order shows it here."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    got = decide(h, q, [(perm[u], perm[v]) for u, v in polar or ()] or None)
    return got and Coloring(got.k, tuple(got.colors[p] for p in perm))


@st.composite
def graphs_with_polar(draw, max_n=16):
    """A graph on up to max_n vertices with any edge set, and a random
    subset of its edges as polar pairs, each in a random orientation."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    polar = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges if draw(st.booleans())]
    return Graph(n, edges), polar


@st.composite
def graphs(draw, max_n=30):
    """A graph on up to max_n vertices. A pair is an edge when its drawn
    digit is below a drawn density, so sparse and dense graphs both come
    up."""
    n = draw(st.integers(0, max_n))
    density = draw(st.integers(0, 10))
    return Graph(n, [e for e in combinations(range(n), 2) if draw(st.integers(0, 9)) < density])


@st.composite
def cnf_formulas(draw, max_vars=4, max_clauses=4):
    """A width-3 formula of up to max_clauses clauses over up to max_vars
    variables, with no occurrence bound."""
    n = draw(st.integers(1, max_vars))
    lit = st.integers(-n, n).filter(bool)
    return CnfFormula(n, tuple(draw(st.lists(st.tuples(lit, lit, lit), max_size=max_clauses))))


def disjoint_union(*parts):
    """The disjoint union of the graphs in parts, each part's vertices
    numbered after those of the parts before it."""
    n, edges = 0, []
    for g in parts:
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += g.n
    return Graph(n, edges)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def square_of_path(n):
    """P_n^2: i ~ j when |i - j| <= 2. Outerplanar; a chain of n - 2
    triangles, each sharing an edge with the next."""
    return Graph(n, [(i, j) for i in range(n) for j in (i + 1, i + 2) if j < n])


def c4_ring(blocks):
    """A ring of 4-cycles, each joined to the next by one edge from its
    third vertex to the next block's first. Every 4-cycle needs two cover
    vertices and the first and third of each block cover every edge, so
    a minimum cover has 2 * blocks vertices."""
    edges = []
    for i in range(blocks):
        b = 4 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b, b + 3), (b + 2, 4 * ((i + 1) % blocks))]
    return Graph(4 * blocks, edges)


def grid_graph(rows, cols):
    """The rows x cols grid, vertex r * cols + c; bipartite with a
    perfect matching when rows * cols is even."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


def circulant(n):
    """C_n(1, 2), the square of the n-cycle: 4-regular for n >= 5."""
    return Graph(n, sorted({tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (1, 2)}))


def triangulated_grid(s):
    """An s x s grid with one diagonal per square: planar, chi3 = 2 for
    s >= 2, and one long chain of triangles for the search."""
    edges = []
    for r in range(s):
        for c in range(s):
            v = r * s + c
            if c + 1 < s:
                edges.append((v, v + 1))
            if r + 1 < s:
                edges.append((v, v + s))
            if r + 1 < s and c + 1 < s:
                edges.append((v, v + s + 1))
    return Graph(s * s, edges)


def brute_min_cover(g):
    """Size of a minimum vertex cover, by trying every vertex subset in
    order of size."""
    for r in range(g.n + 1):
        if any(all(u in set(s) or v in set(s) for u, v in g.edges())
               for s in combinations(range(g.n), r)):
            return r
    return g.n


def brute_triangles(g):
    """Raw scan over all vertex triples, the oracle for triangle listing."""
    out = set()
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            out.add((a, b, c))
    return frozenset(out)


def triangle_set(g):
    """The triangles of g as sorted vertex triples, read off the triangle
    index: each is listed at its smallest vertex."""
    return frozenset((v, a, b) for v, pairs in enumerate(triangle_pairs(g)) for a, b in pairs if v < a)


def random_ktree(rng, k, n):
    """Grow a k-tree: a (k+1)-clique seed, then each vertex joins a
    random k-clique. Chordal by construction; omega = k+1 for n > k."""
    base = min(n, k + 1)
    edges = list(combinations(range(base), 2))
    if base < k + 1:
        return Graph(base, edges)
    cliques = [c for c in combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        c = rng.choice(cliques)
        for u in c:
            edges.append((u, v))
        for drop in range(k):
            cliques.append(tuple(sorted((set(c) - {c[drop]}) | {v})))
    return Graph(n, edges)


def stacked_planar(rng, n):
    """Stacked triangulation: repeatedly subdivide a face with a new
    vertex joined to its three corners. Planar by construction."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        f = faces.pop(rng.randrange(len(faces)))
        a, b, c = f
        for x in (a, b, c):
            edges.add((min(x, v), max(x, v)))
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return Graph(n, sorted(edges))


def planar_subgraph(rng, n, keep=0.8):
    full = stacked_planar(rng, n)
    return Graph(n, [e for e in full.edges() if rng.random() < keep])


def icosahedron():
    return Graph(12, [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        (1, 6), (2, 6), (2, 7), (3, 7), (3, 8),
        (4, 8), (4, 9), (5, 9), (5, 10), (1, 10),
        (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
        (6, 11), (7, 11), (8, 11), (9, 11), (10, 11),
    ])


def petersen():
    return Graph(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ])


def rand_cnf(rng, n, m):
    """Random width-3 formula, no occurrence bound."""
    clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3)) for _ in range(m)]
    return CnfFormula(n, tuple(clauses))


def draw_nm_occ4(rng, max_n=4, max_m=3):
    """Variable/clause counts compatible with 4 occurrences per variable."""
    while True:
        n = rng.randint(1, max_n)
        m = rng.randint(1, max_m)
        if 3 * m <= 4 * n:
            return n, m


def rand_cnf_occ4(rng, n, m):
    """Random width-3 formula honoring the 4-occurrence budget: the
    clauses are dealt from a shuffled pool of four literal slots per
    variable, each signed at random, so any m <= 4n/3 takes linear time."""
    assert 3 * m <= 4 * n
    slots = [v for v in range(1, n + 1) for _ in range(4)]
    rng.shuffle(slots)
    clauses = [tuple(rng.choice((1, -1)) * v for v in slots[i:i + 3]) for i in range(0, 3 * m, 3)]
    return CnfFormula(n, tuple(clauses))


def planted_nae_cnf(rng, n):
    """A width-3 formula on n variables with 4n//3 clauses, every variable
    in at most 4 literal slots, that a random planted assignment
    not-all-equal satisfies; built in linear time."""
    truth = {v: rng.random() < 0.5 for v in range(1, n + 1)}
    slots = [v for v in truth for _ in range(4)]
    rng.shuffle(slots)
    clauses = []
    for i in range(0, 3 * (4 * n // 3), 3):
        while True:
            cl = tuple(v if rng.random() < 0.5 else -v for v in slots[i:i + 3])
            if len({truth[abs(l)] == (l > 0) for l in cl}) == 2:
                break
        clauses.append(cl)
    return CnfFormula(n, tuple(clauses))


def greedy_proper(rng, g):
    """First-fit proper coloring along a random vertex order; the labels
    used are always exactly 1..max."""
    order = list(range(g.n))
    rng.shuffle(order)
    colors = [0] * g.n
    for v in order:
        taken = {colors[u] for u in g.neighbors(v) if colors[u]}
        x = 1
        while x in taken:
            x += 1
        colors[v] = x
    return colors


def refute_tf_q(g, q, polar=()):
    """A triangle-free q-coloring of g honoring the polar pairs, as a list
    of colors, or None: a ground truth that shares no code with the
    engine. Plain backtracking over one static order, each next vertex the
    one with the most already placed neighbours (then the highest degree,
    then the lowest label), under the first-use label rule: a vertex may
    take at most the one label after the largest in use before it. Each
    triangle and polar pair is checked when its last vertex in the order
    is colored. The colors by position are the explicit stack."""
    n = g.n
    adj = [set(g.neighbors(v)) for v in range(n)]
    placed = [0] * n  # placed[v]: v's neighbours already in the order, or -1 once v is
    order = []
    for _ in range(n):
        v = max(range(n), key=lambda u: (placed[u], len(adj[u]), -u))
        order.append(v)
        placed[v] = -1
        for u in adj[v]:
            if placed[u] >= 0:
                placed[u] += 1
    pos = {v: i for i, v in enumerate(order)}
    polar_pairs = {frozenset(e) for e in polar or ()}
    # checks[i]: pairs (a, b) placed before order[i] that may not both
    # share its color: the other two vertices of a triangle, or (u, u) for a polar pair
    checks = []
    for i, v in enumerate(order):
        before = sorted(u for u in adj[v] if pos[u] < i)
        checks.append([(a, b) for a, b in combinations(before, 2) if b in adj[a]]
                      + [(u, u) for u in before if frozenset((u, v)) in polar_pairs])
    color = [0] * n
    top = [0] * (n + 1)  # top[i]: the largest label among the first i vertices of the order
    i = 0
    while 0 <= i < n:
        v = order[i]
        bad = {color[a] for a, b in checks[i] if color[a] == color[b]}
        x = color[v] + 1
        while x in bad:
            x += 1
        if x <= min(q, top[i] + 1):
            color[v] = x
            top[i + 1] = max(top[i], x)
            i += 1
        else:
            color[v] = 0
            i -= 1
    return color if i == n else None


def refuted_chi3(g, polar=()):
    """The least budget refute_tf_q fits."""
    return next(q for q in range(g.n + 1) if refute_tf_q(g, q, polar) is not None)


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


# the ground truth of witness.sat_satisfies and nae_satisfies
def _first_model(phi: CnfFormula, nae: bool):
    """First assignment in mask order (bit v-1 is variable v) under which
    every clause has a true literal value and, with nae, a false one too;
    or None. It calls none of the checkers above: it is their ground truth."""
    for mask in range(1 << phi.num_vars):
        for cl in phi.clauses:
            t = f = False
            for l in cl:
                if ((mask >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0):
                    t = True
                else:
                    f = True
            if not t or (nae and not f):
                break
        else:
            return {v: bool((mask >> (v - 1)) & 1) for v in range(1, phi.num_vars + 1)}
    return None


def oracle_sat(phi: CnfFormula):
    """First satisfying assignment by full enumeration, or None.
    Intended for small variable counts."""
    return _first_model(phi, False)


def oracle_nae(phi: CnfFormula):
    """First not-all-equal satisfying assignment by full enumeration, or
    None. Intended for small variable counts."""
    return _first_model(phi, True)


def nae_dpll(phi):
    """A not-all-equal model of phi as a dict variable -> bool, or None,
    for formulas past oracle_nae's reach. Plain backtracking over one
    static order, the variables in the most literal slots first (then the
    lowest number), each tried False, then True; each clause is checked
    when its last variable in the order is set. The tries by position are
    the explicit stack."""
    count = Counter(abs(l) for cl in phi.clauses for l in cl)
    order = sorted(range(1, phi.num_vars + 1), key=lambda x: (-count[x], x))
    pos = {x: i for i, x in enumerate(order)}
    checks = [[] for _ in order]  # checks[i]: the clauses whose last variable is order[i]
    for cl in phi.clauses:
        checks[max(pos[abs(l)] for l in cl)].append(cl)
    value = {}
    tries = [0] * len(order)  # tries[i]: how many values order[i] has taken so far
    i = 0
    while 0 <= i < len(order):
        if tries[i] == 2:
            tries[i] = 0
            i -= 1
            continue
        value[order[i]] = tries[i] == 1
        tries[i] += 1
        if all(len({value[abs(l)] == (l > 0) for l in cl}) == 2 for cl in checks[i]):
            i += 1
    return value if i == len(order) else None
