"""The vertex-cover side: a minimum vertex cover by branch and bound
under the simplicial-vertex rule, searched on an explicit stack of nodes
that each hold three immutable int vertex sets (the vertices left, the
cover so far, the worklist), so no graph size reaches the recursion
limit; the vertex-cover-parameter algorithm, which colors each
component from its part of a minimum cover; the clique number; and
compute_params. solve --fpt and params load this module, and only
compute_params loads the search engine.
"""

from .coloring import Coloring, verify_triangle_free
from .graph import Graph, _members, connected_components, triangle_pairs


def min_vertex_cover(g: Graph) -> frozenset:
    """A minimum-cardinality vertex cover, by one branch-and-bound search
    per connected component on an explicit stack. A node is three
    immutable vertex sets, ints over the component's own numbering 0..k-1:
    the vertices left, the cover so far and the worklist; a branch builds
    new sets, so nothing is undone. Each node first applies the simplicial
    rule: a vertex u whose remaining neighbors are pairwise adjacent puts
    all of them into the cover. This is safe by exchange: any cover holds
    all but at most one vertex of the clique N[u], and if it misses some
    neighbor w it holds u instead, so swapping u for w gives a cover of
    the same size. The worklist drives the rule, highest index first; it
    starts with the whole component and takes back every remaining
    neighbor of a removed vertex. One pass over the vertices left then
    drops the isolated ones, matches each free vertex to its lowest free
    neighbor and the pair to its lowest free common neighbor, if any, and
    finds a maximum-degree vertex (lowest index among ties). The node
    prunes when the cover so far plus one vertex per matched edge and two
    per matched triangle cannot beat the best cover found, records the
    cover so far when no edge is left, and otherwise branches on the
    vertex against its whole neighborhood, the single-vertex side popped
    first."""
    cover = []
    for comp in connected_components(g):
        index = {v: i for i, v in enumerate(comp)}
        nbr = [sum(1 << index[u] for u in g.neighbors(v)) for v in comp]
        whole = (1 << len(comp)) - 1
        best = whole
        stack = [(whole, 0, whole)]
        while stack:
            left, cov, work = stack.pop()
            while work:
                u = work.bit_length() - 1
                work ^= 1 << u
                nu = nbr[u] & left
                if nu and all(nu & ~nbr[w] == 1 << w for w in _members(nu)):
                    left ^= nu
                    cov |= nu
                    for w in _members(nu):
                        work |= nbr[w]
                    work &= left
            free, packed, v, top = left, 0, -1, 0
            for u in _members(left):
                nu = nbr[u] & left
                if not nu:
                    left ^= 1 << u
                    continue
                d = nu.bit_count()
                if d > top:
                    v, top = u, d
                if free >> u & 1:
                    mate = nu & free
                    if mate:
                        mate &= -mate
                        third = nu & nbr[mate.bit_length() - 1] & free
                        free ^= 1 << u | mate | third & -third
                        packed += 2 if third else 1
            if cov.bit_count() + packed < best.bit_count():
                if v < 0:
                    best = cov
                else:
                    nv = nbr[v] & left
                    around = 0
                    for w in _members(nv):
                        around |= nbr[w]
                    stack.append((left ^ nv, cov | nv, around & (left ^ nv)))
                    stack.append((left ^ 1 << v, cov | 1 << v, nv))
        cover.extend(comp[i] for i in _members(best))
    return frozenset(cover)


def fpt_tf_q_coloring(g: Graph, q: int):
    """Triangle-free q-coloring driven by a minimum vertex cover, one
    connected component at a time, with W the component's part of the
    cover and k its size: when q > ceil(k/2) the direct construction
    always works (same-colored pairs inside W, one fresh color on the
    independent rest); otherwise every triangle-free q-coloring of W is
    enumerated and each is extended greedily over the independent rest,
    where every vertex takes the smallest color that no triangle pair of
    it shares. Those pairs lie in W, so each choice depends on W's
    coloring alone. Returns a verified Coloring, or None as soon as one
    component has none."""
    if q < 1:
        raise ValueError("color budget must be at least 1")
    in_cover = min_vertex_cover(g)
    tri = triangle_pairs(g)
    colors = [0] * g.n
    for comp in connected_components(g):
        cover = [v for v in comp if v in in_cover]
        k = len(cover)
        half = (k + 1) // 2
        pos = {w: i for i, w in enumerate(cover)}
        indep = [v for v in comp if v not in pos]
        if q > half:
            for i, w in enumerate(cover):
                colors[w] = i // 2 + 1
            for v in indep:
                colors[v] = half + 1
            continue
        # cover and each pair are sorted, so pos[b] < i puts both before i
        tri_pairs = [[(a, b) for a, b in tri[w] if a in pos and b in pos and pos[b] < i]
                     for i, w in enumerate(cover)]
        # depth-first over the cover in order with the first-use label cap, as
        # a loop over positions so a large cover cannot reach the recursion limit
        used = [0] * (k + 1)  # used[i]: the largest label on cover[:i]
        i = 0
        while i >= 0:
            if i == k:
                for v in indep:
                    blocked = {colors[a] for a, b in tri[v] if colors[a] == colors[b]}
                    colors[v] = next((x for x in range(1, q + 1) if x not in blocked), 0)
                    if not colors[v]:
                        break
                else:
                    break
                i -= 1
                continue
            w = cover[i]
            cap = used[i] + 1 if used[i] < q else q
            x = colors[w] + 1
            while x <= cap and any(colors[a] == x and colors[b] == x for a, b in tri_pairs[i]):
                x += 1
            if x > cap:
                colors[w] = 0
                i -= 1
            else:
                colors[w] = x
                used[i + 1] = max(used[i], x)
                i += 1
        if i < 0:
            return None
    result = Coloring(q, tuple(colors))
    if not verify_triangle_free(g, result):
        raise RuntimeError("internal error: cover coloring is not triangle-free")
    return result


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


def compute_params(g: Graph) -> dict:
    """Exact structural parameters as the dict {"omega", "chi", "chi3",
    "vc", "delta"}, in params' key order; chi and chi3 each come from one
    climb of the triangle-free search's budget ladder, chi with every edge
    polar, so mid-sized gadget graphs stay tractable. The answer re-checks
    the sandwich ceil(omega/2) <= chi3 <= ceil(chi/2) and the classic
    omega <= chi <= delta+1 chain; a violation is an internal error."""
    from .solvers import solve_chi3

    omega = oracle_omega(g)
    chi = solve_chi3(g, polar=g.edges()).k
    chi3 = solve_chi3(g).k
    delta = g.max_degree
    if not ((omega + 1) // 2 <= chi3 <= (chi + 1) // 2):
        raise RuntimeError("internal error: chi3 violates its clique/chromatic sandwich")
    if not (omega <= chi <= delta + 1):
        raise RuntimeError("internal error: omega <= chi <= delta+1 violated")
    return {"omega": omega, "chi": chi, "chi3": chi3, "vc": len(min_vertex_cover(g)), "delta": delta}
