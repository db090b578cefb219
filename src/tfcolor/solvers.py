"""Exact solvers: the pruned backtracking decision procedure for
triangle-free q-colorings (plain and polar; with every edge polar it
decides proper q-coloring, so it gives chi as well as chi3),
plain-enumeration oracles kept independent of it, clique search, a
minimum vertex cover by branch and bound under the simplicial-vertex
rule, and the vertex-cover-parameter algorithm, which enumerates the
colorings of a minimum cover and extends each one over the independent
rest itself.

The oracle_* functions are deliberately naive: they share no pruning
machinery with decide_tf_q and serve as ground truth in tests.
"""

from __future__ import annotations

from itertools import combinations

from .coloring import Coloring, verify_triangle_free
from .graph import Graph, Record, as_edge_subset, connected_components, triangle_pairs


class StructuralParams(Record):
    """Exact structural parameters of one graph; construction re-checks
    the sandwich ceil(omega/2) <= chi3 <= ceil(chi/2) and the classic
    omega <= chi <= delta+1 chain."""

    __slots__ = ("omega", "chi", "chi3", "vc", "delta")

    def __init__(self, omega: int, chi: int, chi3: int, vc: int, delta: int):
        super().__init__(omega, chi, chi3, vc, delta)
        if not ((self.omega + 1) // 2 <= self.chi3 <= (self.chi + 1) // 2):
            raise ValueError("chi3 violates its clique/chromatic sandwich")
        if not (self.omega <= self.chi <= self.delta + 1):
            raise ValueError("omega <= chi <= delta+1 violated")

    def to_json_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))


# ---------------------------------------------------------------------------
# enumeration oracles


def _brute_triangle_pairs(g: Graph):
    """tri[v] lists pairs (a, b) with a < b < v completing a triangle;
    computed by a raw scan over all vertex triples."""
    tri = [[] for _ in range(g.n)]
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            tri[c].append((a, b))
    return tri


def _tf_enumerate(n, k, tri, pol):
    """Plain k^n enumeration in vertex order with early cutoff on a
    completed monochromatic triangle or polar edge."""
    colors = [0] * n

    def rec(i):
        if i == n:
            return True
        for x in range(1, k + 1):
            ok = True
            for a, b in tri[i]:
                if colors[a] == x and colors[b] == x:
                    ok = False
                    break
            if ok:
                for a in pol[i]:
                    if colors[a] == x:
                        ok = False
                        break
            if ok:
                colors[i] = x
                if rec(i + 1):
                    return True
        colors[i] = 0
        return False

    if rec(0):
        return tuple(colors)
    return None


def oracle_chi3(g: Graph, polar=None):
    """Smallest k admitting a triangle-free (polar-respecting) k-coloring
    plus one witness, by plain enumeration; k=0 for the empty graph.
    Intended for small graphs (the caller bounds the size), except that
    heavily polar-constrained inputs prune well beyond that."""
    n = g.n
    if n == 0:
        return 0, Coloring(0, ())
    pairs = as_edge_subset(g, polar) if polar else frozenset()
    tri = _brute_triangle_pairs(g)
    pol = [[] for _ in range(n)]
    for u, v in pairs:
        pol[v].append(u)
    for k in range(1, n + 1):
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
    """Exact clique number by branch and bound with a size cutoff."""
    n = g.n
    if n == 0:
        return 0
    adj = [g.neighbors(v) for v in range(n)]
    best = 1

    def extend(size, cand):
        nonlocal best
        if size > best:
            best = size
        for i, v in enumerate(cand):
            if size + len(cand) - i <= best:
                return
            extend(size + 1, [u for u in cand[i + 1:] if u in adj[v]])

    order = sorted(range(n), key=lambda v: -len(adj[v]))
    extend(0, order)
    del extend  # a recursive closure refers to itself; unbound, it leaves no cycle behind
    return best


# ---------------------------------------------------------------------------
# the optimized decision procedure


# Pieces of at most this many vertices that a decision cuts off are split
# from the rest and searched without conflict analysis; larger uncolored
# parts stay together.
PIECE = 64


def decide_tf_q(g: Graph, q: int, polar=None, rng=None):
    """Search for a triangle-free q-coloring honoring the polar edges.
    With every edge polar (polar=g.edges()) this decides proper
    q-coloring, so chi and chi3 share this one search.

    Backtracking with propagation over the constraints alone, triangles
    and polar edges: a color is blocked at a vertex when the other two
    vertices of a triangle already share it, or a polar neighbor holds
    it; forced vertices are assigned to a fixpoint, and each decision
    picks a most-constrained uncolored vertex (fewest free colors, then
    most colored neighbors, then highest degree, where a neighbor is a
    vertex sharing a constraint). Color symmetry is broken by letting
    any assignment introduce at most the one label after the largest
    label in use, so the first assigned vertex takes color 1 and no more
    than min(q, n) labels are ever searched. Forced moves are exempt from
    the cap but never need labels beyond it: an unused label is blocked
    only by a twin nogood, and that nogood rules out every unused label
    alike.

    The state is held in vertex sets as Python ints, one bit per vertex
    (bit-parallel after San Segundo et al.): each vertex's constraint
    neighbors and polar neighbors, the vertices of each color, the
    vertices at which each color is blocked, and the uncolored vertices.
    Two vertices of a triangle have the third among their common
    constraint neighbors, so assigning u = x blocks x on the uncolored
    common constraint neighbors of u and each x-colored neighbor of u,
    and on u's polar neighbors, in a few set operations. Every change to
    a blocked set pushes the old set onto a stack, and undo restores the
    saved sets in reverse.

    Twins (equal closed or open neighborhoods, equal polar neighborhoods)
    are interchangeable, so once v = x has failed at a node, x is blocked
    on each uncolored twin u of v until the node's assignment is undone:
    the swap (u v) fixes that assignment (Gent and Smith's symmetry
    breaking during search). Where the search backjumps, the nogood is
    blamed on the decisions behind the failure of v = x.

    After each decision, the pieces of at most PIECE uncolored vertices
    that it cut off from the rest are solved first, smallest first; a
    failing piece need never be retried against its siblings'
    alternatives. Outside the pieces the search backjumps (Prosser's
    conflict-directed backjumping): every failure carries the set of
    decisions it follows from, and a decision that is not in that set is
    undone without trying its other colors. A failed piece is blamed on
    everything colored around it.

    A decision tries its vertex's free colors least used first, by how
    many of its constraint neighbors hold each (ties in label order;
    promise-first value ordering, after Geelen), so a new label comes
    before any label a neighbor holds. With every edge polar no neighbor
    holds a free color, so the order is label order.

    The search keeps its frames on an explicit stack, not the Python call
    stack, so no input is too deep for the recursion limit.

    rng, when given, shuffles decision ties and colors of equal count to
    randomize which witness is found; feasibility is unaffected.

    Returns a verified Coloring or None.
    """
    if q < 1:
        raise ValueError("color budget must be at least 1")
    n = g.n
    pairs = as_edge_subset(g, polar) if polar else frozenset()
    if n == 0:
        return Coloring(q, ())

    # A polar edge uw joins tri[u] as (u, w) and tri[w] as (w, u): u always
    # holds the color being propagated, so the triangle rule blocks it on w.
    tri = triangle_pairs(g)
    pol = [0] * n  # pol[v]: v's polar neighbors
    for u, w in pairs:
        tri[u].append((u, w))
        tri[w].append((w, u))
        pol[u] |= 1 << w
        pol[w] |= 1 << u
    # nbrs[v]: the vertices sharing a constraint with v; nmask[v]: the same
    # as a vertex set
    nbrs = [{x for ab in tri[v] for x in ab} - {v} for v in range(n)]
    nmask = [sum(1 << u for u in s) for s in nbrs]
    labels = min(q, n)

    def twin_classes():
        """twins[v]: v's twin class in index order, or () when it has
        none; no vertex has twins of both kinds, so it is in at most one
        real class."""
        classes = {}
        for v in range(n):
            if tri[v]:
                adj = g.neighbors(v)
                pol = frozenset(b for a, b in tri[v] if a == v) if pairs else ()
                for key in (adj, adj | {v}):
                    classes.setdefault((key, pol), []).append(v)
        twins = [()] * n
        for cls in classes.values():
            if len(cls) > 1:
                for v in cls:
                    twins[v] = cls
        return twins

    twins = None  # built at the first failed decision; a search that fails none skips it

    tie = list(range(n))
    if rng is not None:
        rng.shuffle(tie)

    color = [0] * n
    # why[v]: bitmask of the decision levels that colored v follows from;
    # a forced vertex follows from the pairs that blocked its other colors
    why = [0] * n
    cls = [0] * (labels + 1)  # cls[x]: the vertices colored x
    blocked = [0] * (labels + 1)  # blocked[x]: the vertices at which x is blocked
    # nblk[v]: how many blocked sets hold v. Every label blocked at v is at
    # most the cap: a triangle or polar block uses a label in use, and a
    # twin nogood one that was a candidate at an ancestor node. So an
    # uncolored v has cap - nblk[v] free colors.
    nblk = [0] * n
    uncolored = (1 << n) - 1
    # held[v]: the decision levels behind the twin nogoods that block
    # colors at v. bstack holds (x, old blocked[x]) for each growth of a
    # blocked set and (~v, old held[v]) for each twin nogood at v.
    held = [0] * n
    assigned = []
    bstack = []
    conflict = 0  # the decision levels behind the latest failure

    def undo(a_mark, b_mark):
        nonlocal uncolored
        while len(bstack) > b_mark:
            x, old = bstack.pop()
            if x < 0:
                held[~x] = old
                continue
            m = blocked[x] ^ old
            while m:
                low = m & -m
                nblk[low.bit_length() - 1] -= 1
                m ^= low
            blocked[x] = old
        while len(assigned) > a_mark:
            v = assigned.pop()
            cls[color[v]] ^= 1 << v
            uncolored |= 1 << v
            color[v] = 0

    def blame(w):
        """The decision levels behind every color blocked at uncolored w."""
        m = held[w]
        for a, b in tri[w]:
            cb = color[b]
            if cb and (a == w or color[a] == cb):
                m |= why[b] if a == w else why[a] | why[b]
        return m

    def apply_with_propagation(v0, x0, maxused, bit):
        """Assign v0 = x0 (decision level bit, 0 inside a piece) plus all
        forced consequences; returns the new max label in use, or None on
        a dead end (caller undoes), with conflict set when bit is.

        The worklist holds plain vertices and forcedness is re-derived
        when one is popped: the symmetry cap may have grown since the
        vertex was touched, in which case it is no longer forced and is
        left to a later decision.
        """
        nonlocal conflict
        pending = []

        def assign(u, xu):
            nonlocal maxused, uncolored
            color[u] = xu
            assigned.append(u)
            if xu > maxused:
                maxused = xu
            uncolored ^= 1 << u
            cls[xu] |= 1 << u
            nu = nmask[u]
            old = blocked[xu]
            fresh = ((nu & around(nu & cls[xu])) | pol[u]) & uncolored & ~old
            if fresh:
                bstack.append((xu, old))
                blocked[xu] = old | fresh
                while fresh:
                    low = fresh & -fresh
                    w = low.bit_length() - 1
                    nblk[w] += 1
                    pending.append(w)
                    fresh ^= low

        why[v0] = bit
        assign(v0, x0)
        while pending:
            w = pending.pop()
            if color[w]:
                continue
            cap = labels if maxused >= labels else maxused + 1
            free = cap - nblk[w]
            if not free:
                if bit:
                    conflict = blame(w)
                return None
            if free == 1:
                why[w] = blame(w) if bit else 0
                assign(w, next(y for y in range(1, cap + 1) if not blocked[y] >> w & 1))
        return maxused

    def pick_decision(part):
        best = None
        best_key = None
        colored = ~uncolored
        m = part & uncolored
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            key = (-nblk[v], -(nmask[v] & colored).bit_count(), -len(nbrs[v]), tie[v])
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def around(m):
        """The vertices sharing a constraint with some vertex of the set m."""
        reach = 0
        while m:
            low = m & -m
            reach |= nmask[low.bit_length() - 1]
            m ^= low
        return reach

    def components(comp):
        """Components of the uncolored part of the vertex set comp under
        the constraints, as vertex sets, smallest first."""
        todo = comp & uncolored
        subs = []
        while todo:
            sub = frontier = todo & -todo
            while frontier:
                frontier = around(frontier) & todo & ~sub
                sub |= frontier
            todo ^= sub
            subs.append(sub)
        subs.sort(key=int.bit_count)
        return subs

    def split(fresh, near):
        """(pieces, near) once the vertices in fresh have been colored:
        pieces are the uncolored components of at most PIECE vertices
        next to fresh, smallest first, as vertex sets; near is the
        uncolored part of the given near plus the neighbors of fresh,
        outside the pieces. A walk from a neighbor of fresh stops once it
        passes PIECE vertices or meets a vertex known to lie beyond a
        piece, so a decision costs no walk over the whole part it
        searches. The walks visit vertex by vertex, not by set
        operations, whose cost grows with n."""
        far = set()
        seen = 0
        pieces = []
        touched = 0
        for f in fresh:
            touched |= nmask[f]
            for s in nbrs[f]:
                if color[s] or seen >> s & 1 or s in far:
                    continue
                piece = [s]
                mark = {s}
                stack = [s]
                closed = True
                while stack and closed:
                    x = stack.pop()
                    for u in nbrs[x]:
                        if color[u] or u in mark:
                            continue
                        if u in far or len(piece) >= PIECE:
                            closed = False
                            break
                        mark.add(u)
                        piece.append(u)
                        stack.append(u)
                if closed:
                    pieces.append(sum(1 << u for u in piece))
                    seen |= pieces[-1]
                else:
                    far.update(mark)
        pieces.sort(key=int.bit_count)
        return pieces, (near | touched) & uncolored & ~seen

    def search(comp, maxused, depth, near=0):
        """Fully color the uncolored vertices of the vertex set comp;
        returns the new max label in use, or None when infeasible (caller
        undoes). depth is the decision level for conflict analysis, or
        None inside a piece. near holds the vertices of comp next to a
        colored one: only they have colored neighbors or colors blocked by
        a constraint (a twin nogood can block a vertex outside near), so
        while one of them is uncolored the decision is among them.

        A generator and one frame of the explicit stack: it yields the
        arguments of each part it needs colored, the pieces and then the
        rest of comp, and is sent back that part's result."""
        nonlocal conflict, twins
        cap = labels if maxused >= labels else maxused + 1
        v = pick_decision(near) if near else None
        if v is None:
            v = pick_decision(comp)
            if v is None:
                return maxused
        bit = 0 if depth is None else 1 << depth
        cand = [x for x in range(1, cap + 1) if not blocked[x] >> v & 1]
        if rng is not None:
            rng.shuffle(cand)
        cand.sort(key=lambda x: (nmask[v] & cls[x]).bit_count())
        tried = 0
        for x in cand:
            a_mark, b_mark = len(assigned), len(bstack)
            res = apply_with_propagation(v, x, maxused, bit)
            if res is not None:
                if bit:
                    pieces, near_rest = split(assigned[a_mark:], near)
                else:
                    pieces = components(comp)
                for piece in pieces:
                    res = yield piece, res, None
                    if res is None:
                        if bit:
                            conflict = 0
                            for w in _members(piece):
                                conflict |= held[w]
                            for u in _members(around(piece) & ~uncolored):
                                conflict |= why[u]
                        break
                if res is not None and bit:
                    res = yield comp, res, depth + 1, near_rest
                if res is not None:
                    return res
            undo(a_mark, b_mark)
            if bit:
                if not conflict & bit:
                    return None  # v is not to blame: its other colors fail too
                tried |= conflict
            # twin nogoods: a twin blocked here shares v's uncolored
            # constraint neighbors, so it lies in v's uncolored component
            if twins is None:
                twins = twin_classes()
            for u in twins[v]:
                if u != v and not color[u]:
                    bstack.append((~u, held[u]))
                    held[u] |= conflict & ~bit if bit else 0
                    old = blocked[x]
                    if not old >> u & 1:
                        bstack.append((x, old))
                        blocked[x] = old | 1 << u
                        nblk[u] += 1
        if bit:
            conflict = (tried | blame(v)) & ~bit
        return None

    maxused = 0
    for v in range(n):
        if not nbrs[v]:
            # v is under no constraint, a component of its own that takes
            # its first candidate color; no vertex set needs to record it
            cand = list(range(1, min(maxused + 1, labels) + 1))
            if rng is not None:
                rng.shuffle(cand)
            color[v] = cand[0]
            maxused = max(maxused, cand[0])
            uncolored ^= 1 << v
    for sub in components(uncolored):
        stack = [search(sub, maxused, 0 if sub.bit_count() > PIECE else None)]
        maxused = None
        while stack:
            try:
                part = stack[-1].send(maxused)
            except StopIteration as done:
                stack.pop()
                maxused = done.value
            else:
                stack.append(search(*part))
                maxused = None  # a new generator is started with None
        if maxused is None:
            return None
    result = Coloring(q, tuple(color))
    if not verify_triangle_free(g, result, pairs or None):
        raise RuntimeError("internal error: solver produced an invalid coloring")
    return result


def _members(m):
    """The vertices of the vertex set m, in index order."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def solve_chi3(g: Graph, polar=None):
    """Exact chi3 (optionally polar-constrained) with a verified witness:
    the all-ones coloring when no edge is polar and the verifier accepts
    it, else the decision procedure with a growing budget from 2."""
    if g.n == 0:
        return 0, Coloring(0, ())
    polar = as_edge_subset(g, polar) if polar else None
    ones = Coloring(1, (1,) * g.n)
    if not polar and verify_triangle_free(g, ones):
        return 1, ones
    for k in range(2, g.n + 1):
        c = decide_tf_q(g, k, polar=polar)
        if c is not None:
            return k, c
    raise AssertionError("a rainbow coloring always fits")


# ---------------------------------------------------------------------------
# vertex cover and the cover-parameterized coloring algorithm


def _remove_vertex(adj, v):
    nbrs = adj.pop(v)
    emptied = []
    for u in nbrs:
        s = adj[u]
        s.discard(v)
        if not s:
            del adj[u]
            emptied.append(u)
    return nbrs, emptied


def _restore_vertex(adj, v, nbrs, emptied):
    for u in emptied:
        adj[u] = set()
    for u in nbrs:
        adj[u].add(v)
    adj[v] = set(nbrs)


def min_vertex_cover(g: Graph) -> frozenset:
    """A minimum-cardinality vertex cover, by one branch-and-bound pass
    per connected component. Each node first applies the simplicial
    rule: a vertex u whose remaining neighbors are pairwise adjacent puts
    all of them into the cover. This is safe by exchange: any cover holds
    all but at most one vertex of the clique N[u], and if it misses some
    neighbor w it holds u instead, so swapping u for w gives a cover of
    the same size. A worklist drives the rule; it starts with every
    vertex of the component and takes back every neighbor of a removed
    vertex. The node then prunes when the cover so far plus a greedy
    maximal matching of what is left cannot beat the best cover found,
    records the cover so far when no edge is left, and otherwise
    branches on a maximum-degree vertex versus its whole neighborhood."""
    cover = []
    for comp in connected_components(g):
        if len(comp) < 2:
            continue
        adj = {v: set(g.neighbors(v)) for v in comp}
        best = comp
        cur = []

        def node(pend):
            nonlocal best
            undo = []
            while pend:
                nu = adj.get(pend.pop())
                if nu and all(len(nu & adj[w]) == len(nu) - 1 for w in nu):
                    for w in list(nu):
                        nbrs, emptied = _remove_vertex(adj, w)
                        undo.append((w, nbrs, emptied))
                        cur.append(w)
                        pend.extend(nbrs)
            matched = set()
            for u in adj:
                if u not in matched:
                    w = next((w for w in adj[u] if w not in matched), None)
                    if w is not None:
                        matched.update((u, w))
            if len(cur) + len(matched) // 2 < len(best):
                if not adj:
                    best = list(cur)
                else:
                    v = max(adj, key=lambda u: (len(adj[u]), -u))
                    for side in ([v], sorted(adj[v])):
                        removed = [(u,) + _remove_vertex(adj, u) for u in side]
                        cur.extend(side)
                        node([x for _, nb, _ in removed for x in nb])
                        del cur[-len(side):]
                        for u, nb, em in reversed(removed):
                            _restore_vertex(adj, u, nb, em)
            for w, nb, em in reversed(undo):
                _restore_vertex(adj, w, nb, em)
            del cur[len(cur) - len(undo):]

        node(list(comp))
        del node  # as in oracle_omega: no cycle, so no garbage left for the collector
        cover.extend(best)
    return frozenset(cover)


def fpt_tf_q_coloring(g: Graph, q: int):
    """Triangle-free q-coloring driven by a minimum vertex cover W of
    size k: when q > ceil(k/2) the direct construction always works
    (same-colored pairs inside W, one fresh color on the independent
    rest); otherwise every triangle-free q-coloring of W is enumerated
    and each is extended greedily over the independent rest, where every
    vertex takes the smallest color that no triangle pair of it shares.
    Those pairs lie in W, so each choice depends on W's coloring alone.
    Returns a verified Coloring or None."""
    if q < 1:
        raise ValueError("color budget must be at least 1")
    n = g.n
    if n == 0:
        return Coloring(q, ())
    cover = sorted(min_vertex_cover(g))
    k = len(cover)
    half = (k + 1) // 2
    pos = {w: i for i, w in enumerate(cover)}
    indep = [v for v in range(n) if v not in pos]
    colors = [0] * n
    if q > half:
        for i, w in enumerate(cover):
            colors[w] = i // 2 + 1
        for v in indep:
            colors[v] = half + 1
    else:
        # cover and each pair are sorted, so pos[b] < i puts both before i
        tri = triangle_pairs(g)
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


def compute_params(g: Graph) -> StructuralParams:
    """Exact structural parameters; chi and chi3 come from the
    triangle-free search, chi with every edge polar, so mid-sized gadget
    graphs stay tractable."""
    return StructuralParams(
        omega=oracle_omega(g),
        chi=solve_chi3(g, polar=g.edges())[0],
        chi3=solve_chi3(g)[0],
        vc=len(min_vertex_cover(g)),
        delta=g.max_degree,
    )
