"""The triangle-free search engine: decide_tf_q, the pruned backtracking
decision procedure for triangle-free q-colorings, plain and polar (with
every edge polar it gives chi as well as chi3), which searches only the
q-core of the constraints, and solve_chi3, which climbs the budgets 1,
2, ... on one setup of the graph. solve --q, chi3, --polar and the
bounded class pipelines load this module; params loads it through
fpt.compute_params.
"""

from __future__ import annotations

from .coloring import Coloring, verify_triangle_free
from .graph import Graph, _members, as_edge_subset, triangle_pairs


# Pieces of at most this many vertices that a decision cuts off are split
# from the rest and searched without conflict analysis; larger uncolored
# parts stay together.
PIECE = 64


def decide_tf_q(g: Graph, q: int, polar=None):
    """Search for a triangle-free q-coloring honoring the polar edges.
    With every edge polar (polar=g.edges()) this decides proper
    q-coloring, so chi and chi3 share this one search.

    The constraints are the triangles and the polar edges; a neighbor of v
    shares one with v. Kempe's rule peels them to their q-core (Matula and
    Beck's smallest-last order, Chaitin's simplify step): a vertex under
    fewer than q live constraints, whose other vertices are still in,
    leaves. Only the core is searched; the peeled vertices are colored in
    reverse peel order, each with its free color least used among its
    neighbors, ties to the lower label. Each is then under fewer than q
    live constraints, each blocking at most one color, so one is free; the
    q-core does not depend on the removal order, so closed or open twins
    are both in it or both out, and twins of the core are automorphisms of
    the core instance; the label cap holds in the core only.

    The core is searched by backtracking with propagation: a color is
    blocked at a vertex when the other two vertices of a triangle share
    it, or a polar neighbor holds it; forced vertices are assigned to a
    fixpoint, and each decision picks a most-constrained uncolored vertex
    (fewest free colors, then most colored neighbors, then highest
    degree, then the lower index). Each component of the constraints is
    searched on its own with its own label cap: an assignment may
    introduce at most the one label after the largest in use in its
    component, so no more than min(q, n) labels are ever searched. Forced
    moves are exempt from the cap but never need labels beyond it: an
    unused label is blocked only by a twin nogood, which rules out every
    unused label.

    The state is held in vertex sets as Python ints, one bit per vertex
    (bit-parallel after San Segundo et al.): the neighbors and polar
    neighbors of each vertex, the vertices of each color and those at
    which it is blocked, and the uncolored vertices. Two vertices of a
    triangle have the third among their common neighbors, so u = x blocks
    x on the uncolored common neighbors of u and each x-colored neighbor
    of u, and on u's polar neighbors, in a few set operations; undo
    restores each blocked set from a stack of old ones and lowers the
    per-vertex counts of blocked colors from a flat log of the raises.

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
    everything colored around it. The search keeps its frames on an
    explicit stack, so no input is too deep for the recursion limit.

    A decision tries its vertex's free colors least used first, by how
    many of its neighbors hold each (ties in label order; promise-first
    value ordering, after Geelen), so a new label comes before any label
    a neighbor holds. With every edge polar no neighbor holds a free
    color, so the order is label order.

    Returns a verified Coloring or None.
    """
    if q < 1:
        raise ValueError("color budget must be at least 1")
    return _ladder(g, (q,), polar)


def _ladder(g: Graph, budgets, polar=None):
    """The search of decide_tf_q at each budget in turn: the first verified
    Coloring, or None. The polar pairs and the index are built once, the
    core's sets, components and twin classes only when the core changes;
    budget 1 is skipped when anything is constrained."""
    n = g.n
    pairs = as_edge_subset(g, polar) if polar else frozenset()

    # A polar edge uw joins index[u] as (u, w) and index[w] as (w, u): u
    # always holds the color being propagated, so the triangle rule blocks it on w.
    index = triangle_pairs(g)
    for u, w in pairs:
        index[u].append((u, w))
        index[w].append((w, u))

    def twin_classes():
        """twins[v]: v's twin class in index order, or () when it has
        none. The key is v's polar and its open or closed constraint
        neighbors, sorted: vertices sharing a constraint are adjacent, so
        a triangle through v lies in its closed constraint neighbors, and
        swapping two twins maps the constraints onto themselves. No vertex
        has twins of both kinds, so it is in at most one real class."""
        classes = {}
        for v, s in enumerate(nbrs):
            if s:
                p = pol[v] and tuple(sorted(b for a, b in tri[v] if a == v))
                classes.setdefault((p, *sorted(s)), []).append(v)
                classes.setdefault((p, *sorted(s | {v})), []).append(v)
        twins = [()] * n
        for cls in classes.values():
            if len(cls) > 1:
                for v in cls:
                    twins[v] = cls
        return twins

    # The decision key nblk[v] * k1 + colored neighbors * k2 + static[v] is
    # in radix n: the colored neighbors, the degree in static[v] and the
    # index under it are each at most n - 1, so one int comparison
    # compares the fields in that order.
    k2 = n * n
    k1 = n * k2

    def undo(a_mark, b_mark, n_mark):
        nonlocal uncolored
        while len(bstack) > b_mark:
            x, old = bstack.pop()
            if x < 0:
                held[~x] = old
            else:
                blocked[x] = old
        for w in nlog[n_mark:]:
            nblk[w] -= 1
        del nlog[n_mark:]
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
        left to a later decision. Only a vertex left with at most one free
        color is queued: the cap never shrinks, so any other one can be
        forced only after it is blocked again, which queues it then.
        """
        nonlocal conflict, uncolored
        pending = []
        why[v0] = bit
        u, xu = v0, x0
        while u is not None:  # assign u = xu, then pop the next forced vertex into u
            color[u] = xu
            assigned.append(u)
            if xu > maxused:
                maxused = xu
            cap = labels if maxused >= labels else maxused + 1
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
                    nlog.append(w)
                    if nblk[w] >= cap - 1:
                        pending.append(w)
                    fresh ^= low
            u = None
            while pending and u is None:
                w = pending.pop()
                if color[w]:
                    continue
                free = cap - nblk[w]
                if not free:
                    if bit:
                        conflict = blame(w)
                    return None
                if free == 1:
                    why[w] = blame(w) if bit else 0
                    u, xu = w, 1
                    while blocked[xu] >> w & 1:
                        xu += 1
        return maxused

    def pick_decision(part):
        best = None
        best_key = -1
        colored = constrained ^ uncolored
        m = part & uncolored
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            key = nblk[v] * k1 + (nmask[v] & colored).bit_count() * k2 + static[v]
            if key > best_key:
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
            frontier = todo & -todo
            rest = todo ^ frontier
            while frontier and rest:
                frontier = around(frontier) & rest
                rest ^= frontier
            subs.append(todo ^ rest)
            todo = rest
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
                mark = {s}
                stack = [s]
                closed = True
                while stack and closed:
                    x = stack.pop()
                    for u in nbrs[x]:
                        if color[u] or u in mark:
                            continue
                        if u in far or len(mark) >= PIECE:
                            closed = False
                            break
                        mark.add(u)
                        stack.append(u)
                if closed:
                    pieces.append(sum(1 << u for u in mark))
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
        cand.sort(key=lambda x: (nmask[v] & cls[x]).bit_count())
        tried = 0
        for x in cand:
            a_mark, b_mark, n_mark = len(assigned), len(bstack), len(nlog)
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
            undo(a_mark, b_mark, n_mark)
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
                        nlog.append(u)
        if bit:
            conflict = (tried | blame(v)) & ~bit
        return None

    built = None  # the peel that tri and the rest were last built for
    for q in budgets:
        if q == 1 and any(index):
            continue  # a triangle or a polar edge needs two colors
        # the peel is a FIFO from the top index down, so in reverse the first out go in index order
        live = list(map(len, index))  # live[v]: the constraints at v whose other vertices are in
        order = [v for v in range(n - 1, -1, -1) if 0 < live[v] < q]
        gone = bytearray(not t for t in index)  # gone[v]: v is out of the q-core; one under no constraint starts out
        for v in order:
            for a, b in index[v]:
                if not (gone[a] or gone[b]):
                    for x in a, b:  # a is v on a polar edge: v is out, so its count no longer matters
                        live[x] -= 1
                        if live[x] == q - 1:
                            order.append(x)
            gone[v] = 1
        if gone != built:
            built = gone
            # tri[v]: v's live core constraints, nbrs[v] their other vertices, nmask[v] as a set, pol[v] polar ones
            tri = [() if gone[v] else t if live[v] == len(t) else [ab for ab in t if not (gone[ab[0]] or gone[ab[1]])]
                   for v, t in enumerate(index)]
            nbrs = [t and {x for ab in t for x in ab} - {v} for v, t in enumerate(tri)]
            nmask = [sum(1 << u for u in s) if s else 0 for s in nbrs]
            pol = [sum(1 << b for a, b in t if a == v) for v, t in enumerate(tri)] if pairs else [0] * n
            static = [len(s) * n + n - 1 - v for v, s in enumerate(nbrs)]  # degree, then lower index first
            # the core as a vertex set: one binary digit per vertex, the last for vertex 0
            uncolored = constrained = int(b"0" + gone[::-1].translate(bytes.maketrans(b"\0\1", b"10")), 2)
            tops = components(constrained)
            twins = None  # built at the first failed decision; a search that fails none skips it
        labels = min(q, n)
        color = [0 if t else 1 for t in index]
        # why[v]: bitmask of the decision levels that colored v follows from;
        # a forced vertex follows from the pairs that blocked its other colors
        why = [0] * n
        cls = [0] * (labels + 1)  # cls[x]: the vertices colored x
        blocked = [0] * (labels + 1)  # blocked[x]: the vertices at which x is blocked
        # nblk[v]: how many blocked sets hold v. Every label blocked at v
        # is at most the cap: a triangle or polar block uses a label in
        # use, and a twin nogood one that was a candidate at an ancestor
        # node. So an uncolored v has cap - nblk[v] free colors.
        nblk = [0] * n
        uncolored = constrained
        # held[v]: the decision levels behind the twin nogoods that block
        # colors at v. bstack holds (x, old blocked[x]) for each growth of
        # a blocked set and (~v, old held[v]) for each twin nogood at v;
        # nlog holds v once for each raise of nblk[v]. A node undoes both
        # and assigned back to their lengths before it.
        held = [0] * n
        assigned, bstack, nlog = [], [], []
        conflict = 0  # the decision levels behind the latest failure
        for sub in tops:
            stack = [search(sub, 0, 0 if sub.bit_count() > PIECE else None)]
            res = None
            while stack:
                try:
                    part = stack[-1].send(res)
                except StopIteration as done:
                    stack.pop()
                    res = done.value
                else:
                    stack.append(search(*part))
                    res = None  # a new generator is started with None
            if res is None:
                break
        else:
            for v in reversed(order):  # under fewer than q live constraints, so a color is free
                used = {}  # color -> how many neighbors hold it, so some label up to len(used) + 1 is unused
                for x in {x for ab in index[v] for x in ab} - {v}:
                    used[color[x]] = used.get(color[x], 0) + 1
                bad = {color[b] if a == v else (color[a] if color[a] == color[b] else 0) for a, b in index[v]}
                color[v] = min((used.get(y, 0), y) for y in range(1, min(q, len(used) + 1) + 1) if y not in bad)[1]
            result = Coloring(q, tuple(color))
            if not verify_triangle_free(g, result, pairs or None):
                raise RuntimeError("internal error: solver produced an invalid coloring")
            return result
    return None


def solve_chi3(g: Graph, polar=None):
    """Exact chi3 (optionally polar-constrained) with a verified witness:
    the least budget the search fits, climbing 1, 2, ... on one setup of
    the graph; n colors always fit."""
    witness = _ladder(g, range(1, g.n + 1), polar) if g.n else Coloring(0, ())
    return witness.k, witness
