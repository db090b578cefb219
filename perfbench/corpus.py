"""Seeded inputs for the benchmark workloads, built without tfcolor.

Each workload is a list of instance classes. A run walks the classes
round robin: round r holds one instance of every class, generated from
the string seed "<seed>:<workload>:<class>:<r>", so the same --seed
always yields the same files. Every instance carries the expectation the
checker (check.py) judges the CLI answer against; expectations come from
construction (planted witnesses, gadget facts, an independent copy of
each reduction) or, for the random dense and params graphs whose answers
no construction fixes, from reference.json, recorded at the commit that added the benchmark
over a fixed pool that the seed samples from.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
POOL_SEED = 20171019


@dataclass
class Instance:
    """One CLI invocation: argv after 'tfcolor', the input files it reads
    (name -> text) and what a correct answer looks like."""

    cls: str
    argv: list
    files: dict
    expect: dict = field(repr=False)


# ---------------------------------------------------------------------------
# graph and formula generators


def dimacs(n, edges, polar=()):
    lines = [f"p edge {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(edges)]
    lines += [f"s {u + 1} {v + 1}" for u, v in sorted(polar)]
    return "\n".join(lines) + "\n"


def cnf_text(num_vars, clauses):
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, cl)) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


def gnp(rng, n, p):
    return [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]


def gnm(rng, n, m):
    """m distinct random edges; the sparse stand-in for G(n, 2m/n^2)."""
    seen = set()
    while len(seen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            seen.add((u, v) if u < v else (v, u))
    return sorted(seen)


def plant(rng, n, edges, q):
    """Drop one edge of every triangle that is monochromatic under a
    random q-coloring, so that coloring witnesses feasibility at q."""
    colors = [rng.randrange(q) for _ in range(n)]
    keep = set(edges)
    for a, b, c in check.triangles(n, edges):
        if colors[a] == colors[b] == colors[c]:
            keep.discard((a, b))
    return sorted(keep)


def ktree(rng, k, n):
    """Random k-tree: a (k+1)-clique grown by vertices that each join a
    random existing k-clique. Chordal with clique number k+1."""
    edges = list(combinations(range(k + 1), 2))
    cliques = list(combinations(range(k + 1), k))
    for v in range(k + 1, n):
        c = cliques[rng.randrange(len(cliques))]
        edges += [(u, v) for u in c]
        cliques += [tuple(x for x in c if x != c[d]) + (v,) for d in range(k)]
    return n, edges


def cycle_clique(k):
    """Five k-cliques in a ring, consecutive ones fully joined."""
    edges = []
    for i in range(5):
        for j in range(k):
            v = i * k + j
            edges += [(v, i * k + j2) for j2 in range(j + 1, k)]
            nxt = ((i + 1) % 5) * k
            edges += [(min(v, nxt + j2), max(v, nxt + j2)) for j2 in range(k)]
    return 5 * k, edges


def quotient(n, edges, pairs):
    """Identify each (keep, drop) pair in turn, drop loops and parallel
    edges, and renumber survivors in order."""
    rep = list(range(n))

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for keep, drop in pairs:
        rep[find(drop)] = find(keep)
    roots = sorted({find(v) for v in range(n)})
    idx = {r: i for i, r in enumerate(roots)}
    out = set()
    for u, v in edges:
        a, b = idx[find(u)], idx[find(v)]
        if a != b:
            out.add((min(a, b), max(a, b)))
    return len(roots), sorted(out)


def clover(k):
    """Three cycle-cliques whose first joints merge into one (k+1)-clique
    by the paper's contraction sequence; 13k+1 vertices."""
    m, cc = cycle_clique(k)
    edges = [(u + off, v + off) for off in (0, m, 2 * m) for u, v in cc]
    cv, cu, cw = range(k), range(m, m + k), range(2 * m, 2 * m + k)
    pairs = [(cv[i], cu[i]) for i in range(k - 1)]
    pairs += [(cv[i], cw[i]) for i in range(k - 2)]
    pairs += [(cv[k - 1], cw[k - 2]), (cu[k - 1], cw[k - 1])]
    return quotient(3 * m, edges, pairs)


# the 12-vertex bichromatic-edge gadget; (0, 1) is the forced edge
GADGET = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
    (1, 6), (1, 9), (6, 9), (2, 6), (2, 7), (6, 7), (0, 7), (0, 8), (7, 8),
    (3, 6), (3, 8), (6, 8), (4, 9), (4, 10), (9, 10), (0, 10), (0, 11),
    (10, 11), (5, 9), (5, 11), (9, 11),
)


def gadget_triangle():
    """Three gadgets on the edges of one triangle; 33 vertices, needs a
    third color."""
    edges = {(0, 1), (1, 2), (0, 2)}
    for gi, (ea, eb) in enumerate(((0, 1), (1, 2), (2, 0))):
        place = {0: ea, 1: eb}
        place.update({x: 3 + 10 * gi + x - 2 for x in range(2, 12)})
        for a, b in GADGET[1:]:
            pa, pb = place[a], place[b]
            edges.add((min(pa, pb), max(pa, pb)))
    return 33, sorted(edges)


def planted_formula(rng, num_vars, num_clauses, nae, occ_limit=4):
    """Width-3 clauses over distinct variables, each variable used at
    most occ_limit times, with signs chosen so a random planted
    assignment satisfies every clause (not-all-equal when nae)."""
    truth = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    left = {v: occ_limit for v in truth}
    clauses = []
    while len(clauses) < num_clauses:
        avail = [v for v, c in left.items() if c]
        if len(avail) < 3:
            break
        vs = rng.sample(avail, 3)
        while True:
            cl = tuple(v if rng.random() < 0.5 else -v for v in vs)
            vals = [truth[abs(l)] == (l > 0) for l in cl]
            if any(vals) and not (nae and all(vals)):
                break
        for v in vs:
            left[v] -= 1
        clauses.append(cl)
    return truth, clauses


# ---------------------------------------------------------------------------
# independent copies of the four reductions (for output fingerprints)


def occurrences(clauses):
    """literal -> the clause-triangle vertices 3i+j holding it, in order."""
    occ = {}
    for i, cl in enumerate(clauses):
        for j, lit in enumerate(cl):
            occ.setdefault(lit, []).append(3 * i + j)
    return occ


def nae_to_k4free(num_vars, clauses, truth=None):
    """Graph of reduce --from nae --to k4free, plus the lifted 2-coloring
    of the planted assignment when truth is given."""
    m = len(clauses)
    t_end = {x: 3 * m + 2 * (x - 1) for x in range(1, num_vars + 1)}
    f_end = {x: t_end[x] + 1 for x in t_end}
    edges = []
    for i in range(m):
        edges += [(3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2), (3 * i, 3 * i + 2)]
    forced = [(t_end[x], f_end[x]) for x in t_end]
    occ = occurrences(clauses)
    for x in t_end:
        forced += [(t_end[x], v) for v in occ.get(-x, ())]
        forced += [(f_end[x], v) for v in occ.get(x, ())]
    base = 3 * m + 2 * num_vars
    colors = None
    if truth is not None:
        colors = [0] * (base + 10 * len(forced))
        for i, cl in enumerate(clauses):
            for j, l in enumerate(cl):
                colors[3 * i + j] = 1 if truth[abs(l)] == (l > 0) else 2
        for x in t_end:
            colors[t_end[x]] = 1 if truth[x] else 2
            colors[f_end[x]] = 2 if truth[x] else 1
    for hu, hv in forced:
        place = {0: hu, 1: hv}
        place.update({loc: base + loc - 2 for loc in range(2, 12)})
        edges.append((min(hu, hv), max(hu, hv)))
        edges += [(min(place[a], place[b]), max(place[a], place[b])) for a, b in GADGET[1:]]
        if colors is not None:
            for loc in range(2, 12):
                # z1 (6) and y1 (9) follow the u-side host; the rest oppose it
                colors[base + loc - 2] = colors[hu] if loc in (6, 9) else 3 - colors[hu]
        base += 10
    return base, edges, colors


def nae4_to_polar(num_vars, clauses):
    m = len(clauses)
    edges, polar = [], []
    for i in range(m):
        edges += [(3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2), (3 * i, 3 * i + 2)]
    occ = occurrences(clauses)
    for x in range(1, num_vars + 1):
        t0 = 3 * m + 14 * (x - 1)
        for root in (t0, t0 + 7):
            for i in (1, 2, 3):
                polar += [(root + i - 1, root + 2 * i - 1), (root + i - 1, root + 2 * i)]
        polar.append((t0, t0 + 7))
        polar += [(v, t0 + 3 + idx) for idx, v in enumerate(occ.get(x, ()))]
        polar += [(v, t0 + 10 + idx) for idx, v in enumerate(occ.get(-x, ()))]
    polar = [(min(a, b), max(a, b)) for a, b in polar]
    return 3 * m + 14 * num_vars, edges + polar, polar


def sat4_to_nae4(num_vars, clauses):
    m = len(clauses)
    c = [num_vars + 1 + i for i in range(m)]
    f = [num_vars + m + 1 + i for i in range(m)]
    out = []
    for i, (x, y, z) in enumerate(clauses):
        out += [(x, y, c[i]), (z, -c[i], f[i])]
    if m:
        out.append((-f[m - 1], -f[m - 1], f[0]))
        out += [(-f[i], -f[i], f[i + 1]) for i in range(m - 1)]
    return num_vars + 2 * m, out


def q_to_q1(n, edges, q):
    k = q + 1
    cn, cc = cycle_clique(k)
    block = 5 * k
    all_edges = list(edges)
    for i in range(n):
        off = n + block * i
        all_edges += [(a + off, b + off) for a, b in cc]
    hub = n
    pairs = [(hub, n + block * i) for i in range(1, n)]
    pairs += [(i, n + block * i + 1) for i in range(n)]
    return quotient(n + block * n, all_edges, pairs)


# ---------------------------------------------------------------------------
# instance builders


def _decide(cls, n, edges, q, feasible, polar=()):
    if polar:
        files = {"in.polar": dimacs(n, edges, polar)}
        argv = ["solve", "--polar", "in.polar", "--q", str(q)]
    else:
        files = {"in.dimacs": dimacs(n, edges)}
        argv = ["solve", "in.dimacs", "--q", str(q)]
    expect = {"kind": "decide", "n": n, "edges": edges, "polar": list(polar), "q": q, "feasible": feasible}
    return Instance(cls, argv, files, expect)


def _chi3(cls, n, edges, chi3, extra=()):
    return Instance(cls, ["solve", "in.dimacs", *extra],
                    {"in.dimacs": dimacs(n, edges)},
                    {"kind": "chi3", "n": n, "edges": edges, "chi3": chi3})


def _reduce_graph(cls, argv, text, n, edges, polar=()):
    kind = "polar" if polar else "graph"
    return Instance(cls, argv, {"in.txt": text},
                    {"kind": kind, "fingerprint": check.graph_fingerprint(n, edges, polar)})


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def pool_graph(pool, index):
    """Graph number index of a fixed reference pool; the pool never
    depends on --seed, only which members a run uses does."""
    rng = random.Random(f"{POOL_SEED}:{pool}:{index}")
    spec = POOLS[pool]
    n = spec["n"][index % len(spec["n"])]
    return n, gnp(rng, n, spec["p"](n))


POOLS = {
    "dense": {"size": 48, "n": (43, 44, 45), "p": lambda n: 0.5},
    "cover": {"size": 48, "n": (58, 60, 62), "p": lambda n: 4.0 / n},
}
DENSE_BAND = (0.75, 1.2)  # recorded seconds: inside the clover(4) cluster
COVER_STRATA = 3


def band(reference, pool, lo, hi):
    """Pool members whose recorded wall time lies in [lo, hi] seconds."""
    return [i for i, row in enumerate(reference[pool]) if lo <= row["record_wall_s"] <= hi]


def strata(reference, pool, count):
    """The pool split by recorded wall time into count equal strata,
    fastest first."""
    rows = reference[pool]
    ranked = sorted(range(len(rows)), key=lambda i: (rows[i]["record_wall_s"], i))
    per = len(ranked) // count
    return [ranked[k * per:(k + 1) * per] for k in range(count)]


def _pooled(reference, pool, members, cls, r):
    """(n, edges, reference answer) of the pool member that class cls
    uses in round r. Each class walks its members in a fixed order that
    does not depend on --seed, so every run of a workload holds the same
    graphs and only the relabeling some classes apply varies by seed:
    which members a seed drew would otherwise move the run's medians."""
    order = random.Random(f"{POOL_SEED}:{cls}").sample(members, len(members))
    index = order[r % len(order)]
    n, edges = pool_graph(pool, index)
    row = reference[pool][index]
    if row["digest"] != check.graph_fingerprint(n, edges)["degrees"]:
        raise RuntimeError(f"reference.json does not match pool {pool} member {index}")
    return n, edges, row["answer"]


def large_fixed_q(rng, cls, seed, r, reference):
    kind, size, q = cls.split(":")
    size, q = int(size), int(q)
    if kind == "gnm":
        n = size
        return _decide(cls, n, plant(rng, n, gnm(rng, n, 5 * n), q), q, True)
    truth, clauses = planted_formula(rng, size, 4 * size // 3, nae=True)
    if kind == "k4free":
        n, edges, _ = nae_to_k4free(size, clauses)
        return _decide(cls, n, edges, q, True)
    n, edges, polar = nae4_to_polar(size, clauses)
    return _decide(cls, n, edges, q, True, polar)


def relabel(rng, n, edges):
    """The same graph under a random vertex numbering, so the seed varies
    a gadget's input (and the solver's tie-breaking) but not its answer."""
    p = list(range(n))
    rng.shuffle(p)
    return sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges)


def hard_chi3(rng, cls, seed, r, reference):
    kind, *args = cls.split(":")
    if kind == "dense":
        # not relabeled: a new numbering moves one graph's time 4x
        n, edges, answer = _pooled(reference, "dense", band(reference, "dense", *DENSE_BAND), cls, r)
        return _chi3(cls, n, edges, answer["chi3"])
    k = int(args[0])
    if kind == "cycle-clique":
        # omega = 2k forces k colors and the joints admit a rainbow k-coloring
        n, edges = cycle_clique(k)
        return _chi3(cls, n, relabel(rng, n, edges), k)
    if kind == "theorem9":
        # the forced-bichromatic central triangle rules out 2 colors
        n, edges = gadget_triangle()
        return _chi3(cls, n, relabel(rng, n, edges), 3)
    # clover(k) is not triangle-free k-colorable, and is (k+1)-colorable
    n, edges = clover(k)
    if k > 3:
        # the same numberings in every run: one clover(4) numbering takes
        # 0.8 s and another 1.8 s, which would move the run's median
        rng = random.Random(f"{POOL_SEED}:{cls}:{r}")
    edges = relabel(rng, n, edges)
    if kind == "clover-chi3":
        return _chi3(cls, n, edges, k + 1)
    q = int(args[1])
    return _decide(cls, n, edges, q, q > k)


def poly_pipelines(rng, cls, seed, r, reference):
    kind, _, size = cls.partition(":")
    size = int(size)
    if kind == "q+1-cycle":
        n, edges = size, [(i, i + 1) for i in range(size - 1)] + [(0, size - 1)]
    elif kind == "q+1-gnm":
        n, edges = size, gnm(rng, size, 2 * size)
    if kind.startswith("q+1"):
        on, oe = q_to_q1(n, edges, 3)
        return _reduce_graph(cls, ["reduce", "in.txt", "--to", "q+1", "--q", "3"], dimacs(n, edges), on, oe)
    if kind == "chordal":
        n, edges = ktree(rng, 3, size)
        return _chi3(cls, n, edges, 2, ("--class", "chordal"))
    if kind == "sat4":
        truth, clauses = planted_formula(rng, size, 4 * size // 3, nae=False)
        nv, out = sat4_to_nae4(size, clauses)
        return Instance(cls, ["reduce", "in.txt", "--from", "sat4", "--to", "nae4"],
                        {"in.txt": cnf_text(size, clauses)},
                        {"kind": "cnf", "fingerprint": check.cnf_fingerprint(nv, out)})
    truth, clauses = planted_formula(rng, size, 4 * size // 3, nae=True)
    text = cnf_text(size, clauses)
    if kind == "nae4-polar":
        n, edges, polar = nae4_to_polar(size, clauses)
        return _reduce_graph(cls, ["reduce", "in.txt", "--from", "nae4", "--to", "polar"], text, n, edges, polar)
    n, edges, colors = nae_to_k4free(size, clauses, truth)
    if kind == "nae-k4free":
        return _reduce_graph(cls, ["reduce", "in.txt", "--from", "nae", "--to", "k4free"], text, n, edges)
    # verify: the planted witness lifted onto the image is valid; the same
    # witness with one clause triangle made monochromatic is not
    valid = kind == "verify-valid"
    if not valid:
        colors = check.corrupt_triangle(n, edges, colors)
    return Instance(cls, ["verify", "in.dimacs", "--coloring", "w.json"],
                    {"in.dimacs": dimacs(n, edges), "w.json": json.dumps({"k": 2, "colors": colors})},
                    {"kind": "verify", "valid": valid})


def cover_fpt(rng, cls, seed, r, reference):
    command, _, stratum = cls.partition(":")
    members = strata(reference, "cover", COVER_STRATA)[int(stratum)]
    n, edges, answer = _pooled(reference, "cover", members, cls, r)
    edges = relabel(rng, n, edges)
    if command == "params":
        return Instance(cls, ["params", "in.dimacs", "--max-n", "100"], {"in.dimacs": dimacs(n, edges)},
                        {"kind": "params", "answer": answer})
    inst = _decide(cls, n, edges, 2, answer["chi3"] <= 2)
    inst.argv.append("--fpt")
    return inst


@dataclass(frozen=True)
class Workload:
    """builder(rng, cls, seed, round, reference) makes one instance of a
    class; classes make up every round and first is added to round 0
    only. round_s and first_s are about the seconds those take at the
    commit that added the benchmark, on the reference box in a fast phase
    (2 cores, Python 3.11); a run's fixed round count is derived from
    them. setup_argv is the trivial invocation timed for setup_s."""

    builder: object
    classes: tuple
    first: tuple
    setup_argv: tuple
    round_s: float
    first_s: float = 0.0


WORKLOADS = {
    "large-fixed-q": Workload(
        large_fixed_q,
        ("gnm:1000:3", "k4free:18:2", "gnm:1000:2", "gnm:1000:3", "polar:100:2", "gnm:1000:2"),
        ("gnm:2000:3",),
        ("solve", "one.dimacs", "--q", "3"),
        round_s=5.0,
        first_s=4.3,
    ),
    "hard-chi3": Workload(
        hard_chi3,
        ("clover:4:4", "dense", "clover-chi3:4"),
        ("clover:5:5", "clover:5:6", "clover:3:3", "theorem9:3", "cycle-clique:3", "cycle-clique:4"),
        ("solve", "one.dimacs"),
        round_s=3.6,
        first_s=11.9,
    ),
    "poly-pipelines": Workload(
        poly_pipelines,
        ("q+1-cycle:32", "nae-k4free:150", "sat4:300", "chordal:1400", "q+1-gnm:32",
         "nae4-polar:700", "verify-valid:150", "verify-invalid:150"),
        (),
        ("reduce", "one.dimacs", "--to", "q+1", "--q", "3"),
        round_s=5.3,
    ),
    "cover-fpt": Workload(
        cover_fpt,
        ("fpt:0", "params:1", "fpt:2", "params:0", "fpt:1", "params:2"),
        (),
        ("solve", "one.dimacs", "--fpt", "--q", "2"),
        round_s=5.2,
    ),
}


def rounds_for(workload, seconds):
    """Rounds a run of about `seconds` CLI time holds at the commit that added the benchmark.
    The count, not the clock, ends a run, so a parent and a child commit
    measure the same instances."""
    w = WORKLOADS[workload]
    return max(1, round((seconds - w.first_s) / w.round_s))


def round_instances(workload, seed, r, reference=None):
    """The instances of round r of a workload, in execution order."""
    w = WORKLOADS[workload]
    if reference is None:
        reference = load_reference()
    out = []
    if r == 0:
        for cls in w.first:
            out.append(w.builder(random.Random(f"{seed}:{workload}:{cls}:first"), cls, seed, 0, reference))
    for slot, cls in enumerate(w.classes):
        rng = random.Random(f"{seed}:{workload}:{slot}:{r}")
        out.append(w.builder(rng, cls, seed, r, reference))
    return out
