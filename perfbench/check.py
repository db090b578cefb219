"""Answer checker for the benchmark, written without importing tfcolor.

Every CLI answer is judged here against facts the benchmark knows about
its own inputs: the graph it generated, a planted witness, a property
that holds by construction (clover(k) is not k-colorable), or a
reference answer recorded at the commit that added the benchmark (reference.json).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def triangles(n, edges):
    """All triangles (a, b, c) with a < b < c, by forward-neighbor
    intersection."""
    fwd = [set() for _ in range(n)]
    for u, v in edges:
        a, b = (u, v) if u < v else (v, u)
        fwd[a].add(b)
    out = []
    for a in range(n):
        for b in fwd[a]:
            for c in fwd[a] & fwd[b]:
                out.append((a, b, c))
    return out


def clique_number(n, edges):
    """Exact clique number by plain branch and bound (small graphs)."""
    adj = adjacency(n, edges)
    best = 1 if n else 0

    def grow(size, cand):
        nonlocal best
        if size > best:
            best = size
        for i, v in enumerate(cand):
            if size + len(cand) - i <= best:
                return
            grow(size + 1, [u for u in cand[i + 1:] if u in adj[v]])

    grow(0, sorted(range(n), key=lambda v: -len(adj[v])))
    return best


def coloring_error(n, edges, colors, q, polar=()):
    """None when colors is a triangle-free q-coloring of the graph that
    keeps every polar edge bichromatic, else the reason it is not."""
    if not isinstance(colors, list) or len(colors) != n:
        return f"coloring has {len(colors) if isinstance(colors, list) else '?'} entries, graph has {n}"
    for v, c in enumerate(colors):
        if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= q:
            return f"vertex {v} has color {c!r} outside 1..{q}"
    for a, b, c in triangles(n, edges):
        if colors[a] == colors[b] == colors[c]:
            return f"triangle {(a, b, c)} is monochromatic"
    for u, v in polar:
        if colors[u] == colors[v]:
            return f"polar edge {(u, v)} is monochromatic"
    return None


def parse_dimacs_graph(text):
    """(n, edges, polar edges) from 'p edge' DIMACS text with optional
    polar-instance 's u v' lines; endpoints are 1-based in the text."""
    n = None
    edges = []
    polar = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "e":
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
        elif parts[0] == "s":
            polar.append((int(parts[1]) - 1, int(parts[2]) - 1))
        else:
            raise ValueError(f"unexpected DIMACS line {line!r}")
    if n is None:
        raise ValueError("no 'p edge' header")
    return n, edges, polar


def parse_cnf(text):
    """(num_vars, clauses) from 'p cnf' DIMACS text."""
    num_vars = None
    tokens = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            num_vars = int(parts[2])
        else:
            tokens.extend(int(t) for t in parts)
    if num_vars is None:
        raise ValueError("no 'p cnf' header")
    clauses, cur = [], []
    for t in tokens:
        if t == 0:
            clauses.append(tuple(cur))
            cur = []
        else:
            cur.append(t)
    return num_vars, clauses


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def graph_fingerprint(n, edges, polar=()):
    """Isomorphism-invariant summary: sizes, degree and polar-degree
    sequences, triangle count and the multiset of per-triangle degree
    triples. Two outputs of one reduction that differ only in vertex
    numbering share it."""
    if len({(min(u, v), max(u, v)) for u, v in edges}) != len(edges) or any(u == v for u, v in edges):
        return {"malformed": True}
    deg = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    pdeg = Counter()
    for u, v in polar:
        pdeg[u] += 1
        pdeg[v] += 1
    tris = triangles(n, edges)
    return {
        "n": n,
        "m": len(edges),
        "polar": len(polar),
        "degrees": _digest(sorted((deg[v], pdeg[v]) for v in range(n))),
        "triangles": len(tris),
        "triangle_degrees": _digest(sorted(tuple(sorted(deg[x] for x in t)) for t in tris)),
    }


def cnf_fingerprint(num_vars, clauses):
    """Renaming-invariant summary of a CNF: sizes, per-variable
    (positive, negative) occurrence counts and clause sign patterns."""
    occ = Counter()
    for cl in clauses:
        for lit in cl:
            occ[(abs(lit), lit > 0)] += 1
    return {
        "vars": num_vars,
        "clauses": len(clauses),
        "width": sorted({len(cl) for cl in clauses}),
        "occurrences": _digest(sorted((occ[(v, True)], occ[(v, False)]) for v in range(1, num_vars + 1))),
        "signs": _digest(sorted(tuple(sorted(lit > 0 for lit in cl)) for cl in clauses)),
    }


def judge(expect, exit_code, stdout):
    """None when the CLI answer meets the expectation, else (kind,
    reason) with kind "wrong" (an answer was given and it is false) or
    "crash" (no answer: a nonzero exit without one, or unreadable output).

    expect["kind"] selects the rule:
      decide  -- solve --q: a valid coloring, or {"feasible": false} with
                 exit 1 where infeasibility is known
      chi3    -- solve without --q: a valid coloring using exactly the
                 known chi3 colors
      params  -- params: every reference value
      graph / polar / cnf -- reduce: the fingerprint of an independent
                 construction of the same reduction
      verify  -- verify: the known verdict
    Exit 1 without {"feasible": false} (or {"valid": false}) on stdout is
    a crash, never an infeasibility claim.
    """
    kind = expect["kind"]
    if kind in ("graph", "polar", "cnf"):
        if exit_code != 0:
            return "crash", f"exit {exit_code}"
        try:
            if kind == "cnf":
                got = cnf_fingerprint(*parse_cnf(stdout))
            else:
                n, edges, polar = parse_dimacs_graph(stdout)
                got = graph_fingerprint(n, edges, polar)
        except (ValueError, IndexError) as exc:
            return "wrong", f"unparsable output: {exc}"
        return None if got == expect["fingerprint"] else ("wrong", f"fingerprint {got} != {expect['fingerprint']}")

    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict):
        return "crash", f"exit {exit_code} without a JSON answer"
    reason = _answer_error(expect, exit_code, doc)
    return None if reason is None else ("wrong", reason)


def _answer_error(expect, exit_code, doc):
    kind = expect["kind"]
    if kind == "verify":
        want = expect["valid"]
        if doc != {"valid": want} or exit_code != (0 if want else 1):
            return f"verify gave {doc} with exit {exit_code}, expected valid={want}"
        return None

    if kind == "params":
        if exit_code != 0:
            return f"exit {exit_code} with {doc}"
        for key, val in expect["answer"].items():
            if doc.get(key) != val:
                return f"params {key}={doc.get(key)!r}, expected {val!r}"
        return None

    n, edges, polar = expect["n"], expect["edges"], expect.get("polar", ())
    if kind == "decide":
        if doc.get("feasible") is False and exit_code == 1:
            if expect["feasible"]:
                return "claimed infeasible on a feasible instance"
            return None
        if doc.get("feasible") is True and exit_code == 0:
            if not expect["feasible"]:
                return "claimed a coloring of an infeasible instance"
            return coloring_error(n, edges, doc.get("coloring"), expect["q"], polar)
        return f"exit {exit_code} with {doc}"

    if kind == "chi3":
        if exit_code != 0 or "chi3" not in doc:
            return f"exit {exit_code} with {doc}"
        k = doc["chi3"]
        if k != expect["chi3"]:
            return f"chi3={k}, expected {expect['chi3']}"
        return coloring_error(n, edges, doc.get("coloring"), k, polar)

    raise ValueError(f"unknown expectation kind {kind!r}")


def corrupt_triangle(n, edges, colors):
    """A copy of colors with one triangle made monochromatic (for the
    checker's own tests and the verify workload's negative cases)."""
    a, b, c = triangles(n, edges)[0]
    out = list(colors)
    out[b] = out[c] = out[a]
    return out

