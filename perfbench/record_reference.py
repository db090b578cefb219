"""Record reference answers for the fixed graph pools into reference.json.

    python3 perfbench/record_reference.py [POOL ...]

Run from the root of a checkout whose answers are trusted (the file in
the repository was recorded at the commit that added the benchmark). For
each pool member it runs the CLI once, keeps the answer the workloads
check against, and re-checks what can be checked independently: the
returned coloring, the clique number and the maximum degree. The wall
time of each recording run is stored for information only.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import corpus
import run


def record(pool, index, d):
    n, edges = corpus.pool_graph(pool, index)
    d.mkdir(parents=True, exist_ok=True)
    (d / "in.dimacs").write_text(corpus.dimacs(n, edges), encoding="utf-8")
    argv = ["solve", "in.dimacs"] if pool == "dense" else ["params", "in.dimacs", "--max-n", "100"]
    code, wall, _, capped = run.run_child(run.cli_argv(argv), d, 600, d / "stdout")
    doc = json.loads((d / "stdout").read_text(encoding="utf-8"))
    if code != 0 or capped:
        raise RuntimeError(f"{pool}[{index}]: exit {code}")
    if pool == "dense":
        err = check.coloring_error(n, edges, doc["coloring"], doc["chi3"])
        if err or doc["chi3"] < (check.clique_number(n, edges) + 1) // 2:
            raise RuntimeError(f"{pool}[{index}]: {err or 'chi3 below the clique bound'}")
        answer = {"chi3": doc["chi3"]}
    else:
        answer = {key: doc[key] for key in ("omega", "chi", "chi3", "vc", "delta")}
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if answer["omega"] != check.clique_number(n, edges) or answer["delta"] != max(deg):
            raise RuntimeError(f"{pool}[{index}]: omega or delta disagrees with the checker")
    return {"digest": check.graph_fingerprint(n, edges)["degrees"], "n": n, "answer": answer,
            "record_wall_s": round(wall, 3)}


def main():
    d = run.WORK / "record"
    pools = sys.argv[1:] or list(corpus.POOLS)
    out = corpus.load_reference() if corpus.REFERENCE_FILE.exists() else {}
    try:
        for pool in pools:
            spec = corpus.POOLS[pool]
            out[pool] = []
            for index in range(spec["size"]):
                rec = record(pool, index, d)
                print(pool, index, rec, file=sys.stderr, flush=True)
                out[pool].append(rec)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    with open(corpus.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
