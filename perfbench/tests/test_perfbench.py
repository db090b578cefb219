"""Tests of the benchmark itself: checker, corpus, tracer, runner.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import sys
import time

import pytest

import check
import corpus
import run
import tracer

# ---------------------------------------------------------------------------
# checker


def _decide_instance():
    rng = random.Random(7)
    n = 60
    edges = corpus.plant(rng, n, corpus.gnm(rng, n, 200), 2)
    return n, edges


def _answer(doc):
    return json.dumps(doc) + "\n"


def test_checker_accepts_a_valid_coloring_and_rejects_a_corrupted_one():
    n, edges = corpus.gadget_triangle()
    good = [1] * n
    # greedy: give each vertex the first color that keeps the prefix valid
    for v in range(n):
        for c in (1, 2, 3):
            good[v] = c
            if check.coloring_error(v + 1, [(a, b) for a, b in edges if b <= v], good[:v + 1], 3) is None:
                break
    expect = {"kind": "chi3", "n": n, "edges": edges, "chi3": 3}
    assert check.judge(expect, 0, _answer({"chi3": 3, "coloring": good})) is None

    bad = check.corrupt_triangle(n, edges, good)
    verdict = check.judge(expect, 0, _answer({"chi3": 3, "coloring": bad}))
    assert verdict[0] == "wrong" and "monochromatic" in verdict[1]

    out_of_range = list(good)
    out_of_range[0] = 4
    assert check.judge(expect, 0, _answer({"chi3": 3, "coloring": out_of_range}))[0] == "wrong"
    # a valid coloring with the wrong chi3 is still wrong
    assert check.judge(expect, 0, _answer({"chi3": 4, "coloring": good}))[0] == "wrong"


def test_checker_rejects_a_false_infeasible_and_a_polar_violation():
    n, edges = _decide_instance()
    expect = {"kind": "decide", "n": n, "edges": edges, "polar": [], "q": 2, "feasible": True}
    assert check.judge(expect, 1, _answer({"feasible": False}))[0] == "wrong"

    infeasible = dict(expect, feasible=False)
    assert check.judge(infeasible, 1, _answer({"feasible": False})) is None
    assert check.judge(infeasible, 0, _answer({"feasible": True, "coloring": [1] * n}))[0] == "wrong"

    polar = {"kind": "decide", "n": 2, "edges": [(0, 1)], "polar": [(0, 1)], "q": 2, "feasible": True}
    assert check.judge(polar, 0, _answer({"feasible": True, "coloring": [1, 1]}))[0] == "wrong"
    assert check.judge(polar, 0, _answer({"feasible": True, "coloring": [1, 2]})) is None


def test_exit_one_without_an_answer_is_a_crash_not_infeasible():
    n, edges = _decide_instance()
    expect = {"kind": "decide", "n": n, "edges": edges, "polar": [], "q": 2, "feasible": None}
    assert check.judge(expect, 1, "") == ("crash", "exit 1 without a JSON answer")
    assert check.judge(expect, 1, "Traceback (most recent call last):\n")[0] == "crash"


def test_fingerprint_ignores_numbering_but_not_structure():
    n, edges = corpus.clover(3)
    perm = list(reversed(range(n)))
    renamed = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]
    assert check.graph_fingerprint(n, edges) == check.graph_fingerprint(n, renamed)
    assert check.graph_fingerprint(n, edges) != check.graph_fingerprint(n, edges[1:])


def test_reference_pools_match_the_generator():
    reference = corpus.load_reference()
    for pool, spec in corpus.POOLS.items():
        assert len(reference[pool]) == spec["size"]
        n, edges = corpus.pool_graph(pool, 0)
        assert reference[pool][0]["digest"] == check.graph_fingerprint(n, edges)["degrees"]


# ---------------------------------------------------------------------------
# corpus


def _round_bytes(workload, seed, rounds=2):
    reference = corpus.load_reference()
    return [
        (inst.cls, inst.argv, sorted(inst.files.items()))
        for r in range(rounds)
        for inst in corpus.round_instances(workload, seed, r, reference)
    ]


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_identical_for_one_seed_and_differs_for_another(workload):
    assert _round_bytes(workload, 3) == _round_bytes(workload, 3)
    assert _round_bytes(workload, 3) != _round_bytes(workload, 4)


def test_pooled_classes_use_the_same_graphs_for_every_seed():
    # which pool members a seed drew would move a run's medians; the seed
    # may only renumber them
    reference = corpus.load_reference()

    def graphs(workload, seed):
        return [
            (inst.cls, check.graph_fingerprint(inst.expect["n"], inst.expect["edges"]))
            for r in range(3)
            for inst in corpus.round_instances(workload, seed, r, reference)
            if inst.cls.startswith(("dense", "fpt"))
        ]

    for workload in ("hard-chi3", "cover-fpt"):
        assert graphs(workload, 3) == graphs(workload, 4)


def test_independent_generators_match_tfcolor():
    from tfcolor import gadgets, reductions
    from tfcolor.reductions import CnfFormula

    for k in (2, 3, 4):
        g = gadgets.gen_clover(k)
        assert check.graph_fingerprint(*corpus.clover(k)) == check.graph_fingerprint(g.n, g.edges())
    g = gadgets.gen_gadget_triangle()
    assert check.graph_fingerprint(*corpus.gadget_triangle()) == check.graph_fingerprint(g.n, g.edges())

    rng = random.Random(5)
    truth, clauses = corpus.planted_formula(rng, 12, 16, nae=True)
    phi = CnfFormula(12, tuple(clauses))
    out = reductions.reduce_nae_to_k4free(phi).instance
    n, edges, colors = corpus.nae_to_k4free(12, clauses, truth)
    assert check.graph_fingerprint(n, edges) == check.graph_fingerprint(out.n, out.edges())
    assert check.coloring_error(n, edges, colors, 2) is None


# ---------------------------------------------------------------------------
# tracer


def test_wrappers_record_nested_spans_and_restore_module_attributes():
    import tfcolor
    from tfcolor import coloring, graph, solvers

    before = {
        (mod.__name__, name): getattr(mod, name)
        for mod in (tfcolor, graph, coloring, solvers)
        for name in ("decide_tf_q", "verify_triangle_free", "list_triangles")
        if hasattr(mod, name)
    }
    g = graph.Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    with tracer.Tracer() as t:
        assert solvers.decide_tf_q is not before[("tfcolor.solvers", "decide_tf_q")]
        assert coloring.list_triangles is not before[("tfcolor.coloring", "list_triangles")]
        solvers.decide_tf_q(g, 2)
    for (modname, name), obj in before.items():
        assert getattr(sys.modules[modname], name) is obj

    names = [s[0] for s in t.spans]
    parents = {s[0]: t.spans[s[3]][0] for s in t.spans if s[3] >= 0}
    assert names[0] == "solvers.decide_tf_q"
    assert parents["coloring.verify_triangle_free"] == "solvers.decide_tf_q"
    assert parents["graph.list_triangles"] == "coloring.verify_triangle_free"
    agg = t.aggregate()
    decide = agg["solvers.decide_tf_q"]
    assert decide["calls"] == 1 and decide["self_s"] <= decide["s"]
    assert agg["graph.list_triangles"]["note"] == 1


def test_wrappers_restore_after_an_exception():
    from tfcolor import solvers

    original = solvers.decide_tf_q
    with pytest.raises(ValueError):
        with tracer.Tracer():
            solvers.decide_tf_q(solvers.Graph(1), 0)
    assert solvers.decide_tf_q is original


# ---------------------------------------------------------------------------
# runner


def test_cap_kills_a_sleeping_child_and_its_process_group(tmp_path):
    script = (
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(30)'])\n"
        "print(p.pid, flush=True)\n"
        "time.sleep(30)\n"
    )
    t0 = time.perf_counter()
    code, wall, _, capped = run.run_child([sys.executable, "-c", script], tmp_path, 1.0, tmp_path / "out")
    assert capped and code < 0
    assert wall < 5 and time.perf_counter() - t0 < 5

    grandchild = int((tmp_path / "out").read_text())
    deadline = time.perf_counter() + 5
    while time.perf_counter() < deadline:
        try:
            os.kill(grandchild, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    else:
        pytest.fail("the grandchild outlived the cap")


def test_a_child_under_the_cap_is_not_flagged(tmp_path):
    code, wall, rss, capped = run.run_child([sys.executable, "-c", "print(1)"], tmp_path, 5.0, tmp_path / "out")
    assert (code, capped) == (0, False) and rss > 0
    assert (tmp_path / "out").read_text() == "1\n"


def test_tail_leaves_ten_instances_above_it():
    walls = [float(i) for i in range(40)]
    value, pct = run.tail(walls)
    assert sum(1 for w in walls if w > value) == 10
    assert pct == 75.0


def test_scale_applies_to_times_but_not_to_the_cap_or_counts():
    ok = {"wall": 1.0, "rss": 10.0, "verdict": None}
    failed = {"wall": 3.0, "rss": 12.0, "verdict": ("crash", "exit 1 without a JSON answer")}
    records = [ok] * 12 + [failed] * 11
    plain, _ = run.end_to_end(0.2, records)
    scaled, _ = run.end_to_end(0.2, records, 2.0)
    assert scaled["setup_s"][0] == 0.4 and scaled["wall_p50_s"][0] == 2.0
    assert scaled["wall_tail_s"][0] == run.CAP_S  # failures count at the cap, unscaled
    assert scaled["solved_per_s"][0] == plain["solved_per_s"][0] / 2
    assert scaled["ok_frac"] == plain["ok_frac"] and scaled["peak_rss_mb"] == plain["peak_rss_mb"]


def test_calibration_job_runs_in_a_child(tmp_path):
    assert 0 < run.calibration_sample(tmp_path) < 5
    assert int((tmp_path / "cal.out").read_text()) > 0


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    records = [{"wall": 1.0, "rss": 10.0, "verdict": None}] * 12
    e2e, _ = run.end_to_end(0.2, records)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, _ in tracer.PER_LAYER]
