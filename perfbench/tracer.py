"""Span tracing of tfcolor from outside the program.

As a library: Tracer wraps every public module-level function of the
tfcolor modules at each place it is bound (the defining module, modules
that imported it by name, the package namespace) and records one span
per call: name, start, end, parent, plus a small note about the result.
restore() puts the original objects back. Spans stay in memory until
aggregate() folds them into per-function totals.

As a program (run by run.py in a fresh child, cwd = the instance's
directory):

    python tracer.py '<argv as JSON>' OUT.json [traced-first]

runs tfcolor.cli.run(argv) in-process once untraced and once traced (the
traced run first when a third argument is given, so that alternating the
order across instances cancels the warm-up the second run enjoys) and
writes the timings and span aggregates to OUT.json. With the argv
'["--gadgets"]' it instead traces the gadget generators for the clover
sizes the hard-chi3 workload uses.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time

MODULES = ("graph", "coloring", "solvers", "reductions", "graph_classes", "gadgets", "cli")
GADGET_SIZES = (3, 4, 5)


def _note(name, result):
    """A number worth keeping from a call's result, or None."""
    if name == "graph.list_triangles":
        return len(result)
    if name == "solvers.min_vertex_cover":
        return len(result)
    if name.startswith("reductions.reduce_"):
        inst = result.instance
        inst = getattr(inst, "graph", inst)
        return getattr(inst, "n", getattr(inst, "num_vars", None))
    return None


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, note, error]
        self._stack = []
        self._patched = []   # (namespace, attribute, original)

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None, False]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _note(name, result) if result is not None else "none"
            return result

        return traced

    def install(self):
        """Patch every binding of every public tfcolor function."""
        mods = [importlib.import_module(f"tfcolor.{m}") for m in MODULES]
        namespaces = mods + [importlib.import_module("tfcolor")]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.split(".", 1)[1]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, w)

    def restore(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def aggregate(self):
        """Per function: calls, inclusive seconds (outermost calls only),
        self seconds (duration minus direct children), errors, seconds in
        calls returning None, summed notes; plus decide calls made
        directly by solve_chi3."""
        agg = {}
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, note, error) in enumerate(self.spans):
            a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0,
                                      "none_s": 0.0, "note": 0})
            dur = t1 - t0
            a["calls"] += 1
            a["self_s"] += dur - child_time[i]
            a["errors"] += error
            if note == "none":
                a["none_s"] += dur
            elif note is not None:
                a["note"] += note
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                a["s"] += dur
            if name == "solvers.decide_tf_q" and parent >= 0 and self.spans[parent][0] == "solvers.solve_chi3":
                agg["solvers.solve_chi3"]["budgets"] = agg["solvers.solve_chi3"].get("budgets", 0) + 1
        return agg

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# (metric, unit, how) for the per-layer view. how: (function, field) is a
# per-instance mean of that aggregate field; strings name derived values.
PER_LAYER = [
    ("cli.process_s", "s", "process"),
    ("graph.read_dimacs_graph.s", "s", ("graph.read_dimacs_graph", "s")),
    ("graph.write_dimacs_graph.s", "s", ("graph.write_dimacs_graph", "s")),
    ("graph.list_triangles.s", "s", ("graph.list_triangles", "s")),
    ("graph.list_triangles.calls", "count", ("graph.list_triangles", "calls")),
    ("graph.triangles", "count", ("graph.list_triangles", "note")),
    ("graph.contains_k4.s", "s", ("graph.contains_k4", "s")),
    ("graph.is_triangle_free.s", "s", ("graph.is_triangle_free", "s")),
    ("graph.identify_vertices.s", "s", ("graph.identify_vertices", "s")),
    ("graph.identify_vertices.calls", "count", ("graph.identify_vertices", "calls")),
    ("coloring.verify_triangle_free.self_s", "s", ("coloring.verify_triangle_free", "self_s")),
    ("coloring.verify_triangle_free.calls", "count", ("coloring.verify_triangle_free", "calls")),
    ("coloring.greedy_extend_independent.s", "s", ("coloring.greedy_extend_independent", "s")),
    ("solvers.decide_tf_q.self_s", "s", ("solvers.decide_tf_q", "self_s")),
    ("solvers.decide_tf_q.calls", "count", ("solvers.decide_tf_q", "calls")),
    ("solvers.decide_tf_q.infeasible_s", "s", ("solvers.decide_tf_q", "none_s")),
    ("solvers.decide_tf_q.errors", "count", ("solvers.decide_tf_q", "errors")),
    ("solvers.solve_chi3.s", "s", ("solvers.solve_chi3", "s")),
    ("solvers.solve_chi3.budgets", "count", "budgets"),
    ("solvers.min_vertex_cover.s", "s", ("solvers.min_vertex_cover", "s")),
    ("solvers.min_vertex_cover.calls", "count", ("solvers.min_vertex_cover", "calls")),
    ("solvers.vc_size", "count", "vc_size"),
    ("solvers.fpt_tf_q_coloring.self_s", "s", ("solvers.fpt_tf_q_coloring", "self_s")),
    ("solvers.compute_params.self_s", "s", ("solvers.compute_params", "self_s")),
    ("solvers.oracle_chi.s", "s", ("solvers.oracle_chi", "s")),
    ("solvers.oracle_omega.s", "s", ("solvers.oracle_omega", "s")),
    ("reductions.reduce_q_to_q1.self_s", "s", ("reductions.reduce_q_to_q1", "self_s")),
    ("reductions.reduce_nae_to_k4free.self_s", "s", ("reductions.reduce_nae_to_k4free", "self_s")),
    ("reductions.reduce_sat4_to_nae4.self_s", "s", ("reductions.reduce_sat4_to_nae4", "self_s")),
    ("reductions.reduce_nae4_to_polar.self_s", "s", ("reductions.reduce_nae4_to_polar", "self_s")),
    ("reductions.out_vertices", "count", "out_vertices"),
    ("reductions.parse_dimacs_cnf.s", "s", ("reductions.parse_dimacs_cnf", "s")),
    ("reductions.write_polar_instance.s", "s", ("reductions.write_polar_instance", "s")),
    ("graph_classes.chordal_chi3.self_s", "s", ("graph_classes.chordal_chi3", "self_s")),
    ("graph_classes.lex_bfs.s", "s", ("graph_classes.lex_bfs", "s")),
    ("gadgets.gen_clover.s", "s", "gen_clover"),
    ("gadgets.clique_contraction.s", "s", "clique_contraction"),
    ("trace.overhead_frac", "fraction", "overhead"),
]


def layer_metrics(rows, gadget_row):
    """Per-layer metrics from the tracer rows of one run (one row per
    instance, from the in-process runs) and the gadget-generation row.
    Times and counts are means per traced instance."""
    rows = [r for r in rows if not r.get("failed")]
    n = max(len(rows), 1)

    def total(fn, field):
        return sum(r["layers"].get(fn, {}).get(field, 0) for r in rows)

    derived = {
        "process": sum(r["cli_wall"] - r["untraced_s"] for r in rows) / n,
        "budgets": total("solvers.solve_chi3", "budgets") / max(total("solvers.solve_chi3", "calls"), 1),
        "vc_size": total("solvers.min_vertex_cover", "note") / max(total("solvers.min_vertex_cover", "calls"), 1),
        "out_vertices": sum(total(f"reductions.reduce_{k}", "note")
                            for k in ("q_to_q1", "nae_to_k4free", "sat4_to_nae4", "nae4_to_polar")) / n,
        "gen_clover": gadget_row["layers"].get("gadgets.gen_clover", {}).get("s", 0.0),
        "clique_contraction": gadget_row["layers"].get("gadgets.clique_contraction", {}).get("s", 0.0),
        "overhead": sum(r["traced_s"] for r in rows) / max(sum(r["untraced_s"] for r in rows), 1e-9) - 1.0,
    }
    out = {}
    for metric, unit, how in PER_LAYER:
        value = derived[how] if isinstance(how, str) else total(*how) / n
        out[metric] = (value, unit)
    return out


def _run_cli(cli, argv):
    """(exit code or exception name, seconds) of one in-process run;
    stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # the CLI would crash here too; record and go on
            code = type(exc).__name__
        return code, time.perf_counter() - t0


def main(argv):
    cli_argv, out_path = json.loads(argv[0]), argv[1]
    if cli_argv == ["--gadgets"]:
        gadgets = importlib.import_module("tfcolor.gadgets")
        with Tracer() as tracer:
            t0 = time.perf_counter()
            for k in GADGET_SIZES:
                gadgets.gen_clover(k)
            traced = time.perf_counter() - t0
        doc = {"traced_s": traced, "layers": tracer.aggregate()}
    else:
        cli = importlib.import_module("tfcolor.cli")
        tracer = Tracer()
        if len(argv) > 2:
            with tracer:
                code1, traced = _run_cli(cli, cli_argv)
            code0, untraced = _run_cli(cli, cli_argv)
        else:
            code0, untraced = _run_cli(cli, cli_argv)
            with tracer:
                code1, traced = _run_cli(cli, cli_argv)
        doc = {"untraced_s": untraced, "traced_s": traced, "codes": [code0, code1],
               "layers": tracer.aggregate()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
