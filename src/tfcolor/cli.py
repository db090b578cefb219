"""Command-line front end: gen, solve, verify, reduce, and params.

Every input file, the graph, --polar and verify's --coloring, may be
given as '-' to read stdin; at most one of them per call.

Exit codes: 0 = feasible / value computed, 1 = infeasible decision or
failed verification, 2 = input or output error (bad arguments, malformed
input, or output that could not be written), 3 = internal error (an
unexpected exception, reported as one 'error: <Type>: <message>' line on
stderr).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .graph import read_dimacs_graph, read_polar_graph, write_dimacs_graph, write_dot

GEN_FAMILIES = ("cycle-clique", "clover", "polar-gadget", "theorem9", "mycielski", "complete", "cycle")
# "general" runs no class pipeline; the others are graph_classes' tags
CLASS_TAGS = ("chordal", "planar", "outerplanar", "regular4", "general")


def _read_input(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(doc: dict):
    import json  # only the commands that answer in JSON load it
    sys.stdout.write(json.dumps(doc) + "\n")


def _emit_decision(witness) -> int:
    if witness is None:
        _emit({"feasible": False})
        return 1
    _emit({"feasible": True, "coloring": list(witness.colors)})
    return 0


def _gen_graph(family, k):
    from . import gadgets

    needs_k = {"cycle-clique", "clover", "mycielski", "complete", "cycle"}
    if family in needs_k and k is None:
        raise ValueError(f"family {family!r} requires --k")
    if family not in needs_k and k is not None:
        raise ValueError(f"family {family!r} does not take --k")
    if family == "cycle-clique":
        return gadgets.gen_cycle_clique(k).graph
    if family == "clover":
        return gadgets.gen_clover(k)
    if family == "polar-gadget":
        return gadgets.gen_polar_gadget().graph
    if family == "theorem9":
        return gadgets.gen_gadget_triangle()
    if family == "mycielski":
        return gadgets.gen_mycielski(k)
    if family == "complete":
        return gadgets.gen_complete(k)
    return gadgets.gen_cycle(k)


def _cmd_gen(args) -> int:
    g = _gen_graph(args.family, args.k)
    sys.stdout.write(write_dot(g) if args.dot else write_dimacs_graph(g))
    return 0


def _load_graph_maybe_polar(args):
    """Graph plus polar edge set; --polar names a polar-instance file
    that supplies both."""
    if getattr(args, "polar", None):
        if args.input not in (None, "-"):
            raise ValueError("give either a graph input or --polar FILE, not both")
        return read_polar_graph(_read_input(args.polar))
    return read_dimacs_graph(_read_input(args.input)), None


def _cmd_solve(args) -> int:
    if args.q is not None and args.q < 1:
        raise ValueError("color budget must be at least 1")
    g, polar = _load_graph_maybe_polar(args)

    if args.fpt:
        if args.q is None:
            raise ValueError("--fpt requires --q")
        if polar is not None:
            raise ValueError("--fpt does not take polar constraints")
        if args.cls and args.cls != "general":
            raise ValueError("--fpt does not take a class pipeline")
        from .fpt import fpt_tf_q_coloring

        return _emit_decision(fpt_tf_q_coloring(g, args.q))

    if args.cls and args.cls != "general":
        if polar is not None:
            raise ValueError("class pipelines do not take polar constraints")
        from . import graph_classes

        if args.cls == "chordal":
            k, witness = graph_classes.chordal_chi3(g)
        else:
            k, witness = graph_classes.bounded_chi_chi3(g, args.cls)
        if args.q is not None:
            return _emit_decision(witness if k <= args.q else None)
    else:
        from . import solvers

        if args.q is not None:
            return _emit_decision(solvers.decide_tf_q(g, args.q, polar=polar))
        k, witness = solvers.solve_chi3(g, polar=polar)
    _emit({"chi3": k, "coloring": list(witness.colors)})
    return 0


def _cmd_verify(args) -> int:
    import json

    from .coloring import Coloring, verify_triangle_free

    if args.coloring == "-" and (args.polar or args.input) in (None, "-"):
        raise ValueError("--coloring - reads stdin, so the graph or --polar input must be a file")
    g, polar = _load_graph_maybe_polar(args)
    c = Coloring.from_json_dict(json.loads(_read_input(args.coloring)), g.n)
    ok = verify_triangle_free(g, c, polar)
    _emit({"valid": ok})
    return 0 if ok else 1


def _cmd_reduce(args) -> int:
    from . import reductions

    pairs = {("sat4", "nae4"), ("nae", "k4free"), ("nae4", "polar")}
    if args.to == "q+1":
        if args.q is None:
            raise ValueError("--to q+1 requires --q")
        if args.src is not None:
            raise ValueError("--to q+1 reads a graph; leave --from unset")
        g = read_dimacs_graph(_read_input(args.input))
        out = reductions.reduce_q_to_q1(g, args.q)
        sys.stdout.write(write_dimacs_graph(out.instance))
        return 0
    if args.src is None or (args.src, args.to) not in pairs:
        raise ValueError(f"unsupported reduction {args.src!r} -> {args.to!r}")
    phi = reductions.parse_dimacs_cnf(_read_input(args.input))
    if (args.src, args.to) == ("sat4", "nae4"):
        out = reductions.reduce_sat4_to_nae4(phi)
        sys.stdout.write(reductions.write_dimacs_cnf(out.instance))
    elif (args.src, args.to) == ("nae", "k4free"):
        out = reductions.reduce_nae_to_k4free(phi)
        sys.stdout.write(write_dimacs_graph(out.instance))
    else:
        out = reductions.reduce_nae4_to_polar(phi)
        sys.stdout.write(reductions.write_polar_instance(out.instance))
    return 0


def _cmd_params(args) -> int:
    from .fpt import compute_params

    g = read_dimacs_graph(_read_input(args.input))
    if g.n > args.max_n:
        raise ValueError(f"graph has {g.n} vertices, above the --max-n guard of {args.max_n}")
    params = compute_params(g)
    doc = {"n": g.n, "m": g.m}
    doc.update(params.to_json_dict())
    _emit(doc)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tfcolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated graph as DIMACS (or DOT)")
    p.add_argument("family", choices=GEN_FAMILIES)
    p.add_argument("--k", type=int, default=None, help="family size parameter")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of DIMACS")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="compute chi3 or decide a fixed budget")
    p.add_argument("input", nargs="?", default="-", help="DIMACS graph file (default stdin)")
    p.add_argument("--q", type=int, default=None, help="decide feasibility at this budget")
    p.add_argument("--polar", default=None, help="polar-instance file (graph + s lines)")
    p.add_argument("--class", dest="cls", default=None, choices=CLASS_TAGS)
    p.add_argument("--fpt", action="store_true", help="use the vertex-cover algorithm (needs --q)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("input", nargs="?", default="-", help="DIMACS graph file (default stdin)")
    p.add_argument("--coloring", required=True, help="JSON coloring file ('-' for stdin)")
    p.add_argument("--polar", default=None, help="polar-instance file (graph + s lines)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="run an instance transformation")
    p.add_argument("input", nargs="?", default="-", help="input file (default stdin)")
    p.add_argument("--from", dest="src", default=None, choices=("sat4", "nae", "nae4"))
    p.add_argument("--to", required=True, choices=("nae4", "k4free", "polar", "q+1"))
    p.add_argument("--q", type=int, default=None, help="source budget for --to q+1")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("params", help="print exact structural parameters as JSON")
    p.add_argument("input", nargs="?", default="-", help="DIMACS graph file (default stdin)")
    p.add_argument("--max-n", type=int, default=64, help="refuse graphs above this size")
    p.set_defaults(func=_cmd_params)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if sys.stdout is None:  # started with fd 1 closed; every command answers on stdout
            raise OSError("standard output is closed")
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main():
    # One command, then exit, and no command's cyclic garbage grows with
    # its input (tests/test_package.py): on the largest poly-pipelines
    # inputs the collector ran 67-99 passes, 7.6-9.7 ms a call, to reclaim
    # the same 76 objects. run() leaves the collector as it finds it.
    gc.disable()
    code = run()
    # os._exit skips interpreter teardown (module cleanup and the final
    # collections, 3.5-5 ms a call; tfcolor registers no atexit callbacks),
    # so the buffered output is flushed here, and a failed write is
    # reported as run() reports any other OSError
    try:
        if sys.stdout is not None:  # None when the process starts with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
