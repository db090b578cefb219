"""Command-line front end: gen, solve, verify, reduce, and params.

Every input file, the graph, --polar and verify's --coloring, may be
given as '-' to read stdin; at most one of them per call.

Exit codes: 0 = feasible / value computed, 1 = infeasible decision or
failed verification, 2 = input or output error (bad arguments, malformed
input, or output that could not be written), 3 = internal error (an
unexpected exception, reported as one 'error: <Type>: <message>' line on
stderr).

A plain argv is read from the command table COMMANDS alone: the command,
each option as its exact long flag, at most once, with its value as the
next word, and at most one positional; no value or positional starts
with '-' but '-' itself. Any other argv (help, an abbreviation,
--opt=value, '--', a repeated flag, every error) goes to argparse, built
from the same table.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .graph import read_dimacs_graph, read_polar_graph, write_dimacs_graph, write_dot

GEN_FAMILIES = ("cycle-clique", "clover", "polar-gadget", "theorem9", "mycielski", "complete", "cycle")
# "general" runs no class pipeline; the others are graph_classes' tags
CLASS_TAGS = ("chordal", "planar", "outerplanar", "regular4", "general")


def _read_input(path):
    if path in (None, "-"):
        if sys.stdin is None:  # started with fd 0 closed
            raise OSError("standard input is closed")
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(doc: dict):
    """Write doc as the line json.dumps(doc) makes; its values are bools, ints and lists of ints."""
    for value in doc.values():
        if type(value) not in (bool, int) and not (type(value) is list and all(type(v) is int for v in value)):
            raise TypeError(f"no JSON text for a {type(value).__name__}")
    # the str of an int or an int list is its JSON text, and lower() spells True and False as JSON does
    sys.stdout.write("{" + ", ".join(f'"{key}": {str(value).lower()}' for key, value in doc.items()) + "}\n")


def _emit_decision(witness) -> int:
    if witness is None:
        _emit({"feasible": False})
        return 1
    _emit({"feasible": True, "coloring": list(witness.colors)})
    return 0


def _gen_graph(family, k):
    from . import gadgets

    sized = {"cycle-clique": gadgets.gen_cycle_clique, "clover": gadgets.gen_clover,
             "mycielski": gadgets.gen_mycielski, "complete": gadgets.gen_complete, "cycle": gadgets.gen_cycle}
    if (family in sized) != (k is not None):
        raise ValueError(f"family {family!r} {'requires' if k is None else 'does not take'} --k")
    if family in sized:
        return sized[family](k)
    return gadgets.gen_polar_gadget() if family == "polar-gadget" else gadgets.gen_gadget_triangle()


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
    try:
        doc = json.loads(_read_input(args.coloring))
    except RecursionError:
        raise ValueError(f"coloring file {args.coloring}: JSON nested too deeply") from None
    c = Coloring.from_json_dict(doc, g.n)
    ok = verify_triangle_free(g, c, polar)
    _emit({"valid": ok})
    return 0 if ok else 1


def _cmd_reduce(args) -> int:
    from . import reductions

    pipelines = {("sat4", "nae4"): (reductions.reduce_sat4_to_nae4, reductions.write_dimacs_cnf),
                 ("nae", "k4free"): (reductions.reduce_nae_to_k4free, write_dimacs_graph),
                 ("nae4", "polar"): (reductions.reduce_nae4_to_polar, lambda pair: write_dimacs_graph(*pair))}
    if args.to == "q+1":
        if args.q is None:
            raise ValueError("--to q+1 requires --q")
        if args.src is not None:
            raise ValueError("--to q+1 reads a graph; leave --from unset")
        g = read_dimacs_graph(_read_input(args.input))
        out = reductions.reduce_q_to_q1(g, args.q)
        sys.stdout.write(write_dimacs_graph(out.instance))
        return 0
    if (args.src, args.to) not in pipelines:
        raise ValueError(f"unsupported reduction {args.src!r} -> {args.to!r}")
    reduce, write = pipelines[args.src, args.to]
    sys.stdout.write(write(reduce(reductions.parse_dimacs_cnf(_read_input(args.input))).instance))
    return 0


def _cmd_params(args) -> int:
    from .fpt import compute_params

    g = read_dimacs_graph(_read_input(args.input))
    if g.n > args.max_n:
        raise ValueError(f"graph has {g.n} vertices, above the --max-n guard of {args.max_n}")
    _emit({"n": g.n, "m": g.m, **compute_params(g)})
    return 0


INPUT = ("input", None, "-", "DIMACS graph file (default stdin)")
POLAR = ("--polar", "polar", None, None, None, False, "polar-instance file (graph + s lines)")
# command: (handler, help, positional, options). A positional is (name,
# choices, default, help) and may be left out when it has a default; an
# option is (flag, dest, type, default, choices, required, help), where
# type None takes the word as it is and bool makes a switch.
COMMANDS = {
    "gen": (_cmd_gen, "emit a generated graph as DIMACS (or DOT)", ("family", GEN_FAMILIES, None, None), (
        ("--k", "k", int, None, None, False, "family size parameter"),
        ("--dot", "dot", bool, False, None, False, "emit DOT instead of DIMACS"))),
    "solve": (_cmd_solve, "compute chi3 or decide a fixed budget", INPUT, (
        ("--q", "q", int, None, None, False, "decide feasibility at this budget"),
        POLAR,
        ("--class", "cls", None, None, CLASS_TAGS, False, None),
        ("--fpt", "fpt", bool, False, None, False, "use the vertex-cover algorithm (needs --q)"))),
    "verify": (_cmd_verify, "check a coloring file against a graph", INPUT, (
        ("--coloring", "coloring", None, None, None, True, "JSON coloring file ('-' for stdin)"),
        POLAR)),
    "reduce": (_cmd_reduce, "run an instance transformation", ("input", None, "-", "input file (default stdin)"), (
        ("--from", "src", None, None, ("sat4", "nae", "nae4"), False, None),
        ("--to", "to", None, None, ("nae4", "k4free", "polar", "q+1"), True, None),
        ("--q", "q", int, None, None, False, "source budget for --to q+1"))),
    "params": (_cmd_params, "print exact structural parameters as JSON", INPUT, (
        ("--max-n", "max_n", int, 64, None, False, "refuse graphs above this size"),)),
}


def _lean_args(argv):
    """argparse's namespace for a plain argv (see the module docstring), or None for any other."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, (name, choices, default, _), options = COMMANDS[argv[0]]
    args = {"command": argv[0], name: default, "func": func, **{option[1]: option[3] for option in options}}
    flags = {option[0]: option for option in options}
    spare = name, None, choices  # the positional's dest, type and choices, until it is given
    words = iter(argv[1:])
    for word in words:
        if word in flags:  # popped, so a second use is refused
            _, dest, type, _, choices, _, _ = flags.pop(word)
            # a switch reads no word (bool("-") is True); a missing value reads as a flag
            word = "-" if type is bool else next(words, "--")
        elif spare:
            (dest, type, choices), spare = spare, None
        else:
            return None
        try:
            value = type(word) if type else word
        except ValueError:
            return None
        if word[:1] == "-" != word or choices and value not in choices:
            return None
        args[dest] = value
    if spare and default is None or any(option[5] for option in flags.values()):
        return None
    return SimpleNamespace(**args)


def _build_parser():
    import argparse  # only for help and the argv _lean_args refuses

    # the last docstring paragraph is about this module, not the commands
    parser = argparse.ArgumentParser(prog="tfcolor", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, (name, choices, default, help), options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument(name, choices=choices, help=help, **({"nargs": "?", "default": default} if default else {}))
        for flag, dest, type, default, choices, required, help in options:
            kind = {"action": "store_true"} if type is bool else {
                "type": type, "default": default, "choices": choices, "required": required}
            p.add_argument(flag, dest=dest, help=help, **kind)
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _lean_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
