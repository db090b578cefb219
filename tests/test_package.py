"""Package surface: what each CLI command loads, the cyclic garbage it
leaves, the lazily resolved package exports, that no function in src/
recurses and that a command reaches every public one, the semantics of
the read-only value records, and the input checks of the public
constructors."""

import ast
import copy
import gc
import importlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
import tfcolor
from tfcolor import (
    CnfFormula,
    Coloring,
    Graph,
    ReductionOutput,
    cli,
    gen_clover,
    reduce_nae_to_k4free,
    write_dimacs_graph,
)
from util_graphs import planted_nae_cnf, rand_graph

SRC = Path(tfcolor.__file__).resolve().parent.parent

LOADS = """\
import json, sys
from tfcolor import cli
code = cli.run(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""

# the collector is off during the command, as under cli.main
GARBAGE = """\
import gc, json, sys
from tfcolor import cli
gc.collect()
gc.disable()
code = cli.run(json.loads(sys.argv[1]))
print(json.dumps([code, gc.collect()]))
"""


def fresh_run(script, argv, cwd):
    """The last stdout line, read as JSON, of a fresh interpreter that runs
    script with argv as JSON in sys.argv[1] and the package's own sources
    on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(argv, cwd):
    """(exit code, sorted sys.modules) of a fresh interpreter that runs
    cli.run(argv)."""
    code, modules = fresh_run(LOADS, argv, cwd)
    return code, set(modules)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    (d / "g.dimacs").write_text("p edge 5 6\ne 1 2\ne 2 3\ne 1 3\ne 3 4\ne 4 5\ne 3 5\n", encoding="utf-8")
    (d / "f.cnf").write_text("p cnf 3 2\n1 -2 3 0\n-1 2 2 0\n", encoding="utf-8")
    (d / "p.polar").write_text("p edge 5 6\ne 1 2\ne 2 3\ne 1 3\ne 3 4\ne 4 5\ne 3 5\ns 1 2\ns 4 3\n",
                               encoding="utf-8")
    (d / "c.json").write_text('{"k": 2, "colors": [1, 2, 1, 2, 2]}', encoding="utf-8")
    return d


# each command and the tfcolor submodules it loads besides the package,
# cli and graph. The engine's rows do not load the cover algorithm, and
# --fpt does not load the engine.
SEARCH = ("coloring", "solvers")
LOADED_BY = {
    ("solve", "g.dimacs", "--q", "2"): SEARCH,
    ("solve", "g.dimacs"): SEARCH,
    ("solve", "g.dimacs", "--fpt", "--q", "2"): ("coloring", "fpt"),
    ("params", "g.dimacs"): ("coloring", "fpt", "solvers"),
    ("solve", "--polar", "p.polar", "--q", "2"): SEARCH,
    ("gen", "clover", "--k", "2"): ("gadgets",),
    ("reduce", "g.dimacs", "--to", "q+1", "--q", "2"): ("reductions", "gadgets"),
    ("reduce", "f.cnf", "--from", "nae4", "--to", "polar"): ("dimacs", "reductions"),
    ("solve", "g.dimacs", "--class", "chordal"): ("coloring", "graph_classes"),
    ("verify", "g.dimacs", "--coloring", "c.json"): ("coloring",),
    ("verify", "--polar", "p.polar", "--coloring", "c.json"): ("coloring",),
    ("reduce", "f.cnf", "--from", "nae", "--to", "k4free"): ("dimacs", "reductions", "gadgets"),
    ("reduce", "f.cnf", "--from", "sat4", "--to", "nae4"): ("dimacs", "reductions"),
    ("solve", "g.dimacs", "--class", "planar"): ("coloring", "graph_classes", "solvers"),
}


def assert_loads_exactly(argv, cwd):
    code, modules = modules_after(argv, cwd)
    assert code == 0
    ours = {m for m in modules if m.partition(".")[0] == "tfcolor"}
    assert ours == {"tfcolor", "tfcolor.cli", "tfcolor.graph"} | {f"tfcolor.{m}" for m in LOADED_BY[argv]}
    assert not modules & {"dataclasses", "heapq"}


def is_search(argv):
    return argv[0] == "params" or (argv[0] == "solve" and "--class" not in argv)


@pytest.mark.parametrize("argv", [argv for argv in LOADED_BY if is_search(argv)])
def test_search_commands_load_no_reductions_gadgets_or_dataclasses(argv, inputs):
    assert_loads_exactly(argv, inputs)


@pytest.mark.parametrize("argv", [argv for argv in LOADED_BY if not is_search(argv)])
def test_no_command_loads_dataclasses(argv, inputs):
    assert_loads_exactly(argv, inputs)


# LOADS imports json itself, so this probe takes its argv as plain words
# and answers on its last stdout line after the command's own output
ARGV_PROBE = """\
import sys
from tfcolor import cli
code = cli.run(sys.argv[1:])
print()
print(code, *sorted({"argparse", "gettext", "locale", "json"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [*LOADED_BY, ("--help",), ("solve", "g.dimacs", "--q")])
def test_plain_argv_loads_no_argparse_and_only_verify_loads_json(argv, inputs):
    # a well-formed argv is read from the command table and every answer
    # is written without json; verify reads its coloring file with it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", ARGV_PROBE, *argv], cwd=inputs, env=env, capture_output=True,
                          text=True)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    if argv in LOADED_BY:
        assert (code, loaded) == ("0", ["json"] if argv[0] == "verify" else [])
    else:  # help, and the errors, come from argparse
        assert code == ("0" if argv == ("--help",) else "2") and "argparse" in loaded


@pytest.mark.parametrize("argv", [argv for argv in LOADED_BY if argv[0] in ("reduce", "gen")])
def test_reduce_and_gen_do_not_load_json(argv, inputs):
    # they answer in DIMACS and read a plain argv, so they load none of the probed modules
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", ARGV_PROBE, *argv], cwd=inputs, env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0"


@pytest.fixture(scope="module")
def sized_inputs(tmp_path_factory):
    """Two sizes each of a K4-free image of a planted formula, a clover
    and a G(n, 1/2)."""
    d = tmp_path_factory.mktemp("sized")
    for n in (6, 12):
        image = reduce_nae_to_k4free(planted_nae_cnf(random.Random(n), n)).instance
        (d / f"nae{n}.dimacs").write_text(write_dimacs_graph(image), encoding="utf-8")
    for k in (3, 4):
        (d / f"clover{k}.dimacs").write_text(write_dimacs_graph(gen_clover(k)), encoding="utf-8")
    for n in (8, 16):
        (d / f"gnp{n}.dimacs").write_text(write_dimacs_graph(rand_graph(random.Random(n), n, 0.5)),
                                          encoding="utf-8")
    return d


@pytest.mark.parametrize("argvs", [
    [["solve", f"nae{n}.dimacs", "--q", "2"] for n in (6, 12)],
    [["solve", f"clover{k}.dimacs"] for k in (3, 4)],  # failed decisions and twin nogoods
    [["params", f"gnp{n}.dimacs"] for n in (8, 16)],
])
def test_cyclic_garbage_does_not_grow_with_the_input(argvs, sized_inputs):
    # cli.main runs a command with the collector off; that costs nothing
    # only while what the collector would reclaim stays small and fixed
    (code0, small), (code1, large) = (fresh_run(GARBAGE, argv, sized_inputs) for argv in argvs)
    assert code0 == code1 == 0
    assert small == large <= 400


def test_run_leaves_the_collector_as_it_found_it(inputs, monkeypatch, capsys):
    monkeypatch.chdir(inputs)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert cli.run(["solve", "g.dimacs"]) == 0
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_main_runs_the_command_with_the_collector_off(monkeypatch):
    # main ends the process with os._exit, so the stub records the code
    seen, exits = [], []
    monkeypatch.setattr(cli, "run", lambda: seen.append(gc.isenabled()) or 0)
    monkeypatch.setattr(os, "_exit", exits.append)
    was = gc.isenabled()
    try:
        cli.main()
    finally:
        gc.enable() if was else gc.disable()
    assert seen == [False] and exits == [0]


def test_lazy_exports_resolve_to_submodule_objects():
    assert len(tfcolor.__all__) == len(set(tfcolor.__all__)) == 45
    listed = dir(tfcolor)
    for name in tfcolor.__all__:
        module = importlib.import_module(f"tfcolor.{tfcolor._HOME[name]}")
        assert getattr(tfcolor, name) is getattr(module, name)
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        tfcolor.no_such_name
    from tfcolor import cli, solvers

    assert callable(cli.run) and solvers.decide_tf_q is tfcolor.decide_tf_q
    assert tfcolor.oracle_omega is importlib.import_module("tfcolor.fpt").oracle_omega
    assert tfcolor.__version__ == "0.1.0"


def test_lazy_exports_see_a_patched_submodule(monkeypatch):
    from tfcolor import solvers

    assert tfcolor.decide_tf_q is solvers.decide_tf_q

    def fake(*args, **kwargs):
        return None

    monkeypatch.setattr(solvers, "decide_tf_q", fake)
    assert tfcolor.decide_tf_q is fake


def self_calls(tree, prefix=""):
    """Qualified names of the functions under tree that call themselves
    by name."""
    found = []
    for child in ast.iter_child_nodes(tree):
        if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found += self_calls(child, prefix)
            continue
        if isinstance(child, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == child.name
                for call in ast.walk(child)):
            found.append(prefix + child.name)
        found += self_calls(child, prefix + child.name + ".")
    return found


def test_no_function_in_src_recurses():
    # every search, the clique number's branch and bound too, keeps its
    # own stack, so no input size can reach the recursion limit
    assert self_calls(ast.parse("def f(n):\n    def g(m):\n        return g(m - 1)\n    return g(n)")) == ["f.g"]
    recursive = {}
    for path in sorted((SRC / "tfcolor").glob("*.py")):
        recursive[path.name] = self_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not any(recursive.values()), recursive


def unreached(sources):
    """The public top-level functions and classes of a package, given as
    {module: source text}, that no command reaches. The walk starts from
    what cli's module-level code references (COMMANDS and main) and
    follows every name that a reached definition references, not only
    the names it calls, so a dispatch table reaches its entries. A name
    resolves through the relative imports of its module and of its own
    definition, and a module bound by `from . import x` reaches x.attr.
    A class is reached whole, with its bases."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    defs, scope = {}, {}  # (module, name) -> its top-level statement; module -> its import bindings

    def bindings(nodes):
        # name -> (module, name) for `from .m import name`, or the module for `from . import module`
        return {alias.asname or alias.name: (imp.module, alias.name) if imp.module else alias.name
                for imp in nodes if isinstance(imp, ast.ImportFrom) and imp.level == 1 for alias in imp.names}

    for m, tree in trees.items():
        scope[m] = bindings(tree.body)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[m, node.name] = node
            elif isinstance(node, ast.Assign):
                defs.update(((m, t.id), node) for target in node.targets for t in ast.walk(target)
                            if isinstance(t, ast.Name))
    todo = [("cli", node) for node in trees["cli"].body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
    reached = set()

    def reach(m, name):
        if (m, name) in defs and (m, name) not in reached:
            reached.add((m, name))
            todo.append((m, defs[m, name]))

    while todo:
        m, node = todo.pop()
        names = {**scope[m], **bindings(ast.walk(node))}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                    and isinstance(names.get(sub.value.id), str):
                reach(names[sub.value.id], sub.attr)
            elif isinstance(sub, ast.Name) and isinstance(target := names.get(sub.id, (m, sub.id)), tuple):
                reach(*target)
    return sorted(f"{m}.{name}" for (m, name), node in defs.items() if isinstance(node, (
        ast.FunctionDef, ast.ClassDef)) and not name.startswith("_") and (m, name) not in reached)


# no command translates a witness yet; the reduction tests run witness.py
UNREACHED_MODULES = {"witness"}


def test_every_public_function_in_src_is_reachable_from_a_command():
    toy = {
        "cli": "from . import b\nfrom .a import in_table\nTABLE = {'x': in_table}\n"
               "def main():\n    from .a import Sub\n    return b.helper(Sub)\n"
               "if __name__ == '__main__':\n    main()\n",
        "a": "from .c import Base\ndef in_table(): pass\nclass Sub(Base): pass\ndef dead(): pass\n",
        "b": "def helper(x): return x\ndef _private(): pass\n",
        "c": "class Base: pass\nclass Orphan: pass\n",
    }
    assert unreached(toy) == ["a.dead", "c.Orphan"]
    flagged = unreached({path.stem: path.read_text(encoding="utf-8") for path in (SRC / "tfcolor").glob("*.py")})
    assert [name for name in flagged if name.partition(".")[0] not in UNREACHED_MODULES] == []
    # a module that a command comes to reach leaves the exemption
    assert {name.partition(".")[0] for name in flagged} == UNREACHED_MODULES


FIELDS = {
    Coloring: ("k", "colors"),
    CnfFormula: ("num_vars", "clauses"),
    ReductionOutput: ("kind", "source", "instance"),
}


def _records():
    return [
        Coloring(2, [1, 2, 1]),
        CnfFormula(2, [[1, 2, -1]]),
        ReductionOutput(kind="x", source=(Graph(1), 2), instance=1),
    ]


def test_records_repr_lists_fields_in_order():
    assert [repr(r) for r in _records()] == [
        "Coloring(k=2, colors=(1, 2, 1))",
        "CnfFormula(num_vars=2, clauses=((1, 2, -1),))",
        "ReductionOutput(kind='x', source=(Graph(n=1, m=0), 2), instance=1)",
    ]


def test_records_equality_hash_and_read_only_fields():
    for r, twin in zip(_records(), _records()):
        fields = FIELDS[type(r)]
        values = tuple(getattr(r, f) for f in fields)
        assert r == twin and not r != twin
        assert r == copy.copy(r) == pickle.loads(pickle.dumps(r))
        assert hash(r) == hash(twin) == hash(values)
        assert r != values
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(r, f, None)
            with pytest.raises(AttributeError):
                delattr(r, f)
        with pytest.raises(AttributeError):
            r.extra = 1
    assert Coloring(2, (1, 2)) != Coloring(3, (1, 2))


def test_records_keep_their_validation():
    with pytest.raises(ValueError, match="outside 1..2"):
        Coloring(2, (1, 3))
    with pytest.raises(ValueError, match="non-negative"):
        Coloring(-1, ())
    with pytest.raises(ValueError, match="expected exactly 3"):
        CnfFormula(2, ((1, 2),))
    with pytest.raises(ValueError, match="invalid literal 3"):
        CnfFormula(2, ((1, 2, 3),))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Graph(-1), "vertex count must be non-negative", id="Graph(-1)"),
    pytest.param(lambda: CnfFormula(-1, ()), "variable count must be non-negative", id="CnfFormula(-1)"),
    pytest.param(lambda: tfcolor.parse_dimacs_cnf("p cnf 1 1\n1 1 1\n"), "final clause is not terminated by 0",
                 id="unterminated clause"),
    pytest.param(lambda: tfcolor.reduce_nae4_to_polar(CnfFormula(2, ((1, 1, 1), (1, 1, 2)))),
                 "a variable occurs more than 4 times", id="nae4 variable in 5 slots"),
    pytest.param(lambda: tfcolor.fpt_tf_q_coloring(Graph(1), 0), "color budget must be at least 1", id="fpt q=0"),
    pytest.param(lambda: tfcolor.clique_contraction(tfcolor.gen_complete(5), (0, 1), (2, 3), (4,)),
                 "the three cliques must have equal size", id="contraction of unequal cliques"),
    pytest.param(lambda: tfcolor.clique_contraction(tfcolor.gen_complete(3), (0,), (1,), (2,)),
                 "clique size must be at least 2", id="contraction of 1-cliques"),
    pytest.param(lambda: gen_clover(1), "clover joint size must be at least 2", id="gen_clover(1)"),
    pytest.param(lambda: tfcolor.gen_mycielski(-1), "iteration count must be non-negative", id="gen_mycielski(-1)"),
    pytest.param(lambda: tfcolor.gen_complete(-1), "vertex count must be non-negative", id="gen_complete(-1)"),
])
def test_input_checks_refuse_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
