"""Package surface: what CLI start-up loads, the lazily resolved package
exports, and the semantics of the read-only value records."""

import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
import tfcolor
from tfcolor import (
    CnfFormula,
    Coloring,
    CycleClique,
    Graph,
    PolarGadget,
    PolarInstance,
    ReductionOutput,
    StructuralParams,
    gen_cycle_clique,
    gen_polar_gadget,
)

SRC = Path(tfcolor.__file__).resolve().parent.parent

LOADS = """\
import json, sys
from tfcolor import cli
code = cli.run(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""


def modules_after(argv, cwd):
    """(exit code, sorted sys.modules) of a fresh interpreter that runs
    cli.run(argv) with the package's own sources on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LOADS, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
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


@pytest.mark.parametrize("argv", [
    ["solve", "g.dimacs", "--q", "2"],
    ["solve", "g.dimacs"],
    ["solve", "g.dimacs", "--fpt", "--q", "2"],
    ["params", "g.dimacs"],
    ["solve", "--polar", "p.polar", "--q", "2"],
])
def test_search_commands_load_no_reductions_gadgets_or_dataclasses(argv, inputs):
    code, modules = modules_after(argv, inputs)
    assert code == 0
    assert "tfcolor.solvers" in modules
    assert not modules & {"tfcolor.reductions", "tfcolor.gadgets", "dataclasses", "heapq"}


@pytest.mark.parametrize("argv", [
    ["gen", "clover", "--k", "2"],
    ["reduce", "g.dimacs", "--to", "q+1", "--q", "2"],
    ["reduce", "f.cnf", "--from", "nae4", "--to", "polar"],
    ["solve", "g.dimacs", "--class", "chordal"],
    ["verify", "g.dimacs", "--coloring", "c.json"],
    ["verify", "--polar", "p.polar", "--coloring", "c.json"],
])
def test_no_command_loads_dataclasses(argv, inputs):
    code, modules = modules_after(argv, inputs)
    assert code == 0
    assert not modules & {"dataclasses", "heapq"}
    # only the search commands need the solvers
    if argv[0] != "solve":
        assert "tfcolor.solvers" not in modules


def test_lazy_exports_resolve_to_submodule_objects():
    assert len(tfcolor.__all__) == len(set(tfcolor.__all__)) == 56
    listed = dir(tfcolor)
    for name in tfcolor.__all__:
        module = importlib.import_module(f"tfcolor.{tfcolor._HOME[name]}")
        assert getattr(tfcolor, name) is getattr(module, name)
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        tfcolor.no_such_name
    from tfcolor import cli, solvers

    assert callable(cli.run) and solvers.decide_tf_q is tfcolor.decide_tf_q
    assert tfcolor.__version__ == "0.1.0"


def test_lazy_exports_see_a_patched_submodule(monkeypatch):
    from tfcolor import solvers

    assert tfcolor.decide_tf_q is solvers.decide_tf_q

    def fake(*args, **kwargs):
        return None

    monkeypatch.setattr(solvers, "decide_tf_q", fake)
    assert tfcolor.decide_tf_q is fake


FIELDS = {
    Coloring: ("k", "colors"),
    CycleClique: ("graph", "joints", "k"),
    PolarGadget: ("graph", "u", "v"),
    CnfFormula: ("num_vars", "clauses"),
    PolarInstance: ("graph", "polar"),
    ReductionOutput: ("kind", "instance", "forward_map", "metadata"),
    StructuralParams: ("omega", "chi", "chi3", "vc", "delta"),
}


def _records():
    return [
        Coloring(2, [1, 2, 1]),
        gen_cycle_clique(1),
        gen_polar_gadget(),
        CnfFormula(2, [[1, 2, -1]]),
        PolarInstance(Graph(2, [(0, 1)]), [(1, 0)]),
        ReductionOutput(kind="x", instance=1, forward_map={}, metadata={}),
        StructuralParams(omega=2, chi=3, chi3=2, vc=3, delta=2),
    ]


def test_records_repr_lists_fields_in_order():
    assert [repr(r) for r in _records()] == [
        "Coloring(k=2, colors=(1, 2, 1))",
        "CycleClique(graph=Graph(n=5, m=5), joints=((0,), (1,), (2,), (3,), (4,)), k=1)",
        "PolarGadget(graph=Graph(n=12, m=30), u=0, v=1)",
        "CnfFormula(num_vars=2, clauses=((1, 2, -1),))",
        "PolarInstance(graph=Graph(n=2, m=1), polar=frozenset({(0, 1)}))",
        "ReductionOutput(kind='x', instance=1, forward_map={}, metadata={})",
        "StructuralParams(omega=2, chi=3, chi3=2, vc=3, delta=2)",
    ]


def test_records_equality_hash_and_read_only_fields():
    for r, twin in zip(_records(), _records()):
        fields = FIELDS[type(r)]
        values = tuple(getattr(r, f) for f in fields)
        assert r == twin and not r != twin
        assert r == copy.copy(r) == pickle.loads(pickle.dumps(r))
        if isinstance(r, ReductionOutput):
            with pytest.raises(TypeError):
                hash(r)  # its dict fields are unhashable
        else:
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
    with pytest.raises(ValueError, match="sandwich"):
        StructuralParams(omega=2, chi=3, chi3=3, vc=3, delta=2)
    with pytest.raises(ValueError, match="delta"):
        StructuralParams(omega=2, chi=4, chi3=2, vc=3, delta=2)
    with pytest.raises(ValueError, match="expected exactly 3"):
        CnfFormula(2, ((1, 2),))
    with pytest.raises(ValueError, match="invalid literal 3"):
        CnfFormula(2, ((1, 2, 3),))
    with pytest.raises(ValueError, match="not present"):
        PolarInstance(Graph(3, [(0, 1)]), [(1, 2)])
