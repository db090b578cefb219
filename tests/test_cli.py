"""Command-line behavior: pipes between gen/solve/verify/reduce/params,
exit codes, and the pinned golden outputs."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tfcolor import Coloring, Graph, cli, gen_clover, read_dimacs_graph, solvers, verify_triangle_free, write_dimacs_graph
from tfcolor.cli import CLASS_TAGS
from tfcolor.graph_classes import BOUNDED_TAGS
from tfcolor.reductions import parse_dimacs_cnf, parse_polar_instance, write_dimacs_cnf
from util_graphs import planted_nae_cnf, random_ktree, square_of_path, triangulated_grid

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).resolve().parents[1] / "src")
K3 = "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_clover_matches_golden(monkeypatch, capsys):
    code, out = run_cli(["gen", "clover", "--k", "2"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "clover2.dimacs").read_text()


def test_gen_polar_gadget_matches_golden(monkeypatch, capsys):
    code, out = run_cli(["gen", "polar-gadget"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "polar_gadget.dimacs").read_text()


def test_gen_families_emit_parseable_dimacs(monkeypatch, capsys):
    for argv, n in [
        (["gen", "cycle-clique", "--k", "2"], 10),
        (["gen", "theorem9"], 33),
        (["gen", "mycielski", "--k", "2"], 11),
        (["gen", "complete", "--k", "5"], 5),
        (["gen", "cycle", "--k", "7"], 7),
    ]:
        code, out = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert read_dimacs_graph(out).n == n


def test_gen_dot(monkeypatch, capsys):
    code, out = run_cli(["gen", "cycle", "--k", "5", "--dot"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and out.startswith("graph g {")


def test_gen_flag_validation(monkeypatch, capsys):
    code, _ = run_cli(["gen", "clover"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    code, _ = run_cli(["gen", "polar-gadget", "--k", "3"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2


def test_solve_clover_budget_two_infeasible(monkeypatch, capsys):
    clover = (GOLDEN / "clover2.dimacs").read_text()
    code, out = run_cli(["solve", "--q", "2"], stdin_text=clover, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert json.loads(out) == {"feasible": False}


def test_solve_clover_budget_three(monkeypatch, capsys):
    clover = (GOLDEN / "clover2.dimacs").read_text()
    code, out = run_cli(["solve", "--q", "3"], stdin_text=clover, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True and len(doc["coloring"]) == 27


def test_solve_then_verify_self_consistency(tmp_path, monkeypatch, capsys):
    gadget = (GOLDEN / "polar_gadget.dimacs").read_text()
    code, out = run_cli(["solve"], stdin_text=gadget, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["chi3"] == 2
    coloring_file = tmp_path / "witness.json"
    coloring_file.write_text(out)
    code, out = run_cli(["verify", "--coloring", str(coloring_file)],
                        stdin_text=gadget, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"valid": True}


def test_verify_rejects_bad_coloring(tmp_path, monkeypatch, capsys):
    gadget = (GOLDEN / "polar_gadget.dimacs").read_text()
    coloring_file = tmp_path / "bad.json"
    coloring_file.write_text(json.dumps({"k": 1, "colors": [1] * 12}))
    code, out = run_cli(["verify", "--coloring", str(coloring_file)],
                        stdin_text=gadget, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert json.loads(out) == {"valid": False}


def test_verify_reads_coloring_from_stdin(tmp_path, monkeypatch, capsys):
    gadget = GOLDEN / "polar_gadget.dimacs"
    code, witness = run_cli(["solve"], stdin_text=gadget.read_text(), monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    code, out = run_cli(["verify", str(gadget), "--coloring", "-"], stdin_text=witness,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and json.loads(out) == {"valid": True}
    polar = tmp_path / "polar.txt"
    polar.write_text(gadget.read_text() + "s 1 2\n")
    code, out = run_cli(["verify", "--polar", str(polar), "--coloring", "-"],
                        stdin_text=json.dumps({"colors": [1] * 12}), monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1 and json.loads(out) == {"valid": False}


@pytest.mark.parametrize("argv", [["verify", "--coloring", "-"], ["verify", "--polar", "-", "--coloring", "-"]])
def test_verify_refuses_two_inputs_on_stdin(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO((GOLDEN / "polar_gadget.dimacs").read_text()))
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: --coloring -")


@pytest.mark.parametrize("doc", [{"colors": None}, "colors", {"colors": [1, 1, {}]}])
def test_verify_malformed_coloring_is_exit_two(doc, tmp_path, monkeypatch, capsys):
    coloring_file = tmp_path / "bad.json"
    coloring_file.write_text(json.dumps(doc))
    code, out = run_cli(["verify", "--coloring", str(coloring_file)],
                        stdin_text=(GOLDEN / "polar_gadget.dimacs").read_text(),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""


def test_params_polar_gadget_matches_golden(monkeypatch, capsys):
    gadget = (GOLDEN / "polar_gadget.dimacs").read_text()
    code, out = run_cli(["params"], stdin_text=gadget, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out == (GOLDEN / "polar_gadget_params.json").read_text()
    doc = json.loads(out)
    assert doc["omega"] == 3 and doc["chi3"] == 2


def test_params_max_n_guard(monkeypatch, capsys):
    code, _ = run_cli(["params", "--max-n", "5"],
                      stdin_text=(GOLDEN / "polar_gadget.dimacs").read_text(),
                      monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2


def test_solve_class_chordal(monkeypatch, capsys):
    k6 = "p edge 6 15\n" + "".join(
        f"e {u + 1} {v + 1}\n" for u in range(6) for v in range(u + 1, 6)
    )
    code, out = run_cli(["solve", "--class", "chordal"], stdin_text=k6,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert json.loads(out)["chi3"] == 3


def test_solve_class_planar_large_grid(monkeypatch, capsys):
    # 2025 vertices, deeper than the recursion limit for a search
    # recursing per vertex
    text = write_dimacs_graph(triangulated_grid(45))
    code, out = run_cli(["solve", "--class", "planar"], stdin_text=text,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["chi3"] == 2
    coloring = Coloring(2, tuple(doc["coloring"]))
    assert verify_triangle_free(read_dimacs_graph(text), coloring)


@pytest.mark.parametrize("tag", BOUNDED_TAGS)
def test_solve_class_bounded_empty_graph(tag, monkeypatch, capsys):
    code, out = run_cli(["solve", "--class", tag], stdin_text="p edge 0 0\n",
                        monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out) == (0, '{"chi3": 0, "coloring": []}\n')


def test_gen_clover_five_solve_budget_five_infeasible(monkeypatch, capsys):
    code, clover = run_cli(["gen", "clover", "--k", "5"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    code, out = run_cli(["solve", "--q", "5"], stdin_text=clover, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert json.loads(out) == {"feasible": False}


def test_solve_fpt_path(monkeypatch, capsys):
    k4 = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
    code, out = run_cli(["solve", "--fpt", "--q", "1"], stdin_text=k4,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    code, out = run_cli(["solve", "--fpt", "--q", "2"], stdin_text=k4,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and json.loads(out)["feasible"] is True
    code, out = run_cli(["solve", "--fpt", "--q", "2", "--class", "general"], stdin_text=k4,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and json.loads(out)["feasible"] is True
    for tag in CLASS_TAGS:
        if tag != "general":
            code, out = run_cli(["solve", "--fpt", "--q", "2", "--class", tag], stdin_text=k4,
                                monkeypatch=monkeypatch, capsys=capsys)
            assert code == 2 and out == ""


def test_solve_fpt_square_of_long_path(monkeypatch, capsys):
    g = square_of_path(3000)
    code, out = run_cli(["solve", "--fpt", "--q", "2"], stdin_text=write_dimacs_graph(g),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert verify_triangle_free(g, Coloring(2, tuple(json.loads(out)["coloring"])))


@pytest.mark.parametrize("argv", [
    ["solve", "--q", "0"],
    ["solve", "--fpt", "--q", "0"],
    ["solve", "--class", "chordal", "--q", "0"],
    ["solve", "--class", "planar", "--q", "0"],
    ["solve", "--class", "chordal", "--q", "-3"],
])
def test_solve_budget_below_one_is_exit_two(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"))
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: color budget must be at least 1\n"


def test_unexpected_exception_is_exit_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(solvers, "decide_tf_q", boom)
    monkeypatch.setattr(sys, "stdin", io.StringIO("p edge 2 1\ne 1 2\n"))
    code = cli.run(["solve", "--q", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: RecursionError: maximum recursion depth exceeded"]


def test_reduce_cnf_pipelines(monkeypatch, capsys):
    cnf = "p cnf 3 1\n1 2 3 0\n"
    code, out = run_cli(["reduce", "--from", "sat4", "--to", "nae4"], stdin_text=cnf,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    phi = parse_dimacs_cnf(out)
    assert phi.num_vars == 5 and len(phi.clauses) == 3

    code, out = run_cli(["reduce", "--from", "nae", "--to", "k4free"], stdin_text=cnf,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert read_dimacs_graph(out).n == 69

    code, out = run_cli(["reduce", "--from", "nae4", "--to", "polar"], stdin_text=cnf,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    inst = parse_polar_instance(out)
    assert inst.graph.n == 45 and inst.graph.max_degree <= 3

    satlib = "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n%\n0\n"
    code, out = run_cli(["reduce", "--from", "sat4", "--to", "nae4"], stdin_text=satlib,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert len(parse_dimacs_cnf(out).clauses) == 6


def test_reduce_budget_increment(monkeypatch, capsys):
    k3 = "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"
    code, out = run_cli(["reduce", "--to", "q+1", "--q", "2"], stdin_text=k3,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert read_dimacs_graph(out).n == 43


def test_solve_class_tags(monkeypatch, capsys):
    # every tag but "general" names a pipeline of graph_classes
    assert CLASS_TAGS == ("chordal",) + BOUNDED_TAGS + ("general",)
    code, out = run_cli(["solve", "--help"], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0 and "{" + ",".join(CLASS_TAGS) + "}" in out
    code, out = run_cli(["solve", "--class", "bipartite"], stdin_text="p edge 1 0\n",
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and out == ""


def test_reduce_rejects_bad_combination(monkeypatch, capsys):
    cnf = "p cnf 3 1\n1 2 3 0\n"
    code, _ = run_cli(["reduce", "--from", "sat4", "--to", "polar"], stdin_text=cnf,
                      monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2


K3_POLAR = K3 + "s 1 2\n"


@pytest.mark.parametrize("argv, stdin_text, message", [
    (["solve", "graph.dimacs", "--polar", "-"], K3_POLAR, "give either a graph input or --polar FILE, not both"),
    (["solve", "--fpt"], K3, "--fpt requires --q"),
    (["solve", "--fpt", "--q", "2", "--polar", "-"], K3_POLAR, "--fpt does not take polar constraints"),
    (["solve", "--class", "chordal", "--polar", "-"], K3_POLAR, "class pipelines do not take polar constraints"),
    (["reduce", "--to", "q+1"], K3, "--to q+1 requires --q"),
    (["reduce", "--from", "nae", "--to", "q+1", "--q", "2"], K3, "--to q+1 reads a graph; leave --from unset"),
    (["reduce", "--from", "sat4", "--to", "polar"], "p cnf 3 1\n1 2 3 0\n", "unsupported reduction 'sat4' -> 'polar'"),
])
def test_refused_option_combinations_name_the_fault(argv, stdin_text, message, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_solve_class_pipeline_decides_a_budget(monkeypatch, capsys):
    k4 = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
    code, out = run_cli(["solve", "--class", "chordal", "--q", "1"], stdin_text=k4,
                        monkeypatch=monkeypatch, capsys=capsys)
    assert (code, json.loads(out)) == (1, {"feasible": False})
    code, out = run_cli(["solve", "--class", "chordal", "--q", "2"], stdin_text=k4,
                        monkeypatch=monkeypatch, capsys=capsys)
    doc = json.loads(out)
    assert code == 0 and doc["feasible"] is True
    assert verify_triangle_free(read_dimacs_graph(k4), Coloring(2, tuple(doc["coloring"])))


def test_malformed_input_is_exit_two(monkeypatch, capsys):
    code, _ = run_cli(["solve"], stdin_text="p edge 2 1\ne 1 5\n",
                      monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    code, _ = run_cli(["params"], stdin_text="not dimacs\n",
                      monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2


def test_solve_with_polar_instance_file(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\ns 1 2\ns 2 3\ns 3 4\ns 4 5\ns 1 5\n")
    code, out = run_cli(["solve", "--q", "2", "--polar", str(inst)],
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert json.loads(out) == {"feasible": False}
    code, out = run_cli(["solve", "--q", "3", "--polar", str(inst)],
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    # '-' reads the polar instance from stdin, like every other input
    code, out = run_cli(["solve", "--q", "2", "--polar", "-"], stdin_text=inst.read_text(),
                        monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1 and json.loads(out) == {"feasible": False}


def test_solve_output_independent_of_hash_seed(tmp_path):
    # the same input gives the same stdout in fresh interpreters whose
    # string and set hashing differ
    rng = random.Random(30)
    dense = Graph(30, [e for e in combinations(range(30), 2) if rng.random() < 0.5])
    clover = gen_clover(4)
    perm = list(range(clover.n))
    rng.shuffle(perm)
    clover = Graph(clover.n, [(perm[u], perm[v]) for u, v in clover.edges()])
    small = Graph(12, [e for e in combinations(range(12), 2) if rng.random() < 0.5])
    polar = "".join(f"s {u + 1} {v + 1}\n" for u, v in small.edges() if rng.random() < 0.3)
    (tmp_path / "dense.dimacs").write_text(write_dimacs_graph(dense))
    (tmp_path / "clover.dimacs").write_text(write_dimacs_graph(clover))
    (tmp_path / "polar.txt").write_text(write_dimacs_graph(small) + polar)
    (tmp_path / "ktree.dimacs").write_text(write_dimacs_graph(random_ktree(rng, 3, 300)))
    sparse = Graph(40, [e for e in combinations(range(40), 2) if rng.random() < 0.1])
    (tmp_path / "sparse.dimacs").write_text(write_dimacs_graph(sparse))
    runs = (["dense.dimacs"], ["clover.dimacs", "--q", "5"], ["--polar", "polar.txt"],
            ["ktree.dimacs", "--class", "chordal"], ["sparse.dimacs", "--fpt", "--q", "2"])
    outs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        for args in runs:
            done = subprocess.run([sys.executable, "-m", "tfcolor.cli", "solve", *args], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outs.setdefault(args[0], set()).add(done.stdout)
    assert all(len(got) == 1 for got in outs.values())


def cli_child(argv, cwd, **kwargs):
    """A `python -m tfcolor.cli` child with its stderr captured. Its
    environment drops PYTHONUNBUFFERED, which would write each line at
    once and so hide what goes wrong in the final flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-m", "tfcolor.cli", *argv], cwd=cwd, env=env,
                          stderr=subprocess.PIPE, timeout=60, **kwargs)


def test_main_writes_a_large_output_whole_to_a_pipe_and_a_file(tmp_path, monkeypatch, capsys):
    (tmp_path / "f.cnf").write_text(write_dimacs_cnf(planted_nae_cnf(random.Random(1), 72)))
    argv = ["reduce", "f.cnf", "--from", "nae", "--to", "k4free"]
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv) == 0
    want = capsys.readouterr().out.encode()
    assert len(want) >= 100_000
    piped = cli_child(argv, tmp_path, stdout=subprocess.PIPE)
    with open(tmp_path / "out.dimacs", "wb") as out:
        filed = cli_child(argv, tmp_path, stdout=out)
    assert piped.returncode == filed.returncode == 0
    assert piped.stderr == filed.stderr == b""
    assert piped.stdout == want == (tmp_path / "out.dimacs").read_bytes()


def test_main_writes_the_help_text(tmp_path):
    done = cli_child(["--help"], tmp_path, stdout=subprocess.PIPE)
    assert done.returncode == 0 and done.stdout.startswith(b"usage: tfcolor")


@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
def test_main_reports_a_failed_write_as_exit_two(sink, tmp_path):
    (tmp_path / "k3.dimacs").write_text(K3)
    if sink == "/dev/full":
        if not os.path.exists(sink):
            pytest.skip("no /dev/full on this system")
        out = open(sink, "wb")
    else:
        r, w = os.pipe()
        os.close(r)
        out = os.fdopen(w, "wb")
    with out:
        done = cli_child(["solve", "k3.dimacs"], tmp_path, stdout=out)
    assert done.returncode == 2
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [Errno ")


def test_main_passes_exit_codes_through(tmp_path):
    (tmp_path / "k3.dimacs").write_text(K3)
    for argv, code, doc in ((["solve", "k3.dimacs"], 0, {"chi3": 2, "coloring": [1, 2, 1]}),
                            (["solve", str(GOLDEN / "clover2.dimacs"), "--q", "2"], 1, {"feasible": False})):
        done = cli_child(argv, tmp_path, stdout=subprocess.PIPE)
        assert done.returncode == code and done.stderr == b""
        assert json.loads(done.stdout) == doc
    # started with fd 1 closed, the process has no sys.stdout to write the
    # answer to: an output error, refused before the command runs
    for argv in (["solve", "k3.dimacs"], ["gen", "cycle", "--k", "5"]):
        done = cli_child(argv, tmp_path, preexec_fn=lambda: os.close(1))
        lines = done.stderr.decode().splitlines()
        assert done.returncode == 2 and lines == ["error: standard output is closed"]


def test_a_closed_stdin_is_an_input_error(tmp_path):
    (tmp_path / "k3.dimacs").write_text(K3)
    for argv in (["solve"], ["verify", "k3.dimacs", "--coloring", "-"]):
        done = cli_child(argv, tmp_path, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(0))
        lines = done.stderr.decode().splitlines()
        assert (done.returncode, lines, done.stdout) == (2, ["error: standard input is closed"], b"")


def test_help_and_malformed_argv_match_the_recorded_outputs(tmp_path):
    # cli_argv.json holds the stdout, stderr and exit code of each argv as
    # argparse alone read them: help, errors, abbreviations, --opt=value
    (tmp_path / "k3.dimacs").write_text(K3)
    (tmp_path / "c.json").write_text('{"colors": [1, 1, 2]}')
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, COLUMNS="80")  # argparse wraps help to the terminal width
    for row in json.loads((GOLDEN / "cli_argv.json").read_text(encoding="utf-8")):
        done = subprocess.run([sys.executable, "-m", "tfcolor.cli", *row["argv"]], cwd=tmp_path, env=env,
                              capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=60)
        assert (done.stdout, done.stderr, done.returncode) == (row["stdout"], row["stderr"], row["code"]), row["argv"]


PARSER = cli._build_parser()
VALUES = ["-", "-1", "+3", "\u0663", "3_0", " 3", "3", "0", "", "x", "k3.dimacs", "chordal", "general", "clover",
          "cycle", "sat4", "nae", "nae4", "k4free", "polar", "q+1"]
WORDS = [*cli.COMMANDS, *sorted({option[0] for _, _, _, options in cli.COMMANDS.values() for option in options}),
         "--cl", "--po", "--co", "--f", "--max", "--q=3", "--dot=1", "--", "-h", "--help", *VALUES]


def near_plain(command):
    """argv of command: some of its flags once each in any order, with a
    value that is often a valid one, maybe a positional, and maybe one
    stray word anywhere."""
    def with_value(option):
        flag, _, type, _, choices, _, _ = option
        if type is bool:
            return st.just([flag])
        good = choices or (["3", "+3", "\u0663", "3_0", " 3", "0"] if type is int else ["k3.dimacs", "-", "", "x"])
        return st.sampled_from([*good, "-", "-1", "x"]).map(lambda value: [flag, value])

    def insert(argv, stray):
        for at, word in stray:
            argv.insert(1 + at % len(argv), word)
        return argv

    _, _, (_, choices, _, _), options = cli.COMMANDS[command]
    flags = st.lists(st.sampled_from(options), unique=True).flatmap(lambda chosen: st.tuples(*map(with_value, chosen)))
    positional = st.lists(st.sampled_from(choices or ["k3.dimacs", "-", ""]).map(lambda word: [word]), max_size=1)
    plain = st.tuples(flags, positional).flatmap(lambda t: st.permutations([*t[0], *t[1]]))
    stray = st.lists(st.tuples(st.integers(0, 9), st.sampled_from(WORDS)), max_size=1)
    return st.tuples(plain, stray).map(lambda t: insert([command, *sum(t[0], [])], t[1]))


NEAR_PLAIN = st.sampled_from(list(cli.COMMANDS)).flatmap(near_plain)


@settings(max_examples=3000)
@given(st.one_of(st.lists(st.sampled_from(WORDS), max_size=9), NEAR_PLAIN, NEAR_PLAIN, NEAR_PLAIN))  # 3 in 4 near plain
def test_lean_argv_reader_agrees_with_argparse(argv):
    lean = cli._lean_args(argv)
    if lean is not None:
        assert vars(lean) == vars(PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["solve", "g.dimacs", "--q", "3"], ["solve", "--polar", "p.polar", "--q", "2"], ["solve", "--q", "3", "-"],
    ["solve", "g.dimacs", "--fpt", "--q", "2"], ["solve", "g.dimacs", "--class", "chordal"], ["gen", "clover", "--k", "4"],
    ["gen", "theorem9", "--dot"], ["verify", "g.dimacs", "--coloring", "w.json"], ["params", "g.dimacs", "--max-n", "100"],
    ["reduce", "f.cnf", "--from", "nae", "--to", "k4free"], ["reduce", "g.dimacs", "--to", "q+1", "--q", "3"],
    ["solve", "--q", "+3", "g.dimacs"], ["gen", "cycle", "--k", " 5"],
])
def test_lean_argv_reader_takes_the_plain_argv(argv):
    assert vars(cli._lean_args(argv)) == vars(PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["solve", "-h"], ["solve", "--q=3"], ["solve", "--cl", "chordal"], ["solve", "--", "g.dimacs"],
    ["solve", "--q", "-1"], ["solve", "--q", "3", "--q", "2"], ["solve", "--fpt", "--fpt"], ["solve", "--q"],
    ["solve", "--q", "x"], ["solve", "a", "b"], ["verify", "g.dimacs"], ["reduce", "--to", "bad"], ["gen"],
    ["gen", "nope"], ["gen", "--k", "2"], ["params", "--max-n", "1.5"], ["solve", "--k", "2"],
])
def test_lean_argv_reader_leaves_the_rest_to_argparse(argv):
    assert cli._lean_args(argv) is None


def emitted(doc):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(doc)
    return out.getvalue()


INTS = st.integers(-2**64, 2**64)


@given(st.lists(INTS), INTS, st.booleans(), st.lists(INTS, min_size=7, max_size=7))
def test_json_writer_matches_json_dumps(colors, k, valid, params):
    docs = ({"feasible": False}, {"feasible": True, "coloring": colors}, {"chi3": k, "coloring": colors},
            {"valid": valid}, dict(zip(("n", "m", "omega", "chi", "chi3", "vc", "delta"), params)))
    for doc in docs:
        assert emitted(doc) == json.dumps(doc) + "\n"


@pytest.mark.parametrize("value", ["1", 1.0, None, {}, {"a": 1}, [1, "2"], [1.0], [None]])
def test_json_writer_refuses_other_value_types(value):
    with pytest.raises(TypeError):
        emitted({"chi3": 2, "coloring": value})
