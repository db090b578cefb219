"""CLI-level benchmark for tfcolor.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout. Each instance is one `python -m
tfcolor.cli` child with PYTHONPATH=<checkout>/src, so the checked-out
tree is what gets measured. Load is a closed loop with one client: the
next child starts only after the previous one has been reaped. Every
answer is checked (check.py) without importing tfcolor.

Times are reported in reference seconds: each measured time is scaled
by CAL_REF_S over the run's median time for a fixed calibration job, a
Python child that runs no tfcolor code, timed before every instance.
The shared machine runs 1.3-1.7x slower for minutes at a time; the
scale takes most of that out, and the raw times stay in the context
line.

--trace 0 prints the end-to-end metrics; --trace 1 additionally runs
every instance in-process under wrappers (tracer.py) and prints the
per-layer split. The last stdout line is the result object; the line
before it records the context (python, nproc, commit, src_lines, which
percentile wall_tail_s is). See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import corpus
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

CAP_S = 10.0         # per-instance wall cap; the child's process group is killed at it
SETUP_REPEATS = 11   # trivial invocations spread over a run; their median is setup_s
OVERRUN = 1.5        # no round starts that would end past OVERRUN x --seconds
TAIL_BEYOND = 10     # wall_tail_s leaves at least this many instances above it
CAL_REF_S = 0.06     # about the calibration job's median on the reference box
CAL_JOB = """\
import argparse, json, random
from collections import Counter
rng = random.Random(0)
n = 1500
adj = [set() for _ in range(n)]
for _ in range(5 * n):
    u, v = rng.randrange(n), rng.randrange(n)
    if u != v:
        adj[u].add(v)
        adj[v].add(u)
print(sum(len(adj[a] & adj[b]) for a in range(n) for b in adj[a] if b > a))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, cwd, cap, stdout_path):
    """Run argv with stdout to a file; returns (exit_code, wall_s,
    max_rss_mb, capped). At the cap the child's whole process group is
    killed; the child is always reaped with os.wait4 before returning."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        capped = threading.Event()

        def kill():
            capped.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(cap, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): take the child's group down with us
            kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # grandchildren left in the group, if any
    except ProcessLookupError:
        pass
    return code, wall, usage.ru_maxrss / 1024.0, capped.is_set()


def cli_argv(argv):
    return [sys.executable, "-m", "tfcolor.cli", *argv]


def write_files(inst, d):
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    for name, text in inst.files.items():
        (d / name).write_text(text, encoding="utf-8")


def setup_sample(workload, d):
    """Wall time of the workload's subcommand on a one-vertex graph:
    interpreter start, tfcolor import, argparse, trivial work."""
    d.mkdir(parents=True, exist_ok=True)
    (d / "one.dimacs").write_text("p edge 1 0\n", encoding="utf-8")
    code, wall, _, _ = run_child(cli_argv(corpus.WORKLOADS[workload].setup_argv), d, CAP_S, d / "setup.out")
    if code != 0:
        raise RuntimeError(f"trivial invocation exited {code}; is src/tfcolor present?")
    return wall


def calibration_sample(d):
    """Wall seconds of a fresh Python child running CAL_JOB, a fixed job
    that runs no tfcolor code: stdlib imports like the CLI's, then a
    fixed random graph built and its triangles counted. Its median over
    a run gauges how fast the shared machine starts and runs Python
    processes during that run."""
    d.mkdir(parents=True, exist_ok=True)
    code, wall, _, _ = run_child([sys.executable, "-c", CAL_JOB], d, CAP_S, d / "cal.out")
    if code != 0:
        raise RuntimeError(f"calibration job exited {code}")
    return wall


def tail(walls):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND instances above it."""
    s = sorted(walls)
    idx = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[idx], 100.0 * (idx + 1) / len(s)


def run_workload(workload, seed, seconds, trace, work):
    """A fixed number of whole rounds (corpus.rounds_for), so every run
    of a workload holds the same mix of classes; a traced run, three
    times slower per instance, holds a third of them. On a machine so
    slow that the next round, at the pace so far against the calibration
    in corpus.Workload, would end past OVERRUN x --seconds, the remaining
    rounds are dropped so that the run still ends in time. Returns setup_s,
    the median calibration sample, one record per instance and, when
    tracing, one tracer row per instance plus the gadget row."""
    reference = corpus.load_reference()
    rounds = corpus.rounds_for(workload, seconds)
    if trace:
        rounds = max(1, rounds // 3)
    w = corpus.WORKLOADS[workload]
    total = len(w.first) + rounds * len(w.classes)
    # set-up samples spread over the run, so the median sees the machine
    # in the same states the instances do; the first call is untimed and
    # byte-compiles src on a fresh checkout
    setup_at = {total * i // SETUP_REPEATS for i in range(SETUP_REPEATS)}
    setup_sample(workload, work / "setup")
    setups, cals, records, rows = [], [], [], []
    t_start = time.perf_counter()
    for r in range(rounds):
        if r:
            elapsed = time.perf_counter() - t_start
            pace = elapsed / (w.first_s + r * w.round_s)
            if elapsed + pace * w.round_s > OVERRUN * seconds:
                break
        for inst in corpus.round_instances(workload, seed, r, reference):
            if len(records) in setup_at:
                setups.append(setup_sample(workload, work / "setup"))
            cals.append(calibration_sample(work / "cal"))
            d = work / "inst"
            write_files(inst, d)
            code, wall, rss, capped = run_child(cli_argv(inst.argv), d, CAP_S, d / "stdout")
            stdout = (d / "stdout").read_text(encoding="utf-8", errors="replace")
            verdict = ("crash", f"killed at the {CAP_S:g} s cap") if capped else check.judge(inst.expect, code, stdout)
            records.append({"cls": inst.cls, "wall": wall, "rss": rss, "code": code, "verdict": verdict})
            if trace:
                # an instance over the cap would only hit it again in-process
                rows.append({"failed": True} if capped else trace_child(inst.argv, d, wall, len(rows) % 2))
    gadget_row = trace_child(["--gadgets"], work, 0.0) if trace else None
    return statistics.median(setups), statistics.median(cals), records, rows, gadget_row


def trace_child(argv, d, cli_wall, traced_first=False):
    """Untraced and traced in-process runs of one CLI argv in a fresh
    child (tracer.py), which writes its timings and span aggregates."""
    out = d / "trace.json"
    child = [sys.executable, str(TRACER), json.dumps(argv), str(out)] + (["traced-first"] if traced_first else [])
    code, _, _, capped = run_child(child, d, 3 * CAP_S, d / "trace.stdout")
    if code != 0 or capped:
        return {"failed": True}
    row = json.loads(out.read_text(encoding="utf-8"))
    row["cli_wall"] = cli_wall
    return row


def end_to_end(setup_s, records, scale=1.0):
    """The end-to-end metrics, with every measured time multiplied by
    scale (reference seconds per second on this machine in this run).
    A failed instance counts at the cap, which is not scaled."""
    walls = [CAP_S if rec["verdict"] else rec["wall"] * scale for rec in records]
    ok = sum(1 for rec in records if rec["verdict"] is None)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "wall_p50_s": (statistics.median(walls), "s"),
        "wall_tail_s": (tail_s, "s"),
        "solved_per_s": (ok / (scale * sum(rec["wall"] for rec in records)), "1/s"),
        "ok_frac": (ok / len(records), "fraction"),
        "peak_rss_mb": (max(rec["rss"] for rec in records), "MB"),
    }
    return metrics, {"wall_tail_percentile": round(tail_pct, 2), "instances": len(records)}


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "tfcolor").glob("*.py")))


def git_commit():
    """HEAD of the checkout when it is a git repository, read from .git
    directly so nothing outside the checkout is consulted."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write result, context and per-instance rows here")
    args = parser.parse_args(argv)

    if not (SRC / "tfcolor" / "cli.py").is_file():
        print(f"error: no tfcolor sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK / str(os.getpid())
    try:
        setup_s, cal_s, records, rows, gadget_row = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                                                 work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    wrong = [rec for rec in records if rec["verdict"] and rec["verdict"][0] == "wrong"]
    for rec in records:
        if rec["verdict"]:
            print(f"failed {rec['cls']}: {rec['verdict'][0]}: {rec['verdict'][1]}", file=sys.stderr)
    # times in reference seconds: the shared machine runs 1.3-1.7x
    # slower for minutes at a time, and the raw times would carry that
    scale = CAL_REF_S / cal_s
    metrics, info = end_to_end(setup_s, records, scale)
    raw, _ = end_to_end(setup_s, records)
    if args.trace:
        metrics = tracer.layer_metrics(rows, gadget_row)
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": sum(1 for rec in records if rec["verdict"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": git_commit(),
        "src_lines": src_lines(), "cap_s": CAP_S, **info,
        "cal_s": cal_s, "scale": scale, "raw": {k: v for k, (v, _) in raw.items()},
        "fail_by_class": {c: sum(1 for rec in records if rec["cls"] == c and rec["verdict"])
                          for c in dict.fromkeys(rec["cls"] for rec in records)},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"context": context, "result": result, "instances": records}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
