#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and summarise them
as a BENCH_<n>.json trajectory file.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_12.json
    python3 tools/bench_pairs.py --parent HEAD --change HEAD --pairs 1 \\
        --workloads calibrate --seconds 0.1 --out pairs.json

Each revision is extracted with `git archive` into its own temporary
directory, so the runs see only committed files and neither sees the
working tree. Pair i of a workload runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

with S = SEED_BASE + i in a fresh process on each tree, the parent first
in even pairs and the change first in odd ones; T defaults to the
run_seconds of BENCHMARK.json. The metrics, their units, directions and
bounds are the end-to-end metrics of BENCHMARK.json in the change's tree.
Both sides of a pair see the same seed, so every trajectory file uses the
same seeds and records them. Per metric the file holds each side's median and quartiles,
the relative change of the medians, the pairs the change wins (ties count
for neither side) and every pair's two readings. The file also records
each tree's line total of src/curveinv/*.py (as `wc -l` counts it) and its
code lines (neither blank, nor a comment alone, nor inside a module, class
or function docstring), so the size of the code sits beside its speed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = 1000
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
COMMAND = "python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0"


def _sig(x: float) -> float:
    """x to five significant digits."""
    return float(f"{x:.5g}")


def extract(rev: str, into: Path) -> str:
    """Unpack the tree of `rev` into `into`; return its full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT,
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def src_lines(tree: Path) -> int:
    """Newlines in the tree's src/curveinv/*.py, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n")
               for p in tree.glob("src/curveinv/*.py"))


def src_code_lines(tree: Path) -> int:
    """Lines of the tree's src/curveinv/*.py that are not blank, not a
    comment alone and not inside a module, class or function docstring."""
    total = 0
    for path in tree.glob("src/curveinv/*.py"):
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
                doc = node.body[0]
                docs.update(range(doc.lineno, doc.end_lineno + 1))
        total += sum(
            1 for i, line in enumerate(text.splitlines(), 1)
            if i not in docs and line.strip()[:1] not in ("", "#")
        )
    return total


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a fresh process; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{tree.name} {workload} seed {seed} printed no result"
            f" (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def _better(x: float, y: float, direction: str) -> bool:
    return x > y if direction == "higher" else x < y


def summarise(metric: dict, parent: list, change: list) -> dict:
    """Medians, quartiles, relative change and wins of one metric."""
    def quartiles(xs):
        if len(xs) == 1:
            return xs[0], xs[0], xs[0]
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return q1, med, q3

    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent_median": _sig(pm),
        "parent_q1": _sig(p1),
        "parent_q3": _sig(p3),
        "change_median": _sig(cm),
        "change_q1": _sig(c1),
        "change_q3": _sig(c3),
        "change_vs_parent": _sig(cm / pm - 1) if pm else None,
        "wins": sum(
            _better(c, p, metric["better"]) for p, c in zip(parent, change)
        ),
        "pairs_parent": [_sig(x) for x in parent],
        "pairs_change": [_sig(x) for x in change],
    }


def run_workload(trees, name, metrics, pairs, seconds) -> dict:
    seeds = [SEED_BASE + i for i in range(pairs)]
    readings = {"parent": [], "change": []}
    correct, failed = True, 0
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], name, seed, seconds)
            readings[side].append(result["metrics"])
            correct &= bool(result["correct"])
            failed += int(result["failed"])
            print(f"{name} pair {i} {side}: " + " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                for m in metrics
            ), file=sys.stderr, flush=True)
    return {
        "pairs": pairs,
        "seeds": seeds,
        "all_correct": correct,
        "failed_ops": failed,
        "metrics": {
            m["name"]: summarise(
                m,
                [r[m["name"]]["value"] for r in readings["parent"]],
                [r[m["name"]]["value"] for r in readings["change"]],
            )
            for m in metrics
        },
    }


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    memory_gb = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        memory_gb = round(pages / 2**30)
    except (OSError, ValueError):
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu": cpu,
        "memory_gb": memory_gb,
        "os": f"{platform.system()} {platform.machine()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "note": "shared virtual machine; other load not controlled",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", required=True, help="changed revision")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of each run; default BENCHMARK.json's")
    p.add_argument("--workloads", default=None,
                   help="comma-separated names; default every workload")
    p.add_argument("--note", default="", help="what the change does")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        commits = {side: extract(rev, trees[side]) for side, rev in
                   (("parent", args.parent), ("change", args.change))}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        names = [w["name"] for w in spec["workloads"]]
        if args.workloads:
            chosen = args.workloads.split(",")
            unknown = set(chosen) - set(names)
            if unknown:
                p.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
            names = chosen
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        code_lines = {side: src_code_lines(tree)
                      for side, tree in trees.items()}
        workloads = {
            name: run_workload(trees, name, spec["end_to_end"], args.pairs,
                               args.seconds)
            for name in names
        }

    report = {
        "change": args.note or f"commit {commits['change']}",
        "parent_commit": commits["parent"],
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "pairing": (
            f"{args.pairs} pairs per workload, seed {SEED_BASE}+i for"
            " pair i, parent first in even pairs and change first in odd"
            " ones; each run is a fresh process on its own extracted"
            " source tree"
        ),
        "quartiles": "statistics.quantiles(method=inclusive)",
        "wins": "pairs in which the change is better on the metric",
        "machine": machine(),
        "src_lines": lines,
        "src_code_lines": code_lines,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
