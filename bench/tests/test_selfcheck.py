"""Self-check of the benchmark.

One operation of each workload must pass every check, a perturbed output
must be rejected by its workload's checker, the histogram reference must
agree with the oracle, per-layer counts must repeat between two traced
runs, and a tree without src/ must fail without printing a result.

Run from the repository root: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from curveinv import ArrowDiagram, builtin_formulas, frozen_calibration  # noqa: E402
from curveinv.oracle import count_arrow_pattern_oracle  # noqa: E402


def _bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def one_op(tmp_path_factory):
    """(workload, op, output) of the first operation of each workload."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(0, tmp_path_factory.mktemp(name))
        op = w.ops[0]
        out[name] = (w, op, w.run(op))
    return out


def test_quick_mode_passes():
    done = _bench("--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": PASS") == len(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_operation_passes_every_check(one_op, name):
    w, op, output = one_op[name]
    assert w.check(op, output) == (0, [])
    assert w.run_checks() == []


def test_eval_value_off_by_one_is_rejected(one_op):
    w, op, output = one_op["eval-large"]
    rc, out, err = output[2]
    bad = list(output)
    bad[2] = (rc, f"{int(out) + 1}\n", err)
    failed, problems = w.check(op, bad)
    assert failed == op.weight and problems


def test_fuzz_violation_report_is_rejected(one_op):
    w, op, _ = one_op["fuzz-default"]
    report = "violation seed=3 trial=1\n  I3_1: before=0 after=1\n1 violation(s)\n"
    failed, problems = w.check(op, (1, report, ""))
    assert failed == 1 and problems
    wrong_count = f"OK trials={w.TRIALS - 1} depth={w.DEPTH} seeds={len(w.seeds)}\n"
    assert w.check(op, (0, wrong_count, ""))[0] == op.weight


def test_calibrate_without_frozen_survivor_is_rejected(one_op):
    w, op, (rc, out, err) = one_op["calibrate"]
    lines = out.splitlines()
    frozen = next(i for i, line in enumerate(lines) if line.startswith("  orientation=ccw; arrow_rule=forward_plus"))
    dropped = "\n".join(lines[:frozen] + lines[frozen + 1:])
    failed, problems = w.check(op, (rc, dropped, err))
    assert failed == op.weight and any("frozen" in p for p in problems)


def test_calibrate_survivor_with_wrong_triangle_is_rejected(one_op):
    w, op, (rc, out, err) = one_op["calibrate"]
    # Reversing one arrow of the last survivor's triangle breaks 1, 5, 14.
    head, _, last = out.rstrip("\n").rpartition("\n")
    start = last.index("triangle=[") + len("triangle=[")
    first = last[start:].split(",")[0]
    t, h = first.split(">")
    broken = last[:start] + f"{h}>{t}" + last[start + len(first):]
    failed, problems = w.check(op, (rc, head + "\n" + broken + "\n", err))
    assert failed == op.weight and any("braid counts" in p for p in problems)


def test_walk_replay_that_differs_is_rejected(one_op):
    w, op, (d, log, (rc, out, err)) = one_op["walk-large"]
    flipped = out.replace(":+", ":-", 1)
    failed, problems = w.check(op, (d, log, (rc, flipped, err)))
    assert failed == op.weight and any("replay gave" in p for p in problems)


def test_walk_final_values_that_differ_are_rejected(one_op):
    w, op, (d, log, (rc, out, err)) = one_op["walk-large"]
    # One arrow sign flipped; the replay text matches the changed diagram,
    # so only the value check can reject it.
    t, h, s = d.arrows[0]
    changed = ArrowDiagram(n=d.n, arrows=((t, h, -s),) + d.arrows[1:])
    text = workloads.arrows_text(changed)
    failed, problems = w.check(op, (changed, log, (0, text + "\n", "")))
    assert failed == op.weight and any("final values" in p for p in problems)


def test_histogram_reference_agrees_with_oracle():
    formulas = builtin_formulas()
    cal = frozen_calibration()
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(0, 7)
        slots = list(range(1, 2 * n + 1))
        rng.shuffle(slots)
        d = ArrowDiagram(n=n, arrows=tuple(
            (slots[2 * i], slots[2 * i + 1], rng.choice((1, -1))) for i in range(n)))
        assert ref.histogram_values(formulas, d, cal.convention) == ref.oracle_values(
            formulas, d, cal.convention)
        assert ref.arrow_value(cal.triangle, d, cal.convention) == count_arrow_pattern_oracle(
            cal.triangle, d)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    runs = []
    for _ in range(2):
        done = _bench("--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: m["value"] for k, m in result["metrics"].items()
                     if m["unit"] in ("count", "calls/eval", "calls/move")})
    assert runs[0] == runs[1]
    assert runs[0]["moves.stale_sites"] == 0


def test_tree_without_sources_fails_cleanly(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calibrate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
