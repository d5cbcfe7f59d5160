#!/usr/bin/env python3
"""curveinv benchmark: end-to-end throughput, set-up time and memory per
workload, or per-layer spans with --trace 1.

    python3 bench/run.py --workload eval-large --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --quick

Runs from the repository root or anywhere else; the program is imported
from the `src` directory next to this one, in this process. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Raw results (round times, set-up times, input make-up, problems) and, for
traced runs, the spans go to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Set-up samples per run, at least; one is also taken after every timed
# round, so the samples spread over the whole run like the rounds do.
SETUP_SAMPLES = 15
# Traced runs alternate this many untraced and traced rounds after the
# timed loop; per-layer figures are per traced round.
TRACED_ROUNDS = 3
WORKLOAD_NAMES = ("eval-large", "fuzz-default", "calibrate", "walk-large")


def _program_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == "curveinv" or k.startswith("curveinv.")}


def load_program(tracer=None) -> float:
    """First import of curveinv and its CLI, and load of its formulas and
    calibration.

    Returns the seconds taken, which include importing numpy. With a tracer,
    the loads are recorded as spans.
    """
    start = time.perf_counter()
    importlib.import_module("curveinv.cli")
    registry = importlib.import_module("curveinv.registry")
    if tracer is not None:
        tracer.install()
    try:
        registry.builtin_formulas()
        registry.frozen_calibration()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start


def setup_sample() -> float:
    """Seconds to import curveinv afresh and load its formulas and calibration.

    Every curveinv module is dropped and imported again; afterwards the
    modules the benchmark runs on are put back, so the sample leaves no
    trace. Third-party modules (numpy) stay loaded, since an extension
    module cannot be unloaded: the sample is the program's own import and
    data loading.
    """
    kept = _program_modules()
    for key in kept:
        del sys.modules[key]
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("curveinv.cli")
    registry = importlib.import_module("curveinv.registry")
    registry.builtin_formulas()
    registry.frozen_calibration()
    elapsed = time.perf_counter() - start
    for key in _program_modules():
        del sys.modules[key]
    sys.modules.update(kept)
    return elapsed


@dataclass
class Crash:
    """The program raised instead of returning; the operation failed."""

    error: str


def _run_op(workload, op):
    try:
        return workload.run(op)
    except (Exception, SystemExit) as exc:
        return Crash(f"{type(exc).__name__}: {exc}")


def run_round(workload) -> tuple[list, float]:
    gc.collect()
    start = time.perf_counter()
    outputs = [_run_op(workload, op) for op in workload.ops]
    return outputs, time.perf_counter() - start


def check_outputs(workload, rounds) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every round.

    An operation that raised counts as failed. One whose output fails its
    check counts as failed and is also a problem, which makes the run
    incorrect.
    """
    attempted = failed = 0
    problems, crashes = [], []
    for outputs in rounds:
        for op, out in zip(workload.ops, outputs):
            attempted += op.weight
            if isinstance(out, Crash):
                failed += op.weight
                crashes.append(f"{op.label}: {out.error}")
                continue
            bad, found = workload.check(op, out)
            failed += bad
            problems.extend(f"{op.label}: {p}" for p in found)
    problems.extend(workload.run_checks())
    for text in sorted(set(crashes)):
        print(f"failed: {text}", file=sys.stderr)
    return attempted, failed, problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import LAYER_METRICS, Tracer, dump_spans, layer_metrics

    tracer = Tracer() if trace else None
    cold_setup = load_program(tracer)
    import workloads

    work_dir = RESULTS / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, work_dir)
    weight = sum(op.weight for op in workload.ops)

    rounds = [run_round(workload)[0]]  # warm-up: lazy set-up, caches
    round_times, setup_times = [], []
    begin = time.perf_counter()
    while not round_times or time.perf_counter() - begin < seconds:
        outputs, elapsed = run_round(workload)
        rounds.append(outputs)
        round_times.append(elapsed)
        setup_times.append(setup_sample())
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_sample())
    ops_per_s = weight * len(round_times) / sum(round_times)

    layer, missing, paired = {}, [], []
    if tracer is not None:
        load_spans, tracer.spans = tracer.spans, []
        for _ in range(TRACED_ROUNDS):
            outputs, untraced = run_round(workload)
            rounds.append(outputs)
            tracer.install()
            try:
                outputs, traced = run_round(workload)
            finally:
                tracer.uninstall()
            rounds.append(outputs)
            paired.append((weight / untraced, weight / traced))
        layer, missing = layer_metrics(tracer.spans, tracer.missing)
        for key, (unit, _) in LAYER_METRICS.items():
            if key in layer and unit in ("s", "count"):
                layer[key] /= TRACED_ROUNDS
        if "registry.load_s" in layer:
            layer["registry.load_s"] = layer_metrics(load_spans)[0]["registry.load_s"]
        RESULTS.mkdir(parents=True, exist_ok=True)
        (RESULTS / f"spans-{name}-seed{seed}.json").write_text(json.dumps(
            {"setup": dump_spans(load_spans), "traced_rounds": dump_spans(tracer.spans)}))

    attempted, failed, problems = check_outputs(workload, rounds)
    peak = _peak_rss_mb()

    if trace:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in layer.items()}
        untraced = statistics.median(u for u, _ in paired)
        traced = statistics.median(t for _, t in paired)
        metrics["trace.untraced_ops_per_s"] = {"value": untraced, "unit": "1/s"}
        metrics["trace.traced_ops_per_s"] = {"value": traced, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (untraced - traced) / untraced, "unit": "%"}
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    raw = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops_per_round": weight, "round_times": round_times,
        "setup_times": setup_times, "cold_setup_s": cold_setup,
        "peak_rss_mb": peak, "makeup": workload.makeup(), "missing": missing,
        "problems": problems[:50], "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(raw, indent=1, default=str))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    for m in missing:
        print(f"missing: {m} (its target is gone from curveinv)")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def quick(seed: int) -> int:
    """One operation of each workload, with every check; exit status 0 if all pass."""
    importlib.import_module("curveinv")
    import workloads

    work_dir = RESULTS / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for name in WORKLOAD_NAMES:
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, work_dir)
        op = workload.ops[0]
        failed, problems = workload.check(op, workload.run(op))
        problems += workload.run_checks()
        verdict = "PASS" if not problems and not failed else "FAIL"
        status |= verdict == "FAIL"
        print(f"{name}: {verdict} ({op.label}, {time.perf_counter() - start:.1f}s)")
        for p in problems:
            print(f"  {p}")
    return status


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one operation of each workload with all checks")
    args = p.parse_args(argv)
    if not args.quick and args.workload is None:
        p.error("--workload is required unless --quick is given")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "curveinv" / "__init__.py").is_file():
        print(f"error: curveinv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.quick:
        return quick(args.seed)
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
