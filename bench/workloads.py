"""The benchmark's workloads: inputs made from a seed, one round of
operations through curveinv's public entry points, and the output checks.

A workload exposes `ops` (one round; every run repeats whole rounds),
`run(op)` (the timed call into the program), `check(op, output)` (returns
the number of failed operations and the problems found) and `run_checks()`
(checks made once per run). Every reference is computed here, apart from
curveinv.counting: the oracle on small seeds, the sub-diagram histogram on
large diagrams, and closed forms.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from curveinv import cli, evaluate_all, moves
from curveinv.diagrams import ArrowDiagram
from curveinv.generators import gen_cabc, gen_torus
from curveinv.moves import INVARIANCE_KINDS, MoveKind
from curveinv.oracle import count_arrow_pattern_oracle
from curveinv.patterns import Pattern, PatternKind
from curveinv.registry import builtin_formulas, default_fuzz_seeds, frozen_calibration

import reference as ref

# Size of the large diagrams: acceptance criterion 8 budgets 200 chords.
LARGE_N = 200
# Growth walks end with this many kind-balanced steps, so deletes and R3
# moves are part of every large input, not only inserts.
MIXING_STEPS = 60


@dataclass
class Op:
    """One unit of a round. `weight` is how many operations it counts for."""

    label: str
    weight: int = 1
    data: dict = field(default_factory=dict)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """curveinv.cli.main in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def arrows_text(d: ArrowDiagram) -> str:
    items = " ".join(f"{t}>{h}:{'+' if s > 0 else '-'}" for t, h, s in d.arrows)
    return f"arrows; n={d.n};" + (" " + items if items else "")


def parse_arrows(text: str):
    """(n, sorted arrows) of one 'arrows; n=..; t>h:s ...' line, or None."""
    m = re.fullmatch(r"\s*arrows;\s*n=(\d+);((?:\s*\d+>\d+:[+-])*)\s*", text)
    if m is None:
        return None
    arrows = sorted(
        (int(t), int(h), 1 if s == "+" else -1)
        for t, h, s in re.findall(r"(\d+)>(\d+):([+-])", m.group(2))
    )
    return int(m.group(1)), arrows


def grow(d: ArrowDiagram, target: int, rng: random.Random) -> ArrowDiagram:
    """Invariance-preserving walk from a small diagram to exactly `target`
    chords: uniform inserts, then MIXING_STEPS kind-balanced steps, then
    inserts or deletes until the size is right."""
    if (target - d.n) % 2:
        raise ValueError("moves change n by 2; target parity must match")
    insert, delete = (MoveKind.IR2_INSERT,), (MoveKind.IR2_DELETE,)
    while d.n < target - MIXING_STEPS // 2:
        d = moves.apply_move(d, moves.random_site_balanced(d, rng, insert))
    for _ in range(MIXING_STEPS):
        d = moves.apply_move(d, moves.random_site_balanced(d, rng))
    while d.n != target:
        site = moves.random_site_balanced(d, rng, insert if d.n < target else delete)
        if site is None:
            raise RuntimeError("growth walk found no site to reach its size")
        d = moves.apply_move(d, site)
    return d


def _int_lines(outputs) -> tuple[list[int], list[str]]:
    values, problems = [], []
    for rc, out, err in outputs:
        try:
            values.append(int(out.strip()))
        except ValueError:
            problems.append(f"exit {rc}, output {out.strip()!r} {err.strip()!r}")
    return values, problems


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        cal = frozen_calibration()
        self.formulas = builtin_formulas()
        self.conv = cal.convention
        self.triangle = cal.triangle
        self.ops: list[Op] = []

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> tuple[int, list[str]]:
        raise NotImplementedError

    def run_checks(self) -> list[str]:
        return []

    def makeup(self) -> dict:
        return {op.label: {k: v for k, v in op.data.items() if k.startswith("info_")}
                for op in self.ops}


class EvalLarge(Workload):
    """One ~200-chord diagram through `curveinv eval`, once per builtin
    formula and once for the frozen triangle arrow formula."""

    name = "eval-large"

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(f"eval-large:{seed}")
        even = [gen_cabc(r, 1 + k, 1 + k) for r in (0, 2) for k in range(4)]
        odd = [gen_cabc(1, 1 + k, 1 + k) for k in range(4)]
        odd += [gen_torus(3), gen_torus(5)]
        self.formula_args = [f.name for f in self.formulas]
        self.formula_args.append(f"triangle := +{ref.pattern_text(self.triangle)}")
        for pool, target in ((even, LARGE_N), (odd, LARGE_N + 1)):
            seed_cd = rng.choice(pool)
            d = grow(seed_cd.diagram, target, rng)
            self.ops.append(Op(
                label=f"walked from {seed_cd.provenance}",
                data={
                    "text": arrows_text(d),
                    "six": ref.oracle_values(self.formulas, seed_cd.diagram, self.conv),
                    "triangle": ref.arrow_value(self.triangle, d, self.conv),
                    "rot": seed_cd.rot,
                    "jplus": seed_cd.jplus,
                    "info_seed": seed_cd.provenance,
                    "info_n": d.n,
                },
            ))
        torus = gen_torus(LARGE_N - 1)
        self.ops.append(Op(
            label=torus.provenance,
            data={
                "text": arrows_text(torus.diagram),
                "six": ref.histogram_values(self.formulas, torus.diagram, self.conv),
                "triangle": ref.torus_triangles(torus.diagram.n),
                "rot": None,
                "jplus": None,
                "info_seed": torus.provenance,
                "info_n": torus.diagram.n,
            },
        ))

    def run(self, op):
        return [call_cli(["eval", "--formula", f, "--code", op.data["text"]])
                for f in self.formula_args]

    def check(self, op, output):
        values, problems = _int_lines(output)
        if not problems:
            six, tri = tuple(values[:6]), values[6]
            if six != op.data["six"]:
                problems.append(f"values {six} != reference {op.data['six']}")
            if tri != op.data["triangle"]:
                problems.append(f"triangle {tri} != reference {op.data['triangle']}")
            rot, jplus = op.data["rot"], op.data["jplus"]
            if jplus is not None and 2 * six[0] != rot * rot - jplus:
                problems.append(f"2*I2_1={2 * six[0]} != rot^2-jplus={rot * rot - jplus}")
        return (op.weight if problems else 0), problems


class FuzzDefault(Workload):
    """`curveinv fuzz --seeds default --depth 20`; one operation is one
    seed x trial walk, so one call counts for 14 x TRIALS operations."""

    name = "fuzz-default"
    TRIALS = 20
    DEPTH = 20

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.seeds = default_fuzz_seeds()
        self.ops.append(Op(
            label=f"fuzz rng-seed {seed}",
            weight=len(self.seeds) * self.TRIALS,
            data={"argv": ["fuzz", "--seeds", "default", "--depth", str(self.DEPTH),
                           "--trials", str(self.TRIALS), "--rng-seed", str(seed)],
                  "info_walks": len(self.seeds) * self.TRIALS,
                  "info_depth": self.DEPTH},
        ))

    def run(self, op):
        return call_cli(op.data["argv"])

    def check(self, op, output):
        rc, out, err = output
        want = f"OK trials={self.TRIALS} depth={self.DEPTH} seeds={len(self.seeds)}"
        if rc == 0 and out.strip() == want:
            return 0, []
        found = len(re.findall(r"^violation seed=", out, re.M))
        failed = found if rc == 1 and found else op.weight
        return failed, [f"exit {rc}, {found} violation(s): {out.strip()[:200]!r} {err.strip()[:200]!r}"]

    def run_checks(self):
        problems = []
        for i, seed in enumerate(self.seeds):
            got = evaluate_all(self.formulas, seed.diagram, self.conv)
            want = ref.oracle_values(self.formulas, seed.diagram, self.conv)
            if got != want:
                problems.append(f"seed {i} ({seed.provenance}): {got} != oracle {want}")
        # With direct tangency enabled the same walks must break invariance;
        # a degenerate evaluator (say, all zeros) would pass the fuzz above.
        kinds = ",".join(k.value for k in INVARIANCE_KINDS)
        rc, out, _ = call_cli(["fuzz", "--seeds", "default", "--depth", str(self.DEPTH),
                               "--trials", "2", "--rng-seed", "0",
                               "--kinds", kinds + ",dR2_insert,dR2_delete"])
        if rc != 1 or "violation seed=" not in out:
            problems.append(f"negative control passed: exit {rc}, {out.strip()[:200]!r}")
        return problems


_SURVIVOR = re.compile(
    r"\s*orientation=(\w+); arrow_rule=(\w+); eval_mode=(\w+); triangle=\[([^\]]*)\]"
)


class Calibrate(Workload):
    """One full `curveinv calibrate` search over the 64 configurations."""

    name = "calibrate"
    TRIALS = 20

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.braids = [gen_torus(k).diagram for k in (3, 5, 7)]
        self.ops.append(Op(
            label=f"calibrate rng-seed {seed}",
            data={"argv": ["calibrate", "--trials", str(self.TRIALS), "--rng-seed", str(seed)],
                  "info_trials": self.TRIALS},
        ))
        conv = self.conv
        self.frozen = (conv.orientation.value, conv.arrow_rule.value, conv.eval_mode.value,
                       tuple(sorted(self.triangle.chords)))

    def run(self, op):
        return call_cli(op.data["argv"])

    def check(self, op, output):
        rc, out, err = output
        lines = out.splitlines()
        head = f"searched 64 configurations, {self.TRIALS} moves per seed"
        if rc != 0 or not lines or lines[0] != head:
            return op.weight, [f"exit {rc}, output {out[:200]!r} {err[:200]!r}"]
        survivors = []
        problems = []
        for line in lines[1:]:
            m = _SURVIVOR.fullmatch(line)
            if m is None:
                continue
            items = []
            for item in m.group(4).split(","):
                arrow, _, sign = item.partition(":")
                t, h = arrow.split(">")
                items.append((int(t), int(h), {"+": 1, "-": -1}.get(sign, 0)))
            survivors.append(m.groups()[:3] + (tuple(sorted(items)),))
            top = 7 if m.group(1) == "cw" else None
            pattern = Pattern(k=3, kind=PatternKind.ARROW, chords=tuple(
                (top - t, top - h, c) if top else (t, h, c) for t, h, c in items))
            counts = [count_arrow_pattern_oracle(pattern, b) for b in self.braids]
            if counts != [1, 5, 14]:
                problems.append(f"survivor {line.strip()!r}: braid counts {counts}")
        if not survivors:
            problems.append("no surviving configuration")
        elif self.frozen not in survivors:
            problems.append(f"frozen calibration {self.frozen} not among survivors")
        return (op.weight if problems else 0), problems


class WalkLarge(Workload):
    """A kind-balanced walk of STEPS moves on a ~200-chord diagram with the
    public random_site_balanced and apply_move, then `curveinv replay` of
    its log."""

    name = "walk-large"
    STEPS = 200

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        rng = random.Random(f"walk-large:{seed}")
        even = [gen_cabc(r, 1 + k, 1 + k) for r in (0, 2) for k in range(4)]
        family = gen_cabc(0, LARGE_N // 4, LARGE_N // 4)
        self.family_values = ref.histogram_values(self.formulas, family.diagram, self.conv)
        # Two walks from the family member, rich in R3 sites, and two from
        # insert-grown diagrams, poorer in them.
        starts = [(family.provenance, family.diagram, self.family_values)] * 2
        for _ in range(2):
            seed_cd = rng.choice(even)
            starts.append((f"grown from {seed_cd.provenance}",
                           grow(seed_cd.diagram, LARGE_N, rng),
                           ref.oracle_values(self.formulas, seed_cd.diagram, self.conv)))
        for i, (label, d, values) in enumerate(starts):
            self.ops.append(Op(label=f"walk {i} on {label}", data={
                "start": d,
                "text": arrows_text(d),
                "rng": f"walk-large:{seed}:{i}",
                "log": work_dir / f"walk-{i}.log",
                "values": values,
                "info_n": d.n,
                "info_steps": self.STEPS,
            }))
        self._values_of: dict[str, tuple[int, ...]] = {}

    def run(self, op):
        d = op.data["start"]
        rng = random.Random(op.data["rng"])
        log = []
        for _ in range(self.STEPS):
            site = moves.random_site_balanced(d, rng)
            if site is None:
                break
            log.append(site.format())
            d = moves.apply_move(d, site)
        op.data["log"].write_text("\n".join(log) + "\n")
        replayed = call_cli(["replay", "--code", op.data["text"], "--log", str(op.data["log"])])
        return d, log, replayed

    def check(self, op, output):
        d, log, (rc, out, err) = output
        problems = []
        if len(log) != self.STEPS:
            problems.append(f"walk stopped after {len(log)} of {self.STEPS} steps")
        got = parse_arrows(out.strip()) if rc == 0 else None
        if got != (d.n, sorted(d.arrows)):
            problems.append(f"replay gave {out.strip()[:120]!r} (exit {rc}, {err.strip()[:120]!r}),"
                            f" walk ended at {arrows_text(d)[:120]!r}")
        text = arrows_text(d)
        if text not in self._values_of:
            self._values_of[text] = ref.histogram_values(self.formulas, d, self.conv)
        if self._values_of[text] != op.data["values"]:
            problems.append(f"final values {self._values_of[text]} != start {op.data['values']}")
        kinds = [line.split()[0] for line in log]
        op.data.update({f"info_{k}": kinds.count(k) for k in ("iR2_insert", "iR2_delete", "R3")})
        return (op.weight if problems else 0), problems

    def run_checks(self):
        family = gen_cabc(0, LARGE_N // 4, LARGE_N // 4)
        i21 = self.family_values[0]
        want = family.rot ** 2 - family.jplus
        return [] if 2 * i21 == want else [f"cabc start: 2*I2_1={2 * i21} != {want}"]


WORKLOADS = {w.name: w for w in (EvalLarge, FuzzDefault, Calibrate, WalkLarge)}
