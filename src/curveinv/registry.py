"""Builtin formulas, triangle candidates, and convention calibration.

The six shipped formulas live in data/formulas.txt so the transcription can
be reviewed and diffed as text; this module only parses and serves them.
Calibration searches the finite convention space for configurations under
which all six formulas survive random tangency/triple-point walks and some
triangle candidate reproduces the closed 2-braid counts 1, 5, 14. No walk
reads a convention, so one walk per seed judges every convention at once.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from importlib import resources
from itertools import islice, product

from .counting import evaluate_many
from .diagrams import (
    ArrowRule,
    Convention,
    CurveDiagram,
    Orientation,
    iter_diagram_records,
)
from .generators import gen_cabc, gen_torus
from .moves import random_site_balanced, require_chords, value_changes, walk
from .patterns import (
    ANY,
    EvalMode,
    Formula,
    Pattern,
    PatternKind,
    parse_formula,
    parse_pattern,
    serialize_pattern,
)

FORMULA_NAMES = ("I2_1", "I3_1", "I3_2", "I3_3", "I3_4", "I3_5")

# Alternate namings accepted everywhere a formula name is.
ALIASES = {
    "I_{2,1}": "I2_1",
    "I_{3,1}": "I3_1",
    "I_{3,2}": "I3_2",
    "I_{3,3}": "I3_3",
    "I_{3,4}": "I3_4",
    "I_{3,5}": "I3_5",
    "I_{2,3,1}": "I3_1",
    "I_{2,3,2}": "I3_2",
    "I_{2,3,3}": "I3_3",
    "I_{2,3,4}": "I3_4",
    "I_{2,3,5}": "I3_5",
}


def parse_formula_file(text: str) -> list[Formula]:
    """Parse a formula file: one formula per line, blank and # lines
    skipped. Parse errors carry the line and column within the file."""
    formulas = [
        parse_formula(line, line=lineno)
        for lineno, line in iter_diagram_records(text)
    ]
    if not formulas:
        raise ValueError("registry file holds no formulas")
    return formulas


@functools.cache
def _load() -> dict[str, Formula]:
    text = resources.files("curveinv").joinpath("data/formulas.txt").read_text()
    table = {f.name: f for f in parse_formula_file(text)}
    assert tuple(table) == FORMULA_NAMES
    return table


def builtin_formulas() -> tuple[Formula, ...]:
    table = _load()
    return tuple(table[name] for name in FORMULA_NAMES)


def builtin_formula(name: str) -> Formula:
    table = _load()
    resolved = ALIASES.get(name, name)
    if resolved not in table:
        raise KeyError(f"unknown formula name: {name}")
    return table[resolved]


def builtin_chord_patterns() -> tuple[Pattern, ...]:
    """Every distinct pattern appearing in the builtin formulas."""
    terms = (p for f in builtin_formulas() for _, p in f.terms)
    return tuple(dict.fromkeys(terms))


def triangle_candidates() -> tuple[Pattern, ...]:
    """The 8 direction choices over the fully crossed 3-arrow matching."""
    base = ((1, 4), (2, 5), (3, 6))
    out = []
    for flips in product((False, True), repeat=3):
        chords = tuple(
            (b, a, ANY) if flip else (a, b, ANY)
            for (a, b), flip in zip(base, flips)
        )
        out.append(Pattern(k=3, kind=PatternKind.ARROW, chords=chords))
    return tuple(out)


def default_fuzz_seeds() -> list[CurveDiagram]:
    """The stock invariance seed set: the r<=2, k<=3 family grid slice plus
    the two smallest closed 2-braids."""
    seeds = [
        gen_cabc(r, 1 + k, 1 + k) for r in range(3) for k in range(4)
    ]
    seeds.append(gen_torus(3))
    seeds.append(gen_torus(5))
    return seeds


@dataclass(frozen=True)
class Calibration:
    convention: Convention
    triangle: Pattern


def format_calibration(cal: Calibration) -> str:
    conv = cal.convention
    return (
        f"orientation={conv.orientation.value};"
        f" arrow_rule={conv.arrow_rule.value};"
        f" eval_mode={conv.eval_mode.value};"
        f" triangle={serialize_pattern(cal.triangle)}"
    )


@functools.cache
def frozen_calibration() -> Calibration:
    """The calibration every default evaluation runs under: Convention's
    defaults and the triangle candidate [1>4,5>2,3>6]. It is the first
    survivor, in canonical search order, of calibrate over cabc(1,1,1),
    cabc(2,1,1) and torus(3) at 200 trials."""
    return Calibration(Convention(), parse_pattern("[1>4,5>2,3>6]"))


@dataclass
class CalibrationReport:
    survivors: list[Calibration]
    configurations: int
    trials: int
    insufficient_evidence: bool

    def format(self) -> str:
        lines = [
            f"searched {self.configurations} configurations,"
            f" {self.trials} moves per seed"
        ]
        if self.insufficient_evidence:
            lines.append(
                "insufficient evidence: zero moves leaves the invariance"
                " criterion vacuous"
            )
        if not self.survivors:
            lines.append("no surviving configuration")
        else:
            lines.append(f"{len(self.survivors)} surviving configuration(s):")
            lines.extend("  " + format_calibration(s) for s in self.survivors)
        return "\n".join(lines)


# Steps of a seed's walk held and scanned at a time: memory stays one chunk
# whatever `trials` is, and a walk ends within a chunk of its last drop.
_CHUNK = 64


def calibrate(
    seeds, trials: int, rng_seed, formulas=None
) -> CalibrationReport:
    """Search Convention x EvalMode x triangle candidates.

    A configuration survives when (a) every formula value is unchanged by
    each of `trials` random tangency/triple-point moves on every seed, and
    (b) its triangle candidate counts 1, 5, 14 on the 3-, 5-, 7-crossing
    closed 2-braids. (b) reads only the orientation: one batched count
    each. (a) reads only the convention, and no walk reads one: seed i is
    walked once, on stream f"{rng_seed}|{i}", judging each convention with
    a passing candidate until its first value change, and its walk stops
    once none holds. Deterministic for fixed seeds/trials/rng_seed.
    """
    seeds = [s.diagram if isinstance(s, CurveDiagram) else s for s in seeds]
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if formulas is None:
        formulas = builtin_formulas()
    require_chords(formulas)
    braids = [gen_torus(k).diagram for k in (3, 5, 7)]
    candidates = triangle_candidates()
    # The candidates, as one-term formulas, are counted in one batch.
    gate = [Formula("", ((1, c),)) for c in candidates]
    passing = {}  # orientation -> indices of the candidates passing (b)
    for orientation in Orientation:
        counts = evaluate_many(gate, braids, Convention(orientation))
        passing[orientation] = [
            j for j, row in enumerate(zip(*counts)) if row == (1, 5, 14)
        ]
    conventions = list(product(Orientation, ArrowRule, EvalMode))
    holding = [Convention(*c) for c in conventions if passing[c[0]]]
    for si, d in enumerate(seeds):
        walked = walk(d, random.Random(f"{rng_seed}|{si}"), trials,
                      random_site_balanced)
        while holding and (chunk := list(islice(walked, _CHUNK))):
            holding = [c for c in holding
                       if not any(value_changes(formulas, d, chunk, c))]
    survivors = [Calibration(c, candidates[j])
                 for c in holding for j in passing[c.orientation]]
    return CalibrationReport(survivors, len(conventions) * len(candidates),
                             trials, insufficient_evidence=trials == 0)
