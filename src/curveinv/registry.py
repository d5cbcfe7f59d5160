"""Builtin formulas, triangle candidates, and convention calibration.

The six shipped formulas live in data/formulas.txt so the transcription can
be reviewed and diffed as text; this module only parses and serves them.
Calibration searches the finite convention space for configurations under
which all six formulas survive random tangency/triple-point walks and some
triangle candidate reproduces the closed 2-braid counts 1, 5, 14.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from importlib import resources
from itertools import product

from .counting import _evaluate
from .diagrams import (
    ArrowRule,
    Convention,
    CurveDiagram,
    Orientation,
    iter_diagram_records,
)
from .generators import gen_cabc, gen_torus
from .moves import random_site_balanced, value_changes, walk
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


def _data(name: str) -> str:
    return resources.files("curveinv").joinpath(f"data/{name}").read_text()


def parse_formula_file(text: str) -> list[Formula]:
    """Parse a formula file: one formula per line, blank and # lines
    skipped. Parse errors carry the line number within the file."""
    formulas = [
        parse_formula(line.strip(), line=lineno)
        for lineno, line in iter_diagram_records(text)
    ]
    if not formulas:
        raise ValueError("registry file holds no formulas")
    return formulas


@functools.cache
def _load() -> dict[str, Formula]:
    table = {f.name: f for f in parse_formula_file(_data("formulas.txt"))}
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

    @property
    def eval_mode(self) -> EvalMode:
        return self.convention.eval_mode


def format_calibration(cal: Calibration) -> str:
    conv = cal.convention
    return (
        f"orientation={conv.orientation.value};"
        f" arrow_rule={conv.arrow_rule.value};"
        f" eval_mode={conv.eval_mode.value};"
        f" triangle={serialize_pattern(cal.triangle)}"
    )


def parse_calibration(text: str) -> Calibration:
    fields: dict[str, str] = {}
    for _, line in iter_diagram_records(text):
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, _, value = chunk.partition("=")
            fields[key.strip()] = value.strip()
    try:
        conv = Convention(
            orientation=Orientation(fields["orientation"]),
            arrow_rule=ArrowRule(fields["arrow_rule"]),
            eval_mode=EvalMode(fields["eval_mode"]),
        )
        triangle = parse_pattern(fields["triangle"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad calibration text: {exc}") from exc
    return Calibration(convention=conv, triangle=triangle)


@functools.cache
def frozen_calibration() -> Calibration:
    """The packaged calibration every default evaluation runs under."""
    return parse_calibration(_data("calibration.cfg"))


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


def calibrate(
    seeds, trials: int, rng_seed, formulas=None
) -> CalibrationReport:
    """Search Convention x EvalMode x triangle candidates.

    A configuration survives when (a) every formula value is unchanged by
    each of `trials` random tangency/triple-point moves on every seed, and
    (b) its triangle candidate counts 1, 5, 14 on the 3-, 5-, 7-crossing
    closed 2-braids. Deterministic for fixed seeds/trials/rng_seed.
    """
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if formulas is None:
        formulas = builtin_formulas()
    braids = [gen_torus(k).diagram for k in (3, 5, 7)]
    survivors: list[Calibration] = []
    config_index = 0
    candidates = triangle_candidates()
    for orientation in (Orientation.CCW, Orientation.CW):
        # Arrow counts read only the orientation of a convention; the
        # candidates, as one-term formulas, are counted in one batch.
        counts = _evaluate(
            PatternKind.ARROW,
            tuple(Formula("", ((1, c),)) for c in candidates),
            braids,
            Convention(orientation),
            None,
        )
        reproduces = [row == (1, 5, 14) for row in zip(*counts)]
        for arrow_rule in (ArrowRule.FORWARD_PLUS, ArrowRule.FORWARD_MINUS):
            for mode in (EvalMode.CONSTRAINED, EvalMode.WEIGHTED):
                conv = Convention(orientation, arrow_rule, mode)
                for cand, ok in zip(candidates, reproduces):
                    config_index += 1
                    if ok and _invariance_holds(
                        formulas, seeds, trials, rng_seed, conv, config_index
                    ):
                        survivors.append(
                            Calibration(convention=conv, triangle=cand)
                        )
    return CalibrationReport(
        survivors=survivors,
        configurations=config_index,
        trials=trials,
        insufficient_evidence=trials == 0,
    )


def _invariance_holds(
    formulas, seeds, trials, rng_seed, conv, config_index
) -> bool:
    for si, seed in enumerate(seeds):
        d = seed.diagram if isinstance(seed, CurveDiagram) else seed
        rng = random.Random(f"{rng_seed}|{config_index}|{si}")
        # Kind-balanced sampling keeps the walk from growing without bound
        # over hundreds of moves; it stops one batch after a value changes.
        walked = (
            (after, None)
            for _, after in walk(d, rng, trials, random_site_balanced)
        )
        if any(value_changes(formulas, d, walked, conv)):
            return False
    return True
