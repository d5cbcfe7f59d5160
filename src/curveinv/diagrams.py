"""Based diagram data model: signed chords, directed arrows, text form.

Slots 1..2n sit on an oriented circle, numbered from the position right
after the base point. A signed chord diagram is a perfect matching of the
slots with a sign per chord; an arrow diagram is the directed variant with
a sign per arrow. Both have a stable one-line text form.

All types are immutable values; construction canonicalizes chord order so
equal diagrams compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import count, islice
from typing import NamedTuple

from .patterns import EvalMode, ParseError, _Cursor


class Orientation(Enum):
    CCW = "ccw"
    CW = "cw"


class ArrowRule(Enum):
    """How arrow direction turns into a chord sign.

    An arrow is "forward" when its tail comes before its head in base-point
    order. FORWARD_PLUS keeps the arrow sign on forward arrows and flips it
    on backward ones; FORWARD_MINUS is the opposite.
    """

    FORWARD_PLUS = "forward_plus"
    FORWARD_MINUS = "forward_minus"


@dataclass(frozen=True)
class Convention:
    """The finite set of reading conventions left open by the source figures.

    Fixed once by calibration and then frozen in configuration; nothing in
    the library silently picks a value.
    """

    orientation: Orientation = Orientation.CCW
    arrow_rule: ArrowRule = ArrowRule.FORWARD_PLUS
    eval_mode: EvalMode = EvalMode.WEIGHTED


class InvalidDiagramError(ValueError):
    """A diagram violating the perfect-matching invariants was refused."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class SignedChordDiagram:
    """Perfect matching of slots 1..2n, one sign per chord."""

    n: int
    chords: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        fixed = sorted(
            (min(a, b), max(a, b), s) for a, b, s in self.chords
        )
        object.__setattr__(self, "chords", tuple(fixed))


class SlotTable(NamedTuple):
    """Per-slot view of an arrow diagram, three tuples indexed 0..2n+1.

    partner[x] is the other end of the arrow at slot x, forward[x] whether
    that arrow's tail comes before its head, sign[x] its sign. Slots 0 and
    2n+1 are sentinels (partner -1, forward False, sign 0), so a lookup one
    step past either end reads as "no arrow here" without a bounds check.
    """

    partner: tuple[int, ...]
    forward: tuple[bool, ...]
    sign: tuple[int, ...]


@dataclass(frozen=True)
class ArrowDiagram:
    """Perfect matching of slots 1..2n by directed (tail, head, sign) arrows."""

    n: int
    arrows: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        fixed = sorted(self.arrows, key=lambda ar: (min(ar[0], ar[1]), ar))
        object.__setattr__(self, "arrows", tuple(fixed))

    @classmethod
    def _canonical(cls, n: int, arrows: tuple) -> ArrowDiagram:
        """A diagram of arrows already in canonical order, left unsorted."""
        d = object.__new__(cls)
        d.__dict__.update(n=n, arrows=arrows)
        return d

    @cached_property
    def slots(self) -> SlotTable:
        """The slot table of a valid diagram, built on first use and kept
        with this value; it takes no part in equality or hashing."""
        size = 2 * self.n + 2
        partner, forward, sign = [-1] * size, [False] * size, [0] * size
        for t, h, s in self.arrows:
            partner[t], partner[h] = h, t
            forward[t] = forward[h] = t < h
            sign[t] = sign[h] = s
        return SlotTable(tuple(partner), tuple(forward), tuple(sign))


@dataclass(frozen=True)
class CurveDiagram:
    """An arrow diagram plus construction metadata.

    rot and jplus are carried, never recomputed silently; provenance is
    always set by the generators.
    """

    diagram: ArrowDiagram
    rot: int | None = None
    jplus: int | None = None
    provenance: str = ""


Diagram = SignedChordDiagram | ArrowDiagram


def _items(d: Diagram) -> tuple[tuple[int, int, int], ...]:
    return d.chords if isinstance(d, SignedChordDiagram) else d.arrows


def validate(d: Diagram) -> list[str]:
    """Return every violated invariant (empty list means the diagram is ok).

    Violations are data, not failures: callers that must refuse invalid
    diagrams raise InvalidDiagramError with this list.
    """
    problems = []
    items = _items(d)
    noun = "chord" if isinstance(d, SignedChordDiagram) else "arrow"
    if d.n < 0:
        problems.append(f"negative {noun} count {d.n}")
        return problems
    if len(items) != d.n:
        problems.append(f"n={d.n} but {len(items)} {noun}s present")
    total = 2 * d.n
    seen: set[int] = set()
    reused: list[int] = []
    for idx, (a, b, s) in enumerate(items):
        if a == b:
            problems.append(f"{noun} {idx}: endpoints equal at slot {a}")
        if s not in (1, -1):
            problems.append(f"{noun} {idx}: bad sign {s!r}")
        for slot in (a, b):
            if not 1 <= slot <= total:
                problems.append(
                    f"{noun} {idx}: slot {slot} out of range 1..{total}"
                )
            elif slot in seen:
                reused.append(slot)
            else:
                seen.add(slot)
    for slot in sorted(set(reused)):
        problems.append(f"slot {slot} reused")
    # The claimed n can dwarf the input, so unused slots are counted, not
    # enumerated, and only the first ten are named.
    unused = total - len(seen)
    free = (slot for slot in count(1) if slot not in seen)
    named = list(islice(free, min(unused, 10)))
    problems.extend(f"slot {slot} unused" for slot in named)
    if unused > len(named):
        problems.append(f"{unused - len(named)} more slots unused")
    return problems


def parse_diagram(text: str, line: int = 1) -> Diagram:
    """Parse one diagram record.

    Grammar: ``kind ";" "n=" INT ";" item*`` with kind in {chords, arrows},
    chord items ``A-B:S`` and arrow items ``T>H:S``, whitespace between
    fields being any run of spaces. Raises ParseError with line/column on
    syntax errors and InvalidDiagramError when the matching is broken.
    """
    cur = _Cursor(text.rstrip("\n"), line)
    cur.skip_ws()
    kind = "chords" if cur.text.startswith("chords", cur.i) else "arrows"
    cur.eat_word(kind, "expected 'chords' or 'arrows'")
    cur.eat(";", "expected ';' after kind")
    cur.skip_ws()
    cur.eat_word("n=", "expected 'n='")
    n = cur.eat_int("expected chord count")
    cur.eat(";", "expected ';' after chord count")

    sep = "-" if kind == "chords" else ">"
    items: list[tuple[int, int, int]] = []
    cur.skip_ws()
    while not cur.at_end():
        a = cur.eat_int("expected slot number")
        cur.eat(sep, f"expected {sep!r} between endpoints")
        col = cur.i + 1
        b = cur.eat_int("expected slot number")
        cur.eat(":", "expected ':' before sign")
        s = cur.eat_sign()
        if a == b:
            raise ParseError(f"chord endpoints equal at slot {a}", line, col)
        items.append((a, b, s))
        cur.skip_ws()

    d: Diagram
    if kind == "chords":
        d = SignedChordDiagram(n=n, chords=tuple(items))
    else:
        d = ArrowDiagram(n=n, arrows=tuple(items))
    problems = validate(d)
    if problems:
        raise InvalidDiagramError(problems)
    return d


def serialize_diagram(d: Diagram) -> str:
    """Canonical one-line record; refuses invalid diagrams."""
    problems = validate(d)
    if problems:
        raise InvalidDiagramError(problems)
    if isinstance(d, SignedChordDiagram):
        kind, sep = "chords", "-"
    else:
        kind, sep = "arrows", ">"
    head = f"{kind}; n={d.n};"
    items = [
        f"{a}{sep}{b}:{'+' if s > 0 else '-'}" for a, b, s in _items(d)
    ]
    return head if not items else head + " " + " ".join(items)


def iter_diagram_records(text: str):
    """Yield (line_number, record) for each non-comment line of a file."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def arrows_to_chords(a: ArrowDiagram, conv: Convention) -> SignedChordDiagram:
    """Switch each arrow to a signed chord per the convention's arrow rule.

    The chord sign is a function of the arrow's direction relative to
    base-point order and of the arrow's own sign. On all-positive arrow
    diagrams (the ones plane curves produce) the map is a bijection onto
    signed diagrams; the arrow sign can be recovered by inverting the rule.
    """
    chords = []
    for t, h, s in a.arrows:
        keep = (t < h) == (conv.arrow_rule is ArrowRule.FORWARD_PLUS)
        chords.append((min(t, h), max(t, h), s if keep else -s))
    return SignedChordDiagram(n=a.n, chords=tuple(chords))
