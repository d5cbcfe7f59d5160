"""Pattern and formula DSL: parsing, printing, validation.

A pattern is a based template: a perfect matching of slots 1..2k in which
every chord may carry a sign constraint. Chord patterns use undirected
endpoints ("1-3", optionally ":+"/":-"); arrow patterns use directed
tail>head endpoints ("1>3"). A formula is a signed integer combination of
patterns of a single kind.

Text forms are stable: parse followed by serialize canonicalizes, and
serializing an already canonical string round-trips byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

# Sign-constraint wildcard: the chord matches either sign.
ANY = 0


class PatternKind(Enum):
    CHORD = "chord"
    ARROW = "arrow"


class EvalMode(Enum):
    """Counting semantics for sign data.

    CONSTRAINED: sign labels filter embeddings; every embedding weighs 1.
    WEIGHTED: sign labels filter embeddings; every embedding weighs the
        product of the signs of all matched diagram chords.
    """

    CONSTRAINED = "constrained"
    WEIGHTED = "weighted"


class ParseError(ValueError):
    """Rejected textual input, with position data for diagnostics."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Pattern:
    """Based sub-diagram template on slots 1..2k.

    ``chords`` holds ``(a, b, constraint)`` triples. For CHORD kind the
    endpoints are stored with a < b; for ARROW kind they are (tail, head)
    and order is meaningful. ``constraint`` is +1, -1, or ANY. The chord
    list is kept sorted by smaller endpoint, which makes equal patterns
    compare equal.
    """

    k: int
    kind: PatternKind
    chords: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        fixed = []
        for a, b, c in self.chords:
            if self.kind is PatternKind.CHORD and a > b:
                a, b = b, a
            fixed.append((a, b, c))
        fixed.sort(key=lambda ch: min(ch[0], ch[1]))
        object.__setattr__(self, "chords", tuple(fixed))


@dataclass(frozen=True)
class Formula:
    """Named signed combination of same-kind patterns, in source order."""

    name: str
    terms: tuple[tuple[int, Pattern], ...]

    @property
    def kind(self) -> PatternKind:
        return self.terms[0][1].kind


def pattern_violations(p: Pattern) -> list[str]:
    """Return every violated pattern invariant (empty list means valid)."""
    problems = []
    if p.k < 1:
        problems.append("pattern must have at least one chord")
    if len(p.chords) != p.k:
        problems.append(f"expected {p.k} chords, found {len(p.chords)}")
    want = set(range(1, 2 * p.k + 1))
    seen: set[int] = set()
    for a, b, c in p.chords:
        if a == b:
            problems.append(f"chord endpoints equal at slot {a}")
        for slot in (a, b):
            if slot in seen:
                problems.append(f"slot {slot} reused")
            seen.add(slot)
        if c not in (ANY, 1, -1):
            problems.append(f"bad sign constraint {c!r}")
    for slot in sorted(seen - want):
        problems.append(f"slot {slot} out of range 1..{2 * p.k}")
    for slot in sorted(want - seen):
        problems.append(f"slot {slot} unused")
    return problems


_INT_RE = re.compile("[0-9]+")
_SPACES_RE = re.compile(" *")
_NAME_RE = re.compile("[A-Za-z_][A-Za-z0-9_]*")


class _Cursor:
    """Single-line scanner with 1-based column reporting."""

    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.i = 0
        self.line = line

    def fail(self, message: str):
        raise ParseError(message, self.line, self.i + 1)

    def peek(self) -> str:
        return self.text[self.i:self.i + 1]

    def skip_ws(self):
        self.i = _SPACES_RE.match(self.text, self.i).end()

    def eat(self, chars: str, message: str | None = None) -> str:
        """Consume and return one character out of `chars`."""
        ch = self.text[self.i:self.i + 1]
        # ch is "" at the end of input, and "" is in every string.
        if not ch or ch not in chars:
            self.fail(message or f"expected {chars!r}")
        self.i += 1
        return ch

    def eat_word(self, word: str, message: str):
        if not self.text.startswith(word, self.i):
            self.fail(message)
        self.i += len(word)

    def eat_int(self, message: str = "expected integer") -> int:
        m = _INT_RE.match(self.text, self.i)
        if not m:
            self.fail(message)
        self.i = m.end()
        return int(m.group())

    def eat_sign(self) -> int:
        return 1 if self.eat("+-", "expected sign '+' or '-'") == "+" else -1

    def at_end(self) -> bool:
        return self.i >= len(self.text)


def _parse_pattern_body(cur: _Cursor) -> Pattern:
    """Parse '[item,item,...]' starting at the opening bracket."""
    start = cur.i
    cur.eat("[")
    if cur.peek() == "]":
        cur.fail("empty pattern")
    items: list[tuple[int, int, int]] = []
    kind: PatternKind | None = None
    while True:
        a = cur.eat_int()
        sep = cur.eat("->", "expected '-' or '>' between endpoints")
        this_kind = PatternKind.CHORD if sep == "-" else PatternKind.ARROW
        if kind is None:
            kind = this_kind
        elif kind is not this_kind:
            cur.fail("mixed chord and arrow items in one pattern")
        b = cur.eat_int()
        constraint = ANY
        if cur.peek() == ":":
            cur.i += 1
            constraint = cur.eat_sign()
        if a == b:
            cur.fail(f"chord endpoints equal at slot {a}")
        items.append((a, b, constraint))
        if cur.peek() == ",":
            cur.i += 1
            cur.skip_ws()
            continue
        break
    cur.eat("]")
    assert kind is not None
    p = Pattern(k=len(items), kind=kind, chords=tuple(items))
    problems = pattern_violations(p)
    if problems:
        raise ParseError("; ".join(problems), cur.line, start + 1)
    return p


def parse_pattern(text: str, line: int = 1) -> Pattern:
    """Parse one bracketed pattern, e.g. "[1-3:-,2-4:+]" or "[1>4,5>2]"."""
    cur = _Cursor(text, line)
    cur.skip_ws()
    p = _parse_pattern_body(cur)
    cur.skip_ws()
    if not cur.at_end():
        cur.fail("trailing input after pattern")
    return p


def parse_formula(text: str, line: int = 1) -> Formula:
    """Parse 'NAME := term term ...' where term is '+'|'-' INT? '[...]'.

    The sign of the first term may be omitted (it defaults to +), matching
    inputs like "X := 2[1-2]". Coefficients must be nonzero; all terms must
    share one pattern kind.
    """
    cur = _Cursor(text.rstrip("\n"), line)
    cur.skip_ws()
    m = _NAME_RE.match(cur.text, cur.i)
    if not m:
        cur.fail("expected formula name")
    name = m.group()
    cur.i = m.end()
    cur.skip_ws()
    cur.eat_word(":=", "expected ':='")
    cur.skip_ws()
    terms: list[tuple[int, Pattern]] = []
    while not cur.at_end():
        sign = 1
        if cur.peek() in ("+", "-"):
            sign = cur.eat_sign()
        elif terms:
            cur.fail("expected sign '+' or '-' before term")
        mag = 1
        if cur.peek().isdigit():
            mag = cur.eat_int()
        if mag == 0:
            cur.fail("zero coefficient")
        p = _parse_pattern_body(cur)
        if terms and p.kind is not terms[0][1].kind:
            cur.fail("mixed chord and arrow patterns in one formula")
        terms.append((sign * mag, p))
        cur.skip_ws()
    if not terms:
        cur.fail("formula has no terms")
    return Formula(name=name, terms=tuple(terms))


def serialize_pattern(p: Pattern) -> str:
    problems = pattern_violations(p)
    if problems:
        raise ValueError("invalid pattern: " + "; ".join(problems))
    sep = "-" if p.kind is PatternKind.CHORD else ">"
    items = []
    for a, b, c in p.chords:
        suffix = "" if c == ANY else (":+" if c > 0 else ":-")
        items.append(f"{a}{sep}{b}{suffix}")
    return "[" + ",".join(items) + "]"


def serialize_formula(f: Formula) -> str:
    if not f.name:
        raise ValueError("formula name must be nonempty")
    if not f.terms:
        raise ValueError("formula must have at least one term")
    kinds = {p.kind for _, p in f.terms}
    if len(kinds) > 1:
        raise ValueError("mixed chord and arrow patterns in one formula")
    parts = []
    for coeff, p in f.terms:
        if coeff == 0:
            raise ValueError("zero coefficient")
        sign = "+" if coeff > 0 else "-"
        mag = "" if abs(coeff) == 1 else str(abs(coeff))
        parts.append(f"{sign}{mag}{serialize_pattern(p)}")
    return f"{f.name} := " + " ".join(parts)


def mirror_pattern(p: Pattern) -> Pattern:
    """Reflect a pattern across the base point (slot x -> 2k+1-x).

    This is how clockwise circle orientation is realized: the template is
    read mirrored while diagrams keep their labels.
    """
    m = 2 * p.k + 1
    return Pattern(
        k=p.k,
        kind=p.kind,
        chords=tuple((m - a, m - b, c) for a, b, c in p.chords),
    )


def mirror_formula(f: Formula) -> Formula:
    return Formula(f.name, tuple((c, mirror_pattern(p)) for c, p in f.terms))


def flip_signs(f: Formula, mode: EvalMode) -> Formula:
    """The formula that reads on a diagram, in this mode, what f reads on
    it with every sign negated.

    Each sign constraint flips; in weighted mode a match weighs the
    product of its k negated signs, so a degree-k coefficient takes the
    factor (-1)^k. This is how the FORWARD_MINUS arrow rule is realized
    on arrow diagrams: it negates every sign FORWARD_PLUS gives.
    """
    weighted = mode is EvalMode.WEIGHTED
    return Formula(f.name, tuple(
        (-c if weighted and p.k % 2 else c,
         Pattern(p.k, p.kind, tuple((a, b, -s) for a, b, s in p.chords)))
        for c, p in f.terms
    ))
