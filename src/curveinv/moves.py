"""Tangency and triple-point rewriting on based arrow diagrams.

Inverse-tangency inserts add a nested arrow pair with opposite directions;
the direct-tangency variant (the negative control) adds a crossed pair.
Nested against crossed is one mate step (_MATE_STEP), read by inserts and
deletes alike. Triple-point moves swap the contents of three adjacent slot
pairs joined pairwise by three arrows; nR3, the other negative control,
takes the triples whose decoration no plane curve produces. Which triples
plane curves give is two parity checks on the arrows' slots and
directions (_r3_kind), not a table. All slot relabeling is
order-preserving, so an insert followed by its delete restores the
original diagram exactly, and a triple-point move is its own inverse.

The base point sits between the top slot and slot 1 and is never crossed:
arcs are indexed 0..2n, where arc g lies between slot g and slot g+1 (arc 0
starts at the base point, arc 2n ends at it).

Site finders and applies read partners, directions and signs from the
diagram's slot table (ArrowDiagram.slots), built at most once per diagram.
Delete scans are one pass over that table. Applies build their arrows in
canonical order (each arrow's lower end ascending), skipping the sort the
public ArrowDiagram constructor still does.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain, count, tee

from .counting import _evaluate
from .diagrams import ArrowDiagram, Convention, CurveDiagram, serialize_diagram
from .patterns import _INT_RE, PatternKind


class MoveKind(Enum):
    IR2_INSERT = "iR2_insert"
    IR2_DELETE = "iR2_delete"
    R3 = "R3"
    DR2_INSERT = "dR2_insert"
    DR2_DELETE = "dR2_delete"
    NR3 = "nR3"


class Variant(Enum):
    UP = "up"
    DOWN = "down"


# Canonical kind order (definition order); site sampling and logs follow it.
KIND_ORDER = tuple(MoveKind)

INVARIANCE_KINDS = (MoveKind.IR2_INSERT, MoveKind.IR2_DELETE, MoveKind.R3)

_INSERT_KINDS = (MoveKind.IR2_INSERT, MoveKind.DR2_INSERT)
_DELETE_KINDS = (MoveKind.IR2_DELETE, MoveKind.DR2_DELETE)
_VARIANTS = tuple(Variant)  # insert-site order: up before down

STOPPED_EARLY = "# stopped early: no applicable sites"


class StaleSiteError(ValueError):
    """Site does not apply to the diagram it was handed."""


@dataclass(frozen=True)
class MoveSite:
    """One applicable move.

    data layout (field types in _FIELDS): inserts (arc1, arc2, Variant)
    with arc1 <= arc2; deletes (p,) with p the smaller slot of the first
    arrow of the pair; triple points (p, q, r), the starts of the three
    swapped slot pairs.
    """

    kind: MoveKind
    data: tuple

    def format(self) -> str:
        parts = [self.kind.value]
        for x in self.data:
            parts.append(x.value if isinstance(x, Variant) else str(x))
        return " ".join(parts)


# The one schema of MoveSite.data: field types per kind. Move lines are
# parsed with these types, ints from ASCII digits only; apply_move refuses
# data that does not match them exactly (so True is not slot 1).
_FIELDS: dict[MoveKind, tuple[type, ...]] = {
    MoveKind.IR2_INSERT: (int, int, Variant),
    MoveKind.IR2_DELETE: (int,),
    MoveKind.R3: (int, int, int),
    MoveKind.DR2_INSERT: (int, int, Variant),
    MoveKind.DR2_DELETE: (int,),
    MoveKind.NR3: (int, int, int),
}


def parse_move_line(text: str) -> MoveSite:
    # Fields are separated by ASCII spaces only, as in the text grammar.
    parts = [x for x in text.split(" ") if x]
    try:
        kind = MoveKind(parts[0])
        fields, args = _FIELDS[kind], parts[1:]
        if len(args) != len(fields) or not all(
            f is not int or _INT_RE.fullmatch(x) for f, x in zip(fields, args)
        ):
            raise ValueError
        data = tuple(f(x) for f, x in zip(fields, args))
    except (IndexError, ValueError):
        raise ValueError(f"bad move line: {text!r}") from None
    return MoveSite(kind, data)


def _r3_kind(d: ArrowDiagram, p, q, r) -> MoveKind | None:
    """The triple-point kind, R3 or nR3, of slot pairs (p, p+1), (q, q+1),
    (r, r+1); None unless they lie in order inside 1..2n and are joined
    pairwise by three arrows.

    The shape is three slot choices: a, whether the p-q arrow leaves slot
    p+1; b, whether it enters q+1; c, whether the p-r arrow enters r+1. The
    decoration is three directions: pq, pr, qr, whether each arrow points
    from its lower pair to its higher one. Plane curves give exactly the
    16 of these 64 triples with pq ^ pr == b ^ c and pr ^ qr == a ^ b.
    """
    if not (1 <= p and p + 2 <= q and q + 2 <= r and r < 2 * d.n):
        return None
    partner, forward, _ = d.slots
    a = not q <= partner[p] <= q + 1
    b = partner[p + a] == q + 1
    c = partner[p + 1 - a] == r + 1
    if not (
        q <= partner[p + a] <= q + 1
        and r <= partner[p + 1 - a] <= r + 1
        and partner[q + 1 - b] == r + 1 - c
    ):
        return None
    pq, pr, qr = forward[p + a], forward[p + 1 - a], forward[q + 1 - b]
    if pq ^ pr == b ^ c and pr ^ qr == a ^ b:
        return MoveKind.R3
    return MoveKind.NR3


def _r3_sites(d: ArrowDiagram, kind: MoveKind) -> list[MoveSite]:
    """Every triple-point site of the kind once, in (p, q, r) order.

    A site is found from its first slot pair (p, p+1): both arrows there
    lead right, the nearer one into the pair at q and the farther one into
    the pair at r, and the other slots of those two pairs are joined.
    """
    m = 2 * d.n
    partner = d.slots.partner
    sites = []
    for p in range(1, m):
        a, b = partner[p], partner[p + 1]
        x, y = (a, b) if a < b else (b, a)
        if x <= p + 1:
            continue
        for q in (x - 1, x):
            for r in (y - 1, y):
                if q < p + 2 or r < q + 2 or r >= m:
                    continue
                # 2q+1-x is the slot of pair q that x is not; same for r.
                if partner[2 * q + 1 - x] != 2 * r + 1 - y:
                    continue
                if _r3_kind(d, p, q, r) is kind:
                    sites.append(MoveSite(kind, (p, q, r)))
    return sites


# The one statement of nested against crossed: where the mate of a tangency
# pair ends, relative to the upper end q of the arrow from the pair's first
# slot, just inside it (iR2, nested) or just past it (dR2, crossed).
_MATE_STEP = {
    MoveKind.IR2_INSERT: -1, MoveKind.IR2_DELETE: -1,
    MoveKind.DR2_INSERT: 1, MoveKind.DR2_DELETE: 1,
}


def _delete_slots(d: ArrowDiagram, kind: MoveKind, p: int) -> list[int]:
    """The four slots, ascending, of the deletable pair of the given kind
    that starts at slot p (in 1..2n), or [] if there is none. The pair is a
    positive arrow from p and its mate, the positive arrow at p+1 with the
    opposite direction, nested inside it (iR2) or crossing it (dR2)."""
    partner, forward, sign = d.slots
    q = partner[p]
    mate = q + _MATE_STEP[kind]
    if (
        q > p + 1
        and partner[p + 1] == mate
        and sign[p] == sign[p + 1] == 1
        and forward[p] != forward[p + 1]
    ):
        return sorted((p, p + 1, q, mate))
    return []


def insert_site_count(d: ArrowDiagram) -> int:
    """Number of insert sites of one insert kind: arc pairs times variants."""
    arcs = 2 * d.n + 1
    return arcs * (arcs + 1)


def _unrank_insert(kind: MoveKind, d: ArrowDiagram, index: int) -> MoveSite:
    # Inverse of the find_sites ordering: arc1 asc, arc2 asc, up then down.
    pair_rank, vi = divmod(index, 2)
    arcs = 2 * d.n + 1
    g1 = 0
    while pair_rank >= arcs - g1:
        pair_rank -= arcs - g1
        g1 += 1
    return MoveSite(kind, (g1, g1 + pair_rank, _VARIANTS[vi]))


def find_sites(d: ArrowDiagram, kind: MoveKind) -> list[MoveSite]:
    """All sites of one kind, duplicate-free, in canonical order: inserts by
    arc1, then arc2, then up before down; deletes and triple points by slot.
    """
    if kind in _INSERT_KINDS:
        arcs = range(2 * d.n + 1)
        return [
            MoveSite(kind, (g1, g2, v))
            for g1 in arcs
            for g2 in arcs[g1:]
            for v in _VARIANTS
        ]
    if kind in _DELETE_KINDS:
        # One zip pass: only a lower end whose neighbour ends at the mate
        # slot reaches _delete_slots; the sentinels (partner -1) never do.
        partner, step = d.slots.partner, _MATE_STEP[kind]
        return [
            MoveSite(kind, (p,))
            for p, q, q1 in zip(count(), partner, partner[1:])
            if q1 == q + step and q > p + 1 and _delete_slots(d, kind, p)
        ]
    return _r3_sites(d, kind)


def _lo(arrow) -> int:  # the canonical sort key of a valid diagram
    return min(arrow[0], arrow[1])


def _apply_insert(d: ArrowDiagram, site: MoveSite) -> ArrowDiagram:
    g1, g2, variant = site.data
    if not 0 <= g1 <= g2 <= 2 * d.n:
        raise StaleSiteError(f"insert arcs out of range: {site.format()}")
    # A slot moves up by 2 for each chosen arc below it.
    cuts = (g1, g2)
    arrows = [
        (t + 2 * bisect_left(cuts, t), h + 2 * bisect_left(cuts, h), s)
        for t, h, s in d.arrows
    ]
    # The new pair has lower ends s1, s1 + 1 and upper ends g2 + 3, g2 + 4:
    # the arrow from s1 ends at q, its mate at s1 + 1 ends at q + step, and
    # the two point opposite ways (up: the arrow from s1 points forward).
    s1, step = g1 + 1, _MATE_STEP[site.kind]
    q = g2 + 3 if step > 0 else g2 + 4
    pair = ((s1, q, 1), (q + step, s1 + 1, 1))
    if variant is Variant.DOWN:
        pair = tuple((h, t, s) for t, h, s in pair)
    # The new lower ends s1 < s1 + 1 follow every old one at or below g1
    # and precede the rest, so the order stays canonical.
    i = bisect_right(d.arrows, g1, key=_lo)
    arrows[i:i] = pair
    return ArrowDiagram._canonical(d.n + 2, tuple(arrows))


def _apply_delete(d: ArrowDiagram, site: MoveSite) -> ArrowDiagram:
    (p,) = site.data
    removed = 1 <= p <= 2 * d.n and _delete_slots(d, site.kind, p)
    if not removed:
        raise StaleSiteError(f"stale delete site: {site.format()}")
    kept = tuple(
        (t - bisect_left(removed, t), h - bisect_left(removed, h), s)
        for t, h, s in d.arrows
        if t not in removed
    )
    return ArrowDiagram._canonical(d.n - 2, kept)


def _apply_r3(d: ArrowDiagram, site: MoveSite) -> ArrowDiagram:
    p, q, r = site.data
    if _r3_kind(d, p, q, r) is not site.kind:
        raise StaleSiteError(f"stale triple-point site: {site.format()}")
    swap = {p: p + 1, p + 1: p, q: q + 1, q + 1: q, r: r + 1, r + 1: r}
    # Only the three site arrows move. Pair p holds two lower ends, which
    # trade places; pair q holds one, which keeps its place; pair r none.
    arrows = list(d.arrows)
    i = bisect_left(arrows, p, key=_lo)
    j = bisect_left(arrows, q, key=_lo)
    for k, (t, h, s) in ((i + 1, arrows[i]), (i, arrows[i + 1]),
                         (j, arrows[j])):
        arrows[k] = (swap[t], swap[h], s)
    return ArrowDiagram._canonical(d.n, tuple(arrows))


def apply_move(d: ArrowDiagram, site: MoveSite) -> ArrowDiagram:
    """Apply one move; raises StaleSiteError if the site does not fit d,
    malformed site data included."""
    fields = _FIELDS[site.kind]
    if len(site.data) != len(fields) or any(
        type(x) is not f for x, f in zip(site.data, fields)
    ):
        raise StaleSiteError(f"malformed site data: {site!r}")
    if site.kind in _INSERT_KINDS:
        return _apply_insert(d, site)
    if site.kind in _DELETE_KINDS:
        return _apply_delete(d, site)
    return _apply_r3(d, site)


def _enabled_sites(d, kinds):
    """(site count, site by index) per enabled kind in canonical order.

    Insert sites are counted analytically and decoded by rank, so a step
    never materializes the quadratic insert-site list.
    """
    out = []
    for k in KIND_ORDER:
        if k not in kinds:
            continue
        if k in _INSERT_KINDS:
            out.append((insert_site_count(d), partial(_unrank_insert, k, d)))
        else:
            sites = find_sites(d, k)
            out.append((len(sites), sites.__getitem__))
    return out


def random_site(
    d: ArrowDiagram, rng: random.Random, kinds=INVARIANCE_KINDS
) -> MoveSite | None:
    """Uniform site over all enabled kinds; None when nothing applies."""
    enabled = _enabled_sites(d, kinds)
    total = sum(c for c, _ in enabled)
    if total == 0:
        return None
    index = rng.randrange(total)
    for c, site_at in enabled:
        if index < c:
            return site_at(index)
        index -= c
    raise AssertionError("unreachable")


def random_site_balanced(
    d: ArrowDiagram, rng: random.Random, kinds=INVARIANCE_KINDS
) -> MoveSite | None:
    """Uniform kind among kinds with sites, then uniform site within it.

    Site-uniform sampling weights inserts by their quadratic site count, so
    long walks grow without bound; this sampler keeps inserts and deletes
    balanced and diagram size near the start size.
    """
    available = [e for e in _enabled_sites(d, kinds) if e[0]]
    if not available:
        return None
    c, site_at = available[rng.randrange(len(available))]
    return site_at(rng.randrange(c))


def walk(
    d: ArrowDiagram,
    rng: random.Random,
    steps: int,
    sample,
    kinds=INVARIANCE_KINDS,
):
    """Apply up to `steps` moves drawn by `sample` (random_site or
    random_site_balanced), yielding (site, diagram after the move) for
    each. The walk ends early when no enabled kind has a site."""
    for _ in range(steps):
        site = sample(d, rng, kinds)
        if site is None:
            return
        d = apply_move(d, site)
        yield site, d


def logged_walk(
    d: ArrowDiagram, rng: random.Random, steps: int, sample, kinds
) -> tuple[ArrowDiagram, list[str]]:
    """Run walk() to its end: (endpoint, log of one line per move, then
    STOPPED_EARLY if fewer than `steps` applied). replay(d, log) reproduces
    the endpoint."""
    log: list[str] = []
    for site, d in walk(d, rng, steps, sample, kinds):
        log.append(site.format())
    if len(log) < steps:
        log.append(STOPPED_EARLY)
    return d, log


def value_changes(formulas, d0, walked, conv: Convention):
    """Yield (before, after, tag) per (diagram, tag) of `walked` whose chord
    formula values differ from d0's. Walk draws never depend on values, so
    diagrams are evaluated in batches as `walked` yields them, and a caller
    that stops reading stops the walk one batch after that change. Nothing
    is evaluated until `walked` yields its first diagram."""
    walked = iter(walked)
    first = next(walked, None)
    if first is None:
        return
    walked, tagged = tee(chain([first], walked))
    values = _evaluate(
        PatternKind.CHORD, tuple(formulas),
        chain([d0], (d for d, _ in walked)), conv, conv.eval_mode,
    )
    before = next(values)
    for after, (_, tag) in zip(values, tagged):
        if after != before:
            yield before, after, tag


def replay(d: ArrowDiagram, lines) -> ArrowDiagram:
    """Re-run a move log; blanks, # notes and outer ASCII spaces skipped."""
    for raw in lines:
        text = raw.rstrip("\n").strip(" ")
        if not text or text.startswith("#"):
            continue
        d = apply_move(d, parse_move_line(text))
    return d


@dataclass(frozen=True)
class FuzzViolation:
    seed_index: int
    seed_text: str
    trial: int
    names: tuple[str, ...]
    before: tuple[int, ...]
    after: tuple[int, ...]
    log: tuple[str, ...]

    def format(self) -> str:
        lines = [f"violation seed={self.seed_index} trial={self.trial}"]
        for name, x, y in zip(self.names, self.before, self.after):
            if x != y:
                lines.append(f"  {name}: before={x} after={y}")
        lines.append(f"  seed diagram: {self.seed_text}")
        lines.append("  moves:")
        lines.extend(f"    {step}" for step in self.log)
        return "\n".join(lines)


@dataclass
class FuzzReport:
    seeds: int
    trials: int
    depth: int
    violations: list[FuzzViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        if self.ok:
            return (
                f"OK trials={self.trials} depth={self.depth}"
                f" seeds={self.seeds}"
            )
        blocks = [v.format() for v in self.violations]
        blocks.append(f"{len(self.violations)} violation(s)")
        return "\n".join(blocks)


def fuzz_invariance(
    formulas,
    seeds,
    trials: int,
    depth: int,
    rng_seed,
    convention: Convention,
    kinds=INVARIANCE_KINDS,
    max_violations: int | None = None,
) -> FuzzReport:
    """Random move walks; report every endpoint value change.

    Each (seed, trial) pair draws from its own RNG stream, so reports are
    reproducible independently of execution order, and every violation
    carries a log that replay() accepts.
    """
    if trials < 0 or depth < 0:
        raise ValueError(
            f"trials and depth must be >= 0, got {trials} and {depth}"
        )
    names = tuple(f.name for f in formulas)
    violations: list[FuzzViolation] = []
    for si, seed in enumerate(seeds):
        d0 = seed.diagram if isinstance(seed, CurveDiagram) else seed
        rngs = (random.Random(f"{rng_seed}:{si}:{t}") for t in range(trials))
        walks = (
            logged_walk(d0, rng, depth, random_site, kinds)
            for rng in rngs
        )
        tagged = ((d, (t, tuple(log))) for t, (d, log) in enumerate(walks))
        for before, after, (trial, log) in value_changes(
            formulas, d0, tagged, convention
        ):
            violations.append(
                FuzzViolation(
                    seed_index=si,
                    seed_text=serialize_diagram(d0),
                    trial=trial,
                    names=names,
                    before=before,
                    after=after,
                    log=log,
                )
            )
            if max_violations and len(violations) >= max_violations:
                return FuzzReport(len(seeds), trials, depth, violations)
    return FuzzReport(len(seeds), trials, depth, violations)
