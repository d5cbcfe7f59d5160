"""Tangency and triple-point rewriting on based arrow diagrams.

Inverse-tangency inserts add a nested arrow pair with opposite directions;
the direct-tangency variant (the negative control) adds a crossed pair.
Triple-point moves swap the contents of three adjacent slot pairs joined
pairwise by three arrows. All slot relabeling is order-preserving, so an
insert followed by its delete restores the original diagram exactly, and a
triple-point move is its own inverse.

The base point sits between the top slot and slot 1 and is never crossed:
arcs are indexed 0..2n, where arc g lies between slot g and slot g+1 (arc 0
starts at the base point, arc 2n ends at it).

Site finders and applies read partners, directions and signs from the
diagram's slot table (ArrowDiagram.slots), built at most once per diagram.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain, tee

from .counting import CROSS, NEST, SEQ, _evaluate, _signature
from .diagrams import ArrowDiagram, Convention, CurveDiagram, serialize_diagram
from .patterns import PatternKind


class MoveKind(Enum):
    IR2_INSERT = "iR2_insert"
    IR2_DELETE = "iR2_delete"
    R3 = "R3"
    DR2_INSERT = "dR2_insert"
    DR2_DELETE = "dR2_delete"


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
# parsed field by field with these types, and apply_move refuses data that
# does not match them exactly (so True is not slot 1).
_FIELDS: dict[MoveKind, tuple[type, ...]] = {
    MoveKind.IR2_INSERT: (int, int, Variant),
    MoveKind.IR2_DELETE: (int,),
    MoveKind.R3: (int, int, int),
    MoveKind.DR2_INSERT: (int, int, Variant),
    MoveKind.DR2_DELETE: (int,),
}


def parse_move_line(text: str) -> MoveSite:
    parts = text.split()
    try:
        kind = MoveKind(parts[0])
        fields = _FIELDS[kind]
        if len(parts) != len(fields) + 1:
            raise ValueError
        data = tuple(f(x) for f, x in zip(fields, parts[1:]))
    except (IndexError, ValueError):
        raise ValueError(f"bad move line: {text!r}") from None
    return MoveSite(kind, data)


# Triple-point decorations seen on diagrams of plane curves, keyed by the
# pairwise-relation vector (counting._signature) of the three arrows read as
# chords sorted by smaller slot. A decoration entry is (d12, d13, d23):
# whether the arrow joining slot pairs i and j points from the lower pair to
# the higher one.
_T, _F = True, False
_REALIZABLE: dict[tuple[int, ...], frozenset[tuple[bool, bool, bool]]] = {
    (CROSS, SEQ, CROSS): frozenset({(_T, _T, _T), (_F, _F, _F)}),
    (NEST, NEST, CROSS): frozenset({(_T, _T, _T), (_F, _F, _F)}),
    (CROSS, SEQ, NEST): frozenset({(_T, _F, _F), (_F, _T, _T)}),
    (NEST, CROSS, CROSS): frozenset({(_T, _F, _F), (_F, _T, _T)}),
    (CROSS, CROSS, CROSS): frozenset({(_F, _T, _F), (_T, _F, _T)}),
    (NEST, NEST, SEQ): frozenset({(_F, _T, _F), (_T, _F, _T)}),
    (CROSS, CROSS, NEST): frozenset({(_F, _F, _T), (_T, _T, _F)}),
    (NEST, CROSS, SEQ): frozenset({(_F, _F, _T), (_T, _T, _F)}),
}


def _is_r3_site(d: ArrowDiagram, p, q, r, r3_variants: str) -> bool:
    """Whether slot pairs (p, p+1), (q, q+1), (r, r+1) lie in order inside
    1..2n, are joined pairwise by three arrows, and carry a decoration that
    r3_variants admits: "all", or "realizable" (listed in _REALIZABLE)."""
    if not (1 <= p and p + 2 <= q and q + 2 <= r and r < 2 * d.n):
        return False
    partner, forward, _ = d.slots
    pairs = ((p, p + 1), (q, q + 1), (r, r + 1))
    decor = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        x0, x1 = pairs[i]
        if partner[x0] in pairs[j]:
            decor.append(forward[x0])
        elif partner[x1] in pairs[j]:
            decor.append(forward[x1])
        else:
            return False
    if r3_variants == "all":
        return True
    # The three arrows as chords in lo order: every lower end is in pair p
    # or pair q.
    chords = tuple(
        (x, partner[x]) for x in (p, p + 1, q, q + 1) if partner[x] > x
    )
    return tuple(decor) in _REALIZABLE.get(_signature(chords), ())


def _r3_sites(d: ArrowDiagram, r3_variants: str) -> list[MoveSite]:
    """Every admissible triple-point site once, in (p, q, r) order.

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
                if _is_r3_site(d, p, q, r, r3_variants):
                    sites.append(MoveSite(MoveKind.R3, (p, q, r)))
    return sites


def _delete_slots(d: ArrowDiagram, kind: MoveKind, p: int) -> list[int]:
    """The four slots, ascending, of the deletable pair of the given kind
    that starts at slot p (in 1..2n), or [] if there is none. The pair is a
    positive arrow from p and its mate, the positive arrow at p+1 with the
    opposite direction, nested inside it (iR2) or crossing it (dR2)."""
    partner, forward, sign = d.slots
    q = partner[p]
    mate = q - 1 if kind is MoveKind.IR2_DELETE else q + 1
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


def find_sites(
    d: ArrowDiagram, kind: MoveKind, r3_variants: str = "realizable"
) -> list[MoveSite]:
    """All sites of one kind, duplicate-free, in canonical order: inserts by
    arc1, then arc2, then up before down; deletes and triple points by slot.

    r3_variants is "realizable" (only decorations plane curves produce) or
    "all" (any pairwise-joined triple).
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
        # Only lower ends qualify; the sentinels (partner -1) never do.
        return [
            MoveSite(kind, (p,))
            for p, q in enumerate(d.slots.partner)
            if q > p + 1 and _delete_slots(d, kind, p)
        ]
    return _r3_sites(d, r3_variants)


def _apply_insert(d: ArrowDiagram, site: MoveSite) -> ArrowDiagram:
    g1, g2, variant = site.data
    if not 0 <= g1 <= g2 <= 2 * d.n:
        raise StaleSiteError(f"insert arcs out of range: {site.format()}")
    # A slot moves up by 2 for each chosen arc below it.
    cuts = (g1, g2)
    relabeled = tuple(
        (t + 2 * bisect_left(cuts, t), h + 2 * bisect_left(cuts, h), s)
        for t, h, s in d.arrows
    )
    s1, s2 = g1 + 1, g2 + 3
    up = variant is Variant.UP
    if site.kind is MoveKind.IR2_INSERT:
        # Nested pair, opposite directions.
        outer = (s1, s2 + 1, 1) if up else (s2 + 1, s1, 1)
        inner = (s2, s1 + 1, 1) if up else (s1 + 1, s2, 1)
    else:
        # Crossed pair, opposite directions.
        outer = (s1, s2, 1) if up else (s2, s1, 1)
        inner = (s2 + 1, s1 + 1, 1) if up else (s1 + 1, s2 + 1, 1)
    return ArrowDiagram(n=d.n + 2, arrows=relabeled + (outer, inner))


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
    return ArrowDiagram(n=d.n - 2, arrows=kept)


def _apply_r3(
    d: ArrowDiagram, site: MoveSite, r3_variants: str
) -> ArrowDiagram:
    p, q, r = site.data
    if not _is_r3_site(d, p, q, r, r3_variants):
        raise StaleSiteError(f"stale triple-point site: {site.format()}")
    swap = {p: p + 1, p + 1: p, q: q + 1, q + 1: q, r: r + 1, r + 1: r}
    arrows = tuple(
        (swap.get(t, t), swap.get(h, h), s) for t, h, s in d.arrows
    )
    return ArrowDiagram(n=d.n, arrows=arrows)


def apply_move(
    d: ArrowDiagram, site: MoveSite, r3_variants: str = "realizable"
) -> ArrowDiagram:
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
    return _apply_r3(d, site, r3_variants)


def _enabled_sites(d, kinds, r3_variants):
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
            sites = find_sites(d, k, r3_variants)
            out.append((len(sites), sites.__getitem__))
    return out


def random_site(
    d: ArrowDiagram,
    rng: random.Random,
    kinds=INVARIANCE_KINDS,
    r3_variants: str = "realizable",
) -> MoveSite | None:
    """Uniform site over all enabled kinds; None when nothing applies."""
    enabled = _enabled_sites(d, kinds, r3_variants)
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
    d: ArrowDiagram,
    rng: random.Random,
    kinds=INVARIANCE_KINDS,
    r3_variants: str = "realizable",
) -> MoveSite | None:
    """Uniform kind among kinds with sites, then uniform site within it.

    Site-uniform sampling weights inserts by their quadratic site count, so
    long walks grow without bound; this sampler keeps inserts and deletes
    balanced and diagram size near the start size.
    """
    available = [e for e in _enabled_sites(d, kinds, r3_variants) if e[0]]
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
    r3_variants: str = "realizable",
):
    """Apply up to `steps` moves drawn by `sample` (random_site or
    random_site_balanced), yielding (site, diagram after the move) for
    each. The walk ends early when no enabled kind has a site."""
    for _ in range(steps):
        site = sample(d, rng, kinds, r3_variants)
        if site is None:
            return
        d = apply_move(d, site, r3_variants=r3_variants)
        yield site, d


def logged_walk(
    d: ArrowDiagram, rng: random.Random, steps: int, sample, kinds,
    r3_variants: str = "realizable",
) -> tuple[ArrowDiagram, list[str]]:
    """Run walk() to its end: (endpoint, log of one line per move, then
    STOPPED_EARLY if fewer than `steps` applied). replay(d, log) reproduces
    the endpoint."""
    log: list[str] = []
    for site, d in walk(d, rng, steps, sample, kinds, r3_variants):
        log.append(site.format())
    if len(log) < steps:
        log.append(STOPPED_EARLY)
    return d, log


def value_changes(formulas, d0, walked, conv: Convention):
    """Yield (before, after, tag) per (diagram, tag) of `walked` whose chord
    formula values differ from d0's. Walk draws never depend on values, so
    diagrams are evaluated in batches as `walked` yields them, and a caller
    that stops reading stops the walk one batch after that change."""
    walked, tagged = tee(walked)
    values = _evaluate(
        PatternKind.CHORD, tuple(formulas),
        chain([d0], (d for d, _ in walked)), conv, conv.eval_mode,
    )
    before = next(values)
    for after, (_, tag) in zip(values, tagged):
        if after != before:
            yield before, after, tag


def replay(
    d: ArrowDiagram, lines, r3_variants: str = "realizable"
) -> ArrowDiagram:
    """Re-run a move log (an iterable of lines; blanks and # notes skipped)."""
    for raw in lines:
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        d = apply_move(d, parse_move_line(text), r3_variants=r3_variants)
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
    r3_variants: str = "realizable",
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
            logged_walk(d0, rng, depth, random_site, kinds, r3_variants)
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
