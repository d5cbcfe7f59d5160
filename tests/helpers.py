"""Shared test utilities: random diagrams, slot transforms, and an
independent triple-site classifier used as an oracle for the move engine."""

from __future__ import annotations

import random

from curveinv import ArrowDiagram, SignedChordDiagram


def perfect_matchings(k):
    """Every perfect matching of slots 1..2k, as (a, b) pairs with a < b."""
    if k == 0:
        return [()]
    out = []
    for m in perfect_matchings(k - 1):
        # Insert a new chord 1-b and shift the rest: every matching of
        # 1..2k arises once, from the matching of the remaining slots.
        for b in range(2, 2 * k + 1):
            rest = [x for x in range(2, 2 * k + 1) if x != b]
            out.append(((1, b),) + tuple((rest[a - 1], rest[c - 1]) for a, c in m))
    return out


def random_chord_diagram(rng: random.Random, max_n: int = 8) -> SignedChordDiagram:
    n = rng.randint(0, max_n)
    slots = list(range(1, 2 * n + 1))
    rng.shuffle(slots)
    chords = tuple(
        (slots[2 * i], slots[2 * i + 1], rng.choice((1, -1))) for i in range(n)
    )
    return SignedChordDiagram(n=n, chords=chords)


def random_arrow_diagram(
    rng: random.Random, max_n: int = 8, signed: bool = True
) -> ArrowDiagram:
    n = rng.randint(0, max_n)
    slots = list(range(1, 2 * n + 1))
    rng.shuffle(slots)
    arrows = tuple(
        (slots[2 * i], slots[2 * i + 1], rng.choice((1, -1)) if signed else 1)
        for i in range(n)
    )
    return ArrowDiagram(n=n, arrows=arrows)


def rotate_arrows(d: ArrowDiagram, s: int) -> ArrowDiagram:
    """Move the base point s slots forward (slot x becomes x - s cyclically)."""
    m = 2 * d.n

    def f(x: int) -> int:
        return (x - 1 - s) % m + 1

    return ArrowDiagram(n=d.n, arrows=tuple((f(t), f(h), g) for t, h, g in d.arrows))


def reverse_arrows(d: ArrowDiagram) -> ArrowDiagram:
    """Reverse the traversal direction of the circle (slot x becomes 2n+1-x)."""
    m = 2 * d.n
    return ArrowDiagram(
        n=d.n, arrows=tuple((m + 1 - t, m + 1 - h, g) for t, h, g in d.arrows)
    )


# Oracle-side reconstruction of the triple-point site geometry.  Kept free of
# any imports from curveinv.moves so the two routes share no code.

# Relation letters of the three chords (sorted by lower endpoint), then the
# direction bits of the chords joining pairs (1,2), (1,3), (2,3); True means
# the arrow points from the earlier slot pair to the later one.
TRIPLE_TABLE = {
    ("X", "S", "X"): {(True, True, True), (False, False, False)},
    ("N", "N", "X"): {(True, True, True), (False, False, False)},
    ("X", "S", "N"): {(True, False, False), (False, True, True)},
    ("N", "X", "X"): {(True, False, False), (False, True, True)},
    ("X", "X", "X"): {(False, True, False), (True, False, True)},
    ("N", "N", "S"): {(False, True, False), (True, False, True)},
    ("X", "X", "N"): {(False, False, True), (True, True, False)},
    ("N", "X", "S"): {(False, False, True), (True, True, False)},
}


def _relation_letter(c1: tuple[int, int], c2: tuple[int, int]) -> str:
    (a1, b1), (a2, b2) = sorted([c1, c2])
    if a1 < a2 < b1 < b2:
        return "X"
    if a1 < a2 < b2 < b1:
        return "N"
    return "S"


def triple_shape(d: ArrowDiagram, trip: tuple[int, int, int]):
    """Classify slot triple (p, q, r) as a triple-point site.

    Returns (word, decoration) when the slot pairs {p,p+1}, {q,q+1}, {r,r+1}
    are disjoint, stay clear of the base gap, and their three chords pairwise
    join distinct pairs; otherwise None.
    """
    p, q, r = trip
    m = 2 * d.n
    if not (1 <= p and p + 2 <= q and q + 2 <= r and r + 1 <= m):
        return None
    pairs = [(p, p + 1), (q, q + 1), (r, r + 1)]
    slot_of = {}
    for i, (x, y) in enumerate(pairs):
        slot_of[x] = i
        slot_of[y] = i
    head_of = {}
    tail_of = {}
    by_pairs = {}
    for t, h, _ in d.arrows:
        if t in slot_of and h in slot_of:
            i, j = slot_of[t], slot_of[h]
            if i == j:
                return None
            key = (min(i, j), max(i, j))
            if key in by_pairs:
                return None
            by_pairs[key] = (t, h)
            tail_of[key] = i if slot_of[t] == i else j
        elif t in slot_of or h in slot_of:
            return None
    if set(by_pairs) != {(0, 1), (0, 2), (1, 2)}:
        return None
    chords = sorted(
        (min(t, h), max(t, h), t, h) for t, h in by_pairs.values()
    )
    word = (
        _relation_letter(chords[0][:2], chords[1][:2]),
        _relation_letter(chords[0][:2], chords[2][:2]),
        _relation_letter(chords[1][:2], chords[2][:2]),
    )
    decor = tuple(
        slot_of[by_pairs[key][0]] == key[0]
        for key in ((0, 1), (0, 2), (1, 2))
    )
    return word, decor


def scan_triple_sites(d: ArrowDiagram, realizable_only: bool = True):
    """Exhaustive scan over slot triples; the move engine must agree.

    triple_shape accepts only triples whose three slot pairs are pairwise
    joined by an arrow, so the scan classifies every such triple and skips
    the rest unseen; that keeps it fast on a few hundred slots.
    """
    m = 2 * d.n
    # joined holds (i, j), i < j, when an arrow has one end in slot pair
    # (i, i+1) and the other in slot pair (j, j+1).
    joined = set()
    for t, h, _ in d.arrows:
        lo, hi = min(t, h), max(t, h)
        joined.update((i, j) for i in (lo - 1, lo) for j in (hi - 1, hi))
    out = []
    for p, q in sorted(joined):
        if p < 1 or q < p + 2:
            continue
        for r in range(q + 2, m):
            if (p, r) in joined and (q, r) in joined:
                shape = triple_shape(d, (p, q, r))
                if shape is None:
                    continue
                word, decor = shape
                if realizable_only and decor not in TRIPLE_TABLE.get(word, ()):
                    continue
                out.append((p, q, r))
    return out
