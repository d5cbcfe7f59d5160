"""Brute-force reference counts for cross-checking the table engine.

Deliberately naive: every k-subset of diagram chords is tested against the
pattern by searching for a chord bijection whose induced endpoint map is
strictly increasing (or, for arrow patterns, becomes so after some rotation
of the pattern). No code is shared with counting.py.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import prod

from .diagrams import ArrowDiagram, SignedChordDiagram
from .patterns import ANY, EvalMode, Pattern, PatternKind


def _monotone(assignment: dict[int, int]) -> bool:
    ordered = [assignment[s] for s in sorted(assignment)]
    return all(a < b for a, b in zip(ordered, ordered[1:]))


def _subset_matches(chords, subset: tuple[tuple[int, int, int], ...]) -> bool:
    """Whether some bijection from pattern chords (a, b, constraint) onto
    the subset's items (x, y, sign) meets every sign constraint and maps
    each a to x and b to y strictly increasingly."""
    for perm in permutations(subset):
        assignment: dict[int, int] = {}
        for (a, b, constraint), (x, y, sign) in zip(chords, perm):
            if constraint != ANY and sign != constraint:
                break
            assignment[a] = x
            assignment[b] = y
        else:
            if _monotone(assignment):
                return True
    return False


def count_embeddings_oracle(
    p: Pattern, d: SignedChordDiagram, mode: EvalMode
) -> int:
    assert p.kind is PatternKind.CHORD
    total = 0
    for subset in combinations(d.chords, p.k):
        if _subset_matches(p.chords, subset):
            weighted = mode is EvalMode.WEIGHTED
            total += prod(s for _, _, s in subset) if weighted else 1
    return total


def _arrow_subset_matches(
    p: Pattern, subset: tuple[tuple[int, int, int], ...]
) -> bool:
    """_subset_matches for some rotation of the arrow pattern."""
    m = 2 * p.k
    return any(
        _subset_matches([
            ((t - 1 + shift) % m + 1, (h - 1 + shift) % m + 1, c)
            for t, h, c in p.chords
        ], subset)
        for shift in range(m)
    )


def count_arrow_pattern_oracle(p: Pattern, d: ArrowDiagram) -> int:
    assert p.kind is PatternKind.ARROW
    total = 0
    for subset in combinations(d.arrows, p.k):
        if _arrow_subset_matches(p, subset):
            total += prod(s for _, _, s in subset)
    return total
