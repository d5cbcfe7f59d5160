"""Optimized pattern counting and formula evaluation.

Every public counter and evaluator runs one path: build DiagramTables for
the diagram once, then count each formula term against them. The tables
classify every pair of chords (or arrows, read as chords) as sequential,
nested, or crossed in base-point order and pack the three relations into
integer matrices. A term's roles become 0/1 filter vectors, by sign
constraint and, for arrow patterns, by arrow direction, optionally
weighted by sign. Degree <= 3 terms then take one matrix product each;
degree >= 4 terms classify every subset by its relation vector. Arrow
terms sum the based count over the pattern's rotations. Counts are exact
integers throughout. An independent brute-force oracle lives in oracle.py
and shares no code with this path.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .diagrams import (
    ArrowDiagram,
    Convention,
    Orientation,
    SignedChordDiagram,
    arrows_to_chords,
)
from .patterns import (
    ANY,
    EvalMode,
    Formula,
    Pattern,
    PatternKind,
    mirror_formula,
    mirror_pattern,
)

SEQ, NEST, CROSS = 0, 1, 2


class KindMismatchError(TypeError):
    """Pattern kind does not fit the diagram or counting routine."""


def _relation(lo1: int, hi1: int, lo2: int, hi2: int) -> int:
    """Relation of two chords with lo1 < lo2 in base-point order."""
    if hi1 < lo2:
        return SEQ
    if hi2 < hi1:
        return NEST
    return CROSS


def _perfect_matchings(k: int):
    """All perfect matchings of slots 1..2k as lo-sorted (a, b) tuples."""
    def rec(rem: tuple[int, ...]):
        if not rem:
            yield ()
            return
        a = rem[0]
        for i in range(1, len(rem)):
            b = rem[i]
            rest = rem[1:i] + rem[i + 1:]
            for tail in rec(rest):
                yield ((a, b),) + tail

    return list(rec(tuple(range(1, 2 * k + 1))))


def _signature(matching: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Pairwise relation vector of a lo-sorted matching."""
    return tuple(
        _relation(*matching[i], *matching[j])
        for i, j in combinations(range(len(matching)), 2)
    )


def _check_signature_injectivity():
    # The counting path identifies a configuration by its pairwise relation
    # vector; that is only sound if the vector determines the matching.
    for k in (2, 3, 4):
        sigs = [_signature(m) for m in _perfect_matchings(k)]
        assert len(sigs) == len(set(sigs))


_check_signature_injectivity()


def pattern_signature(p: Pattern) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(relation vector, per-role sign constraints) of a pattern.

    Roles are the pattern chords sorted by smaller endpoint, matching the
    lo-order of any embedded diagram chords.
    """
    matching = tuple((min(a, b), max(a, b)) for a, b, _ in p.chords)
    constraints = tuple(c for _, _, c in p.chords)
    return _signature(matching), constraints


class DiagramTables:
    """Packed pairwise-relation tables for one chord or arrow diagram.

    Index i is the i-th chord or arrow in smaller-endpoint order, the order
    both diagram types are stored in. Tables over arrow diagrams also keep
    each arrow's direction, which arrow patterns filter on beside the sign.
    """

    def __init__(self, d: SignedChordDiagram | ArrowDiagram):
        self.n = d.n
        is_chords = isinstance(d, SignedChordDiagram)
        items = np.array(d.chords if is_chords else d.arrows, dtype=np.int64)
        tail, head, self.signs = items.reshape(d.n, 3).T
        lo, hi = np.minimum(tail, head), np.maximum(tail, head)
        self.forward = None if is_chords else tail < head
        upper = np.triu(np.ones((d.n, d.n), dtype=bool), 1)
        seq = hi[:, None] < lo[None, :]
        nest = hi[None, :] < hi[:, None]
        self.rel = {
            SEQ: (seq & upper).astype(np.int64),
            NEST: (nest & upper).astype(np.int64),
            CROSS: (upper & ~seq & ~nest).astype(np.int64),
        }

    def count(self, p: Pattern, weighted: bool) -> int:
        """Sum over index tuples i1<i2<...<ik realizing the based pattern p.

        A tuple realizes p when its pairwise relations equal p's, each item
        passes its role's sign constraint and, for arrow patterns, points
        the role's way. It weighs the product of its signs when weighted,
        else 1.
        """
        k = p.k
        if k > self.n:
            return 0
        signature, constraints = pattern_signature(p)
        vectors = []
        for (a, b, _), c in zip(p.chords, constraints):
            u = self.signs if weighted else np.ones(self.n, dtype=np.int64)
            if c != ANY:
                u = u * (self.signs == c)
            if p.kind is PatternKind.ARROW:
                u = u * (self.forward == (a < b))
            vectors.append(u)
        if k == 1:
            return int(vectors[0].sum())
        if k == 2:
            (r,) = signature
            return int(vectors[0] @ self.rel[r] @ vectors[1])
        if k == 3:
            r12, r13, r23 = signature
            u1, u2, u3 = vectors
            inner = (self.rel[r12] * u1[:, None]).T @ self.rel[r13]
            return int(
                np.sum(inner * self.rel[r23] * u2[:, None] * u3[None, :])
            )
        # Degree >= 4: classify every k-subset by its relation vector, which
        # determines the configuration (see _check_signature_injectivity).
        rel = (NEST * self.rel[NEST] + CROSS * self.rel[CROSS]).tolist()
        weights = [u.tolist() for u in vectors]
        pairs = list(zip(combinations(range(k), 2), signature))
        return sum(
            math.prod(u[i] for u, i in zip(weights, idx))
            for idx in combinations(range(self.n), k)
            if all(rel[idx[i]][idx[j]] == r for (i, j), r in pairs)
        )


def _rotations(p: Pattern) -> list[Pattern]:
    """Distinct based patterns in the cyclic rotation orbit of p."""
    out = []
    seen = set()
    m = 2 * p.k
    for shift in range(m):
        rotated = Pattern(
            k=p.k,
            kind=p.kind,
            chords=tuple(
                ((a - 1 + shift) % m + 1, (b - 1 + shift) % m + 1, c)
                for a, b, c in p.chords
            ),
        )
        if rotated.chords not in seen:
            seen.add(rotated.chords)
            out.append(rotated)
    return out


def _count_term(
    tables: DiagramTables, p: Pattern, mode: EvalMode | None
) -> int:
    """The one per-term count behind every public counter and evaluator.

    Chord patterns are based and weighted per mode. Arrow patterns ignore
    the base point, so their count sums the based counts of the pattern's
    rotations, each match weighing the product of its arrow signs.
    """
    if p.kind is PatternKind.ARROW:
        return sum(tables.count(rot, weighted=True) for rot in _rotations(p))
    return tables.count(p, weighted=mode is EvalMode.WEIGHTED)


def _sum_terms(
    f: Formula, tables: DiagramTables, mode: EvalMode | None
) -> int:
    return sum(coeff * _count_term(tables, p, mode) for coeff, p in f.terms)


def count_embeddings(
    p: Pattern, d: SignedChordDiagram, mode: EvalMode
) -> int:
    """Count base-respecting embeddings of a chord pattern into a diagram.

    An embedding is an injective map from pattern chords to diagram chords
    under which the 2k matched endpoints, read from the base point, realize
    exactly the pattern's configuration. Sign constraints filter embeddings;
    the mode sets each embedding's weight (1, or the product of matched
    diagram signs).
    """
    if p.kind is not PatternKind.CHORD:
        raise KindMismatchError("count_embeddings needs a chord pattern")
    if not isinstance(d, SignedChordDiagram):
        raise KindMismatchError("count_embeddings needs a signed chord diagram")
    return _count_term(DiagramTables(d), p, mode)


def count_arrow_pattern(p: Pattern, d: ArrowDiagram) -> int:
    """Count sub-arrow-diagrams of the pattern's type, ignoring the base point.

    Matching is up to rotation of the circle: a k-subset of arrows counts
    when its cyclic endpoint order and arrow directions realize the pattern.
    Each match weighs the product of the matched arrow signs; sign
    constraints, when present, filter matches.
    """
    if p.kind is not PatternKind.ARROW:
        raise KindMismatchError("count_arrow_pattern needs an arrow pattern")
    if not isinstance(d, ArrowDiagram):
        raise KindMismatchError("count_arrow_pattern needs an arrow diagram")
    return _count_term(DiagramTables(d), p, None)


def evaluate(
    f: Formula,
    d: SignedChordDiagram | ArrowDiagram,
    mode: EvalMode | None = None,
) -> int:
    """Evaluate a formula: the coefficient-weighted sum of its term counts."""
    if f.kind is PatternKind.CHORD:
        if not isinstance(d, SignedChordDiagram):
            raise KindMismatchError("chord formula needs a signed chord diagram")
        if mode is None:
            raise ValueError("chord formulas need an explicit EvalMode")
    elif not isinstance(d, ArrowDiagram):
        raise KindMismatchError("arrow formula needs an arrow diagram")
    return _sum_terms(f, DiagramTables(d), mode)


def evaluate_with_convention(
    f: Formula,
    d: SignedChordDiagram | ArrowDiagram,
    conv: Convention,
) -> int:
    """Evaluate under a full convention.

    Clockwise orientation reads the formula's templates mirrored; chord
    formulas applied to arrow diagrams first switch arrows to signed chords
    per the convention's arrow rule.
    """
    if conv.orientation is Orientation.CW:
        f = mirror_formula(f)
    if f.kind is PatternKind.CHORD and isinstance(d, ArrowDiagram):
        d = arrows_to_chords(d, conv)
    return evaluate(f, d, conv.eval_mode)


def count_arrow_with_convention(
    p: Pattern, d: ArrowDiagram, conv: Convention
) -> int:
    if conv.orientation is Orientation.CW:
        p = mirror_pattern(p)
    return count_arrow_pattern(p, d)


def evaluate_all(
    formulas: tuple[Formula, ...] | list[Formula],
    d: SignedChordDiagram | ArrowDiagram,
    conv: Convention,
) -> tuple[int, ...]:
    """Evaluate several chord formulas under one convention, sharing tables.

    Equivalent to evaluate_with_convention per formula but converts the
    diagram and packs the relation matrices only once; the fuzz loop calls
    this once per move.
    """
    if conv.orientation is Orientation.CW:
        formulas = [mirror_formula(f) for f in formulas]
    if isinstance(d, ArrowDiagram):
        d = arrows_to_chords(d, conv)
    tables = DiagramTables(d)
    out = []
    for f in formulas:
        if f.kind is not PatternKind.CHORD:
            raise KindMismatchError("evaluate_all handles chord formulas")
        out.append(_sum_terms(f, tables, conv.eval_mode))
    return tuple(out)
