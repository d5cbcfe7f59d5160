"""Optimized pattern counting and formula evaluation.

Every public counter and evaluator runs one path: build DiagramTables for
the diagram once, then count each based pattern against them. Formulas
are compiled once per orientation and eval mode (memoized) into their
distinct based patterns and an integer coefficient map, so a pattern that
several terms share is counted once per diagram. Arrow patterns ignore
the base point: their count sums the based counts of the pattern's
rotations (by inclusion-exclusion where rotations of one configuration
differ only in sign constraints), which the compiled plan lists as based
patterns of their own.

The counting kernel is exact and takes O(n^2) time and memory. Items
(chords, or arrows read as chords) are indexed in smaller-endpoint order.
For items i < j the relation of i to j depends only on where hi_i falls
relative to j's endpoints: SEQ when hi_i is in (0, lo_j), CROSS when it is
in (lo_j, hi_j), NEST when it is in (hi_j, 2n+1). A term's first role then
enters through one prefix-sum table F[j, y], the sum of its filter over
items i < j with hi_i < y, and the items of that role in any open interval
for any j are two lookups. A degree-2 term is two lookups per j; a
degree-3 term is two lookups per pair (j, l) in its last relation, in the
intersection of the two intervals its first role must meet. Filters are
0 or +-1 per item, so |F| <= n and int32 tables are exact; final sums are
accumulated in int64 and returned as Python ints. Degree >= 4 terms
classify every subset by its relation vector. An independent brute-force
oracle lives in oracle.py and shares no code with this path.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from typing import NamedTuple

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


class Term(NamedTuple):
    """A based pattern compiled for counting.

    ``signature`` is the pairwise relation vector of the roles, which are
    the pattern chords sorted by smaller endpoint (the lo-order of any
    embedded diagram items). ``roles`` holds one filter key per role: its
    sign constraint and, for arrow patterns, whether it points forward
    (None for chord patterns).
    """

    signature: tuple[int, ...]
    roles: tuple[tuple[int, bool | None], ...]


def _term(p: Pattern) -> Term:
    matching = tuple((min(a, b), max(a, b)) for a, b, _ in p.chords)
    arrow = p.kind is PatternKind.ARROW
    return Term(
        _signature(matching),
        tuple((c, a < b if arrow else None) for a, b, c in p.chords),
    )


class DiagramTables:
    """Per-diagram tables for the interval/prefix-sum counting kernel.

    Index i is the i-th chord or arrow in smaller-endpoint order, the order
    both diagram types are stored in. ``codes`` holds the relation of i to
    j for i < j as int8 (-1 on and below the diagonal); ``bounds[r]`` holds
    per item j the (start, stop) arrays of the open interval in which hi_i
    lies exactly when an earlier item i stands in relation r to j. Its ends
    are 0, 2n+1 or endpoints of j, never hi_i, so the items inside are
    F[j, stop] - F[j, start]. Role filters, the int32 prefix-sum tables F
    of shape (n+1, 2n+2) and the (j, l) pair list of each relation are
    built on first use and kept, so terms sharing them build them once. F
    is exact in int32 because a filter is 0 or +-1 per item, so |F| <= n.
    Tables over arrow diagrams also keep each arrow's direction, which
    arrow patterns filter on beside the sign.
    """

    def __init__(self, d: SignedChordDiagram | ArrowDiagram):
        self.n = n = d.n
        is_chords = isinstance(d, SignedChordDiagram)
        items = np.array(d.chords if is_chords else d.arrows, dtype=np.int64)
        tail, head, signs = items.reshape(n, 3).T
        self.signs = signs.astype(np.int32)
        self.forward = None if is_chords else tail < head
        lo, hi = np.minimum(tail, head), np.maximum(tail, head)
        self.hi = hi
        codes = np.full((n, n), CROSS, dtype=np.int8)
        codes[hi[None, :] < hi[:, None]] = NEST
        codes[hi[:, None] < lo[None, :]] = SEQ
        codes[np.tri(n, dtype=bool)] = -1
        self.codes = codes
        self.bounds = {
            SEQ: (np.zeros_like(lo), lo),
            CROSS: (lo, hi),
            NEST: (hi, np.full_like(hi, 2 * n + 1)),
        }
        self._roles: dict[tuple, np.ndarray] = {}
        self._prefixes: dict[tuple, np.ndarray] = {}
        self._pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _role(self, weighted: bool, role: tuple[int, bool | None]):
        """Per-item filter of one role: 0 where an item cannot fill it,
        else its sign when weighted, else 1."""
        key = (weighted, role)
        u = self._roles.get(key)
        if u is None:
            constraint, forward = role
            u = self.signs if weighted else np.ones(self.n, dtype=np.int32)
            if constraint != ANY:
                u = u * (self.signs == constraint)
            if forward is not None:
                u = u * (self.forward == forward)
            self._roles[key] = u
        return u

    def _prefix(self, weighted: bool, role: tuple[int, bool | None]):
        """F[j, y]: the role's filter summed over items i < j with hi_i < y."""
        key = (weighted, role)
        table = self._prefixes.get(key)
        if table is None:
            n = self.n
            table = np.zeros((n + 1, 2 * n + 2), dtype=np.int32)
            table[np.arange(1, n + 1), self.hi + 1] = self._role(weighted, role)
            np.cumsum(table, axis=0, out=table)
            np.cumsum(table, axis=1, out=table)
            self._prefixes[key] = table
        return table

    def _between(self, weighted, role, rows, start, stop):
        """Per entry e: the role's filter summed over items i < rows[e]
        with start[e] < hi_i < stop[e], two lookups in its prefix table."""
        table = self._prefix(weighted, role)
        flat = table.ravel()
        base = rows * table.shape[1]
        return flat[base + stop] - flat[base + start]

    def _pair_list(self, r: int):
        """Index arrays (J, L) of all pairs j < l in relation r, j-major."""
        pairs = self._pairs.get(r)
        if pairs is None:
            pairs = self._pairs[r] = np.nonzero(self.codes == r)
        return pairs

    def count(self, term: Term, weighted: bool) -> int:
        """Sum over index tuples i1<i2<...<ik realizing the based pattern.

        A tuple realizes the term when its pairwise relations equal the
        term's signature and each item passes its role's filter (sign
        constraint and, for arrow patterns, direction). It weighs the
        product of its signs when weighted, else 1.
        """
        k = len(term.roles)
        if k > self.n:
            return 0
        u = [self._role(weighted, role) for role in term.roles]
        if k == 1:
            return int(u[0].sum(dtype=np.int64))
        if k == 2:
            # Items i before j in relation r: hi_i in bounds[r] of j.
            (r,) = term.signature
            inside = self._between(
                weighted, term.roles[0], np.arange(self.n), *self.bounds[r]
            )
            return int((u[1] * inside).sum(dtype=np.int64))
        if k == 3:
            # Per pair (j, l) in relation r23, hi_i must lie in both the
            # r12 interval of j and the r13 interval of l. For the signature
            # of a 3-chord matching the two never exclude each other
            # outright (start <= stop for every such pair; the combinations
            # where they would, e.g. SEQ to j but CROSS to l, are not
            # matchings), so the intersection is one interval, empty when
            # start == stop.
            r12, r13, r23 = term.signature
            j, l = self._pair_list(r23)
            start = np.maximum(self.bounds[r12][0][j], self.bounds[r13][0][l])
            stop = np.minimum(self.bounds[r12][1][j], self.bounds[r13][1][l])
            inside = self._between(weighted, term.roles[0], j, start, stop)
            return int((u[1][j] * u[2][l] * inside).sum(dtype=np.int64))
        # Degree >= 4: classify every k-subset by its relation vector, which
        # determines the configuration (see _check_signature_injectivity).
        rel = self.codes.tolist()
        weights = [x.tolist() for x in u]
        pairs = list(zip(combinations(range(k), 2), term.signature))
        return sum(
            math.prod(w[i] for w, i in zip(weights, idx))
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


def _meet(constraints) -> tuple[int, ...] | None:
    """Role-wise meet of sign-constraint vectors; None when a role would
    need both signs, so no item tuple meets them all."""
    out = []
    for per_role in zip(*constraints):
        signs = {c for c in per_role if c != ANY}
        if len(signs) > 1:
            return None
        out.append(signs.pop() if signs else ANY)
    return tuple(out)


def _based_counts(
    p: Pattern, mode: EvalMode | None
) -> list[tuple[tuple[Term, bool], int]]:
    """((term, weighted), multiplicity) pairs: p's count is the sum of
    multiplicity times the based count.

    Chord patterns are based and weighted per mode. Arrow patterns ignore
    the base point and weigh each match by the product of its arrow signs.
    A k-subset of arrows has one based configuration, and it matches when
    that configuration is a rotation of p whose sign constraints it meets.
    Rotations of one configuration with different constraints (p's shape
    is symmetric, its constraints are not) can match the same subset, so
    their union is counted by inclusion-exclusion over constraint meets.
    """
    if p.kind is PatternKind.CHORD:
        return [((_term(p), mode is EvalMode.WEIGHTED), 1)]
    by_shape: dict[tuple, list[tuple[int, ...]]] = {}
    for rot in _rotations(p):
        t = _term(rot)
        shape = (t.signature, tuple(forward for _, forward in t.roles))
        by_shape.setdefault(shape, []).append(tuple(c for c, _ in t.roles))
    out = []
    for (signature, directions), constraint_sets in by_shape.items():
        for r in range(1, len(constraint_sets) + 1):
            for chosen in combinations(constraint_sets, r):
                meet = _meet(chosen)
                if meet is not None:
                    term = Term(signature, tuple(zip(meet, directions)))
                    out.append(((term, True), (-1) ** (r + 1)))
    return out


@functools.lru_cache(maxsize=128)
def _plan(
    formulas: tuple[Formula, ...],
    orientation: Orientation,
    mode: EvalMode | None,
) -> tuple[tuple, tuple]:
    """Compile formulas into (distinct based counts, coefficient rows).

    Clockwise orientation reads every template mirrored. Row f lists
    (index, coefficient) pairs with formula f's value equal to the sum of
    coefficient times the count at that index.
    """
    index: dict[tuple[Term, bool], int] = {}
    rows = []
    for f in formulas:
        row: dict[int, int] = {}
        for coeff, p in f.terms:
            if orientation is Orientation.CW:
                p = mirror_pattern(p)
            for based, m in _based_counts(p, mode):
                i = index.setdefault(based, len(index))
                row[i] = row.get(i, 0) + m * coeff
        rows.append(tuple(row.items()))
    return tuple(index), tuple(rows)


def _evaluate(
    kind: PatternKind,
    formulas: tuple[Formula, ...],
    d: SignedChordDiagram | ArrowDiagram,
    conv: Convention | None,
    mode: EvalMode | None,
) -> tuple[int, ...]:
    """The one evaluator behind every public counter.

    Checks that every formula is of the caller's kind and that the diagram
    fits it, switching arrows to signed chords for chord formulas when a
    convention is given; then counts each distinct based pattern of the
    compiled formulas once on one set of tables and applies the
    coefficient map. Without a convention, templates are read as given
    (counterclockwise) and arrow diagrams are never switched.
    """
    if any(f.kind is not kind for f in formulas):
        raise KindMismatchError(f"expected {kind.value} patterns")
    if kind is PatternKind.CHORD:
        if conv is not None and isinstance(d, ArrowDiagram):
            d = arrows_to_chords(d, conv)
        if not isinstance(d, SignedChordDiagram):
            raise KindMismatchError("chord formula needs a signed chord diagram")
        if mode is None:
            raise ValueError("chord formulas need an explicit EvalMode")
    elif not isinstance(d, ArrowDiagram):
        raise KindMismatchError("arrow formula needs an arrow diagram")
    orientation = Orientation.CCW if conv is None else conv.orientation
    based, rows = _plan(formulas, orientation, mode)
    tables = DiagramTables(d)
    counts = [tables.count(term, weighted) for term, weighted in based]
    return tuple(sum(c * counts[i] for i, c in row) for row in rows)


def _single(p: Pattern) -> tuple[Formula]:
    """A lone pattern as a one-term formula, for the pattern counters."""
    return (Formula("", ((1, p),)),)


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
    return _evaluate(PatternKind.CHORD, _single(p), d, None, mode)[0]


def count_arrow_pattern(p: Pattern, d: ArrowDiagram) -> int:
    """Count sub-arrow-diagrams of the pattern's type, ignoring the base point.

    Matching is up to rotation of the circle: a k-subset of arrows counts
    when its cyclic endpoint order and arrow directions realize the pattern.
    Each match weighs the product of the matched arrow signs; sign
    constraints, when present, filter matches.
    """
    return _evaluate(PatternKind.ARROW, _single(p), d, None, None)[0]


def evaluate(
    f: Formula,
    d: SignedChordDiagram | ArrowDiagram,
    mode: EvalMode | None = None,
) -> int:
    """Evaluate a formula: the coefficient-weighted sum of its term counts."""
    return _evaluate(f.kind, (f,), d, None, mode)[0]


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
    return _evaluate(f.kind, (f,), d, conv, conv.eval_mode)[0]


def count_arrow_with_convention(
    p: Pattern, d: ArrowDiagram, conv: Convention
) -> int:
    """count_arrow_pattern with the pattern read under conv's orientation."""
    return _evaluate(PatternKind.ARROW, _single(p), d, conv, None)[0]


def evaluate_all(
    formulas: tuple[Formula, ...] | list[Formula],
    d: SignedChordDiagram | ArrowDiagram,
    conv: Convention,
) -> tuple[int, ...]:
    """Evaluate several chord formulas under one convention, sharing tables.

    Equivalent to evaluate_with_convention per formula but converts the
    diagram and builds the tables only once, and counts each based pattern
    the formulas share once; the fuzz loop calls this once per move.
    """
    return _evaluate(
        PatternKind.CHORD, tuple(formulas), d, conv, conv.eval_mode
    )
