"""Optimized pattern counting and formula evaluation.

evaluate_many is the one evaluator: it builds DiagramTables for a batch of
diagrams once, then counts each tuple family against them. The pattern
counters (count_embeddings, count_arrow_pattern, which the oracle mirrors)
and the one-diagram views are calls to it with a batch of one. Formulas
are compiled once per orientation (memoized per formula tuple) into based
patterns, each a Term of the roles, steps and ends the kernel reads.
Arrow patterns ignore the base point: their count sums the based counts
of the pattern's rotations (by inclusion-exclusion where rotations of one
configuration differ only in sign constraints), each a based pattern of
its own.

The kernel is exact and has one path for every degree k >= 2. Items
(chords, or arrows read as chords: the tables negate the signs of arrows
per the arrow rule, no copy per diagram) are in smaller-endpoint order;
for i < j the relation of i to j is SEQ, CROSS or NEST as hi_i lies in
(0, lo_j), (lo_j, hi_j) or (hi_j, 2n+1). A pattern's roles 2..k are
realized as index tuples: every item for k = 2, else the pair list of the
roles-2/3 relation joined with the pair list of each next consecutive
relation and filtered by the others. Role 1 enters through a prefix-sum
table F[j, r] (its filter summed over items i < j whose hi has rank below
r among the his), read at the tuple endpoints next to role 1's hi: a
based count is the difference of two columns, each a sum over tuples of
their weight times one lookup. Patterns that share steps and roles 2..k
read the same tuples and form a family; each formula's coefficients fold
onto the family's columns (one int64 formulas x columns matrix per
family, cancelled columns dropped), so a family is one pass over its
tuples. Tables take O(n^2) time and memory, joins time linear in the
tuples they build, on at most _BLOCK + n candidates at a time, so memory
stays O(n^2 + k^2 _BLOCK). Sums are exact (int32 tables, int64 totals).

A batch stacks its diagrams along a leading axis, each padded with sign-0
items, which fail every role filter, to m = (largest n) + 1 items: one set
of tables and one pass per family serve every diagram, and tuples come
out diagram-major, so per-diagram totals are int64 sums over runs of
tuples. The tables of a batch take O(B m^2) memory; evaluate_many splits its
input in order into batches of at most _BATCH_ELEMENTS padded relation
codes (a larger diagram goes alone).

An independent brute-force oracle in oracle.py shares no code with this.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .diagrams import (
    ArrowDiagram,
    ArrowRule,
    Convention,
    Orientation,
    SignedChordDiagram,
    _items,
)
from .patterns import (
    ANY,
    EvalMode,
    Formula,
    Pattern,
    PatternKind,
    mirror_pattern,
    pattern_violations,
)

SEQ, NEST, CROSS = 0, 1, 2


class KindMismatchError(TypeError):
    """Pattern kind does not fit the diagram or counting routine."""


def _signature(matching: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Pairwise relation vector of a lo-sorted matching."""
    return tuple(
        SEQ if hi1 < lo2 else NEST if hi2 < hi1 else CROSS
        for (lo1, hi1), (lo2, hi2) in combinations(matching, 2)
    )


# Candidates one join of DiagramTables._grow takes at a time (plus at most
# n): the memory bound of degree >= 4 counts.
_BLOCK = 1 << 16

LO, HI, TOP, BOTTOM = 0, 1, 2, 3


class Term(NamedTuple):
    """A based pattern compiled to the fields the kernel reads.

    ``roles`` holds per role (the pattern chords in lo-order) its sign
    constraint and, for arrow patterns, whether it points forward (else
    None). The kernel holds roles 2..k at tuple positions 0..k-2: ``steps``
    lists per m >= 1 the relation of m-1 to m and the (position, relation)
    pairs of 0..m-2 to m; ``ends`` the (position, LO or HI) endpoints next
    to role 1's hi in the pattern, (0, BOTTOM) or (0, TOP) if none. Steps
    and ends determine the pattern's matching.
    """

    roles: tuple[tuple[int, bool | None], ...]
    steps: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    ends: tuple[tuple[int, int], tuple[int, int]]


class Family(NamedTuple):
    """Based patterns that share steps and roles 2..k (``roles``), folded
    onto one coefficient matrix: what DiagramTables.count reads.

    A pattern counts the tuples' weights times role 1's items between its
    two ends: the difference of two columns (role-1 filter, position, LO,
    HI or TOP), each counting role 1's items below that end; BOTTOM reads
    0. Row f of the int64 ``matrix`` holds formula f's column coefficients.
    """

    steps: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    roles: tuple[tuple[int, bool | None], ...]
    columns: tuple[tuple[tuple[int, bool | None], int, int], ...]
    matrix: np.ndarray


def _term(p: Pattern) -> Term:
    matching = tuple((min(a, b), max(a, b)) for a, b, _ in p.chords)
    arrow = p.kind is PatternKind.ARROW
    # Relations among roles 2..k, keyed by tuple position.
    rel = dict(zip(combinations(range(p.k - 1), 2), _signature(matching[1:])))
    # The endpoint at each slot: role 1's lo is slot 1, past the last is top.
    at = {1: (0, BOTTOM), 2 * p.k + 1: (0, TOP)}
    for q, chord in enumerate(matching[1:]):
        at.update(zip(chord, ((q, LO), (q, HI))))
    hi1 = matching[0][1]
    return Term(
        tuple((c, a < b if arrow else None) for a, b, c in p.chords),
        tuple(
            (rel[m - 1, m], tuple((i, rel[i, m]) for i in range(m - 1)))
            for m in range(1, p.k - 1)
        ),
        (at[hi1 - 1], at[hi1 + 1]),
    )


class DiagramTables:
    """Stacked tables of a batch of diagrams for the counting kernel.

    The batch is a non-empty sequence of diagrams of any types and sizes;
    one diagram is a batch of one. Each is padded to m = (largest n) + 1
    items with sign-0 chords at slots (2i+1, 2i+2) after its last slot, so
    it ends in a padding item. Item j of diagram b has global index b*m + j,
    in smaller-endpoint order. codes[b*m + j, l] (int8) is the relation of
    j to a later real item l of the diagram, else -1. ends[LO], ends[HI]
    and ends[TOP] hold per global item the hi ranks of its lo and hi, and
    m, where the hi rank of an endpoint is the number of its diagram's
    items, padding included, whose hi lies below it; no column reads
    BOTTOM. Items keep their direction (chords point forward) for arrow
    patterns; given an arrow rule, each arrow whose direction the rule
    negates has its sign negated, as arrows_to_chords does. weights holds
    per item what a match weighs: its sign when weighted, else sign != 0,
    so padding weighs 0 and never counts. Role filters, role-1 prefix
    tables (_prefix) and each relation's pair list are built on first use
    and kept. Memory is O(B*m^2).
    """

    def __init__(self, diagrams, rule: ArrowRule | None, weighted: bool):
        self.batch = batch = len(diagrams)
        self.m = m = max(d.n for d in diagrams) + 1
        items = np.zeros((batch, m, 3), dtype=np.int32)
        items[:, :, :2] = np.arange(1, 2 * m + 1).reshape(m, 2)
        for b, d in enumerate(diagrams):
            if d.n:
                items[b, :d.n] = _items(d)
        # Diagram b's slots read shifted by 2bm: one order for the batch.
        items[:, :, :2] += np.arange(0, 2 * m * batch, 2 * m).reshape(-1, 1, 1)
        tail, head, self.signs = items.reshape(batch * m, 3).T
        self.forward = tail < head
        if rule is not None:
            arrows = [isinstance(d, ArrowDiagram) for d in diagrams]
            flip = rule.negates(self.forward) & np.repeat(arrows, m)
            self.signs = np.where(flip, -self.signs, self.signs)
        self.weights = (
            self.signs if weighted else (self.signs != 0).astype(np.int32)
        )
        lo, hi = np.minimum(tail, head), np.maximum(tail, head)
        hi_j, hi_l = hi.reshape(batch, m, 1), hi.reshape(batch, 1, m)
        lo_j, lo_l = lo.reshape(batch, m, 1), lo.reshape(batch, 1, m)
        codes = np.add(hi_l > hi_j, NEST, dtype=np.int8)  # or CROSS
        codes *= hi_j > lo_l  # else SEQ
        # -1 on and below the diagonal and towards sign-0 (padding) items.
        codes += 1
        codes *= (lo_j < lo_l) & (self.signs.reshape(batch, 1, m) != 0)
        codes -= 1
        self.codes = codes.reshape(batch * m, m)
        self.items = np.arange(batch * m)
        # Each diagram's first global index, and the end of the batch.
        self._firsts = np.arange(0, batch * m + 1, m)
        # Hi ranks of lo and hi: a global rank less the diagram's first index.
        his, firsts = np.sort(hi), self._firsts[:-1].repeat(m)
        self.ends = ends = np.empty((3, batch * m), dtype=np.intp)
        ends[LO] = his.searchsorted(lo) - firsts
        ends[HI] = his.searchsorted(hi) - firsts
        ends[TOP] = m
        self._roles: dict[tuple, np.ndarray] = {}
        self._prefixes: dict[tuple, np.ndarray] = {}
        self._pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _role(self, role: tuple[int, bool | None]):
        """Per-item filter of one role: 0 where an item cannot fill it,
        else its weight."""
        u = self._roles.get(role)
        if u is None:
            constraint, forward = role
            u = self.weights
            if constraint != ANY:
                u = u * (self.signs == constraint)
            if forward is not None:
                u = u * (self.forward == forward)
            self._roles[role] = u
        return u

    def _prefix(self, role: tuple[int, bool | None]):
        """The int32 table F of shape (B*m, m + 1): F[b*m + j, r] is the
        role's filter summed over diagram b's items i < j of hi rank below
        r. A diagram's last item is padding, so leaving it out of its own
        rows makes a global index its table row; |F| <= m fits int32."""
        table = self._prefixes.get(role)
        if table is None:
            m = self.m
            table = np.zeros((self.batch * m, m + 1), dtype=np.int32)
            # Item i fills row i + 1 from column rank_i + 1 on; a diagram's
            # last item, padding, adds 0 to the next diagram's row 0.
            np.multiply(
                np.arange(m + 1) > self.ends[HI][:-1, None],
                self._role(role)[:-1, None],
                out=table[1:],
            )
            stacked = table.reshape(self.batch, m, m + 1)
            stacked.cumsum(axis=1, out=stacked)
            self._prefixes[role] = table
        return table

    def _pair_list(self, r: int):
        """Global index arrays (J, L) of all real pairs j < l of one diagram
        in relation r, diagram-major then j-major."""
        pairs = self._pairs.get(r)
        if pairs is None:
            at = (self.codes == r).ravel().nonzero()[0]
            rows = at // self.m
            # l's local index plus its diagram's first global index.
            first = rows - rows % self.m
            pairs = self._pairs[r] = (rows, at - rows * self.m + first)
        return pairs

    def _grow(self, tuples, steps):
        """Yield blocks of index tuples, extended depth first by one role
        per step: join each tuple's last index with the pair list of the
        step's relation, on at most _BLOCK + m candidates at a time, and
        keep the candidates whose relations to earlier roles match."""
        if not steps:
            yield tuples
            return
        (r, checks), rest = steps[0], steps[1:]
        pairs, partners = self._pair_list(r)
        runs = np.searchsorted(pairs, np.arange(len(self.items) + 1))
        first = runs[tuples[-1]]
        sizes = runs[tuples[-1] + 1] - first
        marks = np.arange(_BLOCK, sizes.sum(), _BLOCK)
        cuts = np.searchsorted(np.cumsum(sizes), marks)
        for a, b in zip((0, *cuts), (*cuts, len(sizes))):
            size = sizes[a:b]
            grown = np.repeat(np.arange(a, b), size)
            # Pair-list position: the tuple's run start plus rank in the run.
            starts = np.repeat(np.cumsum(size) - size, size)
            new = partners[first[grown] + np.arange(len(grown)) - starts]
            local = new % self.m
            keep = np.logical_and.reduce(
                [self.codes[tuples[i][grown], local] == ri for i, ri in checks]
            )
            grown, new = grown[keep], new[keep]
            yield from self._grow((*(t[grown] for t in tuples), new), rest)

    def count(self, family: Family) -> np.ndarray:
        """The family's formula values, an int64 array of shape (formulas,
        diagrams): the matrix times the per-diagram column sums.

        The family's index tuples are enumerated once. A tuple realizes
        roles 2..k when its pairwise relations are the pattern's and each
        item passes its role's filter (sign constraint and, for arrow
        patterns, direction); it weighs the product of their weights. Their
        relations fix their endpoint order, so an item before role 2 counts
        in a column exactly when its hi ranks below the column's end: one
        prefix-table lookup per tuple. Tuples come diagram-major, so each
        column of a block is summed per diagram by one reduceat from the
        first tuple of every diagram the block reaches, and the block's
        sums are added to those diagrams' at once.
        """
        sums = np.zeros((len(family.columns), self.batch), dtype=np.int64)
        if not family.roles:
            for c, (role, _, _) in enumerate(family.columns):
                u = self._role(role).reshape(self.batch, self.m)
                sums[c] = u.sum(axis=1, dtype=np.int64)
            return family.matrix @ sums
        steps = family.steps
        seed = (self.items,) if not steps else self._pair_list(steps[0][0])
        flats = [self._prefix(role).ravel() for role, _, _ in family.columns]
        for tuples in self._grow(seed, steps[1:]):
            w = self._role(family.roles[0])[tuples[0]]
            for role, t in zip(family.roles[1:], tuples[1:]):
                w = w * self._role(role)[t]
            base = tuples[0] * (self.m + 1)
            # The diagrams the block reaches, and the first tuple of each.
            cuts = np.searchsorted(tuples[0], self._firsts)
            reached = (cuts[1:] > cuts[:-1]).nonzero()[0]
            starts = cuts[reached]
            block = np.empty((len(sums), len(reached)), dtype=np.int64)
            for c, ((_, b, s), flat) in enumerate(zip(family.columns, flats)):
                np.add.reduceat(
                    w * flat[base + self.ends[s][tuples[b]]], starts,
                    dtype=np.int64, out=block[c],
                )
            sums[:, reached] += block
        return family.matrix @ sums


def _rotations(p: Pattern) -> list[Pattern]:
    """Distinct based patterns in the cyclic rotation orbit of p."""
    m = 2 * p.k
    out: dict[tuple, Pattern] = {}
    for shift in range(m):
        rotated = Pattern(k=p.k, kind=p.kind, chords=tuple(
            ((a - 1 + shift) % m + 1, (b - 1 + shift) % m + 1, c)
            for a, b, c in p.chords
        ))
        out.setdefault(rotated.chords, rotated)
    return list(out.values())


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


def _based_counts(p: Pattern) -> list[tuple[Term, int]]:
    """(term, multiplicity) pairs: p's count is the sum of multiplicity
    times the based count, on tables weighted as p's kind and the eval mode
    require (see evaluate_many).

    Chord patterns are based. Arrow patterns ignore the base point.
    A k-subset of arrows has one based configuration, and it matches when
    that configuration is a rotation of p whose sign constraints it meets.
    Rotations of one configuration with different constraints (p's shape
    is symmetric, its constraints are not) can match the same subset, so
    their union is counted by inclusion-exclusion over constraint meets.
    """
    if p.kind is PatternKind.CHORD:
        return [(_term(p), 1)]
    by_shape: dict[tuple, list[Term]] = {}
    for rot in _rotations(p):
        t = _term(rot)
        dirs = tuple(forward for _, forward in t.roles)
        by_shape.setdefault((t.steps, t.ends, dirs), []).append(t)
    out = []
    for (*_, dirs), terms in by_shape.items():
        for r in range(1, len(terms) + 1):
            for chosen in combinations(terms, r):
                meet = _meet(tuple(c for c, _ in t.roles) for t in chosen)
                if meet is not None:
                    term = chosen[0]._replace(roles=tuple(zip(meet, dirs)))
                    out.append((term, (-1) ** (r + 1)))
    return out


@functools.lru_cache(maxsize=1 << 12)
def _plan(
    formulas: tuple[Formula, ...], orientation: Orientation
) -> tuple[Family, ...]:
    """Compile formulas into the families of their based counts.

    Each term's based counts are grouped by the index tuples they read
    (steps and roles 2..k) and folded onto the family's columns: a based
    count adds its coefficient to the column of its upper end and takes it
    from the column of its lower one. Columns whose coefficients all cancel
    are dropped, and so are families left without a column. Clockwise
    orientation reads the templates mirrored. The cache holds thousands of
    plans, so callers that count many one-term formulas (one per pattern)
    compile each pattern once. Raises ValueError on an invalid pattern.
    """
    folded: dict[tuple, dict[tuple, list[int]]] = {}
    for f, formula in enumerate(formulas):
        for coeff, p in formula.terms:
            problems = pattern_violations(p)
            if problems:
                raise ValueError("invalid pattern: " + "; ".join(problems))
            if orientation is Orientation.CW:
                p = mirror_pattern(p)
            for term, m in _based_counts(p):
                columns = folded.setdefault((term.steps, term.roles[1:]), {})
                for (b, s), sign in zip(term.ends, (-1, 1)):
                    if s == BOTTOM:
                        continue
                    column = (term.roles[0], 0 if s == TOP else b, s)
                    row = columns.setdefault(column, [0] * len(formulas))
                    row[f] += sign * m * coeff
    families = []
    for (steps, roles), columns in folded.items():
        kept = {c: row for c, row in columns.items() if any(row)}
        if any(not -(1 << 63) <= x < 1 << 63 for r in kept.values() for x in r):
            raise ValueError("formula coefficient out of int64 range")
        if kept:
            matrix = np.array(list(kept.values()), dtype=np.int64).T
            matrix.flags.writeable = False
            families.append(Family(steps, roles, tuple(kept), matrix))
    return tuple(families)


# Most padded relation codes (diagrams times m^2) one batch of tables
# holds; a diagram above it is a batch of its own. Bounds the memory of
# evaluating many diagrams at once.
_BATCH_ELEMENTS = 1 << 14


def _batches(diagrams):
    """Split diagrams, in order, into runs of at most _BATCH_ELEMENTS
    padded relation codes (B * m^2, m the run's largest n plus one). When
    reading a diagram raises, the run read before it comes out first."""
    batch, m = [], 0
    try:
        for d in diagrams:
            grown = max(m, d.n + 1)
            if batch and (len(batch) + 1) * grown * grown > _BATCH_ELEMENTS:
                yield batch
                batch, grown = [], d.n + 1
            batch.append(d)
            m = grown
    except Exception:
        if batch:
            yield batch
        raise
    if batch:
        yield batch


def _fit(d, kind: PatternKind):
    """d, when formulas of this kind can count it; else KindMismatchError.
    Chord formulas read arrow diagrams as chords."""
    if kind is PatternKind.ARROW:
        if not isinstance(d, ArrowDiagram):
            raise KindMismatchError("arrow formula needs an arrow diagram")
    elif not isinstance(d, (SignedChordDiagram, ArrowDiagram)):
        raise KindMismatchError("chord formula needs a signed chord diagram")
    return d


def evaluate_many(
    formulas: tuple[Formula, ...] | list[Formula],
    diagrams,
    conv: Convention,
) -> Iterator[tuple[int, ...]]:
    """Evaluate formulas of one kind on diagrams under a convention: an
    iterator of one value tuple per diagram, in order.

    The formulas are checked and compiled when this is called: mixed chord
    and arrow patterns raise KindMismatchError, an invalid pattern
    ValueError. Clockwise orientation reads the templates mirrored. A
    match weighs the product of its signs for arrow formulas and for chord
    formulas in weighted mode, else 1. Chord formulas read arrow diagrams
    as chords, each arrow's sign switched per the convention's arrow rule.

    Diagrams are read lazily, one batch (plus the diagram that opens the
    next) at a time, so a caller that stops early stops the work producing
    them. Per batch, each family of the compiled formulas is counted once
    on one set of stacked tables. When reading a diagram raises, or it
    does not fit the formulas' kind (KindMismatchError), the values of
    every diagram read before it come out first, then the error, as for a
    batch whose values could leave int64 (ValueError).
    """
    formulas = tuple(formulas)
    kinds = {p.kind for f in formulas for _, p in f.terms}
    if len(kinds) > 1:
        raise KindMismatchError("formulas mix chord and arrow patterns")
    kind = kinds.pop() if kinds else PatternKind.CHORD
    chord = kind is PatternKind.CHORD
    rule = conv.arrow_rule if chord else None
    weighted = not chord or conv.eval_mode is EvalMode.WEIGHTED
    families = _plan(formulas, conv.orientation)
    # A column of a degree-k family sums one weight per k-subset of items.
    reach = [(len(f.roles) + 1, abs(f.matrix.astype(object)).sum(axis=1))
             for f in families]

    def values():
        for batch in _batches(_fit(d, kind) for d in diagrams):
            n = max(d.n for d in batch)
            if np.any(sum(r * comb(n, k) for k, r in reach) >= 1 << 63):
                raise ValueError(f"formula values could leave int64 at n={n}")
            tables = DiagramTables(batch, rule, weighted)
            sums = np.zeros((len(formulas), len(batch)), dtype=np.int64)
            for family in families:
                sums += tables.count(family)
            yield from map(tuple, sums.T.tolist())

    return values()


def _count_pattern(p: Pattern, kind: PatternKind, d, conv: Convention) -> int:
    """One pattern counted on one diagram: the pattern counters' view of
    evaluate_many, refusing a pattern of another kind and, for chord
    patterns, an arrow diagram."""
    if p.kind is not kind:
        raise KindMismatchError(f"expected {kind.value} patterns")
    if kind is PatternKind.CHORD and isinstance(d, ArrowDiagram):
        raise KindMismatchError("chord formula needs a signed chord diagram")
    return next(evaluate_many((Formula("", ((1, p),)),), [d], conv))[0]


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
    if mode is None:
        raise ValueError("count_embeddings needs an explicit EvalMode")
    return _count_pattern(p, PatternKind.CHORD, d, Convention(eval_mode=mode))


def count_arrow_pattern(p: Pattern, d: ArrowDiagram) -> int:
    """Count sub-arrow-diagrams of the pattern's type, ignoring the base point.

    Matching is up to rotation of the circle: a k-subset of arrows counts
    when its cyclic endpoint order and arrow directions realize the pattern.
    Each match weighs the product of the matched arrow signs; sign
    constraints, when present, filter matches.
    """
    return _count_pattern(p, PatternKind.ARROW, d, Convention())


def evaluate_with_convention(
    f: Formula,
    d: SignedChordDiagram | ArrowDiagram,
    conv: Convention,
) -> int:
    """One formula's value on one diagram (see evaluate_many)."""
    return next(evaluate_many((f,), [d], conv))[0]


def count_arrow_with_convention(
    p: Pattern, d: ArrowDiagram, conv: Convention
) -> int:
    """count_arrow_pattern with the pattern read under conv's orientation."""
    return _count_pattern(p, PatternKind.ARROW, d, conv)


def evaluate_all(
    formulas: tuple[Formula, ...] | list[Formula],
    d: SignedChordDiagram | ArrowDiagram,
    conv: Convention,
) -> tuple[int, ...]:
    """Several formulas' values on one diagram (see evaluate_many)."""
    return next(evaluate_many(formulas, [d], conv))
