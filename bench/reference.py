"""Reference values for the benchmark's output checks.

Nothing here calls curveinv.counting. Small diagrams are counted term by
term with the brute-force oracle (curveinv.oracle). Large diagrams go
through a sub-diagram histogram: every pair and triple of chords is binned
by its relation word and labels with numpy, one representative diagram per
bin is counted by the oracle, and the counts are summed with the bin sizes
as weights. That is exact for patterns of 2 and 3 chords, the only sizes
the builtin formulas and the triangle pattern use.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from curveinv.diagrams import ArrowDiagram, SignedChordDiagram
from curveinv.oracle import count_arrow_pattern_oracle, count_embeddings_oracle
from curveinv.patterns import ANY, Pattern, PatternKind

SEQ, NEST, CROSS = 0, 1, 2


def switch_arrows(d: ArrowDiagram, arrow_rule: str) -> SignedChordDiagram:
    """Signed chords of an arrow diagram under an arrow rule.

    "forward_plus" keeps the sign of arrows whose tail comes first in
    base-point order and flips the others; "forward_minus" does the opposite.
    """
    chords = []
    for t, h, s in d.arrows:
        keep = (t < h) == (arrow_rule == "forward_plus")
        chords.append((min(t, h), max(t, h), s if keep else -s))
    return SignedChordDiagram(n=d.n, chords=tuple(chords))


def mirror(p: Pattern) -> Pattern:
    """The pattern read clockwise: slot x becomes 2k+1-x."""
    top = 2 * p.k + 1
    return Pattern(
        k=p.k,
        kind=p.kind,
        chords=tuple((top - a, top - b, c) for a, b, c in p.chords),
    )


def pattern_text(p: Pattern) -> str:
    """Bracketed pattern text in the formula language, e.g. [1>4,5>2,3>6]."""
    sep = "-" if p.kind is PatternKind.CHORD else ">"
    items = []
    for a, b, c in p.chords:
        suffix = "" if c == ANY else (":+" if c > 0 else ":-")
        items.append(f"{a}{sep}{b}{suffix}")
    return "[" + ",".join(items) + "]"


def torus_triangles(n: int) -> int:
    """Triangle count of the n-crossing closed 2-braid: sum of squares to m."""
    m = (n - 1) // 2
    return m * (m + 1) * (2 * m + 1) // 6


def _terms(formula, conv):
    cw = conv.orientation.value == "cw"
    return [(c, mirror(p) if cw else p) for c, p in formula.terms]


def _as_chords(d, conv) -> SignedChordDiagram:
    if isinstance(d, ArrowDiagram):
        return switch_arrows(d, conv.arrow_rule.value)
    return d


def oracle_values(formulas, d, conv) -> tuple[int, ...]:
    """Chord formula values by brute force over every subset of chords.

    Cost grows as n^3 * 3! per term, so keep this to the small seeds.
    """
    chords = _as_chords(d, conv)
    return tuple(
        sum(
            c * count_embeddings_oracle(p, chords, conv.eval_mode)
            for c, p in _terms(f, conv)
        )
        for f in formulas
    )


def _relation_codes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # Entry [i, j] is meaningful for i < j, with chords sorted by lo.
    seq = hi[:, None] < lo[None, :]
    nest = hi[None, :] < hi[:, None]
    return np.where(seq, SEQ, np.where(nest, NEST, CROSS))


def _histogram(lo, hi, labels, nlabels: int, k: int) -> np.ndarray:
    """Counts of k-subsets (k = 2 or 3) by (relation word, label tuple).

    Bin index: word * nlabels**k + label tuple, both read as base-3 and
    base-nlabels numbers with the lowest-lo chord first.
    """
    n = len(lo)
    rel = _relation_codes(lo, hi)
    size = 3 ** (k * (k - 1) // 2) * nlabels**k
    counts = np.zeros(size, dtype=np.int64)
    if k == 2:
        i, j = np.triu_indices(n, 1)
        index = rel[i, j] * nlabels**2 + labels[i] * nlabels + labels[j]
        return counts + np.bincount(index, minlength=size)
    for i in range(n - 2):
        j, m = np.triu_indices(n - i - 1, 1)
        j += i + 1
        m += i + 1
        word = (rel[i, j] * 3 + rel[i, m]) * 3 + rel[j, m]
        lab = (labels[i] * nlabels + labels[j]) * nlabels + labels[m]
        counts += np.bincount(word * nlabels**3 + lab, minlength=size)
    return counts


def _matchings_by_word(k: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """Every perfect matching of slots 1..2k, keyed by its relation word."""
    out = {}

    def rec(rest):
        if not rest:
            yield ()
            return
        a = rest[0]
        for b in rest[1:]:
            left = tuple(x for x in rest if x not in (a, b))
            for tail in rec(left):
                yield ((a, b),) + tail

    for matching in rec(tuple(range(1, 2 * k + 1))):
        chords = sorted(matching)
        word = 0
        for x, y in combinations(chords, 2):
            if x[1] < y[0]:
                code = SEQ
            elif y[1] < x[1]:
                code = NEST
            else:
                code = CROSS
            word = word * 3 + code
        out[word] = tuple(chords)
    return out


_MATCHINGS = {k: _matchings_by_word(k) for k in (2, 3)}


def _bins(index: int, k: int, nlabels: int):
    word, lab = divmod(index, nlabels**k)
    labels = []
    for _ in range(k):
        lab, x = divmod(lab, nlabels)
        labels.append(x)
    return _MATCHINGS[k].get(word), labels[::-1]


class Histogram:
    """Sub-diagram counts of one diagram, answering pattern counts exactly."""

    def __init__(self, d):
        self.arrows = isinstance(d, ArrowDiagram)
        items = sorted(d.arrows if self.arrows else d.chords,
                       key=lambda c: min(c[0], c[1]))
        self.lo = np.array([min(a, b) for a, b, _ in items], dtype=np.int64)
        self.hi = np.array([max(a, b) for a, b, _ in items], dtype=np.int64)
        labels = [int(s > 0) for _, _, s in items]
        if self.arrows:
            labels = [2 * lab + int(a < b) for (a, b, _), lab in zip(items, labels)]
        self.labels = np.array(labels, dtype=np.int64)
        self.nlabels = 4 if self.arrows else 2
        self._counts: dict[int, np.ndarray] = {}

    def _representative(self, matching, labels):
        items = []
        for (a, b), lab in zip(matching, labels):
            sign = 1 if (lab >> 1 if self.arrows else lab) else -1
            if self.arrows and not lab & 1:
                a, b = b, a
            items.append((a, b, sign))
        if self.arrows:
            return ArrowDiagram(n=len(items), arrows=tuple(items))
        return SignedChordDiagram(n=len(items), chords=tuple(items))

    def count(self, p: Pattern, mode=None) -> int:
        if p.k not in (2, 3):
            raise ValueError(f"histogram counts 2- and 3-chord patterns, not {p.k}")
        if p.k not in self._counts:
            self._counts[p.k] = _histogram(
                self.lo, self.hi, self.labels, self.nlabels, p.k
            )
        total = 0
        for index in np.flatnonzero(self._counts[p.k]):
            matching, labels = _bins(int(index), p.k, self.nlabels)
            rep = self._representative(matching, labels)
            if self.arrows:
                hit = count_arrow_pattern_oracle(p, rep)
            else:
                hit = count_embeddings_oracle(p, rep, mode)
            total += hit * int(self._counts[p.k][index])
        return total


def histogram_values(formulas, d, conv) -> tuple[int, ...]:
    """Chord formula values of a diagram of any size."""
    hist = Histogram(_as_chords(d, conv))
    return tuple(
        sum(c * hist.count(p, conv.eval_mode) for c, p in _terms(f, conv))
        for f in formulas
    )


def arrow_value(pattern: Pattern, d: ArrowDiagram, conv) -> int:
    """Count of an arrow pattern, read under the convention's orientation."""
    if conv.orientation.value == "cw":
        pattern = mirror(pattern)
    return Histogram(d).count(pattern)
