"""Diagram families: the three-parameter curve grid, torus braids, and
move-derived equivalents.

A curve diagram records the arrow data plus the two whole-curve integers
(rotation number, based tangency invariant) the family fixes by
construction.
"""

from __future__ import annotations

import random

from .diagrams import ArrowDiagram, CurveDiagram
from .moves import INVARIANCE_KINDS, STOPPED_EARLY, logged_walk, random_site


def gen_cabc(a: int, b: int, c: int) -> CurveDiagram:
    """Curve with a curls, b crossed digons, and c opposing curl pairs.

    Blocks sit side by side along the circle in that order. Every crossing
    is positive. Metadata: rot = a, jplus = a - 2b + 2c.

    Args:
        a: number of single-curl blocks (2 slots each, 1 arrow).
        b: number of crossed-digon blocks (4 slots each, 2 arrows).
        c: number of curl-pair blocks (4 slots each, 2 arrows).
    """
    if min(a, b, c) < 0:
        raise ValueError("block counts must be nonnegative")
    arrows: list[tuple[int, int, int]] = []
    t = 1
    for _ in range(a):
        arrows.append((t + 1, t, 1))
        t += 2
    for _ in range(b):
        arrows.append((t, t + 2, 1))
        arrows.append((t + 3, t + 1, 1))
        t += 4
    for _ in range(c):
        arrows.append((t + 1, t, 1))
        arrows.append((t + 2, t + 3, 1))
        t += 4
    d = ArrowDiagram(n=a + 2 * b + 2 * c, arrows=tuple(arrows))
    return CurveDiagram(
        diagram=d,
        rot=a,
        jplus=a - 2 * b + 2 * c,
        provenance=f"cabc({a},{b},{c})",
    )


def gen_torus(n: int) -> CurveDiagram:
    """Standard n-crossing closed 2-braid diagram, n odd and >= 3.

    Slot i meets slot i+n for i = 1..n; all crossings positive; the braid
    alternation makes consecutive arrows point opposite ways.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    arrows = tuple(
        (i, i + n, 1) if i % 2 == 1 else (i + n, i, 1)
        for i in range(1, n + 1)
    )
    return CurveDiagram(
        diagram=ArrowDiagram(n=n, arrows=arrows),
        rot=2,
        jplus=None,
        provenance=f"torus({n})",
    )


def gen_equivalent(
    seed: CurveDiagram,
    rng_seed,
    num_moves: int,
    kinds=INVARIANCE_KINDS,
) -> tuple[CurveDiagram, list[str]]:
    """Walk num_moves random moves from seed; returns the result and a log.

    Only value-preserving kinds are allowed, so rot/jplus metadata carries
    over unchanged. If no enabled kind applies the walk stops early with a
    note in the log. replay(seed.diagram, log) reproduces the output.
    """
    if num_moves < 0:
        raise ValueError(f"num_moves must be >= 0, got {num_moves}")
    for k in kinds:
        if k not in INVARIANCE_KINDS:
            raise ValueError(f"kind {k.value} is not equivalence-preserving")
    rng = random.Random(str(rng_seed))
    d, log = logged_walk(seed.diagram, rng, num_moves, random_site, kinds)
    applied = len(log) - log.count(STOPPED_EARLY)
    return (
        CurveDiagram(
            diagram=d,
            rot=seed.rot,
            jplus=seed.jplus,
            provenance=f"{seed.provenance}+{applied}moves",
        ),
        log,
    )
