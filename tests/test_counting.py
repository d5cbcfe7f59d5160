import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from curveinv import (
    ANY,
    ArrowDiagram,
    ArrowRule,
    Convention,
    EvalMode,
    Orientation,
    Pattern,
    PatternKind,
    SignedChordDiagram,
    arrows_to_chords,
    builtin_chord_patterns,
    builtin_formula,
    gen_cabc,
    gen_torus,
    mirror_formula,
    parse_diagram,
    parse_pattern,
    triangle_candidates,
)
from curveinv.counting import (
    KindMismatchError,
    count_arrow_pattern,
    count_embeddings,
    evaluate,
    evaluate_all,
    evaluate_with_convention,
)
from curveinv.oracle import count_arrow_pattern_oracle, count_embeddings_oracle
from helpers import random_arrow_diagram, random_chord_diagram, rotate_arrows

ALL_INTERLEAVED_3 = parse_diagram("chords; n=3; 1-4:+ 2-5:+ 3-6:+")
CROSSED = parse_pattern("[1-3,2-4]")
PARALLEL = parse_pattern("[1-2,3-4]")
MODES = (EvalMode.CONSTRAINED, EvalMode.WEIGHTED)


@pytest.mark.parametrize("mode", MODES)
def test_crossed_pairs_in_interleaved_diagram(mode):
    assert count_embeddings(CROSSED, ALL_INTERLEAVED_3, mode) == 3


@pytest.mark.parametrize("mode", MODES)
def test_parallel_pairs_absent_from_interleaved_diagram(mode):
    assert count_embeddings(PARALLEL, ALL_INTERLEAVED_3, mode) == 0


@pytest.mark.parametrize("mode", MODES)
def test_pattern_larger_than_diagram_counts_zero(mode):
    p = parse_pattern("[1-2,3-4,5-6]")
    d = SignedChordDiagram(n=2, chords=((1, 2, 1), (3, 4, -1)))
    assert count_embeddings(p, d, mode) == 0


@pytest.mark.parametrize("mode", MODES)
def test_empty_diagram_counts_zero(mode):
    d = SignedChordDiagram(n=0, chords=())
    assert count_embeddings(CROSSED, d, mode) == 0


def test_sign_constraints_filter():
    d = parse_diagram("chords; n=2; 1-3:+ 2-4:-")
    assert count_embeddings(parse_pattern("[1-3:+,2-4:-]"), d, EvalMode.CONSTRAINED) == 1
    assert count_embeddings(parse_pattern("[1-3:-,2-4:+]"), d, EvalMode.CONSTRAINED) == 0
    # Unconstrained chords weight by the matched signs.
    assert count_embeddings(CROSSED, d, EvalMode.WEIGHTED) == -1
    assert count_embeddings(CROSSED, d, EvalMode.CONSTRAINED) == 1


def test_evaluate_known_small_values():
    assert evaluate(builtin_formula("I2_1"), ALL_INTERLEAVED_3, EvalMode.WEIGHTED) == -3
    one = parse_diagram("chords; n=1; 1-2:+")
    assert evaluate(builtin_formula("I2_1"), one, EvalMode.WEIGHTED) == 0
    assert evaluate(builtin_formula("I3_1"), one, EvalMode.WEIGHTED) == 0


def test_base_point_sensitivity():
    # Rotating the labels by one slot turns a nested pair into a
    # sequential one, so based counts must differ.
    nested = SignedChordDiagram(n=2, chords=((1, 4, 1), (2, 3, 1)))
    rotated = SignedChordDiagram(n=2, chords=((1, 2, 1), (3, 4, 1)))
    assert count_embeddings(PARALLEL, nested, EvalMode.WEIGHTED) == 0
    assert count_embeddings(PARALLEL, rotated, EvalMode.WEIGHTED) == 1


def test_mode_agreement_on_positive_diagrams():
    rng = random.Random(11)
    patterns = [p for p in builtin_chord_patterns() if all(c[2] == 0 for c in p.chords)]
    for _ in range(30):
        d = random_chord_diagram(rng, max_n=7)
        d = SignedChordDiagram(n=d.n, chords=tuple((a, b, 1) for a, b, _ in d.chords))
        for p in patterns:
            assert count_embeddings(p, d, EvalMode.CONSTRAINED) == count_embeddings(
                p, d, EvalMode.WEIGHTED
            )


def test_engine_matches_oracle_on_random_diagrams():
    rng = random.Random(404)
    patterns = builtin_chord_patterns()
    for _ in range(120):
        d = random_chord_diagram(rng)
        for p in patterns:
            for mode in MODES:
                assert count_embeddings(p, d, mode) == count_embeddings_oracle(
                    p, d, mode
                )


def test_arrow_engine_matches_oracle_on_random_diagrams():
    rng = random.Random(405)
    for _ in range(60):
        d = random_arrow_diagram(rng, max_n=7)
        for p in triangle_candidates():
            assert count_arrow_pattern(p, d) == count_arrow_pattern_oracle(p, d)
        for text in ("[1>2]", "[2>1]", "[1>3,4>2]", "[1-2]", None):
            if text and ">" in text:
                p = parse_pattern(text)
                assert count_arrow_pattern(p, d) == count_arrow_pattern_oracle(p, d)


@pytest.mark.parametrize("n,expected", [(3, 1), (5, 5), (7, 14)])
def test_triangle_counts_on_torus_diagrams(n, expected, frozen):
    assert count_arrow_pattern(frozen.triangle, gen_torus(n).diagram) == expected


def test_triangle_count_ignores_base_position(frozen):
    # Arrow-pattern counting is over cyclic placements, so moving the
    # base point never changes it (unlike chord-pattern counting).
    d = gen_torus(5).diagram
    counts = {count_arrow_pattern(frozen.triangle, rotate_arrows(d, s)) for s in range(10)}
    assert counts == {5}


def test_three_arrow_pattern_on_two_arrow_diagram(frozen):
    d = ArrowDiagram(n=2, arrows=((1, 3, 1), (2, 4, 1)))
    assert count_arrow_pattern(frozen.triangle, d) == 0


def test_kind_mismatch_rejected(frozen):
    with pytest.raises(KindMismatchError):
        count_embeddings(frozen.triangle, ALL_INTERLEAVED_3, EvalMode.WEIGHTED)
    with pytest.raises(KindMismatchError):
        count_arrow_pattern(CROSSED, gen_torus(3).diagram)


def test_evaluate_with_convention_mirrors_for_clockwise(formulas):
    d = gen_cabc(2, 1, 1).diagram
    ccw = Convention(orientation=Orientation.CCW)
    cw = Convention(orientation=Orientation.CW)
    for f in formulas:
        direct = evaluate_with_convention(mirror_formula(f), d, ccw)
        assert evaluate_with_convention(f, d, cw) == direct


def test_evaluate_with_convention_converts_arrows(formulas, conv):
    d = gen_cabc(2, 1, 1).diagram
    c = arrows_to_chords(d, conv)
    for f in formulas:
        assert evaluate_with_convention(f, d, conv) == evaluate(f, c, conv.eval_mode)


def test_evaluate_all_matches_single_evaluation(formulas, conv):
    for cd in (gen_cabc(2, 1, 1), gen_cabc(3, 2, 1), gen_torus(5)):
        vec = evaluate_all(formulas, cd.diagram, conv)
        assert vec == tuple(
            evaluate_with_convention(f, cd.diagram, conv) for f in formulas
        )


FROZEN_VECTORS = {
    "cabc(0,0,0)": (0, 0, 0, 0, 0, 0),
    "cabc(1,0,0)": (0, 0, 0, 0, 0, 0),
    "cabc(0,1,0)": (1, 0, 1, 0, 0, 0),
    "cabc(0,0,1)": (-1, 0, 0, 0, 0, 0),
    "cabc(1,1,1)": (0, 0, 1, 0, 0, 0),
    "cabc(2,1,1)": (1, 0, 1, 0, 1, 1),
    "cabc(3,2,1)": (4, -4, 2, 0, 4, 4),
    "torus(3)": (1, -1, 0, 0, 0, -1),
    "torus(5)": (2, -2, 0, 0, 0, -2),
    "torus(7)": (3, -3, 0, 0, 0, -3),
}


def test_frozen_regression_vectors(formulas, conv):
    builders = {"cabc": gen_cabc, "torus": gen_torus}
    for label, expected in FROZEN_VECTORS.items():
        name, args = label[:-1].split("(")
        cd = builders[name](*(int(x) for x in args.split(",")))
        assert evaluate_all(formulas, cd.diagram, conv) == expected, label


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_monotone_bound(seed):
    rng = random.Random(seed)
    d = random_chord_diagram(rng, max_n=7)
    for name in ("I2_1", "I3_2", "I3_4"):
        f = builtin_formula(name)
        bound = sum(abs(c) * math.comb(d.n, p.k) for c, p in f.terms)
        assert abs(evaluate(f, d, EvalMode.WEIGHTED)) <= bound


FOUR_CHORD_PATTERNS = (
    "[1-2,3-4,5-6,7-8]",
    "[1-8,2-7,3-6,4-5]",
    "[1-5,2-6,3-7,4-8]",
    "[1-3:+,2-4,5-7:-,6-8]",
    "[1-6,2-3:-,4-8:+,5-7]",
)
FOUR_ARROW_PATTERNS = (
    "[1>5,6>2,3>7,8>4]",
    "[2>1,4>3,5>6,8>7]",
    "[1>8:+,7>2,3>6:-,5>4]",
    "[3>1,2>5,6>4,7>8]",
)


def _sub_pattern(rng, items, kind):
    """A 4-chord pattern read off a random 4-subset of a diagram, so that
    the diagram embeds it at least once; sign constraints drawn at random."""
    subset = rng.sample(items, 4)
    slots = sorted(x for a, b, _ in subset for x in (a, b))
    rank = {x: i + 1 for i, x in enumerate(slots)}
    chords = tuple(
        (rank[a], rank[b], rng.choice((ANY, s, -s))) for a, b, s in subset
    )
    return Pattern(k=4, kind=kind, chords=chords)


def test_four_chord_counts_match_oracle_on_random_diagrams():
    rng = random.Random(406)
    chord_patterns = [parse_pattern(t) for t in FOUR_CHORD_PATTERNS]
    arrow_patterns = [parse_pattern(t) for t in FOUR_ARROW_PATTERNS]
    for _ in range(60):
        d = random_chord_diagram(rng, max_n=7)
        a = random_arrow_diagram(rng, max_n=7)
        extra_chord = [
            _sub_pattern(rng, d.chords, PatternKind.CHORD) for _ in range(2)
        ] if d.n >= 4 else []
        extra_arrow = [
            _sub_pattern(rng, a.arrows, PatternKind.ARROW) for _ in range(2)
        ] if a.n >= 4 else []
        for p in chord_patterns + extra_chord:
            for mode in MODES:
                assert count_embeddings(p, d, mode) == count_embeddings_oracle(
                    p, d, mode
                )
        for p in arrow_patterns + extra_arrow:
            assert count_arrow_pattern(p, a) == count_arrow_pattern_oracle(p, a)
