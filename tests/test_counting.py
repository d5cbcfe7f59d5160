import itertools
import math
import pickle
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from curveinv import (
    ANY,
    ArrowDiagram,
    ArrowRule,
    Convention,
    EvalMode,
    Formula,
    Orientation,
    Pattern,
    PatternKind,
    SignedChordDiagram,
    arrows_to_chords,
    builtin_chord_patterns,
    builtin_formula,
    builtin_formulas,
    gen_cabc,
    gen_torus,
    mirror_formula,
    mirror_pattern,
    parse_diagram,
    parse_pattern,
    serialize_pattern,
    triangle_candidates,
)
from curveinv import counting
from curveinv.counting import (
    KindMismatchError,
    _signature,
    count_arrow_pattern,
    count_arrow_with_convention,
    count_embeddings,
    evaluate_all,
    evaluate_many,
    evaluate_with_convention,
)
from curveinv.oracle import count_arrow_pattern_oracle, count_embeddings_oracle
from helpers import (
    perfect_matchings,
    random_arrow_diagram,
    random_chord_diagram,
    rotate_arrows,
)

ALL_INTERLEAVED_3 = parse_diagram("chords; n=3; 1-4:+ 2-5:+ 3-6:+")
CROSSED = parse_pattern("[1-3,2-4]")
PARALLEL = parse_pattern("[1-2,3-4]")
MODES = (EvalMode.CONSTRAINED, EvalMode.WEIGHTED)


def value(f, d, mode=EvalMode.WEIGHTED):
    """f's value on d, templates read counterclockwise."""
    return next(evaluate_many([f], [d], Convention(eval_mode=mode)))[0]


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
    assert value(builtin_formula("I2_1"), ALL_INTERLEAVED_3) == -3
    one = parse_diagram("chords; n=1; 1-2:+")
    assert value(builtin_formula("I2_1"), one) == 0
    assert value(builtin_formula("I3_1"), one) == 0


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


def test_kind_mismatch_rejected(frozen, conv):
    arrows = gen_torus(3).diagram
    chords = ALL_INTERLEAVED_3
    tri = frozen.triangle
    arrow_formula = Formula("T", ((1, tri),))
    chord_formula = builtin_formula("I2_1")
    w = EvalMode.WEIGHTED
    calls = [
        lambda: count_embeddings(tri, chords, w),
        lambda: count_embeddings(tri, arrows, w),
        lambda: count_embeddings(CROSSED, arrows, w),
        lambda: count_arrow_pattern(CROSSED, arrows),
        lambda: count_arrow_pattern(tri, chords),
        lambda: count_arrow_with_convention(CROSSED, arrows, conv),
        lambda: count_arrow_with_convention(tri, chords, conv),
        lambda: evaluate_with_convention(arrow_formula, chords, conv),
        lambda: evaluate_all([chord_formula, arrow_formula], arrows, conv),
        lambda: evaluate_all([arrow_formula], chords, conv),
        lambda: evaluate_all(
            [Formula("X", ((1, CROSSED), (1, tri)))], chords, conv),
        lambda: list(evaluate_many([arrow_formula], [arrows, chords], conv)),
        lambda: list(evaluate_many([chord_formula], [gen_torus(3)], conv)),
    ]
    for call in calls:
        with pytest.raises(KindMismatchError):
            call()
    with pytest.raises(ValueError, match="explicit EvalMode"):
        count_embeddings(CROSSED, chords, None)


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
        assert evaluate_with_convention(f, d, conv) == value(f, c, conv.eval_mode)


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
        assert abs(value(f, d)) <= bound


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


def _kernel_diagrams(rng, arrows=False):
    """Random diagrams of sizes below, at and above every degree (so some
    pairs meet empty intervals and some patterns do not fit at all), then
    each 3-chord matching itself, so every relation triple is realized."""
    shapes = []
    for n in (0, 1, 2, 3, 3, 4, 5, 6, 6, 7):
        slots = list(range(1, 2 * n + 1))
        rng.shuffle(slots)
        shapes.append([(slots[2 * i], slots[2 * i + 1]) for i in range(n)])
    shapes.extend(perfect_matchings(3))
    out = []
    for shape in shapes:
        items = tuple(
            (b, a, rng.choice((1, -1))) if arrows and rng.random() < 0.5
            else (a, b, rng.choice((1, -1)))
            for a, b in shape
        )
        out.append(
            ArrowDiagram(len(items), items) if arrows
            else SignedChordDiagram(len(items), items)
        )
    return out


def test_matching_enumeration_is_complete():
    assert [len(perfect_matchings(k)) for k in (1, 2, 3, 4, 5)] == [1, 3, 15, 105, 945]
    assert len(set(perfect_matchings(5))) == 945


def test_kernel_matches_oracle_on_every_signed_chord_pattern():
    rng = random.Random(407)
    diagrams = _kernel_diagrams(rng)
    patterns = [
        Pattern(k=k, kind=PatternKind.CHORD, chords=tuple(
            (a, b, c) for (a, b), c in zip(m, signs)
        ))
        for k in (1, 2, 3)
        for m in perfect_matchings(k)
        for signs in itertools.product((ANY, 1, -1), repeat=k)
    ]
    assert len(patterns) == 3 + 3 * 9 + 15 * 27
    realized = set()
    for d in diagrams:
        for mode in MODES:
            expected = [count_embeddings_oracle(p, d, mode) for p in patterns]
            got = [count_embeddings(p, d, mode) for p in patterns]
            assert got == expected, (d, mode)
            realized.update(p.chords for p, e in zip(patterns, expected) if e)
            # The compiled path: one formula over every pattern, with
            # distinct coefficients, must give the same linear combination.
            f = Formula("all", tuple((i + 1, p) for i, p in enumerate(patterns)))
            want = sum((i + 1) * e for i, e in enumerate(expected))
            assert value(f, d, mode) == want
    unconstrained = [p for p in patterns if all(c == ANY for _, _, c in p.chords)]
    assert all(p.chords in realized for p in unconstrained)


def test_kernel_matches_oracle_on_every_directed_arrow_pattern():
    rng = random.Random(408)
    diagrams = _kernel_diagrams(rng, arrows=True)
    patterns = []
    for k in (1, 2, 3):
        for m in perfect_matchings(k):
            for flips in itertools.product((False, True), repeat=k):
                chords = tuple(
                    (b, a, rng.choice((ANY, ANY, 1, -1))) if flip else (a, b, ANY)
                    for (a, b), flip in zip(m, flips)
                )
                patterns.append(Pattern(k=k, kind=PatternKind.ARROW, chords=chords))
    assert len(patterns) == 2 + 3 * 4 + 15 * 8
    for d in diagrams:
        expected = [count_arrow_pattern_oracle(p, d) for p in patterns]
        assert [count_arrow_pattern(p, d) for p in patterns] == expected, d
        f = Formula("all", tuple((i + 1, p) for i, p in enumerate(patterns)))
        assert value(f, d) == sum((i + 1) * e for i, e in enumerate(expected))


def _with_signs(rng, m, kind, constraints):
    """Matching m as a pattern of the given kind: a random direction per
    arrow, sign constraints from the given choices."""
    return Pattern(k=len(m), kind=kind, chords=tuple(
        (b, a, rng.choice(constraints))
        if kind is PatternKind.ARROW and rng.random() < 0.5
        else (a, b, rng.choice(constraints))
        for a, b in m
    ))


@pytest.mark.parametrize("k,sample", [(4, None), (5, 100)])
def test_kernel_matches_oracle_on_four_and_five_chord_matchings(k, sample):
    rng = random.Random(409 + k)
    matchings = perfect_matchings(k)
    if sample:
        matchings = rng.sample(matchings, sample)
    chord_diagrams = _kernel_diagrams(rng)
    # Seven arrows would make the rotation-searching oracle the slowest
    # part of the test suite.
    arrow_diagrams = [d for d in _kernel_diagrams(rng, arrows=True) if d.n < 7]
    realized = 0
    for m in matchings:
        p = _with_signs(rng, m, PatternKind.CHORD, (ANY, 1, -1))
        # The pattern's own matching, with signs meeting its constraints,
        # embeds it once.
        own = SignedChordDiagram(k, tuple(
            (a, b, c or rng.choice((1, -1))) for a, b, c in p.chords
        ))
        for d in chord_diagrams + [own]:
            for mode in MODES:
                want = count_embeddings_oracle(p, d, mode)
                assert count_embeddings(p, d, mode) == want, (p, d, mode)
                realized += want != 0
        if k == 4:
            p = _with_signs(rng, m, PatternKind.ARROW, (ANY, ANY, 1, -1))
            own = ArrowDiagram(k, tuple(
                (a, b, c or rng.choice((1, -1))) for a, b, c in p.chords
            ))
            for d in arrow_diagrams + [own]:
                want = count_arrow_pattern_oracle(p, d)
                assert count_arrow_pattern(p, d) == want, (p, d)
                realized += want != 0
    assert realized >= (3 if k == 4 else 2) * len(matchings)


def test_relation_vector_determines_the_matching():
    # The kernel identifies a configuration by its pairwise relations.
    for k in range(1, 6):
        matchings = perfect_matchings(k)
        assert len({_signature(m) for m in matchings}) == len(matchings)


def test_steps_and_ends_determine_the_matching():
    # _based_counts tells rotations of an arrow pattern apart by them.
    total = 0
    for k in range(1, 6):
        matchings = perfect_matchings(k)
        terms = [
            counting._term(Pattern(k=k, kind=PatternKind.CHORD, chords=tuple(
                (a, b, ANY) for a, b in m
            )))
            for m in matchings
        ]
        assert len({(t.steps, t.ends) for t in terms}) == len(matchings)
        total += len(matchings)
    assert total == 1069


def test_rotations_that_meet_no_sign_vector_add_no_overlap_term():
    # Rotating [1>2:+,3>4:-] by two slots gives [1>2:-,3>4:+]: the same
    # shape with constraints no arrow pair meets, so its count is the plain
    # sum of the four rotations' based counts.
    p = parse_pattern("[1>2:+,3>4:-]")
    assert counting._meet(((1, -1), (-1, 1))) is None
    assert [m for _, m in counting._based_counts(p)] == [1, 1, 1, 1]
    rng = random.Random(431)
    for _ in range(300):
        d = random_arrow_diagram(rng)
        assert count_arrow_pattern(p, d) == count_arrow_pattern_oracle(p, d), d


@pytest.mark.parametrize("k,n,expected", [(4, 201, 65998350), (5, 61, 5949147)])
def test_all_crossing_pattern_counts_every_subset_of_a_torus_diagram(
    k, n, expected, conv
):
    # Every two chords of torus(n) cross, so each k-subset realizes the
    # all-crossing k-chord pattern once: C(n, k) embeddings.
    assert math.comb(n, k) == expected
    d = arrows_to_chords(gen_torus(n).diagram, conv)
    p = parse_pattern(
        "[" + ",".join(f"{i}-{i + k}" for i in range(1, k + 1)) + "]"
    )
    start = time.perf_counter()
    got = count_embeddings(p, d, EvalMode.CONSTRAINED)
    elapsed = time.perf_counter() - start
    assert got == expected
    assert elapsed < 10.0


def test_degree_five_count_grows_tuples_in_blocks(conv):
    # Roles 2..5 have C(100, 4) = 3,921,225 realizations on torus(101);
    # held at once they take about 350 MB, one block at a time about 10 MB.
    d = arrows_to_chords(gen_torus(101).diagram, conv)
    p = parse_pattern("[1-6,2-7,3-8,4-9,5-10]")
    tracemalloc.start()
    try:
        got = count_embeddings(p, d, EvalMode.CONSTRAINED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == math.comb(101, 5)
    assert peak < 32 * 2**20


def test_prefix_tables_take_one_column_per_item(formulas, conv):
    # Role-1 tables have m + 1 columns (hi ranks), not 2m + 2 (slots): the
    # six builtins peak near 33 m^2 traced bytes, slot-wide tables near 45.
    d = gen_torus(401).diagram
    m = d.n + 1
    tracemalloc.start()
    try:
        got = evaluate_all(formulas, d, conv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (200, -200, 0, 0, 0, -200)
    assert peak < 40 * m * m


def test_thousand_chord_evaluation(formulas, conv):
    cd = gen_cabc(0, 250, 250)
    assert cd.diagram.n == 1000
    start = time.perf_counter()
    vec = evaluate_all(formulas, cd.diagram, conv)
    elapsed = time.perf_counter() - start
    assert vec == (0, 0, 250, 0, 0, 0)
    assert 2 * vec[0] == cd.rot**2 - cd.jplus
    assert elapsed < 10.0


def test_thousand_arrow_triangle_count(frozen):
    d = gen_torus(1001).diagram
    start = time.perf_counter()
    got = count_arrow_pattern(frozen.triangle, d)
    elapsed = time.perf_counter() - start
    m = 500
    assert got == m * (m + 1) * (2 * m + 1) // 6
    assert elapsed < 10.0


CONVENTIONS = [
    Convention(o, r, m)
    for o in Orientation for r in ArrowRule for m in EvalMode
]


@st.composite
def _any_diagram(draw):
    """A chord or arrow diagram of 0..7 items with random signs."""
    n = draw(st.integers(min_value=0, max_value=7))
    slots = draw(st.permutations(range(1, 2 * n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    items = tuple(
        (slots[2 * i], slots[2 * i + 1], signs[i]) for i in range(n)
    )
    if draw(st.booleans()):
        return ArrowDiagram(n, items)
    return SignedChordDiagram(n, items)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_any_diagram(), max_size=12),
    st.sampled_from(CONVENTIONS),
)
def test_evaluate_many_matches_evaluate_all_per_diagram(ds, conv):
    # Mixed sizes in one batch: n = 0, diagrams smaller than a degree-3
    # pattern, and diagrams padded to the largest one.
    formulas = tuple(
        builtin_formula(name) for name in ("I2_1", "I3_1", "I3_4", "I3_5")
    )
    assert list(evaluate_many(formulas, ds, conv)) == [
        evaluate_all(formulas, d, conv) for d in ds
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(_any_diagram(), max_size=12))
def test_tables_read_arrows_as_the_explicit_switch_does(ds):
    # The tables switch arrow rows in place; the reference switches each
    # arrow diagram to a chord diagram first, so a wrong flip (inverted,
    # or applied to chord rows) shows here.
    formulas = builtin_formulas()
    for conv in CONVENTIONS:
        assert list(evaluate_many(formulas, ds, conv)) == [
            evaluate_all(formulas, arrows_to_chords(d, conv), conv)
            if isinstance(d, ArrowDiagram) else evaluate_all(formulas, d, conv)
            for d in ds
        ]


def test_evaluate_many_of_no_diagrams(formulas, conv):
    assert list(evaluate_many(formulas, [], conv)) == []


def _then_raise(ds, error):
    yield from ds
    raise error


@pytest.mark.parametrize("failure", ["read raises", "wrong kind"])
@pytest.mark.parametrize("batches", [1, 2])
def test_evaluate_many_yields_values_before_a_failing_diagram(
    monkeypatch, frozen, conv, failure, batches
):
    # The failing input comes in the first batch, or after a boundary
    # (the budget holds torus(3), torus(5) and torus(7): m = 8, 3 * 64).
    monkeypatch.setattr(counting, "_BATCH_ELEMENTS", 3 * 8 * 8)
    ds = [gen_torus(k).diagram for k in (3, 5, 7, 3, 5)][:2 + batches]
    fs = [Formula("T", ((1, frozen.triangle),)),
          Formula("W", ((1, parse_pattern("[1>3,4>2]")),))]
    if failure == "read raises":
        source, error = _then_raise(ds, OSError("unreadable")), OSError
    else:
        source, error = iter([*ds, ALL_INTERLEAVED_3]), KindMismatchError
    built = []
    init = counting.DiagramTables.__init__

    def recording(self, diagrams, rule, weighted):
        built.append(len(diagrams))
        init(self, diagrams, rule, weighted)

    monkeypatch.setattr(counting.DiagramTables, "__init__", recording)
    got = []
    with pytest.raises(error):
        for row in evaluate_many(fs, source, conv):
            got.append(row)
    assert len(built) == batches
    monkeypatch.undo()
    assert got == [
        tuple(count_arrow_pattern_oracle(f.terms[0][1], d) for f in fs)
        for d in ds
    ]


def test_evaluate_many_checks_formulas_before_reading_a_diagram(frozen, conv):
    read = []

    def diagrams():
        read.append(True)
        yield ALL_INTERLEAVED_3

    tri = Formula("T", ((1, frozen.triangle),))
    with pytest.raises(KindMismatchError, match="mix chord and arrow"):
        evaluate_many([builtin_formula("I2_1"), tri], diagrams(), conv)
    with pytest.raises(ValueError, match="invalid pattern"):
        evaluate_many([Formula("X", ((1, SHORT_CHORDS),))], diagrams(), conv)
    assert read == []


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_named_counters_are_views_of_evaluate_many(conv):
    rng = random.Random(432)
    chords = [random_chord_diagram(rng, max_n=6) for _ in range(6)]
    arrows = [random_arrow_diagram(rng, max_n=6) for _ in range(6)]
    chord_patterns = builtin_chord_patterns()
    arrow_patterns = (*triangle_candidates(), parse_pattern("[1>3:-,4>2]"))

    def many(patterns, ds):
        fs = [Formula("", ((1, p),)) for p in patterns]
        return list(evaluate_many(fs, ds, conv))

    def rows(count, patterns, ds):
        return [tuple(count(p, d) for p in patterns) for d in ds]

    # The pattern counters read templates counterclockwise.
    cw = conv.orientation is Orientation.CW
    read = mirror_pattern if cw else (lambda p: p)
    assert rows(
        lambda p, d: count_embeddings(read(p), d, conv.eval_mode),
        chord_patterns, chords,
    ) == many(chord_patterns, chords)
    want = many(arrow_patterns, arrows)
    assert rows(
        lambda p, d: count_arrow_pattern(read(p), d), arrow_patterns, arrows
    ) == want
    assert rows(
        lambda p, d: count_arrow_with_convention(p, d, conv),
        arrow_patterns, arrows,
    ) == want
    arrow_formulas = [Formula("A", tuple(
        (i + 1, p) for i, p in enumerate(arrow_patterns)
    ))]
    for fs, ds in ((builtin_formulas(), chords + arrows),
                   (arrow_formulas, arrows)):
        want = list(evaluate_many(fs, ds, conv))
        assert [evaluate_all(fs, d, conv) for d in ds] == want
        assert [
            tuple(evaluate_with_convention(f, d, conv) for f in fs)
            for d in ds
        ] == want


def test_batched_four_and_five_chord_counts_match_oracle():
    # One batch holds diagrams of 0 to 7 items, so some are smaller than
    # every pattern, plus a diagram embedding each pattern once.
    rng = random.Random(430)
    patterns = [
        _with_signs(rng, m, PatternKind.CHORD, (ANY, 1, -1))
        for k in (4, 5) for m in rng.sample(perfect_matchings(k), 6)
    ]
    ds = _kernel_diagrams(rng)[:10] + [
        SignedChordDiagram(p.k, tuple(
            (a, b, c or rng.choice((1, -1))) for a, b, c in p.chords
        ))
        for p in patterns[::3]
    ]
    rng.shuffle(ds)
    fs = [Formula(f"P{i}", ((1, p),)) for i, p in enumerate(patterns)]
    for mode in MODES:
        conv = Convention(Orientation.CCW, ArrowRule.FORWARD_PLUS, mode)
        want = [
            tuple(count_embeddings_oracle(p, d, mode) for p in patterns)
            for d in ds
        ]
        assert sum(v != 0 for row in want for v in row) >= len(patterns[::3])
        assert list(evaluate_many(fs, ds, conv)) == want
    arrow_patterns = [
        _with_signs(rng, m, PatternKind.ARROW, (ANY, ANY, 1, -1))
        for m in rng.sample(perfect_matchings(4), 6)
    ]
    arrows = [d for d in _kernel_diagrams(rng, arrows=True) if d.n < 7]
    arrow_formulas = tuple(
        Formula(f"A{i}", ((1, p),)) for i, p in enumerate(arrow_patterns)
    )
    got = evaluate_many(arrow_formulas, arrows, Convention())
    assert list(got) == [
        tuple(count_arrow_pattern_oracle(p, d) for p in arrow_patterns)
        for d in arrows
    ]


def test_evaluate_many_splits_input_by_element_budget(
    monkeypatch, formulas, conv
):
    built = []
    init = counting.DiagramTables.__init__

    def recording(self, diagrams, rule, weighted):
        built.append([d.n for d in diagrams])
        init(self, diagrams, rule, weighted)

    monkeypatch.setattr(counting.DiagramTables, "__init__", recording)
    # 30 diagrams of 12 to 50 chords, then one whose own padded codes
    # exceed the budget.
    ds = [gen_cabc(r, b, b).diagram for r in range(3) for b in range(3, 13)]
    ds.append(gen_cabc(0, 66, 66).diagram)
    assert (ds[-1].n + 1) ** 2 > counting._BATCH_ELEMENTS
    values = list(evaluate_many(formulas, ds, conv))
    assert len(built) > 2
    assert [n for batch in built for n in batch] == [d.n for d in ds]
    assert built[-1] == [ds[-1].n]
    for batch in built[:-1]:
        m = max(batch) + 1
        assert len(batch) * m * m <= counting._BATCH_ELEMENTS
    monkeypatch.undo()
    assert values == [evaluate_all(formulas, d, conv) for d in ds]


def test_int64_refusal_bounds_by_subsets_not_powers(conv):
    # A column of a degree-k family sums one weight per k-subset of items:
    # 8 disjoint chords in torus(241), whose chords all cross, count 0 and
    # are not refused, though 241^8 exceeds int64. A coefficient whose
    # subset bound reaches 2^63 is refused before any table is built.
    p = parse_pattern("[1-2,3-4,5-6,7-8,9-10,11-12,13-14,15-16]")
    torus = gen_torus(241).diagram
    assert 241**8 >= 1 << 63
    assert evaluate_all([Formula("X", ((1, p),))], torus, conv) == (0,)
    huge = (1 << 63) // math.comb(241, 8) + 1
    with pytest.raises(ValueError, match="could leave int64 at n=241"):
        evaluate_all([Formula("X", ((huge, p),))], torus, conv)


def test_formulas_pickle_to_values_that_find_their_plan(formulas, conv):
    # The plan cache is keyed by the formulas' value hash, which is
    # computed afresh in each process, never stored with the value.
    counting._plan(formulas, conv.orientation)
    back = pickle.loads(pickle.dumps(formulas))
    assert back == formulas and back is not formulas
    assert [hash(f) for f in back] == [hash(f) for f in formulas]
    hits = counting._plan.cache_info().hits
    counting._plan(back, conv.orientation)
    assert counting._plan.cache_info().hits == hits + 1


def test_counting_a_pattern_again_compiles_nothing(monkeypatch):
    patterns = [
        Pattern(k=3, kind=PatternKind.CHORD, chords=tuple(
            (a, b, c) for (a, b), c in zip(m, signs)
        ))
        for m in perfect_matchings(3)
        for signs in itertools.product((ANY, 1, -1), repeat=3)
    ]
    assert len(patterns) == 405
    d = parse_diagram("chords; n=5; 1-4:+ 2-7:- 3-5:+ 6-9:- 8-10:+")
    compiled = []
    based_counts = counting._based_counts

    def recording(p):
        compiled.append(p)
        return based_counts(p)

    monkeypatch.setattr(counting, "_based_counts", recording)
    first = [count_embeddings(p, d, EvalMode.WEIGHTED) for p in patterns]
    compiled.clear()
    again = [count_embeddings(p, d, EvalMode.WEIGHTED) for p in patterns]
    assert again == first
    assert compiled == []


SHORT_CHORDS = Pattern(k=2, kind=PatternKind.CHORD, chords=((1, 2, ANY),))
BAD_SIGN_ARROWS = Pattern(
    k=2, kind=PatternKind.ARROW, chords=((1, 3, ANY), (4, 2, 5))
)


@pytest.mark.parametrize("count,p,d", [
    (lambda p, d: count_embeddings(p, d, EvalMode.WEIGHTED),
     SHORT_CHORDS, ALL_INTERLEAVED_3),
    (lambda p, d: evaluate_all(
        [Formula("X", ((1, CROSSED), (2, p)))], d, Convention()
    ), SHORT_CHORDS, ALL_INTERLEAVED_3),
    (count_arrow_pattern, BAD_SIGN_ARROWS, gen_torus(3).diagram),
    (lambda p, d: count_arrow_with_convention(
        p, d, Convention(Orientation.CW)
    ), BAD_SIGN_ARROWS, gen_torus(3).diagram),
])
def test_hand_built_invalid_patterns_are_refused_before_compiling(count, p, d):
    # Every counter compiles through _plan, which refuses an invalid
    # pattern with serialize_pattern's text; the first pattern once raised
    # a KeyError inside the compiler.
    with pytest.raises(ValueError) as want:
        serialize_pattern(p)
    with pytest.raises(ValueError) as got:
        count(p, d)
    assert got.type is ValueError
    assert str(got.value) == str(want.value)
    assert str(got.value) in (
        "invalid pattern: expected 2 chords, found 1; slot 3 unused; "
        "slot 4 unused",
        "invalid pattern: bad sign constraint 5",
    )


def test_i3_4_compiles_to_one_top_column_per_family():
    # 6 * I3_4 = S - S^3 in the kernel's form: its 21 terms telescope to
    # one column per family, each reading role 1's items below the top.
    f = builtin_formula("I3_4")
    assert len(f.terms) == 21
    for orientation in Orientation:
        families = counting._plan((f,), orientation)
        assert len(families) == 5
        for family in families:
            assert len(family.columns) == 1
            assert family.columns[0][2] == counting.TOP
            assert family.matrix.shape == (1, 1)


def test_six_builtins_count_each_family_once_per_batch(
    monkeypatch, formulas, conv
):
    # 53 terms, 25 distinct based patterns, 6 tuple families: a batch of
    # calibrate-sized diagrams makes one kernel call per family.
    based = {
        t for f in formulas for _, p in f.terms
        for t, _ in counting._based_counts(p)
    }
    assert sum(len(f.terms) for f in formulas) == 53 and len(based) == 25
    assert len(counting._plan(tuple(formulas), conv.orientation)) == 6
    rng = random.Random(624)
    ds = [random_arrow_diagram(rng, max_n=7) for _ in range(20)]
    calls = []
    count = counting.DiagramTables.count

    def recording(self, family):
        calls.append(self.batch)
        return count(self, family)

    monkeypatch.setattr(counting.DiagramTables, "count", recording)
    values = list(evaluate_many(formulas, ds, conv))
    assert calls == [len(ds)] * 6
    monkeypatch.undo()
    assert values == [
        tuple(
            sum(c * count_embeddings_oracle(p, arrows_to_chords(d, conv),
                                            conv.eval_mode)
                for c, p in f.terms)
            for f in formulas
        )
        for d in ds
    ]
