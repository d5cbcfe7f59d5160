import functools
import importlib.resources as resources
import itertools
import random

import pytest

from curveinv import (
    ArrowRule,
    Calibration,
    CalibrationReport,
    Convention,
    EvalMode,
    Formula,
    Orientation,
    SignedChordDiagram,
    arrows_to_chords,
    builtin_chord_patterns,
    builtin_formula,
    builtin_formulas,
    calibrate,
    count_arrow_pattern,
    count_arrow_with_convention,
    default_fuzz_seeds,
    evaluate_all,
    evaluate_many,
    frozen_calibration,
    fuzz_invariance,
    gen_cabc,
    gen_torus,
    parse_formula,
    random_site_balanced,
    serialize_formula,
    triangle_candidates,
)
from curveinv.moves import walk
from helpers import perfect_matchings

NAMES = ("I2_1", "I3_1", "I3_2", "I3_3", "I3_4", "I3_5")
TERM_COUNTS = {"I2_1": 2, "I3_1": 8, "I3_2": 6, "I3_3": 6, "I3_4": 21, "I3_5": 10}


def test_formula_names_and_order():
    assert tuple(f.name for f in builtin_formulas()) == NAMES


@pytest.mark.parametrize("name,count", sorted(TERM_COUNTS.items()))
def test_term_counts(name, count):
    assert len(builtin_formula(name).terms) == count


def test_I3_1_terms_all_unconstrained_three_chord():
    for _, p in builtin_formula("I3_1").terms:
        assert p.k == 3
        assert all(c[2] == 0 for c in p.chords)


def test_I3_4_term_breakdown():
    signed2 = [p for _, p in builtin_formula("I3_4").terms if p.k == 2]
    plain3 = [p for _, p in builtin_formula("I3_4").terms if p.k == 3]
    assert len(signed2) == 6 and len(plain3) == 15
    assert all(all(c[2] != 0 for c in p.chords) for p in signed2)
    assert all(all(c[2] == 0 for c in p.chords) for p in plain3)


def test_registry_transcription_is_byte_stable():
    # The shipped data file is the reviewable source of truth; the parsed
    # formulas must print back to exactly its non-comment lines.
    text = (
        resources.files("curveinv").joinpath("data/formulas.txt").read_text()
    )
    lines = [
        line for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert lines == [serialize_formula(f) for f in builtin_formulas()]


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        builtin_formula("I9_9")


@pytest.mark.parametrize(
    "alias,name",
    [("I_{2,1}", "I2_1"), ("I_{3,4}", "I3_4"), ("I_{2,3,2}", "I3_2")],
)
def test_aliases_resolve(alias, name):
    assert builtin_formula(alias) is builtin_formula(name)


def test_builtin_chord_patterns_deduplicate():
    patterns = builtin_chord_patterns()
    assert len(patterns) == len(set(patterns)) == 25
    total = sum(len(f.terms) for f in builtin_formulas())
    assert total == 53


def test_triangle_candidates_shape():
    cands = triangle_candidates()
    assert len(cands) == 8
    assert len(set(cands)) == 8
    for p in cands:
        assert p.k == 3
        assert {tuple(sorted(c[:2])) for c in p.chords} == {(1, 4), (2, 5), (3, 6)}


def test_some_candidate_counts_one_on_smallest_torus():
    d = gen_torus(3).diagram
    assert 1 in {count_arrow_pattern(p, d) for p in triangle_candidates()}


def test_calibrate_rejects_empty_seeds():
    for seeds in ([], iter([])):
        with pytest.raises(ValueError, match="seeds must be nonempty"):
            calibrate(seeds, trials=10, rng_seed=0)


def test_calibrate_reads_an_iterator_of_seeds_once():
    # Every convention walks every seed, so an iterator must not be used
    # up by the first one.
    seeds = default_fuzz_seeds()
    report = calibrate(iter(seeds), trials=20, rng_seed="0")
    assert report == calibrate(seeds, trials=20, rng_seed="0")
    assert len(report.survivors) == 8


def test_calibrate_rejects_negative_trials():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        calibrate([gen_cabc(1, 1, 1)], trials=-3, rng_seed=0)


def test_calibrate_zero_trials_flags_insufficient_evidence():
    report = calibrate([gen_cabc(1, 1, 1)], trials=0, rng_seed=0)
    assert report.insufficient_evidence
    assert report.configurations == 64
    # Only the torus-count criterion filters: both eval modes survive.
    assert len(report.survivors) == 16
    assert "insufficient evidence" in report.format()


def test_zero_move_walks_evaluate_nothing(monkeypatch, formulas, conv):
    from curveinv import counting

    built = []
    init = counting.DiagramTables.__init__

    def recording(self, diagrams, rule, weighted):
        built.append(rule)
        init(self, diagrams, rule, weighted)

    monkeypatch.setattr(counting.DiagramTables, "__init__", recording)
    seeds = default_fuzz_seeds()
    report = calibrate(seeds, trials=0, rng_seed="0")
    # Only the triangle gate counts, one arrow batch per orientation: a
    # walk without moves evaluates no start diagram.
    assert built == [None, None]
    survivors = [
        f"  orientation={o}; arrow_rule={r}; eval_mode={m}; triangle={t}"
        for o in ("ccw", "cw")
        for r in ("forward_plus", "forward_minus")
        for m in ("constrained", "weighted")
        for t in ("[1>4,5>2,3>6]", "[4>1,2>5,6>3]")
    ]
    assert report.format().splitlines() == [
        "searched 64 configurations, 0 moves per seed",
        "insufficient evidence: zero moves leaves the invariance criterion"
        " vacuous",
        "16 surviving configuration(s):",
        *survivors,
    ]
    built.clear()
    fuzz = fuzz_invariance(formulas, seeds, trials=0, depth=5, rng_seed=0,
                           convention=conv)
    assert built == []
    assert fuzz.format() == "OK trials=0 depth=5 seeds=14"


def test_calibrate_selects_weighted_mode():
    report = calibrate(
        [gen_cabc(1, 1, 1), gen_torus(3)], trials=20, rng_seed=7
    )
    assert not report.insufficient_evidence
    assert len(report.survivors) == 8
    assert {s.convention.eval_mode for s in report.survivors} == {EvalMode.WEIGHTED}
    frozen = frozen_calibration()
    assert any(
        s.convention == frozen.convention and s.triangle == frozen.triangle
        for s in report.survivors
    )


def test_calibrate_counts_each_triangle_candidate_once_per_orientation(
    monkeypatch,
):
    from curveinv import registry
    from curveinv.counting import count_arrow_with_convention

    calls = []
    evaluate = registry.evaluate_many

    def counting(formulas, diagrams, conv):
        calls.append((formulas, diagrams, conv.orientation))
        return evaluate(formulas, diagrams, conv)

    walked = []
    walk = registry.walk

    def recording(d, rng, steps, sample):
        walked.append((d, rng.getstate(), steps))
        return walk(d, rng, steps, sample)

    monkeypatch.setattr(registry, "evaluate_many", counting)
    monkeypatch.setattr(registry, "walk", recording)
    seeds = [gen_cabc(1, 1, 1), gen_torus(3)]
    report = calibrate(seeds, trials=2, rng_seed=0)
    # One batched arrow evaluation per orientation: the 8 candidates as
    # one-term formulas over the three braids.
    braids = [gen_torus(k).diagram for k in (3, 5, 7)]
    assert [c[2] for c in calls] == [Orientation.CCW, Orientation.CW]
    for formulas, diagrams, _ in calls:
        assert [f.terms for f in formulas] == [
            ((1, c),) for c in triangle_candidates()
        ]
        assert list(diagrams) == braids
    # Both orientations have passing candidates, so every convention is
    # judged; yet each seed is walked once, on stream "rng_seed|i".
    for orientation in (Orientation.CCW, Orientation.CW):
        conv = Convention(orientation)
        assert any(
            [count_arrow_with_convention(c, t, conv) for t in braids]
            == [1, 5, 14]
            for c in triangle_candidates()
        )
    assert walked == [
        (seed.diagram, random.Random(f"0|{si}").getstate(), 2)
        for si, seed in enumerate(seeds)
    ]
    assert report.configurations == 64


def _first_changes(seeds, trials, rng_seed, formulas):
    """The reference of calibrate's one shared walk: per convention with a
    passing candidate, in convention order, the (seed index, step) of the
    first value change on the walk of each seed on stream "rng_seed|i",
    walked to its end and evaluated one diagram at a time with arrows
    switched to chords; None where the values never change."""
    walks = []
    for si, seed in enumerate(seeds):
        rng = random.Random(f"{rng_seed}|{si}")
        d = seed.diagram
        walks.append([d] + [
            after for _, after in walk(d, rng, trials, random_site_balanced)
        ])
    out = {}
    for orientation, rule, mode in itertools.product(
        Orientation, ArrowRule, EvalMode
    ):
        if not any(_counts_braids(c, orientation)
                   for c in triangle_candidates()):
            continue
        conv = Convention(orientation, rule, mode)

        def value(d):
            return evaluate_all(formulas, arrows_to_chords(d, conv), conv)

        out[conv] = next(
            (
                (si, step)
                for si, ds in enumerate(walks)
                for step, d in enumerate(ds[1:], 1)
                if value(d) != value(ds[0])
            ),
            None,
        )
    return out


def test_invariance_walk_of_small_diagrams_builds_one_table_set(
    monkeypatch, formulas
):
    from curveinv import counting, registry

    seeds = [gen_cabc(1, 1, 1), gen_cabc(2, 1, 1), gen_torus(3)]
    changes = _first_changes(seeds, 20, 0, formulas)
    assert None in changes.values() and len(set(changes.values())) > 1
    built = []
    init = counting.DiagramTables.__init__

    def recording(self, diagrams, rule, weighted):
        built.append(len(diagrams))
        init(self, diagrams, rule, weighted)

    monkeypatch.setattr(counting.DiagramTables, "__init__", recording)
    calibrate(seeds, 20, 0)
    # The triangle gate's one batch per orientation, then per seed one
    # table set of its start and its 20 steps, a chunk of one batch, for
    # each convention still holding when the seed is walked.
    assert registry._CHUNK >= 20
    expected = [3, 3]
    for si in range(len(seeds)):
        holding = [c for c in changes.values() if c is None or c >= (si, 1)]
        expected += [21] * len(holding)
    assert built == expected


def test_calibrate_is_deterministic():
    seeds = [gen_cabc(1, 1, 1)]
    a = calibrate(seeds, trials=10, rng_seed=3)
    b = calibrate(seeds, trials=10, rng_seed=3)
    assert a.format() == b.format()


def test_calibrate_corrupted_formula_kills_every_configuration():
    corrupted = []
    for f in builtin_formulas():
        terms = f.terms
        if f.name == "I2_1":
            terms = ((-terms[0][0], terms[0][1]),) + terms[1:]
        corrupted.append(Formula(name=f.name, terms=terms))
    report = calibrate(
        [gen_cabc(1, 1, 1), gen_torus(3)], trials=40, rng_seed=0,
        formulas=corrupted,
    )
    assert report.survivors == []
    assert "no surviving configuration" in report.format()


@functools.cache
def _counts_braids(cand, orientation):
    """The triangle gate: cand counts 1, 5, 14 on the closed 2-braids."""
    return [
        count_arrow_with_convention(cand, gen_torus(k).diagram,
                                    Convention(orientation))
        for k in (3, 5, 7)
    ] == [1, 5, 14]


def _reference_calibration(seeds, trials, rng_seed, formulas):
    """calibrate as it walked before invariance was shared: every candidate
    passing the triangle gate walks each seed on its own stream, to the
    end, with arrows switched to chords one diagram at a time. Its streams
    are not calibrate's; the two agree where no verdict depends on the
    walk drawn, as the builtins' do on these seeds."""
    survivors, index = [], 0
    for orientation in (Orientation.CCW, Orientation.CW):
        for rule in (ArrowRule.FORWARD_PLUS, ArrowRule.FORWARD_MINUS):
            for mode in (EvalMode.CONSTRAINED, EvalMode.WEIGHTED):
                conv = Convention(orientation, rule, mode)
                for cand in triangle_candidates():
                    index += 1
                    if not _counts_braids(cand, orientation):
                        continue
                    holds = True
                    for si, seed in enumerate(seeds):
                        rng = random.Random(f"{rng_seed}|{index}|{si}")
                        d = seed.diagram
                        walked = walk(d, rng, trials, random_site_balanced)
                        chords = [arrows_to_chords(d, conv)] + [
                            arrows_to_chords(after, conv)
                            for _, after in walked
                        ]
                        values = evaluate_many(formulas, chords, conv)
                        holds &= len(set(values)) == 1
                    if holds:
                        survivors.append(Calibration(conv, cand))
    return CalibrationReport(survivors, index, trials, trials == 0)


@pytest.mark.parametrize("trials", [0, 1, 2, 5, 20])
def test_calibrate_equals_the_per_candidate_reference(formulas, trials):
    seeds = default_fuzz_seeds()
    for rng_seed in ("0", "1", "2", "3", "17"):
        assert calibrate(seeds, trials, rng_seed).format() == (
            _reference_calibration(seeds, trials, rng_seed, formulas).format()
        )


def _single_and_corrupted():
    builtins = builtin_formulas()
    i2_1 = builtins[0]
    flipped = Formula(
        i2_1.name, ((-i2_1.terms[0][0], i2_1.terms[0][1]),) + i2_1.terms[1:]
    )
    return {
        "builtins": builtins,
        "I2_1": builtins[:1],
        "I3_1": builtins[1:2],
        "I3_5": builtins[5:],
        "corrupted": (flipped,) + builtins[1:],
    }


@pytest.mark.parametrize("name", list(_single_and_corrupted()))
@pytest.mark.parametrize("trials", [1, 6, 70])
def test_calibrate_verdicts_equal_the_per_diagram_reference(name, trials):
    # Every convention's verdict, on chunks of one walk per seed, equals
    # the values of that walk's diagrams evaluated one at a time.
    formulas = _single_and_corrupted()[name]
    seeds = [gen_cabc(1, 1, 1), gen_cabc(2, 1, 1), gen_torus(3)]
    for rng_seed in ("0", "1", "2"):
        changes = _first_changes(seeds, trials, rng_seed, formulas)
        expected = [
            Calibration(conv, cand)
            for conv, change in changes.items()
            if change is None
            for cand in triangle_candidates()
            if _counts_braids(cand, conv.orientation)
        ]
        report = calibrate(seeds, trials, rng_seed, formulas=formulas)
        assert report.survivors == expected


def test_calibrate_of_a_corrupted_formula_equals_the_reference():
    corrupted = list(builtin_formulas())
    terms = corrupted[0].terms
    corrupted[0] = Formula(
        corrupted[0].name, ((-terms[0][0], terms[0][1]),) + terms[1:]
    )
    seeds = default_fuzz_seeds()
    report = calibrate(seeds, 5, "0", formulas=corrupted)
    assert report.survivors == []
    assert report.format() == (
        _reference_calibration(seeds, 5, "0", corrupted).format()
    )


def test_packaged_calibration_reproduces_as_its_file_says():
    # frozen_calibration's docstring: the first survivor over cabc(1,1,1),
    # cabc(2,1,1) and torus(3) at trials=200.
    seeds = [gen_cabc(1, 1, 1), gen_cabc(2, 1, 1), gen_torus(3)]
    report = calibrate(seeds, 200, "0")
    assert report.survivors[0] == frozen_calibration()
    assert frozen_calibration().triangle in triangle_candidates()


def test_default_fuzz_seed_set():
    seeds = default_fuzz_seeds()
    assert len(seeds) == 14
    tags = [s.provenance for s in seeds]
    assert tags.count("torus(3)") == 1 and tags.count("torus(5)") == 1
    assert sum(t.startswith("cabc(") for t in tags) == 12


def test_parse_formula_file_skips_comments_and_keeps_line_numbers():
    from curveinv.patterns import ParseError
    from curveinv.registry import parse_formula_file

    text = "# head\n\nA := +[1-2,3-4]\n  # note\nB := +[1-3,2-4]\n"
    assert [f.name for f in parse_formula_file(text)] == ["A", "B"]
    with pytest.raises(ParseError) as err:
        parse_formula_file("# head\n\nA := +[1-2,2-4]\n")
    assert err.value.line == 3
    with pytest.raises(ValueError, match="holds no formulas"):
        parse_formula_file("# only a comment\n")


@pytest.mark.parametrize("text,col,message", [
    ("    X := +[1-2", 15, "expected ']'"),
    # Only ASCII spaces pad a record, as in diagram records.
    ("\u00a0X := +[1-2]", 1, "expected formula name"),
    ("X := +[1-2]\t", 12, "expected sign '+' or '-' before term"),
])
def test_parse_formula_file_reports_file_columns(text, col, message):
    from curveinv.patterns import ParseError
    from curveinv.registry import parse_formula_file

    with pytest.raises(ParseError) as err:
        parse_formula_file("# head\n" + text + "\n")
    assert (err.value.line, err.value.col) == (2, col)
    assert err.value.message == message


def test_builtin_relations_hold_on_every_diagram_of_at_most_three_chords(
    formulas, conv
):
    # S, the weighted degree-1 count, is the sum of chord signs. Both sides
    # of each relation are sums over sub-diagrams of at most 3 chords, so
    # holding on every such diagram, they hold on all diagrams.
    diagrams = [
        SignedChordDiagram(n, tuple(
            (a, b, s) for (a, b), s in zip(m, signs)
        ))
        for n in range(4)
        for m in perfect_matchings(n)
        for signs in itertools.product((1, -1), repeat=n)
    ]
    assert len(diagrams) == 135
    signs = parse_formula("S := +[1-2]")
    rows = list(evaluate_many((signs, *formulas), diagrams, conv))
    assert {row[0] for row in rows} == set(range(-3, 4))
    for (s, i2_1, i3_1, _, i3_3, i3_4, i3_5), d in zip(rows, diagrams):
        assert 6 * i3_4 == s - s**3, d
        assert i3_1 == s * i2_1 - 2 * i3_3 + 2 * i3_5, d


@pytest.mark.parametrize("seed", [gen_cabc(2, 6, 6), gen_cabc(0, 6, 6)])
def test_invariance_walk_stops_one_batch_after_the_first_change(
    monkeypatch, formulas, seed
):
    from curveinv import registry

    corrupted = [
        Formula(f.name, ((-f.terms[0][0], f.terms[0][1]),) + f.terms[1:])
        if f.name == "I2_1" else f
        for f in formulas
    ]
    walked = []
    walk = registry.walk

    def recording(*args, **kwargs):
        for site, d in walk(*args, **kwargs):
            walked.append(d)
            yield site, d

    monkeypatch.setattr(registry, "walk", recording)
    report = calibrate([seed], 400, 0, formulas=corrupted)
    assert report.survivors == []
    changes = _first_changes([seed], len(walked), 0, corrupted)
    last = max(step for _, step in changes.values())
    # The walk is read a chunk at a time and stops after the chunk in
    # which the last holding convention changed.
    assert last <= len(walked) < last + registry._CHUNK
    assert len(walked) < 400
