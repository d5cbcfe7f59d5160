import itertools
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from curveinv import (
    ArrowDiagram,
    ArrowRule,
    Convention,
    CurveDiagram,
    EvalMode,
    InvalidDiagramError,
    Orientation,
    ParseError,
    SignedChordDiagram,
    arrows_to_chords,
    parse_diagram,
    serialize_diagram,
    validate,
)
from curveinv.diagrams import iter_diagram_records
from helpers import random_arrow_diagram, random_chord_diagram


def test_validate_smallest_legal_diagram():
    assert validate(SignedChordDiagram(n=1, chords=((1, 2, 1),))) == []


def test_validate_empty_diagram():
    assert validate(SignedChordDiagram(n=0, chords=())) == []


def test_validate_reports_broken_matching():
    with pytest.raises(InvalidDiagramError) as info:
        SignedChordDiagram(n=2, chords=((1, 3, 1), (1, 4, -1)))
    violations = info.value.violations
    assert any("slot 1" in v for v in violations)
    assert any("slot 2" in v for v in violations)


def test_validate_reports_out_of_range_slot():
    with pytest.raises(InvalidDiagramError) as info:
        ArrowDiagram(n=1, arrows=((1, 5, 1),))
    assert info.value.violations != []


# Each case is built inside the test, where its refusal can be caught.
@pytest.mark.parametrize("d,violations", [
    (partial(SignedChordDiagram, n=-1), ["negative chord count -1"]),
    (partial(ArrowDiagram, n=1, arrows=((2, 2, 1),)),
     ["arrow 0: endpoints equal at slot 2", "slot 2 reused", "slot 1 unused"]),
    (partial(SignedChordDiagram, n=1, chords=((1, 2, 0),)),
     ["chord 0: bad sign 0"]),
])
def test_validate_reports_each_broken_field(d, violations):
    # Parsed records never reach these: the parser refuses them first.
    with pytest.raises(InvalidDiagramError) as info:
        d()
    assert info.value.violations == violations


def test_parse_chord_diagram():
    d = parse_diagram("chords; n=3; 1-4:+ 2-5:+ 3-6:-")
    assert isinstance(d, SignedChordDiagram)
    assert d.chords == ((1, 4, 1), (2, 5, 1), (3, 6, -1))


def test_parse_arrow_diagram():
    d = parse_diagram("arrows; n=1; 1>2:+")
    assert isinstance(d, ArrowDiagram)
    assert d.arrows == ((1, 2, 1),)


def test_parse_rejects_equal_endpoints():
    with pytest.raises(ParseError):
        parse_diagram("chords; n=2; 1-1:+ 2-4:-")


def test_parse_rejects_broken_matching():
    with pytest.raises(InvalidDiagramError) as info:
        parse_diagram("chords; n=2; 1-3:+ 1-4:-")
    assert any("slot 1" in v for v in info.value.violations)


def test_parse_rejects_wrong_count():
    with pytest.raises((ParseError, InvalidDiagramError)):
        parse_diagram("chords; n=2; 1-2:+")


def test_serialize_canonical_form():
    d = parse_diagram("chords; n=3; 1-4:+ 2-5:+ 3-6:-")
    assert serialize_diagram(d) == "chords; n=3; 1-4:+ 2-5:+ 3-6:-"


def test_serialize_empty_diagram():
    assert serialize_diagram(SignedChordDiagram(n=0, chords=())) == "chords; n=0;"
    assert serialize_diagram(ArrowDiagram(n=0, arrows=())) == "arrows; n=0;"


def test_serialize_sorts_unsorted_input():
    d = SignedChordDiagram(n=2, chords=((2, 4, -1), (3, 1, 1)))
    assert serialize_diagram(d) == "chords; n=2; 1-3:+ 2-4:-"


def test_serialize_refuses_invalid_diagram():
    # An invalid diagram cannot be built, so it never reaches the writer.
    with pytest.raises(InvalidDiagramError):
        serialize_diagram(
            SignedChordDiagram(n=2, chords=((1, 3, 1), (1, 4, -1))))


def test_parse_accepts_whitespace_runs():
    d = parse_diagram("chords;  n=2;   1-3:+    2-4:-")
    assert serialize_diagram(d) == "chords; n=2; 1-3:+ 2-4:-"


def test_parse_items_need_no_separator():
    d = parse_diagram("chords; n=2; 1-3:+2-4:-  \n")
    assert d.chords == ((1, 3, 1), (2, 4, -1))


# One record per syntax-error branch of parse_diagram, each also cut off at
# the end of input: (text, line, column, message).
PARSE_ERRORS = [
    ("", 1, 1, "expected 'chords' or 'arrows'"),
    ("  polys; n=1;", 3, 3, "expected 'chords' or 'arrows'"),
    ("chords", 1, 7, "expected ';' after kind"),
    ("chords ; n=1;", 2, 7, "expected ';' after kind"),
    ("chords;", 1, 8, "expected 'n='"),
    ("chords; m=1;", 1, 9, "expected 'n='"),
    ("chords;\tn=1;", 1, 8, "expected 'n='"),
    ("chords; n=", 1, 11, "expected chord count"),
    ("chords; n=x;", 1, 11, "expected chord count"),
    ("chords; n=-1;", 1, 11, "expected chord count"),
    ("chords; n=1", 1, 12, "expected ';' after chord count"),
    ("chords; n=1 ;", 1, 12, "expected ';' after chord count"),
    ("chords; n=1; x-2:+", 1, 14, "expected slot number"),
    ("chords; n=1; 1-", 1, 16, "expected slot number"),
    ("chords; n=1; 1-x:+", 1, 16, "expected slot number"),
    ("chords; n=1; 1", 1, 15, "expected '-' between endpoints"),
    ("chords; n=1; 1>2:+", 1, 15, "expected '-' between endpoints"),
    ("arrows; n=1; 1", 1, 15, "expected '>' between endpoints"),
    ("arrows; n=1; 1-2:+", 1, 15, "expected '>' between endpoints"),
    ("chords; n=1; 1-2:+ 3", 4, 21, "expected '-' between endpoints"),
    ("chords; n=1; 1-2", 1, 17, "expected ':' before sign"),
    ("chords; n=1; 1-2+", 1, 17, "expected ':' before sign"),
    ("chords; n=1; 1-2:", 1, 18, "expected sign '+' or '-'"),
    ("chords; n=1; 1-2:x", 1, 18, "expected sign '+' or '-'"),
    ("chords; n=1; 1-1:+", 1, 16, "chord endpoints equal at slot 1"),
    ("arrows; n=2; 1>3:+ 4>4:-", 9, 22, "chord endpoints equal at slot 4"),
    # Items after one that reads whole: the error keeps its position.
    ("arrows; n=2; 1>3:+\t2>4:+", 1, 19, "expected slot number"),
    ("arrows; n=2; 1 >3:+ 2>4:+", 1, 15, "expected '>' between endpoints"),
    ("arrows; n=2; 1>3: + 2>4:+", 1, 18, "expected sign '+' or '-'"),
    ("arrows; n=2; 1>3:+x", 1, 19, "expected slot number"),
    ("arrows; n=2; １>3:+ 2>4:+", 1, 14, "expected slot number"),
    ("arrows; n=2; 1>3:+ 2>²:+", 1, 22, "expected slot number"),
    ("arrows; n=3; 1>4:+ 2>5:+ 3>3:+", 1, 28, "chord endpoints equal at slot 3"),
    ("arrows; n=2; 3>03:+", 1, 16, "chord endpoints equal at slot 3"),
    ("arrows; n=2; 1>3:+ 2-4:+", 1, 21, "expected '>' between endpoints"),
    ("chords; n=2; 1-3:+ 2>4:+", 1, 21, "expected '-' between endpoints"),
]


@pytest.mark.parametrize("text,line,col,message", PARSE_ERRORS)
def test_parse_error_positions(text, line, col, message):
    with pytest.raises(ParseError) as info:
        parse_diagram(text, line=line)
    err = info.value
    assert str(err) == f"line {line}, col {col}: {message}"
    assert (err.line, err.col, err.message) == (line, col, message)


def test_parse_rejects_non_decimal_digit_as_position_error():
    # "²" passes str.isdigit() but int() refuses it.
    with pytest.raises(ParseError) as info:
        parse_diagram("chords; n=²;")
    assert (info.value.col, info.value.message) == (11, "expected chord count")


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_random_matchings(seed):
    rng = random.Random(seed)
    d = random_chord_diagram(rng) if seed % 2 else random_arrow_diagram(rng)
    assert validate(d) == []
    assert parse_diagram(serialize_diagram(d)) == d


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_random_corruptions_fail_validation(seed, reuse):
    rng = random.Random(seed)
    d = random_chord_diagram(rng, max_n=6)
    if d.n == 0:
        return
    chords = list(d.chords)
    a, b, s = chords[0]
    # Either reuse a slot from another chord or push one out of range.
    chords[0] = (a, chords[-1][0], s) if reuse and d.n > 1 else (a, 2 * d.n + 1, s)
    with pytest.raises(InvalidDiagramError) as info:
        SignedChordDiagram(n=d.n, chords=tuple(chords))
    assert info.value.violations != []


def test_iter_diagram_records_skips_comments_and_blanks():
    text = "# header\nchords; n=1; 1-2:+\n\n# more\narrows; n=1; 2>1:-\n"
    records = list(iter_diagram_records(text))
    assert records == [(2, "chords; n=1; 1-2:+"), (5, "arrows; n=1; 2>1:-")]


FP = Convention(arrow_rule=ArrowRule.FORWARD_PLUS)
FM = Convention(arrow_rule=ArrowRule.FORWARD_MINUS)


def test_arrow_conversion_forward_plus():
    a = ArrowDiagram(n=1, arrows=((1, 2, 1),))
    assert arrows_to_chords(a, FP).chords == ((1, 2, 1),)
    a = ArrowDiagram(n=1, arrows=((2, 1, 1),))
    assert arrows_to_chords(a, FP).chords == ((1, 2, -1),)


def test_arrow_conversion_forward_minus():
    a = ArrowDiagram(n=1, arrows=((1, 2, 1),))
    assert arrows_to_chords(a, FM).chords == ((1, 2, -1),)
    a = ArrowDiagram(n=1, arrows=((2, 1, -1),))
    assert arrows_to_chords(a, FM).chords == ((1, 2, -1),)


def test_arrow_conversion_keeps_matching():
    rng = random.Random(5)
    for _ in range(40):
        a = random_arrow_diagram(rng)
        c = arrows_to_chords(a, FP)
        assert {(min(t, h), max(t, h)) for t, h, _ in a.arrows} == {
            (x, y) for x, y, _ in c.chords
        }


def test_arrow_conversion_injective_on_positive_diagrams():
    # All-positive arrow diagrams are the ones the move engine produces;
    # on that class the conversion loses nothing.
    def all_positive(n):
        slots = range(1, 2 * n + 1)
        for perm in itertools.permutations(slots):
            pairs = sorted(
                tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(n)
            )
            if tuple(perm) != tuple(x for p in pairs for x in p):
                continue
            for dirs in itertools.product((0, 1), repeat=n):
                yield ArrowDiagram(
                    n=n,
                    arrows=tuple(
                        (p[d], p[1 - d], 1) for p, d in zip(pairs, dirs)
                    ),
                )

    for conv in (FP, FM):
        for n in (1, 2, 3):
            diagrams = set(all_positive(n))
            images = {arrows_to_chords(a, conv) for a in diagrams}
            assert len(images) == len(diagrams)


def test_curve_diagram_carries_metadata():
    a = ArrowDiagram(n=1, arrows=((1, 2, 1),))
    cd = CurveDiagram(diagram=a, rot=3, jplus=-1, provenance="test")
    assert (cd.rot, cd.jplus, cd.provenance) == (3, -1, "test")


def test_convention_defaults():
    c = Convention()
    assert c.orientation is Orientation.CCW
    assert c.arrow_rule is ArrowRule.FORWARD_PLUS
    assert c.eval_mode is EvalMode.WEIGHTED


def test_validate_bounds_unused_slot_report():
    with pytest.raises(InvalidDiagramError) as err:
        parse_diagram("chords; n=1000000; 1-2:+")
    message = str(err.value)
    assert len(message) < 2048
    named = [v for v in err.value.violations if v.endswith(" unused")]
    assert named[:10] == [f"slot {s} unused" for s in range(3, 13)]
    assert named[10:] == ["1999988 more slots unused"]


def unused_slots(n):
    with pytest.raises(InvalidDiagramError) as info:
        SignedChordDiagram(n=n, chords=((1, 2, 1),))
    return [v for v in info.value.violations if v.endswith(" unused")]


def test_validate_names_every_unused_slot_up_to_ten():
    assert unused_slots(6) == [f"slot {s} unused" for s in range(3, 13)]
    assert unused_slots(7)[-1] == "2 more slots unused"


def test_constructors_refuse_invalid_diagrams_at_once():
    with pytest.raises(InvalidDiagramError) as info:
        ArrowDiagram(n=3, arrows=((1, 2, 1),))
    assert info.value.violations == [
        "n=3 but 1 arrows present", "slot 3 unused", "slot 4 unused",
        "slot 5 unused", "slot 6 unused",
    ]
    # A claimed size far beyond the items costs nothing to refuse.
    with pytest.raises(InvalidDiagramError) as info:
        ArrowDiagram(n=10**9, arrows=())
    assert len(str(info.value)) < 2048
