import pytest
from hypothesis import given, settings, strategies as st

from curveinv import (
    ANY,
    Formula,
    ParseError,
    Pattern,
    PatternKind,
    mirror_formula,
    mirror_pattern,
    parse_diagram,
    parse_formula,
    parse_pattern,
    serialize_formula,
    serialize_pattern,
)
from curveinv.patterns import pattern_violations


def test_parse_signed_crossed_pair():
    p = parse_pattern("[1-3:-,2-4:+]")
    assert p.kind is PatternKind.CHORD
    assert p.k == 2
    assert p.chords == ((1, 3, -1), (2, 4, 1))


def test_parse_three_parallel_unconstrained():
    p = parse_pattern("[1-2, 3-4, 5-6]")
    assert p.k == 3
    assert all(c[2] == ANY for c in p.chords)


def test_parse_arrow_pattern():
    p = parse_pattern("[1>4, 5>2, 3>6]")
    assert p.kind is PatternKind.ARROW
    assert (5, 2, ANY) in p.chords


def test_parse_rejects_slot_reuse():
    with pytest.raises(ParseError):
        parse_pattern("[1-2, 2-4]")


def test_parse_rejects_slot_gap():
    with pytest.raises(ParseError):
        parse_pattern("[1-2, 4-5]")


def test_parse_rejects_equal_endpoints():
    with pytest.raises(ParseError):
        parse_pattern("[1-1]")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_pattern("[1-2, 2-4]", line=7)
    assert info.value.line == 7
    with pytest.raises(ParseError) as info:
        parse_pattern("[1-2, 3!4]")
    assert info.value.col == 8


@pytest.mark.parametrize(
    "text,col,message",
    [
        ("[1-2:", 6, "expected sign '+' or '-'"),
        ("[1", 3, "expected '-' or '>' between endpoints"),
        ("[1-2:+", 7, "expected ']'"),
    ],
)
def test_parse_errors_at_end_of_input(text, col, message):
    with pytest.raises(ParseError) as info:
        parse_pattern(text)
    assert (info.value.col, info.value.message) == (col, message)


@pytest.mark.parametrize(
    "parse,text,col,message",
    [
        (parse_pattern, "[1-2,3>4]", 8,
         "mixed chord and arrow items in one pattern"),
        (parse_pattern, "[1-2] x", 7, "trailing input after pattern"),
        (parse_formula, "X := [1-2] [3-4]", 12,
         "expected sign '+' or '-' before term"),
        (parse_formula, "X :=  ", 7, "formula has no terms"),
        (parse_pattern, "[]", 2, "empty pattern"),
    ],
)
def test_parse_error_messages(parse, text, col, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.col, info.value.message) == (col, message)


def test_chord_endpoints_canonicalized():
    p = Pattern(k=2, kind=PatternKind.CHORD, chords=((4, 2, 1), (3, 1, ANY)))
    assert p.chords == ((1, 3, ANY), (2, 4, 1))


def test_arrow_endpoints_keep_direction():
    p = Pattern(k=1, kind=PatternKind.ARROW, chords=((2, 1, ANY),))
    assert p.chords == ((2, 1, ANY),)


def test_parse_formula_two_terms():
    f = parse_formula("I2_1 := +[1-2,3-4] -[1-3,2-4]")
    assert f.name == "I2_1"
    assert [c for c, _ in f.terms] == [1, -1]


def test_parse_formula_explicit_coefficient():
    f = parse_formula("X := 2[1-2]")
    assert f.terms[0][0] == 2
    f = parse_formula("X := -3[1-2] +[3-4,1-2]")
    assert [c for c, _ in f.terms] == [-3, 1]


def test_parse_formula_rejects_mixed_kinds():
    with pytest.raises(ParseError):
        parse_formula("X := +[1-2] +[1>2]")


def test_parse_formula_rejects_zero_coefficient():
    with pytest.raises(ParseError):
        parse_formula("X := 0[1-2]")


def test_parse_formula_rejects_empty_name():
    with pytest.raises(ParseError):
        parse_formula(" := [1-2]")


def test_parse_formula_name_is_ascii():
    # The name stops at the Arabic-Indic digit two, so ':=' is missing.
    with pytest.raises(ParseError) as info:
        parse_formula("I\u0662 := [1-2]", line=4)
    assert (info.value.line, info.value.col) == (4, 2)
    assert info.value.message == "expected ':='"


def test_serialize_unit_coefficients_as_bare_signs():
    f = parse_formula("X := -1[1-3,2-4]")
    assert serialize_formula(f) == "X := -[1-3,2-4]"


CHORD_1 = parse_pattern("[1-2]")


@pytest.mark.parametrize(
    "terms,name,message",
    [
        (((1, Pattern(2, PatternKind.CHORD, ((1, 2, ANY),))),), "X",
         "invalid pattern: expected 2 chords, found 1; slot 3 unused;"
         " slot 4 unused"),
        (((1, CHORD_1),), "", "formula name must be nonempty"),
        ((), "X", "formula must have at least one term"),
        (((1, CHORD_1), (1, parse_pattern("[2>1]"))), "X",
         "mixed chord and arrow patterns in one formula"),
        (((0, CHORD_1),), "X", "zero coefficient"),
        (((1, Pattern(0, PatternKind.CHORD, ())),), "X",
         "invalid pattern: pattern must have at least one chord"),
        (((1, Pattern(1, PatternKind.CHORD, ((1, 1, ANY),))),), "X",
         "invalid pattern: chord endpoints equal at slot 1; slot 1 reused;"
         " slot 2 unused"),
        (((1, Pattern(1, PatternKind.CHORD, ((1, 2, 5),))),), "X",
         "invalid pattern: bad sign constraint 5"),
    ],
)
def test_serialize_refuses_invalid_formulas(terms, name, message):
    with pytest.raises(ValueError) as info:
        serialize_formula(Formula(name, terms))
    assert str(info.value) == message


def test_serialize_is_canonical_fixed_point():
    text = "I2_1 := +[1-2,3-4] -[1-3,2-4]"
    f = parse_formula(text)
    assert serialize_formula(f) == text
    assert serialize_formula(parse_formula(serialize_formula(f))) == text


@st.composite
def matchings(draw, max_k=4):
    k = draw(st.integers(min_value=1, max_value=max_k))
    slots = list(range(1, 2 * k + 1))
    perm = draw(st.permutations(slots))
    return k, [(perm[2 * i], perm[2 * i + 1]) for i in range(k)]


@st.composite
def chord_patterns(draw):
    k, pairs = draw(matchings())
    chords = tuple(
        (a, b, draw(st.sampled_from((ANY, 1, -1)))) for a, b in pairs
    )
    return Pattern(k=k, kind=PatternKind.CHORD, chords=chords)


@st.composite
def arrow_patterns(draw):
    k, pairs = draw(matchings())
    chords = tuple((a, b, ANY) for a, b in pairs)
    return Pattern(k=k, kind=PatternKind.ARROW, chords=chords)


@settings(max_examples=60, deadline=None)
@given(chord_patterns() | arrow_patterns())
def test_pattern_round_trip(p):
    assert parse_pattern(serialize_pattern(p)) == p


@settings(max_examples=60, deadline=None)
@given(chord_patterns() | arrow_patterns())
def test_mirror_is_an_involution(p):
    q = mirror_pattern(p)
    assert q.kind is p.kind and q.k == p.k
    assert mirror_pattern(q) == p


def test_mirror_reflects_slots():
    p = parse_pattern("[1-2,3-4]")
    assert mirror_pattern(p) == parse_pattern("[1-2,3-4]")
    p = parse_pattern("[1-2,3-6,4-5]")
    assert mirror_pattern(p) == parse_pattern("[1-4,2-3,5-6]")
    p = parse_pattern("[1>4,5>2,3>6]")
    assert mirror_pattern(p) == parse_pattern("[6>3,2>5,4>1]")


def test_mirror_formula_round_trip(formulas):
    for f in formulas:
        assert mirror_formula(mirror_formula(f)) == f


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="[]0123456789->:+, ", max_size=24))
def test_accepted_inputs_always_form_matchings(text):
    try:
        p = parse_pattern(text)
    except ParseError:
        return
    assert pattern_violations(p) == []


@pytest.mark.parametrize(
    "parse,text,col",
    [
        (parse_diagram, "chords; n=\u0661; \u0661-\u0662:+", 11),
        (parse_diagram, "chords; n=1; 1-\u0662:+", 16),
        (parse_pattern, "[1-\u0662]", 4),
        (parse_formula, "F := +\u0662[1-2]", 7),
        (parse_formula, "F := [1-2] -[\u0661-2]", 14),
    ],
)
def test_only_ascii_digits_are_integers(parse, text, col):
    # Arabic-Indic digits are Unicode decimals; the grammar's are 0-9.
    with pytest.raises(ParseError) as info:
        parse(text, line=3)
    assert (info.value.line, info.value.col) == (3, col)
