import itertools
import random
from functools import lru_cache

import pytest

from curveinv import (
    ArrowDiagram,
    FuzzViolation,
    KindMismatchError,
    MoveKind,
    MoveSite,
    StaleSiteError,
    apply_move,
    evaluate_all,
    find_sites,
    fuzz_invariance,
    gen_cabc,
    gen_torus,
    insert_site_count,
    parse_diagram,
    parse_formula,
    parse_move_line,
    random_site,
    random_site_balanced,
    replay,
    serialize_diagram,
    validate,
)
from curveinv.moves import (
    INVARIANCE_KINDS,
    KIND_ORDER,
    STOPPED_EARLY,
    Variant,
    walk,
)
from curveinv.patterns import Formula
from curveinv.registry import builtin_formulas, default_fuzz_seeds
from helpers import (
    TRIPLE_TABLE,
    random_arrow_diagram,
    reverse_arrows,
    rotate_arrows,
    scan_triple_sites,
    triple_shape,
)

EMPTY = ArrowDiagram(n=0, arrows=())
INSERT_KINDS = (MoveKind.IR2_INSERT, MoveKind.DR2_INSERT)
DELETE_OF = {MoveKind.IR2_INSERT: MoveKind.IR2_DELETE,
             MoveKind.DR2_INSERT: MoveKind.DR2_DELETE}


def small_diagrams():
    yield EMPTY
    yield gen_torus(3).diagram
    yield gen_cabc(1, 1, 1).diagram
    yield gen_cabc(2, 1, 1).diagram


@lru_cache(maxsize=None)
def walked_large() -> ArrowDiagram:
    """A 200-chord diagram after 120 kind-balanced steps of all six kinds,
    with sites of every kind."""
    d = gen_cabc(0, 50, 50).diagram
    for _, d in walk(d, random.Random(13), 120, random_site_balanced,
                     KIND_ORDER):
        pass
    assert all(find_sites(d, kind) for kind in KIND_ORDER)
    return d


def test_empty_diagram_insert_sites():
    sites = find_sites(EMPTY, MoveKind.IR2_INSERT)
    assert len(sites) == 2 == insert_site_count(EMPTY)
    assert find_sites(EMPTY, MoveKind.IR2_DELETE) == []
    assert find_sites(EMPTY, MoveKind.DR2_DELETE) == []
    assert find_sites(EMPTY, MoveKind.R3) == []


@pytest.mark.parametrize("kind", INSERT_KINDS)
def test_insert_site_enumeration_is_complete(kind):
    for d in small_diagrams():
        sites = find_sites(d, kind)
        assert len(sites) == insert_site_count(d)
        assert len({s.data for s in sites}) == len(sites)
        # Documented order: arc1 ascending, arc2 ascending, up before down.
        order = {Variant.UP: 0, Variant.DOWN: 1}
        keys = [(g1, g2, order[v]) for g1, g2, v in (s.data for s in sites)]
        assert keys == sorted(keys)
        assert all(s.kind is kind for s in sites)


def test_site_lines_round_trip():
    lines = ["iR2_insert 3 7 up", "iR2_delete 5", "dR2_insert 0 0 down",
             "dR2_delete 2", "R3 1 3 5", "nR3 2 4 8"]
    for line in lines:
        site = parse_move_line(line)
        assert site.format() == line


def test_parse_move_line_rejects_junk():
    # Slots are ASCII digits only: no other decimal digits, signs or
    # underscores. Fields are separated by ASCII spaces only: no tab,
    # no-break space or ideographic space.
    for line in ("", "R3 1 3", "iR2_insert 1 2 sideways", "flip 1 2",
                 "iR2_delete \u0661", "R3 1_0 +4 7", "iR2_delete  +3",
                 "nR3 2 4 -8", "R3 1\t3\u30005", "R3\t1 3 5",
                 "iR2_delete\u00a03", "iR2_delete 3\u3000",
                 "iR2_insert 0 2 down\t"):
        with pytest.raises(ValueError):
            parse_move_line(line)


def test_torus_triple_sites():
    assert [s.data for s in find_sites(gen_torus(3).diagram, MoveKind.R3)] == [
        (1, 3, 5)
    ]
    for n in (5, 7):
        assert find_sites(gen_torus(n).diagram, MoveKind.R3) == []
        assert find_sites(gen_torus(n).diagram, MoveKind.NR3) == []


def oracle_seed_set():
    for d in small_diagrams():
        yield d
    base = gen_torus(3).diagram
    yield rotate_arrows(base, 2)
    yield reverse_arrows(base)
    for s in find_sites(base, MoveKind.IR2_INSERT)[:8]:
        yield apply_move(base, s)
    for s in find_sites(base, MoveKind.DR2_INSERT)[:4]:
        yield apply_move(base, s)


def random_small_diagrams(count=300):
    """Diagrams of 1-7 arrows with mixed directions and signs."""
    rng = random.Random(2024)
    while count:
        d = random_arrow_diagram(rng, max_n=7)
        if d.n:
            count -= 1
            yield d


def test_triple_site_enumeration_matches_exhaustive_scan():
    # Dual route: the engine enumerates from chord adjacency, the helper
    # scans every pairwise-joined slot triple with its own copy of the shape
    # table. R3 and nR3 split those triples between them.
    for d in [*oracle_seed_set(), walked_large(), *random_small_diagrams()]:
        r3 = {s.data for s in find_sites(d, MoveKind.R3)}
        nr3 = {s.data for s in find_sites(d, MoveKind.NR3)}
        text = serialize_diagram(d)
        assert sorted(r3) == scan_triple_sites(d, realizable_only=True), text
        everything = scan_triple_sites(d, realizable_only=False)
        assert sorted(r3 | nr3) == everything, text
        assert not r3 & nr3, text


@pytest.mark.parametrize("kind", INSERT_KINDS)
def test_insert_then_delete_restores_exactly(kind):
    for d in small_diagrams():
        for site in find_sites(d, kind):
            d2 = apply_move(d, site)
            assert validate(d2) == []
            assert d2.n == d.n + 2
            assert any(
                apply_move(d2, s) == d for s in find_sites(d2, DELETE_OF[kind])
            ), (serialize_diagram(d), site.format())


@pytest.mark.parametrize("kind", INSERT_KINDS)
def test_delete_then_insert_restores_exactly(kind):
    d = apply_move(gen_cabc(1, 1, 1).diagram,
                   parse_move_line(f"{kind.value} 2 6 up"))
    found = 0
    for site in find_sites(d, DELETE_OF[kind]):
        d2 = apply_move(d, site)
        assert any(apply_move(d2, s) == d for s in find_sites(d2, kind))
        found += 1
    assert found > 0


def three_arrow_triples():
    """The 64 diagrams whose slot pairs (1, 2), (3, 4), (5, 6) are joined
    pairwise by three arrows: 2^3 slot choices times 2^3 directions."""
    for a, b, c in itertools.product((0, 1), repeat=3):
        # Slot 1+a joins 3+b, slot 2-a joins 5+c, slot 4-b joins 6-c.
        ends = ((1 + a, 3 + b), (2 - a, 5 + c), (4 - b, 6 - c))
        for flips in itertools.product((False, True), repeat=3):
            yield ArrowDiagram(3, tuple(
                (h, t, 1) if flip else (t, h, 1)
                for (t, h), flip in zip(ends, flips)
            ))


def test_every_three_arrow_triple_point():
    # Every decoration of a triple point, against the helper's own table.
    kinds = []
    for d in three_arrow_triples():
        text = serialize_diagram(d)
        (site,) = find_sites(d, MoveKind.R3) + find_sites(d, MoveKind.NR3)
        assert site.data == (1, 3, 5), text
        word, decor = triple_shape(d, site.data)
        realizable = decor in TRIPLE_TABLE[word]
        assert site.kind is (MoveKind.R3 if realizable else MoveKind.NR3), text
        moved = apply_move(d, site)
        assert validate(moved) == [] and moved != d, text
        assert apply_move(moved, site) == d, text
        kinds.append(site.kind)
    assert len(set(map(serialize_diagram, three_arrow_triples()))) == 64
    assert kinds.count(MoveKind.R3) == 16
    assert kinds.count(MoveKind.NR3) == 48


def test_triple_move_is_an_involution():
    for d in oracle_seed_set():
        for site in find_sites(d, MoveKind.R3) + find_sites(d, MoveKind.NR3):
            d2 = apply_move(d, site)
            assert validate(d2) == []
            assert d2 != d
            assert apply_move(d2, site) == d


def test_moves_keep_arrows_positive_and_valid():
    rng = random.Random(99)
    d = gen_cabc(2, 1, 1).diagram
    for _ in range(200):
        site = random_site(d, rng)
        d = apply_move(d, site)
        assert validate(d) == []
        assert all(s == 1 for _, _, s in d.arrows)


def harvest_witnesses():
    """One witness (diagram, site) per admissible triple-site shape.

    Walks a deterministic family: rotations and reversals of the two
    smallest torus diagrams, their single-insert children, and the
    double-insert grandchildren of the 3-chord bases.
    """
    bases = set()
    for n in (3, 5):
        b = gen_torus(n).diagram
        for s in range(2 * n):
            r = rotate_arrows(b, s)
            bases.add(r)
            bases.add(reverse_arrows(r))
    bases = sorted(bases, key=lambda d: (d.n, d.arrows))

    all_shapes = {(w, dec) for w, decs in TRIPLE_TABLE.items() for dec in decs}
    witness = {}

    def note(d):
        for site in find_sites(d, MoveKind.R3):
            shape = triple_shape(d, site.data)
            assert shape is not None and shape[1] in TRIPLE_TABLE[shape[0]]
            witness.setdefault(shape, (d, site))

    children = []
    for d in bases:
        note(d)
        for site in find_sites(d, MoveKind.IR2_INSERT):
            child = apply_move(d, site)
            note(child)
            if d.n == 3:
                children.append(child)
    for child in children:
        if len(witness) == len(all_shapes):
            break
        for site in find_sites(child, MoveKind.IR2_INSERT):
            note(apply_move(child, site))
    assert set(witness) == all_shapes
    return witness


def test_every_admissible_shape_occurs_and_preserves_values(formulas, conv):
    witnesses = harvest_witnesses()
    assert len(witnesses) == 16
    for shape, (d, site) in sorted(witnesses.items()):
        before = evaluate_all(formulas, d, conv)
        d2 = apply_move(d, site)
        assert evaluate_all(formulas, d2, conv) == before, shape
        assert apply_move(d2, site) == d, shape


# Child of the smallest torus diagram holding a triple whose decoration
# is outside the admissible table; forcing it must change some value.
OFF_TABLE_PARENT = "arrows; n=5; 6>1:+ 2>5:+ 3>8:+ 9>4:+ 7>10:+"
OFF_TABLE_TRIPLE = (2, 4, 8)


def test_off_table_triple_is_filtered_and_breaks_invariance(formulas, conv):
    d = apply_move(gen_torus(3).diagram, parse_move_line("iR2_insert 0 2 down"))
    assert serialize_diagram(d) == OFF_TABLE_PARENT
    shape = triple_shape(d, OFF_TABLE_TRIPLE)
    assert shape is not None
    assert shape[1] not in TRIPLE_TABLE[shape[0]]

    realizable = {s.data for s in find_sites(d, MoveKind.R3)}
    off_table = {s.data for s in find_sites(d, MoveKind.NR3)}
    assert OFF_TABLE_TRIPLE not in realizable
    assert OFF_TABLE_TRIPLE in off_table

    with pytest.raises(StaleSiteError):
        apply_move(d, MoveSite(MoveKind.R3, OFF_TABLE_TRIPLE))
    site = MoveSite(MoveKind.NR3, OFF_TABLE_TRIPLE)
    before = evaluate_all(formulas, d, conv)
    after = evaluate_all(formulas, apply_move(d, site), conv)
    assert before == (1, -1, 0, 0, 0, -1)
    assert after == (-1, -1, 2, 0, 0, 0)


def test_stale_sites_rejected():
    tor = gen_torus(3).diagram
    with pytest.raises(StaleSiteError):
        apply_move(EMPTY, MoveSite(MoveKind.R3, (1, 3, 5)))
    with pytest.raises(StaleSiteError):
        apply_move(tor, MoveSite(MoveKind.NR3, (1, 3, 5)))  # an R3 site
    # In order and in range, but the three pairs are not joined.
    with pytest.raises(StaleSiteError) as info:
        apply_move(gen_cabc(0, 3, 0).diagram, MoveSite(MoveKind.R3, (1, 3, 5)))
    assert str(info.value) == "stale triple-point site: R3 1 3 5"
    with pytest.raises(StaleSiteError):
        apply_move(tor, MoveSite(MoveKind.IR2_DELETE, (1,)))
    with pytest.raises(StaleSiteError):
        apply_move(tor, MoveSite(MoveKind.IR2_INSERT, (99, 99, "up")))
    for arcs in ((99, 99), (3, 2), (-1, 0)):
        with pytest.raises(StaleSiteError, match="arcs out of range"):
            apply_move(tor, MoveSite(MoveKind.IR2_INSERT, (*arcs, Variant.UP)))
    # Malformed data is a stale site for every kind, never a raw
    # ValueError or TypeError, and True is not slot 1.
    malformed = [
        (MoveKind.IR2_INSERT, (1, 2)),
        (MoveKind.IR2_INSERT, ("1", 2, Variant.UP)),
        (MoveKind.DR2_INSERT, (1, 2, Variant.UP, 0)),
        (MoveKind.R3, (1, 3)),
        (MoveKind.R3, ("1", 3, 5)),
        (MoveKind.R3, (1, 3, 5.0)),
        (MoveKind.DR2_DELETE, ()),
    ]
    for kind, data in malformed:
        with pytest.raises(StaleSiteError):
            apply_move(tor, MoveSite(kind, data))
    pair = parse_diagram("arrows; n=2; 1>4:+ 3>2:+")
    assert apply_move(pair, MoveSite(MoveKind.IR2_DELETE, (1,))) == EMPTY
    with pytest.raises(StaleSiteError):
        apply_move(pair, MoveSite(MoveKind.IR2_DELETE, (True,)))


def test_balanced_walk_builds_each_slot_table_once(monkeypatch):
    built = []
    table = ArrowDiagram.__dict__["slots"]
    build = table.func

    def counting_build(d):
        built.append(d)  # keeps d alive, so ids stay distinct
        return build(d)

    monkeypatch.setattr(table, "func", counting_build)
    d = gen_cabc(0, 4, 4).diagram
    seen = [d]
    for _, d in walk(d, random.Random(4), 200, random_site_balanced):
        seen.append(d)
    assert 0 < len(built) <= len(seen)
    assert len({id(x) for x in built}) == len(built)


def test_random_site_draws_from_found_sites():
    rng = random.Random(3)
    d = gen_cabc(1, 1, 1).diagram
    legal = {
        (kind, s.data)
        for kind in INVARIANCE_KINDS
        for s in find_sites(d, kind)
    }
    for picker in (random_site, random_site_balanced):
        for _ in range(50):
            site = picker(d, rng)
            assert (site.kind, site.data) in legal
    for picker in (random_site, random_site_balanced):
        assert picker(EMPTY, rng, kinds=(MoveKind.IR2_DELETE,)) is None


def test_replay_applies_logged_moves():
    d = gen_torus(3).diagram
    out = replay(d, ["# comment", "iR2_insert 0 2 down", "iR2_delete 1"])
    assert out == d
    with pytest.raises(StaleSiteError):
        replay(d, ["iR2_delete 1"])
    # ASCII spaces around a line are ignored; other whitespace is refused.
    assert replay(d, ["  iR2_insert 0 2 down ", " # note", "  "]) != d
    for line in ("\tiR2_insert 0 2 down", "iR2_insert 0 2\u00a0down",
                 "\u3000iR2_insert 0 2 down", "iR2_insert 0 2 down\u3000",
                 "\u3000", "\t# note"):
        with pytest.raises(ValueError, match="bad move line"):
            replay(d, [line])


def test_fuzz_zero_depth_is_vacuous(formulas, conv):
    report = fuzz_invariance(formulas, [gen_torus(3)], trials=5, depth=0,
                             rng_seed=0, convention=conv)
    assert report.ok
    assert report.format() == "OK trials=5 depth=0 seeds=1"


@pytest.mark.parametrize("trials,depth", [(-2, 3), (2, -4)])
def test_fuzz_rejects_negative_trials_or_depth(formulas, conv, trials, depth):
    with pytest.raises(ValueError, match="must be >= 0"):
        fuzz_invariance(formulas, [gen_torus(3)], trials=trials, depth=depth,
                        rng_seed=0, convention=conv)


def test_fuzz_refuses_unusable_input_before_any_walk(formulas, conv):
    arrow = parse_formula("T := +[1>4,5>2,3>6]")
    for trials in (0, 1):
        with pytest.raises(KindMismatchError, match="expected chord patterns"):
            fuzz_invariance([*formulas, arrow], [gen_torus(3)], trials=trials,
                            depth=3, rng_seed=0, convention=conv)
    with pytest.raises(ValueError, match="max_violations must be >= 0"):
        fuzz_invariance(formulas, [gen_torus(3)], trials=2, depth=3,
                        rng_seed=0, convention=conv, max_violations=-1)


def test_fuzz_clean_run(formulas, conv):
    report = fuzz_invariance(formulas, default_fuzz_seeds(), trials=8,
                             depth=12, rng_seed=123, convention=conv)
    assert report.ok and report.violations == []


def test_fuzz_catches_a_flipped_coefficient(conv):
    f = builtin_formulas()[2]
    flipped = Formula(name=f.name, terms=((-f.terms[0][0], f.terms[0][1]),)
                      + f.terms[1:])
    report = fuzz_invariance([flipped], default_fuzz_seeds(), trials=100,
                             depth=20, rng_seed=0, convention=conv,
                             max_violations=1)
    assert not report.ok
    v = report.violations[0]
    assert isinstance(v, FuzzViolation)
    assert v.names == (f.name,)
    assert v.before != v.after
    assert f.name in v.format()


def test_fuzz_violation_log_is_replayable(formulas, conv):
    kinds = INVARIANCE_KINDS + (MoveKind.DR2_INSERT, MoveKind.DR2_DELETE)
    report = fuzz_invariance(formulas, default_fuzz_seeds(), trials=50,
                             depth=10, rng_seed=1, convention=conv,
                             kinds=kinds, max_violations=1)
    assert not report.ok
    v = report.violations[0]
    seed = parse_diagram(v.seed_text)
    assert evaluate_all(formulas, seed, conv) == v.before
    end = replay(seed, v.log)
    assert evaluate_all(formulas, end, conv) == v.after


def test_fuzz_reads_seeds_once_and_a_zero_cap_keeps_all(formulas, conv):
    # A small dR2 run with several violations: an iterator of seeds gives
    # the list's report, and a cap of 0 means no cap, as None does.
    kinds = INVARIANCE_KINDS + (MoveKind.DR2_INSERT, MoveKind.DR2_DELETE)
    seeds = default_fuzz_seeds()[:4]

    def run(seeds, cap):
        return fuzz_invariance(formulas, seeds, trials=10, depth=6,
                               rng_seed=2, convention=conv, kinds=kinds,
                               max_violations=cap)

    report = run(seeds, None)
    assert len(report.violations) > 1
    assert run(seeds, 0) == report
    assert run(iter(seeds), None) == report


def test_fuzz_violations_match_per_diagram_evaluation(formulas, conv):
    # Reference: the walk of each (seed, trial) in order, each endpoint
    # evaluated on its own, up to the 57th value change: trial 26 of the
    # second seed, whose first batch of endpoints ends at trial 24.
    kinds = INVARIANCE_KINDS + (MoveKind.DR2_INSERT, MoveKind.DR2_DELETE)
    seeds = default_fuzz_seeds()
    trials, depth, cap = 30, 8, 57
    report = fuzz_invariance(formulas, seeds, trials=trials, depth=depth,
                             rng_seed=7, convention=conv, kinds=kinds,
                             max_violations=cap)
    expected = []
    for si, seed in enumerate(seeds):
        base = evaluate_all(formulas, seed.diagram, conv)
        for trial in range(trials):
            rng = random.Random(f"7:{si}:{trial}")
            d, log = seed.diagram, []
            for site, d in walk(seed.diagram, rng, depth, random_site, kinds):
                log.append(site.format())
            if len(log) < depth:
                log.append(STOPPED_EARLY)
            after = evaluate_all(formulas, d, conv)
            if after != base and len(expected) < cap:
                expected.append(FuzzViolation(
                    si, serialize_diagram(seed.diagram), trial,
                    tuple(f.name for f in formulas), base, after, tuple(log),
                ))
    assert (expected[-1].seed_index, expected[-1].trial) == (1, 26)
    assert report.violations == expected


def test_delete_site_checked_locally():
    pair = parse_diagram("arrows; n=2; 1>4:+ 3>2:+")
    assert find_sites(pair, MoveKind.IR2_DELETE) == [
        MoveSite(MoveKind.IR2_DELETE, (1,))
    ]
    assert apply_move(pair, MoveSite(MoveKind.IR2_DELETE, (1,))) == EMPTY
    stale = [
        (pair, (4,)),  # upper endpoint of the outer arrow
        (pair, (2,)),  # lower endpoint of the inner arrow, no mate inside
        (parse_diagram("arrows; n=2; 1>4:- 3>2:+"), (1,)),  # negative arrow
        (parse_diagram("arrows; n=2; 1>4:+ 3>2:-"), (1,)),  # negative mate
        (pair, (0,)),
        (pair, (5,)),
        (pair, (-3,)),
        (pair, ()),
        (pair, (1, 4)),
        (pair, ("1",)),
        (pair, ([1],)),
    ]
    for d, data in stale:
        with pytest.raises(StaleSiteError):
            apply_move(d, MoveSite(MoveKind.IR2_DELETE, data))


def test_delete_accepts_exactly_the_found_sites():
    # Every slot from -1 to 2n+2 is tried: slots 1 and 2n, the sentinels 0
    # and 2n+1, and one past each.
    rng = random.Random(17)
    walked = []
    for start in small_diagrams():
        d = start
        for _ in range(6):
            d = apply_move(d, random_site(d, rng, kinds=INSERT_KINDS))
            walked.append(d)
    for d in walked + [walked_large()]:
        for kind in DELETE_OF.values():
            found = find_sites(d, kind)
            for p in range(-1, 2 * d.n + 3):
                site = MoveSite(kind, (p,))
                try:
                    apply_move(d, site)
                except StaleSiteError:
                    assert site not in found
                else:
                    assert site in found


_VARIANT_RANK = {Variant.UP: 0, Variant.DOWN: 1}


def _site_key(site):
    return tuple(_VARIANT_RANK[x] if isinstance(x, Variant) else x
                 for x in site.data)


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_found_sites_strictly_ascend(kind):
    # Samplers draw sites by index, so the RNG stream depends on this order.
    for d in [*oracle_seed_set(), walked_large()]:
        keys = [_site_key(s) for s in find_sites(d, kind)]
        assert all(a < b for a, b in zip(keys, keys[1:])), kind


@pytest.mark.parametrize("kind", KIND_ORDER)
def test_applied_diagrams_are_canonical(kind):
    # Applies build canonical order without sorting; the public constructor
    # sorts. Both must give the same value, down to the arrow tuple.
    large = walked_large()
    cases = [(d, s) for d in oracle_seed_set() for s in find_sites(d, kind)]
    sites = find_sites(large, kind)
    # Every insert site of 200 chords is 160,000 applies; take a spread.
    cases += [(large, s) for s in sites[::max(1, len(sites) // 400)]]
    assert cases
    for d, site in cases:
        got = apply_move(d, site)
        rebuilt = ArrowDiagram(n=got.n, arrows=tuple(reversed(got.arrows)))
        assert got.arrows == rebuilt.arrows, site.format()
        assert got == rebuilt and hash(got) == hash(rebuilt)
