import itertools

import pytest

from curveinv import (
    MoveKind,
    evaluate_all,
    gen_cabc,
    gen_equivalent,
    gen_torus,
    parse_diagram,
    replay,
    serialize_diagram,
    validate,
)


def test_cabc_metadata():
    cd = gen_cabc(2, 1, 1)
    assert cd.rot == 2 and cd.jplus == 2
    assert cd.provenance == "cabc(2,1,1)"


@pytest.mark.parametrize("a", range(4))
@pytest.mark.parametrize("b", range(4))
@pytest.mark.parametrize("c", range(4))
def test_cabc_grid_facts(a, b, c):
    cd = gen_cabc(a, b, c)
    assert cd.rot == a
    assert cd.jplus == a - 2 * b + 2 * c
    assert cd.jplus == gen_cabc(a, b + 1, c + 1).jplus


def test_cabc_empty_family_member_round_trips():
    cd = gen_cabc(0, 0, 0)
    assert cd.diagram.n == 0
    assert validate(cd.diagram) == []
    assert parse_diagram(serialize_diagram(cd.diagram)) == cd.diagram


def test_cabc_validates_and_sizes_affinely():
    for a, b, c in itertools.product(range(6), repeat=3):
        cd = gen_cabc(a, b, c)
        assert validate(cd.diagram) == []
        assert cd.diagram.n == a + 2 * b + 2 * c


def test_cabc_arrows_all_positive():
    d = gen_cabc(3, 2, 1).diagram
    assert all(s == 1 for _, _, s in d.arrows)


def test_cabc_rejects_negative_counts():
    with pytest.raises(ValueError):
        gen_cabc(-1, 0, 0)


def test_torus_smallest():
    cd = gen_torus(3)
    d = cd.diagram
    assert d.n == 3
    assert {tuple(sorted((t, h))) for t, h, _ in d.arrows} == {(1, 4), (2, 5), (3, 6)}
    assert cd.rot == 2 and cd.jplus is None
    assert cd.provenance == "torus(3)"


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_torus_pairs_all_interleaved(n):
    d = gen_torus(n).diagram
    assert validate(d) == []
    assert all(s == 1 for _, _, s in d.arrows)
    spans = sorted((min(t, h), max(t, h)) for t, h, _ in d.arrows)
    for (a1, b1), (a2, b2) in itertools.combinations(spans, 2):
        assert a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


@pytest.mark.parametrize("n", [0, 2, 4, 1, -3])
def test_torus_rejects_even_or_small(n):
    with pytest.raises(ValueError):
        gen_torus(n)


def test_equivalent_zero_moves_is_identity():
    seed = gen_cabc(2, 1, 1)
    out, log = gen_equivalent(seed, rng_seed=0, num_moves=0)
    assert out.diagram == seed.diagram
    assert [line for line in log if not line.startswith("#")] == []


def test_equivalent_log_replays_exactly():
    seed = gen_cabc(2, 1, 1)
    out, log = gen_equivalent(seed, rng_seed=42, num_moves=12)
    assert replay(seed.diagram, log) == out.diagram


def test_equivalent_is_deterministic():
    seed = gen_torus(5)
    a = gen_equivalent(seed, rng_seed="walk", num_moves=9)
    b = gen_equivalent(seed, rng_seed="walk", num_moves=9)
    assert a[0].diagram == b[0].diagram and a[1] == b[1]


def test_equivalent_keeps_metadata_and_provenance():
    seed = gen_cabc(1, 2, 3)
    out, _ = gen_equivalent(seed, rng_seed=1, num_moves=6)
    assert out.rot == seed.rot and out.jplus == seed.jplus
    assert out.provenance.startswith("cabc(1,2,3)+")


def test_equivalent_rejects_control_moves():
    with pytest.raises(ValueError):
        gen_equivalent(gen_torus(3), rng_seed=0, num_moves=1,
                       kinds=(MoveKind.DR2_INSERT,))


def test_equivalent_stops_early_without_sites():
    # The smallest torus diagram has nothing to delete, so a delete-only
    # walk applies no moves and says so in the log.
    seed = gen_torus(3)
    out, log = gen_equivalent(seed, rng_seed=0, num_moves=5,
                              kinds=(MoveKind.IR2_DELETE,))
    assert out.diagram == seed.diagram
    assert any("stopped early" in line for line in log)


def test_equivalent_preserves_formula_values(formulas, conv):
    seed = gen_cabc(2, 1, 1)
    before = evaluate_all(formulas, seed.diagram, conv)
    for trial in range(40):
        out, _ = gen_equivalent(seed, rng_seed=f"inv:{trial}", num_moves=10)
        assert validate(out.diagram) == []
        assert evaluate_all(formulas, out.diagram, conv) == before


def test_gen_equivalent_rejects_negative_move_count():
    with pytest.raises(ValueError, match="num_moves"):
        gen_equivalent(gen_cabc(1, 1, 1), rng_seed=0, num_moves=-3)
