import pytest

from curveinv.cli import main

TORUS3 = "arrows; n=3; 1>4:+ 5>2:+ 3>6:+"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_builtin_formula_inline(capsys):
    code, out, _ = run(capsys, "eval", "--formula", "I2_1",
                       "--code", "chords; n=3; 1-4:+ 2-5:+ 3-6:+")
    assert code == 0
    assert out == "-3\n"


def test_eval_small_diagram_is_zero(capsys):
    code, out, _ = run(capsys, "eval", "--formula", "I3_1",
                       "--code", "chords; n=1; 1-2:+")
    assert (code, out) == (0, "0\n")


def test_eval_arrow_diagram_uses_frozen_conversion(capsys):
    code, out, _ = run(capsys, "eval", "--formula", "I2_1", "--code", TORUS3)
    assert (code, out) == (0, "1\n")


def test_eval_formula_text(capsys):
    code, out, _ = run(capsys, "eval", "--formula",
                       "X := +[1-3,2-4]", "--code", "chords; n=2; 1-3:+ 2-4:-")
    assert (code, out) == (0, "-1\n")


def test_eval_unknown_formula(capsys):
    code, out, err = run(capsys, "eval", "--formula", "I9_9", "--code", TORUS3)
    assert code == 2
    assert out == ""
    assert "I9_9" in err


def test_eval_file_input(tmp_path, capsys):
    f = tmp_path / "diagrams.txt"
    f.write_text("# two diagrams\nchords; n=1; 1-2:+\n" + TORUS3 + "\n")
    code, out, _ = run(capsys, "eval", "--formula", "I2_1", str(f))
    assert (code, out) == (0, "0\n1\n")


def test_eval_requires_exactly_one_source(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text(TORUS3 + "\n")
    code, _, err = run(capsys, "eval", "--formula", "I2_1",
                       "--code", TORUS3, str(f))
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "eval", "--formula", "I2_1")
    assert code == 2


def test_eval_malformed_diagram(capsys):
    code, _, err = run(capsys, "eval", "--formula", "I2_1",
                       "--code", "chords; n=2; 1-1:+ 2-4:-")
    assert code == 2 and "error:" in err


def test_explicit_convention_flags(capsys):
    args = ("eval", "--formula", "I2_1", "--code", TORUS3,
            "--orientation", "ccw", "--arrow-rule", "forward_plus",
            "--eval-mode", "weighted")
    code, out, _ = run(capsys, *args)
    assert (code, out) == (0, "1\n")


def test_partial_convention_flags_rejected(capsys):
    code, _, err = run(capsys, "eval", "--formula", "I2_1", "--code", TORUS3,
                       "--orientation", "cw")
    assert code == 2 and "all of" in err


def test_generate_torus(capsys):
    code, out, _ = run(capsys, "generate", "torus", "--n", "3")
    assert code == 0
    assert out == "# rot=2\n" + TORUS3 + "\n"


def test_generate_cabc_metadata(capsys):
    code, out, _ = run(capsys, "generate", "cabc", "--a", "2", "--b", "1",
                       "--c", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# rot=2"
    assert lines[1] == "# jplus=2"
    assert lines[2].startswith("arrows; n=6;")


def test_generate_torus_rejects_even(capsys):
    code, _, err = run(capsys, "generate", "torus", "--n", "4")
    assert code == 2 and "odd" in err


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "fuzz", "--trials", "3", "--depth", "4",
                "--rng-seed", "9")
    second = run(capsys, "fuzz", "--trials", "3", "--depth", "4",
                 "--rng-seed", "9")
    assert first == second


def test_fuzz_ok(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "3", "--depth", "5")
    assert code == 0
    assert out.startswith("OK trials=3 depth=5")


def test_fuzz_seed_file(tmp_path, capsys):
    f = tmp_path / "seeds.txt"
    f.write_text(TORUS3 + "\n")
    code, out, _ = run(capsys, "fuzz", "--seeds", str(f), "--trials", "2",
                       "--depth", "4")
    assert code == 0 and "seeds=1" in out


def test_fuzz_seed_file_refuses_negative_arrows(tmp_path, capsys):
    # The invariants hold on all-positive arrow diagrams only; this seed
    # would otherwise report violations that are not faults.
    f = tmp_path / "seeds.txt"
    f.write_text("# one good seed, then one with a negative arrow\n"
                 + TORUS3 + "\narrows; n=3; 1>4:- 5>2:+ 3>6:+\n")
    code, out, err = run(capsys, "fuzz", "--seeds", str(f), "--trials", "2",
                         "--depth", "4")
    assert code == 2 and out == ""
    assert "line 3" in err and "need positive arrows" in err


def test_fuzz_with_control_moves_fails(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--trials", "20", "--depth", "10",
        "--kinds", "iR2_insert,iR2_delete,R3,dR2_insert,dR2_delete")
    assert code == 1
    assert "violation" in out


def test_fuzz_off_table_triple_violation_replays(tmp_path, capsys):
    # nR3 names its own moves, so the printed log replays as it is.
    code, out, _ = run(
        capsys, "fuzz", "--trials", "30", "--depth", "20",
        "--kinds", "iR2_insert,iR2_delete,R3,nR3")
    assert code == 1
    block = out.split("violation seed=")[1].splitlines()
    seed = next(x for x in block if "seed diagram:" in x).split(": ", 1)[1]
    moves = [x for x in block[block.index("  moves:") + 1:]
             if x.startswith("    ")]
    assert any(x.split()[0] == "nR3" for x in moves)
    log = tmp_path / "log.txt"
    log.write_text("\n".join(moves) + "\n")
    code, replayed, err = run(capsys, "replay", "--code", seed,
                              "--log", str(log))
    assert (code, err) == (0, "")
    after = {x.split(":")[0].strip(): x.split("after=")[1]
             for x in block if "after=" in x}
    for name, value in after.items():
        code, out, _ = run(capsys, "eval", "--formula", name,
                           "--code", replayed.strip())
        assert (code, out) == (0, value + "\n")


def test_fuzz_rejects_unknown_kind(capsys):
    code, _, err = run(capsys, "fuzz", "--kinds", "R4")
    assert code == 2


def test_calibrate_reports_survivors(capsys):
    code, out, _ = run(capsys, "calibrate", "--trials", "10")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip().startswith("orientation=")]
    assert len(lines) == 8
    assert all("eval_mode=weighted" in l for l in lines)


def test_calibrate_corrupted_registry(tmp_path, capsys):
    from curveinv import builtin_formulas, serialize_formula

    lines = []
    for f in builtin_formulas():
        text = serialize_formula(f)
        if f.name == "I3_1":
            head, rest = text.split(":= ", 1)
            text = head + ":= " + ("-" + rest[1:] if rest[0] == "+" else rest)
        lines.append(text)
    reg = tmp_path / "formulas.txt"
    reg.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "calibrate", "--trials", "40",
                       "--registry", str(reg))
    assert code == 1
    assert "no surviving configuration" in out


def test_table_detection(capsys):
    code, out, _ = run(capsys, "table", "--family", "cabc", "--r", "2",
                       "--b0", "1", "--c0", "1", "--kmax", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k I2_1 I3_1 I3_2 I3_3 I3_4 I3_5"
    assert lines[1] == "1 1 0 2 0 1 1"
    assert lines[-1] == "pairwise distinct: yes"


@pytest.mark.parametrize("kmax", ["0", "-2"])
def test_table_rejects_kmax_below_one(capsys, kmax):
    # With no rows, "pairwise distinct: yes" would be a claim about nothing.
    code, out, err = run(capsys, "table", "--r", "2", "--b0", "1",
                         "--c0", "1", "--kmax", kmax)
    assert (code, out) == (2, "")
    assert "--kmax must be >= 1" in err


def test_replay_round_trip(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("iR2_insert 0 2 down\niR2_delete 1\n")
    code, out, _ = run(capsys, "replay", "--code", TORUS3, "--log", str(log))
    assert (code, out) == (0, TORUS3 + "\n")


def test_replay_stale_log(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("iR2_delete 1\n")
    code, _, err = run(capsys, "replay", "--code", TORUS3, "--log", str(log))
    assert code == 2 and "error:" in err


def test_replay_reads_a_diagram_file(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("iR2_insert 0 2 down\n")
    f = tmp_path / "d.txt"
    f.write_text("# start\n" + TORUS3 + "\n")
    code, out, _ = run(capsys, "replay", str(f), "--log", str(log))
    assert code == 0
    assert out.startswith("arrows; n=5;")


def test_replay_requires_exactly_one_source(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("iR2_insert 0 2 down\n")
    f = tmp_path / "d.txt"
    f.write_text(TORUS3 + "\n")
    code, out, err = run(capsys, "replay", "--log", str(log))
    assert (code, out) == (2, "")
    assert err == "error: give --code or a diagram file\n"
    code, out, err = run(capsys, "replay", "--code", TORUS3, str(f),
                         "--log", str(log))
    assert (code, out) == (2, "")
    assert "not both" in err
    f.write_text(TORUS3 + "\n" + TORUS3 + "\n")
    code, _, err = run(capsys, "replay", str(f), "--log", str(log))
    assert code == 2 and "exactly one starting diagram" in err


def test_replay_reports_file_line_of_bad_diagram(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("")
    f = tmp_path / "d.txt"
    f.write_text("# start\narrows; n=1; 1>1:+\n")
    code, _, err = run(capsys, "replay", str(f), "--log", str(log))
    assert code == 2
    assert err == "error: line 2, col 16: chord endpoints equal at slot 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("calibrate", "--trials", "-3"),
        ("fuzz", "--trials", "-2", "--depth", "3"),
        ("fuzz", "--trials", "2", "--depth", "-4"),
    ],
)
def test_negative_counts_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "must be >= 0" in err


def test_calibrate_registry_file_with_comments_matches_builtin(capsys):
    from importlib import resources

    builtin = resources.files("curveinv").joinpath("data/formulas.txt")
    assert "#" in builtin.read_text()
    code, out, _ = run(capsys, "calibrate", "--trials", "20")
    assert code == 0
    assert run(capsys, "calibrate", "--trials", "20",
               "--registry", str(builtin)) == (0, out, "")


def test_calibrate_registry_of_only_comments(tmp_path, capsys):
    reg = tmp_path / "formulas.txt"
    reg.write_text("# nothing here\n\n   # still nothing\n")
    code, _, err = run(capsys, "calibrate", "--registry", str(reg))
    assert code == 2
    assert "holds no formulas" in err
