import os
import subprocess
import sys
from pathlib import Path

import pytest

import curveinv
from curveinv import counting
from curveinv.cli import main

TORUS3 = "arrows; n=3; 1>4:+ 5>2:+ 3>6:+"
TORUS5 = "arrows; n=5; 1>6:+ 7>2:+ 3>8:+ 9>4:+ 5>10:+"


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


def test_one_process_runs_like_fresh_processes(tmp_path, capsys):
    # The parser is built once per process; interleaved commands, flags
    # and usage errors must each print what a fresh process prints.
    log = tmp_path / "log.txt"
    log.write_text("iR2_insert 0 2 down\n")
    flags = ("--orientation", "cw", "--arrow-rule", "forward_minus",
             "--eval-mode", "constrained")
    calls = [
        ("eval", "--formula", "I3_1", "--code", TORUS5),
        ("eval", "--formula", "I3_1", "--code", TORUS5, *flags),
        ("fuzz", "--trials", "2", "--depth", "3", "--rng-seed", "4"),
        ("replay", "--code", TORUS3, "--log", str(log)),
        ("eval", "--formula", "I2_1", "--orientation", "cw",
         "--code", TORUS3),
        ("eval", "--formula", "I2_1", "--kinds", "R3", "--code", TORUS3),
        ("eval", "--formula", "I3_1", "--code", TORUS5),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(curveinv.__file__).parents[1])}
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "curveinv.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                    fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 2, 2, 0]


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


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (("fuzz", "--kinds", ","), "", "empty move-kind list"),
        (("fuzz", "--seeds", "FILE"), "chords; n=1; 1-2:+\n",
         "line 1: fuzz seeds must be arrow diagrams"),
        (("fuzz", "--seeds", "FILE"), "# no seeds\n",
         "seed file holds no diagrams"),
        (("replay", "--code", "chords; n=1; 1-2:+", "--log", "FILE"), "",
         "replay operates on arrow diagrams"),
        # The invariance walks of fuzz and calibrate count chord formulas
        # only; evaluate_many itself would count an arrow formula.
        (("calibrate", "--registry", "FILE"), "T := [1>4,5>2,3>6]\n",
         "expected chord patterns"),
        # Refused before any walk, so also when no move is drawn.
        (("calibrate", "--trials", "0", "--registry", "FILE"),
         "T := +[1>4,5>2,3>6]\n", "expected chord patterns"),
        (("calibrate", "--trials", "0", "--registry", "FILE"),
         "A := +[1-2]\nT := +[1>4,5>2,3>6]\n", "expected chord patterns"),
    ],
)
def test_unusable_input_exits_2(tmp_path, capsys, argv, text, message):
    f = tmp_path / "input.txt"
    f.write_text(text)
    code, out, err = run(capsys, *(str(f) if a == "FILE" else a for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


TEN_CHORDS = "chords; n=10; " + " ".join(
    f"{2 * i + 1}-{2 * i + 2}:+" for i in range(10)
)


@pytest.mark.parametrize("coefficient,expected", [
    # The largest coefficient whose value on 10 chords fits int64: exact.
    ("922337203685477580", (0, "9223372036854775800\n", "")),
    # 10^19 would wrap int64; a coefficient past it would not convert.
    ("1000000000000000000", (2, "", "error: formula values could leave"
                             " int64 at n=10\n")),
    ("99999999999999999999", (2, "", "error: formula coefficient out of"
                              " int64 range\n")),
])
def test_eval_values_are_exact_or_refused(capsys, coefficient, expected):
    formula = f"X := +{coefficient}[1-2]"
    assert run(capsys, "eval", "--formula", formula,
               "--code", TEN_CHORDS) == expected


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


# Invalid records are refused with validate's violations, exit code 2 and
# nothing on stdout; the messages are pinned byte for byte.
BAD_N = "arrows; n=3; 1>2:+"
BAD_N_ERR = ("error: n=3 but 1 arrows present; slot 3 unused; "
             "slot 4 unused; slot 5 unused; slot 6 unused\n")
OUT_OF_RANGE = "arrows; n=1; 1>5:+"
OUT_OF_RANGE_ERR = "error: arrow 0: slot 5 out of range 1..2; slot 2 unused\n"


@pytest.mark.parametrize(
    "record,stderr",
    [
        (BAD_N, BAD_N_ERR),
        (OUT_OF_RANGE, OUT_OF_RANGE_ERR),
        ("chords; n=2; 1-3:+ 2-3:+",
         "error: slot 3 reused; slot 4 unused\n"),
        ("chords; n=1000000; 1-2:+",
         "error: n=1000000 but 1 chords present; "
         + "".join(f"slot {s} unused; " for s in range(3, 13))
         + "1999988 more slots unused\n"),
    ],
)
def test_eval_refuses_invalid_record(capsys, record, stderr):
    code, out, err = run(capsys, "eval", "--formula", "I2_1", "--code", record)
    assert (code, out, err) == (2, "", stderr)


def test_eval_keeps_values_printed_before_an_invalid_record(tmp_path, capsys):
    # A record read from a file names its line, as fuzz seeds' refusals do.
    f = tmp_path / "diagrams.txt"
    f.write_text("chords; n=2; 1-3:+ 2-4:+\n" + BAD_N + "\n")
    code, out, err = run(capsys, "eval", "--formula", "I2_1", str(f))
    assert (code, out, err) == (2, "-1\n", "error: line 2: " + BAD_N_ERR[7:])


MIXED = ["# three good records, then a bad one, then one never read",
         TORUS3, "", TORUS5, TORUS3]


@pytest.mark.parametrize(
    "formula,bad,values,stderr",
    [
        ("I2_1", BAD_N, "1\n2\n1\n", "error: line 6: " + BAD_N_ERR[7:]),
        ("I2_1", "arrows; n=1; 1>1:+", "1\n2\n1\n",
         "error: line 6, col 16: chord endpoints equal at slot 1\n"),
        ("T := +[1>4,5>2,3>6]", "chords; n=1; 1-2:+", "1\n5\n1\n",
         "error: arrow formula needs an arrow diagram\n"),
    ],
)
def test_eval_file_prints_the_values_before_its_first_bad_record(
    tmp_path, capsys, monkeypatch, formula, bad, values, stderr
):
    # The records before the first bad one are counted in one batch (one
    # table set) and printed; then the bad one is refused.
    f = tmp_path / "diagrams.txt"
    f.write_text("\n".join(MIXED + [bad, TORUS3]) + "\n")
    built = []
    init = counting.DiagramTables.__init__

    def recording(self, diagrams, rule, weighted):
        built.append(len(diagrams))
        init(self, diagrams, rule, weighted)

    monkeypatch.setattr(counting.DiagramTables, "__init__", recording)
    code, out, err = run(capsys, "eval", "--formula", formula, str(f))
    assert (code, out, err) == (2, values, stderr)
    assert built == [3]


def test_replay_refuses_invalid_record(tmp_path, capsys):
    log = tmp_path / "log.txt"
    log.write_text("")
    code, out, err = run(capsys, "replay", "--code", BAD_N, "--log", str(log))
    assert (code, out, err) == (2, "", BAD_N_ERR)
    f = tmp_path / "start.txt"
    f.write_text("# start\n" + BAD_N + "\n")
    code, out, err = run(capsys, "replay", str(f), "--log", str(log))
    assert (code, out, err) == (2, "", "error: line 2: " + BAD_N_ERR[7:])


def test_fuzz_refuses_invalid_seed_record(tmp_path, capsys):
    f = tmp_path / "seeds.txt"
    f.write_text(TORUS3 + "\n" + OUT_OF_RANGE + "\n")
    code, out, err = run(capsys, "fuzz", "--seeds", str(f), "--trials", "2",
                         "--depth", "3")
    assert (code, out, err) == (2, "", "error: line 2: " + OUT_OF_RANGE_ERR[7:])
