"""Byte-level pins on move logs, RNG draws and CLI output.

Each stream is joined into one text and compared by sha256 with a value
recorded from a known-good build, so any change to site order, sampling,
RNG consumption or report formatting shows up here.
"""

import hashlib
import itertools
import random

import pytest

from curveinv import (
    MoveKind,
    apply_move,
    gen_cabc,
    gen_equivalent,
    gen_torus,
    random_site,
    random_site_balanced,
    serialize_diagram,
)
from curveinv.cli import main
from curveinv.moves import INVARIANCE_KINDS, KIND_ORDER, walk
from curveinv.registry import FORMULA_NAMES


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _equivalent_logs() -> str:
    blocks = []
    for s in range(5):
        _, log = gen_equivalent(gen_cabc(2, 1, 1), rng_seed=s, num_moves=60)
        blocks.append("\n".join(log))
    return "\n--\n".join(blocks)


def _early_stop_log() -> str:
    _, log = gen_equivalent(
        gen_cabc(0, 0, 0), rng_seed=0, num_moves=5,
        kinds=(MoveKind.IR2_DELETE,),
    )
    return "\n".join(log)


def _alternating_samplers_log() -> str:
    rng = random.Random(7)
    d = gen_cabc(0, 5, 5).diagram
    log = []
    for step in range(300):
        picker = random_site if step % 2 == 0 else random_site_balanced
        site = picker(d, rng)
        log.append(site.format())
        d = apply_move(d, site)
    return "\n".join(log)


def _large_walk_log(sample, steps, rng_seed, kinds=INVARIANCE_KINDS) -> str:
    # cabc(0,50,50) has 200 chords; the endpoint is pinned with the log.
    d = gen_cabc(0, 50, 50).diagram
    log = []
    for site, d in walk(d, random.Random(rng_seed), steps, sample, kinds):
        log.append(site.format())
    return "\n".join(log + [serialize_diagram(d)])


def _cli_stdout(capsys, argv) -> str:
    main(argv)
    return capsys.readouterr().out


# Stands for a file of one arrow and one chord record in the argv lists.
RECORDS = object()


def _records_text() -> str:
    return (
        serialize_diagram(gen_cabc(2, 1, 3).diagram)
        + "\nchords; n=4; 1-5:+ 2-7:- 3-4:+ 6-8:-\n"
    )


def _flags(orientation, rule, mode) -> list[str]:
    return ["--orientation", orientation, "--arrow-rule", rule,
            "--eval-mode", mode]


def _eval_under(orientation, rule, mode) -> list[list]:
    """eval of every builtin and a sign-constrained chord formula on the
    records, then the triangle as an arrow formula on torus(21)."""
    flags = _flags(orientation, rule, mode)
    chord = "C := +[1-4,5-2,3-6] -2[1-2:-]"
    runs = [
        ["eval", "--formula", f, *flags, RECORDS]
        for f in (*FORMULA_NAMES, chord)
    ]
    torus = serialize_diagram(gen_torus(21).diagram)
    runs.append(["eval", "--formula", "T := +[1>4,5>2,3>6]", "--code", torus,
                 *flags])
    return runs


def test_walk_streams_are_pinned():
    assert _digest(_equivalent_logs()) == (
        "61f5e4ddf6cb318e600adb133a2a78e75ae10509dbe8d2aa045c8f29d926c585"
    )
    assert _digest(_early_stop_log()) == (
        "0f18275e166477dd1038a73df2ff25d6077e05545694a7d7e5d080606f2908cb"
    )
    assert _digest(_alternating_samplers_log()) == (
        "8b07f5e679805c8c6b92b856da66c82a5b581d4448f62197db3d97111454867e"
    )


def test_large_walk_streams_are_pinned():
    # 200-chord walks: deletes and triple points at scale, all six kinds in
    # the last one.
    assert _digest(_large_walk_log(random_site_balanced, 200, 11)) == (
        "219f44915e9f430c767e8a72123151d2bd0115b6a4ac4b9a7e0dc6912ebfb2fb"
    )
    assert _digest(_large_walk_log(random_site, 20, 12)) == (
        "b2918d24d0b4119e761580a7451060795bc2efb87d3e08b79fa41b6868645ef4"
    )
    assert _digest(
        _large_walk_log(random_site_balanced, 120, 13, KIND_ORDER)
    ) == "e977650ec1c7feeb4b42b47ab27aa40daa26d5ccf42df2836f55d104b35ad6fd"


@pytest.mark.parametrize("argv,expected", [
    (
        ["calibrate", "--trials", "20", "--rng-seed", "3"],
        "2a08d7e1849301934813ca647f6e26a36d690d8a16a0a0bb555ad63b6b60b860",
    ),
    (
        ["fuzz", "--trials", "5", "--depth", "8", "--kinds",
         "iR2_insert,iR2_delete,R3,dR2_insert,dR2_delete"],
        "09ae4b01b8cc223cba74b7fa212b135158831518dd6b6d65a00b20b6b8a2e5e4",
    ),
    # One case per convention, and table under each eval mode.
    *(
        (_eval_under(o, r, m), expected)
        for (o, r, m), expected in zip(
            itertools.product(("ccw", "cw"), ("forward_plus", "forward_minus"),
                              ("weighted", "constrained")),
            (
                "d0137089b32a7d3375dd76b5f06c3938ad5d9061d3b7c6d44e0c342035fece40",
                "82a55db1d875b1bf3e0e730d3ab640cc7ad320b92a7cc96569b24b2594a72b2f",
                "621d6330aaa87c79892f0126dd666998b10e744b27582e308e7fe83214f752fc",
                "aac5481d1c7ebca402bf38451e2782bba4de216eb02f49a3e1a47f4563e43e80",
                "5002e39edcdbe6713be7224e2058f6843ed53755210c84237ce29bcf8cecbda4",
                "b5e6ae102e3a21f22d438be8c1e8034032040f54020768f8710eb9b03b9d6ba6",
                "fe919516ac115e26a2eaed8e24a56989e435167ef4116073653e3743d1d814a3",
                "179ee15ecf5bf344081b913702d6b5a5bde40363f66f5cabac7307981af25109",
            ),
        )
    ),
    *(
        (["table", "--r", "2", "--b0", "1", "--c0", "1", "--kmax", "5",
          *_flags("ccw", "forward_plus", m)], expected)
        for m, expected in (
            ("weighted",
             "997875a32026d06c7bb69c2583c40b42af0ea6d7b16c4fc1b8be32e20c26612a"),
            ("constrained",
             "3a2ebc7b3fc9124b314ca80c6c01843093e2c8299492938dd46740b39cf0acdc"),
        )
    ),
])
def test_cli_streams_are_pinned(capsys, tmp_path, argv, expected):
    records = tmp_path / "records.txt"
    records.write_text(_records_text())
    runs = argv if isinstance(argv[0], list) else [argv]
    out = "".join(
        _cli_stdout(capsys, [str(records) if a is RECORDS else a for a in run])
        for run in runs
    )
    assert _digest(out) == expected
