"""Byte-level pins on move logs, RNG draws and CLI output.

Each stream is joined into one text and compared by sha256 with a value
recorded from a known-good build, so any change to site order, sampling,
RNG consumption or report formatting shows up here.
"""

import hashlib
import random

import pytest

from curveinv import (
    MoveKind,
    apply_move,
    gen_cabc,
    gen_equivalent,
    random_site,
    random_site_balanced,
    serialize_diagram,
)
from curveinv.cli import main
from curveinv.moves import INVARIANCE_KINDS, KIND_ORDER, walk


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
])
def test_cli_streams_are_pinned(capsys, argv, expected):
    assert _digest(_cli_stdout(capsys, argv)) == expected
