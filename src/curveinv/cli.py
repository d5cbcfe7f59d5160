"""Command-line interface.

Exit codes: 0 success, 1 a property check found violations (fuzz hits,
empty calibration), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .counting import (
    KindMismatchError,
    evaluate_many,
    evaluate_with_convention,
)
from .diagrams import (
    ArrowDiagram,
    ArrowRule,
    Convention,
    Orientation,
    iter_diagram_records,
    parse_diagram,
    serialize_diagram,
)
from .generators import gen_cabc, gen_torus
from .moves import INVARIANCE_KINDS, MoveKind, fuzz_invariance, replay
from .patterns import EvalMode, parse_formula
from .registry import (
    FORMULA_NAMES,
    builtin_formula,
    builtin_formulas,
    calibrate,
    default_fuzz_seeds,
    frozen_calibration,
    parse_formula_file,
)


def _convention_from(args) -> Convention:
    chosen = (args.orientation, args.arrow_rule, args.eval_mode)
    if all(chosen):
        return Convention(
            orientation=Orientation(args.orientation),
            arrow_rule=ArrowRule(args.arrow_rule),
            eval_mode=EvalMode(args.eval_mode),
        )
    if any(chosen):
        raise ValueError(
            "give all of --orientation/--arrow-rule/--eval-mode, or none"
        )
    return frozen_calibration().convention


def _add_convention_flags(sub) -> None:
    for flag, enum in (("--orientation", Orientation),
                       ("--arrow-rule", ArrowRule), ("--eval-mode", EvalMode)):
        sub.add_argument(flag, choices=[c.value for c in enum], default=None)


def _read_records(args) -> list[tuple[int, str]]:
    if args.code is not None and args.file is not None:
        raise ValueError("give --code or a diagram file, not both")
    if args.code is not None:
        return [(1, args.code)]
    if args.file is not None:
        return list(iter_diagram_records(Path(args.file).read_text()))
    raise ValueError("give --code or a diagram file")


def _cmd_eval(args) -> int:
    conv = _convention_from(args)
    if ":=" in args.formula:
        formula = parse_formula(args.formula)
    else:
        formula = builtin_formula(args.formula)
    for lineno, raw in _read_records(args):
        d = parse_diagram(raw, line=lineno)
        print(evaluate_with_convention(formula, d, conv))
    return 0


def _cmd_generate(args) -> int:
    if args.family == "cabc":
        cd = gen_cabc(args.a, args.b, args.c)
    else:
        cd = gen_torus(args.n)
    print(f"# rot={cd.rot}")
    if cd.jplus is not None:
        print(f"# jplus={cd.jplus}")
    print(serialize_diagram(cd.diagram))
    return 0


def _parse_kinds(text: str) -> tuple[MoveKind, ...]:
    out = tuple(MoveKind(n.strip()) for n in text.split(",") if n.strip())
    if not out:
        raise ValueError("empty move-kind list")
    return out


def _load_seeds(args) -> list:
    if args.seeds == "default":
        return default_fuzz_seeds()
    seeds = []
    for lineno, raw in iter_diagram_records(Path(args.seeds).read_text()):
        d = parse_diagram(raw, line=lineno)
        if not isinstance(d, ArrowDiagram):
            raise ValueError(f"line {lineno}: fuzz seeds must be arrow diagrams")
        if any(s != 1 for _, _, s in d.arrows):  # the invariants' domain
            raise ValueError(f"line {lineno}: fuzz seeds need positive arrows")
        seeds.append(d)
    if not seeds:
        raise ValueError("seed file holds no diagrams")
    return seeds


def _cmd_fuzz(args) -> int:
    conv = _convention_from(args)
    report = fuzz_invariance(
        builtin_formulas(),
        _load_seeds(args),
        trials=args.trials,
        depth=args.depth,
        rng_seed=args.rng_seed,
        convention=conv,
        kinds=_parse_kinds(args.kinds),
    )
    print(report.format())
    return 0 if report.ok else 1


def _cmd_calibrate(args) -> int:
    formulas = None
    if args.registry is not None:
        formulas = parse_formula_file(Path(args.registry).read_text())
    seeds = [gen_cabc(1, 1, 1), gen_cabc(2, 1, 1), gen_torus(3)]
    report = calibrate(seeds, args.trials, args.rng_seed, formulas=formulas)
    print(report.format())
    return 0 if report.survivors else 1


def _cmd_table(args) -> int:
    if args.kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {args.kmax}")
    conv = _convention_from(args)
    formulas = builtin_formulas()
    print("k " + " ".join(FORMULA_NAMES))
    rows = evaluate_many(formulas, [
        gen_cabc(args.r, args.b0 + k, args.c0 + k).diagram
        for k in range(1, args.kmax + 1)
    ], conv)
    for k, vals in enumerate(rows, 1):
        print(f"{k} " + " ".join(str(v) for v in vals))
    distinct = len(set(rows)) == len(rows)
    print(f"pairwise distinct: {'yes' if distinct else 'no'}")
    return 0


def _cmd_replay(args) -> int:
    records = _read_records(args)
    if len(records) != 1:
        raise ValueError("replay needs exactly one starting diagram")
    lineno, raw = records[0]
    d = parse_diagram(raw, line=lineno)
    if not isinstance(d, ArrowDiagram):
        raise ValueError("replay operates on arrow diagrams")
    log = Path(args.log).read_text().splitlines()
    out = replay(d, log)
    print(serialize_diagram(out))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveinv",
        description="Count chord/arrow patterns and test move invariance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula on diagrams")
    p.add_argument("--formula", required=True, help="builtin name or text")
    p.add_argument("--code", help="inline diagram text")
    p.add_argument("file", nargs="?", default=None, help="diagram file")
    _add_convention_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("generate", help="emit a family diagram")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("cabc")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--c", type=int, required=True)
    q.set_defaults(func=_cmd_generate)
    q = fam.add_parser("torus")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fuzz", help="random move walks, check invariance")
    p.add_argument("--seeds", default="default", help='"default" or a file')
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--rng-seed", default="0")
    p.add_argument(
        "--kinds",
        default=",".join(k.value for k in INVARIANCE_KINDS),
        help="comma-separated subset of " + ",".join(k.value for k in MoveKind),
    )
    _add_convention_flags(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("calibrate", help="search the convention space")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--rng-seed", default="0")
    p.add_argument("--registry", default=None, help="alternate formula file")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("table", help="family invariant table")
    p.add_argument("--family", choices=["cabc"], default="cabc")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--b0", type=int, required=True)
    p.add_argument("--c0", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    _add_convention_flags(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("replay", help="re-run a move log on a diagram")
    p.add_argument("--code", help="inline diagram text")
    p.add_argument("file", nargs="?", default=None, help="diagram file")
    p.add_argument("--log", required=True, help="move log file")
    p.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KindMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
