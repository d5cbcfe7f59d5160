"""Spans around calls into curveinv's public functions, and the per-layer
metrics derived from them.

The tracer swaps each target for a timing wrapper in every curveinv module
namespace that holds it, so the copies that modules import from one another
(moves.evaluate_all, cli.evaluate_with_convention, ...) are timed too.
Methods are wrapped on their class. Nothing under src/ changes, and
uninstall() puts every original back. A target that no longer exists is
recorded as missing; the metrics that need it are then reported as missing
instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time


def _arg(args, kwargs, position, name):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def _fixed(name):
    return lambda args, kwargs: (name, 0)


def _find_sites(args, kwargs):
    kind = _arg(args, kwargs, 1, "kind")
    return f"find_sites.{getattr(kind, 'value', kind)}", 0


def _apply(args, kwargs):
    site = _arg(args, kwargs, 1, "site")
    kind = getattr(site, "kind", None)
    return f"apply.{getattr(kind, 'value', kind)}", 0


def _evaluate_all(args, kwargs):
    # Tag: number of chord formulas evaluated by this call.
    return "evaluate", len(_arg(args, kwargs, 0, "formulas") or ())


def _evaluate_one(args, kwargs):
    formula = _arg(args, kwargs, 0, "f")
    kind = getattr(getattr(formula, "kind", None), "value", None)
    return "evaluate", int(kind == "chord")


# (module, attribute, span labeller). Group = span name up to the first dot.
TARGETS = (
    ("curveinv.cli", "main", _fixed("cli")),
    ("curveinv.diagrams", "parse_diagram", _fixed("parse")),
    ("curveinv.diagrams", "arrows_to_chords", _fixed("arrows_to_chords")),
    ("curveinv.patterns", "mirror_formula", _fixed("mirror_formula")),
    ("curveinv.counting", "evaluate_all", _evaluate_all),
    ("curveinv.counting", "evaluate_with_convention", _evaluate_one),
    ("curveinv.counting", "DiagramTables.__init__", _fixed("tables")),
    ("curveinv.counting", "DiagramTables.count", _fixed("count")),
    ("curveinv.counting", "count_arrow_pattern", _fixed("arrow_count")),
    ("curveinv.counting", "count_arrow_with_convention", _fixed("arrow_count")),
    ("curveinv.moves", "find_sites", _find_sites),
    ("curveinv.moves", "random_site", _fixed("sample")),
    ("curveinv.moves", "random_site_balanced", _fixed("sample")),
    ("curveinv.moves", "apply_move", _apply),
    ("curveinv.moves", "replay", _fixed("replay")),
    ("curveinv.registry", "builtin_formulas", _fixed("load")),
    ("curveinv.registry", "frozen_calibration", _fixed("load")),
)


class Tracer:
    """Records (name, start, end, parent, tag, error) spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _wrap(self, fn, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            name, tag = label(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tag, error)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        self.missing = set()
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "curveinv" or key.startswith("curveinv."))
        ]
        for module_name, attr, label in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, label)
            if path:
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

def dump_spans(spans) -> dict:
    """Spans as compact JSON: name index, start and end relative to the
    first span, parent index (-1 at top level), tag and error."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((s[1] for s in spans), default=0.0)
    return {
        "fields": ["name", "start_s", "end_s", "parent", "tag", "error"],
        "names": names,
        "spans": [
            [index[n], round(a - t0, 7), round(b - t0, 7), p, tag, err]
            for n, a, b, p, tag, err in spans
        ],
    }


# Per-layer metric -> (unit, target attributes it needs).
LAYER_METRICS = {
    "cli.self_s": ("s", ["cli.main"]),
    "diagrams.parse_s": ("s", ["diagrams.parse_diagram"]),
    "diagrams.parse_calls": ("count", ["diagrams.parse_diagram"]),
    "diagrams.arrows_to_chords_s": ("s", ["diagrams.arrows_to_chords"]),
    "patterns.mirror_formula_calls": ("count", ["patterns.mirror_formula"]),
    "patterns.mirror_formula_s": ("s", ["patterns.mirror_formula"]),
    "counting.evaluate_calls": ("count", ["counting.evaluate_all", "counting.evaluate_with_convention"]),
    "counting.evaluate_s": ("s", ["counting.evaluate_all", "counting.evaluate_with_convention"]),
    "counting.tables_built": ("count", ["counting.DiagramTables.__init__"]),
    "counting.tables_s": ("s", ["counting.DiagramTables.__init__"]),
    "counting.count_calls": ("count", ["counting.DiagramTables.count"]),
    "counting.count_s": ("s", ["counting.DiagramTables.count"]),
    "counting.count_calls_per_evaluation": (
        "calls/eval",
        ["counting.DiagramTables.count", "counting.evaluate_all",
         "counting.evaluate_with_convention", "counting.count_arrow_pattern"],
    ),
    "counting.arrow_count_s": ("s", ["counting.count_arrow_pattern", "counting.count_arrow_with_convention"]),
    "moves.find_sites_calls.R3": ("count", ["moves.find_sites"]),
    "moves.find_sites_s.R3": ("s", ["moves.find_sites"]),
    "moves.find_sites_calls.iR2_delete": ("count", ["moves.find_sites"]),
    "moves.find_sites_s.iR2_delete": ("s", ["moves.find_sites"]),
    "moves.find_sites_calls_per_move": ("calls/move", ["moves.find_sites", "moves.apply_move"]),
    "moves.sample_s": ("s", ["moves.random_site", "moves.random_site_balanced"]),
    "moves.apply_s.iR2_insert": ("s", ["moves.apply_move"]),
    "moves.apply_s.iR2_delete": ("s", ["moves.apply_move"]),
    "moves.apply_s.R3": ("s", ["moves.apply_move"]),
    "moves.replay_s": ("s", ["moves.replay"]),
    "moves.stale_sites": ("count", ["moves.apply_move"]),
    "registry.load_s": ("s", ["registry.builtin_formulas", "registry.frozen_calibration"]),
}


def layer_metrics(spans, missing=()) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from finished spans, and the metrics left missing.

    Time "in" a group sums only its outermost spans, so a group calling
    itself is not counted twice; self time subtracts the child spans.
    """
    group = [s[0].split(".")[0] for s in spans]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    calls: dict[str, int] = {}
    inside: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, (name, start, end, parent, tag, err) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        own[group[i]] = own.get(group[i], 0.0) + (end - start) - child_time[i]
        if all(group[a] != group[i] for a in ancestors(i)):
            inside[name] = inside.get(name, 0.0) + end - start

    def t(name):
        return inside.get(name, 0.0)

    formulas = sum(s[4] for s in spans if s[0] == "evaluate")
    chord_counts = 0
    for i, s in enumerate(spans):
        if s[0] != "count":
            continue
        for a in ancestors(i):
            if group[a] in ("evaluate", "arrow_count"):
                chord_counts += group[a] == "evaluate"
                break
    moves_applied = sum(v for k, v in calls.items() if k.startswith("apply."))
    site_calls = sum(v for k, v in calls.items() if k.startswith("find_sites."))
    values = {
        "cli.self_s": own.get("cli", 0.0),
        "diagrams.parse_s": t("parse"),
        "diagrams.parse_calls": calls.get("parse", 0),
        "diagrams.arrows_to_chords_s": t("arrows_to_chords"),
        "patterns.mirror_formula_calls": calls.get("mirror_formula", 0),
        "patterns.mirror_formula_s": t("mirror_formula"),
        "counting.evaluate_calls": calls.get("evaluate", 0),
        "counting.evaluate_s": t("evaluate"),
        "counting.tables_built": calls.get("tables", 0),
        "counting.tables_s": t("tables"),
        "counting.count_calls": calls.get("count", 0),
        "counting.count_s": t("count"),
        "counting.count_calls_per_evaluation": (
            6 * chord_counts / formulas if formulas else 0.0
        ),
        "counting.arrow_count_s": t("arrow_count"),
        "moves.find_sites_calls.R3": calls.get("find_sites.R3", 0),
        "moves.find_sites_s.R3": t("find_sites.R3"),
        "moves.find_sites_calls.iR2_delete": calls.get("find_sites.iR2_delete", 0),
        "moves.find_sites_s.iR2_delete": t("find_sites.iR2_delete"),
        "moves.find_sites_calls_per_move": (
            site_calls / moves_applied if moves_applied else 0.0
        ),
        "moves.sample_s": own.get("sample", 0.0),
        "moves.apply_s.iR2_insert": t("apply.iR2_insert"),
        "moves.apply_s.iR2_delete": t("apply.iR2_delete"),
        "moves.apply_s.R3": t("apply.R3"),
        "moves.replay_s": t("replay"),
        "moves.stale_sites": sum(
            1 for s in spans
            if s[0].startswith("apply.") and s[5] == "StaleSiteError"
        ),
        "registry.load_s": t("load"),
    }
    gone = sorted(
        metric for metric, (_, needs) in LAYER_METRICS.items()
        if any(f"curveinv.{n}" in missing for n in needs)
    )
    for metric in gone:
        values.pop(metric)
    return values, gone
