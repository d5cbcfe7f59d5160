"""Pattern-counting invariants of based chord and arrow diagrams."""

from .counting import (
    KindMismatchError,
    count_arrow_pattern,
    count_arrow_with_convention,
    count_embeddings,
    evaluate_all,
    evaluate_many,
    evaluate_with_convention,
)
from .diagrams import (
    ArrowDiagram,
    ArrowRule,
    Convention,
    CurveDiagram,
    InvalidDiagramError,
    Orientation,
    SignedChordDiagram,
    arrows_to_chords,
    iter_diagram_records,
    parse_diagram,
    serialize_diagram,
    validate,
)
from .generators import gen_cabc, gen_equivalent, gen_torus
from .moves import (
    INVARIANCE_KINDS,
    FuzzReport,
    FuzzViolation,
    MoveKind,
    MoveSite,
    StaleSiteError,
    Variant,
    apply_move,
    find_sites,
    fuzz_invariance,
    insert_site_count,
    parse_move_line,
    random_site,
    random_site_balanced,
    replay,
)
from .patterns import (
    ANY,
    EvalMode,
    Formula,
    ParseError,
    Pattern,
    PatternKind,
    mirror_formula,
    mirror_pattern,
    parse_formula,
    parse_pattern,
    serialize_formula,
    serialize_pattern,
)
from .registry import (
    ALIASES,
    Calibration,
    CalibrationReport,
    builtin_chord_patterns,
    builtin_formula,
    builtin_formulas,
    calibrate,
    default_fuzz_seeds,
    format_calibration,
    frozen_calibration,
    triangle_candidates,
)

__version__ = "0.1.0"
