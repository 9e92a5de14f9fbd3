"""Exact Casson-type invariants of knotoids from signed Gauss codes.

The library parses signed Gauss codes of knotoids, computes the two
integer skew-pair invariants and their annulus-homology refinements,
verifies the skein identity and move invariance, and derives crossing
number bounds and properness certificates.  All arithmetic is exact.
"""

from .analysis import (
    INCONCLUSIVE,
    PROPER_BY_C,
    PROPER_BY_CH,
    InvariantReport,
    crossing_lower_bound,
    evaluate_catalog,
    full_report,
    generate_family,
    load_catalog,
    odd_conjecture_experiment,
    properness_certificate,
    reports_match_up_to_switch,
    summary_table,
)
from .codes import (
    CodeError,
    CodeSyntaxError,
    CodeValidationError,
    Item,
    KnotoidCode,
    MultiKnotoidCode,
    OVER,
    UNDER,
    concat_product,
    mirror,
    parse_knotoid_code,
    parse_multiknotoid_code,
    read_code_blocks,
    reverse,
    serialize,
    switch_all,
    switch_crossing,
)
from .homology import (
    HomologyClass,
    ModuleElement,
    Subgroup,
    hermite_normal_form,
    subgroup_from_generators,
)
from .moves import (
    IllegalMoveError,
    MoveInstance,
    apply,
    enumerate_moves,
    inverse_move,
    iter_walk,
    random_walk,
)
from .planar import (
    DualArc,
    LEFT_TO_RIGHT,
    NonRealizableError,
    PlanarMap,
    RIGHT_TO_LEFT,
    all_loop_classes,
    build_planar_map,
    dual_arc,
)
from .skein import ConwayTriple, SkeinReport, conway_triple, lk_pm, verify_skein
from .skew import CassonValues, SkewPair, casson_homological, casson_pm, skew_pairs

__version__ = "0.1.0"
