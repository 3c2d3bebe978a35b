"""Exact braid invariants from kinetic Delaunay triangulations.

Edge labels of a moving point set's Delaunay triangulation are pushed
through flip events under either the Ptolemy or the shear update rule;
the resulting map from initial edge variables to final rational-function
labels is an invariant of the braid the motion realizes.
"""

from braidshear.algebra import (
    Polynomial,
    RationalFunction,
    poly_gcd,
    poly_to_str,
)
from braidshear.braid import (
    BraidWord,
    SlotConfig,
    compile_motion,
    initial_triangulation,
    parse_braid,
)
from braidshear.coordinates import (
    InvariantMap,
    LabelState,
    LabelSystem,
    ShearState,
    apply_ptolemy_flip,
    apply_shear_flip,
    check_commutativity,
    check_involution,
    check_pentagon,
    invariants_equal,
    run_invariant,
)
from braidshear.geometry import (
    EdgeComplex,
    Point,
    delaunay,
)
from braidshear.kinetic import (
    Arc,
    FlipEvent,
    Motion,
    Stage,
    Stationary,
    augment,
    detect_flips,
)

__all__ = [
    "Polynomial",
    "RationalFunction",
    "poly_gcd",
    "poly_to_str",
    "BraidWord",
    "SlotConfig",
    "compile_motion",
    "initial_triangulation",
    "parse_braid",
    "InvariantMap",
    "LabelState",
    "LabelSystem",
    "ShearState",
    "apply_ptolemy_flip",
    "apply_shear_flip",
    "check_commutativity",
    "check_involution",
    "check_pentagon",
    "invariants_equal",
    "run_invariant",
    "EdgeComplex",
    "Point",
    "delaunay",
    "Arc",
    "FlipEvent",
    "Motion",
    "Stage",
    "Stationary",
    "augment",
    "detect_flips",
]

__version__ = "0.1.0"
