"""Diagrams of gradient-like Morse-Smale dynamical systems on closed 4-manifolds.

The diagram - punctured 3-sphere pieces glued along sphere pairs, carrying
framed curves and spanning surfaces - is a complete topological invariant of
such a system.  This package models diagrams, validates them, computes their
algebraic invariants, applies Kirby-calculus moves, runs the reduction
pipeline to Kirby form, and decides equivalence and conjugacy at desk scale.
"""

from .calculus import (
    RefusalError,
    apply_move,
    blow_down,
    blow_up,
    handle_slide,
    recognize_s3,
)
from .core import (
    Diagram,
    DiagramError,
    FramingParallel,
    GluedCircle,
    InternalMaps,
    Kind,
    KirbyAnnotation,
    KirbyMove,
    Piece,
    SpanningSurface,
    SpherePair,
    SphereWall,
    ValidationReport,
    Verdict,
    WallCurve,
    check_admissible,
    handle_counts,
    relabel,
    validate,
)
from .equivalence import (
    Isomorphism,
    canonical_key,
    conjugate,
    isomorphic,
    mirror,
    verify_internal_maps,
    verify_isomorphism,
)
from .format import ParseError, parse, parse_moves, serialize, serialize_moves
from .invariants import (
    ChainComplex,
    LinkingMatrix,
    SurgeryPresentation,
    annotated_homology,
    chain_complex,
    euler_characteristic,
    homology,
    intersection_form,
    linking_matrix,
    signature,
    smith_normal_form,
    surgered_h1,
    surgery_presentation,
)
from .reduction import (
    delete_superfluous,
    find_superfluous_surface,
    merge_all,
    merge_pieces,
    reduce_pipeline,
    to_kirby,
)
from .render import render
from .tangle import (
    Crossing,
    MoveError,
    Strand,
    TangleCode,
    braid_closure,
    linking_number,
    writhe,
)

__version__ = "0.1.0"
