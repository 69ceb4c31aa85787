"""Diagrams of gradient-like Morse-Smale dynamical systems on closed 4-manifolds.

The diagram - punctured 3-sphere pieces glued along sphere pairs, carrying
framed curves and spanning surfaces - is a complete topological invariant of
such a system.  This package models diagrams, validates them, computes their
algebraic invariants, applies Kirby-calculus moves, runs the reduction
pipeline to Kirby form, and decides equivalence and conjugacy at desk scale.

Importing the package loads none of its modules: each public name, and each
submodule, is imported on first read (PEP 562), so a process pays only for
the layers it uses.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {name: module for module, names in {
    "calculus": ("RefusalError", "apply_move", "blow_down", "blow_up", "handle_slide",
                 "recognize_s3"),
    "core": ("Diagram", "DiagramError", "FramingParallel", "GluedCircle", "InternalMaps",
             "Kind", "KirbyAnnotation", "KirbyMove", "Piece", "SpanningSurface", "SpherePair",
             "SphereWall", "ValidationReport", "Verdict", "WallCurve", "check_admissible",
             "handle_counts", "relabel", "validate"),
    "equivalence": ("Isomorphism", "canonical_key", "conjugate", "isomorphic", "mirror",
                    "verify_internal_maps", "verify_isomorphism"),
    "format": ("ParseError", "parse", "parse_moves", "serialize", "serialize_moves"),
    "invariants": ("ChainComplex", "LinkingMatrix", "SurgeryPresentation",
                   "annotated_homology", "chain_complex", "euler_characteristic", "homology",
                   "intersection_form", "linking_matrix", "signature", "smith_normal_form",
                   "surgered_h1", "surgery_presentation"),
    "reduction": ("delete_superfluous", "find_superfluous_surface", "merge_all",
                  "merge_pieces", "reduce_pipeline", "to_kirby"),
    "render": ("render",),
    "tangle": ("Crossing", "MoveError", "Strand", "TangleCode", "braid_closure",
               "linking_number", "writhe"),
}.items() for name in names}
# submodules read as attributes; ``render`` names the function (see _Package)
_SUBMODULES = ("calculus", "catalog", "cli", "core", "equivalence", "format", "invariants",
               "reduction", "tangle")

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import a public name's home module, or a submodule, on first read."""
    if name in _HOMES:
        value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """The package module, whose public names no submodule hides.

    The import system binds each submodule it loads on the package, and the
    submodule ``render`` shares its name with the function it defines; that
    binding is skipped, so ``msdiagram.render`` stays the function.
    """

    def __setattr__(self, name, value):
        if not (name in _HOMES and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
