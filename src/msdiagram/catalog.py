"""Constructors for the standard diagrams used as goldens and documentation.

Each entry notes the presented manifold and the dynamics it encodes (counts
of fixed points by index).  Entries are minimal-crossing representatives;
alternative representatives of the same system must compare isomorphic (or
Unknown where greedy Reidemeister reduction falls short), never No.
"""

from __future__ import annotations

import re

from .core import (
    Diagram,
    FramingParallel,
    GluedCircle,
    InternalMaps,
    Piece,
    SpanningSurface,
    SpherePair,
    SphereWall,
)
from .tangle import Strand, TangleCode, braid_closure, replace


def s4_polar() -> Diagram:
    """S^4, the polar field: one source, one sink, nothing else."""
    return Diagram(pieces=(Piece("P1"),), sink_count=1)


def cp2() -> Diagram:
    """CP^2 from a polar field with one saddle of index 2: a +1-framed unknot."""
    return Diagram(
        pieces=(Piece("P1", TangleCode(strands=(Strand("S1"),))),),
        circles=(GluedCircle("c1", (("P1", "S1"),), framing=1),),
        sink_count=1,
    )


def cp2_mirror() -> Diagram:
    """CP^2 with reversed orientation: a -1-framed unknot."""
    d = cp2()
    return replace(d, circles=(replace(d.circles[0], framing=-1),))


def hopf_tangle() -> TangleCode:
    """Positive Hopf link as the closure of a two-crossing braid."""
    return braid_closure([(1, 1), (1, 1)], 2, strand_prefix="S")


def s2xs2() -> Diagram:
    """S^2 x S^2: the 0-framed Hopf link, polar with two index-2 saddles."""
    return Diagram(
        pieces=(Piece("P1", hopf_tangle()),),
        circles=(
            GluedCircle("c1", (("P1", "S1"),), framing=0),
            GluedCircle("c2", (("P1", "S2"),), framing=0),
        ),
        sink_count=1,
    )


def s1xs3() -> Diagram:
    """S^1 x S^3: fixed points of indices 0, 1, 3, 4.

    One sphere pair with no strands through it, and the belt sphere of the
    3-handle as a closed genus-0 surface.
    """
    return n_s1xs3(1)


def n_s1xs3(n: int) -> Diagram:
    """Connected sum of n copies of S^1 x S^3: n pairs and n closed surfaces."""
    if n < 1:
        raise ValueError("n must be at least 1")
    walls = tuple(SphereWall(f"W{i}") for i in range(1, 2 * n + 1))
    pairs = tuple(
        SpherePair(f"Q{k}", ("P1", f"W{2 * k - 1}"), ("P1", f"W{2 * k}"))
        for k in range(1, n + 1))
    surfaces = tuple(SpanningSurface(f"F{k}", genus=0) for k in range(1, n + 1))
    return Diagram(pieces=(Piece("P1", walls=walls),), pairs=pairs,
                   surfaces=surfaces, sink_count=1)


def swap_diffeo() -> Diagram:
    """A diffeomorphism on the S^2 x S^2 diagram swapping the two circles."""
    maps = InternalMaps(
        on_pieces=(("P1", "P1"),),
        on_pairs=(),
        on_circles=(("c1", "c2"), ("c2", "c1")),
        on_surfaces=(),
        on_sinks=(0,),
    )
    return replace(s2xs2(), internal_maps=maps)


def identity_diffeo(base: Diagram) -> Diagram:
    """The same underlying diagram with identity internal maps."""
    maps = InternalMaps(
        on_pieces=tuple(sorted((p.id, p.id) for p in base.pieces)),
        on_pairs=tuple(sorted((q.id, q.id) for q in base.pairs)),
        on_circles=tuple(sorted((c.id, c.id) for c in base.circles)),
        on_surfaces=tuple(sorted((f.id, f.id) for f in base.surfaces)),
        on_sinks=tuple(range(base.sink_count)),
    )
    return replace(base, internal_maps=maps, annotation=None)


def s4_with_cancelling_pair() -> Diagram:
    """S^4 presented with a cancelling 2-/3-handle pair.

    A 0-framed unknot plus a disk-like surface whose single boundary runs
    along its framing parallel once.
    """
    return Diagram(
        pieces=(Piece("P1", TangleCode(strands=(Strand("S1"),))),),
        circles=(GluedCircle("c1", (("P1", "S1"),), framing=0),),
        surfaces=(SpanningSurface("F1", genus=0, boundary=(FramingParallel("c1", 1),)),),
        sink_count=1,
    )


def cp2_two_piece() -> Diagram:
    """CP^2 with an extra cancelling 0-/1-handle pair: the circle runs through it."""
    p1 = Piece(
        "P1",
        TangleCode(strands=(Strand("S1", start=("W1", 0), end=("W1", 1)),)),
        walls=(SphereWall("W1", points=2),),
    )
    p2 = Piece(
        "P2",
        TangleCode(strands=(Strand("S2", start=("W2", 1), end=("W2", 0)),)),
        walls=(SphereWall("W2", points=2),),
    )
    return Diagram(
        pieces=(p1, p2),
        pairs=(SpherePair("Q1", ("P1", "W1"), ("P2", "W2"), matching=(0, 1)),),
        circles=(GluedCircle("c1", (("P1", "S1"), ("P2", "S2")), framing=1),),
        sink_count=1,
    )


_BUILDERS = {
    "s4-polar": s4_polar,
    "cp2": cp2,
    "cp2-mirror": cp2_mirror,
    "s2xs2": s2xs2,
    "s1xs3": s1xs3,
    "swap-diffeo": swap_diffeo,
    "s4-with-cancelling-pair": s4_with_cancelling_pair,
    "cp2-two-piece": cp2_two_piece,
}


def names() -> list[str]:
    return sorted(_BUILDERS) + ["n-s1s3(n)"]


def standard(name: str) -> Diagram:
    """Build a catalog diagram by name; n-s1s3(k) takes the summand count."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    m = re.fullmatch(r"n-s1s3\((\d+)\)", name)
    if m:
        return n_s1xs3(int(m.group(1)))
    raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(names())}")
