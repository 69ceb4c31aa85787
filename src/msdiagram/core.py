"""Diagram data model for gradient-like Morse-Smale systems on 4-manifolds.

A diagram is a disjoint union of punctured 3-sphere pieces whose boundary
2-spheres ("walls") are glued in pairs, carrying framed closed curves that
may run through the pairs, and spanning surfaces attached along framing
parallels of the curves or along curves cut on the pair spheres.  Handles
of the presented closed 4-manifold correspond one-to-one to pieces (index
0), sphere pairs (1), glued circles (2), surfaces (3) and sinks (4).

Framing convention: the integer names a parallel relative to the curve's
null-homologous reference parallel when one exists; for curves running
over sphere pairs the integer is declared data and every move updates it
consistently.  The ambient orientation is right-handed.

A Diagram is immutable: every move builds a new diagram and nothing ever
writes to an existing one (only a record's own __init__ stores its
fields).  Diagram and every record below are tangle.record classes:
frozen, compared and hashed by their field tuples.  Its fields hold each
fact once; the declared circles are the one circle decomposition, checked
against strands and matchings by validation.  A diagram derives its kind
(a diffeomorphism exactly when internal maps are set) and, as cached
properties built on first read, its piece, pair, circle and surface
lookups (tangle.by_id: d.piece(pid) and so on, first record of an id
winning), the pair of each wall, its validation report, and its
crossing-sum table: the signed crossing sums between every two of its
circles, filled in one sweep over each piece's crossings, from which
writhes, linking numbers and the linking matrix are read.  A piece likewise
looks its walls up by id.  So no fact can go stale, and since cached
properties live in the instance __dict__ and are no record fields,
equality, hashing and tangle.replace, with which the package copies
records, ignore them: a replaced diagram starts cold.  A record registers
its fields with dataclasses on their first read.

Validation reads each piece once: one sweep checks its walls, its code
problems (tangle.code_problems), its strand ends and its planarity, and
collects what the later checks read of it, the ids, the wall points and
the strand ends, so the id, pair and circle checks sweep no piece again;
the boundary maps read the pair passages the circle check walked.
Planarity is checked only on a piece with no code problem and every
strand end on a point of a known wall: each defect is reported once, as
itself, and no face is traced through it.  The checks run, and their
findings come, in a fixed order: the diagram, the pieces, the ids; then,
when those found nothing, the pairs, the circles, the surfaces, the
internal maps and the annotation; the sinks; and last, when nothing was
found, the boundary maps.  Where a check can, it looks at the whole at
once and words its findings only when that look fails.

Beside the diagram this module holds the records every layer shares: the
Verdict of a semi-decision and the KirbyMove of a move log.  closed_strand
is the one test for a circle that is a single closed strand of one piece.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import count

from .tangle import (
    Strand,
    TangleCode,
    WallPoint,
    by_id,
    cached_property,
    code_problems,
    crossing_sums,
    planarity_problems,
    record,
    replace,
    simplify_with_log,
)


# the id rule of every record; a bare - is the empty marker of an MSD/1 id list
ID_RULE = re.compile(r"(?!-\Z)[A-Za-z0-9_+-]+\Z")
ID_TEXT = "letters, digits, _, + and -, other than -"  # what ID_RULE accepts


def ids_follow_rule(ids) -> bool:
    """Whether ID_RULE accepts every id of a list: one match of them all
    joined, with - and the empty id looked for apart."""
    try:
        return "-" not in ids and "" not in ids and ID_RULE.match("".join(ids)) is not None
    except TypeError:  # an id that is no string
        return False


class DiagramError(ValueError):
    """A structurally unusable diagram was passed where a valid one is required."""


class Kind(str, Enum):
    VECTOR_FIELD = "vector-field"
    DIFFEOMORPHISM = "diffeomorphism"


WallRef = tuple[str, str]  # (piece id, wall id)


@record
class SphereWall:
    """One boundary sphere of a deleted disk; marked points sit where strands end.

    Marked points are the indices 0..points-1 in counterclockwise cyclic order.
    """

    id: str
    points: int = 0


@record
class Piece:
    """A 3-sphere with deleted disks, holding a planar tangle of the curves."""

    id: str
    tangle: TangleCode = TangleCode()
    walls: tuple[SphereWall, ...] = ()

    wall = by_id("walls")

    def wall_points(self) -> dict[str, int]:
        return {w.id: w.points for w in self.walls}


@record
class SpherePair:
    """Two walls identified by a sphere homeomorphism.

    matching[i] is the wall_b point glued to wall_a point i; the orientation
    flag records the isotopy class (+1 standard, -1 reversed) of the
    identification.
    """

    id: str
    wall_a: WallRef
    wall_b: WallRef
    matching: tuple[int, ...] = ()
    orientation: int = 1


@record
class GluedCircle:
    """A closed framed curve: a cyclic chain of strands glued through pairs.

    Strand orientations agree with the traversal order; a circle contained
    in one piece is a single closed strand.
    """

    id: str
    strand_cycle: tuple[tuple[str, str], ...]  # (piece id, strand id)
    framing: int = 0


@record
class FramingParallel:
    """Surface boundary component running along the framing parallel of a circle."""

    circle: str
    sign: int = 1


@record
class WallCurve:
    """Surface boundary component cut on a pair sphere; occurs in matched pairs."""

    pair: str
    index: int = 0


@record
class SpanningSurface:
    """A surface of the given genus whose boundary components the circles and pairs carry."""

    id: str
    genus: int = 0
    boundary: tuple = ()  # FramingParallel | WallCurve entries, with multiplicity


@record
class InternalMaps:
    """Ids of one diagram's five index sets mapped to another's, on_sinks
    listing the image of each sink number in turn.  Every on_* tuple of
    (id, image) pairs is in plain sorted order, as every producer builds it,
    so two equal actions compare equal.

    It is a diffeomorphism's action on its own diagram, a canonical walk's
    renaming (old id -> canonical id) and an isomorphism witness's maps
    d1 -> d2.
    """

    on_pieces: tuple[tuple[str, str], ...] = ()
    on_pairs: tuple[tuple[str, str], ...] = ()
    on_circles: tuple[tuple[str, str], ...] = ()
    on_surfaces: tuple[tuple[str, str], ...] = ()
    on_sinks: tuple[int, ...] = ()

    def pieces(self) -> dict[str, str]:
        return dict(self.on_pieces)

    def pairs(self) -> dict[str, str]:
        return dict(self.on_pairs)

    def circles(self) -> dict[str, str]:
        return dict(self.on_circles)

    def surfaces(self) -> dict[str, str]:
        return dict(self.on_surfaces)


@record
class KirbyAnnotation:
    """Handles recorded only by count once a diagram is reduced to Kirby form.

    dotted lists the 0-framed surrogate circles standing in for replaced
    sphere pairs; they are 1-handles of the presented manifold.
    """

    one_handles: int = 0
    three_handles: int = 0
    sinks: int = 1
    dotted: tuple[str, ...] = ()


@record
class Diagram:
    """A Morse-Smale diagram: pieces glued along sphere pairs, circles, surfaces and sinks."""

    pieces: tuple[Piece, ...] = ()
    pairs: tuple[SpherePair, ...] = ()
    circles: tuple[GluedCircle, ...] = ()
    surfaces: tuple[SpanningSurface, ...] = ()
    sink_count: int = 1
    internal_maps: InternalMaps | None = None
    sink_incidence: tuple[tuple[int, ...], ...] | None = None  # one row per sink, over surfaces
    annotation: KirbyAnnotation | None = None

    @property
    def kind(self) -> Kind:
        return Kind.VECTOR_FIELD if self.internal_maps is None else Kind.DIFFEOMORPHISM

    piece = by_id("pieces")
    pair = by_id("pairs")
    circle = by_id("circles")
    surface = by_id("surfaces")

    @cached_property
    def _wall_pairs(self) -> dict[WallRef, SpherePair]:
        # the first pair naming each wall, as a linear scan would
        out: dict[WallRef, SpherePair] = {}
        for q in self.pairs:
            out.setdefault(q.wall_a, q)
            out.setdefault(q.wall_b, q)
        return out

    @cached_property
    def _report(self) -> ValidationReport:
        return _validate(self)

    @cached_property
    def _crossing_sums(self) -> dict[tuple[str, str], int]:
        # one sweep over the crossings of each piece a circle runs through
        group: dict[str, dict[str, str]] = {}  # piece -> strand -> circle
        for c in self.circles:
            for pid, sid in c.strand_cycle:
                group.setdefault(pid, {})[sid] = c.id
        total: dict[tuple[str, str], int] = {}
        for pid, member in group.items():
            for key, v in crossing_sums(self.piece(pid).tangle, member).items():
                total[key] = total.get(key, 0) + v
        return total


@record
class Verdict:
    """Outcome of a semi-decision: Yes and No carry a witness or obstruction.
    Unknown carries none; its detail names the method that fell short, or
    the cap that cut the search."""

    value: str  # "Yes" | "No" | "Unknown"
    witness: object = None
    detail: str = ""

    @property
    def yes(self) -> bool:
        return self.value == "Yes"

    @property
    def no(self) -> bool:
        return self.value == "No"

    @property
    def unknown(self) -> bool:
        return self.value == "Unknown"


@record
class KirbyMove:
    """One rewriting step; args are ids and small ints, replayable in order."""

    tag: str  # a key of format._MOVE_FIELDS (its args) and calculus._MOVES (its move)
    args: tuple


@record
class Finding:
    """One failed check; a report with any finding is not ok."""

    location: str
    message: str


@record
class ValidationReport:
    """Every failed check of one diagram, in check order."""

    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings


# ---------------------------------------------------------------------------
# derived lookups


def wall_of_pair(d: Diagram, wall: WallRef) -> SpherePair | None:
    return d._wall_pairs.get(wall)


def endpoint_usage(d: Diagram) -> dict[tuple[str, str, int], tuple[str, str]]:
    """(piece, wall, point) -> (strand, 'start'|'end') over all strand ends."""
    out = {}
    for p in d.pieces:
        for s in p.tangle.strands:
            for role, pt in (("start", s.start), ("end", s.end)):
                if pt is not None:
                    out.setdefault((p.id, pt[0], pt[1]), (s.id, role))
    return out


def circle_passages(d: Diagram, cid: str) -> list[tuple[str, int]]:
    """Pairs crossed by a circle, as (pair id, +1 for wall_a->wall_b)."""
    c = d.circle(cid)
    out = []
    n = len(c.strand_cycle)
    for k, (pid, sid) in enumerate(c.strand_cycle):
        s = d.piece(pid).tangle.strand(sid)
        if s.end is None:
            continue
        wall = (pid, s.end[0])
        q = wall_of_pair(d, wall)
        if q is None:
            raise DiagramError(f"circle {cid}: strand {sid} ends on unpaired wall {wall}")
        out.append((q.id, 1 if q.wall_a == wall else -1))
    return out


def closed_strand(d: Diagram, cid: str) -> tuple[str, Strand] | None:
    """(piece id, strand) when circle cid is one closed strand of one piece, else None."""
    cycle = d.circle(cid).strand_cycle
    if len(cycle) != 1:
        return None
    pid, sid = cycle[0]
    s = d.piece(pid).tangle.strand(sid)
    return (pid, s) if s.closed else None


def handle_counts(d: Diagram) -> tuple[int, int, int, int, int]:
    """Handle numbers (n0..n4) of the presented manifold."""
    return (len(d.pieces), len(d.pairs), len(d.circles), len(d.surfaces), d.sink_count)


# ---------------------------------------------------------------------------
# validation


def _check_pieces(d: Diagram, findings: list[Finding]) -> tuple[list, dict, int, list]:
    """Check each piece in one read of it: ids, walls, code, endpoints, planarity.

    Returns what the later checks read of the pieces: every wall, strand and
    crossing id, for _check_ids; per piece the points of each wall id (its
    first wall's), for _check_pairs; the number of strands, and each piece
    whose strand ends do not sit one on each wall point with its ends, for
    _check_circles.
    """
    seen = set()
    ids: list = []
    degrees: dict[str, dict[str, int]] = {}
    strands = 0
    uncovered: list[tuple[Piece, list[WallPoint]]] = []
    for p in d.pieces:
        if p.id in seen:
            findings.append(Finding(f"piece {p.id}", "duplicate piece id"))
        seen.add(p.id)
        walls, points, negative = {}, 0, False  # wall id -> points of its last wall
        for w in p.walls:
            ids.append(w.id)
            walls[w.id] = w.points
            points += w.points
            negative = negative or w.points < 0
        first = walls
        if len(walls) != len(p.walls):
            findings.append(Finding(f"piece {p.id}", "duplicate wall ids"))
            first = {w.id: w.points for w in reversed(p.walls)}
        if negative:
            findings += [Finding(f"wall {p.id}.{w.id}", "negative point count")
                         for w in p.walls if w.points < 0]
        code = p.tangle
        problems = code_problems(code)
        for msg in problems:
            findings.append(Finding(f"piece {p.id}", msg))
        ends = []
        bad_endpoint = False
        for s in code.strands:
            ids.append(s.id)
            for pt in (s.start, s.end):
                if pt is None:
                    continue
                ends.append(pt)
                k = first.get(pt[0])
                if k is None:
                    findings.append(
                        Finding(f"piece {p.id}/strand {s.id}",
                                f"endpoint on unknown wall {pt[0]}"))
                    bad_endpoint = True
                elif not (0 <= pt[1] < k):
                    findings.append(
                        Finding(f"piece {p.id}/strand {s.id}",
                                f"endpoint on missing point {pt[0]}:{pt[1]}"))
                    bad_endpoint = True
        if code.crossings:
            ids += [c.id for c in code.crossings]
        degrees[p.id] = first
        strands += len(code.strands)
        # distinct ends on points, as many as the points, use each point once
        if bad_endpoint or not len(set(ends)) == len(ends) == points:
            uncovered.append((p, ends))
        if bad_endpoint or problems:
            continue  # faces need a sound code, every endpoint on a point of a known wall
        for msg in planarity_problems(code, walls):
            findings.append(Finding(f"piece {p.id}", msg))
    return ids, degrees, strands, uncovered


def _check_ids(d: Diagram, findings: list[Finding], ids: list) -> None:
    """Report every id that ID_RULE refuses, at the location of its kind.

    ids holds the pieces' own ids; one look at all ids together passes
    nearly every diagram, and only when it fails is each id matched on its
    own.
    """
    ids += [x.id for xs in (d.pieces, d.pairs, d.circles, d.surfaces) for x in xs]
    if ids_follow_rule(ids):
        return
    groups = [("piece ", d.pieces), ("pair ", d.pairs), ("circle ", d.circles),
              ("surface ", d.surfaces)]
    for p in d.pieces:
        groups += [(f"wall {p.id}.", p.walls), (f"piece {p.id}/strand ", p.tangle.strands),
                   (f"piece {p.id}/crossing ", p.tangle.crossings)]
    findings.extend(Finding(f"{where}{x.id}", f"{x.id!r} is not an id of {ID_TEXT}")
                    for where, xs in groups for x in xs
                    if not (isinstance(x.id, str) and ID_RULE.match(x.id)))


def _check_pairs(d: Diagram, findings: list[Finding],
                 degrees: dict[str, dict[str, int]]) -> None:
    seen = set()
    referenced: dict[WallRef, str] = {}
    known = 0  # walls of the pieces referenced, each counted once
    for q in d.pairs:
        if q.id in seen:
            findings.append(Finding(f"pair {q.id}", "duplicate pair id"))
        seen.add(q.id)
        if q.wall_a == q.wall_b:
            findings.append(Finding(f"pair {q.id}", "pair identifies a wall with itself"))
        if q.orientation not in (1, -1):
            findings.append(Finding(f"pair {q.id}", "orientation must be +1 or -1"))
        points = []
        for ref in (q.wall_a, q.wall_b):
            again = ref in referenced
            if again:
                findings.append(
                    Finding(f"pair {q.id}",
                            f"wall {ref[0]}.{ref[1]} already used by pair {referenced[ref]}"))
            referenced[ref] = q.id
            walls = degrees.get(ref[0])
            k = None if walls is None else walls.get(ref[1])
            if k is None:
                findings.append(Finding(f"pair {q.id}", f"unknown wall {ref[0]}.{ref[1]}"))
            else:
                points.append(k)
                known += not again
        if len(points) == 2:
            ka, kb = points
            if ka != kb:
                findings.append(Finding(f"pair {q.id}", f"point counts differ: {ka} vs {kb}"))
            elif not _bijective(q.matching, ka):
                findings.append(Finding(f"pair {q.id}", "matching is not a point bijection"))
    # ids are unique here: only when fewer walls are referenced than exist
    # is one in no pair
    if known < sum(map(len, degrees.values())):
        for p in d.pieces:
            for w in p.walls:
                if (p.id, w.id) not in referenced:
                    findings.append(Finding(f"wall {p.id}.{w.id}", "wall belongs to no pair"))


def _bijective(matching, k: int) -> bool:
    """Whether matching lists each of the points 0..k-1 once; entries that
    do not compare with points make it no bijection."""
    try:
        return len(matching) == k and sorted(matching) == list(range(k))
    except TypeError:
        return False


def _inverse(matching) -> dict[int, int]:
    """A pair's wall_b point -> its wall_a point, the first index winning as
    in tuple.index; an entry that cannot be a point (unhashable) is left out."""
    out = {}
    for i in range(len(matching) - 1, -1, -1):
        try:
            out[matching[i]] = i
        except TypeError:
            continue
    return out


def _check_circles(d: Diagram, findings: list[Finding], strands: int,
                   uncovered: list) -> dict[str, list[tuple[str, int]]]:
    """Circles close up through their pairs, each strand is in one, and each
    wall point carries one strand end.

    strands, the number of strands, and uncovered are what _check_pieces
    returns.  Returns the pair passages of each circle, as circle_passages
    lists them, for _check_boundaries.
    """
    pair_of = d._wall_pairs
    claimed: dict[tuple[str, str], str] = {}
    inverses: dict[WallRef, dict[int, int]] = {}  # a pair's wall_b point -> its wall_a point
    passages: dict[str, list[tuple[str, int]]] = {}
    seen = set()
    found = 0  # claimed strands that exist
    for c in d.circles:
        if c.id in seen:
            findings.append(Finding(f"circle {c.id}", "duplicate circle id"))
        seen.add(c.id)
        if not c.strand_cycle:
            findings.append(Finding(f"circle {c.id}", "empty strand cycle"))
            continue
        cycle = []
        broken = closed = False
        for pid, sid in c.strand_cycle:
            key = (pid, sid)
            if key in claimed:
                findings.append(
                    Finding(f"circle {c.id}",
                            f"strand {pid}.{sid} already in circle {claimed[key]}"))
                broken = True
                continue
            claimed[key] = c.id
            try:
                s = d.piece(pid).tangle.strand(sid)
            except KeyError:
                findings.append(Finding(f"circle {c.id}", f"unknown strand {pid}.{sid}"))
                broken = True
                continue
            cycle.append((pid, s))
            closed = closed or s.closed
        found += len(cycle)
        if broken or len(cycle) != len(c.strand_cycle):
            continue
        passes = passages[c.id] = []
        if len(cycle) == 1 and closed:
            continue  # a one-piece closed curve
        if closed:
            findings.append(Finding(f"circle {c.id}", "closed strand inside a longer cycle"))
            continue
        for (pid, s), (npid, ns) in zip(cycle, cycle[1:] + cycle[:1]):
            wall = (pid, s.end[0])
            q = pair_of.get(wall)
            if q is None:
                findings.append(
                    Finding(f"circle {c.id}",
                            f"strand {pid}.{s.id} ends on unpaired wall {s.end[0]}"))
                continue
            forward = q.wall_a == wall
            passes.append((q.id, 1 if forward else -1))
            if forward:
                other, image = q.wall_b, q.matching[s.end[1]] if s.end[1] < len(q.matching) else None
            else:
                if wall not in inverses:  # built once
                    inverses[wall] = _inverse(q.matching)
                other, image = q.wall_a, inverses[wall].get(s.end[1])
            if image is None or ns.start is None or (npid, ns.start[0]) != other or ns.start[1] != image:
                findings.append(
                    Finding(f"circle {c.id}",
                            f"cycle does not close through pair {q.id} after strand {pid}.{s.id}"))
    # every strand must belong to exactly one circle: piece and strand ids
    # are unique here, so only when fewer strands were claimed than exist
    # is one left out
    if found < strands:
        for p in d.pieces:
            for s in p.tangle.strands:
                if (p.id, s.id) not in claimed:
                    findings.append(
                        Finding(f"piece {p.id}/strand {s.id}", "strand belongs to no circle"))
    # every wall point must carry exactly one strand end; a wall reports its
    # first unused point, found from the used ones, so a huge point count
    # costs nothing
    for p, ends in uncovered:
        if len(set(ends)) != len(ends):
            findings.append(Finding(f"piece {p.id}", "two strand ends share a point"))
        used: dict[str, set[int]] = {}
        for wid, i in ends:
            used.setdefault(wid, set()).add(i)
        for w in p.walls:
            taken = {i for i in used.get(w.id, ()) if 0 <= i < w.points}
            if len(taken) < w.points:
                i = next(i for i in count() if i not in taken)
                findings.append(Finding(f"wall {p.id}.{w.id}", f"marked point {i} unused"))
    return passages


def _check_surfaces(d: Diagram, findings: list[Finding]) -> None:
    seen = set()
    wallcurves: dict[tuple[str, int], int] = {}
    for f in d.surfaces:
        if f.id in seen:
            findings.append(Finding(f"surface {f.id}", "duplicate surface id"))
        seen.add(f.id)
        if f.genus < 0:
            findings.append(Finding(f"surface {f.id}", "negative genus"))
        for item in f.boundary:
            if isinstance(item, FramingParallel):
                if item.sign not in (1, -1):
                    findings.append(Finding(f"surface {f.id}", "bad boundary sign"))
                try:
                    d.circle(item.circle)
                except KeyError:
                    findings.append(Finding(f"surface {f.id}", f"unknown circle {item.circle}"))
            elif isinstance(item, WallCurve):
                try:
                    d.pair(item.pair)
                except KeyError:
                    findings.append(Finding(f"surface {f.id}", f"unknown pair {item.pair}"))
                wallcurves[item.pair, item.index] = wallcurves.get((item.pair, item.index), 0) + 1
            else:
                findings.append(Finding(f"surface {f.id}", f"bad boundary item {item!r}"))
    for (pair, index), n in sorted(wallcurves.items()):
        if n != 2:
            findings.append(
                Finding(f"pair {pair}",
                        f"wall curve {index} occurs {n} times, matched pairs need 2"))


def _check_internal_maps(d: Diagram, findings: list[Finding]) -> None:
    m = d.internal_maps
    if m is None:
        return
    pc, qc, cc, fc = m.pieces(), m.pairs(), m.circles(), m.surfaces()
    for name, mapping, xs in (("pieces", pc, d.pieces), ("pairs", qc, d.pairs),
                              ("circles", cc, d.circles), ("surfaces", fc, d.surfaces)):
        ids = sorted(x.id for x in xs)
        if sorted(mapping) != ids or sorted(mapping.values()) != ids:
            findings.append(Finding(f"internal maps/{name}", "not a permutation of the index set"))
    if sorted(m.on_sinks) != list(range(d.sink_count)):
        findings.append(Finding("internal maps/sinks", "not a sink permutation"))
    if any(f.location.startswith("internal maps") for f in findings):
        return
    for q in d.pairs:
        img = d.pair(qc[q.id])
        src = {pc[q.wall_a[0]], pc[q.wall_b[0]]}
        dst = {img.wall_a[0], img.wall_b[0]}
        if src != dst:
            findings.append(
                Finding(f"internal maps/pairs",
                        f"pair {q.id} maps to {img.id} but pieces do not correspond"))
    for c in d.circles:
        img = d.circle(cc[c.id])
        if img.framing != c.framing:
            findings.append(
                Finding("internal maps/circles",
                        f"circle {c.id} (framing {c.framing}) maps to {img.id} "
                        f"(framing {img.framing})"))
        if len(img.strand_cycle) != len(c.strand_cycle):
            findings.append(
                Finding("internal maps/circles",
                        f"circle {c.id} and image {img.id} have different lengths"))
    for f in d.surfaces:
        img = d.surface(fc[f.id])
        if img.genus != f.genus:
            findings.append(
                Finding("internal maps/surfaces",
                        f"surface {f.id} and image {img.id} differ in genus"))
        prof = sorted(
            (cc[i.circle], i.sign) if isinstance(i, FramingParallel)
            else (qc[i.pair], None)
            for i in f.boundary)
        prof_img = sorted(
            (i.circle, i.sign) if isinstance(i, FramingParallel) else (i.pair, None)
            for i in img.boundary)
        if prof != prof_img:
            findings.append(
                Finding("internal maps/surfaces",
                        f"surface {f.id} boundary does not map onto {img.id} boundary"))


def _check_annotation(d: Diagram, findings: list[Finding]) -> None:
    """A Kirby annotation counts the handles its diagram no longer draws."""
    a = d.annotation
    if a is None:
        return
    for wrong, msg in (
        (len(set(a.dotted)) != len(a.dotted) or not set(a.dotted) <= {c.id for c in d.circles},
         "dotted ids must be distinct circles of the diagram"),
        (a.one_handles != len(a.dotted), f"one_handles={a.one_handles} but {len(a.dotted)} dotted"),
        (a.sinks != d.sink_count, f"sinks={a.sinks} but the diagram has {d.sink_count}"),
        (a.three_handles < 0, "three_handles must not be negative"),
        (d.pairs or d.surfaces, "a Kirby-form diagram has no sphere pairs and no surfaces"),
    ):
        if wrong:
            findings.append(Finding("annotation", msg))


def validate(d: Diagram) -> ValidationReport:
    """Check every structural invariant; violations become report findings.

    The report is computed once per diagram instance and then reused.
    """
    return d._report


def require_valid(d: Diagram, what: str, error: type[Exception] = DiagramError) -> Diagram:
    """d itself when validate finds no error; else raise error naming the first."""
    report = validate(d)
    if not report.ok:
        raise error(f"{what}: {report.findings[0].message}")
    return d


def _validate(d: Diagram) -> ValidationReport:
    findings: list[Finding] = []
    if not d.pieces:
        findings.append(Finding("diagram", "no pieces: a closed 4-manifold needs a 0-handle"))
    if d.pieces and d.sink_count < 1:
        findings.append(Finding("diagram", "sink count must be at least 1"))
    ids, degrees, strands, uncovered = _check_pieces(d, findings)
    _check_ids(d, findings, ids)
    passages = {}
    if not findings:
        _check_pairs(d, findings, degrees)
        passages = _check_circles(d, findings, strands, uncovered)
        _check_surfaces(d, findings)
        _check_internal_maps(d, findings)
        _check_annotation(d, findings)
    if d.sink_incidence is not None:
        rows = d.sink_incidence
        if len(rows) != d.sink_count or any(len(r) != len(d.surfaces) for r in rows):
            findings.append(Finding("sinks", "incidence block shape must be sinks x surfaces"))
    elif d.sink_count > 1 and d.surfaces:
        findings.append(
            Finding("sinks",
                    "multi-sink diagram with surfaces needs an explicit sink incidence block"))
    if not findings:
        _check_boundaries(d, findings, passages)
    return ValidationReport(tuple(findings))


def _check_boundaries(d: Diagram, findings: list[Finding],
                      passages: dict[str, list[tuple[str, int]]]) -> None:
    """The handle boundary maps compose to zero: d2.d3 = 0 and d3.d4 = 0.

    d3 takes a surface to its signed framing-parallel circles and d2 takes a
    circle to its signed pair passages, read from _check_circles; d4 is the
    sink incidence block.  d1.d2 = 0 holds once every circle closes up
    through its pairs.
    """
    for f in d.surfaces:
        passes: dict[str, int] = {}
        for item in f.boundary:
            if isinstance(item, FramingParallel):
                for qid, sign in passages[item.circle]:
                    passes[qid] = passes.get(qid, 0) + item.sign * sign
        for qid, n in passes.items():
            if n:
                findings.append(
                    Finding(f"surface {f.id}",
                            f"boundary runs {n:+d} times over pair {qid}: d2.d3 != 0"))
    for j, row in enumerate(d.sink_incidence or ()):
        circles: dict[str, int] = {}
        for f, m in zip(d.surfaces, row):
            for item in f.boundary:
                if m and isinstance(item, FramingParallel):
                    circles[item.circle] = circles.get(item.circle, 0) + m * item.sign
        for cid, n in circles.items():
            if n:
                findings.append(
                    Finding(f"sink {j}",
                            f"incident surfaces cover circle {cid} {n:+d} times: d3.d4 != 0"))


def check_admissible(d: Diagram) -> ValidationReport:
    """Surfaces must be spheres with holes attached along framing parallels.

    Admissibility presumes structural validity, so an invalid diagram is
    never admissible; its structural errors are carried over.
    """
    findings: list[Finding] = list(validate(d).findings)
    for f in d.surfaces:
        if f.genus != 0:
            findings.append(
                Finding(f"surface {f.id}",
                        f"genus {f.genus}: admissible surfaces are spheres with holes"))
    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# diagram-level curve data


def circle_crossing_sums(d: Diagram) -> dict[tuple[str, str], int]:
    """Signed crossing sums between the circles of d, summed over the pieces.

    Keys are circle id pairs in sorted order: (c, c) is the writhe of c and
    twice the linking number sits under (c1, c2); a pair that never crosses
    has no key.  The table is built once per diagram and shared: read it,
    never change it.
    """
    return d._crossing_sums


def linking_from_sums(sums: dict[tuple[str, str], int], c1: str, c2: str) -> int:
    """The linking number of two distinct circles from circle_crossing_sums."""
    total = sums.get((c1, c2) if c1 <= c2 else (c2, c1), 0)
    if total % 2 != 0:
        raise DiagramError(f"odd crossing sum between circles {c1} and {c2}")
    return total // 2


def diagram_linking(d: Diagram, c1: str, c2: str) -> int:
    """Linking number of two glued circles, read from the crossing-sum table."""
    if c1 == c2:
        raise ValueError("linking number needs two distinct circles")
    d.circle(c1), d.circle(c2)
    return linking_from_sums(circle_crossing_sums(d), c1, c2)


def diagram_writhe(d: Diagram, cid: str) -> int:
    """Signed self-crossing sum of a glued circle, read from the crossing-sum table."""
    d.circle(cid)
    return circle_crossing_sums(d).get((cid, cid), 0)


def with_tangle(d: Diagram, pid: str, code: TangleCode) -> Diagram:
    """The diagram with the tangle code of piece pid replaced by code."""
    return replace(d, pieces=tuple(
        replace(p, tangle=code) if p.id == pid else p for p in d.pieces))


def simplify_diagram(d: Diagram) -> tuple[Diagram, list[tuple[str, object]]]:
    """Greedy Reidemeister reduction applied piece by piece.

    Returns the reduced diagram and the applied moves as (piece id, move)
    records.  Strand and circle identities survive; only crossings go away.
    """
    moves: list[tuple[str, object]] = []
    pieces = []
    for p in d.pieces:
        code, log = simplify_with_log(p.tangle, p.wall_points())
        moves.extend((p.id, mv) for mv in log)
        pieces.append(replace(p, tangle=code))
    return replace(d, pieces=tuple(pieces)), moves


# ---------------------------------------------------------------------------
# relabeling


def relabel(d: Diagram, pieces: dict[str, str] | None = None,
            pairs: dict[str, str] | None = None,
            circles: dict[str, str] | None = None,
            surfaces: dict[str, str] | None = None,
            strands: dict[tuple[str, str], str] | None = None,
            crossings: dict[tuple[str, str], str] | None = None,
            walls: dict[tuple[str, str], str] | None = None) -> Diagram:
    """Rename ids by (partial) permutations; structure is otherwise unchanged."""
    pieces = pieces or {}
    pairs = pairs or {}
    circles = circles or {}
    surfaces = surfaces or {}
    strands = strands or {}
    crossings = crossings or {}
    walls = walls or {}

    def pm(x): return pieces.get(x, x)

    def new_pieces():
        for p in d.pieces:
            code = p.tangle
            new_strands = []
            for s in code.strands:
                new_strands.append(Strand(
                    strands.get((p.id, s.id), s.id),
                    visits=tuple((crossings.get((p.id, c), c), q) for c, q in s.visits),
                    start=None if s.start is None else (walls.get((p.id, s.start[0]), s.start[0]), s.start[1]),
                    end=None if s.end is None else (walls.get((p.id, s.end[0]), s.end[0]), s.end[1]),
                ))
            new_code = TangleCode(
                crossings=tuple(replace(c, id=crossings.get((p.id, c.id), c.id)) for c in code.crossings),
                strands=tuple(new_strands),
            )
            yield Piece(pm(p.id), new_code,
                        tuple(replace(w, id=walls.get((p.id, w.id), w.id)) for w in p.walls))

    def wref(r: WallRef) -> WallRef:
        return (pm(r[0]), walls.get(r, r[1]))

    new_pairs = tuple(
        replace(q, id=pairs.get(q.id, q.id), wall_a=wref(q.wall_a), wall_b=wref(q.wall_b))
        for q in d.pairs)
    new_circles = tuple(
        replace(c, id=circles.get(c.id, c.id),
                strand_cycle=tuple((pm(p), strands.get((p, s), s)) for p, s in c.strand_cycle))
        for c in d.circles)

    def item(i):
        if isinstance(i, FramingParallel):
            return FramingParallel(circles.get(i.circle, i.circle), i.sign)
        return WallCurve(pairs.get(i.pair, i.pair), i.index)

    new_surfaces = tuple(
        replace(f, id=surfaces.get(f.id, f.id), boundary=tuple(item(i) for i in f.boundary))
        for f in d.surfaces)
    maps = d.internal_maps
    if maps is not None:
        maps = InternalMaps(
            on_pieces=tuple(sorted((pm(a), pm(b)) for a, b in maps.on_pieces)),
            on_pairs=tuple(sorted((pairs.get(a, a), pairs.get(b, b)) for a, b in maps.on_pairs)),
            on_circles=tuple(sorted((circles.get(a, a), circles.get(b, b)) for a, b in maps.on_circles)),
            on_surfaces=tuple(sorted((surfaces.get(a, a), surfaces.get(b, b)) for a, b in maps.on_surfaces)),
            on_sinks=maps.on_sinks,
        )
    ann = d.annotation
    if ann is not None:
        ann = replace(ann, dotted=tuple(circles.get(c, c) for c in ann.dotted))
    return replace(d, pieces=tuple(new_pieces()), pairs=new_pairs, circles=new_circles,
                   surfaces=new_surfaces, internal_maps=maps, annotation=ann)
