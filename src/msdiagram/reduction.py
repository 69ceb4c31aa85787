"""Reduction pipeline: merge pieces, cancel superfluous handles, reach Kirby form.

The pipeline order is fixed: merge all pieces into one along sphere pairs,
then repeatedly delete superfluous surface/circle cancelling pairs, then
replace the surviving internal pairs by 0-framed surrogate circles and drop
the remaining surfaces into the annotation counts.  Every step preserves the
integer homology of the presented manifold.
"""

from __future__ import annotations

from itertools import count

from .core import (
    Diagram,
    DiagramError,
    FramingParallel,
    GluedCircle,
    KirbyAnnotation,
    KirbyMove,
    Piece,
    SpherePair,
    WallCurve,
    check_admissible,
    closed_strand,
    require_valid,
)
from .tangle import (
    Crossing,
    MoveError,
    Strand,
    TangleCode,
    _drop,
    braid,
    find_root,
    fresh_ids,
    planarity_problems,
    replace,
)


# ---------------------------------------------------------------------------
# gluing pieces along pairs and splicing strands through pairs


def _connector_word(q: SpherePair) -> list[tuple[int, int]]:
    """Braid word realizing the matching as a permutation of the wall bundle.

    Wall_b's cyclic order reverses against wall_a's in the glued picture;
    the rotation offset is the first that minimizes crossings.  The offset
    is not gauge: tied offsets can give different codes, of which only some
    are planar.  When the matching braids, the strand from the smaller
    wall_a point goes over (a fixed convention: the sphere identification
    data does not pin the braiding).
    """
    k = len(q.matching)

    def sorting_word(offset):
        # bubble sort to the offset's order: one letter per inversion
        target = [(offset - i) % k for i in q.matching]
        word, seq = [], list(range(k))
        for n in range(k - 1, 0, -1):  # pass n leaves seq[n] in place
            for j in range(n):
                a, b = seq[j], seq[j + 1]
                if target[a] > target[b]:
                    word.append((j + 1, 1 if a < b else -1))
                    seq[j], seq[j + 1] = b, a
        return word

    return min(map(sorting_word, range(k)), key=len, default=[])


class _GluedStrand:
    __slots__ = ("visits", "start", "end")

    def __init__(self, visits: list, start, end):
        self.visits = visits  # (crossing key, port) entries
        self.start = start    # (wall key, point) or None
        self.end = end


class _Component:
    """One piece being glued: its items by key, in code order, and the ids in use."""

    __slots__ = ("crossings", "strands", "walls", "ids")

    def __init__(self, p: Piece, stamps):
        self.crossings = {(p.id, x.id): x for x in p.tangle.crossings}
        self.strands = dict(zip(((p.id, s.id) for s in p.tangle.strands), stamps))
        self.walls = {(p.id, w.id): w for w in p.walls}
        self.ids = tuple({key[1] for key in keys}
                         for keys in (self.crossings, self.strands, self.walls))


class _Glue:
    """Pieces of one diagram glued along pairs, read back as a diagram at the end.

    Crossings, strands and walls are held under the key (piece, id) they
    have in the starting diagram, and a connector crossing under (piece it
    is made in, id).  The rename tables hold only the ids that differ from
    their key's, so gluing renames just the colliding ids of the absorbed
    piece, as a trailing "m" per clash, and rewrites no visit list.  Strands
    are found through endpoint maps, so a splice edits only the strands
    that end on its pair's walls, and whatever no splice or rename touched
    is read back as it was.  A splice may put a surrogate circle in its
    pair's place.  Nothing is validated here.
    """

    def __init__(self, d: Diagram):
        self.d = d
        self.owner = {p.id: p.id for p in d.pieces}  # union-find over piece ids
        self.parts: dict[str, _Component] = {}  # surviving pieces, loaded on first use
        self.ids: tuple[dict, dict, dict] = ({}, {}, {})  # crossing, strand, wall renames
        self.renamed: set[str] = set()  # pieces some of whose ids were renamed
        self.source: dict = {}  # strand key -> the Strand it starts as
        self.strand: dict[tuple, _GluedStrand] = {}  # strands a splice has edited
        self.starts: dict = {}  # (wall key, point) -> strand key
        self.ends: dict = {}
        self.dead: set = set()  # strand keys spliced into another strand
        self.stamps = count()
        self.glued: list[str] = []  # spliced pair ids
        self.new_circle_ids = fresh_ids({c.id for c in d.circles}, "h")  # circles are never freed
        self.surrogates: list[GluedCircle] = []  # circles replacing spliced pairs
        self.surfaces = {f.id: f for f in d.surfaces}
        self.slot = {f.id: i for i, f in enumerate(d.surfaces)}
        self.alias = {f.id: f.id for f in d.surfaces}  # union-find over surface ids
        self.carriers: dict[str, dict[int, list[str]]] = {}  # pair -> curve index -> surfaces
        for f in d.surfaces:
            for item in f.boundary:
                if isinstance(item, WallCurve):
                    self.carriers.setdefault(item.pair, {}).setdefault(
                        item.index, []).append(f.id)

    def _component(self, pid: str) -> _Component:
        if pid not in self.parts:
            p = self.d.piece(pid)
            self.parts[pid] = _Component(p, self.stamps)
            for s in p.tangle.strands:
                key = (pid, s.id)
                self.source[key] = s
                if s.start is not None:
                    self.starts[(pid, s.start[0]), s.start[1]] = key
                if s.end is not None:
                    self.ends[(pid, s.end[0]), s.end[1]] = key
        return self.parts[pid]

    def _edited(self, key) -> _GluedStrand:
        if key not in self.strand:
            pid, s = key[0], self.source[key]
            self.strand[key] = _GluedStrand(
                [((pid, x), port) for x, port in s.visits],
                *(None if pt is None else ((pid, pt[0]), pt[1]) for pt in (s.start, s.end)))
        return self.strand[key]

    def join(self, q: SpherePair) -> bool:
        """Glue the piece on q's wall_b side into the one on its wall_a side, splicing q.

        False, and nothing glued, when both walls already lie in one piece.
        """
        pa, pb = find_root(self.owner, q.wall_a[0]), find_root(self.owner, q.wall_b[0])
        if pa == pb:
            return False
        a, b = self._component(pa), self._component(pb)
        del self.parts[pb]
        self.owner[pb] = pa
        for used, moved, keys, ids in zip(a.ids, b.ids, (b.crossings, b.strands, b.walls),
                                          self.ids):
            if used.isdisjoint(moved):
                used |= moved
                continue
            for key in keys:
                nid = ids.get(key, key[1])
                while nid in used:
                    nid += "m"
                used.add(nid)
                if nid != ids.get(key, key[1]):
                    ids[key] = nid
                    self.renamed.add(key[0])
        a.crossings.update(b.crossings)
        a.strands.update(zip(b.strands, self.stamps))
        a.walls.update(b.walls)
        self.splice(pa, q)
        self._glue_wall_curves(q.id)
        return True

    def splice(self, pid: str, q: SpherePair, surrogate: bool = False) -> str | None:
        """Delete pair q, both of whose walls lie in piece pid, joining the strands it matched.

        With surrogate, q is replaced by a 0-framed unknot that every
        connector pierces at its wall_a end, and the unknot's circle id is
        returned.
        """
        c = self._component(pid)
        wa, wb = walls = (tuple(q.wall_a), tuple(q.wall_b))
        m = q.matching
        k = len(m)
        crossings, segs = [], []
        if k:
            crossings, segs, _ = braid(_connector_word(q), [1] * k, fresh_ids(c.ids[0], "br"))
        if surrogate:
            # connector i goes over the surrogate at u and under it at o; the
            # surrogate runs under the bundle and back over it
            hd = fresh_ids(c.ids[0], "hd")
            lanes = [(next(hd), next(hd)) for _ in range(k)]
            crossings += [Crossing(x, over) for u, o in lanes for x, over in ((u, 2), (o, 1))]
            segs = [[(u, 3), (o, 3)] + seg for (u, o), seg in zip(lanes, segs)]
        for x in crossings:
            c.crossings[pid, x.id] = x
            c.ids[0].add(x.id)
        end_map = {}
        for i in range(k):
            end_map[wa, i] = (i, True)
            end_map[wb, m[i]] = (i, False)
        touching = {at.get((w, i)) for at in (self.starts, self.ends)
                    for w in walls for i in range(k)} - {None}
        edited = {s: self._edited(s) for s in sorted(touching, key=c.strands.__getitem__)}

        def connector(i, from_a):
            v = segs[i] if from_a else [(x, (p + 2) % 4) for x, p in reversed(segs[i])]
            return [((pid, x), p) for x, p in v]

        heads = [s for s, g in edited.items() if g.start is None or g.start[0] not in walls]
        chained = set(heads)

        def extend_chain(first):
            """Append the chain after strand first to its visits.

            Returns the chain's last end, or None once it closes up.
            """
            cur = edited[first]
            visits = cur.visits
            while cur.end is not None and cur.end[0] in walls:
                i, from_a = end_map[cur.end]
                visits += connector(i, from_a)
                nxt = self.starts.get((wb, m[i]) if from_a else (wa, i))
                if nxt is None:
                    raise DiagramError(f"splice through pair {q.id} does not chain")
                if nxt == first:
                    return None  # closed into a loop
                if nxt in chained:
                    raise DiagramError(f"splice through pair {q.id} tangles")
                chained.add(nxt)
                cur = edited[nxt]
                visits += cur.visits
            return cur.end

        for s in heads:
            edited[s].end = extend_chain(s)
        # chains that close entirely through the pair: the strand first in
        # the code order survives, and moves to the end
        loops = []
        for s in edited:
            if s in chained:
                continue
            chained.add(s)
            if extend_chain(s) is not None:
                raise DiagramError(f"splice through pair {q.id} does not close")
            loops.append(s)

        for w in walls:
            for i in range(k):
                self.starts.pop((w, i), None)
                self.ends.pop((w, i), None)
            if w in c.walls:
                del c.walls[w]
                c.ids[2].discard(self.ids[2].get(w, w[1]))
        for s in heads:
            self.ends[edited[s].end] = s
        for s in chained.difference(heads, loops):
            del c.strands[s]
            c.ids[1].discard(self.ids[1].get(s, s[1]))
            self.dead.add(s)
        for s in loops:
            edited[s].start = edited[s].end = None
            del c.strands[s]
            c.strands[s] = next(self.stamps)
        self.glued.append(q.id)
        if not surrogate:
            return None
        sid = next(fresh_ids(c.ids[1], "hs"))
        key = (pid, sid)
        self.strand.pop(key, None)  # a strand of that id died in a splice
        self.source[key] = Strand(sid, tuple([(u, 2) for u, _ in lanes]
                                             + [(o, 0) for _, o in reversed(lanes)]))
        c.strands[key] = next(self.stamps)
        c.ids[1].add(sid)
        cid = next(self.new_circle_ids)
        self.surrogates.append(GluedCircle(cid, (key,), 0))
        return cid

    def _glue_wall_curves(self, pair_id: str) -> None:
        """Glue the surface boundary curves matched across a spliced pair."""
        # the surfaces carrying each curve now, in surface order
        carriers = {index: sorted((find_root(self.alias, f) for f in fids),
                                  key=self.slot.__getitem__)
                    for index, fids in self.carriers.get(pair_id, {}).items()}
        for index, fids in sorted(carriers.items()):
            if len(fids) != 2:
                raise DiagramError(f"wall curve {pair_id}:{index} is not matched")
            fa, fb = (find_root(self.alias, x) for x in fids)

            def strip_once(boundary, count):
                kept = []
                for i in boundary:
                    if (count and isinstance(i, WallCurve) and i.pair == pair_id
                            and i.index == index):
                        count -= 1
                        continue
                    kept.append(i)
                return tuple(kept)

            if fa == fb:
                # gluing two boundary circles of one connected surface adds genus
                f = self.surfaces[fa]
                self.surfaces[fa] = replace(f, genus=f.genus + 1,
                                            boundary=strip_once(f.boundary, 2))
            else:
                a, b = self.surfaces[fa], self.surfaces[fb]
                self.surfaces[fa] = replace(
                    a, genus=a.genus + b.genus,
                    boundary=strip_once(a.boundary, 1) + strip_once(b.boundary, 1))
                del self.surfaces[fb]
                self.alias[fb] = fa

    def _piece(self, pid: str, c: _Component) -> Piece:
        xids, sids, wids = self.ids
        crossings = tuple(replace(x, id=xids[key]) if key in xids else x
                          for key, x in c.crossings.items())
        strands = []
        for key in c.strands:
            s = self.source[key]
            if key in self.strand or key[0] in self.renamed:
                g = self._edited(key)
                s = Strand(sids.get(key, key[1]),
                           tuple((xids.get(x, x[1]), port) for x, port in g.visits),
                           *(None if pt is None else (wids.get(pt[0], pt[0][1]), pt[1])
                             for pt in (g.start, g.end)))
            strands.append(s)
        walls = tuple(replace(w, id=wids[key]) if key in wids else w
                      for key, w in c.walls.items())
        return Piece(pid, TangleCode(crossings, tuple(strands)), walls)

    def diagram(self) -> Diagram:
        """The glued diagram: spliced pairs gone, every reference renamed."""
        _, sids, wids = self.ids
        owner = self.owner
        # pieces whose references change: renamed or absorbed ones
        moved = self.renamed.union(p for p in owner if owner[p] != p)
        pieces = tuple(self._piece(p.id, self.parts[p.id]) if p.id in self.parts else p
                       for p in self.d.pieces if owner[p.id] == p.id)

        def ref(r):
            return (find_root(owner, r[0]), wids.get(tuple(r), r[1]))

        glued = set(self.glued)
        pairs = tuple(replace(q, wall_a=ref(q.wall_a), wall_b=ref(q.wall_b))
                      if q.wall_a[0] in moved or q.wall_b[0] in moved else q
                      for q in self.d.pairs if q.id not in glued)
        circles = []
        for c in self.d.circles:
            if any(p in moved or (p, s) in self.dead for p, s in c.strand_cycle):
                entries = tuple((find_root(owner, p), sids.get((p, s), s))
                                for p, s in c.strand_cycle if (p, s) not in self.dead)
                if not entries:
                    raise DiagramError(f"circle {c.id} lost all strands in splice")
                c = replace(c, strand_cycle=entries)
            circles.append(c)
        return replace(self.d, pieces=pieces, pairs=pairs,
                       circles=tuple(circles + self.surrogates),
                       surfaces=tuple(self.surfaces.values()))


def merge_pieces(d: Diagram, pair_id: str) -> Diagram:
    """Connected sum of two pieces along a pair: one piece and one pair fewer."""
    q = d.pair(pair_id)
    if q.wall_a[0] == q.wall_b[0]:
        raise MoveError(f"pair {pair_id} is internal to piece {q.wall_a[0]}")
    require_valid(d, "invalid diagram")
    glue = _Glue(d)
    glue.join(q)
    return require_valid(glue.diagram(), "merge broke the diagram")


def merge_all(d: Diagram, log: list | None = None) -> Diagram:
    """Merge until one piece remains; exactly pieces - 1 merges on connected input.

    The merged pairs are the spanning pairs in sorted pair id order, as
    Kruskal's algorithm picks them: a pair is merged unless the merges
    before it already joined its two pieces.  Merging the smallest external
    pair, again and again, takes the same pairs in the same order, since an
    internal pair stays internal.  The pieces are glued in one sweep, and
    the result is validated once.
    """
    require_valid(d, "invalid diagram")
    glue = _Glue(d)
    for q in sorted(d.pairs, key=lambda q: q.id):
        if glue.join(q) and log is not None:
            log.append(KirbyMove("merge-pieces", (q.id,)))
    if len(glue.glued) < len(d.pieces) - 1:
        raise DiagramError(
            "piece graph is disconnected: the presented manifold would "
            "not be connected")
    if not glue.glued:
        return d
    return require_valid(glue.diagram(), "merge broke the diagram")


# ---------------------------------------------------------------------------
# superfluous surfaces


def find_superfluous_surface(d: Diagram):
    """A cancelling surface/circle pair, smallest surface id first.

    A surface cancels when its whole boundary is one framing parallel on a
    circle no other surface touches: the capped sphere meets the belt
    sphere of that 2-handle exactly once.
    """
    touch: dict[str, set] = {}
    for f in d.surfaces:
        for item in f.boundary:
            if isinstance(item, FramingParallel):
                touch.setdefault(item.circle, set()).add(f.id)
    for f in sorted(d.surfaces, key=lambda f: f.id):
        if len(f.boundary) != 1 or not isinstance(f.boundary[0], FramingParallel):
            continue
        cid = f.boundary[0].circle
        if touch.get(cid, set()) == {f.id}:
            return (f.id, cid)
    return None


def delete_superfluous(d: Diagram, surface_id: str, circle_id: str) -> Diagram:
    """Cancel a 3-handle against the 2-handle its boundary runs along."""
    found = find_superfluous_surface(d)
    if found != (surface_id, circle_id):
        raise MoveError(
            f"({surface_id}, {circle_id}) is not the current cancelling pair")
    return require_valid(_cancel(d, surface_id, circle_id), "cancellation broke the diagram")


def _cancel(d: Diagram, surface_id: str, circle_id: str) -> Diagram:
    """delete_superfluous on its own pair, unvalidated."""
    c = d.circle(circle_id)
    pieces = {p.id: p for p in d.pieces}
    for pid, sid in c.strand_cycle:
        p = pieces[pid]
        code = _drop(p.tangle, {x for x, _ in p.tangle.strand(sid).visits})
        pieces[pid] = Piece(p.id, replace(code, strands=tuple(
            s for s in code.strands if s.id != sid)), p.walls)
    # the surface's incidence column goes, and it is zero: the surface is the
    # only one on the circle, so d3.d4 = 0 on the circle zeroes its entries
    incidence = None if d.sink_incidence is None else tuple(
        tuple(x for x, f in zip(row, d.surfaces) if f.id != surface_id)
        for row in d.sink_incidence)
    return replace(d, pieces=tuple(pieces[p.id] for p in d.pieces),
                   circles=tuple(x for x in d.circles if x.id != circle_id),
                   surfaces=tuple(f for f in d.surfaces if f.id != surface_id),
                   sink_incidence=incidence)


# ---------------------------------------------------------------------------
# Kirby form


def to_kirby(d: Diagram, log: list | None = None) -> Diagram:
    """Replace internal pairs by 0-framed surrogates, drop surfaces to counts.

    Each surviving pair becomes a dotted-circle 1-handle and then its
    0-framed surrogate: an unknot whose disk is pierced by exactly the
    strands that ran through the pair, in wall point order.  The annotation
    records the replaced 1-handles, the 3-handle count, the sinks, and the
    surrogate ids (so the presented manifold's invariants stay computable).
    All pairs are spliced in one sweep, in sorted pair id order, and each
    connector is pierced at its wall_a end.  The input and the Kirby form
    are validated.  A diagram already in Kirby form, with an annotation, is
    returned as it is: validated, it has no pairs and no surfaces left.
    """
    if len(d.pieces) != 1:
        raise DiagramError("Kirby form needs a single-piece diagram")
    adm = check_admissible(d)  # carries every validate error
    if not adm.ok:
        raise DiagramError(f"not admissible: {adm.findings[0].message}")
    if d.annotation is not None:
        return d
    if any(isinstance(i, WallCurve) for f in d.surfaces for i in f.boundary):
        raise DiagramError("wall curves must be merged away before Kirby form")
    pairs = sorted(d.pairs, key=lambda q: q.id)
    out, dotted = _replace_pairs(replace(d, surfaces=(), sink_incidence=None), pairs)
    if log is not None:
        log.extend(KirbyMove("replace-pair", (q.id, cid)) for q, cid in zip(pairs, dotted))
    ann = KirbyAnnotation(len(d.pairs), len(d.surfaces), d.sink_count, tuple(dotted))
    return require_valid(replace(out, annotation=ann), "Kirby form broke the diagram")


def _replace_pairs(d: Diagram, pairs: list[SpherePair]) -> tuple[Diagram, list[str]]:
    """Splice internal pairs away in one gluing state, each replaced by its surrogate.

    Returns the diagram and the surrogate circle ids, in pair order.  Only
    the planarity of the pieces spliced in is checked.  A replayed
    replace-pair move is this call on its one pair.
    """
    glue = _Glue(d)
    dotted = [glue.splice(q.wall_a[0], q, surrogate=True) for q in pairs]
    out = glue.diagram()
    for p in map(out.piece, glue.parts):
        if problems := planarity_problems(p.tangle, p.wall_points()):
            raise DiagramError(f"surrogate left a non-planar code: {problems[0]}")
    return out, dotted


def reduce_pipeline(d: Diagram, log: list | None = None) -> Diagram:
    """merge_all, then exhaustive cancellation, then Kirby form.

    Validation runs once per phase: merge_all checks its input and the
    merged diagram, and to_kirby checks the cancelled diagram and the Kirby
    form.  A cancellation is checked on its own only when it may leave the
    diagram invalid, so that the error names the cancellation.

    A diffeomorphism diagram is refused up front when a phase would change
    it (it has pairs or surfaces): no phase carries its internal maps along.
    """
    if d.internal_maps is not None and (d.pairs or d.surfaces):
        raise DiagramError("the reduction acts on diagrams without internal maps")
    d = merge_all(d, log)
    while (found := find_superfluous_surface(d)) is not None:
        out = _cancel(d, *found)
        # deleting a closed strand with its crossings keeps a code planar, and
        # the cancelled surface is the only one on the circle: what can go
        # stale is a wall point the circle ended on (internal maps are
        # refused above)
        if closed_strand(d, found[1]) is None:
            require_valid(out, "cancellation broke the diagram")
        d = out
        if log is not None:
            log.append(KirbyMove("delete-surface", found))
    return to_kirby(d, log)
