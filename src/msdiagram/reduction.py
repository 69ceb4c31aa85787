"""Reduction pipeline: merge pieces, cancel superfluous handles, reach Kirby form.

The pipeline order is fixed: merge all pieces into one along sphere pairs,
then repeatedly delete superfluous surface/circle cancelling pairs, then
replace the surviving internal pairs by 0-framed surrogate circles and drop
the remaining surfaces into the annotation counts.  Every step preserves the
integer homology of the presented manifold.
"""

from __future__ import annotations

from dataclasses import replace

from .calculus import KirbyMove
from .core import (
    Diagram,
    DiagramError,
    FramingParallel,
    GluedCircle,
    KirbyAnnotation,
    Piece,
    SpherePair,
    SphereWall,
    WallCurve,
    check_admissible,
    require_valid,
    with_tangle,
)
from .tangle import (
    Crossing,
    MoveError,
    Strand,
    TangleCode,
    braid,
    fresh_ids,
    planarity_problems,
    splice,
)


# ---------------------------------------------------------------------------
# splicing strands through an internal pair


def _connector_word(q: SpherePair) -> list[tuple[int, int]]:
    """Braid word realizing the matching as a permutation of the wall bundle.

    Wall_b's cyclic order reverses against wall_a's in the glued picture;
    the rotation offset is gauge and is chosen to minimize crossings.  When
    the matching braids, the strand from the smaller wall_a point goes over
    (a fixed convention: the sphere identification data does not pin the
    braiding).
    """
    k = len(q.matching)
    best = None
    for offset in range(k):
        target = {i: (offset - q.matching[i]) % k for i in range(k)}
        swaps = sum(
            1 for i in range(k) for j in range(i + 1, k)
            if target[i] > target[j])
        if best is None or swaps < best[0]:
            best = (swaps, target)
    _, target = best
    word = []
    seq = list(range(k))
    changed = True
    while changed:
        changed = False
        for j in range(k - 1):
            a, b = seq[j], seq[j + 1]
            if target[a] > target[b]:
                word.append((j + 1, 1 if a < b else -1))
                seq[j], seq[j + 1] = b, a
                changed = True
    return word


def _splice_through(d: Diagram, pid: str, q: SpherePair,
                    track: list | None = None) -> Diagram:
    """Delete an internal pair of one piece, joining the strands it matched.

    When track is given it receives (strand id, gap position, direction)
    entries, one per connector in wall_a point order, locating the splice
    gaps in the joined visit lists.
    """
    p = d.piece(pid)
    wa, wb = q.wall_a[1], q.wall_b[1]
    k = len(q.matching)
    code = p.tangle

    def without_walls(pieces):
        return tuple(
            Piece(pp.id, pieces_code[pp.id], tuple(
                w for w in pp.walls if not (pp.id == pid and w.id in (wa, wb))))
            if pp.id == pid else pp for pp in pieces)

    if k == 0:
        pieces_code = {pid: code}
        return replace(d, pieces=without_walls(d.pieces),
                       pairs=tuple(x for x in d.pairs if x.id != q.id))

    braid_crossings, segs, _ = braid(_connector_word(q), [1] * k,
                                     fresh_ids({c.id for c in code.crossings}, "br"))

    end_map = {}
    for i in range(k):
        end_map[(wa, i)] = (i, "a")
        end_map[(wb, q.matching[i])] = (i, "b")

    strands = {s.id: s for s in code.strands}
    starts = {}
    for s in code.strands:
        if s.start is not None and s.start[0] in (wa, wb):
            starts[s.start] = s.id

    def connector_visits(i, from_a):
        v = segs[i]
        return list(v) if from_a else [(x, (p_ + 2) % 4) for x, p_ in reversed(v)]

    tracked: dict[int, tuple] = {}
    consumed: set[str] = set()
    new_strands = []

    def extend_chain(first: Strand):
        visits = list(first.visits)
        cur = first
        while cur.end is not None and cur.end[0] in (wa, wb):
            i, role = end_map[cur.end]
            tracked[i] = (first.id, len(visits), 1 if role == "a" else -1)
            visits.extend(connector_visits(i, role == "a"))
            nxt_key = (wb, q.matching[i]) if role == "a" else (wa, i)
            nxt_id = starts.get(nxt_key)
            if nxt_id is None:
                raise DiagramError(f"splice through pair {q.id} does not chain")
            if nxt_id == first.id:
                return visits, None  # closed into a loop
            if nxt_id in consumed:
                raise DiagramError(f"splice through pair {q.id} tangles")
            cur = strands[nxt_id]
            consumed.add(cur.id)
            visits.extend(cur.visits)
        return visits, cur.end

    for s in code.strands:
        if s.closed:
            new_strands.append(s)
            continue
        if s.start is not None and s.start[0] in (wa, wb):
            continue  # interior of some chain
        if s.end is None or s.end[0] not in (wa, wb):
            if s.start is None or s.start[0] not in (wa, wb):
                new_strands.append(s)  # untouched open strand
            continue
        consumed.add(s.id)
        visits, end = extend_chain(s)
        new_strands.append(Strand(s.id, tuple(visits), s.start, end))

    # chains that close entirely through the pair
    for s in code.strands:
        if s.closed or s.id in consumed:
            continue
        if s.start is None or s.start[0] not in (wa, wb):
            continue
        # pick the cyclically first unconsumed strand as the survivor
        consumed.add(s.id)
        visits, end = extend_chain(s)
        if end is not None:
            raise DiagramError(f"splice through pair {q.id} does not close")
        new_strands.append(Strand(s.id, tuple(visits)))

    new_code = TangleCode(code.crossings + tuple(braid_crossings),
                          tuple(new_strands))
    pieces_code = {pid: new_code}
    pieces = tuple(
        Piece(pp.id, new_code, tuple(w for w in pp.walls if w.id not in (wa, wb)))
        if pp.id == pid else pp for pp in d.pieces)

    survivors = {s.id for s in new_strands}
    circles = []
    for c in d.circles:
        entries = [tuple(e) for e in c.strand_cycle
                   if not (e[0] == pid and e[1] not in survivors)]
        if not entries:
            raise DiagramError(f"circle {c.id} lost all strands in splice")
        circles.append(replace(c, strand_cycle=tuple(entries)))
    if track is not None:
        for i in sorted(tracked):
            track.append(tracked[i])
    return replace(d, pieces=pieces,
                   pairs=tuple(x for x in d.pairs if x.id != q.id),
                   circles=tuple(circles))


def merge_pieces(d: Diagram, pair_id: str) -> Diagram:
    """Connected sum of two pieces along a pair: one piece and one pair fewer."""
    q = d.pair(pair_id)
    pa, pb = q.wall_a[0], q.wall_b[0]
    if pa == pb:
        raise MoveError(f"pair {pair_id} is internal to piece {pa}")
    piece_a, piece_b = d.piece(pa), d.piece(pb)

    # move piece_b's content into piece_a, renaming collisions
    def renaming(kept, moved) -> dict[str, str]:
        taken = {x.id for x in kept}
        out = {}
        for x in moved:
            nid = x.id
            while nid in taken:
                nid += "m"
            taken.add(nid)
            out[x.id] = nid
        return out

    xmap = renaming(piece_a.tangle.crossings, piece_b.tangle.crossings)
    smap = renaming(piece_a.tangle.strands, piece_b.tangle.strands)
    wmap = renaming(piece_a.walls, piece_b.walls)
    strands_b = tuple(
        Strand(smap[s.id], tuple((xmap[x], p) for x, p in s.visits),
               None if s.start is None else (wmap[s.start[0]], s.start[1]),
               None if s.end is None else (wmap[s.end[0]], s.end[1]))
        for s in piece_b.tangle.strands)
    crossings_b = tuple(replace(c, id=xmap[c.id]) for c in piece_b.tangle.crossings)
    walls_b = tuple(SphereWall(wmap[w.id], w.points) for w in piece_b.walls)
    merged = Piece(pa,
                   TangleCode(piece_a.tangle.crossings + crossings_b,
                              piece_a.tangle.strands + strands_b),
                   piece_a.walls + walls_b)
    pieces = tuple(merged if p.id == pa else p for p in d.pieces if p.id != pb)

    def fix_ref(ref):
        return (pa, wmap[ref[1]]) if ref[0] == pb else tuple(ref)

    # only the pairs and circles that reach into piece_b change
    pairs = tuple(
        replace(x, wall_a=fix_ref(x.wall_a), wall_b=fix_ref(x.wall_b))
        if pb in (x.wall_a[0], x.wall_b[0]) else x
        for x in d.pairs)
    circles = tuple(
        replace(c, strand_cycle=tuple(
            (pa, smap[s]) if p == pb else (p, s) for p, s in c.strand_cycle))
        if any(p == pb for p, _ in c.strand_cycle) else c
        for c in d.circles)
    out = replace(d, pieces=pieces, pairs=pairs, circles=circles)

    out = _splice_through(out, pa, out.pair(pair_id))
    return require_valid(_merge_wallcurves(out, pair_id), "merge broke the diagram")


def _merge_wallcurves(d: Diagram, pair_id: str) -> Diagram:
    """Glue surface boundary curves matched across a deleted pair."""
    carriers: dict[int, list[str]] = {}
    for f in d.surfaces:
        for item in f.boundary:
            if isinstance(item, WallCurve) and item.pair == pair_id:
                carriers.setdefault(item.index, []).append(f.id)
    if not carriers:
        return d
    surfaces = {f.id: f for f in d.surfaces}
    alias: dict[str, str] = {}

    def resolve(fid):
        while fid in alias:
            fid = alias[fid]
        return fid

    for index, fids in sorted(carriers.items()):
        if len(fids) != 2:
            raise DiagramError(f"wall curve {pair_id}:{index} is not matched")
        fa, fb = (resolve(x) for x in fids)

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
            f = surfaces[fa]
            surfaces[fa] = replace(f, genus=f.genus + 1,
                                   boundary=strip_once(f.boundary, 2))
        else:
            a, b = surfaces[fa], surfaces[fb]
            surfaces[fa] = replace(
                a, genus=a.genus + b.genus,
                boundary=strip_once(a.boundary, 1) + strip_once(b.boundary, 1))
            del surfaces[fb]
            alias[fb] = fa
    return replace(d, surfaces=tuple(surfaces.values()))


def merge_all(d: Diagram, log: list | None = None) -> Diagram:
    """Merge until one piece remains; exactly pieces - 1 merges on connected input."""
    require_valid(d, "invalid diagram")
    while len(d.pieces) > 1:
        external = sorted(q.id for q in d.pairs if q.wall_a[0] != q.wall_b[0])
        if not external:
            raise DiagramError(
                "piece graph is disconnected: the presented manifold would "
                "not be connected")
        d = merge_pieces(d, external[0])
        if log is not None:
            log.append(KirbyMove("merge-pieces", (external[0],)))
    return d


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
    c = d.circle(circle_id)
    pieces = {p.id: p for p in d.pieces}
    for pid, sid in c.strand_cycle:
        p = pieces[pid]
        s = p.tangle.strand(sid)
        drop = {x for x, _ in s.visits}
        strands = tuple(
            replace(o, visits=tuple(v for v in o.visits if v[0] not in drop))
            for o in p.tangle.strands if o.id != sid)
        crossings = tuple(x for x in p.tangle.crossings if x.id not in drop)
        pieces[pid] = Piece(p.id, TangleCode(crossings, strands), p.walls)
    out = replace(d, pieces=tuple(pieces[p.id] for p in d.pieces),
                  circles=tuple(x for x in d.circles if x.id != circle_id),
                  surfaces=tuple(f for f in d.surfaces if f.id != surface_id))
    return require_valid(out, "cancellation broke the diagram")


# ---------------------------------------------------------------------------
# Kirby form


def to_kirby(d: Diagram, log: list | None = None) -> Diagram:
    """Replace internal pairs by 0-framed surrogates, drop surfaces to counts.

    Each surviving pair becomes a dotted-circle 1-handle and then its
    0-framed surrogate: an unknot whose disk is pierced by exactly the
    strands that ran through the pair, in wall point order.  The annotation
    records the replaced 1-handles, the 3-handle count, the sinks, and the
    surrogate ids (so the presented manifold's invariants stay computable).
    """
    if len(d.pieces) != 1:
        raise DiagramError("Kirby form needs a single-piece diagram")
    adm = check_admissible(d)  # carries every validate error
    if not adm.ok:
        raise DiagramError(f"not admissible: {adm.errors()[0].message}")
    if any(isinstance(i, WallCurve) for f in d.surfaces for i in f.boundary):
        raise DiagramError("wall curves must be merged away before Kirby form")
    one_handles = len(d.pairs)
    three_handles = len(d.surfaces)
    dotted = []
    out = replace(d, surfaces=(), sink_incidence=None)
    for qid in sorted(q.id for q in d.pairs):
        out, cid = _replace_pair(out, qid)
        dotted.append(cid)
        if log is not None:
            log.append(KirbyMove("replace-pair", (qid, cid)))
    ann = KirbyAnnotation(one_handles, three_handles, d.sink_count, tuple(dotted))
    return require_valid(replace(out, annotation=ann), "Kirby form broke the diagram")


def _replace_pair(d: Diagram, pair_id: str) -> tuple[Diagram, str]:
    """Splice one internal pair away and add its 0-framed surrogate circle."""
    q = d.pair(pair_id)
    pid = q.wall_a[0]
    track: list = []
    spliced = _splice_through(d, pid, q, track)
    p2 = spliced.piece(pid)
    code = p2.tangle

    cid = next(fresh_ids({c.id for c in spliced.circles}, "h"))
    sid = next(fresh_ids({s.id for s in code.strands}, "hs"))

    if not track:
        code = replace(code, strands=code.strands + (Strand(sid),))
        out = with_tangle(spliced, pid, code)
        return replace(out, circles=out.circles
                       + (GluedCircle(cid, ((pid, sid),), 0),)), cid

    # one piercing per connector: the strand goes over the surrogate at u
    # and under it at o; the surrogate runs under the bundle and back over
    fresh = fresh_ids({c.id for c in code.crossings}, "hd")
    new_crossings = []
    lanes = []
    per_strand: dict[str, list] = {}
    for strand_id, gap, direction in track:
        u, o = next(fresh), next(fresh)
        new_crossings.append(Crossing(u, 2))
        new_crossings.append(Crossing(o, 1))
        if direction > 0:
            block = [(u, 3), (o, 3)]
        else:
            block = [(o, 1), (u, 1)]
        per_strand.setdefault(strand_id, []).append((gap, block))
        lanes.append((u, o))
    under_run = [(u, 2) for u, _ in lanes]
    over_run = [(o, 0) for _, o in reversed(lanes)]
    surrogate = Strand(sid, tuple(under_run + over_run))

    # connectors sharing a gap are pierced in sorted block order, a fixed
    # convention like the connector braid's
    strands = tuple(replace(s, visits=splice(s.visits, sorted(per_strand[s.id])))
                    if s.id in per_strand else s for s in code.strands)
    new_code = TangleCode(code.crossings + tuple(new_crossings),
                          strands + (surrogate,))
    out = with_tangle(spliced, pid, new_code)
    out = replace(out, circles=out.circles + (GluedCircle(cid, ((pid, sid),), 0),))
    problems = planarity_problems(new_code, out.piece(pid).wall_points())
    if problems:
        raise DiagramError(f"surrogate left a non-planar code: {problems[0]}")
    return out, cid


def reduce_pipeline(d: Diagram, log: list | None = None) -> Diagram:
    """merge_all, then exhaustive cancellation, then Kirby form."""
    d = merge_all(d, log)
    while True:
        found = find_superfluous_surface(d)
        if found is None:
            break
        d = delete_superfluous(d, *found)
        if log is not None:
            log.append(KirbyMove("delete-surface", found))
    return to_kirby(d, log)
