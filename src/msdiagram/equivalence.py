"""Diagram isomorphism and diffeomorphism conjugacy.

Isotopy inside each piece is approximated by greedy Reidemeister reduction
followed by canonical labeling: a deterministic walk renames every id,
fixes crossing port gauges and wall point offsets, and the lexicographically
smallest text over the walks is the canonical form.  Equal canonical forms
certify an isomorphism; separation is only ever claimed on genuine
invariants, so Unknown is a legal outcome.

A walk spells the records of its MSD/1 text straight from its id maps, as
the arguments that ``format._text`` renders: it builds no relabelled
diagram, and its text is ``serialize`` of that diagram byte for byte.
Crossing signs are read from the walked passages, as walking a circle
backwards flips its crossings with other circles.  ``_text`` renders
records injectively, so walks are compared by their records, and a text is
rendered only for the first walk of each distinct record set.

A walk begins at a start (circle, direction, first strand or visit) of
least rank, ranked by circle colour and a trace of crossings and wall hops;
each (circle, direction) ranks by its least rotation of the trace, found in
linear time, and its tied starts are the rotations one smallest period
apart, so a key costs about linear time in crossings on T(2,m).  The
colours, which ``conjugate`` compares without their orientation labels,
are one colouring of pieces, pairs, circles and surfaces refined to a fixed
point.  Every other circle starts where the walk first meets it: at a
crossing, entering one port counterclockwise of the walker; at a new wall,
leaving it, in cyclic order from the walker's point; under a circle map, as
the image of a walked circle, at its least start.  A walk that meets no new
circle goes on with the least-ranked start left, nearest the pieces entered
first.  Ties left in these choices are broken by circle id, direction and
rotation number, the last deterministic choice.  Such ties remain only
between circles that colours and traces cannot tell apart; where no symmetry
exchanges them, the key can depend on the ids.  Sinks, which no walk
reaches, are numbered by their cycles under the sink map, coloured by their
incidence rows.

Two walks with equal records reveal an automorphism of the diagram.  It
keeps ranks, so it maps tied starts onto tied starts, and a tied start that
it maps onto a walked one is skipped: the tied starts are walked once per
orbit of the automorphisms found so far.  Where a walk is a function of its
start alone, a skipped start gives a text already walked, so the key and the
witness plans are those of walking every start.  A witness walks the second
diagram in the same order and stops at the first walk whose records are
those of the first diagram's least walk: where the least texts are equal,
that is the second diagram's least walk, found without rendering its text.

Orientation-reversing piece homeomorphisms (mirror images) are searched only
when asked: framings and crossing signs flip under them, and the default
comparison treats, say, the +1- and the -1-framed unknot as different.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .core import (
    Diagram,
    DiagramError,
    FramingParallel,
    Finding,
    InternalMaps,
    SpherePair,
    SpanningSurface,
    ValidationReport,
    Verdict,
    WallCurve,
    circle_crossing_sums,
    circle_passages,
    closed_strand,
    endpoint_usage,
    handle_counts,
    linking_from_sums,
    require_valid,
    simplify_diagram,
    wall_of_pair,
    with_tangle,
)
from .format import _text, natural_key
from .invariants import det, linking_matrix, signature, smith_normal_form
from .tangle import (
    MoveError,
    Strand,
    apply_rmove,
    cached_property,
    crossing_sign,
    find_root,
    is_over,
    other_passage,
    record,
    replace,
    split_passages,
)

# ---------------------------------------------------------------------------
# mirror image


def mirror(d: Diagram) -> Diagram:
    """Reflect every piece: cyclic orders reverse, framings and signs flip."""
    def flip_point(wall_points, pt):
        if pt is None:
            return None
        k = wall_points[pt[0]]
        return (pt[0], (-pt[1]) % k if k else 0)

    pieces = []
    for p in d.pieces:
        wp = p.wall_points()
        strands = tuple(
            Strand(s.id,
                   visits=tuple((c, (-q) % 4) for c, q in s.visits),
                   start=flip_point(wp, s.start),
                   end=flip_point(wp, s.end))
            for s in p.tangle.strands)
        pieces.append(replace(p, tangle=replace(p.tangle, strands=strands)))

    def flip_matching(q: SpherePair) -> SpherePair:
        k = len(q.matching)
        if k == 0:
            return q
        new = [0] * k
        for i, j in enumerate(q.matching):
            new[(-i) % k] = (-j) % k
        return replace(q, matching=tuple(new))

    return replace(
        d,
        pieces=tuple(pieces),
        pairs=tuple(flip_matching(q) for q in d.pairs),
        circles=tuple(replace(c, framing=-c.framing) for c in d.circles),
    )


# ---------------------------------------------------------------------------
# canonical labeling


class _Traversals:
    """Each circle's traversal, read once per canonical key and dropped with
    it.  ``at`` sends a (piece, strand) to its circle and its position in the
    strand cycle; ``circles`` sends a circle to whether it is one closed
    strand, its rotation count, and its strands forwards and backwards, each
    as (piece, strand id, visits, start, end)."""

    def __init__(self, d: Diagram):
        self.d = d
        self.at: dict[tuple[str, str], tuple[str, int]] = {}
        self.circles: dict[str, tuple[bool, int, tuple[list, list]]] = {}
        for c in d.circles:
            forward = []
            for i, (pid, sid) in enumerate(c.strand_cycle):
                s = d.piece(pid).tangle.strand(sid)
                self.at[pid, sid] = (c.id, i)
                forward.append((pid, sid, s.visits, s.start, s.end))
            backward = [(pid, sid, tuple((x, (p + 2) % 4) for x, p in reversed(visits)), end, start)
                        for pid, sid, visits, start, end in reversed(forward)]
            closed = closed_strand(d, c.id) is not None
            count = max(len(forward[0][2]), 1) if closed else len(forward)
            self.circles[c.id] = (closed, count, (forward, backward))

    def cycle(self, cid: str, direction: int, rot: int) -> list:
        """The circle's strands in traversal order after direction/start choices."""
        closed, count, ways = self.circles[cid]
        strands, r = ways[direction], rot % count
        if closed:
            (pid, sid, visits, _, _), = strands
            return [(pid, sid, visits[r:] + visits[:r], None, None)]
        return strands[r:] + strands[:r]


def _least_rotations(seq) -> range:
    """The offsets r at which the rotation seq[r:] + seq[:r] is least, in
    increasing order, in O(n): the two-pointer minimum-expression loop finds
    the first, and the others follow one smallest period of seq apart.  The
    empty sequence has its one rotation, at 0."""
    n = len(seq)
    if n < 2:
        return range(1)
    # one character per item, in item order, so characters compare as items do
    char = {x: chr(i) for i, x in enumerate(sorted(set(seq)))}
    s = "".join([char[x] for x in seq]) * 2
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        j += i == j
        k = 0
    return range(min(i, j), n, s.find(s[:n], 1))


def _colours(d: Diagram, oriented: bool = False) -> dict[tuple[str, str], int]:
    """Conjugacy-invariant colours of the pieces ("p", id), pairs ("q", id),
    circles ("c", id) and surfaces ("f", id), read from no crossing data and
    refined to a fixed point (1-dimensional Weisfeiler-Leman): each round a
    vertex takes its rank among the (colour, sorted (label, neighbour colour)
    pairs), which keeps the earlier order of the classes.  Label 0 sorts
    first, so a circle that links fewer circles ranks lower.

    ``oriented`` also labels a pair's walls a and b and a surface's boundary
    signs.  Ranking reads them, as relabeling keeps them; ``conjugate`` does
    not, as they are choices of presentation: swapping a pair's walls and
    inverting its matching is the same gluing, and flipping every sign of a
    surface only reverses its 3-handle.
    """
    images = d.internal_maps.circles() if d.internal_maps is not None else {}
    orbit = {x: len(cycle) for _, cycle in _coloured_cycles(images, lambda x: 0)
             for x in cycle}
    start = {("p", p.id): ("p", len(p.walls)) for p in d.pieces}
    start.update({("q", q.id): ("q", len(q.matching), q.orientation) for q in d.pairs})
    start.update({("c", c.id): ("c", c.framing, len(c.strand_cycle), orbit.get(c.id, 1))
                  for c in d.circles})
    start.update({("f", f.id): ("f", f.genus, len(f.boundary)) for f in d.surfaces})
    edges: dict[tuple[str, str], list] = {v: [] for v in start}

    def edge(u, v, label, back=None):
        edges[u].append((label, v))
        edges[v].append((label if back is None else back, u))

    for q in d.pairs:
        edge(("q", q.id), ("p", q.wall_a[0]), 0)
        edge(("q", q.id), ("p", q.wall_b[0]), int(oriented))
    sums = circle_crossing_sums(d)
    for i, c in enumerate(d.circles):
        for pid, _ in c.strand_cycle:
            edge(("c", c.id), ("p", pid), 0)  # one per strand
        for qid, _ in circle_passages(d, c.id):
            edge(("c", c.id), ("q", qid), 0)  # one per passage
        for o in d.circles[i + 1:]:
            lk = abs(linking_from_sums(sums, c.id, o.id))
            if lk:
                edge(("c", c.id), ("c", o.id), lk)
        if c.id in images:
            edge(("c", c.id), ("c", images[c.id]), -1, -2)  # image, preimage
    for f in d.surfaces:
        for item in f.boundary:
            if isinstance(item, FramingParallel):
                edge(("f", f.id), ("c", item.circle), item.sign if oriented else 0)
            else:
                edge(("f", f.id), ("q", item.pair), 0)

    def ranks(signature):
        order = {s: i for i, s in enumerate(sorted(set(signature.values())))}
        return {v: order[s] for v, s in signature.items()}

    colour = ranks(start)
    while True:
        refined = ranks({v: (colour[v], tuple(sorted((label, colour[u])
                                                      for label, u in edges[v])))
                         for v in colour})
        if len(set(refined.values())) == len(set(colour.values())):
            return colour
        colour = refined


def _local_signatures(t: _Traversals, keys, cid):
    """Cheap invariant traces of a circle's starts at rotation 0, forwards and
    backwards, used to rank the starts: one step per strand, in traversal
    order.  A visit's step reads no port parity, so it is the same both ways."""
    d = t.d

    def hop(pid, pt):
        if pt is None:
            return ()
        q = wall_of_pair(d, (pid, pt[0]))
        other = q.wall_b if q.wall_a == (pid, pt[0]) else q.wall_a
        return (("hop", q.orientation, d.piece(pid).wall(pt[0]).points,
                 q.wall_a == (pid, pt[0]),
                 tuple(sorted(w.points for w in d.piece(other[0]).walls))),)

    forward, backward = [], []
    for pid, _, visits, start, end in t.circles[cid][2][0]:
        code = d.piece(pid).tangle
        steps = []
        for x, p in visits:
            partner = t.at[pid, other_passage(code, x, p)[0]][0]
            steps.append((is_over(code, x, p), crossing_sign(code, x), keys[partner],
                          partner == cid))
        forward.append((len(visits), *steps, *hop(pid, end)))
        backward.append((len(visits), *reversed(steps), *hop(pid, start)))
    return tuple(forward), tuple(reversed(backward))


def _planner(d: Diagram):
    """The traversal table, the tied starts (circle, direction, rotation) of
    least rank, in order, and the walk that turns one into a plan ((circle,
    direction, rotation), ...); the module docstring gives the walk's rules.
    A (circle, direction) ranks by its colour and its least rotation's trace,
    and its starts of that rank are its tied rotations."""
    t = _Traversals(d)
    colours = _colours(d, oriented=True)
    keys = {c.id: colours["c", c.id] for c in d.circles}
    ends = endpoint_usage(d)
    rank, tied = {}, {}
    for c in d.circles:
        closed = t.circles[c.id][0]
        for dr, trace in enumerate(_local_signatures(t, keys, c.id)):
            if closed:  # one step, whose visit steps rotate
                (count, *steps), = trace
                offsets = _least_rotations(steps)
                r = offsets[0]
                trace = ((count, *steps[r:], *steps[:r]),)
            else:
                offsets = _least_rotations(trace)
                trace = trace[offsets[0]:] + trace[:offsets[0]]
            rank[c.id, dr], tied[c.id, dr] = (keys[c.id], trace), offsets
    order = sorted(rank, key=lambda k: (rank[k], k))
    best = {c: (c, dr, tied[c, dr][0]) for c, dr in reversed(order)}
    images = d.internal_maps.circles() if d.internal_maps is not None else {}

    def discover(first):
        plan, planned, touched, entered = [first], {first[0]}, set(), {}

        def meet(pid, sid, visit, forward):
            cid, i = t.at[pid, sid]
            if cid not in planned:
                planned.add(cid)
                closed, n, _ = t.circles[cid]
                if closed:
                    i = visit
                plan.append((cid, 0, i) if forward else (cid, 1, n - 1 - i))

        def touch(pid, pt):
            # a new wall: the strands on its other points, in cyclic order
            if (pid, pt[0]) not in touched:
                touched.add((pid, pt[0]))
                k = d.piece(pid).wall(pt[0]).points
                for j in range(1, k):
                    sid, role = ends[pid, pt[0], (pt[1] + j) % k]
                    meet(pid, sid, 0, role == "start")  # leaving the wall

        i = 0
        while len(plan) < len(d.circles):
            if i == len(plan):
                # the walk met no new circle: the one input-order tie-break
                plan.append(best[min((k for k in order if k[0] not in planned), key=lambda k: (
                    rank[k], min(entered.get(p, len(entered)) for p, _ in
                                 d.circle(k[0]).strand_cycle), k))[0]])
                planned.add(plan[-1][0])
            for pid, _, visits, start, end in t.cycle(*plan[i]):
                entered.setdefault(pid, len(entered))
                if start is not None:
                    touch(pid, start)
                for x, p in visits:
                    if len(plan) == len(d.circles):
                        return tuple(plan)
                    # the other passage, entering one port counterclockwise
                    sid, visit, port = other_passage(d.piece(pid).tangle, x, p)
                    meet(pid, sid, visit, port == (p + 1) % 4)
                if end is not None:
                    touch(pid, end)
            if images.get(plan[i][0], plan[i][0]) not in planned:
                planned.add(images[plan[i][0]])
                plan.append(best[images[plan[i][0]]])
            i += 1
        return tuple(plan)

    firsts = [(c, dr, r) for c, dr in order if rank[c, dr] == rank[order[0]]
              for r in tied[c, dr]]
    return t, firsts, discover


def _start_image(t: _Traversals, plan1, plan2):
    """The action on starts of the automorphism that two plans with equal
    texts reveal: it sends each circle of plan1 to the circle in its place in
    plan2, and a start to the start at the same offset and relative direction
    from that circle's plan entry."""
    entry = {e1[0]: (e1, e2) for e1, e2 in zip(plan1, plan2)}

    def first_unit(start, n):
        # the strand (or visit) a start walks first, and its step
        cid, direction, rot = start
        return (n - 1 - rot, -1) if direction else (rot, 1)

    def image(start):
        e1, e2 = entry[start[0]]
        n = t.circles[start[0]][1]
        (u, s), (u1, s1), (u2, s2) = (first_unit(x, n) for x in (start, e1, e2))
        u = (u2 + s2 * s1 * (u - u1)) % n
        return (e2[0], 0, u) if s * s1 * s2 == 1 else (e2[0], 1, n - 1 - u)

    return image


def _coloured_cycles(f: dict, key):
    """The cycles of the permutation f as (colour, cycle), a cycle's colour
    being its sequence of keys from the least rotation, where it starts."""
    seen: set = set()
    for x in f:
        cycle = []
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = f[x]
        if cycle:
            keys = [key(y) for y in cycle]
            r = _least_rotations(keys)[0]
            yield tuple(keys[r:] + keys[:r]), cycle[r:] + cycle[:r]


class _Walk:
    """One walk along a plan: its records, the arguments that
    ``format._text`` renders in order, and its id maps old id -> canonical
    id, made into ``InternalMaps`` on first read.  ``_text`` renders records
    injectively (``parse`` reads them back), so two walks have equal texts
    exactly when they have equal records."""

    def __init__(self, plan, records: tuple, ids: tuple):
        self.plan, self.records, self._ids = plan, records, ids

    @cached_property
    def text(self) -> str:
        return _text(*self.records)

    @cached_property
    def maps(self) -> InternalMaps:
        pmap, qmap, cmap, fmap, snum = self._ids
        return InternalMaps(tuple(sorted(pmap.items())), tuple(sorted(qmap.items())),
                            tuple(sorted(cmap.items())), tuple(sorted(fmap.items())),
                            tuple(snum[i] for i in range(len(snum))))


def _walk_records(t: _Traversals, plan) -> _Walk:
    """Relabel the table's diagram along one traversal plan: the records of
    its MSD/1 text, spelled from the id maps, and the maps themselves.  Ids
    are handed out in discovery order, so each kind's records come out in
    natural id order as they are met."""
    d = t.d
    pmap: dict[str, str] = {}
    wmap: dict[tuple[str, str], str] = {}
    woff: dict[tuple[str, str], int] = {}
    qmap: dict[str, str] = {}
    cmap: dict[str, str] = {}
    smap: dict[tuple[str, str], str] = {}
    xmap: dict[tuple[str, str], str] = {}
    xrot: dict[tuple[str, str], int] = {}
    walls: dict[str, list[str]] = {}          # piece -> its walls, in new id order
    crossings: dict[str, list[str]] = {}      # piece -> its crossings, in new id order
    split: dict[tuple[str, str], list] = {}   # crossing -> walked passages, new ids
    strands: dict[str, list] = {}             # piece -> strand records
    new_cycles: dict[str, list[tuple[str, str]]] = {}

    def touch_piece(pid):
        if pid not in pmap:
            pmap[pid] = f"p{len(pmap) + 1}"
            walls[pid], crossings[pid], strands[pid] = [], [], []

    def touch_wall(pid, wid, point):
        if (pid, wid) not in wmap:
            wmap[pid, wid] = f"w{len(wmap) + 1}"
            woff[pid, wid] = point
            walls[pid].append(wid)
        q = wall_of_pair(d, (pid, wid))
        if q is not None and q.id not in qmap:
            qmap[q.id] = f"q{len(qmap) + 1}"

    def new_point(pid, pt):
        if pt is None:
            return None
        k = d.piece(pid).wall(pt[0]).points
        return (wmap[pid, pt[0]], (pt[1] - woff[pid, pt[0]]) % k if k else 0)

    for cid, direction, rot in plan:
        cmap[cid] = f"c{len(cmap) + 1}"
        cycle = new_cycles[cid] = []
        for pid, old, old_visits, start, end in t.cycle(cid, direction, rot):
            touch_piece(pid)
            sid = smap[pid, old] = f"s{len(smap) + 1}"
            if start is not None:
                touch_wall(pid, start[0], start[1])
            visits = []
            for k, (x, p) in enumerate(old_visits):
                if (pid, x) not in xmap:
                    xmap[pid, x] = f"x{len(xmap) + 1}"
                    xrot[pid, x] = p
                    crossings[pid].append(x)
                    split[pid, x] = []
                # ports turn so that the first passage met enters at port 0
                port = (p - xrot[pid, x]) % 4
                split[pid, x].append((sid, k, port))
                visits.append((xmap[pid, x], port))
            if end is not None:
                touch_wall(pid, end[0], end[1])
            strands[pid].append((pmap[pid], sid, visits, new_point(pid, start),
                                 new_point(pid, end)))
            cycle.append((pmap[pid], sid))

    # leftovers: pieces and walls never reached by a strand
    def bare_piece_key(pid):
        ks = []
        for w in d.piece(pid).walls:
            q = wall_of_pair(d, (pid, w.id))
            other = q.wall_a if q.wall_b == (pid, w.id) else q.wall_b
            ks.append((other[0] not in pmap, natural_key(pmap.get(other[0], "")),
                       w.points, q.orientation, q.wall_a == (pid, w.id), other[0] == pid))
        return tuple(sorted(ks))

    # one at a time, next to the least-numbered neighbour first
    while len(pmap) < len(d.pieces):
        touch_piece(min((p.id for p in d.pieces if p.id not in pmap),
                        key=lambda x: (bare_piece_key(x), natural_key(x))))

    def bare_wall_key(pid, wid):
        q = wall_of_pair(d, (pid, wid))
        other = q.wall_a if q.wall_b == (pid, wid) else q.wall_b
        return (d.piece(pid).wall(wid).points, q.orientation, q.wall_a == (pid, wid),
                q.id not in qmap, natural_key(qmap.get(q.id, "")),
                pmap.get(other[0], "?"), other[0] == pid,
                d.piece(other[0]).wall(other[1]).points)

    for pid in pmap:
        for wid in sorted((w.id for w in d.piece(pid).walls if (pid, w.id) not in wmap),
                          key=lambda x: (bare_wall_key(pid, x), natural_key(x))):
            touch_wall(pid, wid, 0)

    def in_new_order(items, ids):
        rank = {old: i for i, old in enumerate(ids)}
        return sorted(items, key=lambda x: rank[x.id])

    pairs = []
    for q in in_new_order(d.pairs, qmap):
        ka = len(q.matching)
        offa, offb = woff[q.wall_a], woff[q.wall_b]
        matching = [0] * ka
        for i, j in enumerate(q.matching):
            matching[(i - offa) % ka] = (j - offb) % ka
        pairs.append((qmap[q.id], (pmap[q.wall_a[0]], wmap[q.wall_a]),
                      (pmap[q.wall_b[0]], wmap[q.wall_b]), matching, q.orientation))
    xings = []
    for pid, new in pmap.items():
        code = d.piece(pid).tangle
        if len(crossings[pid]) != len(code.crossings):
            raise KeyError(f"piece {pid}: a crossing that no circle passes")
        for x in crossings[pid]:
            over = code.crossing(x).over
            if xrot[pid, x] % 2:  # the port pairs swap; the over passage stays on top
                over = 3 - over
            passages, sign = split_passages(xmap[pid, x], split[pid, x], over)
            if passages is None:
                raise MoveError(sign)
            xings.append((new, xmap[pid, x], passages, over, sign))

    def new_item(item):
        if isinstance(item, FramingParallel):
            return FramingParallel(cmap[item.circle], item.sign)
        return WallCurve(qmap[item.pair], item.index)

    def item_key(item):
        if isinstance(item, FramingParallel):
            return (0, natural_key(item.circle), item.sign)
        return (1, natural_key(item.pair), item.index)

    renamed_surfaces = []
    for j, f in enumerate(d.surfaces):
        boundary = tuple(sorted((new_item(i) for i in f.boundary), key=item_key))
        renamed_surfaces.append((f.genus, boundary, j))
    renamed_surfaces.sort(key=lambda t: (t[0], tuple(map(item_key, t[1]))))
    fmap = {}
    surfaces = []
    for genus, boundary, j in renamed_surfaces:
        fmap[d.surfaces[j].id] = f"f{len(fmap) + 1}"
        surfaces.append(SpanningSurface(fmap[d.surfaces[j].id], genus, boundary))

    incidence = d.sink_incidence
    if incidence is not None:
        # columns in the new surface order
        incidence = tuple(tuple(row[j] for _, _, j in renamed_surfaces) for row in incidence)
    # sinks, which no walk reaches: by coloured cycles of the sink map, a
    # sink's colour being its incidence row
    maps = d.internal_maps
    sinks = list(range(d.sink_count))  # new number -> old
    if d.sink_count > 1:
        cycles = _coloured_cycles(
            dict(enumerate(maps.on_sinks)) if maps is not None else {i: i for i in sinks},
            incidence.__getitem__ if incidence is not None else lambda i: ())
        sinks = [i for _, cycle in sorted(cycles, key=lambda t: t[0]) for i in cycle]
        if incidence is not None:
            incidence = tuple(incidence[i] for i in sinks)
    snum = {old: new for new, old in enumerate(sinks)}
    if maps is not None:
        maps = InternalMaps(
            on_pieces=tuple(sorted((pmap[a], pmap[b]) for a, b in maps.on_pieces)),
            on_pairs=tuple(sorted((qmap[a], qmap[b]) for a, b in maps.on_pairs)),
            on_circles=tuple(sorted((cmap[a], cmap[b]) for a, b in maps.on_circles)),
            on_surfaces=tuple(sorted((fmap[a], fmap[b]) for a, b in maps.on_surfaces)),
            on_sinks=tuple(snum[maps.on_sinks[i]] for i in sinks))
    ann = d.annotation
    if ann is not None:
        ann = replace(ann, dotted=tuple(sorted((cmap[c] for c in ann.dotted),
                                               key=natural_key)))
    records = (tuple(pmap.values()),
               [(new, wmap[pid, w], d.piece(pid).wall(w).points)
                for pid, new in pmap.items() for w in walls[pid]],
               pairs, xings, [t for pid in pmap for t in strands[pid]],
               [(cmap[c.id], new_cycles[c.id], c.framing) for c in in_new_order(d.circles, cmap)],
               surfaces, d.sink_count, incidence, maps, ann)
    return _Walk(plan, records, (pmap, qmap, cmap, fmap, snum))


def canonical_variants(d: Diagram):
    """All traversal results as (text, maps, plan), one per least-ranked start."""
    t, firsts, discover = _planner(d)
    walks = [_walk_records(t, discover(f)) for f in firsts] or [_walk_records(t, ())]
    return [(w.text, w.maps, w.plan) for w in walks]


def _least_walk(d: Diagram, stop: tuple | None = None) -> _Walk | None:
    """The walk of least text, walking each orbit of tied starts once
    (module docstring).  Walks are compared by their records, and one text
    is rendered per distinct record set, for the least.  Where every walk
    is a function of its start alone, it is the first of least text in plan
    order, as ``min(canonical_variants(d))`` picks it; where a walk breaks a
    tie by circle id or rotation number, a skipped start may hold a smaller
    text.

    With ``stop``, the records of another diagram's least walk, the same
    walks run in the same order until one has those records, and that walk
    is returned: it is the least walk too when the two least texts are
    equal.  None when no walk has them."""
    t, firsts, discover = _planner(d)
    if not firsts:
        w = _walk_records(t, ())
        return w if stop is None or w.records == stop else None
    parent = {f: f for f in firsts}
    walked = []    # the first start of each walk, in plan order
    distinct = []  # the first walk of each record set, in plan order
    for f in firsts:
        if find_root(parent, f) in {find_root(parent, g) for g in walked}:
            continue
        walked.append(f)
        w = _walk_records(t, discover(f))
        if stop is not None and w.records == stop:
            return w
        same = next((v for v in distinct if v.records == w.records), None)
        if same is None:
            distinct.append(w)
            continue
        # an automorphism keeps ranks, so it maps tied starts onto tied starts
        image = _start_image(t, same.plan, w.plan)
        for g in firsts:
            parent[find_root(parent, g)] = find_root(parent, image(g))
    return None if stop is not None else min(distinct, key=lambda w: w.text)


@lru_cache(maxsize=4096)
def canonical_key(d: Diagram) -> str:
    """Serialized canonical form; equal keys certify isomorphic diagrams."""
    return _least_walk(require_valid(d, "canonical key of an invalid diagram")).text


# ---------------------------------------------------------------------------
# separating invariants


def _congruence_invariants(lm) -> dict:
    m = lm.as_list()
    n = len(m)
    divisors = tuple(smith_normal_form(m))
    return {
        "size": n,
        "rank": sum(1 for x in divisors if x),
        "det": det(m),
        "even": all(m[i][i] % 2 == 0 for i in range(n)),
        "signature": signature(m),
        "divisors": divisors,
    }


def _fingerprint(d: Diagram) -> dict:
    lm = linking_matrix(d)
    surf = sorted(
        (f.genus,
         sum(1 for i in f.boundary if isinstance(i, FramingParallel)),
         sum(1 for i in f.boundary if isinstance(i, WallCurve)))
        for f in d.surfaces)
    return {
        "kind": d.kind.value,
        "handle counts": handle_counts(d),
        "framing multiset": tuple(sorted(c.framing for c in d.circles)),
        "circle lengths": tuple(sorted(len(c.strand_cycle) for c in d.circles)),
        "surface profiles": tuple(surf),
        "congruence class of the linking matrix": _congruence_invariants(lm),
        "wall point multiset": tuple(sorted(
            w.points for p in d.pieces for w in p.walls)),
    }


def _separation(f1: dict, f2: dict) -> str | None:
    """The first invariant on which two fingerprints differ, if any."""
    return next((name for name in f1 if f1[name] != f2[name]), None)


def separating_invariant(d1: Diagram, d2: Diagram) -> str | None:
    """Name of an isomorphism invariant telling the diagrams apart, if any."""
    return _separation(_fingerprint(d1), _fingerprint(d2))


# ---------------------------------------------------------------------------
# isomorphism


@record
class Isomorphism:
    """A checkable equivalence witness.

    maps sends d1 ids to d2 ids on the five index sets.  moves1/moves2 are
    per-piece Reidemeister logs bringing each side to a common reduced form;
    the two traversal plans then relabel both reduced forms onto the very
    same canonical diagram (its text is stored for re-verification).
    """

    maps: InternalMaps
    mirror: bool
    moves1: tuple
    moves2: tuple
    plan1: tuple
    plan2: tuple
    canonical_text: str


def _compose(m1: InternalMaps, m2: InternalMaps) -> InternalMaps:
    """Maps d1 -> d2 given both canonicalizations land on the same diagram."""
    def comp(a, b):
        inv = {v: k for k, v in b}
        return tuple(sorted((k, inv[v]) for k, v in a))

    return InternalMaps(comp(m1.on_pieces, m2.on_pieces), comp(m1.on_pairs, m2.on_pairs),
                        comp(m1.on_circles, m2.on_circles), comp(m1.on_surfaces, m2.on_surfaces),
                        tuple(j for _, j in comp(enumerate(m1.on_sinks), enumerate(m2.on_sinks))))


def _replay(d: Diagram, moves) -> Diagram:
    for pid, mv in moves:
        p = d.piece(pid)
        d = with_tangle(d, pid, apply_rmove(p.tangle, mv, p.wall_points()))
    return d


def isomorphic(d1: Diagram, d2: Diagram, allow_mirror: bool = False) -> Verdict:
    """Decide diagram equivalence (semi-decision).

    No needs a separating invariant on every allowed side: d2, and with
    allow_mirror its mirror too.  Yes carries an Isomorphism onto the first
    side that is not separated and meets d1's canonical form.  Unknown means
    the method is incomplete: greedy R1/R2 reduction with single R3 detours
    brought no unseparated side to d1's canonical form.
    """
    for d in (d1, d2):
        require_valid(d, "isomorphic needs valid diagrams")
    f1 = _fingerprint(d1)
    sides = [(d2, False)] + ([(mirror(d2), True)] if allow_mirror else [])
    seps = [_separation(f1, _fingerprint(d)) for d, _ in sides]
    if None not in seps:
        return Verdict("No", seps[0], f"separated by {seps[0]}")
    iso = _witness(d1, [side for side, sep in zip(sides, seps) if sep is None])
    if iso is not None:
        return Verdict("Yes", iso, "canonical forms coincide"
                       + (" after mirroring" if iso.mirror else ""))
    return Verdict("Unknown", None, "incomplete method: greedy R1/R2 reduction with "
                                    "single R3 detours found no common canonical form")


def _witness(d1: Diagram, targets) -> Isomorphism | None:
    """isomorphic past its checks: a witness onto the first (d2, mirrored) target."""
    r1, moves1 = simplify_diagram(d1)
    w1 = _least_walk(r1)
    for base, mirrored in targets:
        # mirror-side witnesses replay their moves on the mirrored diagram
        r2, moves2 = simplify_diagram(base)
        w2 = _least_walk(r2, stop=w1.records)
        if w2 is not None:
            return Isomorphism(_compose(w1.maps, w2.maps), mirror=mirrored,
                               moves1=tuple(moves1), moves2=tuple(moves2),
                               plan1=w1.plan, plan2=w2.plan, canonical_text=w1.text)
    return None


def _is_plan(plan, d: Diagram) -> bool:
    """Whether plan is a sequence naming every circle of d once, each with a
    direction 0 or 1 and an integer rotation, as a walk reads it."""
    return isinstance(plan, (tuple, list)) and all(
        isinstance(e, (tuple, list)) and tuple(map(type, e)) == (str, int, int) and e[1] in (0, 1)
        for e in plan) and Counter(e[0] for e in plan) == Counter(c.id for c in d.circles)


def _is_maps(m) -> bool:
    """Whether m is an InternalMaps of (id, id) pairs and integer sink numbers."""
    return isinstance(m, InternalMaps) and isinstance(m.on_sinks, tuple) \
        and set(map(type, m.on_sinks)) <= {int} and all(isinstance(on, tuple) and all(
            isinstance(e, tuple) and tuple(map(type, e)) == (str, str) for e in on)
            for on in (m.on_pieces, m.on_pairs, m.on_circles, m.on_surfaces))


def verify_isomorphism(iso: Isomorphism, d1: Diagram, d2: Diagram) -> ValidationReport:
    """Independent witness check: replay, relabel, compare, and test invariants."""
    m = iso.maps
    if not _is_maps(m):
        return ValidationReport((Finding("witness", "maps are not id pairs and sink numbers"),))
    findings: list[Finding] = []
    pc, qc, cc, fc = m.pieces(), m.pairs(), m.circles(), m.surfaces()
    for name, mapping in zip(("pieces", "pairs", "circles", "surfaces"), (pc, qc, cc, fc)):
        ids1, ids2 = ([x.id for x in getattr(d, name)] for d in (d1, d2))
        if sorted(mapping) != sorted(ids1) or sorted(mapping.values()) != sorted(ids2):
            findings.append(Finding(f"witness/{name}", "not a bijection"))
    if not sorted(m.on_sinks) == list(range(d1.sink_count)) == list(range(d2.sink_count)):
        findings.append(Finding("witness/sinks", "not a bijection"))
    if findings:
        return ValidationReport(tuple(findings))
    if d1.sink_incidence is not None and d2.sink_incidence is not None:
        column = {f.id: i for i, f in enumerate(d2.surfaces)}
        for j, row in enumerate(d1.sink_incidence):
            img = d2.sink_incidence[m.on_sinks[j]]
            if any(img[column[fc[f.id]]] != k for f, k in zip(d1.surfaces, row)):
                findings.append(Finding("witness/sinks", f"incidence of sink {j} not preserved"))
    sign = -1 if iso.mirror else 1
    for c in d1.circles:
        img = d2.circle(cc[c.id])
        if img.framing != sign * c.framing:
            findings.append(Finding("witness/circles", f"framing of {c.id} not preserved"))
    for f in d1.surfaces:
        img = d2.surface(fc[f.id])
        if img.genus != f.genus:
            findings.append(Finding("witness/surfaces", f"genus of {f.id} not preserved"))
    for q in d1.pairs:
        img = d2.pair(qc[q.id])
        if {pc[q.wall_a[0]], pc[q.wall_b[0]]} != {img.wall_a[0], img.wall_b[0]}:
            findings.append(Finding("witness/pairs", f"pair {q.id} does not map onto {img.id}"))
        if img.orientation != q.orientation:
            findings.append(Finding("witness/pairs", f"orientation flag of {q.id} not preserved"))
    try:
        r1 = _replay(d1, iso.moves1)
        r2 = _replay(mirror(d2) if iso.mirror else d2, iso.moves2)
    except Exception as e:
        findings.append(Finding("witness/moves", f"replay failed: {e}"))
        return ValidationReport(tuple(findings))
    if not (_is_plan(iso.plan1, r1) and _is_plan(iso.plan2, r2)):
        findings.append(Finding("witness", "a plan is not one start per circle"))
        return ValidationReport(tuple(findings))
    w1 = _walk_records(_Traversals(r1), iso.plan1)
    w2 = _walk_records(_Traversals(r2), iso.plan2)
    if w1.records != w2.records or w1.text != iso.canonical_text:
        findings.append(Finding("witness", "canonical texts do not match"))
    elif _compose(w1.maps, w2.maps) != m:
        findings.append(Finding("witness", "maps disagree with the traversals"))
    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# internal maps and conjugacy


def conjugate(d1: Diagram, d2: Diagram) -> Verdict:
    """Topological conjugacy of two diffeomorphism diagrams (semi-decision).

    Any conjugacy induces, on each index set, a bijection that keeps the
    unoriented colours of ``_colours`` and commutes with the internal maps (it
    carries one diagram's refinement onto the other's, rank for rank); one
    exists exactly when both maps have the same multiset of coloured cycles,
    so when one index set differs the No is exhaustive.  The canonical text
    carries all five maps, so ``isomorphic``'s Yes is a conjugacy witness;
    its search runs here without repeating the checks above.  Unknown means
    that search, greedy R1/R2 reduction with single R3 detours, fell short.

    A diagram without internal maps is refused here; any other invalid
    input, bad maps included, is refused where its linking matrix is read.
    """
    if d1.internal_maps is None or d2.internal_maps is None:
        raise DiagramError("conjugate needs diffeomorphism diagrams, with internal maps")
    sep = separating_invariant(d1, d2)
    if sep is not None:
        return Verdict("No", sep, f"underlying diagrams separated by {sep}")
    i1, i2 = d1.internal_maps, d2.internal_maps
    k1, k2 = _colours(d1), _colours(d2)

    def cycle_types(f, colours, tag):
        # the sinks share one colour
        return Counter(c for c, _ in _coloured_cycles(
            f, lambda x: colours[tag, x] if tag else 0))

    for name, tag in (("pieces", "p"), ("pairs", "q"), ("circles", "c"), ("surfaces", "f"),
                      ("sinks", None)):
        f1, f2 = (getattr(i, name)() if tag else dict(enumerate(i.on_sinks)) for i in (i1, i2))
        if cycle_types(f1, k1, tag) != cycle_types(f2, k2, tag):
            return Verdict(
                "No", f"commutation on {name}",
                f"exhaustive: no invariant-respecting bijection of the {name} "
                f"commutes with the internal maps")
    # separating_invariant validated both diagrams (linking_matrix requires it)
    iso = _witness(d1, [(d2, False)])
    if iso is not None:
        return Verdict("Yes", iso, "equivalence witness commuting with the internal maps")
    return Verdict("Unknown", None, "incomplete method: a commuting invariant-respecting "
                                    "bijection exists, but greedy R1/R2 reduction with "
                                    "single R3 detours found no realizable witness")
