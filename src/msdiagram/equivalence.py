"""Diagram isomorphism and diffeomorphism conjugacy.

Isotopy inside each piece is approximated by bounded Reidemeister reduction
followed by canonical labeling: a deterministic walk renames every id,
fixes crossing port gauges and wall point offsets, and the lexicographically
smallest serialization over the walks is the canonical form.  Equal
canonical forms certify an isomorphism; separation is only ever claimed on
genuine invariants, so Unknown is a legal outcome.

A walk begins at a start (circle, direction, first strand or visit) of
least rank, ranked by circle colour and a trace of crossings and wall hops.
Every other circle starts where the walk first meets it: at a crossing,
entering one port counterclockwise of the walker; at a new wall, leaving it,
in cyclic order from the walker's point; under a circle map, as the image of
a walked circle.  Input order plays one part: a walk that meets no new circle
goes on with the least-ranked start left, ties broken by circle id.

Two walks with equal texts reveal an automorphism of the diagram, and a tied
start that an automorphism maps onto a walked one would give the same text,
so it is skipped: the tied starts are walked once per orbit of the
automorphisms found so far.  Pruning is off, and every tied start is walked,
when a walk is not a function of its start alone: when a walk breaks a tie by
circle id, when the diagram has internal maps (a mapped circle starts at its
least start, ties broken by rotation number), and when an automorphism maps a
tied start outside the tied starts.  The first start of least text is never
skipped, so the key and the witness plans are those of walking every start.

Orientation-reversing piece homeomorphisms (mirror images) are searched only
when asked: framings and crossing signs flip under them, and the default
comparison treats, say, the +1- and the -1-framed unknot as different.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .core import (
    Diagram,
    DiagramError,
    FramingParallel,
    Finding,
    GluedCircle,
    InternalMaps,
    Kind,
    Piece,
    SpherePair,
    SphereWall,
    SpanningSurface,
    ValidationReport,
    Verdict,
    WallCurve,
    circle_crossing_sums,
    endpoint_usage,
    handle_counts,
    linking_from_sums,
    require_valid,
    simplify_diagram,
    validate,
    wall_of_pair,
    with_tangle,
)
from .format import natural_key, serialize
from .invariants import det, linking_matrix, rank, signature, smith_normal_form
from .tangle import Strand, apply_rmove, crossing_passages, crossing_sign

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


def _reverse_strand(s: Strand) -> Strand:
    return Strand(s.id,
                  visits=tuple((c, (p + 2) % 4) for c, p in reversed(s.visits)),
                  start=s.end, end=s.start)


def _effective_cycle(d: Diagram, cid: str, direction: int, rot: int):
    """The circle's strands in traversal order after direction/start choices."""
    c = d.circle(cid)
    strands = [(pid, d.piece(pid).tangle.strand(sid)) for pid, sid in c.strand_cycle]
    single_closed = len(strands) == 1 and strands[0][1].closed
    if direction:
        strands = [(pid, _reverse_strand(s)) for pid, s in reversed(strands)]
    if single_closed:
        pid, s = strands[0]
        v = s.visits
        if v:
            r = rot % len(v)
            strands = [(pid, replace(s, visits=v[r:] + v[:r]))]
    else:
        r = rot % len(strands)
        strands = strands[r:] + strands[:r]
    return strands


def _circle_keys(d: Diagram) -> dict[str, tuple]:
    """Isotopy-invariant circle colours: framing and strand count, refined
    once by the absolute linking numbers with the other circles' colours."""
    sums = circle_crossing_sums(d, [c.id for c in d.circles])
    base = {c.id: (c.framing, len(c.strand_cycle)) for c in d.circles}
    return {c.id: (base[c.id], tuple(sorted(
        (abs(linking_from_sums(sums, c.id, o.id)), base[o.id])
        for o in d.circles if o.id != c.id))) for c in d.circles}


def _rotation_count(d: Diagram, cid: str) -> int:
    c = d.circle(cid)
    if len(c.strand_cycle) == 1:
        pid, sid = c.strand_cycle[0]
        s = d.piece(pid).tangle.strand(sid)
        if s.closed:
            return max(len(s.visits), 1)
    return len(c.strand_cycle)


def _local_signature(d: Diagram, keys, member, cid, direction):
    """Cheap invariant trace of a circle's start at rotation 0, used to rank
    the starts: one step per strand, in traversal order."""
    out = []
    for pid, s in _effective_cycle(d, cid, direction, 0):
        code = d.piece(pid).tangle
        step = [len(s.visits)]
        for x, p in s.visits:
            over_here = (code.crossing(x).over == 1) == (p % 2 == 0)
            even, odd = crossing_passages(code, x)
            partner = odd if p % 2 == 0 else even
            step.append((over_here, crossing_sign(code, x),
                         keys[member[pid, partner[0]]],
                         member[pid, partner[0]] == cid))
        if s.end is not None:
            q = wall_of_pair(d, (pid, s.end[0]))
            other = q.wall_b if q.wall_a == (pid, s.end[0]) else q.wall_a
            step.append(("hop", q.orientation, d.piece(pid).wall(s.end[0]).points,
                         q.wall_a == (pid, s.end[0]),
                         tuple(sorted(w.points for w in d.piece(other[0]).walls))))
        out.append(tuple(step))
    return tuple(out)


def _rotations(trace, n):
    """The traces of a circle's n rotations, from the trace of rotation 0:
    rotate the strand steps, or the visit steps of a single closed strand
    (the one case with fewer steps than rotations)."""
    if len(trace) == n:
        return [trace[r:] + trace[:r] for r in range(n)]
    (count, *steps), = trace
    return [((count, *steps[r:], *steps[:r]),) for r in range(n)]


def _planner(d: Diagram):
    """The tied starts (circle, direction, rotation) of least rank, in order,
    and the walk that turns one into a plan ((circle, direction, rotation),
    ...); the module docstring gives the walk's rules.  The walk returns
    (plan, fell_back), fell_back saying whether it broke a tie by circle id."""
    keys = _circle_keys(d)
    member = {tuple(e): c.id for c in d.circles for e in c.strand_cycle}
    ends = endpoint_usage(d)
    rank = {}
    for c in d.circles:
        for dr in (0, 1):
            trace = _local_signature(d, keys, member, c.id, dr)
            for rt, t in enumerate(_rotations(trace, _rotation_count(d, c.id))):
                rank[c.id, dr, rt] = (keys[c.id], t)
    order = sorted(rank, key=lambda s: (rank[s], s))
    best = {s[0]: s for s in reversed(order)}
    images = d.internal_maps.circles() if d.internal_maps is not None else {}

    def discover(first):
        plan, planned, touched, entered = [first], {first[0]}, set(), {}
        fell_back = False

        def meet(pid, sid, visit, forward):
            cid = member[pid, sid]
            if cid not in planned:
                planned.add(cid)
                cycle = d.circle(cid).strand_cycle
                if len(cycle) == 1 and d.piece(pid).tangle.strand(sid).closed:
                    n, i = _rotation_count(d, cid), visit
                else:
                    n, i = len(cycle), cycle.index((pid, sid))
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
                fell_back = True
                plan.append(min((s for s in order if s[0] not in planned), key=lambda s: (
                    rank[s], min(entered.get(p, len(entered)) for p, _ in
                                 d.circle(s[0]).strand_cycle), s)))
                planned.add(plan[-1][0])
            for pid, s in _effective_cycle(d, *plan[i]):
                entered.setdefault(pid, len(entered))
                if s.start is not None:
                    touch(pid, s.start)
                for x, p in s.visits:
                    if len(plan) == len(d.circles):
                        return tuple(plan), fell_back
                    # the other passage, entering one port counterclockwise
                    even, odd = crossing_passages(d.piece(pid).tangle, x)
                    sid, visit, port = odd if p % 2 == 0 else even
                    meet(pid, sid, visit, port == (p + 1) % 4)
                if s.end is not None:
                    touch(pid, s.end)
            if images.get(plan[i][0], plan[i][0]) not in planned:
                planned.add(images[plan[i][0]])
                plan.append(best[images[plan[i][0]]])
            i += 1
        return tuple(plan), fell_back

    return [s for s in order if rank[s] == rank[order[0]]], discover


def _plans(d: Diagram):
    """Iterate traversal plans, one per least-ranked start."""
    firsts, discover = _planner(d)
    yield from (discover(f)[0] for f in firsts) if firsts else [()]


def _start_image(d: Diagram, plan1, plan2):
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
        n = _rotation_count(d, start[0])
        (u, s), (u1, s1), (u2, s2) = (first_unit(x, n) for x in (start, e1, e2))
        u = (u2 + s2 * s1 * (u - u1)) % n
        return (e2[0], 0, u) if s * s1 * s2 == 1 else (e2[0], 1, n - 1 - u)

    return image


@dataclass(frozen=True)
class CanonicalMaps:
    pieces: tuple[tuple[str, str], ...]
    pairs: tuple[tuple[str, str], ...]
    circles: tuple[tuple[str, str], ...]
    surfaces: tuple[tuple[str, str], ...]


def _walk(d: Diagram, plan) -> tuple[Diagram, CanonicalMaps]:
    """Deterministically relabel the diagram along one traversal plan."""
    pmap: dict[str, str] = {}
    wmap: dict[tuple[str, str], str] = {}
    woff: dict[tuple[str, str], int] = {}
    qmap: dict[str, str] = {}
    cmap: dict[str, str] = {}
    smap: dict[tuple[str, str], str] = {}
    xmap: dict[tuple[str, str], str] = {}
    xrot: dict[tuple[str, str], int] = {}
    new_strands: dict[str, list[Strand]] = {}
    new_cycles: dict[str, list[tuple[str, str]]] = {}

    def touch_piece(pid):
        if pid not in pmap:
            pmap[pid] = f"p{len(pmap) + 1}"

    def touch_wall(pid, wid, point):
        if (pid, wid) not in wmap:
            wmap[pid, wid] = f"w{len(wmap) + 1}"
            woff[pid, wid] = point
        q = wall_of_pair(d, (pid, wid))
        if q is not None and q.id not in qmap:
            qmap[q.id] = f"q{len(qmap) + 1}"

    for cid, direction, rot in plan:
        cmap[cid] = f"c{len(cmap) + 1}"
        cycle = []
        for pid, s in _effective_cycle(d, cid, direction, rot):
            touch_piece(pid)
            sid_new = f"s{len(smap) + 1}"
            smap[pid, s.id] = sid_new
            if s.start is not None:
                touch_wall(pid, s.start[0], s.start[1])
            for x, p in s.visits:
                if (pid, x) not in xmap:
                    xmap[pid, x] = f"x{len(xmap) + 1}"
                    xrot[pid, x] = p
            if s.end is not None:
                touch_wall(pid, s.end[0], s.end[1])
            new_strands.setdefault(pid, []).append(s)
            cycle.append((pid, s.id))
        new_cycles[cid] = cycle

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

    for pid in sorted(pmap, key=lambda x: natural_key(pmap[x])):
        for wid in sorted((w.id for w in d.piece(pid).walls if (pid, w.id) not in wmap),
                          key=lambda x: (bare_wall_key(pid, x), natural_key(x))):
            wmap[pid, wid] = f"w{len(wmap) + 1}"
            woff[pid, wid] = 0
            q = wall_of_pair(d, (pid, wid))
            if q is not None and q.id not in qmap:
                qmap[q.id] = f"q{len(qmap) + 1}"

    # rebuild pieces
    def new_point(pid, pt):
        if pt is None:
            return None
        k = d.piece(pid).wall(pt[0]).points
        off = woff[pid, pt[0]]
        return (wmap[pid, pt[0]], (pt[1] - off) % k if k else 0)

    pieces = []
    for pid in sorted(pmap, key=lambda x: natural_key(pmap[x])):
        p = d.piece(pid)
        walls = tuple(
            SphereWall(wmap[pid, w.id], w.points)
            for w in sorted(p.walls, key=lambda w: natural_key(wmap[pid, w.id])))
        crossings = []
        for c in sorted(p.tangle.crossings, key=lambda c: natural_key(xmap[pid, c.id])):
            over = c.over if xrot[pid, c.id] % 2 == 0 else (3 - c.over)
            crossings.append(replace(c, id=xmap[pid, c.id], over=over))
        strands = []
        for s in new_strands.get(pid, []):
            visits = tuple(
                (xmap[pid, x], (q - xrot[pid, x]) % 4) for x, q in s.visits)
            strands.append(Strand(smap[pid, s.id], visits,
                                  new_point(pid, s.start), new_point(pid, s.end)))
        strands.sort(key=lambda s: natural_key(s.id))
        pieces.append(Piece(pmap[pid], replace(p.tangle, crossings=tuple(crossings),
                                               strands=tuple(strands)), walls))

    def new_pair(q: SpherePair) -> SpherePair:
        ka = len(q.matching)
        offa = woff[q.wall_a]
        offb = woff[q.wall_b]
        matching = [0] * ka
        for i, j in enumerate(q.matching):
            matching[(i - offa) % ka] = (j - offb) % ka
        return SpherePair(qmap[q.id],
                          (pmap[q.wall_a[0]], wmap[q.wall_a]),
                          (pmap[q.wall_b[0]], wmap[q.wall_b]),
                          tuple(matching), q.orientation)

    pairs = tuple(sorted((new_pair(q) for q in d.pairs),
                         key=lambda q: natural_key(q.id)))
    circles = tuple(sorted(
        (GluedCircle(cmap[c.id],
                     tuple((pmap[p], smap[p, s]) for p, s in new_cycles[c.id]),
                     c.framing)
         for c in d.circles), key=lambda c: natural_key(c.id)))

    def new_item(item):
        if isinstance(item, FramingParallel):
            return FramingParallel(cmap[item.circle], item.sign)
        return WallCurve(qmap[item.pair], item.index)

    def item_key(item):
        if isinstance(item, FramingParallel):
            return (0, natural_key(item.circle), item.sign)
        return (1, natural_key(item.pair), item.index)

    renamed_surfaces = []
    for f in d.surfaces:
        boundary = tuple(sorted((new_item(i) for i in f.boundary), key=item_key))
        renamed_surfaces.append((f.genus, boundary, f.id))
    renamed_surfaces.sort(key=lambda t: (t[0], tuple(map(item_key, t[1]))))
    fmap = {}
    surfaces = []
    surface_order = []
    for genus, boundary, old in renamed_surfaces:
        fmap[old] = f"f{len(fmap) + 1}"
        surface_order.append(old)
        surfaces.append(SpanningSurface(fmap[old], genus, boundary))

    maps = d.internal_maps
    if maps is not None:
        maps = InternalMaps(
            on_pieces=tuple(sorted((pmap[a], pmap[b]) for a, b in maps.on_pieces)),
            on_pairs=tuple(sorted((qmap[a], qmap[b]) for a, b in maps.on_pairs)),
            on_circles=tuple(sorted((cmap[a], cmap[b]) for a, b in maps.on_circles)),
            on_surfaces=tuple(sorted((fmap[a], fmap[b]) for a, b in maps.on_surfaces)),
            on_sinks=maps.on_sinks)
    incidence = d.sink_incidence
    if incidence is not None:
        old_order = [f.id for f in d.surfaces]
        cols = [old_order.index(fid) for fid in surface_order]
        incidence = tuple(tuple(row[j] for j in cols) for row in incidence)
    ann = d.annotation
    if ann is not None:
        ann = replace(ann, dotted=tuple(sorted((cmap[c] for c in ann.dotted),
                                               key=natural_key)))
    out = Diagram(pieces=tuple(pieces), pairs=pairs, circles=circles,
                  surfaces=tuple(surfaces), sink_count=d.sink_count,
                  internal_maps=maps, kind=d.kind, sink_incidence=incidence,
                  annotation=ann)
    cm = CanonicalMaps(
        pieces=tuple(sorted(pmap.items())),
        pairs=tuple(sorted(qmap.items())),
        circles=tuple(sorted(cmap.items())),
        surfaces=tuple(sorted(fmap.items())))
    return out, cm


def canonical_variants(d: Diagram):
    """All traversal results as (serialized text, diagram, maps, plan)."""
    out = []
    for plan in _plans(d):
        cand, maps = _walk(d, plan)
        out.append((serialize(cand), cand, maps, plan))
    return out


def _least_walk(d: Diagram):
    """The variant of least text, the first such in plan order as
    ``min(canonical_variants(d))`` picks it, walking each orbit of tied
    starts once where the module docstring allows it."""
    firsts, discover = _planner(d)
    if not firsts:
        return canonical_variants(d)[0]
    at = {f: i for i, f in enumerate(firsts)}
    parent = list(range(len(firsts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    walked = {}      # position in firsts -> variant
    first_plan = {}  # text -> plan of its first walk

    def variant(i):
        plan, fell_back = discover(firsts[i])
        cand, maps = _walk(d, plan)
        walked[i] = (serialize(cand), cand, maps, plan)
        return fell_back

    def learn(i):
        # union every tied start with its image; False if one falls outside
        text, plan = walked[i][0], walked[i][3]
        if text not in first_plan:
            first_plan[text] = plan
            return True
        image = _start_image(d, first_plan[text], plan)
        for f in firsts:
            g = image(f)
            if g not in at:
                return False
            parent[find(at[f])] = find(at[g])
        return True

    prune = d.internal_maps is None
    for i in range(len(firsts)):
        if prune and any(find(j) == find(i) for j in walked):
            continue
        fell_back = variant(i)
        if prune and (fell_back or not learn(i)):
            prune = False
            for j in range(i):
                if j not in walked:
                    variant(j)
    return walked[min(walked, key=lambda i: (walked[i][0], i))]


@lru_cache(maxsize=4096)
def canonical_key(d: Diagram) -> str:
    """Serialized canonical form; equal keys certify isomorphic diagrams."""
    return _least_walk(d)[0]


# ---------------------------------------------------------------------------
# separating invariants


def _congruence_invariants(lm) -> dict:
    m = lm.as_list()
    n = len(m)
    return {
        "size": n,
        "rank": rank(m) if n else 0,
        "det": det(m),
        "even": all(m[i][i] % 2 == 0 for i in range(n)),
        "signature": signature(m),
        "divisors": tuple(smith_normal_form(m)),
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


def separating_invariant(d1: Diagram, d2: Diagram) -> str | None:
    """Name of an isomorphism invariant telling the diagrams apart, if any."""
    f1, f2 = _fingerprint(d1), _fingerprint(d2)
    for name in f1:
        if f1[name] != f2[name]:
            return name
    return None


# ---------------------------------------------------------------------------
# isomorphism


@dataclass(frozen=True)
class Isomorphism:
    """A checkable equivalence witness.

    The index-set maps send d1 ids to d2 ids.  moves1/moves2 are per-piece
    Reidemeister logs bringing each side to a common reduced form; the two
    traversal plans then relabel both reduced forms onto the very same
    canonical diagram (its text is stored for re-verification).
    """

    piece_map: tuple[tuple[str, str], ...]
    pair_map: tuple[tuple[str, str], ...]
    circle_map: tuple[tuple[str, str], ...]
    surface_map: tuple[tuple[str, str], ...]
    sink_map: tuple[int, ...]
    mirror: bool
    moves1: tuple
    moves2: tuple
    plan1: tuple
    plan2: tuple
    canonical_text: str

    def pieces(self):
        return dict(self.piece_map)

    def circles(self):
        return dict(self.circle_map)

    def pairs(self):
        return dict(self.pair_map)

    def surfaces(self):
        return dict(self.surface_map)


def _compose(m1: CanonicalMaps, m2: CanonicalMaps):
    """Maps d1 -> d2 given both canonicalizations land on the same diagram."""
    def comp(a, b):
        inv = {v: k for k, v in b}
        return tuple(sorted((k, inv[v]) for k, v in a))

    return (comp(m1.pieces, m2.pieces), comp(m1.pairs, m2.pairs),
            comp(m1.circles, m2.circles), comp(m1.surfaces, m2.surfaces))


def _replay(d: Diagram, moves) -> Diagram:
    for pid, mv in moves:
        p = d.piece(pid)
        d = with_tangle(d, pid, apply_rmove(p.tangle, mv, p.wall_points()))
    return d


def isomorphic(d1: Diagram, d2: Diagram, budget: int = 2000,
               allow_mirror: bool = False) -> Verdict:
    """Decide diagram equivalence; Unknown is legal on budget exhaustion."""
    for d in (d1, d2):
        require_valid(d, "isomorphic needs valid diagrams")
    sep = separating_invariant(d1, d2)
    mirror_sep = separating_invariant(d1, mirror(d2)) if allow_mirror else "disabled"
    if sep is not None and mirror_sep is not None:
        return Verdict.make_no(sep, f"separated by {sep}")

    targets = []
    if sep is None:
        targets.append((d2, False))
    if allow_mirror and mirror_sep is None:
        targets.append((mirror(d2), True))
    r1, moves1 = simplify_diagram(d1, budget)
    best1 = _least_walk(r1)
    for base, mirrored in targets:
        # mirror-side witnesses replay their moves on the mirrored diagram
        r2, moves2 = simplify_diagram(base, budget)
        best2 = _least_walk(r2)
        if best1[0] == best2[0]:
            maps = _compose(best1[2], best2[2])
            iso = Isomorphism(*maps, sink_map=tuple(range(d1.sink_count)),
                              mirror=mirrored, moves1=tuple(moves1),
                              moves2=tuple(moves2), plan1=best1[3], plan2=best2[3],
                              canonical_text=best1[0])
            return Verdict.make_yes(iso, "canonical forms coincide"
                                    + (" after mirroring" if mirrored else ""))
    if sep is not None:
        return Verdict.make_no(sep, f"separated by {sep}")
    return Verdict.make_unknown(budget, "no witness within the Reidemeister budget")


def verify_isomorphism(iso: Isomorphism, d1: Diagram, d2: Diagram) -> ValidationReport:
    """Independent witness check: replay, relabel, compare, and test invariants."""
    findings: list[Finding] = []
    for name, mapping, ids1, ids2 in (
        ("pieces", iso.pieces(), [p.id for p in d1.pieces], [p.id for p in d2.pieces]),
        ("pairs", iso.pairs(), [q.id for q in d1.pairs], [q.id for q in d2.pairs]),
        ("circles", iso.circles(), [c.id for c in d1.circles], [c.id for c in d2.circles]),
        ("surfaces", iso.surfaces(), [f.id for f in d1.surfaces], [f.id for f in d2.surfaces]),
    ):
        if sorted(mapping) != sorted(ids1) or sorted(mapping.values()) != sorted(ids2):
            findings.append(Finding("error", f"witness/{name}", "not a bijection"))
    if not sorted(iso.sink_map) == list(range(d1.sink_count)) == list(range(d2.sink_count)):
        findings.append(Finding("error", "witness/sinks", "not a bijection"))
    if findings:
        return ValidationReport(tuple(findings))
    if d1.sink_incidence is not None and d2.sink_incidence is not None:
        column = {f.id: i for i, f in enumerate(d2.surfaces)}
        fmap = iso.surfaces()
        for j, row in enumerate(d1.sink_incidence):
            img = d2.sink_incidence[iso.sink_map[j]]
            if any(img[column[fmap[f.id]]] != m for f, m in zip(d1.surfaces, row)):
                findings.append(Finding("error", "witness/sinks",
                                        f"incidence of sink {j} not preserved"))
    sign = -1 if iso.mirror else 1
    for c in d1.circles:
        img = d2.circle(iso.circles()[c.id])
        if img.framing != sign * c.framing:
            findings.append(Finding("error", "witness/circles",
                                    f"framing of {c.id} not preserved"))
    for f in d1.surfaces:
        img = d2.surface(iso.surfaces()[f.id])
        if img.genus != f.genus:
            findings.append(Finding("error", "witness/surfaces",
                                    f"genus of {f.id} not preserved"))
    pc = iso.pieces()
    for q in d1.pairs:
        img = d2.pair(iso.pairs()[q.id])
        if {pc[q.wall_a[0]], pc[q.wall_b[0]]} != {img.wall_a[0], img.wall_b[0]}:
            findings.append(Finding("error", "witness/pairs",
                                    f"pair {q.id} does not map onto {img.id}"))
        if img.orientation != q.orientation:
            findings.append(Finding("error", "witness/pairs",
                                    f"orientation flag of {q.id} not preserved"))
    try:
        r1 = _replay(d1, iso.moves1)
        r2 = _replay(mirror(d2) if iso.mirror else d2, iso.moves2)
    except Exception as e:
        findings.append(Finding("error", "witness/moves", f"replay failed: {e}"))
        return ValidationReport(tuple(findings))
    c1, m1 = _walk(r1, iso.plan1)
    c2, m2 = _walk(r2, iso.plan2)
    if serialize(c1) != iso.canonical_text or serialize(c2) != iso.canonical_text:
        findings.append(Finding("error", "witness", "canonical texts do not match"))
    else:
        composed = _compose(m1, m2)
        stored = (iso.piece_map, iso.pair_map, iso.circle_map, iso.surface_map)
        if composed != stored:
            findings.append(Finding("error", "witness", "maps disagree with the traversals"))
    return ValidationReport(tuple(findings))


def enumerate_isomorphisms(d1: Diagram, d2: Diagram, budget: int = 2000):
    """All relabeling isomorphisms between the reduced forms, deduplicated
    by their induced index-set maps."""
    r1, moves1 = simplify_diagram(d1, budget)
    r2, moves2 = simplify_diagram(d2, budget)
    v1 = canonical_variants(r1)
    v2 = canonical_variants(r2)
    by_text: dict[str, list] = {}
    for text, _, maps, plan in v2:
        by_text.setdefault(text, []).append((maps, plan))
    seen = set()
    out = []
    for text, _, maps1, plan1 in v1:
        for maps2, plan2 in by_text.get(text, []):
            composed = _compose(maps1, maps2)
            if composed in seen:
                continue
            seen.add(composed)
            out.append(Isomorphism(*composed, sink_map=tuple(range(d1.sink_count)),
                                   mirror=False, moves1=tuple(moves1),
                                   moves2=tuple(moves2), plan1=plan1, plan2=plan2,
                                   canonical_text=text))
    return out


# ---------------------------------------------------------------------------
# internal maps and conjugacy


def verify_internal_maps(d: Diagram) -> ValidationReport:
    """Structure checks for the five internal maps of a diffeomorphism diagram."""
    if d.kind != Kind.DIFFEOMORPHISM:
        return ValidationReport((Finding("error", "diagram",
                                         "internal maps belong to diffeomorphism diagrams"),))
    report = validate(d)
    findings = tuple(f for f in report.findings if f.location.startswith("internal maps")
                     or f.location == "diagram")
    return ValidationReport(findings)


def _conjugator(f1: dict, f2: dict, key1, key2) -> dict | None:
    """A colour-keeping bijection phi with f2(phi(x)) == phi(f1(x)), or None.

    One exists exactly when f1 and f2 have the same multiset of coloured
    cycles, a cycle's colour being its sequence of keys up to rotation; phi
    pairs such cycles and lines up their least rotations.
    """
    if len(f1) != len(f2):
        return None

    def coloured(f, key):
        seen: set = set()
        for x in f:
            cycle = []
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = f[x]
            if cycle:
                keys = [key(y) for y in cycle]
                r = min(range(len(keys)), key=lambda i: keys[i:] + keys[:i])
                yield tuple(keys[r:] + keys[:r]), cycle[r:] + cycle[:r]

    pool: dict = {}
    for colour, cycle in coloured(f2, key2):
        pool.setdefault(colour, []).append(cycle)
    phi = {}
    for colour, cycle in coloured(f1, key1):
        if not pool.get(colour):
            return None
        phi.update(zip(cycle, pool[colour].pop()))
    return phi


def conjugate(d1: Diagram, d2: Diagram, budget: int = 2000) -> Verdict:
    """Topological conjugacy of two diffeomorphism diagrams (semi-decision).

    Any conjugacy induces, on each index set, a bijection that keeps the
    invariant keys below and commutes with the internal maps; when one index
    set has none the No is exhaustive.  Yes needs a realizable equivalence
    witness whose five maps commute.
    """
    for d in (d1, d2):
        if not verify_internal_maps(d).ok:
            raise DiagramError("conjugate needs diffeomorphism diagrams with "
                               "valid internal maps")
    sep = separating_invariant(d1, d2)
    if sep is not None:
        return Verdict.make_no(sep, f"underlying diagrams separated by {sep}")
    i1, i2 = d1.internal_maps, d2.internal_maps
    k1, k2 = _circle_keys(d1), _circle_keys(d2)

    def piece_key(d):
        return lambda p: (len(d.piece(p).walls), len(d.piece(p).tangle.strands))

    def pair_key(d):
        return lambda q: (len(d.pair(q).matching), d.pair(q).orientation)

    def surface_key(d):
        return lambda f: (d.surface(f).genus, len(d.surface(f).boundary))

    index_sets = (
        ("pieces", i1.pieces(), i2.pieces(), piece_key(d1), piece_key(d2)),
        ("pairs", i1.pairs(), i2.pairs(), pair_key(d1), pair_key(d2)),
        ("circles", i1.circles(), i2.circles(), k1.__getitem__, k2.__getitem__),
        ("surfaces", i1.surfaces(), i2.surfaces(), surface_key(d1), surface_key(d2)),
        ("sinks", dict(enumerate(i1.on_sinks)), dict(enumerate(i2.on_sinks)),
         lambda i: 0, lambda i: 0),
    )
    for name, f1, f2, key1, key2 in index_sets:
        if _conjugator(f1, f2, key1, key2) is None:
            return Verdict.make_no(
                f"commutation on {name}",
                f"exhaustive: no invariant-respecting bijection of the {name} "
                f"commutes with the internal maps")
    for iso in enumerate_isomorphisms(d1, d2, budget):
        maps = (iso.pieces(), iso.pairs(), iso.circles(), iso.surfaces(),
                dict(enumerate(iso.sink_map)))
        if all(f2[m[a]] == m[b]
               for m, (_, f1, f2, _, _) in zip(maps, index_sets)
               for a, b in f1.items()):
            return Verdict.make_yes(iso, "equivalence witness commuting with the internal maps")
    return Verdict.make_unknown(budget, "a commuting invariant-respecting bijection exists "
                                        "but no realizable witness was found")
