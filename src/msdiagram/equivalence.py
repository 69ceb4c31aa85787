"""Diagram isomorphism and diffeomorphism conjugacy.

Isotopy inside each piece is approximated by bounded Reidemeister reduction
followed by canonical labeling: a deterministic traversal renames every id,
fixes crossing port gauges and wall point offsets, and the lexicographically
smallest serialization over the traversal choices (circle order, directions,
starting points) is the canonical form.  Equal canonical forms certify an
isomorphism; separation is only ever claimed on genuine invariants, so
Unknown is a legal outcome.

Orientation-reversing piece homeomorphisms (mirror images) are searched only
when asked: framings and crossing signs flip under them, and the default
comparison treats, say, the +1- and the -1-framed unknot as different.
"""

from __future__ import annotations

import itertools
import math
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
from .tangle import Strand, crossing_passages, crossing_sign

_OPTION_CAP = 64     # per-diagram cap on (direction, rotation) combinations
_ORDER_CAP = 24      # cap on same-key circle order permutations


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
    """Relabeling-invariant circle keys, refined once through linking data."""
    sums = circle_crossing_sums(d, [c.id for c in d.circles])
    base = {}
    for c in d.circles:
        visits = sum(len(d.piece(p).tangle.strand(s).visits) for p, s in c.strand_cycle)
        base[c.id] = (c.framing, len(c.strand_cycle), visits, sums.get((c.id, c.id), 0))
    refined = {}
    for c in d.circles:
        links = sorted(
            (abs(linking_from_sums(sums, c.id, o.id)), base[o.id])
            for o in d.circles if o.id != c.id)
        refined[c.id] = (base[c.id], tuple(links))
    return refined


def _rotation_count(d: Diagram, cid: str) -> int:
    c = d.circle(cid)
    if len(c.strand_cycle) == 1:
        pid, sid = c.strand_cycle[0]
        s = d.piece(pid).tangle.strand(sid)
        if s.closed:
            return max(len(s.visits), 1)
    return len(c.strand_cycle)


def _local_signature(d: Diagram, keys, cid, direction, rot):
    """Cheap invariant trace of one traversal choice, used to anchor options."""
    member = {}
    for c in d.circles:
        for e in c.strand_cycle:
            member[tuple(e)] = c.id
    out = []
    for pid, s in _effective_cycle(d, cid, direction, rot):
        code = d.piece(pid).tangle
        step = [len(s.visits)]
        for x, p in s.visits:
            over_here = (code.crossing(x).over == 1) == (p % 2 == 0)
            even, odd = crossing_passages(code, x)
            partner = odd if p % 2 == 0 else even
            step.append((over_here, crossing_sign(code, x),
                         keys[member[(pid, partner[0])]],
                         member[(pid, partner[0])] == cid))
        if s.end is not None:
            q = wall_of_pair(d, (pid, s.end[0]))
            step.append(("hop", q.orientation, d.piece(pid).wall(s.end[0]).points))
        out.append(tuple(step))
    return tuple(out)


def _circle_options(d: Diagram, keys, cid: str) -> list[tuple[int, int]]:
    """(direction, rotation) choices achieving the minimal local signature."""
    rots = _rotation_count(d, cid)
    best = None
    opts = []
    for direction in (0, 1):
        for rot in range(rots):
            sig = _local_signature(d, keys, cid, direction, rot)
            if best is None or sig < best:
                best = sig
                opts = [(direction, rot)]
            elif sig == best:
                opts.append((direction, rot))
    return opts


def _plans(d: Diagram):
    """Iterate traversal plans: ((circle, direction, rotation), ...)."""
    keys = _circle_keys(d)
    ids = sorted((keys[c.id], c.id) for c in d.circles)
    groups: list[list[str]] = []
    for key, cid in ids:
        if groups and keys[groups[-1][0]] == key:
            groups[-1].append(cid)
        else:
            groups.append([cid])
    options = {c.id: _circle_options(d, keys, c.id) for c in d.circles}
    # cap the option product, trimming the longest lists first
    while True:
        prod = 1
        for v in options.values():
            prod *= len(v)
        if prod <= _OPTION_CAP or not options:
            break
        longest = max(options, key=lambda k: len(options[k]))
        if len(options[longest]) == 1:
            break
        options[longest] = options[longest][: (len(options[longest]) + 1) // 2]

    def orderings():
        if math.prod(math.factorial(len(g)) for g in groups) > _ORDER_CAP:
            perms_per_group = [[tuple(g)] for g in groups]
        else:
            perms_per_group = [list(itertools.permutations(g)) for g in groups]
        for combo in itertools.product(*perms_per_group):
            yield [cid for g in combo for cid in g]

    for order in orderings():
        pools = [[(cid, dr, rt) for dr, rt in options[cid]] for cid in order]
        for plan in itertools.product(*pools):
            yield plan


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
        p = d.piece(pid)
        ks = []
        for w in p.walls:
            q = wall_of_pair(d, (pid, w.id))
            other = q.wall_a if q.wall_b == (pid, w.id) else q.wall_b
            ks.append((w.points, q.orientation, pmap.get(other[0], "?"), other[0] == pid))
        return tuple(sorted(ks))

    for pid in sorted((p.id for p in d.pieces if p.id not in pmap),
                      key=lambda x: (bare_piece_key(x), natural_key(x))):
        touch_piece(pid)

    def bare_wall_key(pid, wid):
        q = wall_of_pair(d, (pid, wid))
        other = q.wall_a if q.wall_b == (pid, wid) else q.wall_b
        return (d.piece(pid).wall(wid).points, q.orientation,
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


def canonical_form(d: Diagram) -> tuple[Diagram, CanonicalMaps]:
    """The canonical representative and the maps old id -> canonical id."""
    variants = canonical_variants(d)
    text, cand, maps, _ = min(variants, key=lambda v: v[0])
    return cand, maps


@lru_cache(maxsize=4096)
def canonical_key(d: Diagram) -> str:
    """Serialized canonical form; equal keys certify isomorphic diagrams."""
    return min(v[0] for v in canonical_variants(d))


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
    from .tangle import apply_rmove

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
    best1 = min(canonical_variants(r1), key=lambda v: v[0])
    for base, mirrored in targets:
        # mirror-side witnesses replay their moves on the mirrored diagram
        r2, moves2 = simplify_diagram(base, budget)
        best2 = min(canonical_variants(r2), key=lambda v: v[0])
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
