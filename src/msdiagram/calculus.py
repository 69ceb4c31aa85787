"""Kirby-calculus moves on diagrams and the bounded 3-sphere recognizer.

Moves are pure functions returning new diagrams.  Sites are validated, never
inferred; a blow-down that cannot bring its circle into normal position
refuses loudly instead of guessing.  The recognizer is a semi-decision:
iterative deepening over blow-downs, handle slides and blow-ups with a
transposition table keyed by canonical codes, plus the determinant
obstruction for definite No answers.
"""

from __future__ import annotations

from .core import (
    Diagram,
    DiagramError,
    FramingParallel,
    GluedCircle,
    KirbyMove,
    Verdict,
    circle_crossing_sums,
    closed_strand,
    linking_from_sums,
    require_valid,
    with_tangle,
)
from .equivalence import canonical_key
from .format import _MOVE_FIELDS
from .invariants import det, linking_matrix
from .reduction import _replace_pairs, delete_superfluous, merge_pieces
from .tangle import (
    Crossing,
    MoveError,
    Strand,
    TangleCode,
    _shared_face,
    arc_gap,
    braid,
    crossing_sign,
    dart_table,
    fresh_ids,
    is_over,
    other_passage,
    replace,
    simplify_with_log,
    splice,
)


class RefusalError(MoveError):
    """The move's preconditions could not be certified: its site does not
    take the form the move needs, as greedy Reidemeister reduction leaves it."""


BandSite = tuple  # (piece, (strand1, arc1), (strand2, arc2), orient)

SLIDE_CAP = 6  # handle slides the recognizer tries per diagram


# ---------------------------------------------------------------------------
# blow-up


def _no_internal_maps(d: Diagram) -> None:
    """Refuse a diffeomorphism diagram: a move would leave its maps stale."""
    if d.internal_maps is not None:
        raise MoveError("Kirby moves act on diagrams without internal maps")


def blow_up(d: Diagram, piece: str, region: int = 0, sign: int = 1) -> Diagram:
    """Add a split unknotted circle with framing +1 or -1.

    The region picks a face of the piece's planar code; a split round curve
    is isotopic across every region, so the choice only names the site.
    """
    _no_internal_maps(d)
    if sign not in (1, -1):
        raise MoveError("blow-up sign must be +1 or -1")
    p = d.piece(piece)
    if not (0 <= region < max(len(dart_table(p.tangle, p.wall_points()).faces), 1)):
        raise MoveError(f"piece {piece} has no region {region}")
    sid = next(fresh_ids({s.id for s in p.tangle.strands}, "u"))
    cid = next(fresh_ids({c.id for c in d.circles}, "c"))
    code = replace(p.tangle, strands=p.tangle.strands + (Strand(sid),))
    out = with_tangle(d, piece, code)
    return replace(out, circles=out.circles + (GluedCircle(cid, ((piece, sid),), sign),))


# ---------------------------------------------------------------------------
# blow-down


def _adjacent_gap(s: Strand, i: int, j: int):
    """The gap index between adjacent visits i and j of a strand, or None."""
    n = len(s.visits)
    for a, b in ((i, j), (j, i)):
        if a + 1 == b or (s.closed and (a + 1) % n == b):
            return (a + 1) % n
    return None


def _twist_lanes(code: TangleCode, rot: list, k: int) -> list | None:
    """The k lanes of a twist region on one rotation of a circle's crossing
    sequence, or None: its visits i and -1 - i must be a piercing pair, one
    strand's adjacent visits over and under the circle, of one sign."""
    lanes = []
    for i in range(k):
        xa, (ta, ja, qa) = rot[i]
        xb, (tb, jb, qb) = rot[-1 - i]
        gap = _adjacent_gap(code.strand(ta), ja, jb) if ta == tb else None
        if gap is None or is_over(code, xa, qa) == is_over(code, xb, qb) \
                or (sign := crossing_sign(code, xa)) != crossing_sign(code, xb):
            return None
        lanes.append((ta, frozenset({ja, jb}), gap, sign, (xa, xb)))
    return lanes


def blow_down(d: Diagram, cid: str) -> Diagram:
    """Remove a +1- or -1-framed unknot, twisting the strands through its disk.

    The circle must be recognizable after greedy Reidemeister reduction of
    its piece: one closed strand in one piece, no self-crossings, every other
    strand meeting it in direct piercing pairs arranged in a single twist
    region.
    Framings of the remaining circles drop by framing * lk^2 and the strands
    receive a compensating full twist.
    """
    _no_internal_maps(d)
    c = d.circle(cid)
    if c.framing not in (1, -1):
        raise RefusalError(f"circle {cid} has framing {c.framing}, need +1 or -1")
    if any(isinstance(i, FramingParallel) and i.circle == cid
           for f in d.surfaces for i in f.boundary):
        raise RefusalError(f"circle {cid} carries surface boundary")
    loc = closed_strand(d, cid)
    if loc is None:
        raise RefusalError(f"circle {cid} is not a closed curve inside one piece")
    pid, _ = loc
    p = d.piece(pid)
    code, _ = simplify_with_log(p.tangle, p.wall_points())
    d = with_tangle(d, pid, code)
    pid, s = closed_strand(d, cid)
    code = d.piece(pid).tangle

    seq = []
    for x, port in s.visits:
        other = other_passage(code, x, port)
        if other[0] == s.id:
            raise RefusalError(f"circle {cid} still crosses itself after reduction")
        seq.append((x, other))
    m = len(seq)

    sums = circle_crossing_sums(d)
    lk_before = {o.id: linking_from_sums(sums, cid, o.id) for o in d.circles if o.id != cid}

    if m % 2 != 0:
        raise RefusalError(f"circle {cid} carries an odd crossing pattern")
    k = m // 2
    # a crossingless circle has one, empty, plan
    plan = next((lanes for r in range(max(m, 1))
                 if (lanes := _twist_lanes(code, seq[r:] + seq[:r], k)) is not None), None)
    if plan is None:
        raise RefusalError(
            f"strands through {cid} do not sit in a single twist region")

    drop = {x for lane in plan for x in lane[4]}
    # a full twist, k rounds of k - 1 letters; a lane's direction is the
    # sign of its piercing crossings
    twist_crossings, lane_visits, _ = braid(
        [(j, -c.framing) for _ in range(k) for j in range(1, k)],
        [lane[3] for lane in plan], fresh_ids({cr.id for cr in code.crossings}, "tw"))

    # each foreign strand trades its piercing visits for its lane of the twist
    inserts: dict[str, list] = {}
    dropped: dict[str, set] = {}
    for (tid, visit_pair, gap, _, _), visits in zip(plan, lane_visits):
        inserts.setdefault(tid, []).append((gap, visits))
        dropped.setdefault(tid, set()).update(visit_pair)
    new_strands = tuple(
        replace(st, visits=splice(st.visits, inserts[st.id], dropped[st.id]))
        if st.id in inserts else st
        for st in code.strands if st.id != s.id)
    crossings = tuple(cr for cr in code.crossings if cr.id not in drop) + tuple(twist_crossings)
    out = with_tangle(d, pid, TangleCode(crossings, new_strands))
    out = replace(out, circles=tuple(
        replace(o, framing=o.framing - c.framing * lk_before[o.id] ** 2)
        for o in out.circles if o.id != cid))
    return require_valid(out, "blow-down broke the diagram", RefusalError)


# ---------------------------------------------------------------------------
# handle slide


def _pushoff(code: TangleCode, s2: Strand, side: int):
    """Parallel copy of a closed strand on one side (+1 left, -1 right).

    Returns the new crossings, the pushoff's visits on each strand it
    crosses, s2 itself included, and the parallel's visit blocks aligned
    with s2's visits.  Each visit on a strand comes as (index, before,
    visit): it goes in just before the strand's visit at that index when
    before is True, just after it when False.
    """
    fresh = fresh_ids({c.id for c in code.crossings}, "pp")
    left = 3 if side > 0 else 1  # (q - p) % 4 of a passage met from the parallel's side
    new_crossings: list[Crossing] = []
    inserts: dict[str, list] = {}      # strand id -> list of (index, before, visit)
    blocks: list[list] = []            # parallel's visits per s2 visit
    second: dict[int, list] = {}       # s2 visit -> its block, made at the first visit

    for k, (x, p) in enumerate(s2.visits):
        if k in second:
            blocks.append(second.pop(k))
            continue
        over = code.crossing(x).over
        tid, j, q = other_passage(code, x, p)
        # the parallel runs on the side of port p+3 (left) or p+1 (right)
        before = (q - p) % 4 == left
        if tid != s2.id:
            xp = next(fresh)
            new_crossings.append(Crossing(xp, over))
            inserts.setdefault(tid, []).append((j, before, (xp, q)))
            blocks.append([(xp, p)])
            continue
        # a self crossing, met first at visit k (passage A) and again at j
        # (B): the parallel of A crosses B at x1 and the parallel of B at
        # x3, and A crosses the parallel of B at x2
        x1, x2, x3 = next(fresh), next(fresh), next(fresh)
        new_crossings += [Crossing(xi, over) for xi in (x1, x2, x3)]
        a_before = (p - q) % 4 == left
        # along s2: x2 next to its visit k, x1 next to its visit j; the
        # parallels mirror their parent's meeting order
        inserts.setdefault(s2.id, []).extend(((k, a_before, (x2, p)), (j, before, (x1, q))))
        blocks.append([(x3, p), (x1, p)] if a_before else [(x1, p), (x3, p)])
        second[j] = [(x3, q), (x2, q)] if before else [(x2, q), (x3, q)]
    return new_crossings, inserts, blocks


def handle_slide(d: Diagram, c1: str, c2: str, band: BandSite) -> Diagram:
    """Replace c1 by its band sum with the framed parallel of c2.

    band = (piece, (strand of c1, arc index), (strand of c2, arc index),
    orientation).  The band runs inside a face shared by the two arcs; the
    parallel follows c2 with its framing realized by explicit twists.
    Framing update: f1 + f2 + 2 * orient * lk(c1, c2).
    """
    _no_internal_maps(d)
    if c1 == c2:
        raise MoveError("cannot slide a circle over itself")
    pid, (s1id, arc1), (s2id, arc2), orient = band
    if orient not in (1, -1):
        raise MoveError("band orientation must be +1 or -1")
    circ1, circ2 = d.circle(c1), d.circle(c2)
    if (pid, s1id) not in {tuple(e) for e in circ1.strand_cycle}:
        raise MoveError(f"strand {s1id} does not belong to circle {c1}")
    loc2 = closed_strand(d, c2)
    if loc2 is None or loc2[0] != pid or loc2[1].id != s2id:
        raise RefusalError(
            f"circle {c2} must be a closed curve in piece {pid} to be copied")
    p = d.piece(pid)
    code = p.tangle
    s1, s2 = code.strand(s1id), code.strand(s2id)
    if not (0 <= arc1 < s1.arc_count() and 0 <= arc2 < s2.arc_count()):
        raise MoveError("band arc indices out of range")
    shared = _shared_face(code, (s1id, arc1), (s2id, arc2), p.wall_points())
    if shared is None:
        raise MoveError("band arcs do not bound a common face (or cross a wall)")
    sums = circle_crossing_sums(d)
    lk12 = linking_from_sums(sums, c1, c2)
    twist = circ2.framing - sums.get((c2, c2), 0)
    # the parallel runs along s2 on the side of the shared face, which is on
    # the right of an arc that runs forward along it; the band needs a half
    # twist, one kink crossing between its edges, when orient +1 meets arcs
    # running opposite ways along the face, or orient -1 arcs running alike
    side, kink = 1, None
    if shared:
        f1, f2 = shared
        side = -1 if f2 else 1
        if (f1 == f2) != (orient == 1):
            kink = 1 if f1 else 3  # port of the parallel's second pass through the kink
    new_crossings, inserts, blocks = _pushoff(code, s2, side)

    # twist block between s2 and its parallel at the arc2 gap; new ids only
    # need to avoid the code's, since each kind of crossing has its own prefix
    taken = {c.id for c in code.crossings}
    s2_lane, par_lane = (0, 1) if side < 0 else (1, 0)
    twist_crossings, lane_visits, _ = braid(
        [(1, 1 if twist > 0 else -1)] * (2 * abs(twist)), [1, 1], fresh_ids(taken, "tw"))

    g2 = arc_gap(s2, arc2)
    # the parallel's visits: the twist block, then around s2 from the arc2 gap
    par_cycle = lane_visits[par_lane] + [v for block in blocks[g2:] + blocks[:g2] for v in block]
    if orient < 0:
        par_cycle = [(x, (q + 2) % 4) for x, q in reversed(par_cycle)]
    kink_crossings = ()
    if kink is not None:
        kid = next(fresh_ids(taken, "bk"))
        kink_crossings = (Crossing(kid, 1),)
        par_cycle = [(kid, 0)] + par_cycle + [(kid, kink)]

    # the parallel enters s1 at the arc1 gap and the twist block s2 at the
    # arc2 gap, between the pushoff visits that share the gap: those after
    # the visit before it, then the block, then those before the next visit
    placed = {s1.id: (arc_gap(s1, arc1), par_cycle),
              s2.id: (g2, lane_visits[s2_lane])}
    new_strands = []
    for st in code.strands:
        ins = inserts.get(st.id, [])
        new_strands.append(replace(st, visits=splice(
            st.visits,
            [(i + 1, [v]) for i, before, v in ins if not before]
            + ([placed[st.id]] if st.id in placed else [])
            + [(i, [v]) for i, before, v in ins if before])))
    new_code = TangleCode(code.crossings + tuple(new_crossings)
                          + tuple(twist_crossings) + kink_crossings,
                          tuple(new_strands))
    out = with_tangle(d, pid, new_code)
    new_f1 = circ1.framing + circ2.framing + 2 * orient * lk12
    return require_valid(replace(out, circles=tuple(
        replace(c, framing=new_f1) if c.id == c1 else c for c in out.circles)),
        "slide broke the diagram", MoveError)


# ---------------------------------------------------------------------------
# replay and recognition


def _replace_pair(d: Diagram, pair: str, circle: str) -> Diagram:
    """Splice an internal pair away as to_kirby does, checking the logged surrogate id."""
    out, (cid,) = _replace_pairs(d, [d.pair(pair)])
    if cid != circle:
        raise MoveError(f"replayed surrogate id {cid} != logged {circle}")
    return out


# the function of each move tag, called with the move's args in the order of
# format._MOVE_FIELDS; named, and looked up on replay, so that a wrapper set
# on this module (a tracer, a test's monkeypatch) sees replayed moves too
_MOVES = {"blow-up": "blow_up", "blow-down": "blow_down", "handle-slide": "handle_slide",
          "merge-pieces": "merge_pieces", "delete-surface": "delete_superfluous",
          "replace-pair": "_replace_pair"}


def apply_move(d: Diagram, move: KirbyMove) -> Diagram:
    """Replay one logged move; a tag or args that no move takes is refused."""
    fields = _MOVE_FIELDS.get(move.tag)
    if fields is None:
        raise MoveError(f"unknown move tag {move.tag!r}")
    if len(move.args) != len(fields):
        raise MoveError(f"{move.tag} args are ({', '.join(fields)}), got {move.args!r}")
    return globals()[_MOVES[move.tag]](d, *move.args)


def _slide_candidates(d: Diagram):
    """At most SLIDE_CAP (handle slide, child) pairs, deterministically ordered."""
    out = []
    for circ2 in d.circles:
        loc2 = closed_strand(d, circ2.id)
        if loc2 is None:
            continue
        pid, s2 = loc2
        p = d.piece(pid)
        walls = p.wall_points()
        for circ1 in d.circles:
            if circ1.id == circ2.id:
                continue
            for sp, s1id in circ1.strand_cycle:
                if sp != pid:
                    continue
                s1 = p.tangle.strand(s1id)
                # the first band site in arc order
                found = next(((a1, a2) for a1 in range(s1.arc_count())
                              for a2 in range(s2.arc_count())
                              if _shared_face(p.tangle, (s1id, a1), (s2.id, a2), walls)
                              is not None), None)
                if found is None:
                    continue
                for orient in (1, -1):
                    band = (pid, (s1id, found[0]), (s2.id, found[1]), orient)
                    out.append(KirbyMove("handle-slide", (circ1.id, circ2.id, band)))
                break
    # prefer slides that shrink the linking matrix
    scored = []
    for mv in out:
        try:
            child = apply_move(d, mv)
        except MoveError:
            continue
        size = sum(abs(x) for row in linking_matrix(child).entries for x in row)
        scored.append(((size, canonical_key(child)), mv, child))
    scored.sort(key=lambda t: t[0])
    return [(mv, child) for _, mv, child in scored[:SLIDE_CAP]]


def _children(d: Diagram, allow_growth: bool):
    """Candidate (move, child) pairs in order: blow-downs, then slides, then
    blow-ups, each built only when the search asks for it."""
    for c in sorted(d.circles, key=lambda c: c.id):
        if c.framing in (1, -1):
            try:
                child = blow_down(d, c.id)
            except MoveError:
                continue
            yield KirbyMove("blow-down", (c.id,)), child
    if allow_growth:
        yield from _slide_candidates(d)
        for sign in (1, -1):
            mv = KirbyMove("blow-up", (d.pieces[0].id, 0, sign))
            yield mv, apply_move(d, mv)


def recognize_s3(d: Diagram, depth: int = 3) -> Verdict:
    """Does the Kirby-form diagram present the 3-sphere after surgery?

    Yes comes with a move log reaching the empty diagram; No carries the
    determinant obstruction (|det| != 1 survives every move, so H1 of the
    surgered manifold is nontrivial); Unknown names the caps that cut the
    search: the depth, and SLIDE_CAP handle slides per diagram.
    A diffeomorphism diagram is searched without its internal maps: the
    framed link alone presents the manifold, and the moves refuse maps.
    """
    if d.pairs or d.surfaces:
        raise DiagramError("the recognizer needs a diagram without sphere "
                           "pairs and surfaces")
    require_valid(d, "invalid diagram")
    if d.internal_maps is not None:
        d = replace(d, internal_maps=None)
    if d.circles:
        matrix = linking_matrix(d).as_list()
        determinant = det(matrix)
        if abs(determinant) != 1:
            return Verdict("No", f"|det| = {abs(determinant)}",
                           "the surgered manifold has nontrivial first homology")

    def dfs(node: Diagram, remaining: int, table: dict):
        if not node.circles:
            return []
        if len(node.circles) > remaining:
            return None
        key = canonical_key(node)
        if table.get(key, -1) >= remaining:
            return None
        table[key] = remaining
        allow_growth = len(node.circles) < remaining
        for move, child in _children(node, allow_growth):
            sub = dfs(child, remaining - 1, table)
            if sub is not None:
                return [move] + sub
        return None

    for dmax in range(depth + 1):
        found = dfs(d, dmax, {})
        if found is not None:
            return Verdict("Yes", found, f"empty diagram reached in {len(found)} moves")
    return Verdict("Unknown", None, f"cap reached: no empty diagram within depth {depth} "
                                    f"and {SLIDE_CAP} handle slides per diagram")
