"""Planar tangle codes: crossings, strands, faces and Reidemeister moves.

A tangle code is the combinatorial planar diagram of the curves and arcs
inside one punctured 3-sphere piece.  Crossings are 4-valent vertices with
ports numbered 0..3 counterclockwise; a strand entering port p leaves at
port (p + 2) % 4, so the two passages through a crossing occupy the even
and the odd port pair.  Strands are sequences of passages; open strands
end on wall marked points, closed strands are cycles.

Sign convention (right-handed plane orientation): a crossing is positive
when the over passage enters one step clockwise of the under passage,
i.e. over_entry == (under_entry + 3) % 4.

A TangleCode is immutable: every edit builds a new code.  Each code builds
its lookup index (crossings and strands by id, the passage table and the
crossing signs) lazily on first use, and memoises its code problems and,
per wall set, the faces it traces and their planarity problems.  Nothing
stored there is ever changed afterwards; the memos only gain entries.  So
the index cannot go stale, and since it is not a dataclass field,
equality and hashing of codes ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Hashable, Iterable, Mapping

Visit = tuple[str, int]          # (crossing id, entry port)
WallPoint = tuple[str, int]      # (wall id, marked point index)
ArcRef = tuple[str, int]         # (strand id, arc index along the strand)


class MoveError(ValueError):
    """A move site does not match the move's local pattern."""


@dataclass(frozen=True)
class Crossing:
    id: str
    over: int  # 1: the passage on ports {0,2} is on top; 2: ports {1,3}

    def __post_init__(self):
        if self.over not in (1, 2):
            raise ValueError(f"crossing {self.id}: over must be 1 or 2")


@dataclass(frozen=True)
class Strand:
    id: str
    visits: tuple[Visit, ...] = ()
    start: WallPoint | None = None   # None on both ends = closed strand
    end: WallPoint | None = None

    @property
    def closed(self) -> bool:
        return self.start is None and self.end is None

    def arc_count(self) -> int:
        # a crossingless closed loop still has one arc: itself
        if self.closed:
            return max(len(self.visits), 1)
        return len(self.visits) + 1


@dataclass(frozen=True)
class TangleCode:
    crossings: tuple[Crossing, ...] = ()
    strands: tuple[Strand, ...] = ()

    @cached_property
    def _index(self) -> _CodeIndex:
        # cached in the instance __dict__, so not a field: ==, hash and
        # dataclasses.replace ignore it
        return _CodeIndex(self)

    def crossing(self, cid: str) -> Crossing:
        return self._index.crossings[cid]

    def strand(self, sid: str) -> Strand:
        return self._index.strands[sid]


@dataclass(frozen=True)
class RMove:
    """One applied Reidemeister move, replayable on the code it was found in."""

    kind: str           # "r1-", "r1+", "r2-", "r2+", "r3"
    args: tuple


# ---------------------------------------------------------------------------
# basic structure


def passages(code: TangleCode) -> dict[str, list[tuple[str, int, int]]]:
    """For each crossing id, the (strand, visit index, entry port) pairs using it."""
    out: dict[str, list[tuple[str, int, int]]] = {c.id: [] for c in code.crossings}
    for s in code.strands:
        for k, (cid, p) in enumerate(s.visits):
            if cid in out:
                out[cid].append((s.id, k, p))
    return out


def code_problems(code: TangleCode) -> list[str]:
    """Structural defects: port occupancy, dangling references, id clashes."""
    index = code._index
    if index.problems is None:
        index.problems = tuple(_code_problems(code))
    return list(index.problems)


def _code_problems(code: TangleCode) -> list[str]:
    problems = []
    ids = [c.id for c in code.crossings]
    if len(set(ids)) != len(ids):
        problems.append("duplicate crossing ids")
    sids = [s.id for s in code.strands]
    if len(set(sids)) != len(sids):
        problems.append("duplicate strand ids")
    known = set(ids)
    used: dict[tuple[str, int], int] = {}
    for s in code.strands:
        if (s.start is None) != (s.end is None):
            problems.append(f"strand {s.id}: exactly one endpoint set")
        for cid, p in s.visits:
            if cid not in known:
                problems.append(f"strand {s.id}: unknown crossing {cid}")
                continue
            if p not in (0, 1, 2, 3):
                problems.append(f"strand {s.id}: bad port {p}")
                continue
            for q in (p, (p + 2) % 4):
                used[cid, q] = used.get((cid, q), 0) + 1
    for c in code.crossings:
        for q in range(4):
            n = used.get((c.id, q), 0)
            if n != 1:
                problems.append(f"crossing {c.id}: port {q} used {n} times")
    return problems


def first_by_id(items) -> dict:
    """Id -> item, keeping the first item of each id as a linear scan would."""
    out = {}
    for x in items:
        out.setdefault(x.id, x)
    return out


class _CodeIndex:
    """Lookups derived from one TangleCode in a single pass over its strands.

    Crossing and strand ids map to their first occurrence, as a linear scan
    would; code_problems reports duplicates.  A crossing whose passages do not
    split into one even-port and one odd-port passage keeps its MoveError
    message instead of a split, so every lookup raises what a fresh
    computation would.
    """

    __slots__ = ("crossings", "strands", "split", "signs", "broken", "problems",
                 "faces", "planarity")

    def __init__(self, code: TangleCode):
        self.crossings: dict[str, Crossing] = first_by_id(code.crossings)
        self.strands: dict[str, Strand] = first_by_id(code.strands)
        self.split: dict[str, tuple[tuple[str, int, int], tuple[str, int, int]]] = {}
        self.signs: dict[str, int] = {}
        self.broken: dict[str, str] = {}
        for cid, ps in passages(code).items():
            even = [p for p in ps if p[2] % 2 == 0]
            odd = [p for p in ps if p[2] % 2 == 1]
            if len(ps) != 2:
                self.broken[cid] = f"crossing {cid} has {len(ps)} passages"
            elif len(even) != 1 or len(odd) != 1:
                self.broken[cid] = f"crossing {cid}: passages do not split over port pairs"
            else:
                self.split[cid] = (even[0], odd[0])
                over = self.crossings[cid].over
                o_in, u_in = (even[0][2], odd[0][2]) if over == 1 else (odd[0][2], even[0][2])
                self.signs[cid] = 1 if (o_in - u_in) % 4 == 3 else -1
        self.problems: tuple[str, ...] | None = None  # filled by code_problems()
        # sorted wall items -> (arcs, faces), filled by faces() on success only
        self.faces: dict[tuple, tuple[tuple[Arc, ...], tuple[tuple, ...]]] = {}
        # sorted wall items -> problems, filled by planarity_problems()
        self.planarity: dict[tuple, tuple[str, ...]] = {}


def crossing_passages(code: TangleCode, cid: str) -> tuple[tuple[str, int, int], tuple[str, int, int]]:
    """The even-port and odd-port passage of a crossing, in that order."""
    index = code._index
    if cid in index.broken:
        raise MoveError(index.broken[cid])
    return index.split[cid]


def crossing_sign(code: TangleCode, cid: str) -> int:
    signs = code._index.signs
    if cid not in signs:
        crossing_passages(code, cid)  # raises the KeyError or MoveError
    return signs[cid]


def crossing_sums(code: TangleCode, group: Mapping[str, Hashable]) -> dict[tuple, int]:
    """Signed crossing sums between strand groups, in one sweep over the crossings.

    group maps strand ids to hashable, mutually comparable labels; strands
    it leaves out are skipped.  Keys are label pairs in sorted order, so a
    crossing of two strands of one group adds to (g, g).  Every crossing
    must have a valid passage split, whether grouped or not.
    """
    signs = code._index.signs
    out: dict[tuple, int] = {}
    for c in code.crossings:
        (sa, _, _), (sb, _, _) = crossing_passages(code, c.id)
        if sa in group and sb in group:
            ga, gb = group[sa], group[sb]
            key = (ga, gb) if ga <= gb else (gb, ga)
            out[key] = out.get(key, 0) + signs[c.id]
    return out


def signed_crossing_sum(code: TangleCode, group_a: frozenset, group_b: frozenset) -> int:
    """Sum of signs of crossings with one passage in each group (each crossing once)."""
    member = {s: (s in group_a, s in group_b) for s in group_a | group_b}
    return sum(v for (la, lb), v in crossing_sums(code, member).items()
               if (la[0] and lb[1]) or (la[1] and lb[0]))


def linking_number(code: TangleCode, s1: str, s2: str) -> int:
    """Half the signed sum of crossings between two closed strands of one code."""
    if s1 == s2:
        raise ValueError("linking number needs two distinct strands")
    code.strand(s1), code.strand(s2)
    total = signed_crossing_sum(code, frozenset([s1]), frozenset([s2]))
    if total % 2 != 0:
        raise ValueError(f"odd crossing sum between {s1} and {s2}: not both closed")
    return total // 2


def writhe(code: TangleCode, s: str) -> int:
    """Signed sum of self-crossings of one strand."""
    code.strand(s)
    return signed_crossing_sum(code, frozenset([s]), frozenset([s]))


# ---------------------------------------------------------------------------
# arcs and faces

Site = tuple  # ('x', crossing id, port) | ('w', wall id, point)


@dataclass(frozen=True)
class Arc:
    strand: str
    index: int
    tail: Site  # departure attachment, in strand direction
    head: Site


def strand_arcs(s: Strand) -> list[Arc]:
    sites: list[Site] = []
    if s.start is not None:
        sites.append(("w",) + tuple(s.start))
    for cid, p in s.visits:
        sites.append(("x", cid, p))
        sites.append(("x", cid, (p + 2) % 4))
    if s.end is not None:
        sites.append(("w",) + tuple(s.end))
    arcs = []
    if s.closed:
        n = len(s.visits)
        for i in range(n):
            arcs.append(Arc(s.id, i, sites[2 * i + 1], sites[(2 * i + 2) % (2 * n)]))
    else:
        for i in range(len(s.visits) + 1):
            arcs.append(Arc(s.id, i, sites[2 * i], sites[2 * i + 1]))
    return arcs


def build_arcs(code: TangleCode) -> list[Arc]:
    arcs = []
    for s in code.strands:
        arcs.extend(strand_arcs(s))
    return arcs


def faces(code: TangleCode, walls: Mapping[str, int] | None = None):
    """Faces of the planar code as dart cycles; darts are (arc index, forward).

    Crossingless closed strands carry no nodes and are excluded: a split
    round curve can be isotoped into any region, so its placement is not
    part of the code.  Returns (arcs, faces) as tuples, memoised per code
    and wall set; a trace that raises is not memoised.
    """
    walls = walls or {}
    memo = code._index.faces
    key = tuple(sorted(walls.items()))
    if key not in memo:
        memo[key] = _trace_faces(code, walls)
    return memo[key]


def _trace_faces(code: TangleCode, walls: Mapping[str, int]):
    arcs = build_arcs(code)
    at: dict[Site, tuple[int, bool]] = {}
    for i, a in enumerate(arcs):
        for site, is_tail in ((a.tail, True), (a.head, False)):
            if site in at:
                raise MoveError(f"attachment {site} used twice")
            at[site] = (i, is_tail)

    def degree(site: Site) -> int:
        if site[0] == "x":
            return 4
        if site[1] not in walls:
            raise MoveError(f"unknown wall {site[1]} in face trace")
        return walls[site[1]]

    def successor(dart):
        i, fwd = dart
        head = arcs[i].head if fwd else arcs[i].tail
        node, slot = head[:-1], head[-1]
        nxt = (slot + 1) % degree(head)
        j, is_tail = at[node + (nxt,)]
        return (j, is_tail)

    seen = set()
    out = []
    for i in range(len(arcs)):
        for fwd in (True, False):
            if (i, fwd) in seen:
                continue
            cycle = []
            d = (i, fwd)
            while d not in seen:
                seen.add(d)
                cycle.append(d)
                d = successor(d)
            out.append(tuple(cycle))
    return tuple(arcs), tuple(out)


def planarity_problems(code: TangleCode, walls: Mapping[str, int] | None = None) -> list[str]:
    """Euler check V - E + F == 2 on every connected component of the code.

    Memoised per code and wall set, like faces.
    """
    walls = walls or {}
    memo = code._index.planarity
    key = tuple(sorted(walls.items()))
    if key not in memo:
        memo[key] = tuple(_planarity_problems(code, walls))
    return list(memo[key])


def _planarity_problems(code: TangleCode, walls: Mapping[str, int]) -> list[str]:
    try:
        arcs, fs = faces(code, walls)
    except (MoveError, KeyError) as e:
        return [f"broken attachment structure: {e}"]
    # union-find over nodes via arcs
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        parent[find(x)] = find(y)

    def node_of(site: Site):
        return site[:-1]

    for a in arcs:
        union(node_of(a.tail), node_of(a.head))
    comps: dict = {}
    for i, a in enumerate(arcs):
        comps.setdefault(find(node_of(a.tail)), [set(), 0, 0])
    for i, a in enumerate(arcs):
        c = comps[find(node_of(a.tail))]
        c[0].add(node_of(a.tail))
        c[0].add(node_of(a.head))
        c[1] += 1
    for f in fs:
        if not f:
            continue
        a = arcs[f[0][0]]
        comps[find(node_of(a.tail))][2] += 1
    problems = []
    for root, (nodes, e, fcount) in comps.items():
        if len(nodes) - e + fcount != 2:
            problems.append(
                f"component at {sorted(nodes)[0]}: V-E+F = {len(nodes)}-{e}+{fcount} != 2"
            )
    return problems


# ---------------------------------------------------------------------------
# editing helpers


def _edit(code: TangleCode, strand_visits: dict[str, tuple[Visit, ...]] | None = None,
          drop: Iterable[str] = (), add: Iterable[Crossing] = ()) -> TangleCode:
    drop = set(drop)
    strand_visits = strand_visits or {}
    strands = tuple(
        replace(s, visits=strand_visits[s.id]) if s.id in strand_visits else s
        for s in code.strands
    )
    crossings = tuple(c for c in code.crossings if c.id not in drop) + tuple(add)
    return TangleCode(crossings=crossings, strands=strands)


def _adjacent_pairs(s: Strand):
    """Adjacent visit index pairs (i, j) along the strand, cyclic when closed."""
    n = len(s.visits)
    if n < 2:
        return []
    pairs = [(i, i + 1) for i in range(n - 1)]
    if s.closed:
        pairs.append((n - 1, 0))
    return pairs


def _remove_visits(s: Strand, indices: set[int]) -> tuple[Visit, ...]:
    return tuple(v for i, v in enumerate(s.visits) if i not in indices)


def fresh_crossing_id(code: TangleCode, prefix: str = "x") -> str:
    return fresh_crossing_ids(code, 1, prefix)[0]


def fresh_crossing_ids(code: TangleCode, n: int, prefix: str = "x") -> list[str]:
    taken = {c.id for c in code.crossings}
    out = []
    k = 1
    while len(out) < n:
        if f"{prefix}{k}" not in taken:
            out.append(f"{prefix}{k}")
            taken.add(f"{prefix}{k}")
        k += 1
    return out


def braid_closure(word: Iterable[tuple[int, int]], n: int,
                  strand_prefix: str = "s", crossing_prefix: str = "x") -> TangleCode:
    """Closure of a braid word on n upward lanes.

    word entries are (j, sign) for the generator between lanes j and j+1
    (1-indexed).  Crossing ports: bottom-left 2, bottom-right 3, top-left 1,
    top-right 0; a positive generator puts the bottom-left passage on top.
    """
    tokens = list(range(n))                  # token currently in each lane
    paths: dict[int, list[Visit]] = {t: [] for t in range(n)}
    perm = list(range(n))                    # lane -> token after the word
    crossings = []
    for k, (j, sign) in enumerate(word):
        if not (1 <= j < n) or sign not in (1, -1):
            raise ValueError(f"bad braid letter ({j}, {sign})")
        cid = f"{crossing_prefix}{k + 1}"
        crossings.append(Crossing(cid, 1 if sign > 0 else 2))
        left, right = tokens[j - 1], tokens[j]
        paths[left].append((cid, 2))
        paths[right].append((cid, 3))
        tokens[j - 1], tokens[j] = right, left
    for i in range(n):
        perm[i] = tokens[i]
    # closure: top of lane i joins bottom of lane i; strands follow the
    # cycles of the induced permutation on starting lanes
    start_lane = {t: i for i, t in enumerate(perm)}  # token t ends on lane start_lane[t]
    strands = []
    used = set()
    snum = 0
    for i in range(n):
        if i in used:
            continue
        snum += 1
        visits: list[Visit] = []
        lane = i
        while lane not in used:
            used.add(lane)
            visits.extend(paths[lane])
            # token `lane` ends at the top of some lane; closure drops to its bottom
            lane = start_lane[lane]
        strands.append(Strand(f"{strand_prefix}{snum}", visits=tuple(visits)))
    return TangleCode(crossings=tuple(crossings), strands=tuple(strands))


# ---------------------------------------------------------------------------
# Reidemeister moves


def find_r1_minus(code: TangleCode) -> list[str]:
    """Crossings removable by an R1 move: both passages are adjacent visits of one strand."""
    out = []
    for s in code.strands:
        for i, j in _adjacent_pairs(s):
            if s.visits[i][0] == s.visits[j][0]:
                out.append(s.visits[i][0])
    return sorted(set(out))


def r1_minus(code: TangleCode, cid: str) -> TangleCode:
    for s in code.strands:
        for i, j in _adjacent_pairs(s):
            if s.visits[i][0] == cid and s.visits[j][0] == cid:
                return _edit(code, {s.id: _remove_visits(s, {i, j})}, drop=[cid])
    raise MoveError(f"no R1 kink at crossing {cid}")


def r1_plus(code: TangleCode, strand_id: str, arc_index: int, sign: int,
            walls: Mapping[str, int] | None = None) -> TangleCode:
    """Insert a kink of the given sign on an arc of a strand."""
    s = code.strand(strand_id)
    if not (0 <= arc_index < s.arc_count()):
        raise MoveError(f"strand {strand_id} has no arc {arc_index}")
    if sign not in (1, -1):
        raise MoveError("kink sign must be +1 or -1")
    cid = fresh_crossing_id(code)
    # insertion point in the visit list: arc k precedes visit k on open
    # strands; on closed strands arc k sits between visits k and k+1
    pos = (arc_index + 1) % max(len(s.visits), 1) if s.closed and s.visits else arc_index
    for b, over in ((1, 1), (3, 2), (3, 1), (1, 2)):
        visits = s.visits[:pos] + ((cid, 0), (cid, b)) + s.visits[pos:]
        cand = _edit(code, {s.id: visits}, add=[Crossing(cid, over)])
        try:
            if crossing_sign(cand, cid) != sign:
                continue
            if walls is not None and planarity_problems(cand, walls):
                continue
            if r1_minus(cand, cid) != code:
                continue
            return cand
        except (MoveError, ValueError):
            continue
    raise MoveError("no valid kink pattern at site")


def find_r2_minus(code: TangleCode, walls: Mapping[str, int] | None = None) -> list[tuple[str, str]]:
    """Crossing pairs removable by an R2 move (bigon with a uniform overpass)."""
    try:
        arcs, fs = faces(code, walls)
    except MoveError:
        return []
    out = []
    for f in fs:
        if len(f) != 2:
            continue
        a0, a1 = arcs[f[0][0]], arcs[f[1][0]]
        if a0.tail[0] != "x" or a0.head[0] != "x":
            continue
        x, y = a0.tail[1], a0.head[1]
        if x == y or {a1.tail[1], a1.head[1]} != {x, y}:
            continue
        over_x = code.crossing(x).over
        over_y = code.crossing(y).over
        # the strand of a0 is over at x iff its port parity matches the flag
        par_x0 = a0.tail[2] % 2
        par_y0 = a0.head[2] % 2
        a0_over_x = (over_x == 1) == (par_x0 == 0)
        a0_over_y = (over_y == 1) == (par_y0 == 0)
        if a0_over_x == a0_over_y:
            out.append((min(x, y), max(x, y)))
    return sorted(set(out))


def r2_minus(code: TangleCode, x: str, y: str,
             walls: Mapping[str, int] | None = None) -> TangleCode:
    if (min(x, y), max(x, y)) not in find_r2_minus(code, walls):
        raise MoveError(f"no R2 bigon at crossings {x}, {y}")
    edits: dict[str, set[int]] = {}
    for s in code.strands:
        for i, j in _adjacent_pairs(s):
            ci, cj = s.visits[i][0], s.visits[j][0]
            if {ci, cj} == {x, y}:
                got = edits.setdefault(s.id, set())
                if not ({i, j} & got):
                    got.update({i, j})
    removed = sum(len(v) for v in edits.values())
    if removed != 4:
        raise MoveError(f"R2 pattern at {x}, {y} is degenerate")
    new_visits = {sid: _remove_visits(code.strand(sid), idx) for sid, idx in edits.items()}
    return _edit(code, new_visits, drop=[x, y])


def r2_plus(code: TangleCode, arc_over: ArcRef, arc_under: ArcRef,
            walls: Mapping[str, int] | None = None) -> TangleCode:
    """Push arc_over across arc_under through a shared face."""
    s_over = code.strand(arc_over[0])
    s_under = code.strand(arc_under[0])
    if not (0 <= arc_over[1] < s_over.arc_count()):
        raise MoveError(f"no arc {arc_over}")
    if not (0 <= arc_under[1] < s_under.arc_count()):
        raise MoveError(f"no arc {arc_under}")
    if arc_over == arc_under:
        raise MoveError("R2 needs two distinct arcs")
    if not _arcs_share_face(code, arc_over, arc_under, walls):
        raise MoveError(f"arcs {arc_over} and {arc_under} do not bound a common face")
    xid, yid = fresh_crossing_ids(code, 2)

    def insert(s: Strand, arc_index: int, pair: tuple[Visit, Visit]) -> tuple[Visit, ...]:
        pos = (arc_index + 1) % max(len(s.visits), 1) if s.closed and s.visits else arc_index
        return s.visits[:pos] + pair + s.visits[pos:]

    # Port gauge: the over strand enters x at 0 and y at 2, so the overpass is
    # the even pair at both new crossings.  Enumerate the under strand's entry
    # ports and traversal order; planarity plus an exact r2_minus undo certify
    # the genuine push for the shared face.
    over_pair = ((xid, 0), (yid, 2))
    variants = []
    for ux in (1, 3):
        for uy in (1, 3):
            variants.append(((yid, uy), (xid, ux)))
            variants.append(((xid, ux), (yid, uy)))
    for under_pair in variants:
        if s_over.id == s_under.id:
            s = s_over
            # apply both insertions on one strand, over pair first
            oi, ui = arc_over[1], arc_under[1]
            pos_o = (oi + 1) % max(len(s.visits), 1) if s.closed and s.visits else oi
            pos_u = (ui + 1) % max(len(s.visits), 1) if s.closed and s.visits else ui
            if pos_o == pos_u:
                continue
            ins = sorted([(pos_o, over_pair), (pos_u, under_pair)], reverse=True)
            visits = s.visits
            for pos, pair in ins:
                visits = visits[:pos] + pair + visits[pos:]
            edits = {s.id: visits}
        else:
            edits = {
                s_over.id: insert(s_over, arc_over[1], over_pair),
                s_under.id: insert(s_under, arc_under[1], under_pair),
            }
        cand = _edit(code, edits, add=[Crossing(xid, 1), Crossing(yid, 1)])
        if code_problems(cand):
            continue
        if walls is not None and planarity_problems(cand, walls):
            continue
        try:
            undone = r2_minus(cand, xid, yid, walls)
        except MoveError:
            continue
        if undone == code:
            return cand
    raise MoveError("no valid R2 pattern at site")


def _arcs_share_face(code, a: ArcRef, b: ArcRef, walls) -> bool:
    sa, sb = code.strand(a[0]), code.strand(b[0])
    # a crossingless closed strand can be isotoped into any region
    if (sa.closed and not sa.visits) or (sb.closed and not sb.visits):
        return True
    arcs, fs = faces(code, walls)
    keys = {(x.strand, x.index): i for i, x in enumerate(arcs)}
    ia, ib = keys.get(tuple(a)), keys.get(tuple(b))
    if ia is None or ib is None:
        return False
    for f in fs:
        members = {d[0] for d in f}
        if ia in members and ib in members:
            return True
    return False


def _arc_visit_pair(code: TangleCode, arc: Arc) -> tuple[str, int, int] | None:
    """The adjacent visit index pair an arc spans, or None for wall-ended arcs."""
    if arc.tail[0] != "x" or arc.head[0] != "x":
        return None
    s = code.strand(arc.strand)
    if s.closed:
        return (s.id, arc.index, (arc.index + 1) % len(s.visits))
    if arc.index == 0 or arc.index == len(s.visits):
        return None
    return (s.id, arc.index - 1, arc.index)


def _r3_plans(code: TangleCode, walls: Mapping[str, int] | None):
    """All (crossing triple, swap plan) pairs for movable triangle faces."""
    try:
        arcs, fs = faces(code, walls)
    except MoveError:
        return []

    def over_at(sid, idx):
        s = code.strand(sid)
        cid, p = s.visits[idx]
        return (code.crossing(cid).over == 1) == (p % 2 == 0)

    plans = []
    for f in fs:
        if len(f) != 3:
            continue
        pairs = []
        cids = set()
        ok = True
        for d in f:
            pair = _arc_visit_pair(code, arcs[d[0]])
            if pair is None:
                ok = False
                break
            pairs.append(pair)
            a = arcs[d[0]]
            cids.update({a.tail[1], a.head[1]})
        if not ok or len(cids) != 3:
            continue
        # the three swapped visit pairs must be pairwise disjoint
        slots = [(sid, k) for sid, i, j in pairs for k in (i, j)]
        if len(set(slots)) != 6:
            continue
        top = [p for p in pairs if over_at(p[0], p[1]) and over_at(p[0], p[2])]
        bot = [p for p in pairs if not over_at(p[0], p[1]) and not over_at(p[0], p[2])]
        if not top or not bot:
            continue
        plans.append((tuple(sorted(cids)), pairs))
    return plans


def find_r3(code: TangleCode, walls: Mapping[str, int] | None = None) -> list[tuple[str, str, str]]:
    """Triangle faces admitting an R3 slide, as sorted crossing id triples."""
    return sorted({triple for triple, _ in _r3_plans(code, walls)})


def r3(code: TangleCode, triple: tuple[str, str, str],
       walls: Mapping[str, int] | None = None) -> TangleCode:
    """Slide the top strand of a triangle across the opposite crossing.

    Combinatorially the move swaps, in each of the three passage chains, the
    order of its two adjacent triangle visits; ports and overpass data stay.
    """
    wanted = tuple(sorted(triple))
    plan = None
    for tri, pairs in _r3_plans(code, walls):
        if tri == wanted:
            plan = pairs
            break
    if plan is None:
        raise MoveError(f"no R3 triangle at {triple}")
    edits: dict[str, tuple[Visit, ...]] = {}
    for sid, i, j in plan:
        s = code.strand(sid)
        visits = list(edits.get(sid, s.visits))
        visits[i], visits[j] = visits[j], visits[i]
        edits[sid] = tuple(visits)
    out = _edit(code, edits)
    if walls is not None and planarity_problems(out, walls):
        raise MoveError(f"R3 at {triple} breaks planarity")
    return out


def reidemeister(code: TangleCode, move: str, site,
                 walls: Mapping[str, int] | None = None) -> TangleCode:
    """Apply one move by name; site formats are documented per move."""
    if move == "R1-":
        return r1_minus(code, site)
    if move == "R1+":
        strand_id, arc_index, sign = site
        return r1_plus(code, strand_id, arc_index, sign, walls)
    if move == "R2-":
        return r2_minus(code, site[0], site[1], walls)
    if move == "R2+":
        return r2_plus(code, tuple(site[0]), tuple(site[1]), walls)
    if move == "R3":
        return r3(code, tuple(site), walls)
    raise MoveError(f"unknown move {move!r}")


def apply_rmove(code: TangleCode, mv: RMove, walls=None) -> TangleCode:
    kinds = {"r1-": "R1-", "r1+": "R1+", "r2-": "R2-", "r2+": "R2+", "r3": "R3"}
    site = mv.args[0] if mv.kind == "r1-" else mv.args
    return reidemeister(code, kinds[mv.kind], site, walls)


def simplify(code: TangleCode, walls: Mapping[str, int] | None = None,
             budget: int = 10000) -> TangleCode:
    return simplify_with_log(code, walls, budget)[0]


def simplify_with_log(code: TangleCode, walls: Mapping[str, int] | None = None,
                      budget: int = 10000) -> tuple[TangleCode, list[RMove]]:
    """Greedy R1/R2 reduction with a single-R3 detour search.

    Never increases the crossing count; the returned move list has length
    <= budget and replays from the input to the output.
    """
    moves: list[RMove] = []
    cur = code

    def greedy(c, limit):
        log = []
        while len(log) < limit:
            sites = find_r1_minus(c)
            if sites:
                c = r1_minus(c, sites[0])
                log.append(RMove("r1-", (sites[0],)))
                continue
            pairs = find_r2_minus(c, walls)
            if pairs:
                c = r2_minus(c, *pairs[0], walls)
                log.append(RMove("r2-", pairs[0]))
                continue
            break
        return c, log

    while True:
        cur, log = greedy(cur, budget - len(moves))
        moves.extend(log)
        if len(moves) >= budget:
            break
        improved = False
        for tri in find_r3(cur, walls):
            if len(moves) + 1 > budget:
                break
            try:
                after = r3(cur, tri, walls)
            except MoveError:
                continue
            reduced, log = greedy(after, budget - len(moves) - 1)
            if len(reduced.crossings) < len(cur.crossings):
                moves.append(RMove("r3", tri))
                moves.extend(log)
                cur = reduced
                improved = True
                break
        if not improved:
            break
    return cur, moves
