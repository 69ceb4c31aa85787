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

The handle slide reads the face two arcs share (_shared_face): (f1, f2)
says whether each runs forward along it.  The slide's parallel runs right
of its circle if f2, else left, and its band gets one kink when
(f1 == f2) != (orient == 1).  A crossingless closed strand fits every face:
the slide puts the parallel left with no kink.

A planar code is a combinatorial map over integer darts.  One read of
the strands (_Numbering) numbers every node once: crossing i owns the
slots 4i..4i+3, one per port, and each wall a strand ends on gets a base
offset in the dart table of a wall set, its point k the slot base + k.
Each dart keeps the slot it leaves, so the dart table (_darts) maps a dart
to the next along its face by slot arithmetic and one dict from slot to
dart, and faces are the orbits.  The same read finds the code problems,
and only a code without any gets a dart table: on any other, faces,
planarity_problems, the R2 and R3 moves and what reads them refuse the
code with a MoveError of its first problem, or find nothing on it, so
every port of a traced code is one slot of a known crossing.
The planarity count walks the orbits of the faces and of dart reversal on
the same arrays; R2 bigons, R3 triangles and the face two arcs share
(_shared_face) are read from them too.  Site tuples, ('x', crossing id,
port) and ('w', wall id, point), are built only for the Arc records of
faces() and strand_arcs and for the words of an error.  R1- and R2- drop
the crossings they find with every visit to them (_drop), so greedy
reduction applies a site without locating it again.

A TangleCode is immutable: every edit builds a new code.  What a code
caches is what its callers read again: the crossing and the strand lookups
(crossing(cid), strand(sid)), the passage split with the crossing signs,
the arc index, its numbering with its code problems, and one dict that
holds, per wall set, the dart table or the MoveError its face trace
raised, so no wall set is traced twice.  A table traces its faces and
checks its planarity on first read; the Arc records of faces() are
rebuilt on every call.  A code that only traces faces or checks its code problems never
builds its passage split.
Nothing stored is ever changed afterwards, so no fact can go stale, and
since cached properties live in the instance __dict__ and are no record
fields, equality, hashing and replace ignore them.  Every lazily computed
fact of the package is a cached_property: functools' without the lock that
Python 3.11 takes on every first read.  by_id declares an id lookup as one:
its first read builds the id map of a tuple field, first record of each id
winning, and stores the map's __getitem__, so an unknown id raises KeyError.

Every immutable record of the package (here, in core, invariants and
equivalence) is declared with record: a frozen dataclass in behaviour
(equality, hash, repr, replace, fields) whose class compiles one __init__
and shares the other methods with every record, so importing the package
compiles one function per record instead of six.  A record registers its
fields with dataclasses on their first read, so dataclasses.fields and
dataclasses.replace work on it, and the package copies records with its
own replace: a process that reads no record's fields never imports
dataclasses.

Crossing rules are read from the code by two helpers: is_over tells whether
the passage entering at a port is on top, other_passage gives the passage
that crosses it.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Container, Hashable, Iterable, Iterator, Mapping, Sequence
from itertools import count
from operator import attrgetter

Visit = tuple[str, int]          # (crossing id, entry port)
WallPoint = tuple[str, int]      # (wall id, marked point index)
ArcRef = tuple[str, int]         # (strand id, arc index along the strand)
# port p -> the slot offsets of p, of p + 2 where a passage entering at p
# leaves, and of the ports after each, counterclockwise
_PORT = {0: (0, 2, 1, 3), 1: (1, 3, 2, 0), 2: (2, 0, 3, 1), 3: (3, 1, 0, 2)}


class MoveError(ValueError):
    """A move site does not match the move's local pattern."""


class cached_property:
    """functools.cached_property with no lock: the first read stores the value
    in the instance __dict__ under the attribute's name, where every later
    read finds it first."""

    def __init__(self, func):
        self.func = func

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def by_id(field: str) -> cached_property:
    """A cached lookup id -> record of the tuple field, keeping the first
    record of each id as a linear scan would; an unknown id raises KeyError."""
    def lookup(obj):
        out = {}
        for x in getattr(obj, field):
            out.setdefault(x.id, x)
        return out.__getitem__
    return cached_property(lookup)


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return self._record_key(self) == other._record_key(other)
    return NotImplemented


def _record_hash(self):
    return hash(self._record_key(self))


def _record_repr(self):
    return (f"{self.__class__.__qualname__}("
            f"{', '.join(f'{n}={getattr(self, n)!r}' for n in self._record_names)})")


def _record_frozen(self, name, *value):
    # __setattr__ (name, value) and __delattr__ (name)
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class _LazyFields:
    """A record's __dataclass_fields__ until its first read, from the class or
    an instance: the read registers the fields with dataclasses, which puts
    the real mapping in this descriptor's place."""

    def __init__(self, cls):
        self.cls = cls

    def __get__(self, obj, owner=None):
        from dataclasses import dataclass
        del self.cls.__dataclass_fields__
        dataclass(self.cls, init=False, repr=False, eq=False)
        return self.cls.__dataclass_fields__


def _refused_annotation(annotation) -> bool:
    """Whether an annotation is a ClassVar or an InitVar, which record cannot read."""
    if isinstance(annotation, str):
        return annotation.partition("[")[0].rpartition(".")[2].strip() in ("ClassVar", "InitVar")
    # an annotation object of either kind means its module is loaded
    typing, dataclasses = sys.modules.get("typing"), sys.modules.get("dataclasses")
    return (typing is not None and getattr(annotation, "__origin__", annotation) is typing.ClassVar
            or dataclasses is not None and (annotation is dataclasses.InitVar
                                            or isinstance(annotation, dataclasses.InitVar)))


def record(cls):
    """Make cls a frozen record of its annotated fields, as @dataclass(frozen=True) would.

    The fields are the names the class body annotates, in order, and their
    defaults the plain values it assigns them.  The record's own __init__
    is compiled from one line per field and stores each through
    object.__setattr__, then calls __post_init__ if the class has one.
    Equality (same class, equal field tuples), the hash of the field tuple,
    the repr and the refusal to assign or delete are functions every record
    shares.  dataclasses registers the fields on the first read of
    __dataclass_fields__, so dataclasses.fields, replace and is_dataclass
    work, and a process that reads none of them never imports dataclasses;
    the package copies records with replace below.  A record needs a
    docstring: without one, registration would set one from its signature.
    A ClassVar or InitVar annotation, a dataclasses.Field default such as
    field(...) and an unhashable default are refused when the class is
    made, since record reads every annotation as a plain field.
    """
    dataclasses = sys.modules.get("dataclasses")
    names, params, env = [], [], {"_set": object.__setattr__}
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        if _refused_annotation(annotation):
            raise TypeError(f"{cls.__name__}.{name}: a record takes no ClassVar or InitVar")
        names.append(name)
        if name not in cls.__dict__:
            params.append(name)
            continue
        default = cls.__dict__[name]
        if dataclasses is not None and isinstance(default, dataclasses.Field):
            raise TypeError(f"{cls.__name__}.{name}: a record takes a plain default, not field()")
        if type(default).__hash__ is None:
            raise ValueError(f"{cls.__name__}.{name}: unhashable default {type(default)!r}")
        env[f"_default_{name}"] = default
        params.append(f"{name}=_default_{name}")
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = env["__init__"]
    cls._record_names = cls.__match_args__ = tuple(names)
    # attrgetter of one name returns the bare value, not a 1-tuple
    get = attrgetter(*names)
    cls._record_key = get if len(names) > 1 else staticmethod(lambda obj: (get(obj),))
    cls.__eq__, cls.__hash__, cls.__repr__ = _record_eq, _record_hash, _record_repr
    cls.__setattr__ = cls.__delattr__ = _record_frozen
    cls.__dataclass_fields__ = _LazyFields(cls)
    return cls


def replace(obj, /, **changes):
    """A copy of the record obj with the given fields changed, as dataclasses.replace."""
    for name in obj._record_names:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


@record
class Crossing:
    """A 4-valent vertex whose over flag says which port pair is on top."""

    id: str
    over: int  # 1: the passage on ports {0,2} is on top; 2: ports {1,3}

    def __post_init__(self):
        if self.over not in (1, 2):
            raise ValueError(f"crossing {self.id}: over must be 1 or 2")


@record
class Strand:
    """A path through crossing visits (crossing id, entry port), open or closed."""

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


@record
class TangleCode:
    """The planar code of one piece: its crossings and strands."""

    crossings: tuple[Crossing, ...] = ()
    strands: tuple[Strand, ...] = ()

    crossing = by_id("crossings")
    strand = by_id("strands")

    @cached_property
    def _passage_split(self) -> dict[str, tuple]:
        """Crossing id -> ((even passage, odd passage), sign).

        A crossing whose passages do not split into one even-port and one
        odd-port passage maps to (None, its MoveError message) instead, so
        every read raises what a fresh computation would.
        """
        return {cid: split_passages(cid, ps, self.crossing(cid).over)
                for cid, ps in passages(self).items()}

    @cached_property
    def _arc_index(self) -> dict[ArcRef, int]:
        """(strand id, arc index) -> the index of the arc in dart table order."""
        return {r: i for i, r in enumerate(_arc_refs(self))}

    @cached_property
    def _numbering(self) -> _Numbering:
        return _Numbering(self)

    @cached_property
    def _tables(self) -> dict:
        # wall set -> the _DartTable of that wall set, or the MoveError its
        # face trace raised
        return {}


@record
class RMove:
    """One applied Reidemeister move, replayable on the code it was found in."""

    kind: str           # "r1-", "r2-", "r3"
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
    """Structural defects: port occupancy, dangling references, id clashes.

    A visit through port p uses ports p and p + 2, both of parity p % 2, so
    port q of a crossing is used as often as the crossing is visited
    through a port of parity q % 2.  Found in the one read of the strands
    that numbers the code's nodes for its dart tables.
    """
    return list(code._numbering.problems)


def split_passages(cid: str, ps: Sequence[tuple[str, int, int]], over: int) -> tuple:
    """((even passage, odd passage), sign) of a crossing with over flag over
    and passages ps (strand, visit index, entry port), the sign as the module
    docstring defines it; (None, the MoveError message) when the passages do
    not split into one even-port and one odd-port passage."""
    if len(ps) != 2:
        return None, f"crossing {cid} has {len(ps)} passages"
    a, b = ps
    if (a[2] - b[2]) % 2 == 0:
        return None, f"crossing {cid}: passages do not split over port pairs"
    even, odd = (a, b) if a[2] % 2 == 0 else (b, a)
    o_in, u_in = (even[2], odd[2]) if over == 1 else (odd[2], even[2])
    return (even, odd), 1 if (o_in - u_in) % 4 == 3 else -1


def crossing_passages(code: TangleCode, cid: str) -> tuple[tuple[str, int, int], tuple[str, int, int]]:
    """The even-port and odd-port passage of a crossing, in that order."""
    split, sign = code._passage_split[cid]
    if split is None:
        raise MoveError(sign)
    return split


def crossing_sign(code: TangleCode, cid: str) -> int:
    split, sign = code._passage_split[cid]
    if split is None:
        raise MoveError(sign)
    return sign


def other_passage(code: TangleCode, cid: str, port: int) -> tuple[str, int, int]:
    """The passage of a crossing that crosses the one entering at port."""
    return crossing_passages(code, cid)[1 - port % 2]


def is_over(code: TangleCode, cid: str, port: int) -> bool:
    """Whether the passage entering crossing cid at port is the overpass."""
    return (code.crossing(cid).over == 1) == (port % 2 == 0)


def crossing_sums(code: TangleCode, group: Mapping[str, Hashable]) -> dict[tuple, int]:
    """Signed crossing sums between strand groups, in one sweep over the crossings.

    group maps strand ids to hashable, mutually comparable labels; strands
    it leaves out are skipped.  Keys are label pairs in sorted order, so a
    crossing of two strands of one group adds to (g, g).  Every crossing
    must have a valid passage split, whether grouped or not.
    """
    split = code._passage_split
    out: dict[tuple, int] = {}
    for c in code.crossings:
        pair, sign = split[c.id]
        if pair is None:
            raise MoveError(sign)
        (sa, _, _), (sb, _, _) = pair
        if sa in group and sb in group:
            ga, gb = group[sa], group[sb]
            key = (ga, gb) if ga <= gb else (gb, ga)
            out[key] = out.get(key, 0) + sign
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


@record
class Arc:
    """The stretch of a strand between two consecutive sites."""

    strand: str
    index: int
    tail: Site  # departure attachment, in strand direction
    head: Site


def _strand_sites(s: Strand) -> list[Site]:
    """Tail and head of each arc of s in arc order: arc k runs from site 2k to 2k + 1."""
    if (s.start is None) != (s.end is None):
        raise MoveError(f"strand {s.id}: exactly one endpoint set")
    sites: list[Site] = [] if s.closed else [("w",) + tuple(s.start)]
    for cid, p in s.visits:
        sites += (("x", cid, p), ("x", cid, (p + 2) % 4))
    if s.closed:
        # arc k of a closed strand runs from visit k to visit k + 1
        return sites[1:] + sites[:1]
    sites.append(("w",) + tuple(s.end))
    return sites


def strand_arcs(s: Strand) -> list[Arc]:
    sites = _strand_sites(s)
    return [Arc(s.id, k, sites[2 * k], sites[2 * k + 1]) for k in range(len(sites) // 2)]


def _arc_refs(code: TangleCode) -> list[ArcRef]:
    """(strand id, arc index) of each arc, in dart table order."""
    return [(s.id, k) for s in code.strands for k in range(len(s.visits) + (not s.closed))]


def faces(code: TangleCode, walls: Mapping[str, int] | None = None):
    """Faces of the planar code as dart cycles; darts are (arc index, forward).

    Crossingless closed strands carry no nodes and are excluded: a split
    round curve can be isotoped into any region, so its placement is not
    part of the code.  Returns (arcs, faces) as tuples, read from the dart
    table of the wall set; raises the MoveError of a face trace that fails,
    or of the first code problem.
    """
    table = dart_table(code, walls)
    arcs = tuple(Arc(sid, k, table.sites[2 * i], table.sites[2 * i + 1])
                 for i, (sid, k) in enumerate(_arc_refs(code)))
    return arcs, tuple(tuple((d >> 1, not d & 1) for d in f) for f in table.faces)


class _Numbering:
    """One read of a code's strands, shared by code_problems and every dart table.

    Each node is numbered once: crossing i of code.crossings (the first
    record of each id) owns slots 4i..4i+3; xbase maps a crossing id to its
    first slot and xids[i] is the id of node i.  top is where the walls'
    slots will start.  The sites of the code are laid out in dart table
    order: slots[k] is the slot of site k and turns[k ^ 1] the next slot
    counterclockwise at its node, where the face of the dart arriving at
    site k goes on.  A wall site, listed in ends as (k, wall point), holds a
    placeholder for each dart table to fill.  problems are the code
    problems; a code with any gets no dart table, so a visit to an unknown
    crossing or through a port outside 0..3 is only counted, not laid out
    as a site.  What it keeps is tuples and ints, and it refers to no table:
    a table refers to it, so no cycle waits for the collector.
    """

    __slots__ = ("strands", "xbase", "xids", "top", "slots", "turns", "ends", "problems")

    def __init__(self, code: TangleCode):
        crossings, strands = code.crossings, code.strands
        problems = []
        xbase: dict[str, int] = {}
        for c in crossings:
            xbase.setdefault(c.id, 4 * len(xbase))
        if len(xbase) != len(crossings):
            problems.append("duplicate crossing ids")
        if len({s.id for s in strands}) != len(strands):
            problems.append("duplicate strand ids")
        slots, turns, ends = [], [], []
        for s in strands:
            start, end = s.start, s.end
            opened = start is not None and end is not None
            if not opened:
                if start is not end:
                    problems.append(f"strand {s.id}: exactly one endpoint set")
                if not s.visits:
                    continue  # no sites: a crossingless closed strand
            first = len(slots)
            if opened:
                ends.append((first, start))
                slots.append(~first)
            # arc by arc, the turns after its head and after its tail; turn
            # is the one after the tail of the arc the strand is on
            turn = None
            for cid, p in s.visits:
                b, offsets = xbase.get(cid), _PORT.get(p)
                if b is None or offsets is None:
                    problems.append(f"strand {s.id}: unknown crossing {cid}" if b is None
                                    else f"strand {s.id}: bad port {p}")
                    b, offsets = 0, _PORT[0]  # a stand-in: no table reads it
                enter, leave, after_enter, after_leave = offsets
                slots += (b + enter, b + leave)
                turns += (b + after_enter, turn)
                turn = b + after_leave
            if opened:
                ends.append((len(slots), end))
                slots.append(~len(slots))
                turns += (None, turn)
            elif s.visits:
                # arc k of a closed strand runs from visit k to visit k + 1
                slots.append(slots.pop(first))
                turns += (turns[first], turn)
                del turns[first:first + 2]
        # Every slot of every crossing used once: no port problem.  Without
        # other problems that is all crossing slots distinct and as many as
        # the crossings have; else each visit to a known crossing through a
        # port in 0..3 is counted by the port pair it uses.
        top = 4 * len(xbase)
        if problems or not len(set(slots)) == len(slots) == top + len(ends):
            pairs = Counter(xbase[cid] + p % 2 for s in strands for cid, p in s.visits
                            if cid in xbase and p in _PORT)
            problems += [f"crossing {c.id}: port {q} used {n} times"
                         for c in crossings for q in range(4)
                         if (n := pairs[xbase[c.id] + q % 2]) != 1]
        self.strands, self.xbase, self.xids, self.top = strands, xbase, tuple(xbase), top
        self.slots, self.turns, self.ends = tuple(slots), tuple(turns), tuple(ends)
        self.problems = tuple(problems)


class _DartTable:
    """Dart 2k runs arc k forward from its tail, dart 2k + 1 backward from its head.

    Only a code without code problems has one, so every crossing slot is
    one site's.  at maps a slot to the dart leaving it and succ[d] is the
    dart after d along its face.  num is the code's numbering and
    walls_used walls have a strand end.  Four facts are filled on first
    read: sites[d], where dart d leaves as a site tuple; faces, the orbits
    of succ; face_of[d], the face of dart d; and planarity, the problems of
    the Euler check.
    """

    def __init__(self, num: _Numbering, succ: list[int], at: dict[int, int], walls_used: int):
        self.num = num
        self.succ, self.at, self.walls_used = succ, at, walls_used

    def crossing_site(self, d: int) -> tuple[str, int] | None:
        """(crossing id, port) where dart d leaves, or None at a wall."""
        s = self.num.slots[d]  # a crossing's slot, or a wall's placeholder
        return (self.num.xids[s >> 2], s & 3) if s >= 0 else None

    @cached_property
    def sites(self) -> list[Site]:
        return _sites(self.num.strands)

    @cached_property
    def faces(self) -> list[list[int]]:
        return _trace_faces(self.succ)

    @cached_property
    def face_of(self) -> list[list[int]]:
        out = [[]] * len(self.succ)
        for f in self.faces:
            for d in f:
                out[d] = f
        return out

    @cached_property
    def planarity(self) -> tuple[str, ...]:
        return tuple(_planarity_problems(self))


def dart_table(code: TangleCode, walls: Mapping[str, int] | None = None) -> _DartTable:
    """The dart table of code with walls (None: no walls), built once per
    wall set; a code with code problems or a face trace that failed raises
    its MoveError again."""
    key = frozenset(walls.items()) if walls else ()
    tables = code._tables
    table = tables.get(key)
    if table is None:
        try:
            table = tables[key] = _build_darts(code, walls or {})
        except MoveError as e:
            table = tables[key] = e
    if isinstance(table, MoveError):
        raise MoveError(*table.args)
    return table


def _darts(code: TangleCode, walls: Mapping[str, int] | None) -> _DartTable | None:
    """dart_table, or None when the face trace fails."""
    try:
        return dart_table(code, walls)
    except MoveError:
        return None


def _sites(strands: Iterable[Strand]) -> list[Site]:
    """The site of each dart, in dart table order."""
    return [site for s in strands for site in _strand_sites(s)]


def _build_darts(code: TangleCode, walls: Mapping[str, int]) -> _DartTable:
    num = code._numbering
    if num.problems:
        raise MoveError(num.problems[0])
    slots, turns = num.slots, num.turns
    found: dict[str, tuple[int, int]] = {}  # wall id -> (first slot, degree)
    if num.ends:
        slots, turns = list(slots), list(turns)
        # each wall a site ends on gets its slots after the crossings', in
        # order of first use; a point out of range gets a negative slot of
        # its own
        top = num.top
        extra: dict[WallPoint, int] = {}
        for k, (w, i) in num.ends:
            got = found.get(w)
            if got is None:
                degree = walls.get(w, 0)
                got = found[w] = (top, degree)
                if degree > 0:
                    top += degree
            b, degree = got
            if 0 <= i < degree:
                slots[k] = b + i
                turns[k ^ 1] = b + (i + 1) % degree
            else:
                slots[k] = extra.setdefault((w, i), ~len(extra))
    at = {s: d for d, s in enumerate(slots)}
    if len(at) < len(slots):
        seen = set()
        k = next(k for k, s in enumerate(slots) if s in seen or seen.add(s))
        raise MoveError(f"attachment {_sites(num.strands)[k]} used twice")
    # a dart arrives where its reverse leaves, and its face goes on through
    # the next slot of that node
    succ = [at.get(t, -1) for t in turns]
    if -1 in succ:
        # raise where a step-by-step trace first fails to turn
        d = next(f[-1] for f in _trace_faces(succ) if succ[f[-1]] < 0)
        _turn_error(_sites(num.strands)[d ^ 1], walls)
    return _DartTable(num, succ, at, len(found))


def _trace_faces(succ: list[int]) -> list[list[int]]:
    """The orbits of succ, each from its least dart; a walk also ends at -1."""
    seen = [False] * len(succ)
    out = []
    for d in range(len(succ)):
        cycle = []
        while d >= 0 and not seen[d]:
            seen[d] = True
            cycle.append(d)
            d = succ[d]
        if cycle:
            out.append(cycle)
    return out


def _turn_error(site: Site, walls: Mapping[str, int]):
    """Raise why the face trace cannot turn on from the wall site site: every
    crossing slot of a code without code problems is some site's."""
    _, w, i = site
    if w not in walls:
        raise MoveError(f"unknown wall {w} in face trace")
    if not 0 <= i < walls[w]:
        raise MoveError(f"wall point {w}:{i} out of range: the wall has {walls[w]} points")
    raise MoveError(str(("w", w, (i + 1) % walls[w])))


def planarity_problems(code: TangleCode, walls: Mapping[str, int] | None = None) -> list[str]:
    """Euler check V - E + F == 2 on every connected component of the code.

    One count of the orbits of the dart table and one of components:
    faces are orbits of a permutation of darts, so every component has
    V - E + F <= 2, and the totals equal 2 per component exactly when each
    component is planar.  Messages per component are built only when the
    totals disagree.  Checked once per dart table; a code without one, for
    its first code problem or a broken wall attachment, gets that one
    "broken attachment structure" message.
    """
    try:
        table = dart_table(code, walls)
    except MoveError as e:
        return [f"broken attachment structure: {e}"]
    return list(table.planarity)


def _planarity_problems(table: _DartTable) -> list[str]:
    succ = table.succ
    # After a complete trace every node holds all its slots, each once, so
    # each node's sites are its slots 0 .. degree - 1: a crossing has 4
    # darts and V counts the crossing darts by 4 and the walls once.  Then
    # faces are the orbits of a permutation of darts, and components the
    # orbits of succ and reversal together: one walk from each face pushes
    # the reverse of each of its darts.  Each component has
    # V - E + F = 2 - 2g <= 2, so the totals match exactly when every
    # component is planar.
    num = table.num
    seen = [False] * len(succ)
    orbits = components = 0
    for d in range(len(succ)):
        if seen[d]:
            continue
        components += 1
        stack = [d]
        while stack:
            d = stack.pop()
            if seen[d]:
                continue
            orbits += 1
            while not seen[d]:
                seen[d] = True
                stack.append(d ^ 1)
                d = succ[d]
    nodes = (len(succ) - len(num.ends)) // 4 + table.walls_used
    if nodes - len(succ) // 2 + orbits == 2 * components:
        return []
    # per component: union-find over the node of each dart, a crossing's
    # slots 4 to a node; arc k joins the tails of darts 2k and 2k + 1
    tails = [s >> 2 for s in num.slots]
    walls: dict[str, int] = {}  # the node of each wall, numbered as the table did
    for d, (w, _) in num.ends:
        tails[d] = walls.setdefault(w, (num.top >> 2) + len(walls))
    parent = list(range((num.top >> 2) + len(walls)))
    for k in range(0, len(tails), 2):
        u, v = find_root(parent, tails[k]), find_root(parent, tails[k + 1])
        if u != v:
            parent[u] = v
    sites = table.sites
    comps: dict[int, list] = {}
    for k in range(0, len(tails), 2):
        c = comps.setdefault(find_root(parent, tails[k]), [set(), 0, 0])
        c[0].update((sites[k][:-1], sites[k + 1][:-1]))
        c[1] += 1
    for f in table.faces:
        comps[find_root(parent, tails[f[0] & ~1])][2] += 1
    return [f"component at {min(ns)}: V-E+F = {len(ns)}-{e}+{nf} != 2"
            for ns, e, nf in comps.values() if len(ns) - e + nf != 2]


def find_root(parent, x):
    """The root of x in a union-find forest, parent a list or a dict of
    parents; the path from x is halved on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


# ---------------------------------------------------------------------------
# editing helpers


def _edit(code: TangleCode, strand_visits: dict[str, tuple[Visit, ...]]) -> TangleCode:
    strands = tuple(
        replace(s, visits=strand_visits[s.id]) if s.id in strand_visits else s
        for s in code.strands
    )
    return TangleCode(crossings=code.crossings, strands=strands)


def _drop(code: TangleCode, crossings: Container[str]) -> TangleCode:
    """code without the given crossings and every visit to them."""
    return TangleCode(
        crossings=tuple(c for c in code.crossings if c.id not in crossings),
        strands=tuple(
            replace(s, visits=tuple(v for v in s.visits if v[0] not in crossings))
            if any(v[0] in crossings for v in s.visits) else s
            for s in code.strands))


def arc_gap(s: Strand, arc_index: int) -> int:
    """The gap of s.visits that arc arc_index of s runs through.

    Arc k of an open strand precedes visit k, so it sits at gap k; arc k of
    a closed strand runs from visit k to visit k + 1, at gap (k + 1) mod n.
    """
    if s.closed and s.visits:
        return (arc_index + 1) % len(s.visits)
    return arc_index


def splice(visits: Sequence[Visit], inserts: Iterable[tuple[int, Sequence[Visit]]],
           drop: Container[int] = ()) -> tuple[Visit, ...]:
    """visits with each (gap, block) inserted and the visits at indices in drop removed.

    Gaps count the visits of the original list: gap g sits before visit g,
    gap len(visits) after the last one.  Blocks at one gap keep the order
    they are given in.
    """
    at: dict[int, list[Visit]] = {}
    for gap, block in inserts:
        at.setdefault(gap, []).extend(block)
    out: list[Visit] = []
    for i, v in enumerate(visits):
        out.extend(at.get(i, ()))
        if i not in drop:
            out.append(v)
    out.extend(at.get(len(visits), ()))
    return tuple(out)


def fresh_ids(taken: Container[str], prefix: str) -> Iterator[str]:
    """prefix1, prefix2, ...: every id not in taken, smallest first.

    The one rule for generated ids.  taken is read as the iterator advances
    and never changed; no id is yielded twice.
    """
    for k in count(1):
        if f"{prefix}{k}" not in taken:
            yield f"{prefix}{k}"


def braid(word: Iterable[tuple[int, int]], dirs: Sequence[int],
          ids: Iterator[str]) -> tuple[list[Crossing], list[list[Visit]], list[int]]:
    """Crossings of a braid word on len(dirs) parallel lanes, named from ids.

    word entries are (j, sign) for the generator between lanes j and j+1
    (1-indexed).  Crossing ports: bottom-left 2, bottom-right 3, top-left 1,
    top-right 0; a positive generator puts the bottom-left passage on top.
    dirs[i] is +1 when the strand starting on lane i runs upward, -1 when
    it runs downward.  Returns the crossings in word order, the passages of
    the strand starting on each lane in its travel direction, and the final
    permutation: lane -> starting lane of the strand that ends on it.
    """
    n = len(dirs)
    tokens = list(range(n))                  # token currently in each lane
    paths: list[list[Visit]] = [[] for _ in range(n)]
    crossings = []
    for j, sign in word:
        if not (1 <= j < n) or sign not in (1, -1):
            raise ValueError(f"bad braid letter ({j}, {sign})")
        cid = next(ids)
        crossings.append(Crossing(cid, 1 if sign > 0 else 2))
        left, right = tokens[j - 1], tokens[j]
        paths[left].append((cid, 2 if dirs[left] > 0 else 0))
        paths[right].append((cid, 3 if dirs[right] > 0 else 1))
        tokens[j - 1], tokens[j] = right, left
    for t in range(n):
        if dirs[t] < 0:
            paths[t].reverse()
    return crossings, paths, tokens


def braid_closure(word: Iterable[tuple[int, int]], n: int,
                  strand_prefix: str = "s", crossing_prefix: str = "x") -> TangleCode:
    """Closure of a braid word on n upward lanes, in the conventions of braid."""
    crossings, paths, perm = braid(word, [1] * n, fresh_ids((), crossing_prefix))
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
    """Crossings removable by an R1 move: both passages are adjacent visits of
    one strand, cyclically when it is closed."""
    out = set()
    for s in code.strands:
        v = s.visits
        after = v[1:] + v[:1] if s.closed and len(v) > 1 else v[1:]
        out.update(a[0] for a, b in zip(v, after) if a[0] == b[0])
    return sorted(out)


def r1_minus(code: TangleCode, cid: str) -> TangleCode:
    if cid not in find_r1_minus(code):
        raise MoveError(f"no R1 kink at crossing {cid}")
    return _drop(code, {cid})


def find_r2_minus(code: TangleCode, walls: Mapping[str, int] | None = None) -> list[tuple[str, str]]:
    """Crossing pairs removable by an R2 move: 2-cycles of the dart table
    (bigons) with a uniform overpass.  No face is traced."""
    table = _darts(code, walls)
    if table is None:
        return []
    succ = table.succ
    return sorted({pair for d, e in enumerate(succ)
                   if d < e and succ[e] == d and (pair := _r2_pair(code, table, d))})


def _r2_pair(code: TangleCode, table: _DartTable, d: int) -> tuple[str, str] | None:
    """The sorted crossing pair of the bigon holding dart d, if R2 can remove it."""
    e = table.succ[d]
    if table.succ[e] != d:
        return None
    # the arc of the other dart joins the same two nodes: it leaves where d
    # arrives and arrives where d leaves
    tail, head = table.crossing_site(d & ~1), table.crossing_site(d | 1)
    if tail is None or head is None:
        return None
    (x, p), (y, q) = tail, head
    if x == y or is_over(code, x, p) != is_over(code, y, q):
        return None
    return min(x, y), max(x, y)


def r2_minus(code: TangleCode, x: str, y: str,
             walls: Mapping[str, int] | None = None) -> TangleCode:
    # one dart of an x-y bigon leaves crossing x
    table = _darts(code, walls)
    b = table.num.xbase.get(x) if table else None
    darts = [] if b is None else [table.at[k] for k in range(b, b + 4)]
    if (min(x, y), max(x, y)) not in {_r2_pair(code, table, d) for d in darts}:
        raise MoveError(f"no R2 bigon at crossings {x}, {y}")
    return _drop(code, {x, y})


def _shared_face(code: TangleCode, a: ArcRef, b: ArcRef,
                 walls: Mapping[str, int] | None) -> tuple[bool, ...] | None:
    """(a runs forward, b runs forward) along a face both arcs bound.

    Among several shared faces, the one b runs backward along wins, then
    the one a runs backward along.  A crossingless closed strand can be
    isotoped into any region, so it gives () (falsy: test with is None).
    None when the arcs bound no common face.
    """
    sa, sb = code.strand(a[0]), code.strand(b[0])
    if (sa.closed and not sa.visits) or (sb.closed and not sb.visits):
        return ()
    face_of = dart_table(code, walls).face_of
    ia, ib = code._arc_index.get(tuple(a)), code._arc_index.get(tuple(b))
    if ia is None or ib is None:
        return None
    # darts 2i and 2i + 1 run arc i forward and backward
    found = [(not da & 1, not db & 1) for da in (2 * ia, 2 * ia + 1)
             for db in (2 * ib, 2 * ib + 1) if face_of[da] is face_of[db]]
    return min(found, key=lambda t: (t[1], t[0]), default=None)


def _r3_plans(code: TangleCode, walls: Mapping[str, int] | None):
    """All (crossing triple, swap plan) pairs for movable triangle faces; a
    plan lists the visit index pair (strand, i, j) of each triangle dart."""
    table = _darts(code, walls)
    if table is None:
        return []
    refs = _arc_refs(code)
    plans = []
    for f in table.faces:
        if len(f) != 3:
            continue
        ends = [table.crossing_site(k) for d in f for k in (d & ~1, d | 1)]
        if None in ends:
            continue
        cids = {cid for cid, _ in ends}
        if len(cids) != 3:
            continue
        pairs = []
        for d in f:
            s = code.strand(refs[d >> 1][0])
            gap = arc_gap(s, refs[d >> 1][1])
            pairs.append((s.id, (gap - 1) % len(s.visits), gap))
        # the three swapped visit pairs must be pairwise disjoint
        slots = [(sid, k) for sid, i, j in pairs for k in (i, j)]
        if len(set(slots)) != 6:
            continue
        # one strand passes over both its triangle visits, one under both
        levels = [{is_over(code, *code.strand(sid).visits[k]) for k in (i, j)}
                  for sid, i, j in pairs]
        if {True} not in levels or {False} not in levels:
            continue
        plans.append((tuple(sorted(cids)), pairs))
    return plans


def _r3_opens_site(code: TangleCode, table: _DartTable, plan) -> bool:
    """Whether an R3 swap by plan leaves a face of the table below 3 darts.

    The swap takes from a face beside the triangle one dart per shared edge
    and gives one to each face across a corner.  Unless one drops below 3,
    no monogon or bigon is new, and greedy reduction still finds no site.
    """
    # the forward dart of each arc leaves the first visit of its pair
    arcs = [table.at[table.num.xbase[c] + (p + 2) % 4] >> 1
            for c, p in (code.strand(sid).visits[i] for sid, i, _ in plan)]
    face = table.face_of
    # the triangle runs the dart of each arc that turns onto another of its arcs
    beside = [face[2 * a + 1 if table.succ[2 * a] >> 1 in arcs else 2 * a] for a in arcs]
    return any(len(f) - sum(g is f for g in beside) < 3 for f in beside)


def find_r3(code: TangleCode, walls: Mapping[str, int] | None = None) -> list[tuple[str, str, str]]:
    """Triangle faces admitting an R3 slide, as sorted crossing id triples."""
    return sorted({triple for triple, _ in _r3_plans(code, walls)})


def r3(code: TangleCode, triple: tuple[str, str, str],
       walls: Mapping[str, int] | None = None) -> TangleCode:
    """Slide the top strand of a triangle across the opposite crossing.

    Combinatorially the move swaps, in each of the three passage chains, the
    order of its two adjacent triangle visits; ports and overpass data stay.
    The result must be planar; walls=None means no walls, as in faces.
    """
    wanted = tuple(sorted(triple))
    plan = next((pairs for tri, pairs in _r3_plans(code, walls) if tri == wanted), None)
    if plan is None:
        raise MoveError(f"no R3 triangle at {triple}")
    out = _swap_visits(code, plan)
    if planarity_problems(out, walls):
        raise MoveError(f"R3 at {triple} breaks planarity")
    return out


def _swap_visits(code: TangleCode, plan) -> TangleCode:
    """code with the two visits of each (strand, i, j) of an R3 plan swapped."""
    edits: dict[str, tuple[Visit, ...]] = {}
    for sid, i, j in plan:
        visits = list(edits.get(sid, code.strand(sid).visits))
        visits[i], visits[j] = visits[j], visits[i]
        edits[sid] = tuple(visits)
    return _edit(code, edits)


def apply_rmove(code: TangleCode, mv: RMove, walls=None) -> TangleCode:
    """Replay one logged move; args are as simplify_with_log records them."""
    if mv.kind == "r1-":
        return r1_minus(code, mv.args[0])
    if mv.kind == "r2-":
        return r2_minus(code, *mv.args, walls)
    if mv.kind == "r3":
        return r3(code, tuple(mv.args), walls)
    raise MoveError(f"unknown move {mv.kind!r}")


def simplify_with_log(code: TangleCode,
                      walls: Mapping[str, int] | None = None) -> tuple[TangleCode, list[RMove]]:
    """Greedy R1/R2 reduction with a single-R3 detour search.

    Never increases the crossing count, and ends by itself: each R1 or R2
    move drops crossings, and an R3 is kept only when the greedy moves after
    it drop one, so an input of n crossings logs at most 2n moves.  The log
    replays from the input to the output.  Each R3 round scans the triangle
    plans once and tries them in sorted order.  A trial is kept when greedy
    reduction after it drops a crossing, and only a kept trial is checked for
    planarity: one check per kept R3.
    """
    moves: list[RMove] = []
    cur = code

    def greedy(c):
        log = []
        while True:
            sites = find_r1_minus(c)
            if sites:
                c = _drop(c, {sites[0]})
                log.append(RMove("r1-", (sites[0],)))
                continue
            pairs = find_r2_minus(c, walls)
            if not pairs:
                return c, log
            c = _drop(c, set(pairs[0]))
            log.append(RMove("r2-", pairs[0]))

    while True:
        cur, log = greedy(cur)
        moves.extend(log)
        # the first plan of each triangle is the one r3 would pick
        plans: dict[tuple[str, str, str], list] = {}
        for tri, pairs in _r3_plans(cur, walls):
            plans.setdefault(tri, pairs)
        if not plans:
            break
        # _r3_plans traced the faces of the table
        table = _darts(cur, walls)
        for tri in sorted(plans):
            if not _r3_opens_site(cur, table, plans[tri]):
                continue
            after = _swap_visits(cur, plans[tri])
            reduced, log = greedy(after)
            if len(reduced.crossings) < len(cur.crossings) \
                    and not planarity_problems(after, walls):
                moves.append(RMove("r3", tri))
                moves.extend(log)
                cur = reduced
                break
        else:
            break
    return cur, moves
