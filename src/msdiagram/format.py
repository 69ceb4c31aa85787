"""MSD/1 text format: one record per line, key=value fields, '#' comments.

Canonical files list records sorted by kind and then by natural id order,
so serialize(parse(text)) reproduces canonical text byte for byte, and
parse(serialize(d)) equals d when every id-keyed tuple of d is already in
natural id order, the order parse builds; otherwise the same records come
back in that order (ROADMAP item 6).  parse stores the (id, image) pairs of
internal maps in plain sorted order, as every producer of InternalMaps does.

Every record is spelled in one place, _text: serialize feeds it a diagram's
records, and the canonical walk (equivalence._walk) a relabelled diagram's
records straight from its id maps, so both agree byte for byte.

A wall, crossing, strand or circle record spelled as serialize writes it
(its fields in serialize's order) is read whole, in one step, with one
ID_RULE look at its ids joined (_whole).  Any other record goes to the token
readers (_fields, _ident, _at, _split_ref, _int), so hand-written spellings
read as before and every ParseError is worded in one place.  serialize, too,
looks at each kind's ids at once, and at each id alone only to word its
ValueError.

A ParseError gets its line where records are read: the token readers raise
_Bad(token, expected), which the record loops of parse and parse_moves turn
into ParseError(line, token, expected).  Only the checks after parse's loop
(crossing sign= and ends=, imap images) name a record's line themselves.
"""

from __future__ import annotations

import re

from .core import (
    ID_RULE,
    ID_TEXT,
    Diagram,
    FramingParallel,
    GluedCircle,
    InternalMaps,
    KirbyAnnotation,
    KirbyMove,
    Piece,
    SpanningSurface,
    SpherePair,
    SphereWall,
    WallCurve,
    ids_follow_rule,
)
from .tangle import Crossing, MoveError, Strand, TangleCode, crossing_passages, crossing_sign

HEADER = "msd 1"


class ParseError(Exception):
    """A malformed record: its line, the offending token and what was expected."""

    def __init__(self, line: int, token: str, expected: str):
        super().__init__(line, token, expected)
        self.line, self.token, self.expected = line, token, expected

    def __str__(self):
        return f"line {self.line}: got {self.token!r}, expected {self.expected}"


def _digit_runs(s: str) -> list[str]:
    """s split around its runs of digits, the runs kept.  The first call
    compiles the pattern and puts its split in this function's place, so
    importing the module compiles nothing."""
    global _digit_runs
    _digit_runs = re.compile(r"(\d+)").split
    return _digit_runs(s)


def natural_key(s: str):
    return tuple(int(t) if t.isdigit() else t for t in _digit_runs(s))


# ---------------------------------------------------------------------------
# serialization


def _crossing_ends(split) -> str:
    occupant: dict[int, str] = {}
    for sid, k, p in split:
        occupant[p] = f"{sid}.{k}.i"
        occupant[(p + 2) % 4] = f"{sid}.{k}.o"
    return f"{occupant[0]},{occupant[1]},{occupant[2]},{occupant[3]}"


def _text(pieces, walls, pairs, crossings, strands, circles, surfaces, sink_count: int,
          incidence, maps, annotation) -> str:
    """MSD/1 text of records given in file order, each kind as field tuples:
    piece ids; (piece, wall, points); (pair, wall a, wall b, matching,
    orientation); (piece, crossing, its two passages, over, sign); (piece,
    strand, visits, start, end); (circle, strands, framing); surfaces.  The
    one spelling of every record, for serialize and the canonical walk."""
    lines = [HEADER]
    lines += [f"piece {pid}" for pid in pieces]
    lines += [f"wall {pid}.{wid} points={k}" for pid, wid, k in walls]
    for qid, (pa, wa), (pb, wb), matching, orientation in pairs:
        match = ",".join(str(i) for i in matching) if matching else "-"
        lines.append(f"pair {qid} a={pa}.{wa} b={pb}.{wb} match={match} "
                     f"orient={'+' if orientation > 0 else '-'}")
    for pid, cid, split, over, sign in crossings:
        lines.append(f"crossing {pid}.{cid} ends={_crossing_ends(split)} over={over} "
                     f"sign={'+' if sign > 0 else '-'}")
    for pid, sid, visits, start, end in strands:
        path = ",".join(f"{c}:{port}" for c, port in visits) if visits else "-"
        frm = f"{start[0]}:{start[1]}" if start else "-"
        to = f"{end[0]}:{end[1]}" if end else "-"
        lines.append(f"strand {pid}.{sid} path={path} from={frm} to={to}")
    for cid, cycle, framing in circles:
        strands_text = ",".join(f"{pid}.{sid}" for pid, sid in cycle)
        lines.append(f"circle {cid} strands={strands_text} framing={framing}")
    for f in surfaces:
        items = [f"C{i.circle}:{'+' if i.sign > 0 else '-'}" if isinstance(i, FramingParallel)
                 else f"W{i.pair}:{i.index}" for i in f.boundary]
        lines.append(f"surface {f.id} genus={f.genus} boundary={','.join(items) or '-'}")
    sinks = f"sinks {sink_count}"
    if incidence is not None:
        rows = ";".join(",".join(str(x) for x in row) for row in incidence)
        sinks += f" incidence={rows}"
    lines.append(sinks)
    if maps is not None:
        def perm(pairs):
            items = sorted(pairs, key=lambda ab: natural_key(ab[0]))
            return ",".join(b for _, b in items) if items else "-"

        sinks_perm = ",".join(str(i) for i in maps.on_sinks) if maps.on_sinks else "-"
        lines.append(
            f"imap pieces={perm(maps.on_pieces)} pairs={perm(maps.on_pairs)} "
            f"circles={perm(maps.on_circles)} surfaces={perm(maps.on_surfaces)} "
            f"sinks={sinks_perm}")
    if annotation is not None:
        a = annotation
        line = (f"annotation one_handles={a.one_handles} "
                f"three_handles={a.three_handles} sinks={a.sinks}")
        if a.dotted:
            line += f" dotted={','.join(a.dotted)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def serialize(d: Diagram) -> str:
    """Canonical MSD/1 text for a diagram."""
    def ordered(items, what):
        # one look at the kind's ids; each id alone only to word the error
        for x in [] if ids_follow_rule([x.id for x in items]) else items:
            if not (isinstance(x.id, str) and ID_RULE.match(x.id)):
                raise ValueError(f"{what} id {x.id!r} is - or contains reserved characters")
        return sorted(items, key=lambda x: natural_key(x.id))

    pieces = ordered(d.pieces, "piece")
    return _text(
        [p.id for p in pieces],
        [(p.id, w.id, w.points) for p in pieces for w in ordered(p.walls, "wall")],
        [(q.id, q.wall_a, q.wall_b, q.matching, q.orientation) for q in ordered(d.pairs, "pair")],
        [(p.id, c.id, crossing_passages(p.tangle, c.id), c.over, crossing_sign(p.tangle, c.id))
         for p in pieces for c in ordered(p.tangle.crossings, "crossing")],
        [(p.id, s.id, s.visits, s.start, s.end)
         for p in pieces for s in ordered(p.tangle.strands, "strand")],
        [(c.id, c.strand_cycle, c.framing) for c in ordered(d.circles, "circle")],
        ordered(d.surfaces, "surface"), d.sink_count, d.sink_incidence, d.internal_maps,
        d.annotation)


# ---------------------------------------------------------------------------
# parsing


class _Bad(Exception):
    """A malformed token and what was expected: (token, expected).  The
    loop that reads the record turns it into a ParseError at its line."""


def _records(text: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of every line that holds more than a comment."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            out.append((lineno, tokens))
    return out


def _fields(tokens: list[str], required: tuple[str, ...],
            optional: tuple[str, ...] = ()) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise _Bad(tok, "key=value field")
        k, v = tok.split("=", 1)
        if k not in required and k not in optional:
            raise _Bad(k, f"one of {', '.join(required + optional)}")
        if k in out:
            raise _Bad(k, "each key once")
        out[k] = v
    for k in required:
        if k not in out:
            raise _Bad(tokens[0] if tokens else "", f"missing field {k}")
    return out


def _ident(token: str, what: str) -> str:
    if not ID_RULE.match(token):
        raise _Bad(token, f"a {what} id of {ID_TEXT}")
    return token


def _split_ref(token: str, what: str) -> tuple[str, str]:
    if token.count(".") != 1:
        raise _Bad(token, f"{what} as piece.id")
    a, b = token.split(".")
    return _ident(a, "piece"), _ident(b, what)


def _piece_ref(pieces, token: str, what: str) -> tuple[str, str]:
    """A record's <piece>.<id> head, whose piece a record above declared."""
    pid, xid = _split_ref(token, what)
    if pid not in pieces:
        raise _Bad(pid, "a declared piece")
    return pid, xid


def _sign(token: str) -> int:
    if token not in ("+", "-"):
        raise _Bad(token, "+ or -")
    return 1 if token == "+" else -1


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _Bad(token, "an integer") from None


def _items(text: str, read) -> tuple:
    """A field that is - for none or a comma list, each item through read."""
    return () if text == "-" else tuple(read(t) for t in text.split(","))


def _at(token: str, what: str, expected: str) -> tuple[str, int]:
    """<id>:<integer>: a crossing and a port, or a wall and a point."""
    if ":" not in token:
        raise _Bad(token, expected)
    x, i = token.rsplit(":", 1)
    return _ident(x, what), _int(i)


def _boundary_item(token: str):
    expected = "C<circle>:<sign> or W<pair>:<index>"
    if ":" not in token or len(token) < 3:
        raise _Bad(token, expected)
    ref, arg = token.rsplit(":", 1)
    if ref.startswith("C"):
        return FramingParallel(_ident(ref[1:], "circle"), _sign(arg))
    if ref.startswith("W"):
        return WallCurve(_ident(ref[1:], "pair"), _int(arg))
    raise _Bad(token, expected)


def _site(token: str) -> tuple[str, int]:
    x, _, i = token.rpartition(":")  # no colon: x is "", which no id is
    return x, int(i)


def _whole(kind: str, rest: list[str]):
    """A wall, crossing, strand or circle record spelled as serialize writes
    it, read in one step: (its piece or None, the record, the crossing check
    or None).  Any other spelling raises ValueError; the token readers then
    read the record."""
    head, *fields = rest
    (pid, _, xid), check = head.partition("."), None
    if kind == "crossing":
        ends, over, sign = fields
        spelled = ends[:5] == "ends=" and over in ("over=1", "over=2") and sign in ("sign=+", "sign=-")
        ids, record, check = [pid, xid], Crossing(xid, 2 if over == "over=2" else 1), (sign[5:], ends[5:])
    elif kind == "strand":
        path, start, end = fields
        spelled = path[:5] == "path=" and start[:5] == "from=" and end[:3] == "to="
        visits = () if path == "path=-" else tuple(map(_site, path[5:].split(",")))
        start, end = (None if t == "-" else _site(t) for t in (start[5:], end[3:]))
        ids = [pid, xid, *(x for x, _ in visits), *(e[0] for e in (start, end) if e)]
        record = Strand(xid, visits, start, end)
    elif kind == "wall":
        (points,) = fields
        spelled, ids, record = points[:7] == "points=", [pid, xid], SphereWall(xid, int(points[7:]))
    else:
        strands, framing = fields
        spelled = strands[:8] == "strands=" and framing[:8] == "framing="
        cycle = tuple(t.partition(".")[::2] for t in strands[8:].split(","))
        pid, ids = None, [head, *(x for ref in cycle for x in ref)]
        record = GluedCircle(head, cycle, int(framing[8:]))
    if not (spelled and ids_follow_rule(ids)):
        raise ValueError(rest)
    return pid, record, check


# the usage of each kind whose record needs a token after its kind
_USAGE = {
    "wall": "wall <piece>.<id> points=<k>",
    "pair": "pair <id> a=.. b=.. match=.. orient=..",
    "crossing": "crossing <piece>.<id> ends=.. over=.. sign=..",
    "strand": "strand <piece>.<id> path=.. from=.. to=..",
    "circle": "circle <id> strands=.. framing=..",
    "surface": "surface <id> genus=.. boundary=..",
    "sinks": "sinks <count>",
}
_SINGLE = ("sinks", "imap", "annotation")  # kinds a file holds once at most


def parse(text: str) -> Diagram:
    """Parse MSD/1 text; raises ParseError at the first malformed record."""
    records = _records(text)
    line, head = records[0] if records else (1, ["(empty)"])
    if head != HEADER.split():
        raise ParseError(line, " ".join(head), f"header '{HEADER}'")

    pieces: dict[str, dict] = {}
    pairs: list[SpherePair] = []
    circles: list[GluedCircle] = []
    surfaces: list[SpanningSurface] = []
    sink_count = None
    sink_incidence = None
    imap = None
    annotation = None
    seen: set[str] = set()
    crossing_checks: list[tuple[int, str, str, str, str]] = []

    for lineno, (kind, *rest) in records[1:]:
        if kind in ("crossing", "strand", "wall", "circle"):
            try:
                pid, record, check = _whole(kind, rest)
                (circles if pid is None else pieces[pid][kind + "s"]).append(record)
                if check:
                    crossing_checks.append((lineno, pid, record.id, *check))
                continue
            except (ValueError, KeyError):  # KeyError: an undeclared piece
                pass  # the token readers below read the record and word its error
        try:
            if kind in _SINGLE:
                if kind in seen:
                    raise _Bad(kind, f"a single {kind} record")
                seen.add(kind)
            if kind in _USAGE and not rest:
                raise _Bad("", _USAGE[kind])
            if kind == "piece":
                if len(rest) != 1:
                    raise _Bad(" ".join(rest), "piece <id>")
                if _ident(rest[0], "piece") in pieces:
                    raise _Bad(rest[0], "a fresh piece id")
                pieces[rest[0]] = {"walls": [], "crossings": [], "strands": []}
            elif kind == "wall":
                pid, wid = _piece_ref(pieces, rest[0], "wall")
                f = _fields(rest[1:], ("points",))
                pieces[pid]["walls"].append(SphereWall(wid, _int(f["points"])))
            elif kind == "pair":
                f = _fields(rest[1:], ("a", "b", "match", "orient"))
                wa = _split_ref(f["a"], "wall reference")
                wb = _split_ref(f["b"], "wall reference")
                orient = _sign(f["orient"])
                matching = _items(f["match"], _int)
                pairs.append(SpherePair(_ident(rest[0], "pair"), wa, wb, matching, orient))
            elif kind == "crossing":
                pid, cid = _piece_ref(pieces, rest[0], "crossing")
                f = _fields(rest[1:], ("ends", "over", "sign"))
                over = _int(f["over"])
                if over not in (1, 2):
                    raise _Bad(f["over"], "over=1 or over=2")
                _sign(f["sign"])  # checked against the strands below
                pieces[pid]["crossings"].append(Crossing(cid, over))
                crossing_checks.append((lineno, pid, cid, f["sign"], f["ends"]))
            elif kind == "strand":
                pid, sid = _piece_ref(pieces, rest[0], "strand")
                f = _fields(rest[1:], ("path", "from", "to"))
                visits = _items(f["path"], lambda t: _at(t, "crossing", "crossing:port"))
                start, end = (None if t == "-" else _at(t, "wall", "wall:point or -")
                              for t in (f["from"], f["to"]))
                pieces[pid]["strands"].append(Strand(sid, visits, start, end))
            elif kind == "circle":
                f = _fields(rest[1:], ("strands", "framing"))
                cycle = tuple(_split_ref(t, "strand reference") for t in f["strands"].split(","))
                circles.append(GluedCircle(_ident(rest[0], "circle"), cycle,
                                           _int(f["framing"])))
            elif kind == "surface":
                f = _fields(rest[1:], ("genus", "boundary"))
                boundary = _items(f["boundary"], _boundary_item)
                surfaces.append(SpanningSurface(_ident(rest[0], "surface"), _int(f["genus"]),
                                                boundary))
            elif kind == "sinks":
                sink_count = _int(rest[0])
                f = _fields(rest[1:], (), ("incidence",))
                if "incidence" in f:
                    # an empty row reads as (), an empty item in a row is refused
                    sink_incidence = tuple(tuple(_int(x) for x in row.split(",")) if row else ()
                                           for row in f["incidence"].split(";"))
            elif kind == "imap":
                f = _fields(rest, ("pieces", "pairs", "circles", "surfaces", "sinks"))
                imap = (lineno, f, _items(f["sinks"], _int))  # images resolved below
            elif kind == "annotation":
                f = _fields(rest, ("one_handles", "three_handles", "sinks"), ("dotted",))
                dotted = f["dotted"].split(",") if f.get("dotted") else ()
                annotation = KirbyAnnotation(
                    _int(f["one_handles"]), _int(f["three_handles"]), _int(f["sinks"]),
                    tuple(_ident(c, "circle") for c in dotted))
            else:
                raise _Bad(kind, "a record kind")
        except _Bad as e:
            raise ParseError(lineno, *e.args) from None

    if sink_count is None:
        raise ParseError(records[-1][0], "(end)", "a sinks record")

    built_pieces = tuple(
        Piece(pid, TangleCode(tuple(data["crossings"]), tuple(data["strands"])),
              tuple(data["walls"]))
        for pid, data in pieces.items())
    maps = None
    if imap is not None:
        imap_line, imap_fields, on_sinks = imap

        def resolve(field, declared):
            src = sorted((x.id for x in declared), key=natural_key)
            images = _items(imap_fields[field], lambda x: _ident(x, field[:-1]))
            if len(images) != len(src):
                raise _Bad(imap_fields[field], f"{len(src)} images for {field}")
            return tuple(sorted(zip(src, images)))

        try:
            maps = InternalMaps(
                on_pieces=resolve("pieces", built_pieces),
                on_pairs=resolve("pairs", pairs),
                on_circles=resolve("circles", circles),
                on_surfaces=resolve("surfaces", surfaces),
                on_sinks=on_sinks,
            )
        except _Bad as e:
            raise ParseError(imap_line, *e.args) from None
    d = Diagram(
        pieces=built_pieces,
        pairs=tuple(pairs),
        circles=tuple(circles),
        surfaces=tuple(surfaces),
        sink_count=sink_count,
        internal_maps=maps,
        sink_incidence=sink_incidence,
        annotation=annotation,
    )
    # sign= and ends= are derived from the strands: each must agree with them
    for lineno, pid, cid, sgn, ends in crossing_checks:
        code = d.piece(pid).tangle
        try:
            actual = crossing_sign(code, cid)
            actual_ends = _crossing_ends(crossing_passages(code, cid))
        except (MoveError, KeyError):  # KeyError: a port out of range
            continue  # structural breakage is validate's business
        if ("+" if actual > 0 else "-") != sgn:
            raise ParseError(lineno, sgn, f"sign consistent with strand data ({actual:+d})")
        if actual_ends != ends:
            raise ParseError(lineno, ends, f"ends consistent with strand data ({actual_ends})")
    return d


# ---------------------------------------------------------------------------
# move logs


_MOVE_FIELDS = {
    "blow-up": ("piece", "region", "sign"),
    "blow-down": ("circle",),
    "handle-slide": ("c1", "c2", "band"),
    "merge-pieces": ("pair",),
    "delete-surface": ("surface", "circle"),
    "replace-pair": ("pair", "circle"),
}


def _band_text(band) -> str:
    pid, (s1, a1), (s2, a2), orient = band
    return f"{pid}:{s1}.{a1}:{s2}.{a2}:{'+' if orient > 0 else '-'}"


# fields whose text is not the plain value
_MOVE_FORMATS = {"sign": lambda sign: "+" if sign > 0 else "-", "band": _band_text}


def serialize_moves(moves) -> str:
    """One replayable record per move: move <tag> <key=value fields>."""
    lines = []
    for m in moves:
        if m.tag not in _MOVE_FIELDS:
            raise ValueError(f"unknown move tag {m.tag!r}")
        fields = " ".join(f"{k}={_MOVE_FORMATS.get(k, format)(v)}"
                          for k, v in zip(_MOVE_FIELDS[m.tag], m.args))
        lines.append(f"move {m.tag} {fields}")
    return "\n".join(lines) + ("\n" if lines else "")


def _band(token: str) -> tuple:
    band = token.split(":")
    arcs = [a.rsplit(".", 1) for a in band[1:3]]
    if len(band) != 4 or any(len(a) != 2 for a in arcs):
        raise _Bad(token, "piece:strand.arc:strand.arc:sign")
    (s1, i1), (s2, i2) = arcs
    for x in (band[0], s1, s2):
        _ident(x, "band")
    return band[0], (s1, _int(i1)), (s2, _int(i2)), _sign(band[3])


# the reader of each field that is no id; every other field is an id
_MOVE_READERS = {"region": _int, "sign": _sign, "band": _band}


def _move(tokens: list[str]) -> KirbyMove:
    if tokens[0] != "move" or len(tokens) < 2:
        raise _Bad(tokens[0], "a move record")
    tag = tokens[1]
    if tag not in _MOVE_FIELDS:
        raise _Bad(tag, "a known move tag")
    f = _fields(tokens[2:], _MOVE_FIELDS[tag])
    return KirbyMove(tag, tuple(_MOVE_READERS[k](f[k]) if k in _MOVE_READERS else _ident(f[k], k)
                                for k in _MOVE_FIELDS[tag]))


def parse_moves(text: str):
    """Inverse of serialize_moves; raises ParseError at the first malformed record."""
    moves = []
    for lineno, tokens in _records(text):
        try:
            moves.append(_move(tokens))
        except _Bad as e:
            raise ParseError(lineno, *e.args) from None
    return moves
