"""MSD/1 text format: one record per line, key=value fields, '#' comments.

Canonical files list records sorted by kind and then by natural id order,
so parse and serialize are mutually inverse: parse(serialize(d)) equals d
structurally, and serialize(parse(text)) reproduces canonical text byte
for byte.

Every record is spelled in one place, _text: serialize feeds it a diagram's
records, and the canonical walk (equivalence._walk) a relabelled diagram's
records straight from its id maps, so both agree byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
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
)
from .tangle import Crossing, MoveError, Strand, TangleCode, crossing_passages, crossing_sign

HEADER = "msd 1"
_ID = re.compile(r"[A-Za-z0-9_+-]+\Z")


@dataclass
class ParseError(Exception):
    line: int
    token: str
    expected: str

    def __str__(self):
        return f"line {self.line}: got {self.token!r}, expected {self.expected}"


def natural_key(s: str):
    return tuple(int(t) if t.isdigit() else t for t in re.split(r"(\d+)", s))


def _check_id(s: str, what: str):
    if not _ID.match(s):
        raise ValueError(f"{what} id {s!r} contains reserved characters")


# ---------------------------------------------------------------------------
# serialization


def _crossing_ends(split) -> str:
    occupant: dict[int, str] = {}
    for sid, k, p in split:
        occupant[p] = f"{sid}.{k}.i"
        occupant[(p + 2) % 4] = f"{sid}.{k}.o"
    return ",".join(occupant[p] for p in range(4))


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
        items = sorted(items, key=lambda x: natural_key(x.id))
        for x in items:
            _check_id(x.id, what)
        return items

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


class _Parser:
    def __init__(self, text: str):
        self.records: list[tuple[int, list[str]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.records.append((lineno, body.split()))

    def fail(self, lineno: int, token: str, expected: str):
        raise ParseError(lineno, token, expected)


def _fields(parser: _Parser, lineno: int, tokens: list[str],
            required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            parser.fail(lineno, tok, "key=value field")
        k, v = tok.split("=", 1)
        if k not in required and k not in optional:
            parser.fail(lineno, k, f"one of {', '.join(required + optional)}")
        if k in out:
            parser.fail(lineno, k, "each key once")
        out[k] = v
    for k in required:
        if k not in out:
            parser.fail(lineno, tokens[0] if tokens else "", f"missing field {k}")
    return out


def _ident(parser, lineno, token, what) -> str:
    if not _ID.match(token):
        parser.fail(lineno, token, f"a {what} id of letters, digits, _, + and -")
    return token


def _split_ref(parser, lineno, token, what) -> tuple[str, str]:
    if token.count(".") != 1:
        parser.fail(lineno, token, f"{what} as piece.id")
    a, b = token.split(".")
    return _ident(parser, lineno, a, "piece"), _ident(parser, lineno, b, what)


def _sign(parser, lineno, token) -> int:
    if token not in ("+", "-"):
        parser.fail(lineno, token, "+ or -")
    return 1 if token == "+" else -1


def _int(parser, lineno, token) -> int:
    try:
        return int(token)
    except ValueError:
        parser.fail(lineno, token, "an integer")


def parse(text: str) -> Diagram:
    """Parse MSD/1 text; raises ParseError at the first malformed record."""
    parser = _Parser(text)
    if not parser.records or parser.records[0][1] != ["msd", "1"]:
        got = " ".join(parser.records[0][1]) if parser.records else "(empty)"
        raise ParseError(parser.records[0][0] if parser.records else 1, got, "header 'msd 1'")

    pieces: dict[str, dict] = {}
    pairs: list[SpherePair] = []
    circles: list[GluedCircle] = []
    surfaces: list[SpanningSurface] = []
    sink_count = None
    sink_incidence = None
    imap = None
    annotation = None
    crossing_checks: list[tuple[int, str, str, str, str]] = []

    for lineno, tokens in parser.records[1:]:
        kind, rest = tokens[0], tokens[1:]
        if kind == "piece":
            if len(rest) != 1:
                parser.fail(lineno, " ".join(rest), "piece <id>")
            if _ident(parser, lineno, rest[0], "piece") in pieces:
                parser.fail(lineno, rest[0], "a fresh piece id")
            pieces[rest[0]] = {"walls": [], "crossings": [], "strands": []}
        elif kind == "wall":
            if len(rest) < 1:
                parser.fail(lineno, "", "wall <piece>.<id> points=<k>")
            pid, wid = _split_ref(parser, lineno, rest[0], "wall")
            if pid not in pieces:
                parser.fail(lineno, pid, "a declared piece")
            f = _fields(parser, lineno, rest[1:], ("points",))
            pieces[pid]["walls"].append(SphereWall(wid, _int(parser, lineno, f["points"])))
        elif kind == "pair":
            if len(rest) < 1:
                parser.fail(lineno, "", "pair <id> a=.. b=.. match=.. orient=..")
            f = _fields(parser, lineno, rest[1:], ("a", "b", "match", "orient"))
            wa = _split_ref(parser, lineno, f["a"], "wall reference")
            wb = _split_ref(parser, lineno, f["b"], "wall reference")
            orient = _sign(parser, lineno, f["orient"])
            matching = ()
            if f["match"] != "-":
                matching = tuple(_int(parser, lineno, t) for t in f["match"].split(","))
            pairs.append(SpherePair(_ident(parser, lineno, rest[0], "pair"), wa, wb, matching,
                                    orient))
        elif kind == "crossing":
            if len(rest) < 1:
                parser.fail(lineno, "", "crossing <piece>.<id> ends=.. over=.. sign=..")
            pid, cid = _split_ref(parser, lineno, rest[0], "crossing")
            if pid not in pieces:
                parser.fail(lineno, pid, "a declared piece")
            f = _fields(parser, lineno, rest[1:], ("ends", "over", "sign"))
            over = _int(parser, lineno, f["over"])
            if over not in (1, 2):
                parser.fail(lineno, f["over"], "over=1 or over=2")
            if f["sign"] not in ("+", "-"):
                parser.fail(lineno, f["sign"], "+ or -")
            pieces[pid]["crossings"].append(Crossing(cid, over))
            crossing_checks.append((lineno, pid, cid, f["sign"], f["ends"]))
        elif kind == "strand":
            if len(rest) < 1:
                parser.fail(lineno, "", "strand <piece>.<id> path=.. from=.. to=..")
            pid, sid = _split_ref(parser, lineno, rest[0], "strand")
            if pid not in pieces:
                parser.fail(lineno, pid, "a declared piece")
            f = _fields(parser, lineno, rest[1:], ("path", "from", "to"))
            visits = []
            if f["path"] != "-":
                for node in f["path"].split(","):
                    if ":" not in node:
                        parser.fail(lineno, node, "crossing:port")
                    c, p = node.rsplit(":", 1)
                    visits.append((_ident(parser, lineno, c, "crossing"), _int(parser, lineno, p)))

            def endpoint(tok):
                if tok == "-":
                    return None
                if ":" not in tok:
                    parser.fail(lineno, tok, "wall:point or -")
                w, i = tok.rsplit(":", 1)
                return (_ident(parser, lineno, w, "wall"), _int(parser, lineno, i))

            pieces[pid]["strands"].append(
                Strand(sid, tuple(visits), endpoint(f["from"]), endpoint(f["to"])))
        elif kind == "circle":
            if len(rest) < 1:
                parser.fail(lineno, "", "circle <id> strands=.. framing=..")
            f = _fields(parser, lineno, rest[1:], ("strands", "framing"))
            cycle = tuple(
                _split_ref(parser, lineno, t, "strand reference")
                for t in f["strands"].split(","))
            circles.append(GluedCircle(_ident(parser, lineno, rest[0], "circle"), cycle,
                                       _int(parser, lineno, f["framing"])))
        elif kind == "surface":
            if len(rest) < 1:
                parser.fail(lineno, "", "surface <id> genus=.. boundary=..")
            f = _fields(parser, lineno, rest[1:], ("genus", "boundary"))
            items = []
            if f["boundary"] != "-":
                for tok in f["boundary"].split(","):
                    if ":" not in tok or len(tok) < 3:
                        parser.fail(lineno, tok, "C<circle>:<sign> or W<pair>:<index>")
                    ref, arg = tok.rsplit(":", 1)
                    if ref.startswith("C"):
                        items.append(FramingParallel(_ident(parser, lineno, ref[1:], "circle"),
                                                     _sign(parser, lineno, arg)))
                    elif ref.startswith("W"):
                        items.append(WallCurve(_ident(parser, lineno, ref[1:], "pair"),
                                               _int(parser, lineno, arg)))
                    else:
                        parser.fail(lineno, tok, "C<circle>:<sign> or W<pair>:<index>")
            surfaces.append(SpanningSurface(_ident(parser, lineno, rest[0], "surface"),
                                            _int(parser, lineno, f["genus"]), tuple(items)))
        elif kind == "sinks":
            if sink_count is not None:
                parser.fail(lineno, "sinks", "a single sinks record")
            if len(rest) < 1:
                parser.fail(lineno, "", "sinks <count>")
            sink_count = _int(parser, lineno, rest[0])
            f = _fields(parser, lineno, rest[1:], (), ("incidence",))
            if "incidence" in f:
                sink_incidence = tuple(
                    tuple(_int(parser, lineno, x) for x in row.split(",") if x != "")
                    for row in f["incidence"].split(";"))
        elif kind == "imap":
            f = _fields(parser, lineno, rest,
                        ("pieces", "pairs", "circles", "surfaces", "sinks"))
            imap = f  # resolved against sorted ids below
            imap_line = lineno
            imap_sinks = () if f["sinks"] == "-" else tuple(
                _int(parser, lineno, x) for x in f["sinks"].split(","))
        elif kind == "annotation":
            f = _fields(parser, lineno, rest,
                        ("one_handles", "three_handles", "sinks"), ("dotted",))
            dotted = f["dotted"].split(",") if f.get("dotted") else ()
            annotation = KirbyAnnotation(
                _int(parser, lineno, f["one_handles"]),
                _int(parser, lineno, f["three_handles"]),
                _int(parser, lineno, f["sinks"]),
                tuple(_ident(parser, lineno, c, "circle") for c in dotted))
        else:
            parser.fail(lineno, kind, "a record kind")

    if sink_count is None:
        raise ParseError(parser.records[-1][0], "(end)", "a sinks record")

    built_pieces = tuple(
        Piece(pid, TangleCode(tuple(data["crossings"]), tuple(data["strands"])),
              tuple(data["walls"]))
        for pid, data in pieces.items())
    maps = None
    if imap is not None:
        def resolve(field, ids):
            src = sorted(ids, key=natural_key)
            if imap[field] == "-":
                images = []
            else:
                images = [_ident(parser, imap_line, x, field[:-1]) for x in imap[field].split(",")]
            if len(images) != len(src):
                raise ParseError(imap_line, imap[field], f"{len(src)} images for {field}")
            return tuple(zip(src, images))

        maps = InternalMaps(
            on_pieces=resolve("pieces", [p.id for p in built_pieces]),
            on_pairs=resolve("pairs", [q.id for q in pairs]),
            on_circles=resolve("circles", [c.id for c in circles]),
            on_surfaces=resolve("surfaces", [f.id for f in surfaces]),
            on_sinks=imap_sinks,
        )
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


def parse_moves(text: str):
    """Inverse of serialize_moves; raises ParseError at the first malformed record."""
    parser = _Parser(text)
    moves = []
    for lineno, tokens in parser.records:
        if tokens[0] != "move" or len(tokens) < 2:
            parser.fail(lineno, tokens[0], "a move record")
        tag = tokens[1]
        if tag not in _MOVE_FIELDS:
            parser.fail(lineno, tag, "a known move tag")
        f = _fields(parser, lineno, tokens[2:], _MOVE_FIELDS[tag])
        for k in _MOVE_FIELDS[tag]:
            if k not in ("region", "sign", "band"):
                _ident(parser, lineno, f[k], k)
        if tag == "blow-up":
            args = (f["piece"], _int(parser, lineno, f["region"]), _sign(parser, lineno, f["sign"]))
        elif tag == "handle-slide":
            band = f["band"].split(":")
            arcs = [a.rsplit(".", 1) for a in band[1:3]]
            if len(band) != 4 or any(len(a) != 2 for a in arcs):
                parser.fail(lineno, f["band"], "piece:strand.arc:strand.arc:sign")
            (s1, i1), (s2, i2) = arcs
            for x in (band[0], s1, s2):
                _ident(parser, lineno, x, "band")
            args = (f["c1"], f["c2"], (band[0], (s1, _int(parser, lineno, i1)),
                                       (s2, _int(parser, lineno, i2)),
                                       _sign(parser, lineno, band[3])))
        else:
            args = tuple(f[k] for k in _MOVE_FIELDS[tag])
        moves.append(KirbyMove(tag, args))
    return moves
