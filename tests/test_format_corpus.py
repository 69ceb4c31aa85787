"""MSD/1 parse and serialize pinned over a seeded corpus of texts.

The corpus: seeded mutations of the catalog texts, the catalog texts
themselves, and the canonical text of seeds 0-299 of both random diagram
generators, relabelled as well.  The crcs pin every parse result (or
ParseError) and every serialized byte, so a faster reader or writer must
give the same diagrams, the same errors and the same text.
"""

import random
import re
import zlib

import pytest

from msdiagram import catalog
from msdiagram import format as msd_format
from msdiagram.core import ID_TEXT, relabel
from msdiagram.format import ParseError, parse, serialize

from helpers import random_kirby_diagram, random_multipiece_diagram, random_relabel
from test_mutations import MUTATIONS, SOURCES


def _mutated(rng: random.Random) -> str:
    """A source text and one to three mutations, as test_mutations draws them."""
    lines = rng.choice(SOURCES).splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(MUTATIONS)
        i = rng.randrange(len(lines))
        if op == "delete line":
            del lines[i]
        elif op == "duplicate line":
            lines.insert(i, lines[i])
        elif op == "swap lines":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "rewrite integer":
            text = "\n".join(lines)
            spots = list(re.finditer(r"-?\d+", text))
            if spots:
                m = rng.choice(spots)
                lines = (text[:m.start()] + str(rng.randint(-3, 12)) + text[m.end():]).split("\n")
        else:
            tokens = lines[i].split(" ")
            k = rng.randrange(len(tokens))
            if op == "delete token":
                del tokens[k]
            elif op == "duplicate token":
                tokens.insert(k, tokens[k])
            else:
                j = rng.randrange(len(tokens))
                tokens[k], tokens[j] = tokens[j], tokens[k]
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _diagrams() -> list:
    out = []
    for seed in range(300):
        for generate in (random_kirby_diagram, random_multipiece_diagram):
            rng = random.Random(seed)
            d = generate(rng)
            out += [d, random_relabel(d, rng)]
    return out


DIAGRAMS = _diagrams()
TEXTS = ([_mutated(random.Random(seed)) for seed in range(2000)] + SOURCES
         + [serialize(d) for d in DIAGRAMS])


def _outcome(text: str):
    try:
        return parse(text)
    except ParseError as e:
        return e.line, e.token, e.expected


def _crc(items) -> int:
    return zlib.crc32("\n".join(items).encode())


def test_parse_results_are_pinned():
    outcomes = [_outcome(t) for t in TEXTS]
    assert sum(isinstance(o, tuple) for o in outcomes) > 500  # errors are well represented
    assert _crc(repr(o) for o in outcomes) == 442406501


def test_serialized_bytes_are_pinned():
    assert _crc(serialize(d) for d in DIAGRAMS) == 594295168


RENAMED = [("cp2-two-piece", "walls", ("P1", "W1")), ("s2xs2", "crossings", ("P1", "x1")),
           ("s2xs2", "strands", ("P1", "S1")), ("cp2-two-piece", "circles", "c1"),
           ("cp2-two-piece", "pieces", "P1")]
NEW_IDS = ["-", "", "+", "_", "a-b"]


def _renamed(name: str, key, new: str) -> str:
    """The canonical text of a catalog diagram with every occurrence of an id renamed."""
    old = key[1] if isinstance(key, tuple) else key
    return re.sub(rf"(?<![\w+-]){old}(?![\w+-])", new, serialize(catalog.standard(name)))


# ids: a rename of every occurrence reads as the relabelled diagram or is refused
@pytest.mark.parametrize("name, kind, key", RENAMED)
@pytest.mark.parametrize("new", NEW_IDS)
def test_id_spellings(name, kind, key, new):
    refused = {("walls", "-"): (4, "-", "a wall id of " + ID_TEXT),
               ("walls", ""): (4, "", "a wall id of " + ID_TEXT),
               ("crossings", "-"): (3, "-", "a crossing id of " + ID_TEXT),
               ("crossings", ""): (3, "", "a crossing id of " + ID_TEXT),
               ("strands", "-"): (5, "-", "a strand id of " + ID_TEXT),
               ("strands", ""): (5, "", "a strand id of " + ID_TEXT),
               ("circles", "-"): (9, "-", "a circle id of " + ID_TEXT),
               ("circles", ""): (9, "framing=1", "missing field strands"),
               ("pieces", "-"): (2, "-", "a piece id of " + ID_TEXT),
               ("pieces", ""): (2, "", "piece <id>")}
    expected = refused.get((kind, new)) or relabel(catalog.standard(name), **{kind: {key: new}})
    assert _outcome(_renamed(name, key, new)) == expected


EDITED = [
    # heads that are no <piece>.<id>
    ("s2xs2", "crossing P1.x1 ", "crossing P1.x.1 ", (3, "P1.x.1", "crossing as piece.id")),
    ("s2xs2", "crossing P1.x1 ", "crossing P1x1 ", (3, "P1x1", "crossing as piece.id")),
    ("cp2-two-piece", "wall P1.W1 ", "wall P1W1 ", (4, "P1W1", "wall as piece.id")),
    ("cp2-two-piece", "strand P1.S1 ", "strand P1.S.1 ", (7, "P1.S.1", "strand as piece.id")),
    ("cp2-two-piece", "strands=P1.S1,", "strands=P1S1,",
     (9, "P1S1", "strand reference as piece.id")),
    # integers int reads: a point count, a port, a wall point and a framing
    ("cp2-two-piece", "points=2", "points=+2", "points=2"),
    ("cp2-two-piece", "points=2", "points=02", "points=2"),
    ("cp2-two-piece", "points=2", "points=٢", "points=2"),
    ("cp2-two-piece", "points=2", "points=1_0", "points=10"),
    ("s2xs2", "x1:2", "x1:+2", "x1:2"),
    ("s2xs2", "x1:2", "x1:02", "x1:2"),
    ("s2xs2", "x1:2", "x1:٢", "x1:2"),
    ("s2xs2", "x1:2", "x1:1_0", "x1:10"),
    ("cp2-two-piece", "from=W1:0", "from=W1:+0", "from=W1:0"),
    ("cp2-two-piece", "from=W1:0", "from=W1:00", "from=W1:0"),
    ("cp2-two-piece", "from=W1:0", "from=W1:٠", "from=W1:0"),
    ("cp2-two-piece", "framing=1", "framing=+1", "framing=1"),
    ("cp2-two-piece", "framing=1", "framing=01", "framing=1"),
    ("cp2-two-piece", "framing=1", "framing=١", "framing=1"),
    ("cp2-two-piece", "framing=1", "framing=1_0", "framing=10"),
    ("s2xs2", "over=1", "over=+1", "over=1"),
    ("s2xs2", "over=1", "over=3", (3, "3", "over=1 or over=2")),
    ("s2xs2", "sign=+", "sign=0", (3, "0", "+ or -")),
    # fields out of order, duplicated, missing, unkeyed or extra
    ("s2xs2", "ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i over=1 sign=+",
     "sign=+ over=1 ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i",
     "ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i over=1 sign=+"),
    ("s2xs2", "path=x1:2,x2:3 from=- to=-", "to=- path=x1:2,x2:3 from=-",
     "path=x1:2,x2:3 from=- to=-"),
    ("cp2-two-piece", "strands=P1.S1,P2.S2 framing=1", "framing=1 strands=P1.S1,P2.S2",
     "strands=P1.S1,P2.S2 framing=1"),
    ("cp2-two-piece", "points=2", "points=2 points=2", (4, "points", "each key once")),
    ("cp2-two-piece", "framing=1", "framing=1 framing=1", (9, "framing", "each key once")),
    ("s2xs2", "over=1", "over=1 over=1", (3, "over", "each key once")),
    ("s2xs2", "to=-", "to=- to=-", (5, "to", "each key once")),
    ("s2xs2", "over=1 sign=+", "over=1",
     (3, "ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i", "missing field sign")),
    ("s2xs2", "over=1", "over", (3, "over", "key=value field")),
    ("cp2-two-piece", "points=2", "points=2 extra", (4, "extra", "key=value field")),
    ("s2xs2", "ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i", "ends=",
     (3, "", "ends consistent with strand data (S1.0.o,S2.0.o,S1.0.i,S2.0.i)")),
    # one character of a key's spelling changed, for every key the
    # whole-record reader checks: the record is no key=value field
    ("cp2-two-piece", "points=2", "pointsX2", (4, "pointsX2", "key=value field")),
    ("s2xs2", "ends=S1", "endsXS1", (3, "endsXS1.0.o,S2.0.o,S1.0.i,S2.0.i", "key=value field")),
    ("s2xs2", "over=1", "overX1", (3, "overX1", "key=value field")),
    ("s2xs2", "sign=+", "signX+", (3, "signX+", "key=value field")),
    ("s2xs2", "path=x1", "pathXx1", (5, "pathXx1:2,x2:3", "key=value field")),
    ("s2xs2", "from=-", "fromX-", (5, "fromX-", "key=value field")),
    ("s2xs2", "to=-", "toX-", (5, "toX-", "key=value field")),
    ("cp2-two-piece", "strands=P1", "strandsXP1", (9, "strandsXP1.S1,P2.S2", "key=value field")),
    ("cp2-two-piece", "framing=1", "framingX1", (9, "framingX1", "key=value field")),
    # a trailing comment
    ("cp2-two-piece", "points=2", "points=2 # two points", "points=2"),
    ("cp2-two-piece", "framing=1", "framing=1#c", "framing=1"),
]


def _edited(name: str, old: str, new: str) -> str:
    text = serialize(catalog.standard(name))
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("name, old, new, expected", EDITED)
def test_field_spellings(name, old, new, expected):
    # a tuple is the ParseError's (line, token, expected); a text the canonical
    # spelling that reads as the same diagram
    if isinstance(expected, str):
        expected = parse(_edited(name, old, expected))
    assert _outcome(_edited(name, old, new)) == expected


def test_the_token_readers_alone_read_every_text_alike(monkeypatch):
    # with the whole-record reader declining every record, the token readers
    # read them all: the same diagrams and the same errors
    texts = (TEXTS + [_renamed(name, key, new) for name, _, key in RENAMED for new in NEW_IDS]
             + [_edited(name, old, new) for name, old, new, _ in EDITED]
             + [_edited("cp2-two-piece", "points=2", "points=" + "9" * 5000)])
    outcomes = [repr(_outcome(t)) for t in texts]

    def decline(kind, rest):
        raise ValueError(rest)

    monkeypatch.setattr(msd_format, "_whole", decline)
    assert [repr(_outcome(t)) for t in texts] == outcomes


def test_canonical_records_are_read_whole(monkeypatch):
    declined = []
    whole = msd_format._whole

    def watch(kind, rest):
        try:
            return whole(kind, rest)
        except ValueError:
            declined.append((kind, rest))
            raise

    monkeypatch.setattr(msd_format, "_whole", watch)
    for d in DIAGRAMS:
        parse(serialize(d))
    assert declined == []


@pytest.mark.parametrize("kind, key, what", [
    ("pieces", "P1", "piece"), ("walls", ("P1", "W1"), "wall"), ("pairs", "Q1", "pair"),
    ("crossings", ("P1", "x1"), "crossing"), ("strands", ("P1", "S1"), "strand"),
    ("circles", "c1", "circle"), ("surfaces", "F1", "surface")])
@pytest.mark.parametrize("new", ["-", "", 5])
def test_serialize_refuses_each_kinds_ids(kind, key, what, new):
    name = {"walls": "cp2-two-piece", "pairs": "cp2-two-piece", "crossings": "s2xs2",
            "surfaces": "s1xs3"}.get(kind, "cp2")
    d = relabel(catalog.standard(name), **{kind: {key: new}})
    with pytest.raises(ValueError) as err:
        serialize(d)
    assert str(err.value) == f"{what} id {new!r} is - or contains reserved characters"
