"""Validation findings pinned over a seeded corpus of diagrams and codes.

Three crcs over repr(validate(d).findings): every text of the MSD/1 corpus
of test_format_corpus that parses, seeds 0-299 of both random diagram
generators (relabelled as well), and the generated diagrams after seeded
rewrites of one piece's code: a visit's port or crossing, a crossing's port
order, an endpoint's wall or wall point, a dropped or swapped visit.  For
each rewrite the code_problems and planarity_problems of the piece (with
its walls and with none) are pinned too, which reaches non-planar codes and
broken attachment structures that the texts seldom make.  So a faster
validation must give the same findings in the same order, and the same
errors where it raises.
"""

import random
import zlib

from msdiagram.core import validate, with_tangle
from msdiagram.format import ParseError, parse
from msdiagram.tangle import Strand, TangleCode, code_problems, planarity_problems, replace

from test_format_corpus import DIAGRAMS, TEXTS


def _crc(items) -> int:
    return zlib.crc32("\n".join(items).encode())


def _outcome(f, *args) -> str:
    """repr of f(*args), or the type and text of the error it raised."""
    try:
        return repr(f(*args))
    except (ArithmeticError, LookupError, TypeError, ValueError) as e:
        return f"{type(e).__name__}: {e}"


def _findings(d) -> list:
    return validate(d).findings


def _visits(code: TangleCode, sid: str, visits) -> TangleCode:
    return replace(code, strands=tuple(
        replace(s, visits=tuple(visits)) if s.id == sid else s for s in code.strands))


def _end(code: TangleCode, sid: str, role: str, point) -> TangleCode:
    return replace(code, strands=tuple(
        replace(s, **{role: point}) if s.id == sid else s for s in code.strands))


def _rewrite(piece, rng: random.Random) -> TangleCode:
    """The piece's code with one seeded rewrite of a port, crossing, wall or point."""
    code = piece.tangle
    visited = [s for s in code.strands if s.visits]
    opened = [s for s in code.strands if not s.closed]
    ops = (["port", "crossing", "mirror", "drop", "swap"] if visited else []) \
        + (["point", "wall"] if opened else [])
    if not ops:
        return replace(code, strands=code.strands + (Strand("Sz", start=("Wz", 0), end=("Wz", 1)),))
    op = rng.choice(ops)
    if op in ("point", "wall"):
        s = rng.choice(opened)
        role = rng.choice(["start", "end"])
        wid, i = getattr(s, role)
        if op == "point":
            points = piece.wall_points().get(wid, 1)
            return _end(code, s.id, role, (wid, rng.randint(-1, points + 1)))
        walls = [w.id for w in piece.walls] + ["Wz"]
        return _end(code, s.id, role, (rng.choice(walls), i))
    s = rng.choice(visited)
    visits = list(s.visits)
    k = rng.randrange(len(visits))
    cid, p = visits[k]
    if op == "port":
        visits[k] = (cid, rng.randint(-2, 6))
    elif op == "crossing":
        visits[k] = (rng.choice([c.id for c in code.crossings] + ["xz"]), p)
    elif op == "drop":
        del visits[k]
    elif op == "swap":
        j = rng.randrange(len(visits))
        visits[k], visits[j] = visits[j], visits[k]
    else:  # the port order at one crossing reversed: seldom planar
        return replace(code, strands=tuple(
            replace(t, visits=tuple((c, -q % 4 if c == cid else q) for c, q in t.visits))
            for t in code.strands))
    return _visits(code, s.id, visits)


def _rewritten() -> list[str]:
    out = []
    for n, d in enumerate(DIAGRAMS):
        rng = random.Random(n)
        for _ in range(2):
            piece = rng.choice(d.pieces)
            code = _rewrite(piece, rng)
            walls = piece.wall_points()
            out += [_outcome(code_problems, code), _outcome(planarity_problems, code, walls),
                    _outcome(planarity_problems, code, None),
                    _outcome(_findings, with_tangle(d, piece.id, code))]
    return out


def _parsed() -> list:
    out = []
    for text in TEXTS:
        try:
            out.append(parse(text))
        except ParseError:
            continue
    return out


def test_findings_of_parsed_texts_are_pinned():
    diagrams = _parsed()
    outcomes = [_outcome(_findings, d) for d in diagrams]
    assert len(diagrams) > 1500 and sum(o != "()" for o in outcomes) > 200
    assert _crc(outcomes) == 1086390284


def test_findings_of_generated_diagrams_are_pinned():
    assert _crc(_outcome(_findings, d) for d in DIAGRAMS) == 1733215413


def test_findings_and_problems_after_rewrites_are_pinned():
    outcomes = _rewritten()
    assert sum("broken attachment structure" in o for o in outcomes) > 100
    assert sum("V-E+F" in o for o in outcomes) > 100
    assert _crc(outcomes) == 685859354
