"""Random diagram generators for the property and acceptance suites.

Everything is seeded; generation goes through the public move and
construction APIs and the two moves that add crossings to one code, R1+
and R2+, defined here, so every produced diagram is valid by construction.
run_msd runs the CLI, and fresh a snippet, in a child process on the
package the suite imports; fields_only tells whether a record has cached
nothing yet.
"""

import os
import random
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Mapping

import msdiagram
from msdiagram.calculus import blow_up, handle_slide
from msdiagram.core import (
    Diagram,
    FramingParallel,
    GluedCircle,
    Piece,
    SpanningSurface,
    SpherePair,
    SphereWall,
    relabel,
    validate,
    with_tangle,
)
from msdiagram.tangle import (
    ArcRef,
    Crossing,
    MoveError,
    Strand,
    TangleCode,
    _edit,
    _shared_face,
    arc_gap,
    fresh_ids,
    splice,
)


def r1_plus(code: TangleCode, strand_id: str, arc_index: int, sign: int) -> TangleCode:
    """Insert a kink of the given sign on an arc of a strand.

    The arc enters the new crossing on top at port 0 and returns at port
    2 - sign, so the kink is a monogon between two adjacent ports.
    """
    s = code.strand(strand_id)
    if not (0 <= arc_index < s.arc_count()):
        raise MoveError(f"strand {strand_id} has no arc {arc_index}")
    if sign not in (1, -1):
        raise MoveError("kink sign must be +1 or -1")
    cid = next(fresh_ids({c.id for c in code.crossings}, "x"))
    visits = splice(s.visits, [(arc_gap(s, arc_index), ((cid, 0), (cid, 2 - sign)))])
    return _edit(replace(code, crossings=code.crossings + (Crossing(cid, 1),)), {s.id: visits})


def r2_plus(code: TangleCode, arc_over: ArcRef, arc_under: ArcRef,
            walls: Mapping[str, int] | None = None) -> TangleCode:
    """Push arc_over across arc_under through a shared face.

    The over strand enters the new crossing x at port 0 and y at port 2, so
    the overpass is the even pair at both.  The under strand enters both at
    port 3 when it runs forward along the face, at port 1 when backward, and
    meets x first when the two arcs run opposite ways along it.
    """
    s_over = code.strand(arc_over[0])
    s_under = code.strand(arc_under[0])
    if not (0 <= arc_over[1] < s_over.arc_count()):
        raise MoveError(f"no arc {arc_over}")
    if not (0 <= arc_under[1] < s_under.arc_count()):
        raise MoveError(f"no arc {arc_under}")
    if arc_over == arc_under:
        raise MoveError("R2 needs two distinct arcs")
    shared = _shared_face(code, arc_over, arc_under, walls)
    if shared is None:
        raise MoveError(f"arcs {arc_over} and {arc_under} do not bound a common face")
    fo, fu = shared or (False, False)
    fresh = fresh_ids({c.id for c in code.crossings}, "x")
    xid, yid = next(fresh), next(fresh)
    u = 3 if fu else 1
    under_pair = ((xid, u), (yid, u)) if fo != fu else ((yid, u), (xid, u))
    # two distinct arcs of one strand sit at distinct gaps
    inserts: dict[str, list] = {}
    for (sid, k), pair in ((arc_over, ((xid, 0), (yid, 2))), (arc_under, under_pair)):
        inserts.setdefault(sid, []).append((arc_gap(code.strand(sid), k), pair))
    edits = {sid: splice(code.strand(sid).visits, ins) for sid, ins in inserts.items()}
    return _edit(replace(code, crossings=code.crossings + (Crossing(xid, 1), Crossing(yid, 1))),
                 edits)


def fields_only(record):
    """Whether the instance __dict__ holds only dataclass fields: nothing cached."""
    return set(vars(record)) == {f.name for f in fields(record)}


def child_env() -> dict:
    """The environment of a child process that imports the same package."""
    src = str(Path(msdiagram.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def fresh(code: str, *options: str) -> str:
    """Standard output of ``python *options -c code`` in a new process on the same package."""
    return subprocess.run([sys.executable, *options, "-c", code], capture_output=True,
                          text=True, env=child_env(), check=True).stdout


def run_msd(*args, cwd=None):
    """msd with args in a child process; the child imports the same package."""
    return subprocess.run([sys.executable, "-m", "msdiagram.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=child_env())


def set_framing(d, cid, f):
    return replace(d, circles=tuple(
        replace(c, framing=f) if c.id == cid else c for c in d.circles))


def perturb_code(d, rng, moves=2, max_crossings=8, switch=False):
    """Random kinks, pushes and optional crossing switches inside pieces."""
    for _ in range(moves):
        pieces = [p for p in d.pieces if p.tangle.strands]
        if not pieces:
            break
        p = rng.choice(pieces)
        code = p.tangle
        kind = rng.choice(["r1", "r2", "switch"] if switch else ["r1", "r2"])
        try:
            if kind == "r1" and len(code.crossings) + 1 <= max_crossings:
                s = rng.choice(code.strands)
                code = r1_plus(code, s.id, rng.randrange(s.arc_count()),
                               rng.choice([1, -1]))
            elif kind == "r2" and len(code.crossings) + 2 <= max_crossings:
                s1 = rng.choice(code.strands)
                s2 = rng.choice(code.strands)
                a1 = (s1.id, rng.randrange(s1.arc_count()))
                a2 = (s2.id, rng.randrange(s2.arc_count()))
                if a1 == a2:
                    continue
                code = r2_plus(code, a1, a2, p.wall_points())
            elif kind == "switch" and code.crossings:
                c = rng.choice(code.crossings)
                code = TangleCode(
                    tuple(Crossing(x.id, 3 - x.over) if x.id == c.id else x
                          for x in code.crossings),
                    code.strands)
            else:
                continue
        except MoveError:
            continue
        d = with_tangle(d, p.id, code)
    return d


def random_kirby_diagram(rng, max_circles=4, max_crossings=8):
    """A single-piece diagram of split-then-tangled framed circles."""
    d = Diagram(pieces=(Piece("P1"),), sink_count=1)
    for _ in range(rng.randint(1, max_circles)):
        d = blow_up(d, "P1", 0, rng.choice([1, -1]))
    for c in list(d.circles):
        d = set_framing(d, c.id, rng.choice([-2, -1, -1, 0, 1, 1, 2]))
    d = perturb_code(d, rng, moves=rng.randint(0, 4),
                     max_crossings=max_crossings, switch=True)
    assert validate(d).ok
    return d


def random_slide_band(d, rng):
    """A valid handle-slide candidate on a random circle pair, or None."""
    circles = list(d.circles)
    rng.shuffle(circles)
    for c2 in circles:
        if len(c2.strand_cycle) != 1:
            continue
        pid, s2id = c2.strand_cycle[0]
        p = d.piece(pid)
        s2 = p.tangle.strand(s2id)
        if not s2.closed:
            continue
        for c1 in circles:
            if c1.id == c2.id:
                continue
            for sp, s1id in c1.strand_cycle:
                if sp != pid:
                    continue
                s1 = p.tangle.strand(s1id)
                starts = list(range(s1.arc_count()))
                rng.shuffle(starts)
                for a1 in starts:
                    for a2 in range(s2.arc_count()):
                        if _shared_face(p.tangle, (s1id, a1), (s2id, a2),
                                        p.wall_points()) is not None:
                            return (c1.id, c2.id,
                                    (pid, (s1id, a1), (s2id, a2),
                                     rng.choice([1, -1])))
    return None


def random_multipiece_diagram(rng, max_pieces=4, extra_pairs=True):
    """A connected multi-piece diagram with circles over the pairs."""
    n = rng.randint(2, max_pieces)
    piece_ids = [f"P{i + 1}" for i in range(n)]
    pair_specs = []  # (pair id, piece a, piece b)
    for i in range(1, n):
        pair_specs.append((f"Q{i}", piece_ids[rng.randrange(i)], piece_ids[i]))
    if extra_pairs and rng.random() < 0.5:
        a, b = rng.sample(piece_ids, 2) if n > 1 else (piece_ids[0], piece_ids[0])
        pair_specs.append((f"Q{len(pair_specs) + 1}", a, b))

    alloc = {qid: 0 for qid, _, _ in pair_specs}
    strands = {pid: [] for pid in piece_ids}
    circles = []
    snum = 0
    for k in range(rng.randint(1, 3)):
        cid = f"c{k + 1}"
        if rng.random() < 0.4 or not pair_specs:
            pid = rng.choice(piece_ids)
            snum += 1
            strands[pid].append(Strand(f"S{snum}"))
            circles.append(GluedCircle(cid, ((pid, f"S{snum}"),),
                                       rng.choice([-1, 0, 1, 2])))
            continue
        qid, pa, pb = rng.choice(pair_specs)
        idx1 = alloc[qid]
        idx2 = alloc[qid] + 1
        alloc[qid] += 2
        # strand in pb from the arrival of idx1 to the departure of idx2,
        # strand in pa closing the cycle
        snum += 1
        sa = f"S{snum}"
        snum += 1
        sb = f"S{snum}"
        strands[pa].append(Strand(sa, start=(f"W{qid}a", idx2),
                                  end=(f"W{qid}a", idx1)))
        strands[pb].append(Strand(sb, start=(f"W{qid}b", idx1),
                                  end=(f"W{qid}b", idx2)))
        circles.append(GluedCircle(cid, ((pa, sa), (pb, sb)),
                                   rng.choice([-1, 0, 1])))

    pairs = tuple(
        SpherePair(qid, (pa, f"W{qid}a"), (pb, f"W{qid}b"),
                   matching=tuple(range(alloc[qid])))
        for qid, pa, pb in pair_specs)
    pieces = []
    for pid in piece_ids:
        walls = []
        for qid, pa, pb in pair_specs:
            if pa == pid:
                walls.append(SphereWall(f"W{qid}a", alloc[qid]))
            if pb == pid:
                walls.append(SphereWall(f"W{qid}b", alloc[qid]))
        pieces.append(Piece(pid, TangleCode(strands=tuple(strands[pid])),
                            tuple(walls)))
    surfaces = []
    if rng.random() < 0.5:
        surfaces.append(SpanningSurface("F1", genus=0))
    d = Diagram(pieces=tuple(pieces), pairs=pairs, circles=tuple(circles),
                surfaces=tuple(surfaces), sink_count=1)
    d = perturb_code(d, rng, moves=rng.randint(0, 2))
    report = validate(d)
    assert report.ok, report.findings
    return d


def plant_cancelling_pair(d, rng, tag="K"):
    """Add a split 0-framed circle and a disk surface bounding it once."""
    pid = d.pieces[0].id
    p = d.piece(pid)
    sid = f"S{tag}"
    cid = f"c{tag}"
    fid = f"F{tag}"
    code = replace(p.tangle, strands=p.tangle.strands + (Strand(sid),))
    return replace(
        with_tangle(d, pid, code),
        circles=d.circles + (GluedCircle(cid, ((pid, sid),), 0),),
        surfaces=d.surfaces + (SpanningSurface(
            fid, 0, (FramingParallel(cid, 1),)),))


def random_relabel(d, rng):
    """Fresh ids at every level."""
    return relabel(
        d,
        pieces={p.id: f"rp{rng.randrange(100, 999)}{i}" for i, p in enumerate(d.pieces)},
        circles={c.id: f"rc{rng.randrange(100, 999)}{i}" for i, c in enumerate(d.circles)},
        pairs={q.id: f"rq{i}" for i, q in enumerate(d.pairs)},
        surfaces={f.id: f"rf{i}" for i, f in enumerate(d.surfaces)},
        strands={(p.id, s.id): f"rs{i}_{j}" for i, p in enumerate(d.pieces)
                 for j, s in enumerate(p.tangle.strands)},
        crossings={(p.id, c.id): f"rx{i}_{j}" for i, p in enumerate(d.pieces)
                   for j, c in enumerate(p.tangle.crossings)},
        walls={(p.id, w.id): f"rw{i}_{j}" for i, p in enumerate(d.pieces)
               for j, w in enumerate(p.walls)},
    )
