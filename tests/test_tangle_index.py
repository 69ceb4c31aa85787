"""The per-code cached facts against from-scratch references built from passages().

Every TangleCode answers crossing, sign, passage and face queries from
facts it caches, each built once on first read.  These properties check
those answers, and the diagram-level linking data built on them, against
plain recomputations on random Kirby, multi-piece and braid-closure
diagrams, with or without one handle slide, and on their relabelings.  On
the same diagrams, every move that places new crossings from a shared face
is undone or validated, and the face trace, the R2 sites and the
planarity check read from the dart table match face-orbit references,
also on non-planar and broken mutants of the pieces.  Every R3 trial that
greedy simplification skips unswapped could not have been kept.
"""

import random
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fields_only,
    r1_plus,
    r2_plus,
    random_kirby_diagram,
    random_multipiece_diagram,
    random_relabel,
    random_slide_band,
)
from msdiagram import tangle
from msdiagram.calculus import RefusalError, handle_slide
from msdiagram.core import (
    Diagram,
    DiagramError,
    GluedCircle,
    Piece,
    SphereWall,
    closed_strand,
    diagram_linking,
    diagram_writhe,
    validate,
)
from msdiagram.invariants import linking_matrix
from msdiagram.tangle import (
    Crossing,
    MoveError,
    Strand,
    TangleCode,
    _darts,
    _r3_opens_site,
    _r3_plans,
    _shared_face,
    _swap_visits,
    arc_gap,
    braid_closure,
    code_problems,
    crossing_passages,
    crossing_sign,
    dart_table,
    faces,
    find_r1_minus,
    find_r2_minus,
    fresh_ids,
    is_over,
    passages,
    planarity_problems,
    r1_minus,
    r2_minus,
    signed_crossing_sum,
    simplify_with_log,
    splice,
    strand_arcs,
)

PROPERTY = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# references: no index, one linear pass per question


def ref_sign(code, cid):
    ps = passages(code)[cid]
    even = [p for p in ps if p[2] % 2 == 0]
    odd = [p for p in ps if p[2] % 2 == 1]
    assert len(ps) == 2 and len(even) == 1 and len(odd) == 1
    over = next(c for c in code.crossings if c.id == cid).over
    o_in, u_in = (even[0][2], odd[0][2]) if over == 1 else (odd[0][2], even[0][2])
    return 1 if (o_in - u_in) % 4 == 3 else -1


def ref_sum(code, group_a, group_b):
    total = 0
    for c in code.crossings:
        sa, sb = (p[0] for p in passages(code)[c.id])
        if (sa in group_a and sb in group_b) or (sa in group_b and sb in group_a):
            total += ref_sign(code, c.id)
    return total


def ref_strands(d, cid):
    out = {}
    for pid, sid in d.circle(cid).strand_cycle:
        out.setdefault(pid, set()).add(sid)
    return out


def ref_linking(d, c1, c2):
    a, b = ref_strands(d, c1), ref_strands(d, c2)
    total = sum(ref_sum(d.piece(pid).tangle, a[pid], b[pid]) for pid in a if pid in b)
    assert total % 2 == 0
    return total // 2


def ref_writhe(d, cid):
    return sum(ref_sum(d.piece(pid).tangle, g, g) for pid, g in ref_strands(d, cid).items())


def ref_faces(code, walls):
    """Faces by a step-by-step trace: one successor call per dart.  A code
    with code problems is refused with the first of them."""
    if problems := ref_code_problems(code):
        raise MoveError(problems[0])
    arcs = [a for s in code.strands for a in strand_arcs(s)]
    at = {}
    for i, a in enumerate(arcs):
        for site, is_tail in ((a.tail, True), (a.head, False)):
            if site in at:
                raise MoveError(f"attachment {site} used twice")
            at[site] = (i, is_tail)

    def degree(site):
        if site[0] == "x":
            return 4
        if site[1] not in walls:
            raise MoveError(f"unknown wall {site[1]} in face trace")
        if not 0 <= site[-1] < walls[site[1]]:
            raise MoveError(f"wall point {site[1]}:{site[-1]} out of range: the wall has "
                            f"{walls[site[1]]} points")
        return walls[site[1]]

    def successor(dart):
        i, fwd = dart
        head = arcs[i].head if fwd else arcs[i].tail
        nxt = head[:-1] + ((head[-1] + 1) % degree(head),)
        if nxt not in at:
            raise MoveError(str(nxt))  # no attachment: the trace cannot turn on
        return at[nxt]

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


def ref_r2_sites(code, walls):
    """R2 sites by a scan of every face of the reference trace."""
    try:
        arcs, fs = ref_faces(code, walls)
    except MoveError:
        return []
    out = set()
    for f in fs:
        if len(f) != 2:
            continue
        a0, a1 = arcs[f[0][0]], arcs[f[1][0]]
        if a0.tail[0] != "x" or a0.head[0] != "x":
            continue
        x, y = a0.tail[1], a0.head[1]
        if x == y or {a1.tail[1], a1.head[1]} != {x, y}:
            continue
        if is_over(code, x, a0.tail[2]) == is_over(code, y, a0.head[2]):
            out.add((min(x, y), max(x, y)))
    return sorted(out)


def ref_planarity(code, walls):
    """V - E + F == 2 counted on each connected component (union-find over nodes)."""
    try:
        arcs, fs = ref_faces(code, walls)
    except MoveError as e:
        return [f"broken attachment structure: {e}"]
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a in arcs:
        x, y = a.tail[:-1], a.head[:-1]
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        parent[find(x)] = find(y)
    comps = {}
    for a in arcs:
        c = comps.setdefault(find(a.tail[:-1]), [set(), 0, 0])
        c[0].update((a.tail[:-1], a.head[:-1]))
        c[1] += 1
    for f in fs:
        comps[find(arcs[f[0][0]].tail[:-1])][2] += 1
    return [f"component at {sorted(nodes)[0]}: V-E+F = {len(nodes)}-{e}+{nf} != 2"
            for nodes, e, nf in comps.values() if len(nodes) - e + nf != 2]


def ref_code_problems(code):
    """Structural defects with every port counted in one (crossing, port) dict."""
    problems = []
    ids = [c.id for c in code.crossings]
    if len(set(ids)) != len(ids):
        problems.append("duplicate crossing ids")
    sids = [s.id for s in code.strands]
    if len(set(sids)) != len(sids):
        problems.append("duplicate strand ids")
    known = set(ids)
    used = {}
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


def outcome(f, *args):
    """f(*args), or the type and text of the error it raised."""
    try:
        return f(*args)
    except (ArithmeticError, LookupError, TypeError, ValueError) as e:
        return type(e), str(e)


def fresh(code):
    """An equal code with nothing cached."""
    return TangleCode(code.crossings, code.strands)


# ---------------------------------------------------------------------------
# diagrams


def braid_diagram(rng):
    """The closure of a random braid, one framed circle per component."""
    lanes = rng.randint(2, 4)
    word = [(rng.randint(1, lanes - 1), rng.choice([1, -1]))
            for _ in range(rng.randint(1, 12))]
    code = braid_closure(word, lanes)
    circles = tuple(GluedCircle(f"c{i + 1}", (("P1", s.id),), rng.randint(-2, 2))
                    for i, s in enumerate(code.strands))
    return Diagram(pieces=(Piece("P1", code),), circles=circles)


def slid(d, rng):
    """d after one random handle slide, when a band is found and accepted."""
    band = random_slide_band(d, rng)
    if band is None:
        return d
    try:
        return handle_slide(d, *band)
    except (MoveError, RefusalError):
        return d


def diagrams():
    builders = (random_kirby_diagram, random_multipiece_diagram, braid_diagram)

    def build(args):
        seed, kind, slide, relabeled = args
        rng = random.Random(seed)
        d = builders[kind](rng)
        if slide:
            d = slid(d, rng)
        assert validate(d).ok
        return random_relabel(d, rng) if relabeled else d

    return st.tuples(st.integers(0, 2**32 - 1), st.integers(0, len(builders) - 1),
                     st.booleans(), st.booleans()).map(build)


def mirrored(code, cid):
    """code with the port order at crossing cid reversed: usually not planar."""
    return TangleCode(code.crossings, tuple(
        replace(s, visits=tuple((c, -p % 4 if c == cid else p) for c, p in s.visits))
        for s in code.strands))


def pushed_apart(code, walls, rng):
    """An R2 push between two arcs that bound no common face, or None."""
    arcs = [(s.id, k) for s in code.strands if s.visits or not s.closed
            for k in range(s.arc_count())]
    far = [(a, b) for a in arcs for b in arcs
           if a != b and _shared_face(code, a, b, walls) is None]
    if not far:
        return None
    (so, ko), (su, ku) = rng.choice(far)
    x, y = islice(fresh_ids({c.id for c in code.crossings}, "n"), 2)
    inserts = {}
    for sid, k, pair in ((so, ko, ((x, 0), (y, 2))), (su, ku, ((y, 1), (x, 1)))):
        inserts.setdefault(sid, []).append((arc_gap(code.strand(sid), k), pair))
    return TangleCode(code.crossings + (Crossing(x, 1), Crossing(y, 1)), tuple(
        replace(s, visits=splice(s.visits, inserts[s.id])) if s.id in inserts else s
        for s in code.strands))


def broken(code, rng):
    """code with one visit dropped, doubled or given a port out of range, or None."""
    visited = [s for s in code.strands if s.visits]
    if not visited:
        return None
    s = rng.choice(visited)
    k = rng.randrange(len(s.visits))
    cid, p = s.visits[k]
    edit = rng.choice(((), ((cid, p),) * 2, ((cid, p + 4),)))
    visits = s.visits[:k] + edit + s.visits[k + 1:]
    return TangleCode(code.crossings, tuple(
        replace(x, visits=visits) if x is s else x for x in code.strands))


def faulty(code, rng):
    """code with one structural fault: a visit to an unknown crossing or
    through a bad port, a duplicate crossing or strand id, a port used twice,
    or one endpoint set."""
    crossings, strands = list(code.crossings), list(code.strands)
    k = rng.randrange(len(strands))
    s = strands[k]
    fault = rng.choice(("unknown", "port", "crossing id", "strand id", "twice", "endpoint"))
    if fault in ("unknown", "port", "twice") and s.visits:
        j = rng.randrange(len(s.visits))
        cid, p = s.visits[j]
        visit = {"unknown": ("zz", p), "port": (cid, rng.choice((-1, 4, 5, 7))),
                 "twice": (cid, (p + rng.choice((1, 3))) % 4)}[fault]
        strands[k] = replace(s, visits=s.visits[:j] + (visit,) + s.visits[j + 1:])
    elif fault == "crossing id" and crossings:
        c = rng.choice(crossings)
        crossings.insert(rng.randint(0, len(crossings)), Crossing(c.id, 3 - c.over))
    elif fault == "strand id" and len(strands) > 1:
        strands[k] = replace(s, id=rng.choice([x.id for x in strands if x is not s]))
    elif (s.start is None) == (s.end is None):
        end = ("W", 0) if s.start is None else None
        strands[k] = replace(s, start=end) if rng.random() < 0.5 else replace(s, end=end)
    return TangleCode(tuple(crossings), tuple(strands))


def wall_sets(walls):
    """walls, one unused point more, no walls at all, and one point fewer."""
    return (walls, {w: n + 1 for w, n in walls.items()}, {},
            {w: n - 1 for w, n in walls.items()})


def assert_trace_matches_reference(code, walls):
    sets = wall_sets(walls)
    for ws in sets:
        assert outcome(faces, fresh(code), ws) == outcome(ref_faces, code, ws)
        assert outcome(planarity_problems, fresh(code), ws) == outcome(ref_planarity, code, ws)
    # With a point fewer than the code uses, both traces refuse the point out
    # of range, so R2 sites, the 2-cycles of the dart table, are compared on
    # every set
    for ws in sets:
        sites = ref_r2_sites(code, ws)
        cold = fresh(code)
        assert find_r2_minus(cold, ws) == sites
        # r2_minus confirms exactly these bigons, named in either order
        ids = sorted({c.id for c in code.crossings})
        for x in ids:
            for y in ids:
                refused = outcome(r2_minus, cold, x, y, ws) == (
                    MoveError, f"no R2 bigon at crossings {x}, {y}")
                assert refused == ((min(x, y), max(x, y)) not in sites)


@PROPERTY
@given(diagrams())
def test_signs_and_passages_match_reference(d):
    for p in d.pieces:
        code = p.tangle
        table = passages(code)
        for c in code.crossings:
            assert code.crossing(c.id) is c
            assert crossing_sign(code, c.id) == ref_sign(code, c.id)
            even, odd = crossing_passages(code, c.id)
            assert sorted([even, odd]) == sorted(table[c.id])
            assert even[2] % 2 == 0 and odd[2] % 2 == 1


@PROPERTY
@given(diagrams())
def test_linking_data_matches_reference(d):
    ids = [c.id for c in d.circles]
    lm = linking_matrix(d)
    for i, a in enumerate(ids):
        assert lm.entries[i][i] == d.circle(a).framing
        assert diagram_writhe(d, a) == ref_writhe(d, a)
        for j, b in enumerate(ids):
            if i != j:
                assert lm.entries[i][j] == ref_linking(d, a, b)
                assert diagram_linking(d, a, b) == lm.entries[i][j]


@PROPERTY
@given(diagrams())
def test_group_sums_match_reference(d):
    for p in d.pieces:
        sids = [s.id for s in p.tangle.strands]
        for k in range(len(sids) + 1):
            a, b = frozenset(sids[:k]), frozenset(sids[k // 2:])
            assert signed_crossing_sum(p.tangle, a, b) == ref_sum(p.tangle, a, b)


@PROPERTY
@given(diagrams())
def test_faces_memo_matches_fresh_trace(d):
    for p in d.pieces:
        walls = p.wall_points()
        arcs, fs = faces(p.tangle, walls)
        assert (arcs, fs) == faces(fresh(p.tangle), walls)
        # the faces partition the darts of the traced arcs
        darts = [dart for f in fs for dart in f]
        assert sorted(darts) == sorted((i, fwd) for i in range(len(arcs))
                                       for fwd in (True, False))


@PROPERTY
@given(diagrams())
def test_faces_and_planarity_match_reference(d):
    # the successor-table trace and the Euler check by totals give the
    # reference's faces, problems and errors, also on wall sets that leave a
    # point unused, turn past the last point, or name no wall at all
    for p in d.pieces:
        assert_trace_matches_reference(p.tangle, p.wall_points())


@PROPERTY
@given(diagrams(), st.integers(0, 2**32 - 1))
def test_non_planar_and_broken_codes_match_reference(d, seed):
    rng = random.Random(seed)
    for p in d.pieces:
        code, walls = p.tangle, p.wall_points()
        mutants = [pushed_apart(code, walls, rng), broken(code, rng)]
        if code.crossings:
            mutants.append(mirrored(code, rng.choice(code.crossings).id))
        for mutant in filter(None, mutants):
            assert_trace_matches_reference(mutant, walls)


@PROPERTY
@given(diagrams(), st.integers(0, 2**32 - 1))
def test_code_problems_match_the_port_counter(d, seed):
    # ports are counted one by one only to word a failure: every message,
    # in order, as the per-(crossing, port) counter gives it, on valid codes
    # and on codes with one to three faults
    rng = random.Random(seed)
    for p in d.pieces:
        code = p.tangle
        assert code_problems(fresh(code)) == ref_code_problems(code) == []
        if not code.strands:
            continue
        one = faulty(code, rng)
        assert code_problems(one) == ref_code_problems(one) != []
        for _ in range(3):
            # faults may cancel: a port moved away and another moved back
            for _ in range(rng.randint(1, 3)):
                code = faulty(code, rng)
            assert code_problems(fresh(code)) == ref_code_problems(code)


def test_r2_sites_on_broken_codes_match_reference():
    # two wall arcs pushed across each other: one R2 site with the walls,
    # none when a wall point is left unused or a visit is doubled, as the
    # face-orbit reference finds; the doubled visit uses two ports twice, a
    # code problem, so that code is refused before any face is traced
    walls = {"W": 4}
    code = r2_plus(TangleCode(strands=(Strand("a", start=("W", 0), end=("W", 1)),
                                       Strand("b", start=("W", 2), end=("W", 3)))),
                   ("a", 0), ("b", 0), walls)
    assert find_r2_minus(code, walls) == ref_r2_sites(code, walls) == [("x1", "x2")]
    a, b = code.strands
    doubled = TangleCode(code.crossings, (replace(a, visits=a.visits[:1] * 2 + a.visits[1:]), b))
    for broken_code, ws, message in ((code, {"W": 5}, r"\('w', 'W', 4\)"),
                                     (doubled, walls, "crossing x1: port 0 used 2 times")):
        with pytest.raises(MoveError, match=f"^{message}$"):
            faces(broken_code, ws)
        assert find_r2_minus(fresh(broken_code), ws) == ref_r2_sites(broken_code, ws) == []
        with pytest.raises(MoveError, match="no R2 bigon at crossings x1, x2"):
            r2_minus(broken_code, "x1", "x2", ws)
        assert_trace_matches_reference(broken_code, ws)


def test_wall_point_out_of_range_is_a_broken_attachment_structure():
    # with a point fewer, the turn past W:2 would wrap onto the used W:0 and
    # cut the trace into open walks
    code = TangleCode(strands=(Strand("a", start=("W", 0), end=("W", 1)),
                               Strand("b", start=("W", 2), end=("W", 3))))
    assert len(faces(code, {"W": 4})[1]) == 3
    message = "wall point W:3 out of range: the wall has 3 points"
    with pytest.raises(MoveError, match=f"^{message}$"):
        faces(code, {"W": 3})
    assert planarity_problems(code, {"W": 3}) == [f"broken attachment structure: {message}"]
    assert find_r2_minus(code, {"W": 3}) == []
    assert_trace_matches_reference(code, {"W": 4})


def test_half_open_strand_is_a_broken_attachment_structure():
    # a strand with one endpoint traces no face: a MoveError and a finding,
    # not an index error
    code = TangleCode(strands=(Strand("a", start=("W", 0)),))
    with pytest.raises(MoveError, match="exactly one endpoint set"):
        faces(code, {"W": 1})
    assert planarity_problems(code, {"W": 1}) == [
        "broken attachment structure: strand a: exactly one endpoint set"]
    d = Diagram(pieces=(Piece("P", code, (SphereWall("W", 1),)),))
    assert "strand a: exactly one endpoint set" in [f.message for f in validate(d).findings]


def greedy_reduced(code, walls):
    """code after R1 and R2 moves until none is left, as greedy simplification runs them."""
    while True:
        if kinks := find_r1_minus(code):
            code = r1_minus(code, kinks[0])
        elif bigons := find_r2_minus(code, walls):
            code = r2_minus(code, *bigons[0], walls)
        else:
            return code


def test_skipped_r3_trials_could_not_be_kept():
    # on greedy-reduced braid closures, every R3 trial the prefilter skips
    # would leave greedy no R1 or R2 site after the swap, so no trial that
    # could drop a crossing is skipped
    skipped = tried = 0
    for seed in range(150):
        rng = random.Random(seed)
        lanes = rng.randint(3, 5)
        word = [(rng.randint(1, lanes - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(4, 16))]
        code = greedy_reduced(braid_closure(word, lanes), {})
        table = _darts(code, {})
        for _, plan in _r3_plans(code, {}):
            after = _swap_visits(code, plan)
            if _r3_opens_site(code, table, plan):
                tried += 1
            else:
                skipped += 1
                assert not find_r1_minus(after) and not find_r2_minus(after, {})
    assert skipped >= 10 and tried >= 10


def test_a_port_outside_0_3_is_no_slot_of_its_crossing():
    # visits through ports 0, -1 and 5 would give the crossing six sites
    # for its four slots: a code with code problems gets no dart table, so
    # it traces no face and is refused with its first problem
    code = TangleCode((Crossing("x1", 1),), (Strand("s0", (("x1", 0), ("x1", -1), ("x1", 5))),))
    with pytest.raises(MoveError, match=r"^strand s0: bad port -1$"):
        faces(code)
    assert planarity_problems(code) == ref_planarity(code, {}) == [
        "broken attachment structure: strand s0: bad port -1"]


def test_problem_messages_keep_component_order():
    # two non-planar components and a planar one between them: messages come
    # per component, in order of each component's first arc
    sub = braid_closure([(1, 1), (2, 1), (1, 1), (2, -1), (2, -1)], 3)
    parts = [mirrored(sub, "x1"), sub, mirrored(sub, "x3")]
    code = TangleCode(
        tuple(Crossing(f"{c.id}{k}", c.over) for k, q in enumerate(parts) for c in q.crossings),
        tuple(replace(s, id=f"{s.id}{k}", visits=tuple((c, p) for c, p in s.visits
                                                      for c in [f"{c}{k}"]))
              for k, q in enumerate(parts) for s in q.strands))
    problems = planarity_problems(code)
    assert problems == ref_planarity(code, {})
    assert problems == ["component at ('x', 'x10'): V-E+F = 5-10+5 != 2",
                        "component at ('x', 'x12'): V-E+F = 5-10+5 != 2"]


@PROPERTY
@given(diagrams(), st.integers(0, 2**32 - 1))
def test_replaced_code_gets_a_fresh_index(d, seed):
    rng = random.Random(seed)
    p = rng.choice(d.pieces)
    code = p.tangle
    before = {c.id: crossing_sign(code, c.id) for c in code.crossings}
    faces(code, p.wall_points())
    assert not fields_only(code)
    switched = replace(code, crossings=tuple(Crossing(c.id, 3 - c.over)
                                             for c in code.crossings))
    assert fields_only(switched)
    for c in switched.crossings:
        assert crossing_sign(switched, c.id) == -before[c.id] == ref_sign(switched, c.id)
    # cached facts are no fields: equality and hashing ignore them
    assert code == fresh(code) and hash(code) == hash(fresh(code))


@PROPERTY
@given(diagrams())
def test_faces_and_problems_leave_the_passage_split_unbuilt(d):
    # tracing faces, checking the code and greedy reduction read no passage
    # split; a sign does
    for p in d.pieces:
        code, walls = fresh(p.tangle), p.wall_points()
        faces(code, walls)
        planarity_problems(code, walls)
        code_problems(code)
        simplify_with_log(code, walls)
        assert "_passage_split" not in vars(code)
        for c in code.crossings:
            crossing_sign(code, c.id)
            assert "_passage_split" in vars(code)


@settings(PROPERTY, max_examples=30)
@given(diagrams())
def test_moves_placed_from_a_shared_face_undo_and_validate(d):
    # R1+ and R2+ build one candidate and check nothing; the slide keeps one
    # validation.  Every site of d: kinks undo with the requested sign,
    # pushes are planar and undo, slides validate with the framing formula.
    for p in d.pieces:
        code, walls = p.tangle, p.wall_points()
        arcs = [(s.id, k) for s in code.strands for k in range(s.arc_count())]
        for sid, k in arcs:
            for sign in (1, -1):
                kinked = r1_plus(code, sid, k, sign)
                (cid,) = {c.id for c in kinked.crossings} - {c.id for c in code.crossings}
                assert crossing_sign(kinked, cid) == sign
                assert r1_minus(kinked, cid) == code
        for a in arcs:
            for b in arcs:
                if a == b or _shared_face(code, a, b, walls) is None:
                    continue
                pushed = r2_plus(code, a, b, walls)
                x, y = sorted({c.id for c in pushed.crossings} - {c.id for c in code.crossings})
                assert not code_problems(pushed)
                assert not planarity_problems(pushed, walls)
                assert r2_minus(pushed, x, y, walls) == code
    for c2 in d.circles:
        loc = closed_strand(d, c2.id)
        if loc is None:
            continue
        pid, s2 = loc
        p = d.piece(pid)
        for c1 in d.circles:
            if c1.id == c2.id:
                continue
            for s1id in {sid for sp, sid in c1.strand_cycle if sp == pid}:
                s1 = p.tangle.strand(s1id)
                for a1 in range(s1.arc_count()):
                    for a2 in range(s2.arc_count()):
                        if _shared_face(p.tangle, (s1id, a1), (s2.id, a2),
                                        p.wall_points()) is None:
                            continue
                        for orient in (1, -1):
                            band = (pid, (s1id, a1), (s2.id, a2), orient)
                            out = handle_slide(d, c1.id, c2.id, band)
                            assert validate(out).ok
                            assert out.circle(c1.id).framing == (
                                c1.framing + c2.framing
                                + 2 * orient * diagram_linking(d, c1.id, c2.id))
                            assert [c.framing for c in out.circles if c.id != c1.id] == [
                                c.framing for c in d.circles if c.id != c1.id]


# ---------------------------------------------------------------------------
# errors are those of a fresh computation


def test_unknown_crossing_raises_key_error():
    code = TangleCode((Crossing("x", 1),),
                      (Strand("a", (("x", 0),)), Strand("b", (("x", 1),))))
    for lookup in (code.crossing,
                   lambda cid: crossing_sign(code, cid),
                   lambda cid: crossing_passages(code, cid)):
        with pytest.raises(KeyError):
            lookup("nope")


def test_broken_passages_raise_move_error():
    one = TangleCode((Crossing("x", 1),), (Strand("a", (("x", 0),)),))
    same_pair = TangleCode((Crossing("x", 1),),
                           (Strand("a", (("x", 0),)), Strand("b", (("x", 2),))))
    for code, message in ((one, "has 1 passages"), (same_pair, "do not split")):
        for lookup in (crossing_sign, crossing_passages):
            with pytest.raises(MoveError, match=message):
                lookup(code, "x")
        with pytest.raises(MoveError):
            signed_crossing_sum(code, frozenset("a"), frozenset("b"))


def test_duplicate_crossing_ids_keep_first_match():
    first, second = Crossing("x", 1), Crossing("x", 2)
    assert TangleCode((first, second)).crossing("x") is first


def test_faces_error_is_kept_per_wall_set():
    code = TangleCode(strands=(Strand("a", start=("W", 0), end=("W", 1)),))
    with pytest.raises(MoveError):
        faces(code, {})
    assert faces(code, {"W": 2}) == faces(fresh(code), {"W": 2})
    with pytest.raises(MoveError):
        faces(code, {})


def test_dart_table_is_built_once_per_wall_set(monkeypatch):
    # a trace that raises is kept like a table that succeeds: every read of
    # the failed wall set raises the same error again without a new trace
    builds = []
    build = tangle._build_darts
    monkeypatch.setattr(tangle, "_build_darts", lambda *a: builds.append(a[1]) or build(*a))
    code = TangleCode(strands=(Strand("a", start=("W", 0), end=("W", 1)),))
    message = "unknown wall W in face trace"
    for _ in range(3):
        with pytest.raises(MoveError, match=f"^{message}$"):
            dart_table(code, {})
        with pytest.raises(MoveError, match=f"^{message}$"):
            faces(code, None)
        assert planarity_problems(code) == [f"broken attachment structure: {message}"]
        assert find_r2_minus(code, {}) == [] and _r3_plans(code, {}) == []
        assert dart_table(code, {"W": 2}) is dart_table(code, dict(W=2))
        assert planarity_problems(code, {"W": 2}) == []
    assert builds == [{}, {"W": 2}]


def test_planarity_is_checked_once_per_dart_table(monkeypatch):
    # no walls and None share one table; another wall set has its own
    checks = []
    check = tangle._planarity_problems
    monkeypatch.setattr(tangle, "_planarity_problems", lambda *a: checks.append(a) or check(*a))
    code = mirrored(braid_closure([(1, 1), (2, 1), (1, 1), (2, -1), (2, -1)], 3), "x1")
    problems = planarity_problems(code)
    assert problems == ref_planarity(code, {}) != []
    for ws in (None, {}, {"W": 3}, {"W": 3}):
        assert planarity_problems(code, ws) == problems
    assert [a[0] for a in checks] == [dart_table(code), dart_table(code, {"W": 3})]


def test_odd_crossing_sum_is_refused():
    # one crossing between two closed strands cannot occur in a planar code,
    # but its odd sum must still be refused rather than halved
    code = TangleCode((Crossing("x", 1),),
                      (Strand("a", (("x", 0),)), Strand("b", (("x", 1),))))
    d = Diagram(pieces=(Piece("P", code),),
                circles=(GluedCircle("c1", (("P", "a"),)), GluedCircle("c2", (("P", "b"),))))
    with pytest.raises(DiagramError, match="odd crossing sum"):
        diagram_linking(d, "c1", "c2")


def test_unknown_circle_raises_key_error():
    d = braid_diagram(random.Random(5))
    for read in (lambda: diagram_linking(d, "c1", "nope"),
                 lambda: diagram_linking(d, "nope", "c1"),
                 lambda: diagram_writhe(d, "nope")):
        with pytest.raises(KeyError, match="nope"):
            read()
