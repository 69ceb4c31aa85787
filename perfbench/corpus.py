"""Seeded corpora for the four workloads, with answers derived in closed form.

Every diagram is built through the public ``msdiagram`` constructors.  The
expected answers are computed here from the construction data (braid words,
ring sizes, handle counts, framings), never by asking ``msdiagram``.

An item is a plain dict: ``name`` (the scaling tag, e.g. ``T16_16``),
``kind`` (which pipeline runs it), the inputs, and the expected answers.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from msdiagram import catalog, format as msd_format, tangle
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
)

S4 = ((1, ()), (0, ()), (0, ()), (0, ()), (1, ()))


def kirby_homology(k: int):
    """One 0-handle, k 2-handles, one 4-handle."""
    return ((1, ()), (0, ()), (k, ()), (0, ()), (1, ()))


def closed_homology(b1: int, b2: int):
    """Torsion-free homology of a closed connected 4-manifold."""
    return ((1, ()), (b1, ()), (b2, ()), (b1, ()), (1, ()))


# ---------------------------------------------------------------------------
# small reference linear algebra (for random linking matrices only)


def ref_rank_det(m):
    """Rank and determinant by exact Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    rank, det = 0, Fraction(1)
    for c in range(n):
        piv = next((r for r in range(rank, n) if a[r][c] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][c]
        for r in range(rank + 1, n):
            f = a[r][c] / a[rank][c]
            if f:
                for j in range(c, n):
                    a[r][j] -= f * a[rank][j]
        rank += 1
    return rank, int(det) if rank == n else 0


# ---------------------------------------------------------------------------
# framed links from braid words


def braid_diagram(word, lanes: int, framings) -> Diagram:
    code = tangle.braid_closure(word, lanes, strand_prefix="S")
    if len(code.strands) != len(framings):
        raise ValueError("one framing per closure component")
    circles = tuple(GluedCircle(f"c{i + 1}", (("P1", s.id),), f)
                    for i, (s, f) in enumerate(zip(code.strands, framings)))
    return Diagram(pieces=(Piece("P1", code),), circles=circles)


def braid_components(word, lanes: int) -> list[int]:
    """Closure component of each starting lane, numbered by smallest lane."""
    tokens = list(range(lanes))
    for j, _ in word:
        tokens[j - 1], tokens[j] = tokens[j], tokens[j - 1]
    end_lane = {t: i for i, t in enumerate(tokens)}
    comp = [-1] * lanes
    count = 0
    for start in range(lanes):
        if comp[start] >= 0:
            continue
        lane = start
        while comp[lane] < 0:
            comp[lane] = count
            lane = end_lane[lane]
        count += 1
    return comp


def braid_linking(word, lanes: int, framings):
    """Linking matrix and writhes of a braid closure, read off the word."""
    comp = braid_components(word, lanes)
    k = max(comp) + 1
    twice = [[0] * k for _ in range(k)]
    writhe = [0] * k
    tokens = list(range(lanes))
    for j, sign in word:
        a, b = comp[tokens[j - 1]], comp[tokens[j]]
        if a == b:
            writhe[a] += sign
        else:
            twice[a][b] += sign
            twice[b][a] += sign
        tokens[j - 1], tokens[j] = tokens[j], tokens[j - 1]
    m = [[framings[i] if i == j else twice[i][j] // 2 for j in range(k)] for i in range(k)]
    return tuple(tuple(r) for r in m), tuple(writhe)


def torus_word(n: int, m: int):
    """(s1 s2 ... s_{n-1})^m, whose closure is the torus link T(n, m)."""
    return [(j, 1) for _ in range(m) for j in range(1, n)]


def torus_nn_h1(n: int, f: int):
    """H1 of surgery on T(n,n) with all framings f.

    The linking matrix is aI + J with a = f - 1; its invariant factors are
    |a| (n - 2 times) and |a (a + n)|.
    """
    a = f - 1
    factors = [abs(a)] * (n - 2) + [abs(a * (a + n))]
    return factors.count(0), tuple(sorted(x for x in factors if x > 1))


def torus_item(n: int, m: int, f: int) -> dict:
    word = torus_word(n, m)
    k = len(set(braid_components(word, n)))
    lm, writhe = braid_linking(word, n, [f] * k)
    item = {"name": f"T{n}_{m}", "diagram": braid_diagram(word, n, [f] * k),
            "linking": lm, "writhe": writhe, "homology": kirby_homology(k),
            "crossings": len(word), "framing": f}
    if n == m:
        item["h1"] = torus_nn_h1(n, f)
    elif n == 2:
        item["h1"] = (1, ()) if f == 0 else (0, (abs(f),) if abs(f) > 1 else ())
    return item


def random_braid_item(rng: random.Random) -> dict:
    """A random framed link: closure of a braid touching every lane."""
    lanes = 4
    while True:
        word = [(rng.randrange(1, lanes), rng.choice((1, -1))) for _ in range(10)]
        if {j for j, _ in word} == set(range(1, lanes)):
            break
    k = max(braid_components(word, lanes)) + 1
    framings = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(k)]
    lm, writhe = braid_linking(word, lanes, framings)
    rank, det = ref_rank_det(lm)
    return {"diagram": braid_diagram(word, lanes, framings),
            "linking": lm, "writhe": writhe, "homology": kirby_homology(k),
            "crossings": len(word), "h1_rank": k - rank, "h1_order": abs(det)}


# ---------------------------------------------------------------------------
# multi-piece diagrams: rings, n-s1s3(k), random trees with planted pairs


def ring(k: int, framing: int) -> Diagram:
    """k pieces in a cycle of k pairs, one circle threaded through all of them."""
    pieces, pairs, cycle = [], [], []
    for i in range(1, k + 1):
        strand = tangle.Strand(f"S{i}", start=("A", 0), end=("B", 0))
        pieces.append(Piece(f"P{i}", tangle.TangleCode(strands=(strand,)),
                            (SphereWall("A", 1), SphereWall("B", 1))))
        nxt = i % k + 1
        pairs.append(SpherePair(f"Q{i}", (f"P{i}", "B"), (f"P{nxt}", "A"), (0,)))
        cycle.append((f"P{i}", f"S{i}"))
    return Diagram(pieces=tuple(pieces), pairs=tuple(pairs),
                   circles=(GluedCircle("c1", tuple(cycle), framing),))


def multipiece(rng: random.Random, planted: int, both_through_extra: bool = False):
    """Three pieces joined by a tree of two pairs plus one extra pair, two circles.

    Circles either stay in one piece or run through one pair and back, so
    they never wind around a pair.  The extra pair comes with a closed
    surface (an S^1 x S^3 summand), and each planted circle with a disk
    surface on its framing parallel (a cancelling 2/3 pair).  Hence
    H = (Z, Z, Z^2, Z, Z).  Both circles run through the extra pair only
    when asked: ``reduce_pipeline`` refuses that pattern today (see
    ``reduce``).
    """
    ids = ["P1", "P2", "P3"]
    specs = [("Q1", "P1", "P2"), ("Q2", ids[rng.randrange(2)], "P3")]
    specs.append(("Q3", *rng.sample(ids, 2)))
    points = {q: 0 for q, _, _ in specs}
    strands = {p: [] for p in ids}
    circles = []
    for k in range(2):
        cid, s1, s2 = f"c{k + 1}", f"S{2 * k + 1}", f"S{2 * k + 2}"
        if both_through_extra:
            q, pa, pb = specs[2]
        elif k == 0:
            q, pa, pb = rng.choice(specs)
        else:
            # never a second circle through the extra pair
            q, pa, pb = rng.choice([x for x in specs if not (x[0] == "Q3" and points["Q3"])])
        if both_through_extra or k == 0 or rng.random() < 0.6:
            i = points[q]
            points[q] += 2
            strands[pa].append(tangle.Strand(s1, start=(f"W{q}a", i + 1), end=(f"W{q}a", i)))
            strands[pb].append(tangle.Strand(s2, start=(f"W{q}b", i), end=(f"W{q}b", i + 1)))
            circles.append(GluedCircle(cid, ((pa, s1), (pb, s2)), rng.choice((-1, 0, 1))))
        else:
            pid = rng.choice(ids)
            strands[pid].append(tangle.Strand(s1))
            circles.append(GluedCircle(cid, ((pid, s1),), rng.choice((-1, 0, 1, 2))))
    surfaces = [SpanningSurface("F1")]
    for i in range(planted):
        pid = rng.choice(ids)
        strands[pid].append(tangle.Strand(f"SK{i + 1}"))
        circles.append(GluedCircle(f"cK{i + 1}", ((pid, f"SK{i + 1}"),), 0))
        surfaces.append(SpanningSurface(f"FK{i + 1}", 0, (FramingParallel(f"cK{i + 1}", 1),)))
    pairs = tuple(SpherePair(q, (a, f"W{q}a"), (b, f"W{q}b"), tuple(range(points[q])))
                  for q, a, b in specs)
    pieces = []
    for pid in ids:
        walls = [SphereWall(f"W{q}{side}", points[q])
                 for q, a, b in specs for side, owner in (("a", a), ("b", b)) if owner == pid]
        pieces.append(Piece(pid, tangle.TangleCode(strands=tuple(strands[pid])), tuple(walls)))
    d = Diagram(pieces=tuple(pieces), pairs=pairs, circles=tuple(circles),
                surfaces=tuple(surfaces))
    return d, closed_homology(1, 2)


def random_relabel(d: Diagram, rng: random.Random) -> Diagram:
    """Fresh ids at every level, in a seeded order."""
    def fresh(prefix, keys):
        keys = list(keys)
        nums = rng.sample(range(100, 100 + 10 * len(keys) + 10), len(keys))
        return {k: f"{prefix}{n}" for k, n in zip(keys, nums)}

    return relabel(
        d,
        pieces=fresh("rp", [p.id for p in d.pieces]),
        pairs=fresh("rq", [q.id for q in d.pairs]),
        circles=fresh("rc", [c.id for c in d.circles]),
        surfaces=fresh("rf", [f.id for f in d.surfaces]),
        strands=fresh("rs", [(p.id, s.id) for p in d.pieces for s in p.tangle.strands]),
        crossings=fresh("rx", [(p.id, c.id) for p in d.pieces for c in p.tangle.crossings]),
        walls=fresh("rw", [(p.id, w.id) for p in d.pieces for w in p.walls]),
    )


def set_framing(d: Diagram, cid: str, framing: int) -> Diagram:
    return replace(d, circles=tuple(replace(c, framing=framing) if c.id == cid else c
                                    for c in d.circles))


def s3_presentation(rng: random.Random) -> Diagram:
    """Blow-ups of the empty diagram followed by handle slides: surgery gives S^3."""
    d = Diagram(pieces=(Piece("P1"),))
    for _ in range(3):
        d = blow_up(d, "P1", 0, rng.choice((1, -1)))
    slides = 0
    for _ in range(20):
        if slides == 2:
            break
        c1, c2 = rng.sample([c.id for c in d.circles], 2)
        s1 = d.piece("P1").tangle.strand(d.circle(c1).strand_cycle[0][1])
        s2 = d.piece("P1").tangle.strand(d.circle(c2).strand_cycle[0][1])
        band = ("P1", (s1.id, rng.randrange(s1.arc_count())),
                (s2.id, rng.randrange(s2.arc_count())), rng.choice((1, -1)))
        try:
            d = handle_slide(d, c1, c2, band)
        except tangle.MoveError:
            continue
        slides += 1
    return d


def hopf(f1: int, f2: int) -> Diagram:
    d = catalog.s2xs2()
    return set_framing(set_framing(d, "c1", f1), "c2", f2)


# ---------------------------------------------------------------------------
# workloads


def balanced(rng: random.Random, values, n: int) -> list:
    """n values, each of ``values`` equally often, in a seeded order.

    Used for the blocks of equal-cost items, so that every seed gives the
    block the same mix of framings, and so the same cost.
    """
    xs = [values[i % len(values)] for i in range(n)]
    rng.shuffle(xs)
    return xs


def kirby(seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(seed)
    framings = (-2, -1, 0, 1, 2)
    nn = (4, 6) if tiny else (4, 6, 8, 10, 12)
    twos = (11,) if tiny else (11, 21, 31, 41, 61, 81)
    items = [torus_item(n, n, rng.choice(framings)) for n in nn]
    items += [torus_item(2, m, rng.choice(framings)) for m in twos]
    # a block of equal-cost links, so that the p90 item falls inside it
    items += [torus_item(6, 6, f) for f in balanced(rng, framings, 2 if tiny else 20)]
    items += [dict(random_braid_item(rng), name=f"rand{i}") for i in range(3 if tiny else 90)]
    for it in items:
        it["kind"] = "kirby"
        it["text"] = msd_format.serialize(it.pop("diagram"))
        it["region"] = rng.randrange(1 << 30)
        it["sign"] = rng.choice((1, -1))
        it["orient"] = rng.choice((1, -1))
    return items


def reduce(seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for k in ((10,) if tiny else (10, 20, 40, 80, 160)):
        d = random_relabel(ring(k, rng.choice((-1, 0, 1))), rng)
        items.append({"name": f"ring{k}", "kind": "reduce", "diagram": d,
                      "homology": S4, "euler": 2, "one_handles": 1})
    for k in ((2,) if tiny else (2, 4, 8, 16, 32)):
        items.append({"name": f"ns1s3_{k}", "kind": "reduce",
                      "diagram": random_relabel(catalog.n_s1xs3(k), rng),
                      "homology": closed_homology(k, 0), "euler": 2 - 2 * k,
                      "one_handles": k})
    for i in range(2 if tiny else 90):
        # every 15th has both circles through the pair that becomes internal:
        # reduce_pipeline raises DiagramError there today (a non-planar
        # surrogate), so these are tracked failures, a fixed share per pass
        tracked = i % 15 == 0
        d, hom = multipiece(rng, planted=rng.randint(1, 2), both_through_extra=tracked)
        items.append({"name": f"multi{i}", "kind": "reduce", "diagram": d, "tracked": tracked,
                      "homology": hom, "euler": 2 - 2 * hom[1][0] + hom[2][0],
                      "one_handles": hom[1][0]})
    return items


def decide(seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(seed)
    items = []

    def add(name, kind, **kw):
        items.append({"name": name, "kind": kind, **kw})

    # canonical labeling where every circle looks alike; T(11,11) exhausts
    # memory today and runs in its own guarded worker
    # T(6,6) twenty times: a block of equal-cost items, so that the p90 item
    # falls inside it
    sizes = (5,) if tiny else (5, 6, 7, 8) + (6,) * 19
    for n, f in zip(sizes, balanced(rng, (-1, 0, 1), len(sizes))):
        t = torus_item(n, n, f)
        add(t["name"], "key", diagram=random_relabel(t["diagram"], rng), circles=n,
            crossings=t["crossings"], framing=t["framing"])
    t = torus_item(11, 11, rng.choice((-1, 0, 1)))
    add(t["name"], "guarded_key", diagram=random_relabel(t["diagram"], rng), circles=11,
        crossings=t["crossings"], framing=t["framing"], tracked=True)
    for m in (21,):
        t = torus_item(2, m, rng.choice((-1, 0, 1)))
        add(t["name"], "key", diagram=random_relabel(t["diagram"], rng), circles=1,
            crossings=m, framing=t["framing"])
    # isomorphic(d, relabel(d)): Yes, or Unknown; never No
    for m in ((11,) if tiny else (11, 21)):
        d = torus_item(2, m, rng.choice((-1, 0, 1)))["diagram"]
        add(f"T2_{m}", "iso", a=d, b=random_relabel(d, rng), expect="Yes")
    for i in range(2 if tiny else 20):
        d = random_braid_item(rng)["diagram"]
        add(f"rand{i}", "iso", a=d, b=random_relabel(d, rng), expect="Yes")
    for i in range(2 if tiny else 15):
        d, _ = multipiece(rng, planted=rng.randint(0, 1))
        add(f"multi{i}", "iso", a=d, b=random_relabel(d, rng), expect="Yes")
    # pairs that differ in one framing: No through a separating invariant
    for i in range(2 if tiny else 20):
        if i % 2:
            d, _ = multipiece(rng, planted=0)
        else:
            d = random_braid_item(rng)["diagram"]
        c = rng.choice(d.circles)
        other = random_relabel(set_framing(d, c.id, c.framing + rng.choice((1, -1))), rng)
        add(f"no{i}", "iso", a=d, b=other, expect="No")
    # repeat queries: one diagram against several relabelings, by canonical
    # key; the base is T(2,7), so that every seed gives a block of items of
    # one cost, and the median item falls inside it
    for b, f in enumerate(balanced(rng, (-1, 0, 1), 1 if tiny else 3)):
        base = torus_item(2, 7, f)["diagram"]
        for j in range(2 if tiny else 8):
            add(f"repeat{b}_{j}", "key_pair", a=base, b=random_relabel(base, rng),
                group=f"repeat{b}")
    # 3-sphere recognition at depth 3
    for i in range(2 if tiny else 12):
        add(f"s3_{i}", "s3", diagram=random_relabel(s3_presentation(rng), rng), expect="Yes")
    for f1, f2 in ((1, 0), (2, 1), (0, 0), (2, 0), (-1, 1)):
        # surgery on the (f1, f2) Hopf link has |H1| = |f1 f2 - 1|
        add(f"hopf{f1}_{f2}", "s3", diagram=hopf(f1, f2),
            expect="Yes" if abs(f1 * f2 - 1) == 1 else "No")
    # conjugacy of diffeomorphism diagrams
    swap, ident = catalog.swap_diffeo(), catalog.identity_diffeo(catalog.s2xs2())
    add("conj_swap", "conj", a=swap, b=random_relabel(swap, rng), expect="Yes")
    add("conj_id", "conj", a=ident, b=random_relabel(ident, rng), expect="Yes")
    add("conj_swap_id", "conj", a=swap, b=ident, expect="No")
    add("conj_id_swap", "conj", a=ident, b=swap, expect="No")
    return items


# ---------------------------------------------------------------------------
# cli-cold: small catalog files and one invocation per line


# name -> (handle counts n0..n4, homology), read off the catalog docstrings
CATALOG = {
    "s4-polar": ((1, 0, 0, 0, 1), S4),
    "cp2": ((1, 0, 1, 0, 1), kirby_homology(1)),
    "cp2-mirror": ((1, 0, 1, 0, 1), kirby_homology(1)),
    "s2xs2": ((1, 0, 2, 0, 1), kirby_homology(2)),
    "s1xs3": ((1, 1, 0, 1, 1), closed_homology(1, 0)),
    "swap-diffeo": ((1, 0, 2, 0, 1), kirby_homology(2)),
    "s4-with-cancelling-pair": ((1, 0, 1, 1, 1), S4),
    "cp2-two-piece": ((2, 1, 1, 0, 1), kirby_homology(1)),
}


def cli(seed: int, tiny: bool = False) -> tuple[dict, list[dict]]:
    """Files to write (name -> diagram or text) and the invocations to run."""
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    nk = f"n-s1s3({k})"
    table = dict(CATALOG)
    table[nk] = ((1, k, 0, k, 1), closed_homology(k, 0))
    files = {n: catalog.standard(n) for n in table}
    for name in ("cp2", "s2xs2", "swap-diffeo"):
        files[f"{name}-relabeled"] = random_relabel(files[name], rng)
    files["identity"] = catalog.identity_diffeo(catalog.s2xs2())
    files["identity-relabeled"] = random_relabel(files["identity"], rng)
    files["malformed"] = "msd 1\npiece P1\nthis is not a record\n"

    runs = []

    def add(sub, args, expect, **kw):
        runs.append({"name": sub, "kind": "cli", "args": [sub] + args, "exit": expect, **kw})

    for name in table:
        add("catalog", [name, "-o", "@out"], 0, counts=table[name][0])
        add("validate", ["@" + name], 0, stdout_last="ok")
        add("invariants", ["@" + name], 0, homology=table[name][1])
    add("validate", ["@malformed"], 3)
    for name in ("s1xs3", "s4-with-cancelling-pair", "cp2-two-piece", nk):
        add("reduce", ["@" + name, "-o", "@out", "--log", "@log"], 0, homology=table[name][1])
    for name in ("cp2", "cp2-mirror", "cp2-relabeled", "s4-polar"):
        add("recognize-s3", ["@" + name, "--depth", "3"], 0)
    # the 0-framed Hopf link presents S^3 but is out of reach at depth 3
    add("recognize-s3", ["@s2xs2", "--depth", "3"], (0, 2))
    for a, b, expect in (("s2xs2", "s2xs2-relabeled", (0, 2)), ("cp2", "cp2-relabeled", (0, 2)),
                         ("s1xs3", "s1xs3", (0, 2)), ("cp2", "cp2-mirror", 1), ("s2xs2", "cp2", 1)):
        add("equiv", ["@" + a, "@" + b], expect)
    for a, b, expect in (("swap-diffeo", "swap-diffeo-relabeled", (0, 2)),
                         ("identity", "identity-relabeled", (0, 2)),
                         ("swap-diffeo", "identity", 1), ("identity", "swap-diffeo", 1)):
        add("conj", ["@" + a, "@" + b], expect)
    for name in ("cp2", "s2xs2", "s1xs3", "cp2-two-piece", nk):
        add("render", ["@" + name, "-o", "@out"], 0)
    return files, runs[::6] if tiny else runs


BUILDERS = {"kirby": kirby, "reduce": reduce, "decide": decide, "cli-cold": cli}


def pass_order(items: list[dict], seed: int, pass_index: int) -> list[int]:
    """A seeded order for one pass, different on every pass.

    Cheap and costly items are interleaved, so that no kind of item runs
    only in one stretch of time; items of one group (a repeated query) keep
    their order and stay together.
    """
    groups: dict[str, list[int]] = {}
    for i, it in enumerate(items):
        groups.setdefault(it.get("group", f"#{i}"), []).append(i)
    blocks = list(groups.values())
    random.Random(f"{seed}/{pass_index}").shuffle(blocks)
    return [i for block in blocks for i in block]


# ---------------------------------------------------------------------------
# scaling probes: one call of one function per size, run only in traced runs


def scaling(workload: str, seed: int) -> list[tuple[str, str, tuple]]:
    """(tag, function, arguments) for the workload's scaling rows."""
    rng = random.Random(seed)
    if workload == "kirby":
        return [(f"T{n}_{n}", "invariants.linking_matrix",
                 (torus_item(n, n, rng.choice((-1, 0, 1)))["diagram"],))
                for n in (8, 12, 16)]
    if workload == "decide":
        sizes = [(2, m) for m in (21, 41, 81)] + [(n, n) for n in (8, 9, 10)]
        return [(f"T{n}_{m}", "equivalence.canonical_key",
                 (random_relabel(torus_item(n, m, rng.choice((-1, 0, 1)))["diagram"], rng),))
                for n, m in sizes]
    if workload == "reduce":
        rings = [(k, random_relabel(ring(k, rng.choice((-1, 0, 1))), rng)) for k in (40, 80, 160)]
        return ([(f"ring{k}", "invariants.homology", (d,)) for k, d in rings]
                + [(f"ring{k}", "reduction.reduce_pipeline", (d, [])) for k, d in rings])
    return []
