"""One pipeline per item kind, each checked against the item's closed-form answers.

A pipeline returns the semi-decision verdict it produced (or None) and
raises ``Wrong`` when an answer contradicts the known one.  Any other
exception is a failed operation.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import time

from msdiagram import (
    calculus,
    core,
    equivalence,
    format as msd_format,
    invariants,
    reduction,
    tangle,
)


class Wrong(Exception):
    """An answer that contradicts the known answer."""


class Checks:
    """Counts the known-answer checks that ran, so a run can prove it checked."""

    def __init__(self):
        self.count = 0

    def __call__(self, ok: bool, what: str):
        self.count += 1
        if not ok:
            raise Wrong(what)


def _homology(h):
    return tuple((b, tuple(t)) for b, t in h)


def _verdict(v, expect: str, check: Checks) -> str:
    """Yes/No answers must never contradict the known answer; Unknown is legal."""
    check(v.value in ("Yes", "No", "Unknown"), f"verdict {v.value!r}")
    check(v.unknown or v.value == expect, f"{v.value} on a known {expect} case")
    return v.value


# ---------------------------------------------------------------------------
# kirby: read half, then blow-up, handle slide and blow-down


def kirby(it: dict, check: Checks):
    d = msd_format.parse(it["text"])
    check(core.validate(d).ok, "corpus diagram is valid")
    lm = invariants.linking_matrix(d)
    check(lm.entries == it["linking"], "linking matrix")
    check(_homology(invariants.homology(d)) == it["homology"], "homology")
    invariants.signature(lm.as_list())
    h1 = invariants.surgered_h1(d)
    if "h1" in it:
        check(tuple(h1) == it["h1"], "surgered H1")
    else:
        check(h1[0] == it["h1_rank"], "surgered H1 rank")
        if it["h1_order"]:
            check(math.prod(h1[1]) == it["h1_order"], "surgered H1 order")
    writhes = tuple(core.diagram_writhe(d, c.id) for c in d.circles)
    check(writhes == it["writhe"], "writhes")
    check(msd_format.serialize(d) == it["text"], "serialize(parse(text)) == text")

    # blow up a +-1 unknot in a seeded face, slide a circle bounding that
    # face over it, and blow it down again: framings and linkings return
    ids = [c.id for c in d.circles]
    framing = {c.id: c.framing for c in d.circles}
    piece = d.pieces[0]
    arcs, faces = tangle.faces(piece.tangle, piece.wall_points())
    region = it["region"] % len(faces)
    sign, orient = it["sign"], it["orient"]
    up = calculus.blow_up(d, piece.id, region, sign)
    u = up.circles[-1]
    check(len(up.circles) == len(ids) + 1 and u.framing == sign, "blow-up adds a +-1 unknot")
    arc = arcs[faces[region][0][0]]
    c = next(x.id for x in d.circles if x.strand_cycle[0][1] == arc.strand)
    band = (piece.id, (arc.strand, arc.index), (u.strand_cycle[0][1], 0), orient)
    slid = calculus.handle_slide(up, c, u.id, band)
    # f1 + f2 + 2 * orient * lk(c, u), and lk(c, u) = 0 before the slide
    check(slid.circle(c).framing == framing[c] + sign, "slide framing formula")
    check(core.diagram_linking(slid, c, u.id) == orient * sign, "slide linking with the unknot")
    i = ids.index(c)
    other = ids[(i + 1) % len(ids)] if len(ids) > 1 else None
    if other:
        check(core.diagram_linking(slid, c, other) == it["linking"][i][ids.index(other)],
              "slide keeps linking with the other circles")
    down = calculus.blow_down(slid, u.id)
    # framings drop by sign * lk^2; linkings by sign * lk_i * lk_j
    check({x.id: x.framing for x in down.circles} == framing, "blow-down framing formula")
    if other:
        check(core.diagram_linking(down, c, other) == it["linking"][i][ids.index(other)],
              "blow-down linking formula")
    return None


# ---------------------------------------------------------------------------
# reduce: validate, homology, reduction to Kirby form, annotated homology


def reduce(it: dict, check: Checks):
    d = it["diagram"]
    check(core.validate(d).ok, "corpus diagram is valid")
    check(_homology(invariants.homology(d)) == it["homology"], "homology")
    check(invariants.euler_characteristic(d) == it["euler"], "Euler characteristic")
    log: list = []
    out = reduction.reduce_pipeline(d, log)
    check(len(out.pieces) == 1 and out.annotation is not None, "Kirby form")
    check(out.annotation.one_handles == it["one_handles"], "replaced 1-handles")
    check(_homology(invariants.annotated_homology(out)) == it["homology"], "annotated homology")
    return None


# ---------------------------------------------------------------------------
# decide: canonical keys, isomorphism, recognition, conjugacy


def key(it: dict, check: Checks):
    text = equivalence.canonical_key(it["diagram"])
    form = msd_format.parse(text)
    check(len(form.circles) == it["circles"], "canonical form keeps the circles")
    check(sum(len(p.tangle.crossings) for p in form.pieces) == it["crossings"],
          "canonical form keeps the crossings")
    check({c.framing for c in form.circles} == {it["framing"]}, "canonical form keeps framings")
    return None


def key_pair(it: dict, check: Checks):
    same = equivalence.canonical_key(it["a"]) == equivalence.canonical_key(it["b"])
    # unequal keys certify nothing, so they count as Unknown
    return "Yes" if same else "Unknown"


def iso(it: dict, check: Checks):
    v = equivalence.isomorphic(it["a"], it["b"])
    answer = _verdict(v, it["expect"], check)
    if v.yes:
        check(equivalence.verify_isomorphism(v.witness, it["a"], it["b"]).ok, "witness verifies")
    return answer


def s3(it: dict, check: Checks):
    v = calculus.recognize_s3(it["diagram"], 3)
    answer = _verdict(v, it["expect"], check)
    if v.yes:
        d = it["diagram"]
        for move in v.witness:
            d = calculus.apply_move(d, move)
        check(not d.circles, "move log replays to the empty diagram")
    return answer


def conj(it: dict, check: Checks):
    return _verdict(equivalence.conjugate(it["a"], it["b"]), it["expect"], check)


# ---------------------------------------------------------------------------
# cli-cold: one fresh `msd` process per invocation


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


SEMI_DECISIONS = {"recognize-s3", "equiv", "conj"}
EXIT_VERDICT = {0: "Yes", 1: "No", 2: "Unknown"}


def cli(it: dict, check: Checks, paths: dict, workdir: str, root: str):
    """Run one invocation; return its wall time in seconds and its verdict."""
    out = os.path.join(workdir, f"out-{it['name']}")
    log = os.path.join(workdir, f"log-{it['name']}")
    paths = dict(paths, out=out, log=log)
    args = [paths[a[1:]] if a.startswith("@") else a for a in it["args"]]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "msdiagram.cli"] + args, cwd=workdir,
                          env=cli_env(root), capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    expect = it["exit"] if isinstance(it["exit"], tuple) else (it["exit"],)
    if proc.returncode not in expect and (proc.returncode not in (0, 1, 2, 3)
                                          or "Traceback" in proc.stderr):
        raise RuntimeError(f"msd {it['name']} exited {proc.returncode}: {proc.stderr[-300:]}")
    check(proc.returncode in expect, f"msd {' '.join(it['args'])} exit {proc.returncode}")
    if "stdout_last" in it:
        check(proc.stdout.strip().splitlines()[-1] == it["stdout_last"], "validate prints ok")
    if "counts" in it:
        with open(out) as f:
            d = msd_format.parse(f.read())
        check(core.handle_counts(d) == it["counts"], "catalog handle counts")
    if it["name"] == "invariants":
        got = []
        for line in proc.stdout.splitlines():
            m = re.match(r"H\d = Z\^(\d+)", line)
            if m:
                got.append((int(m.group(1)), tuple(int(t) for t in re.findall(r"Z/(\d+)", line))))
        check(tuple(got) == it["homology"], "msd invariants homology")
    if it["name"] == "reduce":
        with open(out) as f:
            d = msd_format.parse(f.read())
        check(_homology(invariants.annotated_homology(d)) == it["homology"], "msd reduce output")
    if it["name"] == "render":
        with open(out) as f:
            check("<svg" in f.read(200), "msd render writes SVG")
    verdict = EXIT_VERDICT.get(proc.returncode) if it["name"] in SEMI_DECISIONS else None
    return elapsed, verdict


PIPELINES = {"kirby": kirby, "reduce": reduce, "key": key, "key_pair": key_pair, "iso": iso,
             "s3": s3, "conj": conj}
