"""Static SVG rendering: one panel per piece, schematic planar drawing.

Crossings are drawn as X glyphs with the under-passage broken, walls as
shaded disks with their marked points, arcs as Bezier curves between ports,
and framings as labels on their circles.  The picture is a faithful
combinatorial schematic, not an embedding: arcs of busy diagrams may cross
outside the drawn crossings.
"""

from __future__ import annotations

import math

from .core import Diagram
from .format import natural_key
from .tangle import strand_arcs

PANEL = 360.0
MARGIN = 40.0
NODE_R = 16.0
WALL_R = 22.0


def _positions(piece):
    """Node coordinates: crossings and walls on a ring, loops on a lower row."""
    nodes = [("x", c.id) for c in sorted(piece.tangle.crossings,
                                         key=lambda c: natural_key(c.id))]
    nodes += [("w", w.id) for w in sorted(piece.walls,
                                          key=lambda w: natural_key(w.id))]
    pos = {}
    n = len(nodes)
    ring = PANEL / 2 - MARGIN - 30
    for i, key in enumerate(nodes):
        ang = 2 * math.pi * i / max(n, 1) - math.pi / 2
        pos[key] = (PANEL / 2 + ring * math.cos(ang) * (0.999 if n else 0),
                    PANEL / 2 + ring * math.sin(ang))
    if n == 0:
        pos["center"] = (PANEL / 2, PANEL / 2)
    return pos


def _port_angle(site, piece):
    kind = site[0]
    if kind == "x":
        return site[2] * math.pi / 2 + math.pi / 4
    points = piece.wall(site[1]).points
    return 2 * math.pi * site[2] / max(points, 1)


def _port_point(site, piece, pos):
    x, y = pos[(site[0], site[1])]
    ang = _port_angle(site, piece)
    r = NODE_R if site[0] == "x" else WALL_R
    return (x + r * math.cos(ang), y - r * math.sin(ang), ang)


def _arc_path(a, b):
    (x1, y1, t1), (x2, y2, t2) = a, b
    c1 = (x1 + 40 * math.cos(t1), y1 - 40 * math.sin(t1))
    c2 = (x2 + 40 * math.cos(t2), y2 - 40 * math.sin(t2))
    return (f"M {x1:.1f} {y1:.1f} C {c1[0]:.1f} {c1[1]:.1f} "
            f"{c2[0]:.1f} {c2[1]:.1f} {x2:.1f} {y2:.1f}")


def _crossing_glyph(c, pos):
    x, y = pos[("x", c.id)]
    out = [f'<g class="crossing" data-id="{c.id}">']
    d = NODE_R
    e = 5.0  # under-strand gap half-width
    diag = {
        1: ((x + d * 0.707, y - d * 0.707), (x - d * 0.707, y + d * 0.707)),  # ports 0-2
        2: ((x - d * 0.707, y - d * 0.707), (x + d * 0.707, y + d * 0.707)),  # ports 1-3
    }
    over = c.over
    under = 3 - c.over
    (ox1, oy1), (ox2, oy2) = diag[over]
    (ux1, uy1), (ux2, uy2) = diag[under]
    # under passage: two segments stopping short of the center
    ucx, ucy = (ux1 + ux2) / 2, (uy1 + uy2) / 2
    out.append(f'<line class="under" x1="{ux1:.1f}" y1="{uy1:.1f}" '
               f'x2="{ucx + (ux1 - ucx) * e / d:.1f}" '
               f'y2="{ucy + (uy1 - ucy) * e / d:.1f}" stroke="black"/>')
    out.append(f'<line class="under" x1="{ux2:.1f}" y1="{uy2:.1f}" '
               f'x2="{ucx + (ux2 - ucx) * e / d:.1f}" '
               f'y2="{ucy + (uy2 - ucy) * e / d:.1f}" stroke="black"/>')
    out.append(f'<line class="over" x1="{ox1:.1f}" y1="{oy1:.1f}" '
               f'x2="{ox2:.1f}" y2="{oy2:.1f}" stroke="black"/>')
    out.append(f'<text class="crossing-label" x="{x + 4:.1f}" y="{y - d - 4:.1f}" '
               f'font-size="9">{c.id}</text>')
    out.append("</g>")
    return out


def _panel(piece, dx: float, framing_of: dict) -> list[str]:
    pos = _positions(piece)
    out = [f'<g class="piece" data-id="{piece.id}" transform="translate({dx:.1f},0)">']
    out.append(f'<rect x="4" y="4" width="{PANEL - 8:.0f}" height="{PANEL - 8:.0f}" '
               f'fill="none" stroke="#999"/>')
    out.append(f'<text x="12" y="20" font-size="12">{piece.id}</text>')
    for w in piece.walls:
        x, y = pos[("w", w.id)]
        out.append(f'<g class="wall" data-id="{w.id}">')
        out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{WALL_R:.0f}" '
                   f'fill="#ccd" stroke="#557"/>')
        for i in range(w.points):
            ang = 2 * math.pi * i / w.points
            px, py = x + WALL_R * math.cos(ang), y - WALL_R * math.sin(ang)
            out.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.5" fill="#113"/>')
        out.append(f'<text x="{x - 8:.1f}" y="{y + 4:.1f}" font-size="9">{w.id}</text>')
        out.append("</g>")
    for c in piece.tangle.crossings:
        out.extend(_crossing_glyph(c, pos))
    loop_x = 40.0
    for s in piece.tangle.strands:
        label = framing_of.get((piece.id, s.id))
        if s.closed and not s.visits:
            y = PANEL - 50
            out.append(f'<circle class="strand" data-id="{s.id}" cx="{loop_x:.1f}" '
                       f'cy="{y:.1f}" r="18" fill="none" stroke="black"/>')
            if label is not None:
                out.append(f'<text class="framing-label" x="{loop_x - 8:.1f}" '
                           f'y="{y - 24:.1f}" font-size="11">{label}</text>')
            loop_x += 50
            continue
        first = True
        for arc in strand_arcs(s):
            a = _port_point(arc.tail, piece, pos)
            b = _port_point(arc.head, piece, pos)
            out.append(f'<path class="strand" data-id="{s.id}" '
                       f'd="{_arc_path(a, b)}" fill="none" stroke="black"/>')
            if first and label is not None:
                mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
                out.append(f'<text class="framing-label" x="{mx:.1f}" '
                           f'y="{my - 6:.1f}" font-size="11">{label}</text>')
                first = False
    out.append("</g>")
    return out


def render(d: Diagram) -> str:
    """SVG document with one panel per piece."""
    framing_of = {}
    for c in d.circles:
        pid, sid = c.strand_cycle[0]
        framing_of[(pid, sid)] = f"{c.framing:+d}"
        if d.annotation and c.id in d.annotation.dotted:
            framing_of[(pid, sid)] = "dot"
    pieces = sorted(d.pieces, key=lambda p: natural_key(p.id))
    width = PANEL * len(pieces)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{width:.0f}" height="{PANEL:.0f}" '
           f'viewBox="0 0 {width:.0f} {PANEL:.0f}">']
    for i, p in enumerate(pieces):
        out.extend(_panel(p, PANEL * i, framing_of))
    out.append("</svg>")
    return "\n".join(out) + "\n"
