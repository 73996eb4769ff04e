"""SVG rendering of surfaces and cylinder decompositions.

Float conversion happens only here, for display; nothing feeds back
into any computation.  Polygons are laid out side by side; with a
decomposition, its pieces are filled per cylinder and core leaves drawn
on top, at their vertices and edge parameters on the surface itself.
"""

from __future__ import annotations

import math
import re
import sys

from .cylinders import Decomposition, NO_CYLINDER, _point_coords
from .errors import FlatdefError
from .surface import TranslationSurface

__all__ = ["render_surface"]

PALETTE = ["#7eb26d", "#eab839", "#6ed0e0", "#ef843c", "#e24d42",
           "#1f78c1", "#ba43a9", "#705da0"]
MARGIN = 0.5
SCALE = 60.0
# every code point outside XML 1.0's Char production
_NOT_XML_CHAR = re.compile(
    r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _xml_text(text):
    """`text` as XML character data: each code point XML 1.0 forbids
    becomes U+FFFD, then `&`, `>` and `<` are escaped, in that order."""
    text = _NOT_XML_CHAR.sub("\ufffd", text)
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _poly_points(surface, p, offset):
    pts = []
    for v in surface.vertices(p):
        pts.append((float(v.x) + offset[p][0], float(v.y) + offset[p][1]))
    return pts


def _layout(surface):
    """Horizontal offsets placing the polygons side by side."""
    offsets = {}
    cursor = 0.0
    for p in range(len(surface.lattice().edges)):
        verts = surface.vertices(p)
        xs = [float(v.x) for v in verts]
        ys = [float(v.y) for v in verts]
        offsets[p] = (cursor - min(xs), -min(ys))
        cursor += (max(xs) - min(xs)) + MARGIN
    return offsets


def _fmt_pts(pts):
    return " ".join(f"{x:.6f},{y:.6f}" for x, y in pts)


def render_surface(surface: TranslationSurface,
                   decomposition: Decomposition | None = None) -> str:
    """Well-formed standalone SVG: one polygon element per input polygon,
    cylinder fills when a certified or partial decomposition is given;
    it must be the surface's own (`Decomposition.check_own`).  Raises
    `FlatdefError` when a coordinate or the picture's size is beyond
    the range of a float."""
    if decomposition is not None:
        decomposition.check_own(surface)
    try:
        return _svg(surface, decomposition)
    except OverflowError:
        raise FlatdefError(
            f"cannot render: every coordinate, and the picture's width and "
            f"height at {SCALE:g} per unit, must lie within the float range "
            f"(absolute value at most {sys.float_info.max:.4g})") from None


def _svg(surface, decomposition):
    offsets = _layout(surface)
    body = []
    fills = decomposition is not None and decomposition.status != NO_CYLINDER
    if fills:
        cyl_of_piece = {}
        for cyl in decomposition.cylinders:
            for pid in cyl.piece_ids:
                cyl_of_piece[pid] = cyl.cyl_id
        for piece in decomposition.cut.pieces:
            cid = cyl_of_piece.get(piece.pid)
            if cid is None:
                continue
            pts = []
            off = offsets[piece.polygon]
            for item in piece.items:
                w = _point_coords(surface, piece.polygon, item.start)
                pts.append((float(w.x) + off[0], float(w.y) + off[1]))
            body.append(
                f'<polygon class="cylinder" points="{_fmt_pts(pts)}" '
                f'fill="{PALETTE[cid % len(PALETTE)]}" fill-opacity="0.55" '
                f'stroke="none"/>')
    points = [_poly_points(surface, p, offsets)
              for p in range(len(surface.lattice().edges))]
    for pts in points:
        body.append(
            f'<polygon class="polygon" points="{_fmt_pts(pts)}" '
            f'fill="none" stroke="#222222" stroke-width="0.02"/>')
    if fills:
        for cyl in decomposition.cylinders:
            for p, start, end in cyl.core_chords:
                a = _point_coords(surface, p, start)
                b = _point_coords(surface, p, end)
                off = offsets[p]
                body.append(
                    f'<line class="core" x1="{float(a.x) + off[0]:.6f}" '
                    f'y1="{float(a.y) + off[1]:.6f}" '
                    f'x2="{float(b.x) + off[0]:.6f}" '
                    f'y2="{float(b.y) + off[1]:.6f}" '
                    f'stroke="#000000" stroke-width="0.03" '
                    f'stroke-dasharray="0.08,0.05"/>')
    label = _xml_text(surface.label or "surface")
    all_x = [x for pts in points for x, _ in pts]
    all_y = [y for pts in points for _, y in pts]
    min_x, max_x = min(all_x) - MARGIN, max(all_x) + MARGIN
    min_y, max_y = min(all_y) - MARGIN, max(all_y) + MARGIN
    w = (max_x - min_x) * SCALE
    h = (max_y - min_y) * SCALE
    if not (math.isfinite(w) and math.isfinite(h)):
        # float sums past the range give inf, not OverflowError
        raise OverflowError("picture beyond the float range")
    return (
        f'<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
        f'height="{h:.0f}" viewBox="{min_x:.4f} {-max_y:.4f} '
        f'{max_x - min_x:.4f} {max_y - min_y:.4f}">\n'
        f'<title>{label}</title>\n'
        f'<g transform="scale(1,-1)">\n' + "\n".join(body) +
        '\n</g>\n</svg>\n'
    )
