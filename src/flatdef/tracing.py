"""Exact straight-line tracing through glued polygons.

All tracing here happens on a direction-normalized surface, so rays run
horizontally (for separatrices and core leaves) or vertically (for
cylinder cross sections).  Positions carry exact coordinates in the
current polygon's frame together with the boundary parameterization
needed for homology bookkeeping.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .field import FieldScalar, Vec2
from .polygon import same_ray, sector_contains
from .surface import TranslationSurface

__all__ = ["TraceResult", "trace_from_corner", "east_ray_corners", "EAST", "NORTH"]

MAX_STEPS = 1_000_000


def EAST(ctx) -> Vec2:
    return Vec2(FieldScalar(1, 0, ctx), FieldScalar(0, 0, ctx))


def NORTH(ctx) -> Vec2:
    return Vec2(FieldScalar(0, 0, ctx), FieldScalar(1, 0, ctx))


class TraceResult:
    """Outcome of a straight-line trace.

    kind is "vertex" (hit a cone/marked point), "bound" (advance budget
    exhausted mid-flight) or "target" (stopped exactly at the requested
    advance).  chords is the list of polygon runs
    (polygon, start PathPoint, end PathPoint); crossings records every
    glued-edge transition as (polygon, edge, t, cell, sign).
    """

    __slots__ = ("kind", "chords", "crossings", "advance", "end_corner",
                 "end_position", "pending_start", "end_pathpoint")

    def __init__(self, kind, chords, crossings, advance, end_corner=None,
                 end_position=None, pending_start=None, end_pathpoint=None):
        self.kind = kind
        self.chords = chords
        self.crossings = crossings
        self.advance = advance
        self.end_corner = end_corner
        self.end_position = end_position
        self.pending_start = pending_start
        self.end_pathpoint = end_pathpoint


def east_ray_corners(surface: TranslationSurface):
    """All corners whose half-open sector [out, rev-in) contains (1, 0).

    Each eastward separatrix germ of the horizontal foliation appears at
    exactly one corner, so these are the rays to trace for a horizontal
    decomposition.
    """
    east = EAST(surface.ctx)
    out = []
    for p in range(len(surface.polygons)):
        for i in range(len(surface.polygons[p])):
            start, end = surface.corner_rays((p, i))
            if sector_contains(start, end, east,
                               include_start=True, include_end=False):
                out.append((p, i))
    return out


def _exit_ray(surface, p, origin: Vec2, direction: Vec2):
    """First boundary hit of the ray origin + t*direction, t > 0.

    Returns (hit_point, advance, kind, data): kind "vertex" with the
    vertex index, or "edge" with (edge index, parameter in (0,1)).
    Edges parallel to the direction are skipped; the caller handles
    along-edge runs before casting.

    Vertex v lies on the side h(v) = direction x (v - origin) of the
    ray's line, so edge e from v_e to v_e+1 meets the line at parameter
    s = h(v_e) / (h(v_e) - h(v_e+1)), inside [0, 1] exactly when the two
    signs straddle or touch zero, with advance
    t = ((v_e - origin) x edge_e) / (h(v_e+1) - h(v_e)).  Candidates are
    compared as fractions by cross-multiplication, and only the winner's
    t and s are divided out.
    """
    verts = surface.vertices(p)
    poly = surface.polygons[p]
    n = len(poly)
    c0 = direction.cross(origin)
    h = [direction.cross(v) - c0 for v in verts]
    sides = [x.sign() for x in h]
    best = None  # (num, den, den sign, edge, vertex index or None)
    for e in range(n):
        f = (e + 1) % n
        sa, sb = sides[e], sides[f]
        if sa == sb:
            continue  # parallel, or the line misses the closed edge
        num = (verts[e] - origin).cross(poly[e])
        den = h[f] - h[e]
        dsgn = 1 if sb > sa else -1
        if num.sign() * dsgn <= 0:
            continue
        if best is not None:
            bnum, bden, bsgn, _, bvertex = best
            order = (num * bden - bnum * den).sign() * dsgn * bsgn
            # at the same advance the hit is the same point: a vertex
            # label found first stays, an edge label gives way
            if order > 0 or (order == 0 and bvertex is not None):
                continue
        vertex = e if sa == 0 else f if sb == 0 else None
        best = (num, den, dsgn, e, vertex)
    if best is None:
        raise InternalInvariantError(
            f"ray from {origin} in polygon {p} escaped the boundary")
    num, den, _, e, vertex = best
    t = num / den
    if vertex is not None:
        return verts[vertex], t, "vertex", vertex
    s = h[e] / -den
    a, d = verts[e], poly[e]
    return Vec2(a.x + d.x * s, a.y + d.y * s), t, "edge", (e, s)


def _cross_edge(surface, p, e, s):
    """Continue through the gluing: point at parameter s on (p, e) lands
    at parameter 1-s on the partner edge."""
    q, f = surface.gluing[(p, e)]
    s2 = FieldScalar(1, 0, surface.ctx) - s
    a = surface.vertices(q)[f]
    d = surface.polygons[q][f]
    return q, f, s2, Vec2(a.x + d.x * s2, a.y + d.y * s2)


def trace_from_corner(surface: TranslationSurface, corner, direction: Vec2,
                      max_advance_sq: FieldScalar | None = None,
                      stop_at_advance: FieldScalar | None = None):
    """Trace the leaf leaving `corner` in `direction`.

    The advance of the trace is measured in ray-parameter units
    (direction . displacement / |direction|^2, i.e. plain x- or
    y-progress for the unit axis directions).  Stops at the first vertex
    hit; with max_advance_sq set, returns kind "bound" once the squared
    advance would exceed it; with stop_at_advance set, stops exactly
    there (kind "target", possibly mid-polygon).
    """
    p, i = corner
    start_ray, end_ray = surface.corner_rays(corner)
    if not sector_contains(start_ray, end_ray, direction,
                           include_start=True, include_end=False):
        raise ValueError(f"direction {direction} does not leave corner {corner}")
    return _trace(surface, p, surface.vertices(p)[i], ("vertex", i), direction,
                  max_advance_sq, stop_at_advance)


def trace_from_point(surface: TranslationSurface, p: int, origin: Vec2,
                     direction: Vec2,
                     max_advance_sq: FieldScalar | None = None,
                     stop_at_advance: FieldScalar | None = None):
    """Trace the leaf through an interior point of polygon p."""
    return _trace(surface, p, origin, None, direction, max_advance_sq,
                  stop_at_advance)


def _beyond(advance: FieldScalar, bound_sq: FieldScalar) -> bool:
    return (advance * advance - bound_sq).sign() > 0


def _trace(surface, p, origin, pos_point, direction,
           max_advance_sq, stop_at_advance):
    zero = FieldScalar(0, 0, surface.ctx)
    advance = zero
    chords = []
    crossings = []
    d2 = direction.dot(direction)

    for _ in range(MAX_STEPS):
        # along-edge run: only possible when standing at a vertex
        if pos_point is not None and pos_point[0] == "vertex":
            j = pos_point[1]
            out_edge = surface.polygons[p][j]
            if same_ray(out_edge, direction):
                n = len(surface.polygons[p])
                step = out_edge.dot(direction) / d2
                new_adv = advance + step
                if stop_at_advance is not None:
                    remaining = stop_at_advance - advance
                    if (step - remaining).sign() > 0:
                        frac = remaining / step
                        stop = Vec2(origin.x + out_edge.x * frac,
                                    origin.y + out_edge.y * frac)
                        chords.append((p, ("vertex", j), ("edge", j, frac)))
                        return TraceResult("target", chords, crossings,
                                           stop_at_advance,
                                           end_position=(p, stop),
                                           end_pathpoint=(p, ("edge", j, frac)))
                if max_advance_sq is not None and _beyond(new_adv, max_advance_sq):
                    return TraceResult("bound", chords, crossings, advance)
                chords.append((p, ("vertex", j), ("vertex", (j + 1) % n)))
                return TraceResult("vertex", chords, crossings, new_adv,
                                   end_corner=(p, (j + 1) % n))
        point, t, kind, data = _exit_ray(surface, p, origin, direction)
        if stop_at_advance is not None:
            remaining = stop_at_advance - advance
            if (t - remaining).sign() > 0:
                # stop mid-chord at the exact requested advance; the
                # unfinished chord from pos_point is left to the caller
                stop = Vec2(origin.x + direction.x * remaining,
                            origin.y + direction.y * remaining)
                return TraceResult("target", chords, crossings,
                                   stop_at_advance, end_position=(p, stop),
                                   pending_start=(p, pos_point))
        new_adv = advance + t
        if max_advance_sq is not None and _beyond(new_adv, max_advance_sq):
            return TraceResult("bound", chords, crossings, advance)
        if kind == "vertex":
            chords.append((p, pos_point, ("vertex", data)))
            return TraceResult("vertex", chords, crossings, new_adv,
                               end_corner=(p, data))
        e, s = data
        chords.append((p, pos_point, ("edge", e, s)))
        q, f, s2, point2 = _cross_edge(surface, p, e, s)
        crossings.append((p, e, s))
        if stop_at_advance is not None and (new_adv - stop_at_advance).sign() == 0:
            return TraceResult("target", chords, crossings, new_adv,
                               end_position=(q, Vec2(point2.x, point2.y)),
                               end_corner=None,
                               end_pathpoint=(q, ("edge", f, s2)))
        advance = new_adv
        p, origin, pos_point = q, point2, ("edge", f, s2)
    raise InternalInvariantError("trace exceeded the step safety cap")
