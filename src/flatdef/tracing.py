"""Exact straight-line tracing through glued polygons.

All tracing here happens on a direction-normalized surface, in one of
two directions: `EAST` (separatrices and core leaves) or `NORTH`
(cylinder cross sections).  Positions carry exact coordinates in the
current polygon's frame together with the boundary parameterization
needed for homology bookkeeping.

A ray along an axis keeps its height (y for `EAST`, x for `NORTH`)
inside a polygon, so where it leaves depends only on that height and
on how far along the ray it starts.  `_SlabTable` indexes one polygon
by height once, and each crossing is then a table lookup.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby

from .errors import InternalInvariantError
from .field import FieldScalar, Vec2
from .polygon import _EAST, sector_contains
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
    glued-edge transition as (polygon, edge, parameter s on the edge).
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
    lat = surface.lattice()
    out = []
    for p, edges in enumerate(lat.edges):
        for i in range(len(edges)):
            start, end = lat.corner_rays((p, i))
            if sector_contains(start, end, _EAST, lat.d,
                               include_start=True, include_end=False):
                out.append((p, i))
    return out


def _axis(direction: Vec2) -> int:
    """0 for `EAST`, 1 for `NORTH`; ValueError for any other direction."""
    x, y = direction.x, direction.y
    if not y and x == 1:
        return 0
    if not x and y == 1:
        return 1
    raise ValueError(f"tracing runs east (1, 0) or north (0, 1), "
                     f"not {direction}")


def _split(v: Vec2, axis: int):
    """(height, along) coordinates of v for rays along `axis`."""
    return (v.y, v.x) if axis == 0 else (v.x, v.y)


def _join(h, a, axis: int) -> Vec2:
    """The point at height h and along-coordinate a; undoes `_split`."""
    return Vec2(a, h) if axis == 0 else Vec2(h, a)


class _SlabTable:
    """Where a ray along one axis leaves one polygon, indexed by height.

    `heights` holds the distinct vertex heights in ascending order (the
    breakpoints).  Open slab i lies between heights[i-1] and heights[i];
    slabs 0 and len(heights) are unbounded and empty.  For each slab,
    `order[i]` lists the edges crossing it in along-ray order and
    `succ[i]` maps each to the next one.  On the line at heights[j],
    `events[j]` lists the exits of a ray on that line in ascending
    along-coordinate `alongs[j]`, one per point: a crossed edge, or a
    vertex with a non-horizontal incident edge.  `lines[e]` holds, for
    a non-horizontal edge e, its start (height, along), 1/dh and the
    slope da/dh.

    `exit` reproduces the rule of a scan over all edges: the nearest
    hit strictly ahead of the origin; at one point a vertex label found
    first stays, and an edge label gives way to a later candidate.
    """

    __slots__ = ("p", "axis", "heights", "order", "succ", "events",
                 "alongs", "lines")

    def __init__(self, p, verts, edges, axis):
        self.p = p
        self.axis = axis
        n = len(edges)
        pts = [_split(v, axis) for v in verts]
        # rank[v]: the index of vertex v's height in `heights`, so that
        # which side of a line a vertex lies on is an integer comparison
        heights = []
        rank = [0] * n
        for v in sorted(range(n), key=lambda v: pts[v][0]):
            if not heights or heights[-1] != pts[v][0]:
                heights.append(pts[v][0])
            rank[v] = len(heights) - 1
        lines = [None] * n
        for e, d in enumerate(edges):
            dh, da = _split(d, axis)
            if dh:
                inv = dh.inverse()
                lines[e] = (pts[e][0], pts[e][1], inv, da * inv)

        self.events = []
        self.alongs = []
        # above[j]: (along on line j, slope, edge) of each edge that
        # crosses the open slab just above line j
        above = [[] for _ in heights]
        for j, level in enumerate(heights):
            cands = []  # (along, kind, data), in edge scan order
            for e in range(n):
                f = (e + 1) % n
                ra, rb = rank[e], rank[f]
                if ra == rb:
                    continue  # horizontal
                if ra == j:
                    cands.append((pts[e][1], "vertex", e))
                    if rb > j:
                        above[j].append((pts[e][1], lines[e][3], e))
                elif rb == j:
                    cands.append((pts[f][1], "vertex", f))
                    if ra > j:
                        above[j].append((pts[f][1], lines[e][3], e))
                elif (ra < j) != (rb < j):
                    h0, a0, inv, slope = lines[e]
                    r = level - h0
                    along = a0 + r * slope
                    cands.append((along, "edge", (e, r * inv)))
                    above[j].append((along, slope, e))
            cands.sort(key=lambda c: c[0])  # stable: scan order within a point
            events = []
            for along, group in groupby(cands, key=lambda c: c[0]):
                group = list(group)
                _, kind, data = next((c for c in group if c[1] == "vertex"),
                                     group[-1])
                events.append((kind, data, along))
            self.events.append(events)
            self.alongs.append([along for _, _, along in events])

        # the edges of a slab keep their order across it, so it is the
        # order where they leave its lower line; edges leaving one point
        # fan out by slope
        order = [[]] + [[e for _, _, e in sorted(spans)] for spans in above]
        self.order = order
        self.succ = [dict(zip(o, o[1:])) for o in order]
        self.heights = heights
        self.lines = lines

    def exit(self, h, a, entry=None):
        """First boundary hit of the ray from (h, a), strictly ahead.

        Returns (kind, data, along): kind "vertex" with the vertex index,
        or "edge" with (edge index, parameter in (0, 1)), and the hit's
        along-coordinate.  `entry` names the edge the origin lies inside
        of, when it does; it spares the search within an open slab.
        """
        heights = self.heights
        i = bisect_left(heights, h)
        if i < len(heights) and heights[i] == h:
            alongs = self.alongs[i]
            k = bisect_right(alongs, a)
            if k < len(alongs):
                return self.events[i][k]
        elif entry is not None:
            e = self.succ[i].get(entry)
            if e is not None:
                h0, a0, inv, slope = self.lines[e]
                r = h - h0
                return "edge", (e, r * inv), a0 + r * slope
        else:
            for e in self.order[i]:
                h0, a0, inv, slope = self.lines[e]
                r = h - h0
                along = a0 + r * slope
                if (along - a).sign() > 0:
                    return "edge", (e, r * inv), along
        raise InternalInvariantError(
            f"ray from {_join(h, a, self.axis)} in polygon {self.p} "
            f"escaped the boundary")


def _polygon_table(surface, p, axis):
    """(slab table, per-edge gluing) of polygon p, cached on the surface.

    The gluing entry of edge e is (q, f, dh, da): its partner edge and
    the translation taking a point of e to the same point of f.
    """
    key = ("slabs", p, axis)
    entry = surface._cache.get(key)
    if entry is None:
        verts = surface.vertices(p)
        table = _SlabTable(p, verts, surface.polygons[p], axis)
        glue = []
        for e in range(len(verts)):
            q, f = surface.gluing[(p, e)]
            # the point at s on (p, e) is the point at 1 - s on (q, f),
            # which runs the other way: both differ by end(f) - start(e)
            end_f = surface.vertices(q)[(f + 1) % len(surface.polygons[q])]
            glue.append((q, f) + _split(end_f - verts[e], axis))
        entry = surface._cache[key] = (table, glue)
    return entry


def trace_from_corner(surface: TranslationSurface, corner, direction: Vec2,
                      max_advance_sq: FieldScalar | None = None,
                      stop_at_advance: FieldScalar | None = None):
    """Trace the leaf leaving `corner` in `direction`, `EAST` or `NORTH`.

    The advance of the trace is the plain x- or y-progress.  Stops at
    the first vertex hit; with max_advance_sq set, returns kind "bound"
    once the squared advance would exceed it; with stop_at_advance set,
    stops exactly there (kind "target", possibly mid-polygon).  Any
    other direction raises ValueError.
    """
    axis = _axis(direction)
    p, i = corner
    lat = surface.lattice()
    start_ray, end_ray = lat.corner_rays(corner)
    if not sector_contains(start_ray, end_ray, lat.point(direction), lat.d,
                           include_start=True, include_end=False):
        raise ValueError(f"direction {direction} does not leave corner {corner}")
    return _trace(surface, axis, p, surface.vertices(p)[i], ("vertex", i),
                  max_advance_sq, stop_at_advance)


def trace_from_point(surface: TranslationSurface, p: int, origin: Vec2,
                     direction: Vec2,
                     max_advance_sq: FieldScalar | None = None,
                     stop_at_advance: FieldScalar | None = None):
    """Trace the leaf through an interior point of polygon p, `EAST` or
    `NORTH`; any other direction raises ValueError."""
    return _trace(surface, _axis(direction), p, origin, None, max_advance_sq,
                  stop_at_advance)


def _beyond(advance: FieldScalar, bound_sq: FieldScalar) -> bool:
    return (advance * advance - bound_sq).sign() > 0


def _trace(surface, axis, p, origin, pos_point, max_advance_sq,
           stop_at_advance):
    one = FieldScalar(1, 0, surface.ctx)
    advance = FieldScalar(0, 0, surface.ctx)
    chords = []
    crossings = []
    h, a = _split(origin, axis)

    for _ in range(MAX_STEPS):
        # along-edge run: only possible when standing at a vertex
        if pos_point is not None and pos_point[0] == "vertex":
            j = pos_point[1]
            rise, step = _split(surface.polygons[p][j], axis)
            if not rise and step.sign() > 0:
                n = len(surface.polygons[p])
                new_adv = advance + step
                if stop_at_advance is not None:
                    remaining = stop_at_advance - advance
                    if (step - remaining).sign() > 0:
                        frac = remaining / step
                        chords.append((p, ("vertex", j), ("edge", j, frac)))
                        return TraceResult("target", chords, crossings,
                                           stop_at_advance,
                                           end_position=(p, _join(h, a + remaining, axis)),
                                           end_pathpoint=(p, ("edge", j, frac)))
                if max_advance_sq is not None and _beyond(new_adv, max_advance_sq):
                    return TraceResult("bound", chords, crossings, advance)
                chords.append((p, ("vertex", j), ("vertex", (j + 1) % n)))
                return TraceResult("vertex", chords, crossings, new_adv,
                                   end_corner=(p, (j + 1) % n))
        table, glue = _polygon_table(surface, p, axis)
        entry = pos_point[1] if pos_point is not None and pos_point[0] == "edge" else None
        kind, data, along = table.exit(h, a, entry)
        t = along - a
        if stop_at_advance is not None:
            remaining = stop_at_advance - advance
            if (t - remaining).sign() > 0:
                # stop mid-chord at the exact requested advance; the
                # unfinished chord from pos_point is left to the caller
                return TraceResult("target", chords, crossings,
                                   stop_at_advance,
                                   end_position=(p, _join(h, a + remaining, axis)),
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
        crossings.append((p, e, s))
        q, f, dh, da = glue[e]
        h, a = h + dh, along + da
        s2 = one - s
        if stop_at_advance is not None and (new_adv - stop_at_advance).sign() == 0:
            return TraceResult("target", chords, crossings, new_adv,
                               end_position=(q, _join(h, a, axis)),
                               end_corner=None,
                               end_pathpoint=(q, ("edge", f, s2)))
        advance = new_adv
        p, pos_point = q, ("edge", f, s2)
    raise InternalInvariantError("trace exceeded the step safety cap")
