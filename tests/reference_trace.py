"""The trace on `FieldScalar`s, kept as a reference for the tests.

This is the trace `tracing` ran before the integer lattice form, east
and north, from corners and from interior points:
`RefSlabTable` inverts each edge's height step and keeps slopes, and
`ref_trace` sums the advance chord by chord, tests a bound with
`ref_beyond`, and with `stop_at_advance` set stops exactly at that
advance (kind "target", possibly inside a polygon).  tests/test_tracing.py
checks the library's east trace against it, and tests/test_cross_curve.py
traces north with it to rebuild each cylinder's cross curve the way
`decompose` once did.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import groupby

from flatdef.errors import InternalInvariantError
from flatdef.field import FieldScalar, Vec2
from flatdef.polygon import cross_sign, same_ray

# the fields of `tracing.TraceResult`, and where a "target" trace stopped:
# end_position is (polygon, point); pending_start is the start of the
# chord left open inside a polygon, end_pathpoint the edge point a stop
# on a crossing or an edge run lands on
RefTrace = namedtuple("RefTrace", "kind chords crossings advance end_corner "
                      "end_position pending_start end_pathpoint",
                      defaults=(None, None, None, None))


def sector_contains(start, end, w, d, *,
                    include_start: bool = True, include_end: bool = False) -> bool:
    """Membership of direction w in the ccw sector from start to end, on
    lattice-form rays: the general sector test the library ran before
    `polygon.corner_crosses_east` decided corners and
    `polygon._diagonal_ok` decided ears by two tests.

    The sweep angle is taken in (0, 2*pi); start == end (as rays) is a
    full turn and contains everything.  Boundary membership follows the
    include_* flags.
    """
    if same_ray(w, start, d):
        return include_start
    if same_ray(w, end, d):
        return include_end
    if same_ray(start, end, d):
        return True  # full 2*pi sector
    s = cross_sign(start, end, d)
    if s > 0:
        return cross_sign(start, w, d) > 0 and cross_sign(w, end, d) > 0
    if s < 0:
        # complement of the ccw sector from end to start (angle < pi)
        return not (cross_sign(end, w, d) > 0 and cross_sign(w, start, d) > 0)
    # start and end anti-parallel: half-plane to the left of start
    return cross_sign(start, w, d) > 0


def _split(v, axis):
    return (v.y, v.x) if axis == 0 else (v.x, v.y)


def _join(h, a, axis):
    return Vec2(a, h) if axis == 0 else Vec2(h, a)


def _axis(direction):
    return 0 if direction.y.is_zero() else 1


class RefSlabTable:
    def __init__(self, p, verts, edges, axis):
        self.p = p
        self.axis = axis
        n = len(edges)
        pts = [_split(v, axis) for v in verts]
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
        above = [[] for _ in heights]
        for j, level in enumerate(heights):
            cands = []
            for e in range(n):
                f = (e + 1) % n
                ra, rb = rank[e], rank[f]
                if ra == rb:
                    continue
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
            cands.sort(key=lambda c: c[0])
            events = []
            for along, group in groupby(cands, key=lambda c: c[0]):
                group = list(group)
                _, kind, data = next((c for c in group if c[1] == "vertex"),
                                     group[-1])
                events.append((kind, data, along))
            self.events.append(events)
            self.alongs.append([along for _, _, along in events])
        order = [[]] + [[e for _, _, e in sorted(spans)] for spans in above]
        self.order = order
        self.succ = [dict(zip(o, o[1:])) for o in order]
        self.heights = heights
        self.lines = lines

    def exit(self, h, a, entry=None):
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


def ref_polygon_table(surface, p, axis, cache):
    key = (p, axis)
    if key not in cache:
        verts = surface.vertices(p)
        table = RefSlabTable(p, verts, surface.polygons[p], axis)
        glue = []
        for e in range(len(verts)):
            q, f = surface.gluing[(p, e)]
            end_f = surface.vertices(q)[(f + 1) % len(surface.polygons[q])]
            glue.append((q, f) + _split(end_f - verts[e], axis))
        cache[key] = (table, glue)
    return cache[key]


def ref_beyond(advance, bound_sq):
    return (advance * advance - bound_sq).sign() > 0


def ref_trace_from_corner(surface, corner, direction, max_advance_sq=None,
                          stop_at_advance=None, advances=None):
    p, i = corner
    lat = surface.lattice()
    start_ray, end_ray = lat.corner_rays(corner)
    if not sector_contains(start_ray, end_ray, lat.point(direction), lat.d,
                           include_start=True, include_end=False):
        raise ValueError(f"direction {direction} does not leave corner {corner}")
    return ref_trace(surface, _axis(direction), p, surface.vertices(p)[i],
                     ("vertex", i), max_advance_sq, stop_at_advance, advances)


def ref_trace_from_point(surface, p, origin, direction, max_advance_sq=None,
                         stop_at_advance=None, advances=None):
    return ref_trace(surface, _axis(direction), p, origin, None,
                     max_advance_sq, stop_at_advance, advances)


def ref_trace(surface, axis, p, origin, pos_point, max_advance_sq,
              stop_at_advance, advances=None):
    """The FieldScalar trace; appends the advance at each crossing and at
    a vertex end to `advances`, when given."""
    advances = [] if advances is None else advances
    cache = {}
    one = FieldScalar(1, 0, surface.ctx)
    advance = FieldScalar(0, 0, surface.ctx)
    chords = []
    crossings = []
    h, a = _split(origin, axis)
    for _ in range(100_000):
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
                        return RefTrace("target", chords, crossings,
                                           stop_at_advance,
                                           end_position=(p, _join(h, a + remaining, axis)),
                                           end_pathpoint=(p, ("edge", j, frac)))
                if max_advance_sq is not None and ref_beyond(new_adv, max_advance_sq):
                    return RefTrace("bound", chords, crossings, advance)
                chords.append((p, ("vertex", j), ("vertex", (j + 1) % n)))
                advances.append(new_adv)
                return RefTrace("vertex", chords, crossings, new_adv,
                                   end_corner=(p, (j + 1) % n))
        table, glue = ref_polygon_table(surface, p, axis, cache)
        entry = pos_point[1] if pos_point is not None and pos_point[0] == "edge" else None
        kind, data, along = table.exit(h, a, entry)
        t = along - a
        if stop_at_advance is not None:
            remaining = stop_at_advance - advance
            if (t - remaining).sign() > 0:
                return RefTrace("target", chords, crossings,
                                   stop_at_advance,
                                   end_position=(p, _join(h, a + remaining, axis)),
                                   pending_start=(p, pos_point))
        new_adv = advance + t
        if max_advance_sq is not None and ref_beyond(new_adv, max_advance_sq):
            return RefTrace("bound", chords, crossings, advance)
        advances.append(new_adv)
        if kind == "vertex":
            chords.append((p, pos_point, ("vertex", data)))
            return RefTrace("vertex", chords, crossings, new_adv,
                               end_corner=(p, data))
        e, s = data
        chords.append((p, pos_point, ("edge", e, s)))
        crossings.append((p, e, s))
        q, f, dh, da = glue[e]
        h, a = h + dh, along + da
        s2 = one - s
        if stop_at_advance is not None and (new_adv - stop_at_advance).sign() == 0:
            return RefTrace("target", chords, crossings, new_adv,
                               end_position=(q, _join(h, a, axis)),
                               end_corner=None,
                               end_pathpoint=(q, ("edge", f, s2)))
        advance = new_adv
        p, pos_point = q, ("edge", f, s2)
    raise AssertionError("reference trace ran too long")
