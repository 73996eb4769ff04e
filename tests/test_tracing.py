"""Differential tests of the trace on its integer lattice form.

`tracing.trace_from_corner` and `trace_from_point` keep a ray's height
and the sum of its along-translations as Z[sqrt d] pairs over the
lattice denominator D (over k*D for an interior start), and decide the
bound and stop tests by cross-multiplying.  The reference below is a
copy of the trace they replaced, on `FieldScalar`s: `RefSlabTable`
inverted each edge's height step and kept slopes, and `ref_trace`
summed the advance chord by chord and tested the bound with
`ref_beyond`.  Both must agree on every `TraceResult` field -- kind,
advance, end corner, end position, pending start, end PathPoint, and
the chords and crossings, of bound results too -- or raise the same
error.  The cases run east and north, from corners and from interior
points with mixed denominators, over Q, Q(sqrt 2) and Q(sqrt 5), with
bounds and stops drawn at random and exactly at an advance the
reference reached at a crossing, and with a bound from another field.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from flatdef.cylinders import _normalize
from flatdef.errors import InternalInvariantError
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.polygon import ear_clip, sector_contains
from flatdef.surface import l_shape, square_tiled
from flatdef.tracing import (EAST, NORTH, TraceResult, east_ray_corners,
                             trace_from_corner, trace_from_point)

FIELDS = (0, 2, 5)


# -- the reference: the FieldScalar trace ----------------------------------------

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
                        return TraceResult("target", chords, crossings,
                                           stop_at_advance,
                                           end_position=(p, _join(h, a + remaining, axis)),
                                           end_pathpoint=(p, ("edge", j, frac)))
                if max_advance_sq is not None and ref_beyond(new_adv, max_advance_sq):
                    return TraceResult("bound", chords, crossings, advance)
                chords.append((p, ("vertex", j), ("vertex", (j + 1) % n)))
                advances.append(new_adv)
                return TraceResult("vertex", chords, crossings, new_adv,
                                   end_corner=(p, (j + 1) % n))
        table, glue = ref_polygon_table(surface, p, axis, cache)
        entry = pos_point[1] if pos_point is not None and pos_point[0] == "edge" else None
        kind, data, along = table.exit(h, a, entry)
        t = along - a
        if stop_at_advance is not None:
            remaining = stop_at_advance - advance
            if (t - remaining).sign() > 0:
                return TraceResult("target", chords, crossings,
                                   stop_at_advance,
                                   end_position=(p, _join(h, a + remaining, axis)),
                                   pending_start=(p, pos_point))
        new_adv = advance + t
        if max_advance_sq is not None and ref_beyond(new_adv, max_advance_sq):
            return TraceResult("bound", chords, crossings, advance)
        advances.append(new_adv)
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
    raise AssertionError("reference trace ran too long")


# -- comparison ----------------------------------------------------------------

def _exact(value):
    if isinstance(value, FieldScalar):
        return ("scalar", value.ctx.d, value._A, value._B, value._D)
    if isinstance(value, Vec2):
        return ("vec", _exact(value.x), _exact(value.y))
    if isinstance(value, (tuple, list)):
        return tuple(_exact(v) for v in value)
    return value


def record(res):
    """Every field of a TraceResult, exactly; the lengths of the chords
    and crossings are read before their items are."""
    lengths = (len(res.chords), len(res.crossings))
    chords, crossings = list(res.chords), list(res.crossings)
    assert lengths == (len(chords), len(crossings))
    return (res.kind, _exact(res.advance), res.end_corner,
            _exact(res.end_position), _exact(res.pending_start),
            _exact(res.end_pathpoint), _exact(chords), _exact(crossings))


def outcome(fn, *args, **kwargs):
    try:
        return ("ok", record(fn(*args, **kwargs)))
    except (InternalInvariantError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


# -- inputs --------------------------------------------------------------------

def _scalar(draw, ctx, lo, hi):
    """a + b*sqrt(d), with a in [lo, hi] and |b| <= 1/4: positive when lo >= 1."""
    a = draw(st.fractions(min_value=lo, max_value=hi, max_denominator=8))
    b = (draw(st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4),
                           max_denominator=4)) if ctx.d else Fraction(0))
    return FieldScalar(a, b, ctx)


@st.composite
def surfaces(draw):
    """An L-shape or a 3-square L origami, sheared in x, in y, or both,
    so that its edges are axis-parallel or slanted."""
    ctx = FieldCtx.get(draw(st.sampled_from(FIELDS)))
    if draw(st.booleans()):
        w2 = _scalar(draw, ctx, 1, 2)
        surface = l_shape(w2 + _scalar(draw, ctx, 1, 2), _scalar(draw, ctx, 1, 2),
                          w2, _scalar(draw, ctx, 1, 2))
    else:
        surface = square_tiled([(1, 2)], [(1, 3)], n=3)
    shear = draw(st.sampled_from(["none", "x", "y", "both"]))
    zero = FieldScalar(0, 0, ctx)
    t = _scalar(draw, ctx, -2, 2) if shear in ("x", "both") else zero
    u = _scalar(draw, ctx, -2, 2) if shear in ("y", "both") else zero
    if shear != "none":
        surface = surface.apply_matrix(Mat2(1, t, 0, 1)).apply_matrix(Mat2(1, 0, u, 1))
    return surface


@st.composite
def starts(draw, surface):
    """("corner", corner) or ("point", p, origin): a point inside a
    triangle of polygon p, on one of its edges, or moved to a vertex's
    height (inside or outside the polygon), at denominators up to 7."""
    p = draw(st.integers(0, len(surface.polygons) - 1))
    verts = surface.vertices(p)
    n = len(verts)
    if draw(st.booleans()):
        return ("corner", (p, draw(st.integers(0, n - 1))))
    lat = surface.lattice()
    i, j, k = draw(st.sampled_from(ear_clip(lat.verts[p], lat.d)))
    w = st.fractions(min_value=0, max_value=1, max_denominator=7).filter(
        lambda x: 0 < x < 1)
    where = draw(st.sampled_from(["interior", "edge", "vertex height"]))
    if where == "edge":
        e = draw(st.integers(0, n - 1))
        return ("point", p, verts[e] + surface.polygons[p][e].scale(draw(w)))
    w1, w2 = draw(w), draw(w)
    if w1 + w2 >= 1:
        w1, w2 = w1 / 2, w2 / 2
    origin = (verts[i] + (verts[j] - verts[i]).scale(FieldScalar(w1))
              + (verts[k] - verts[i]).scale(FieldScalar(w2)))
    if where == "vertex height":
        v = verts[draw(st.integers(0, n - 1))]
        origin = draw(st.sampled_from([Vec2(origin.x, v.y), Vec2(v.x, origin.y)]))
    return ("point", p, origin)


def run(trace_corner, trace_point, surface, start, direction, **kw):
    if start[0] == "corner":
        return trace_corner(surface, start[1], direction, **kw)
    return trace_point(surface, start[1], start[2], direction, **kw)


@st.composite
def cases(draw):
    """(surface, start, direction, keyword arguments of the trace).

    The bound or stop is drawn at random, or exactly at an advance the
    reference reaches at a crossing or at its end (a bound as its
    square), or halfway between two such advances.
    """
    surface = draw(surfaces())
    ctx = surface.ctx
    direction = draw(st.sampled_from([EAST(ctx), NORTH(ctx)]))
    start = draw(starts(surface))
    limit = _scalar(draw, ctx, 1, 12)
    mode = draw(st.sampled_from(["bound", "stop", "exact bound", "exact stop",
                                 "mid stop"]))
    if mode == "bound":
        return surface, start, direction, {"max_advance_sq": limit * limit}
    if mode == "stop":
        return surface, start, direction, {"stop_at_advance": limit}
    advances = []
    try:
        run(ref_trace_from_corner, ref_trace_from_point, surface, start,
            direction, max_advance_sq=limit * limit, advances=advances)
    except (InternalInvariantError, ValueError):
        pass
    advances = [a for a in advances if a.sign() > 0]
    if not advances:
        return surface, start, direction, {"max_advance_sq": limit * limit}
    i = draw(st.integers(0, len(advances) - 1))
    if mode == "exact bound":
        return surface, start, direction, {"max_advance_sq": advances[i] * advances[i]}
    if mode == "exact stop":
        return surface, start, direction, {"stop_at_advance": advances[i]}
    before = advances[i - 1] if i else FieldScalar(0, 0, ctx)
    return surface, start, direction, {"stop_at_advance": (before + advances[i]) / 2}


# -- the tests -----------------------------------------------------------------

def slanted_lshape():
    """A generic L-shape over Q(sqrt 2) with slanted horizontal sides:
    its east ray from corner (0, 6) crosses four edges within advance 10."""
    r = FieldCtx.get(2).sqrt_gen()
    return l_shape(4 + r / 16, 3 - r / 8, 2 - r / 16, 2 + r / 8).apply_matrix(
        Mat2(1, 0, Fraction(2, 3), 1))


class TestTrace:
    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_matches_reference(self, case):
        surface, start, direction, kw = case
        assert outcome(run, trace_from_corner, trace_from_point, surface,
                       start, direction, **kw) == \
            outcome(run, ref_trace_from_corner, ref_trace_from_point,
                    surface, start, direction, **kw)

    def crossing_advances(self, surface, corner, bound_sq):
        advances = []
        ref_trace_from_corner(surface, corner, EAST(surface.ctx),
                              max_advance_sq=bound_sq, advances=advances)
        return advances

    def test_bound_at_a_crossing(self):
        # a bound equal to the square of the advance at a crossing lets
        # the ray cross; the next exit is beyond it
        surface = slanted_lshape()
        corner = (0, 6)
        advances = self.crossing_advances(surface, corner, 100)
        assert len(advances) == 5
        for a in advances[:-1]:
            res = trace_from_corner(surface, corner, EAST(surface.ctx),
                                    max_advance_sq=a * a)
            assert res.kind == "bound" and res.advance == a
            assert record(res) == record(ref_trace_from_corner(
                surface, corner, EAST(surface.ctx), max_advance_sq=a * a))

    def test_stop_at_and_between_crossings(self):
        surface = slanted_lshape()
        corner = (0, 6)
        advances = self.crossing_advances(surface, corner, 100)
        for a, b in zip(advances, advances[1:]):
            for stop, pending in ((a, False), ((a + b) / 2, True)):
                res = trace_from_corner(surface, corner, EAST(surface.ctx),
                                        stop_at_advance=stop)
                assert res.kind == "target" and res.advance == stop
                assert (res.pending_start is not None) == pending
                assert (res.end_pathpoint is not None) != pending
                assert record(res) == record(ref_trace_from_corner(
                    surface, corner, EAST(surface.ctx), stop_at_advance=stop))

    @pytest.mark.parametrize("v", [(1, 0), (2, 1), (3, 1), (1, 1)])
    def test_bound_of_another_field(self, v):
        # a bound over Q(sqrt 5) for a surface over Q(sqrt 2) is compared
        # in its own field while the squared advance is rational, and
        # raises ValueError once it is not: (1, 1) raises, the others
        # trace to the end
        surface = l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen())
        _, _, normalized = _normalize(surface, Vec2(*v))
        bound = FieldScalar(3, 1, FieldCtx.get(5)) ** 2 * (v[0] ** 2 + v[1] ** 2)
        found = []
        for corner in east_ray_corners(normalized):
            args = (normalized, corner, EAST(normalized.ctx))
            found.append(outcome(trace_from_corner, *args, max_advance_sq=bound))
            assert found[-1] == outcome(ref_trace_from_corner, *args,
                                        max_advance_sq=bound)
        assert any(f[0] == "ValueError" for f in found) == (v == (1, 1))

    @pytest.mark.parametrize("origin, direction", [
        ((2, Fraction(1, 2)), EAST),
        ((Fraction(1, 3), -1), NORTH),
        ((Fraction(1, 2), 2), EAST),
        ((1, Fraction(2, 3)), EAST),
    ])
    def test_escape_raises_like_reference(self, origin, direction):
        # origins beside, below and above the unit torus's square, and
        # one on its exit edge
        torus = square_tiled([1], [1])
        args = (torus, 0, Vec2(*origin), direction(torus.ctx))
        found = outcome(trace_from_point, *args, max_advance_sq=4)
        assert found[0] == "InternalInvariantError"
        assert "escaped the boundary" in found[1]
        assert found == outcome(ref_trace_from_point, *args, max_advance_sq=4)
