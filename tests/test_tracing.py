"""Differential tests of the trace on its integer lattice form.

`tracing.trace_from_corner` and `trace_from_point` keep an eastward
ray's height and the sum of its x-translations as Z[sqrt d] pairs over
the lattice denominator D, and decide the bound test by
cross-multiplying.  An interior start traces on the surface's lattice
re-expressed over a multiple of D that holds it, which must leave the
surface's own lattice and exit lines as they were.  The reference is
the trace they replaced, on `FieldScalar`s (tests/reference_trace.py): `RefSlabTable`
inverted each edge's height step and kept slopes, and `ref_trace`
summed the advance chord by chord and tested the bound with
`ref_beyond`.  Both must agree on every `TraceResult` field -- kind,
advance, end corner, and the chords and crossings, of bound results
too -- or raise the same error.  The cases run from corners and from
interior points with mixed denominators, over Q, Q(sqrt 2) and
Q(sqrt 5), with bounds drawn at random and exactly at an advance the
reference reached at a crossing.  Among the surfaces, sheared strips
of 4 or 5 squares have one polygon of 10 or 12 vertices, so a ray
crosses several diagonals of its triangles inside one polygon.  A bound or a start over another
field than the surface follows the one field rule of `field.join_ctx`:
a rational surface takes the field of an irrational start or bound, and
a bound over another irrational field raises before the first step,
whichever way the ray runs.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from flatdef import tracing
from flatdef.cylinders import NO_CYLINDER, _normalize, decompose
from flatdef.errors import InternalInvariantError
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.polygon import ear_clip
from flatdef.serialize import decomposition_to_json
from flatdef.search import triangulated
from flatdef.surface import TranslationSurface, l_shape, square_tiled
from flatdef.tracing import (east_ray_corners, trace_from_corner,
                             trace_from_point)

import reference_trace

FIELDS = (0, 2, 5)
# the direction the reference traces take; the library traces only east
EAST = Vec2(1, 0)


def ref_trace_from_corner(surface, corner, **kw):
    return reference_trace.ref_trace_from_corner(surface, corner, EAST, **kw)


def ref_trace_from_point(surface, p, origin, **kw):
    return reference_trace.ref_trace_from_point(surface, p, origin, EAST, **kw)


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
    return (res.kind, _exact(res.advance), res.end_corner, _exact(chords),
            _exact(crossings))


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


def strip(tops):
    """len(tops) unit squares in a row as one polygon: its right side
    glued to its left, and the top of square j to the bottom of square
    tops[j].  Each long side has a straight vertex between squares."""
    k = len(tops)
    edges = [(1, 0)] * k + [(0, 1)] + [(-1, 0)] * k + [(0, -1)]
    gluing = [((0, k), (0, 2 * k + 1))]
    gluing += [((0, 2 * k - j), (0, tops[j])) for j in range(k)]
    return TranslationSurface([edges], gluing, "strip")


@st.composite
def surfaces(draw):
    """An L-shape, a 3-square L origami or a strip of 4 or 5 squares,
    sheared in x, in y, or both, so that its edges are axis-parallel or
    slanted."""
    ctx = FieldCtx.get(draw(st.sampled_from(FIELDS)))
    kind = draw(st.sampled_from(["l-shape", "origami", "strip"]))
    if kind == "l-shape":
        w2 = _scalar(draw, ctx, 1, 2)
        surface = l_shape(w2 + _scalar(draw, ctx, 1, 2), _scalar(draw, ctx, 1, 2),
                          w2, _scalar(draw, ctx, 1, 2))
    elif kind == "origami":
        surface = square_tiled([(1, 2)], [(1, 3)], n=3)
    else:
        surface = strip(draw(st.permutations(range(draw(st.sampled_from([4, 5]))))))
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


def run(trace_corner, trace_point, surface, start, **kw):
    if start[0] == "corner":
        return trace_corner(surface, start[1], **kw)
    return trace_point(surface, start[1], start[2], **kw)


@st.composite
def cases(draw):
    """(surface, start, keyword arguments of the trace).

    The bound is drawn at random, or as the square of an advance the
    reference reaches at a crossing or at its end, or of the advance
    halfway between two such advances.
    """
    surface = draw(surfaces())
    ctx = surface.ctx
    start = draw(starts(surface))
    limit = _scalar(draw, ctx, 1, 12)
    mode = draw(st.sampled_from(["bound", "exact bound", "mid bound"]))
    if mode == "bound":
        return surface, start, {"max_advance_sq": limit * limit}
    advances = []
    try:
        run(ref_trace_from_corner, ref_trace_from_point, surface, start,
            max_advance_sq=limit * limit, advances=advances)
    except (InternalInvariantError, ValueError):
        pass
    advances = [a for a in advances if a.sign() > 0]
    if not advances:
        return surface, start, {"max_advance_sq": limit * limit}
    i = draw(st.integers(0, len(advances) - 1))
    if mode == "exact bound":
        bound = advances[i]
    else:
        bound = ((advances[i - 1] if i else FieldScalar(0, 0, ctx))
                 + advances[i]) / 2
    return surface, start, {"max_advance_sq": bound * bound}


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
        surface, start, kw = case
        assert outcome(run, trace_from_corner, trace_from_point, surface,
                       start, **kw) == \
            outcome(run, ref_trace_from_corner, ref_trace_from_point,
                    surface, start, **kw)

    def crossing_advances(self, surface, corner, bound_sq):
        advances = []
        ref_trace_from_corner(surface, corner, max_advance_sq=bound_sq,
                              advances=advances)
        return advances

    def test_bound_at_a_crossing(self):
        # a bound equal to the square of the advance at a crossing lets
        # the ray cross; the next exit is beyond it
        surface = slanted_lshape()
        corner = (0, 6)
        advances = self.crossing_advances(surface, corner, 100)
        assert len(advances) == 5
        for a in advances[:-1]:
            res = trace_from_corner(surface, corner, max_advance_sq=a * a)
            assert res.kind == "bound" and res.advance == a
            assert record(res) == record(ref_trace_from_corner(
                surface, corner, max_advance_sq=a * a))

    def test_bound_whose_rational_part_cancels(self):
        # the 3-square origami over Q normalized in (3, 1): each ray
        # crosses at advances 10/3 and 20/3 and ends at a vertex at 10.
        # Against a bound a^2 -+ sqrt(5)/100 the test at advance a has a
        # zero rational part, so only the sign of the sqrt(5) part
        # decides: below, the ray stops before that crossing or reports
        # "bound" at that vertex; above, it passes
        surface = square_tiled([(1, 2)], [(1, 3)], n=3)
        normalized = surface.apply_matrix(_normalize(surface, Vec2(3, 1))[1])
        eps = FieldCtx.get(5).sqrt_gen() / 100
        for corner in east_ray_corners(normalized):
            advances = self.crossing_advances(normalized, corner, 1000)
            assert [str(a) for a in advances] == ["10/3", "20/3", "10"]
            for i, a in enumerate(advances):
                vertex = i == len(advances) - 1
                for sign in (-1, 1):
                    bound = a * a + sign * eps
                    res = trace_from_corner(normalized, corner,
                                            max_advance_sq=bound)
                    assert record(res) == record(ref_trace_from_corner(
                        normalized, corner, max_advance_sq=bound))
                    if sign < 0:
                        assert res.kind == "bound"
                        assert len(res.crossings) == i
                    else:
                        assert res.kind == ("vertex" if vertex else "bound")
                        assert len(res.crossings) == min(i + 1, 2)

    @pytest.mark.parametrize("v", [(1, 0), (2, 1), (3, 1), (1, 1), (1, 2)])
    def test_bound_of_another_field(self, v, monkeypatch):
        # a bound over Q(sqrt 5) for a surface over Q(sqrt 2) raises one
        # ValueError before the first step in every direction, also where
        # every squared advance is rational, through the tracer and
        # through decompose
        message = r"^incompatible fields Q\(sqrt\(5\)\) and Q\(sqrt\(2\)\)$"
        surface = l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen())
        length = FieldScalar(3, 1, FieldCtx.get(5))
        with pytest.raises(ValueError, match=message):
            decompose(surface, v, trace_length=length)
        _, _, normalized = _normalize(surface, Vec2(*v))
        corners = east_ray_corners(normalized)

        def no_step(*args):
            raise AssertionError("the trace took a step")

        monkeypatch.setattr(tracing, "_exit_row", no_step)
        bound = length ** 2 * (v[0] ** 2 + v[1] ** 2)
        for corner in corners:
            with pytest.raises(ValueError, match=message):
                trace_from_corner(normalized, corner, max_advance_sq=bound)

    @pytest.mark.parametrize("v, kind", [((1, 0), "vertex"), ((2, 1), "vertex"),
                                         ((3, 1), "bound")])
    def test_rational_surface_takes_an_irrational_bound(self, v, kind):
        # the 3-square origami over Q, normalized in v, against the bound
        # (3 + sqrt 5)|v|^2: compared in Q(sqrt 5), as the reference does;
        # in (3, 1) every ray crosses twice and then passes the bound
        surface = square_tiled([(1, 2)], [(1, 3)], n=3)
        normalized = surface.apply_matrix(_normalize(surface, Vec2(*v))[1])
        bound = FieldScalar(3, 1, FieldCtx.get(5)) * (v[0] ** 2 + v[1] ** 2)
        for corner in east_ray_corners(normalized):
            found = outcome(trace_from_corner, normalized, corner,
                            max_advance_sq=bound)
            assert found[0] == "ok" and found[1][0] == kind
            assert found == outcome(ref_trace_from_corner, normalized, corner,
                                    max_advance_sq=bound)

    @pytest.mark.parametrize("bound", [Fraction(1, 2), 3])
    def test_irrational_start_on_a_rational_surface(self, bound):
        # a start over Q(sqrt 2) inside the unit torus: the trace, and
        # its rational bound, run in Q(sqrt 2).  The squared advances at
        # the exits are (k + 1 - sqrt(2)/4)^2, about 0.42, 2.71 and 7.0;
        # each bound lies above one of them and below the square of its
        # rational part, (k + 1)^2, which a test over Q would compare
        r = FieldCtx.get(2).sqrt_gen()
        torus = square_tiled([1], [1])
        args = (torus, 0, Vec2(r / 4, r / 3))
        found = outcome(trace_from_point, *args, max_advance_sq=bound)
        assert found[0] == "ok" and found[1][0] == "bound"
        assert found == outcome(ref_trace_from_point, *args,
                                max_advance_sq=bound)

    @pytest.mark.parametrize("origin", [
        (2, Fraction(1, 2)),
        (Fraction(1, 2), -1),
        (Fraction(1, 2), 2),
        (1, Fraction(2, 3)),
    ])
    def test_escape_raises_like_reference(self, origin):
        # origins beside, below and above the unit torus's square, and
        # one on its exit edge
        torus = square_tiled([1], [1])
        args = (torus, 0, Vec2(*origin))
        found = outcome(trace_from_point, *args, max_advance_sq=4)
        assert found[0] == "InternalInvariantError"
        assert "escaped the boundary" in found[1]
        assert found == outcome(ref_trace_from_point, *args, max_advance_sq=4)

    @pytest.mark.parametrize("origin, kind", [
        ((Fraction(3, 2), Fraction(3, 2)), "ok"),
        ((-1, Fraction(1, 2)), "InternalInvariantError"),
    ])
    def test_start_outside_its_polygon(self, origin, kind):
        # a U of five unit squares, as one polygon.  From its notch the
        # ray crosses the notch's right side down, lands on the glued
        # left side of the notch, still outside, and keeps crossing the
        # notch to the bound; from the left of the U it crosses the left
        # side down, lands outside on the right side, and escapes
        edges = [(1, 0), (1, 0), (1, 0), (0, 2), (-1, 0), (0, -1), (-1, 0),
                 (0, 1), (-1, 0), (0, -2)]
        gluing = [((0, 3), (0, 9)), ((0, 5), (0, 7)), ((0, 0), (0, 8)),
                  ((0, 1), (0, 6)), ((0, 2), (0, 4))]
        args = (TranslationSurface([edges], gluing, "u"), 0, Vec2(*origin))
        found = outcome(trace_from_point, *args, max_advance_sq=30)
        assert found[0] == kind
        assert found == outcome(ref_trace_from_point, *args,
                                max_advance_sq=30)
        if kind == "ok":
            assert found[1][0] == "bound" and len(found[1][4]) == 5

    def test_point_trace_leaves_the_surface_caches_alone(self):
        # a start at denominator 7 needs a finer lattice than the
        # surface's (D = 48); the trace re-expresses it on a shell, so
        # afterwards the surface keeps its own lattice, and its corner
        # traces and decompositions, which read its cached lattice and
        # exit lines, are those of a fresh copy
        surface, fresh = slanted_lshape(), slanted_lshape()
        lat = surface.lattice()
        D, cached = lat.D, set(surface._cache)
        origin = Vec2(Fraction(8, 7), Fraction(15, 7))
        res = trace_from_point(surface, 0, origin, max_advance_sq=400)
        assert res.kind == "bound" and len(res.crossings) == 10
        assert surface.lattice() is lat and lat.D == D == 48
        assert set(surface._cache) == cached
        for corner in east_ray_corners(fresh):
            assert outcome(trace_from_corner, surface, corner,
                           max_advance_sq=400) == \
                outcome(trace_from_corner, fresh, corner, max_advance_sq=400)
        for v in ((1, 0), (1, 1), (2, 1)):
            assert decomposition_to_json(decompose(surface, v)) == \
                decomposition_to_json(decompose(fresh, v))

    def test_a_walk_that_stays_in_a_polygon_raises(self):
        # a straight run meets each triangle of a polygon at most once.
        # With every polygon edge of the family's triangles planted as a
        # diagonal back into its own triangle, each ray re-enters the
        # triangle it leaves until it has visited more triangles of the
        # polygon than it has
        surface = slanted_lshape()
        corners = east_ray_corners(surface)
        assert [trace_from_corner(surface, c, max_advance_sq=100).kind
                for c in corners] == ["bound"] * 3
        tri = triangulated(surface)
        walk, planted = tri.walk, []
        for s, (apex, up, down) in enumerate(walk):
            # the state entering triangle t by a diagonal: side k is
            # the one state 3t + k - 1 leaves by below its apex
            t = s // 3
            back = next(3 * t + k for k in range(3)
                        if walk[3 * t + (k + 2) % 3][1] >= 0)
            planted.append((apex, up if up >= 0 else back,
                            down if down >= 0 else back))
        tri.walk = planted
        for corner in corners:
            with pytest.raises(InternalInvariantError,
                               match="visited more triangles of polygon 0"):
                trace_from_corner(surface, corner, max_advance_sq=100)

    def test_corner_east_does_not_leave_raises(self):
        # east leaves a corner of the unit square only at its origin;
        # the public trace still checks the corner it is given, against
        # the corners east_ray_corners found
        torus = square_tiled([1], [1])
        assert east_ray_corners(torus) == [(0, 0)]
        for i in (1, 2, 3):
            with pytest.raises(ValueError, match="does not leave corner"):
                trace_from_corner(torus, (0, i), max_advance_sq=4)
            assert outcome(trace_from_corner, torus, (0, i), max_advance_sq=4) \
                == outcome(ref_trace_from_corner, torus, (0, i),
                           max_advance_sq=4)


class TestBuiltWhenRead:
    # A TraceResult builds its chords and crossings, with their FieldScalar
    # edge parameters, only when an item is read (`tracing._Built`); their
    # lengths come from the lattice steps.  `decompose` reads the items of
    # the rays that closed, while the traced benchmark reads the length of
    # every ray, bound ones included, so a build per ray would be paid
    # there on every ray that ran to the bound.

    def builds(self, monkeypatch):
        """The results each `_build` call is made on, and whether it built."""
        calls = []
        original = tracing.TraceResult._build

        def counted(res):
            calls.append((res, res._built is None))
            return original(res)

        monkeypatch.setattr(tracing.TraceResult, "_build", counted)
        return calls

    def test_lengths_build_nothing(self, monkeypatch):
        calls = self.builds(monkeypatch)
        res = trace_from_corner(slanted_lshape(), (0, 6), max_advance_sq=100)
        assert res.kind == "bound"
        assert (len(res.chords), len(res.crossings)) == (5, 5)
        assert calls == []
        assert len(list(res.chords)) == len(list(res.crossings)) == 5
        assert [built for _, built in calls] == [True, False]

    def test_decompose_builds_only_the_rays_that_closed(self, monkeypatch):
        # l_shape(2, 1, 1, sqrt 2) in every direction (p, q) with
        # p^2 + q^2 <= 16, q > 0, is NoCylinderFound in 12 of them.  In
        # (2, 3) and (-2, 3) no separatrix closes and nothing is built; in
        # the other ten one result is built per saddle connection
        surface = l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen())
        calls = self.builds(monkeypatch)
        seen = set()
        for p in range(-3, 4):
            for q in range(1, 4):
                if gcd(p, q) != 1 or p * p + q * q > 16:
                    continue
                calls.clear()
                dec = decompose(surface, (p, q))
                if dec.status != NO_CYLINDER:
                    continue
                built = [res for res, first in calls if first]
                assert len(built) == len(dec.saddle_connections)
                assert all(res.kind == "vertex" for res in built)
                seen.add((p, q, len(built)))
        assert {(p, q) for p, q, n in seen if n == 0} == {(2, 3), (-2, 3)}
        assert len(seen) == 12
