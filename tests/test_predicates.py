"""Differential tests of the interior-start exit scan, the window
predicate, the incircle test and the polygon predicates.

`tracing._first_exit` finds where an eastward ray from a point leaves
a polygon by one scan of its edges, and `search._window_within` decides
a window, both by cross-multiplication alone on the integer lattice
form of their points: each Vec2 case is converted by `polygon.Lattice`,
re-expressed for an exit ray over a denominator that holds its origin,
as a trace from an interior point does (`tracing.trace_from_point`).
The scan looks ahead of a point given as a quotient, so a case with an
entry edge is scanned again from that edge's point at the origin's
height, as a trace standing outside a polygon is after a crossing.  The
references below are the versions
that divided for every candidate: `ref_exit_ray` computed t and s for
each edge and kept the nearest hit, and the search clipped each window
to exact intersection points
(`ref_clip_window`) and then measured the clipped segment's distance
from the origin (`ref_beyond`).  Both sides
must agree exactly: the same values, labels and tie-breaks, or the same
`InternalInvariantError`.  `search._incircle` is checked the same
way against the 3x3 determinant on FieldScalar coordinates
(`ref_incircle`) that Delaunay flipping used before the lattice form.
The predicates of `polygon` (validation, ear clipping, sectors, segment
crossings, area) are checked against copies of the `FieldScalar` code
they replaced, named `ref_*`: the same results, triangles and error
messages, valid and invalid polygons and straight vertices included.
"""

from fractions import Fraction
from itertools import accumulate
from math import isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from flatdef.equivalence import delaunay_cells
from flatdef.errors import InternalInvariantError
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2, _new
from flatdef.polygon import (Lattice, _point_in_closed_triangle,
                             check_simple, corner_crosses_east, cross_sign,
                             ear_clip, same_ray, segments_intersect_interior)
from flatdef.search import _Bound, _incircle, _window_within
from flatdef.surface import l_shape, square_tiled
from flatdef.tracing import _exit_line, _first_exit, _quotient

from reference_trace import sector_contains

FIELDS = (0, 2, 5)


# -- references ---------------------------------------------------------------

def ref_exit_ray(surface, p, origin, direction):
    verts = surface.vertices(p)
    poly = surface.polygons[p]
    n = len(poly)
    best = None  # (advance, kind, data, point)
    for e in range(n):
        a = verts[e]
        d = poly[e]
        denom = direction.cross(d)
        if denom.sign() == 0:
            continue
        rel = a - origin
        t = rel.cross(d) / denom
        if t.sign() <= 0:
            continue
        s = rel.cross(direction) / denom
        ssgn = s.sign()
        if ssgn < 0 or (s - 1).sign() > 0:
            continue
        if best is not None and (t - best[0]).sign() >= 0:
            if (t - best[0]).sign() > 0:
                continue
            if best[1] == "vertex":
                continue
        point = Vec2(a.x + d.x * s, a.y + d.y * s)
        if ssgn == 0:
            best = (t, "vertex", e, verts[e])
        elif (s - 1).sign() == 0:
            best = (t, "vertex", (e + 1) % n, verts[(e + 1) % n])
        else:
            best = (t, "edge", (e, s), point)
    if best is None:
        raise InternalInvariantError(
            f"ray from {origin} in polygon {p} escaped the boundary")
    t, kind, data, point = best
    return point, t, kind, data


def scan_exit(surface, p, origin, direction, entry=None):
    """The exit scan, in the shape `ref_exit_ray` returns.

    Each case is converted to its lattice form: the polygon through
    `polygon.Lattice` re-expressed over a denominator that holds the
    origin, as an interior start of a trace is.  With a non-horizontal
    entry edge the scan looks ahead of that edge's point at the origin's
    height, a quotient (C + H*M)/R, instead of the origin's x-coordinate.  The
    scan serves east rays only, so `direction`, taken to share
    `ref_exit_ray`'s arguments, is (1, 0).
    """
    verts, edges = surface.vertices(p), surface.polygons[p]
    lat = Lattice([edges])
    lat = lat.over(lcm(lat.D, origin.x._D, origin.y._D), lat.ctx)
    pt = lat.point(origin)
    H, A = pt[2:], pt[:2]
    # scalars come back in the field of the polygon's edges, as the
    # surface's field is that of its edges
    D, d, ctx = lat.D, lat.d, edges[0].ctx

    def at(e):
        """Edge e's point at height H, as (P, Q)."""
        C, M, R = _exit_line(lat.verts[0][e], lat.edges[0][e], d)
        return (C[0] + H[0] * M[0] + d * H[1] * M[1],
                C[1] + H[0] * M[1] + H[1] * M[0]), R

    # a horizontal entry edge holds the whole ray's height, so its point
    # at the origin is the origin itself; a trace never enters by one
    flat = entry is None or not any(lat.edges[0][entry][2:])
    found = _first_exit(lat, 0, H, (A, (1, 0)) if flat else at(entry), d)
    if found is None:
        raise InternalInvariantError(
            f"ray from {origin} in polygon {p} escaped the boundary")
    v, e = found
    if v is not None:
        along = _new(*lat.verts[0][v][:2], D, ctx)
        return verts[v], along - _new(*A, D, ctx), "vertex", v
    h0, rise = lat.verts[0][e][2:], lat.edges[0][e][2:]
    s = _quotient((H[0] - h0[0], H[1] - h0[1]), rise, 1, d, ctx)
    return (verts[e] + edges[e].scale(s),
            _quotient(*at(e), D, d, ctx) - _new(*A, D, ctx), "edge", (e, s))


def ref_beyond(a, b, bound_sq):
    d = b - a
    dd = d.dot(d)
    t = -(a.dot(d))
    if t.sign() <= 0:
        closest = a
    elif (t - dd).sign() >= 0:
        closest = b
    else:
        frac = t / dd
        closest = Vec2(a.x + d.x * frac, a.y + d.y * frac)
    return (closest.norm_sq() - bound_sq).sign() > 0


def ref_ray_segment_point(w, a, b):
    d = b - a
    denom = w.cross(d)
    if denom.sign() == 0:
        return None
    t = a.cross(d) / denom
    if t.sign() <= 0:
        return None
    s = a.cross(w) / denom
    if s.sign() < 0 or (s - 1).sign() > 0:
        return None
    return Vec2(a.x + d.x * s, a.y + d.y * s)


def ref_clip_window(w1, w2, a, b):
    in_a = w1.cross(a).sign() > 0 and a.cross(w2).sign() > 0
    in_b = w1.cross(b).sign() > 0 and b.cross(w2).sign() > 0
    lo, hi = a, b
    if not in_a:
        cands = [p for p in (ref_ray_segment_point(w1, a, b),
                             ref_ray_segment_point(w2, a, b)) if p is not None]
        if not cands:
            if not in_b:
                return None
            raise InternalInvariantError("window clip lost an endpoint")
        if len(cands) == 2:
            da = (cands[0] - a).norm_sq()
            db = (cands[1] - a).norm_sq()
            lo = cands[0] if (da - db).sign() < 0 else cands[1]
        else:
            lo = cands[0]
    if not in_b:
        cands = [p for p in (ref_ray_segment_point(w1, a, b),
                             ref_ray_segment_point(w2, a, b)) if p is not None]
        if not cands:
            return None
        if len(cands) == 2:
            db = (cands[0] - b).norm_sq()
            da = (cands[1] - b).norm_sq()
            hi = cands[0] if (db - da).sign() < 0 else cands[1]
        else:
            hi = cands[0]
    if (hi - lo).norm_sq().sign() == 0:
        return None
    return lo, hi


def ref_window_within(w1, w2, a, b, bound_sq):
    clipped = ref_clip_window(w1, w2, a, b)
    return clipped is not None and not ref_beyond(*clipped, bound_sq)


def ref_incircle(p, q, r, s):
    """Sign of the incircle determinant of pqr and s, on FieldScalars."""
    rows = []
    for v in (p, q, r):
        dx = v.x - s.x
        dy = v.y - s.y
        rows.append((dx, dy, dx * dx + dy * dy))
    det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
           - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
           + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
    return det.sign()


# The FieldScalar predicates the polygon module ran before the lattice
# form, copied unchanged apart from their names.

def ref_vertex_positions(edges):
    pos = []
    ctx = edges[0].ctx
    cur = Vec2(FieldScalar(0, 0, ctx), FieldScalar(0, 0, ctx))
    for e in edges:
        pos.append(cur)
        cur = cur + e
    return pos


def ref_signed_area2(edges):
    pos = ref_vertex_positions(edges)
    n = len(edges)
    total = FieldScalar(0, 0, edges[0].ctx)
    for i in range(n):
        p = pos[i]
        q = pos[(i + 1) % n]
        total = total + (p.x * q.y - q.x * p.y)
    return total


def ref_cross_sign(u, v):
    return u.cross(v).sign()


def ref_same_ray(u, v):
    return ref_cross_sign(u, v) == 0 and u.dot(v).sign() > 0


def ref_sector_contains(start, end, w, *, include_start=True,
                        include_end=False):
    if ref_same_ray(w, start):
        return include_start
    if ref_same_ray(w, end):
        return include_end
    if ref_same_ray(start, end):
        return True
    s = ref_cross_sign(start, end)
    if s > 0:
        return ref_cross_sign(start, w) > 0 and ref_cross_sign(w, end) > 0
    if s < 0:
        return not (ref_cross_sign(end, w) > 0 and ref_cross_sign(w, start) > 0)
    return ref_cross_sign(start, w) > 0


def ref_corner_crosses_east(out_ray, rev_in_ray):
    ctx = out_ray.ctx
    e = Vec2(FieldScalar(1, 0, ctx), FieldScalar(0, 0, ctx))
    return 1 if ref_sector_contains(out_ray, rev_in_ray, e,
                                    include_start=False, include_end=True) else 0


def ref_on_segment(p, a, b):
    d = b - a
    t = (p - a).dot(d)
    return t.sign() > 0 and t < d.dot(d)


def ref_segments_intersect_interior(a, b, c, d):
    ab = b - a
    cd = d - c
    d1 = ref_cross_sign(ab, c - a)
    d2 = ref_cross_sign(ab, d - a)
    d3 = ref_cross_sign(cd, a - c)
    d4 = ref_cross_sign(cd, b - c)
    if d1 != d2 and d3 != d4 and d1 * d2 < 0 and d3 * d4 < 0:
        return True
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if ref_cross_sign(v - u, p - u) == 0 and ref_on_segment(p, u, v):
            return True
    if d1 == 0 and d2 == 0:
        if (a == c and b == d) or (a == d and b == c):
            return True
    return False


def ref_check_simple(edges):
    n = len(edges)
    if n < 3:
        raise ValueError("polygon needs at least 3 edges")
    for e in edges:
        if e.is_zero():
            raise ValueError("zero-length edge")
    total = edges[0]
    for e in edges[1:]:
        total = total + e
    if not total.is_zero():
        raise ValueError("edge vectors do not close up")
    for i in range(n):
        prev = edges[(i - 1) % n]
        if ref_same_ray(edges[i], -prev):
            raise ValueError(f"fold-back at vertex {i}")
    pos = ref_vertex_positions(edges)
    for i in range(n):
        for j in range(i + 1, n):
            if pos[i] == pos[j]:
                raise ValueError(f"repeated vertex position at {i} and {j}")
    for i in range(n):
        a, b = pos[i], pos[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = pos[j], pos[(j + 1) % n]
            if ref_segments_intersect_interior(a, b, c, d):
                raise ValueError(f"edges {i} and {j} intersect")
    if ref_signed_area2(edges).sign() <= 0:
        raise ValueError("boundary is not positively oriented")


def ref_point_in_closed_triangle(p, a, b, c):
    s1 = ref_cross_sign(b - a, p - a)
    s2 = ref_cross_sign(c - b, p - b)
    s3 = ref_cross_sign(a - c, p - c)
    return s1 >= 0 and s2 >= 0 and s3 >= 0


def ref_diagonal_ok(pos, idx, k):
    m = len(idx)
    i0, i1, i2 = idx[(k - 1) % m], idx[k], idx[(k + 1) % m]
    a, b, c = pos[i0], pos[i1], pos[i2]
    if ref_cross_sign(b - a, c - b) <= 0:
        return False
    for j in idx:
        if j in (i0, i1, i2):
            continue
        if ref_point_in_closed_triangle(pos[j], a, b, c):
            return False
    prev_a = pos[idx[(k - 2) % m]]
    next_c = pos[idx[(k + 2) % m]]
    if not ref_sector_contains(b - a, prev_a - a, c - a,
                               include_start=False, include_end=False):
        return False
    if not ref_sector_contains(next_c - c, b - c, a - c,
                               include_start=False, include_end=False):
        return False
    for t in range(m):
        u, v = idx[t], idx[(t + 1) % m]
        if u in (i0, i2) or v in (i0, i2):
            continue
        if ref_segments_intersect_interior(a, c, pos[u], pos[v]):
            return False
    return True


def ref_ear_clip(edges):
    n = len(edges)
    pos = ref_vertex_positions(edges)
    idx = list(range(n))
    tris = []
    while len(idx) > 3:
        for k in range(len(idx)):
            if ref_diagonal_ok(pos, idx, k):
                m = len(idx)
                tris.append((idx[(k - 1) % m], idx[k], idx[(k + 1) % m]))
                idx.pop(k)
                break
        else:
            raise RuntimeError("no ear found; polygon not simple?")
    a, b, c = (pos[i] for i in idx)
    if ref_cross_sign(b - a, c - b) <= 0:
        raise RuntimeError("degenerate final triangle in ear clipping")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


def lattice(*points):
    """The integer form over the common denominator of `points`: that of
    one polygon whose edges are the points."""
    return Lattice([points])


def lattice_incircle(p, q, r, s):
    """`_incircle` on Vec2 points, in their lattice form."""
    lat = lattice(p, q, r, s)
    return _incircle(*(lat.point(v) for v in (p, q, r, s)), lat.d)


def lattice_window_within(w1, w2, a, b, bound_sq):
    """`_window_within` on a Vec2 case, in its lattice form."""
    lat = lattice(w1, w2, a, b)
    return _window_within(*(lat.point(v) for v in (w1, w2, a, b)),
                          _Bound(lat, bound_sq))


def outcome(fn, *args):
    """A comparable record of a call: its exact result or its error."""
    try:
        return ("ok", _exact(fn(*args)))
    except InternalInvariantError as exc:
        return ("error", str(exc))


def _exact(value):
    if isinstance(value, FieldScalar):
        return (value.ctx.d, value._A, value._B, value._D)
    if isinstance(value, Vec2):
        return ("vec", _exact(value.x), _exact(value.y))
    if isinstance(value, tuple):
        return tuple(_exact(v) for v in value)
    return value


# -- inputs -------------------------------------------------------------------

def _scalar(draw, ctx, lo=-6, hi=6, positive=False):
    a = draw(st.fractions(min_value=lo, max_value=hi, max_denominator=8))
    b = (draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
         if ctx.d else Fraction(0))
    x = FieldScalar(a, b, ctx)
    if positive and x.sign() <= 0:
        x = -x if x.sign() < 0 else FieldScalar(1, 0, ctx)
    return x


# Integer directions in increasing angle; a star polygon with one vertex
# on each chosen ray is simple and ccw when no two consecutive chosen
# rays are pi or more apart, which every base set below ensures.
RAYS = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
        (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1),
        (2, -1)]
BASE_RAYS = ((0, 4, 8, 12), (0, 6, 11), (2, 7, 13), (3, 9, 14))


class OnePolygon:
    """The two attributes the exit lookups read, for one polygon."""

    def __init__(self, edges):
        self.polygons = (tuple(edges),)
        zero = FieldScalar(0, 0, edges[0].ctx)
        self._verts = list(accumulate(edges[:-1], Vec2.__add__,
                                      initial=Vec2(zero, zero)))

    def vertices(self, p):
        return self._verts


@st.composite
def star_polygons(draw, fields=FIELDS):
    """A polygon star-shaped around an interior point, and that point.

    One vertex sits on each chosen ray from the center, at a random
    distance (a quadratic irrational in Q(sqrt d), d drawn from
    `fields`); collinear runs, reflex corners and edges parallel to the
    axes all occur.
    """
    ctx = FieldCtx.get(draw(st.sampled_from(fields)))
    extra = draw(st.sets(st.integers(0, len(RAYS) - 1), max_size=5))
    idx = sorted(set(draw(st.sampled_from(BASE_RAYS))) | extra)
    pts = []
    for i in idx:
        r = _scalar(draw, ctx, 1, 5, positive=True)
        pts.append(Vec2(FieldScalar(RAYS[i][0], 0, ctx) * r,
                        FieldScalar(RAYS[i][1], 0, ctx) * r))
    edges = [pts[(i + 1) % len(pts)] - pts[i] for i in range(len(pts))]
    center = -pts[0]  # the star's center in the frame anchored at pts[0]
    return OnePolygon(edges), center, ctx


@st.composite
def ray_casts(draw):
    """A star polygon, the east direction, an origin and its entry edge.

    The origin sits at a vertex, at a vertex's height (so on a
    breakpoint line, inside or outside the polygon), inside an edge
    (whose index is the entry edge), inside the polygon, or at the
    star's center; the entry edge is None off the edges.
    """
    surf, center, ctx = draw(star_polygons())
    verts = surf.vertices(0)
    edges = surf.polygons[0]
    n = len(edges)
    zero, one = FieldScalar(0, 0, ctx), FieldScalar(1, 0, ctx)
    direction = Vec2(one, zero)
    where = draw(st.sampled_from(
        ["vertex", "vertex height", "edge", "interior", "center"]))
    i = draw(st.integers(0, n - 1))
    entry = None

    def inside(k):
        lam = draw(st.fractions(min_value=0, max_value=1, max_denominator=6)
                   .filter(lambda x: 0 < x < 1))
        return center + (verts[k] - center).scale(FieldScalar(lam, 0, ctx))

    if where == "vertex":
        origin = verts[i]
    elif where == "vertex height":
        pt = inside(draw(st.integers(0, n - 1)))
        origin = Vec2(pt.x, verts[i].y)
    elif where == "edge":
        s = draw(st.fractions(min_value=0, max_value=1, max_denominator=6)
                 .filter(lambda x: 0 < x < 1))
        origin = verts[i] + edges[i].scale(FieldScalar(s, 0, ctx))
        entry = i
    elif where == "interior":
        origin = inside(i)
    else:
        origin = center
    return surf, origin, direction, entry


@st.composite
def windows(draw):
    """A cone (w1, w2) of angle in (0, pi), a segment ab and a bound.

    Endpoints are drawn at random, inside the cone, just past either
    ray, on either ray or its reverse, at the apex, or on the line
    through the apex and the other endpoint (where the old clip raised);
    the bound is random or exactly the squared distance of an endpoint,
    a crossing or the foot.
    """
    ctx = FieldCtx.get(draw(st.sampled_from(FIELDS)))
    w1 = Vec2(_scalar(draw, ctx), _scalar(draw, ctx))
    if w1.is_zero():
        w1 = Vec2(FieldScalar(1, 0, ctx), FieldScalar(0, 0, ctx))
    w2 = Vec2(_scalar(draw, ctx), _scalar(draw, ctx))
    turn = w1.cross(w2).sign()
    if turn < 0:
        w1, w2 = w2, w1
    elif turn == 0:
        w2 = Vec2(-w1.y, w1.x)
    zero = FieldScalar(0, 0, ctx)

    def point(other):
        kind = draw(st.sampled_from(
            ["inside"] * 3 + ["past w1", "past w2"] * 2
            + ["on w1", "on w2", "behind w1", "behind w2", "random", "apex",
               "through apex"]))
        lam = _scalar(draw, ctx, 0, 4, positive=True)
        if kind == "on w1":
            return w1.scale(lam)
        if kind == "on w2":
            return w2.scale(lam)
        if kind == "behind w1":
            return w1.scale(-lam)
        if kind == "behind w2":
            return w2.scale(-lam)
        if kind == "apex":
            return Vec2(zero, zero)
        if kind == "through apex" and other is not None:
            return other.scale(-lam)
        mu = _scalar(draw, ctx, 0, 4, positive=True)
        if kind == "inside":
            return w1.scale(lam) + w2.scale(mu)
        if kind == "past w1":
            return w1.scale(lam) - w2.scale(mu)
        if kind == "past w2":
            return w2.scale(lam) - w1.scale(mu)
        return Vec2(_scalar(draw, ctx), _scalar(draw, ctx))

    a = point(None)
    b = point(a)
    if (b - a).is_zero():
        b = a + w1
    pick = draw(st.sampled_from(["random", "a", "b", "foot", "w1", "w2"]))
    d = b - a
    ab = a.cross(b)
    if pick == "a":
        bound_sq = a.norm_sq()
    elif pick == "b":
        bound_sq = b.norm_sq()
    elif pick == "foot":
        bound_sq = ab * ab / d.norm_sq()
    elif pick in ("w1", "w2") and (w1 if pick == "w1" else w2).cross(d):
        w = w1 if pick == "w1" else w2
        wd = w.cross(d)
        bound_sq = ab * ab * w.norm_sq() / (wd * wd)
    else:
        bound_sq = _scalar(draw, ctx, 0, 30, positive=True)
    return w1, w2, a, b, bound_sq


@st.composite
def incircle_cases(draw):
    """Four points: at random, with the query on a triangle vertex, or
    the corners of a rectangle moved by a similarity z -> (a + bi)z + c,
    which keeps them co-circular.  Returns (points, co-circular)."""
    ctx = FieldCtx.get(draw(st.sampled_from(FIELDS)))
    kind = draw(st.sampled_from(["random", "repeated", "rectangle"]))

    def point():
        return Vec2(_scalar(draw, ctx), _scalar(draw, ctx))

    if kind == "rectangle":
        lo, hi = point(), point()
        a, b, c = _scalar(draw, ctx), _scalar(draw, ctx), point()
        corners = [Vec2(lo.x, lo.y), Vec2(hi.x, lo.y), Vec2(hi.x, hi.y),
                   Vec2(lo.x, hi.y)]
        pts = [Vec2(a * v.x - b * v.y, b * v.x + a * v.y) + c
               for v in corners]
        order = draw(st.permutations(range(4)))
        return tuple(pts[i] for i in order), True
    pts = [point() for _ in range(4)]
    if kind == "repeated":
        pts[3] = pts[draw(st.integers(0, 2))]
    return tuple(pts), kind == "repeated"


def _cell_corners(cell):
    """The corners of a cell given by its ccw edge vectors."""
    corners = [Vec2(0, 0)]
    for e in cell[:-1]:
        corners.append(corners[-1] + e)
    return corners


# -- the tests ----------------------------------------------------------------

class TestExitRay:
    @settings(max_examples=300, deadline=None)
    @given(ray_casts())
    def test_matches_reference(self, case):
        surf, origin, direction, entry = case
        args = (surf, 0, origin, direction)
        found = outcome(scan_exit, *args)
        assert found == outcome(ref_exit_ray, *args)
        if entry is not None:
            assert outcome(scan_exit, *args, entry) == found

    @pytest.mark.parametrize("edges, origin, direction, expected", [
        # a diamond whose diagonal is the ray: it leaves through the
        # corner (2, 0), which edges 1 and 2 both report as vertex 2
        ([(1, -1), (1, 1), (-1, 1), (-1, -1)], (0, 0), (1, 0),
         ("vertex", 2)),
        # the same diamond labelled from its bottom corner, the ray
        # starting at vertex 3 and leaving through the opposite vertex 1
        ([(1, 1), (-1, 1), (-1, -1), (1, -1)], (-1, 1), (1, 0),
         ("vertex", 1)),
        # vertex 3 touches the middle of edge 0: the edge hit found first
        # gives way to the vertex label at the same advance
        ([(0, 2), (-2, 0), (2, -1), (-2, -1), (2, 0)], (-1, 1), (1, 0),
         ("vertex", 3)),
        # the same polygon labelled from its next corner: vertex 2 now
        # touches the middle of the last edge, scanned after it
        ([(-2, 0), (2, -1), (-2, -1), (2, 0), (0, 2)], (-1, -1), (1, 0),
         ("vertex", 2)),
    ])
    def test_ties(self, edges, origin, direction, expected):
        poly = OnePolygon([Vec2(*e) for e in edges])
        args = (poly, 0, Vec2(*origin), Vec2(*direction))
        out = scan_exit(*args)
        assert _exact(out) == _exact(ref_exit_ray(*args))
        assert out[2:] == expected

    def test_escape_raises_like_reference(self):
        # rays leaving the unit square through the edge they start on,
        # scanned from the origin and from that edge's point, and a ray
        # above it
        square = OnePolygon([Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1)])
        for origin, direction, entry in [
            ((1, Fraction(1, 2)), (1, 0), None),
            ((1, Fraction(1, 2)), (1, 0), 1),
            ((0, 2), (1, 0), None),
        ]:
            args = (square, 0, Vec2(*origin), Vec2(*direction))
            assert outcome(scan_exit, *args, entry)[0] == "error"
            assert outcome(scan_exit, *args, entry) == \
                outcome(ref_exit_ray, *args)


class TestWindow:
    @settings(max_examples=200, deadline=None)
    @given(windows())
    def test_matches_reference(self, case):
        assert outcome(lattice_window_within, *case) == \
            outcome(ref_window_within, *case)

    @pytest.mark.parametrize("a, b, bound_sq, expected", [
        # both ends inside the cone; nearest point is the foot at x = 1
        ((1, -1), (1, 3), 1, True),
        ((1, -1), (1, 3), Fraction(99, 100), False),
        # enters through ray (1, 0) at (2, 0), leaves through (0, 1) at
        # (0, 2), and the other way round; the foot is (1, 1)
        ((3, -1), (-1, 3), 2, True),
        ((3, -1), (-1, 3), Fraction(199, 100), False),
        ((-1, 3), (3, -1), 2, True),
        ((-1, 3), (3, -1), Fraction(199, 100), False),
        # the line misses the cone
        ((-1, -3), (-3, -1), 100, False),
        # starts on ray (1, 0) and leaves the cone at once: empty window
        ((2, 0), (3, -1), 100, False),
        ((-1, 3), (0, 2), 100, False),
    ])
    def test_examples(self, a, b, bound_sq, expected):
        case = (Vec2(1, 0), Vec2(0, 1), Vec2(*a), Vec2(*b),
                FieldScalar(bound_sq))
        assert lattice_window_within(*case) is expected
        assert ref_window_within(*case) is expected

    @pytest.mark.parametrize("a", [(0, 0), (-1, -1)])
    def test_segment_through_apex_raises_like_reference(self, a):
        case = (Vec2(1, 0), Vec2(0, 1), Vec2(*a), Vec2(1, 1), FieldScalar(9))
        assert outcome(lattice_window_within, *case) == \
            ("error", "window clip lost an endpoint")
        assert outcome(ref_window_within, *case) == \
            ("error", "window clip lost an endpoint")


class TestIncircle:
    @settings(max_examples=300, deadline=None)
    @given(incircle_cases())
    def test_matches_reference(self, case):
        pts, cocircular = case
        sign = lattice_incircle(*pts)
        assert sign == ref_incircle(*pts)
        if cocircular:
            assert sign == 0

    @pytest.mark.parametrize("scale", [
        FieldScalar(1), FieldScalar(Fraction(7, 3)),
        FieldScalar(0, Fraction(1, 5), FieldCtx.get(2)),
    ])
    def test_unit_square_cocircular(self, scale):
        corners = [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)]
        p, q, r, corner = (v.scale(scale) for v in corners)
        # the fourth corner is on the circle, the centre inside, a far
        # point outside
        centre = Vec2(Fraction(1, 2), Fraction(1, 2)).scale(scale)
        far = Vec2(2, 2).scale(scale)
        for s, expected in ((corner, 0), (centre, 1), (far, -1)):
            assert lattice_incircle(p, q, r, s) == expected
            assert ref_incircle(p, q, r, s) == expected

    @pytest.mark.parametrize("scale", [
        FieldScalar(1), FieldScalar(Fraction(3, 7)),
        FieldScalar(Fraction(1, 2), Fraction(1, 2), FieldCtx.get(5)),
    ])
    def test_golden_cells_cocircular(self, golden_l, scale):
        cells, _ = delaunay_cells(golden_l)
        assert any(len(cell) > 3 for cell in cells)
        for cell in cells:
            corners = [v.scale(scale) for v in _cell_corners(cell)]
            for s in corners[3:]:
                assert lattice_incircle(*corners[:3], s) == 0
                assert ref_incircle(*corners[:3], s) == 0


# -- polygon predicates on the lattice form -----------------------------------

def raised(fn, *args, **kwargs):
    """A comparable record of a call: its result or its error's type name
    and message."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))


def _small(draw, ctx):
    """0, or +-(sqrt(d) - floor(sqrt(d)))^k: irrational parts far larger
    than the value, which only a correct d in the products keeps exact."""
    if not ctx.d or draw(st.booleans()):
        return FieldScalar(draw(st.integers(-1, 1)), 0, ctx)
    eps = FieldScalar(-isqrt(ctx.d), 1, ctx)
    return eps ** draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))


@st.composite
def ray_triples(draw):
    """Three non-zero directions over one field, each at random, along an
    axis, or on the same or the opposite ray as one drawn before."""
    ctx = FieldCtx.get(draw(st.sampled_from(FIELDS)))
    one = FieldScalar(1, 0, ctx)
    rays = []
    for _ in range(3):
        kind = draw(st.sampled_from(["random", "random", "axis", "same",
                                     "opposite", "small"]))
        lam = _scalar(draw, ctx, 0, 4, positive=True)
        if kind == "small":
            v = Vec2(_small(draw, ctx), _small(draw, ctx))
        elif kind in ("same", "opposite") and rays:
            v = draw(st.sampled_from(rays)).scale(
                lam if kind == "same" else -lam)
        elif kind == "axis":
            x, y = draw(st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1)]))
            v = Vec2(one * x, one * y).scale(lam)
        else:
            v = Vec2(_scalar(draw, ctx), _scalar(draw, ctx))
            if v.is_zero():
                v = Vec2(one, one)
        rays.append(v)
    return rays


@st.composite
def segment_pairs(draw):
    """Segments ab and cd over one field; c and d at random, at a or b, or
    on the line through a and b, inside the segment or beyond it."""
    ctx = FieldCtx.get(draw(st.sampled_from(FIELDS)))
    a = Vec2(_scalar(draw, ctx), _scalar(draw, ctx))
    b = Vec2(_scalar(draw, ctx), _scalar(draw, ctx))
    if (b - a).is_zero():
        b = a + Vec2(FieldScalar(1, 0, ctx), FieldScalar(0, 0, ctx))

    def point():
        kind = draw(st.sampled_from(["random", "a", "b", "inside", "beyond"]))
        if kind == "a":
            return a
        if kind == "b":
            return b
        if kind == "random":
            return Vec2(_scalar(draw, ctx), _scalar(draw, ctx))
        sixths = (st.integers(1, 5) if kind == "inside" else
                  st.integers(-12, -1) | st.integers(7, 18))
        t = Fraction(draw(sixths), 6)
        return a + (b - a).scale(FieldScalar(t, 0, ctx))

    c, d = point(), point()
    if (d - c).is_zero():
        d = c + Vec2(_scalar(draw, ctx, 1, 3, positive=True),
                     _scalar(draw, ctx))
    return a, b, c, d


DEFECTS = ("clockwise", "fold-back", "zero edge", "open", "loop", "swap",
           "two edges")


def polyomino_boundary(cells):
    """The ccw boundary of a set of unit cells as one cycle of lattice
    points, every lattice point on it a vertex; None when the boundary
    is not one simple cycle (a hole, or cells meeting at a corner only).
    """
    sides = {side for x, y in cells for side in (
        ((x, y), (x + 1, y)), ((x + 1, y), (x + 1, y + 1)),
        ((x + 1, y + 1), (x, y + 1)), ((x, y + 1), (x, y)))}
    step = {}
    for a, b in sides:
        if (b, a) not in sides:
            if a in step:
                return None
            step[a] = b
    loop = [min(step)]
    while step[loop[-1]] != loop[0]:
        loop.append(step[loop[-1]])
    return loop if len(loop) == len(step) else None


@st.composite
def polyomino_polygons(draw):
    """The boundary edges of a polyomino grown cell by cell from one
    square, each new cell drawn among those that keep the boundary one
    simple cycle: long runs of straight vertices and reflex corners."""
    cells = {(0, 0)}
    for _ in range(draw(st.integers(1, 11))):
        frontier = sorted({(x + dx, y + dy) for x, y in cells
                           for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
                          - cells)
        cells.add(draw(st.sampled_from(
            [c for c in frontier if polyomino_boundary(cells | {c})])))
    loop = polyomino_boundary(cells)
    return [Vec2(b[0] - a[0], b[1] - a[1])
            for a, b in zip(loop, loop[1:] + loop[:1])]


@st.composite
def polygon_cases(draw, valid=None):
    """Edge lists of star polygons, of star polygons over Q with every
    edge cut at its midpoint, or of polyomino boundaries; the last two
    over Q or sheared into Q(sqrt 2).  Some edges are cut in two (a
    straight vertex), and the list starts at any vertex; unless `valid`,
    it possibly carries one of `DEFECTS`.  Returns (edges, defect or
    None)."""
    family = draw(st.sampled_from(["star", "midpoints", "polyomino"]))
    if family == "polyomino":
        edges, ctx = draw(polyomino_polygons()), FieldCtx.get(0)
    else:
        surf, _, ctx = draw(star_polygons((0,) if family == "midpoints"
                                          else FIELDS))
        edges = list(surf.polygons[0])
    if family == "midpoints":
        half = FieldScalar(Fraction(1, 2), 0, ctx)
        edges = [e.scale(half) for e in edges for _ in (0, 1)]
    if family != "star" and draw(st.booleans()):
        ctx = FieldCtx.get(2)
        t = FieldScalar(draw(st.integers(-2, 2)),
                        draw(st.sampled_from([-1, 1])), ctx)
        g = draw(st.sampled_from([Mat2(1, t, 0, 1), Mat2(1, 0, t, 1)]))
        edges = [g.apply(e) for e in edges]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(edges) - 1))
        t = FieldScalar(Fraction(draw(st.integers(1, 4)), 5), 0, ctx)
        edges[i:i + 1] = [edges[i].scale(t), edges[i].scale(1 - t)]
    k = draw(st.integers(0, len(edges) - 1))
    edges = edges[k:] + edges[:k]
    defect = None if valid else draw(st.sampled_from((None,) + DEFECTS))
    i = draw(st.integers(0, len(edges) - 1))
    v = Vec2(_scalar(draw, ctx), _scalar(draw, ctx))
    if v.is_zero():
        v = Vec2(FieldScalar(1, 0, ctx), FieldScalar(0, 0, ctx))
    if defect == "clockwise":
        edges = [-e for e in reversed(edges)]
    elif defect == "fold-back":
        edges[i:i] = [v, -v]
    elif defect == "zero edge":
        edges.insert(i, v.scale(FieldScalar(0, 0, ctx)))
    elif defect == "open":
        edges[i] = edges[i] + v
    elif defect == "loop":
        w = Vec2(_scalar(draw, ctx), _scalar(draw, ctx))
        edges[i:i] = [v, w, -(v + w)]
    elif defect == "swap":
        j = draw(st.integers(0, len(edges) - 1))
        edges[i], edges[j] = edges[j], edges[i]
    elif defect == "two edges":
        edges = [v, -v]
    return edges, defect


def corners(edges):
    """Each corner's (outgoing ray, reversed incoming ray)."""
    return [(edges[i], -edges[i - 1]) for i in range(len(edges))]


class TestSectors:
    @settings(max_examples=200, deadline=None)
    @given(ray_triples(), st.booleans(), st.booleans())
    def test_matches_reference(self, rays, include_start, include_end):
        start, end, w = rays
        lat = lattice(start, end, w)
        s, e, x = (lat.point(v) for v in rays)
        d = lat.d
        assert cross_sign(s, e, d) == ref_cross_sign(start, end)
        assert same_ray(s, e, d) == ref_same_ray(start, end)
        assert sector_contains(s, e, x, d, include_start=include_start,
                               include_end=include_end) == \
            ref_sector_contains(start, end, w, include_start=include_start,
                                include_end=include_end)
        assert corner_crosses_east(s, e, d) == \
            ref_corner_crosses_east(start, end)


@st.composite
def triangle_points(draw):
    """A triangle and a point at a vertex, on an edge or its line, inside,
    or at random."""
    ctx = FieldCtx.get(draw(st.sampled_from(FIELDS)))
    a, b, c = (Vec2(_scalar(draw, ctx), _scalar(draw, ctx)) for _ in range(3))
    kind = draw(st.sampled_from(["vertex", "edge", "line", "inside",
                                 "random"]))
    u, v, w = draw(st.permutations((a, b, c)))
    t = FieldScalar(Fraction(draw(st.integers(-6, 12)), 6), 0, ctx)
    if kind == "vertex":
        x = u
    elif kind in ("edge", "line"):
        if kind == "edge":
            t = FieldScalar(Fraction(draw(st.integers(1, 5)), 6), 0, ctx)
        x = u + (v - u).scale(t)
    elif kind == "inside":
        x = u + (v - u).scale(FieldScalar(Fraction(1, 3), 0, ctx)) \
            + (w - u).scale(FieldScalar(Fraction(1, 3), 0, ctx))
    else:
        x = Vec2(_scalar(draw, ctx), _scalar(draw, ctx))
    return x, a, b, c


class TestPointInTriangle:
    @settings(max_examples=200, deadline=None)
    @given(triangle_points())
    def test_matches_reference(self, case):
        lat = lattice(*case)
        assert _point_in_closed_triangle(*(lat.point(v) for v in case),
                                         lat.d) == \
            ref_point_in_closed_triangle(*case)


class TestSegments:
    @settings(max_examples=200, deadline=None)
    @given(segment_pairs())
    def test_matches_reference(self, case):
        lat = lattice(*case)
        points = [lat.point(v) for v in case]
        assert segments_intersect_interior(*points, lat.d) == \
            ref_segments_intersect_interior(*case)


class TestPolygons:
    @settings(max_examples=200, deadline=None)
    @given(polygon_cases())
    def test_check_simple_and_area_match_reference(self, case):
        edges, defect = case
        lat = Lattice([edges])
        found = raised(check_simple, lat.edges[0], lat.verts[0], lat.d)
        assert found == raised(ref_check_simple, edges)
        assert (found == ("ok", None)) == (defect is None) or defect in (
            "swap", "loop")  # a swap or a loop may leave a simple polygon
        assert lat.area2() == ref_signed_area2(edges)

    @settings(max_examples=100, deadline=None)
    @given(polygon_cases(valid=True))
    def test_ear_clip_and_corners_match_reference(self, case):
        edges, _ = case
        lat = Lattice([edges])
        assert ear_clip(lat.verts[0], lat.d) == ref_ear_clip(edges)
        assert [corner_crosses_east(*lat.corner_rays((0, i)), lat.d)
                for i in range(len(edges))] == \
            [ref_corner_crosses_east(*c) for c in corners(edges)]

    @pytest.mark.parametrize("matrix", [(1, 0, 0, 1), (2, 1, 1, 1),
                                        (1, -2, 1, -1), (-1, 2, -1, 1)])
    def test_surfaces_match_reference(self, golden_l, matrix):
        for surf in (golden_l.apply_matrix(Mat2(*matrix)),
                     l_shape(Fraction(3, 2), Fraction(1, 3), Fraction(2, 7),
                             FieldScalar(0, Fraction(1, 5), FieldCtx.get(2))),
                     square_tiled([(1, 2, 3)], [(1, 4)])):
            lat = surf.lattice()
            for p, edges in enumerate(surf.polygons):
                edges = list(edges)
                assert check_simple(lat.edges[p], lat.verts[p], lat.d) is None
                assert ear_clip(lat.verts[p], lat.d) == ref_ear_clip(edges)
            assert surf.area2() == sum(
                (ref_signed_area2(list(e)) for e in surf.polygons),
                FieldScalar(0, 0, surf.ctx))
