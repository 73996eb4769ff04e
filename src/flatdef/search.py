"""Saddle-connection enumeration up to a length bound.

The search develops the surface into the plane triangle by triangle.
Each state is a window (a sub-segment of a triangle edge) seen from the
source singularity at the origin; the open cone through the window is
narrowed as it propagates, and a branch is pruned once every point of
its window lies beyond the bound.  Every saddle connection of length
at most R is the straight segment from the origin to a triangle vertex
seen through some chain of windows, so the enumeration is complete.

The search runs on integers.  Every point it develops is a sum of
differences of surface vertices.  With d the field of the surface and
the bound, and D the lcm of the denominators of all vertex coordinates,
each such point is ((xa + xb*sqrt(d))/D, (ya + yb*sqrt(d))/D) for
integers xa, xb, ya, yb, kept as the tuple (xa, xb, ya, yb); these
points are closed under the sums and differences the search takes.
Crosses, dots and their products are computed in Z[sqrt(d)] and their
signs decided by `field._sign`.  Each predicate is homogeneous in the
coordinates, so scaling every point by D > 0 changes no sign and no
decision; a comparison with the bound R^2 = (RA + RB*sqrt(d))/Rd
carries the scale, |P|^2 <= R^2 becoming
Rd*|DP|^2 <= (RA + RB*sqrt(d))*D^2.  Only a connection that is found is
built back into field scalars.
"""

from __future__ import annotations

from math import lcm

from .errors import InternalInvariantError
from .field import FieldScalar, Vec2, _new, _sign, unify_ctx
from .polygon import ear_clip
from .surface import TranslationSurface

__all__ = ["enumerate_saddle_connections", "enumerate_directions",
           "Triangulated"]


class Triangulated:
    """A triangulated copy of a surface sharing its vertex set.

    Triangles are (polygon, (i0, i1, i2)) vertex-index triples; edges are
    glued pairwise: original polygon edges through the surface gluing,
    ear-clip diagonals within each polygon.
    """

    def __init__(self, surface: TranslationSurface):
        self.surface = surface
        self.triangles = []   # list of (polygon, (i0, i1, i2))
        self.gluing = {}      # (tri, k) -> (tri, k)
        diag_sides = {}
        edge_sides = {}
        for p, poly in enumerate(surface.polygons):
            n = len(poly)
            tris = ear_clip(list(poly))
            for tri in tris:
                t_id = len(self.triangles)
                self.triangles.append((p, tri))
                for k in range(3):
                    a, b = tri[k], tri[(k + 1) % 3]
                    if b == (a + 1) % n:
                        edge_sides[(p, a)] = (t_id, k)
                    else:
                        key = (p, min(a, b), max(a, b))
                        if key in diag_sides:
                            other = diag_sides.pop(key)
                            self.gluing[(t_id, k)] = other
                            self.gluing[other] = (t_id, k)
                        else:
                            diag_sides[key] = (t_id, k)
        if diag_sides:
            raise InternalInvariantError("unmatched triangulation diagonals")
        for (p, e), side in edge_sides.items():
            q, f = surface.gluing[(p, e)]
            mate = edge_sides[(q, f)]
            self.gluing[side] = mate
            self.gluing[mate] = side

    def corners(self):
        for t_id in range(len(self.triangles)):
            for k in range(3):
                yield (t_id, k)

    def vertex_coords(self, t_id, k) -> Vec2:
        p, tri = self.triangles[t_id]
        return self.surface.vertices(p)[tri[k]]

    def vertex_class(self, t_id, k) -> int:
        p, tri = self.triangles[t_id]
        return self.surface.vertex_class_map()[(p, tri[k])]


# -- the lattice form -----------------------------------------------------
#
# A point is a tuple (xa, xb, ya, yb) of integers, meaning
# ((xa + xb*sqrt(d))/D, (ya + yb*sqrt(d))/D) for the search's common
# denominator D; an element of Z[sqrt(d)] is a pair (A, B), A + B*sqrt(d).

def _cross(p, q, d):
    """p x q as a pair (A, B)."""
    pxa, pxb, pya, pyb = p
    qxa, qxb, qya, qyb = q
    return (pxa * qya - pya * qxa + d * (pxb * qyb - pyb * qxb),
            pxa * qyb + pxb * qya - pya * qxb - pyb * qxa)


def _dot(p, q, d):
    """p . q as a pair (A, B)."""
    pxa, pxb, pya, pyb = p
    qxa, qxb, qya, qyb = q
    return (pxa * qxa + pya * qya + d * (pxb * qxb + pyb * qyb),
            pxa * qxb + pxb * qxa + pya * qyb + pyb * qya)


def _norm(p, d):
    """|p|^2 as a pair (A, B)."""
    xa, xb, ya, yb = p
    return xa * xa + ya * ya + d * (xb * xb + yb * yb), 2 * (xa * xb + ya * yb)


def _mul(s, t, d):
    """The product of two pairs."""
    return s[0] * t[0] + d * s[1] * t[1], s[0] * t[1] + s[1] * t[0]


def _add(p, q):
    return p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3]


def _sub(p, q):
    return p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3]


class _Lattice:
    """The integer form of a set of points over one denominator D and,
    for a search, the bound R^2 = (RA + RB*sqrt(d))/Rd.

    `points` are the vertices whose sums and differences the caller
    takes; their field and the bound's must agree (ValueError
    otherwise, as in arithmetic).  With no bound, `within` is not
    available.
    """

    __slots__ = ("ctx", "d", "D", "Rd", "RA_D2", "RB_D2")

    def __init__(self, points, bound_sq: FieldScalar | None = None):
        scalars = [s for v in points for s in (v.x, v.y)]
        ctx = unify_ctx(*scalars)
        self.ctx = ctx
        self.d = ctx.d
        self.D = D = lcm(*(s._D for s in scalars))
        if bound_sq is None:
            return
        if ctx.d:
            bound_sq = bound_sq.with_ctx(ctx)  # ValueError for another field
        elif bound_sq._B:
            self.d = bound_sq.ctx.d
        # |P|^2 <= R^2 reads Rd*|DP|^2 <= (RA + RB*sqrt(d))*D^2 on the
        # scaled point DP, so the bound side carries D^2
        self.Rd = bound_sq._D
        self.RA_D2 = bound_sq._A * D * D
        self.RB_D2 = bound_sq._B * D * D

    def point(self, v: Vec2):
        D = self.D
        x, y = v.x, v.y
        kx, ky = D // x._D, D // y._D
        return x._A * kx, x._B * kx, y._A * ky, y._B * ky

    def vec2(self, p) -> Vec2:
        xa, xb, ya, yb = p
        D, ctx = self.D, self.ctx
        return Vec2(_new(xa, xb, D, ctx), _new(ya, yb, D, ctx))

    def within(self, num, den=(1, 0)) -> bool:
        """Whether a scaled squared length num/den (D^2 times the true
        one, den > 0) is within the bound:
        Rd*num <= (RA + RB*sqrt(d))*D^2*den."""
        RA, RB, Rd, d = self.RA_D2, self.RB_D2, self.Rd, self.d
        dA, dB = den
        return _sign(RA * dA + d * RB * dB - Rd * num[0],
                     RA * dB + RB * dA - Rd * num[1], d) >= 0


def _window_within(w1, w2, a, b, lat: _Lattice) -> bool:
    """Whether segment ab meets the open cone spanned ccw from ray w1 to
    ray w2 (angle < pi) in a window with a point within the bound.

    All four points are in `lat`'s integer form.  Point a + s*d of the
    segment, d = b - a, lies on the side w x (a + s*d) of ray w's line,
    so the line crosses the closed segment at s = (w x a) / (w x a -
    w x b) when the two signs straddle or touch zero, and the crossing
    is on the ray (at t*w, t > 0) when t = (a x b) / (w x d) is
    positive.  Each end of the window is a segment endpoint or such a
    crossing; two crossings are ordered by cross-multiplying their s.
    The point of the window nearest the origin is an end, or the foot
    of the perpendicular from the origin when the window runs past it;
    a crossing end is within the bound when (a x b)^2 |w|^2 <=
    R^2 (w x d)^2, and the foot when (a x b)^2 <= R^2 |d|^2.  Nothing
    is divided, and every test is homogeneous in the coordinates, so
    the common scale D of the integer form changes no sign.
    """
    d = lat.d
    f1a, f1b, f2a, f2b = (_cross(w1, a, d), _cross(w1, b, d),
                          _cross(w2, a, d), _cross(w2, b, d))
    s1a, s1b = _sign(*f1a, d), _sign(*f1b, d)
    s2a, s2b = _sign(*f2a, d), _sign(*f2b, d)
    in_a = s1a > 0 and s2a < 0
    in_b = s1b > 0 and s2b < 0
    ab = _cross(a, b, d)
    lo = hi = None  # an end on a cone ray, as (ray, w x a, w x a - w x b)
    if not (in_a and in_b):
        ab_sign = _sign(*ab, d)
        crossings = []
        for w, fa, fb, sa, sb in ((w1, f1a, f1b, s1a, s1b),
                                  (w2, f2a, f2b, s2a, s2b)):
            # the line misses the closed segment or runs parallel to it,
            # or the crossing lies behind the apex
            if sa == sb or ab_sign != (1 if sb > sa else -1):
                continue
            crossings.append((w, fa, (fa[0] - fb[0], fa[1] - fb[1])))
        if not crossings:
            if in_b:
                raise InternalInvariantError("window clip lost an endpoint")
            return False
        first = last = crossings[-1]
        if len(crossings) == 2:
            (_, n1, d1), (_, n2, d2) = crossings
            x, y = _mul(n1, d2, d), _mul(n2, d1, d)
            order = (_sign(x[0] - y[0], x[1] - y[1], d)
                     * _sign(*d1, d) * _sign(*d2, d))
            if order < 0:
                first = crossings[0]
            elif order > 0:
                last = crossings[0]
        lo = None if in_a else first
        hi = None if in_b else last
        if lo is hi:
            return False  # the window shrank to one point
    dv = _sub(b, a)
    if _sign(*_dot(a if lo is None else lo[0], dv, d), d) >= 0:
        return _end_within(lo, a, ab, lat)
    if _sign(*_dot(b if hi is None else hi[0], dv, d), d) <= 0:
        return _end_within(hi, b, ab, lat)
    return lat.within(_mul(ab, ab, d), _norm(dv, d))


def _end_within(end, endpoint, ab, lat: _Lattice) -> bool:
    """Whether a window end lies within the bound: `endpoint` itself when
    `end` is None, else the crossing (w, _, w x a - w x b) of ray w."""
    d = lat.d
    if end is None:
        return lat.within(_norm(endpoint, d))
    w, _, den = end
    return lat.within(_mul(_mul(ab, ab, d), _norm(w, d), d),
                      _mul(den, den, d))


class FoundConnection:
    __slots__ = ("holonomy", "start_class", "end_class")

    def __init__(self, holonomy, start_class, end_class):
        self.holonomy = holonomy
        self.start_class = start_class
        self.end_class = end_class


def enumerate_saddle_connections(surface: TranslationSurface,
                                 bound_sq) -> list[FoundConnection]:
    """All saddle connections with |holonomy|^2 <= bound_sq.

    Connections are reported from both endpoints (with opposite
    holonomies); callers deduplicate as needed.  `bound_sq` is an int,
    a Fraction or a FieldScalar of the surface's field (or rational).
    """
    if not isinstance(bound_sq, FieldScalar):
        bound_sq = FieldScalar(bound_sq)
    surface.singularities()
    tri = Triangulated(surface)
    n = len(tri.triangles)
    coords = [[tri.vertex_coords(t, k) for k in range(3)] for t in range(n)]
    lat = _Lattice([v for vs in coords for v in vs], bound_sq)
    verts = [[lat.point(v) for v in vs] for vs in coords]
    # spokes[t][k]: from vertex k of triangle t to the vertex before it,
    # the apex when t is developed across its edge k
    spokes = [[_sub(vs[(k + 2) % 3], vs[k]) for k in range(3)]
              for vs in verts]
    classes = [[tri.vertex_class(t, k) for k in range(3)] for t in range(n)]
    glue = [[tri.gluing[(t, k)] for k in range(3)] for t in range(n)]
    found = []
    for t_id, k in tri.corners():
        _search_from_corner(lat, verts, spokes, classes, glue, t_id, k, found)
    return found


def _search_from_corner(lat, verts, spokes, classes, glue, t_id, k, found):
    d = lat.d
    origin = verts[t_id][k]
    start_class = classes[t_id][k]
    k1 = (k + 1) % 3
    k2 = (k + 2) % 3
    b = _sub(verts[t_id][k1], origin)
    c = _sub(verts[t_id][k2], origin)
    # the outgoing triangle edge is this corner's germ; the other corner
    # ray belongs to the neighboring corner and is recorded there
    if lat.within(_norm(b, d)):
        found.append(FoundConnection(lat.vec2(b), start_class,
                                     classes[t_id][k1]))
    # state: (glued side, cone rays, full edge segment as the pushing
    # triangle traverses it); a state is pushed only when its window is
    # not empty and not wholly beyond the bound
    stack = []
    if _window_within(b, c, b, c, lat):
        stack.append((glue[t_id][k1], b, c, b, c))
    guard = 0
    while stack:
        guard += 1
        if guard > 2_000_000:
            raise InternalInvariantError("saddle-connection search runaway")
        (nt, nk), w1, w2, seg_a, seg_b = stack.pop()
        # develop triangle nt across its edge nk: its vertices nk and
        # nk+1 sit at seg_b and seg_a (opposite orientation), so the
        # translation tau = seg_b - verts[nt][nk] puts its apex at
        # seg_b + spokes[nt][nk]
        apex = _add(seg_b, spokes[nt][nk])
        # far edges of nt: (nk+1) runs seg_a -> apex, (nk+2) runs apex -> seg_b
        if (_sign(*_cross(w1, apex, d), d) > 0
                and _sign(*_cross(apex, w2, d), d) > 0):
            if lat.within(_norm(apex, d)):
                found.append(FoundConnection(
                    lat.vec2(apex), start_class, classes[nt][(nk + 2) % 3]))
            splits = (
                ((nk + 1) % 3, (seg_a, apex), (w1, apex)),
                ((nk + 2) % 3, (apex, seg_b), (apex, w2)),
            )
        else:
            # apex outside the open cone: nothing splits
            splits = (
                ((nk + 1) % 3, (seg_a, apex), (w1, w2)),
                ((nk + 2) % 3, (apex, seg_b), (w1, w2)),
            )
        for edge_k, (ea, eb), (nw1, nw2) in splits:
            if _window_within(nw1, nw2, ea, eb, lat):
                stack.append((glue[nt][edge_k], nw1, nw2, ea, eb))


def enumerate_directions(surface: TranslationSurface, bound_sq):
    """Directions of all saddle connections up to the squared bound.

    A superset of the directions of cylinders whose boundary connections
    are that short; deduplicated and canonically sorted.
    """
    from .cylinders import Direction
    dirs = {}
    for conn in enumerate_saddle_connections(surface, bound_sq):
        d = Direction(conn.holonomy)
        dirs.setdefault(d, conn)
    return sorted(dirs, key=lambda d: d.sort_key())
