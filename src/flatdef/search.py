"""Saddle-connection enumeration up to a length bound.

The search develops the surface into the plane triangle by triangle.
Each state is a window (a sub-segment of a triangle edge) seen from the
source singularity at the origin; the open cone through the window is
narrowed as it propagates, and a branch is pruned once every point of
its window lies beyond the bound.  Every saddle connection of length
at most R is the straight segment from the origin to a triangle vertex
seen through some chain of windows, so the enumeration is complete.

The search runs on the surface's integer lattice form (`polygon.py`,
`TranslationSurface.lattice`): every point it develops is a sum of
differences of surface vertices, so it stays in that form, and every
predicate it takes is homogeneous in the coordinates, so the common
scale D of the form changes no sign.  The bound is the one addition
each call makes (`polygon._Bound`, which the trace shares): with
R^2 = (RA + RB*sqrt(d))/Rd it carries the scale, |P|^2 <= R^2 becoming
Rd*|DP|^2 <= (RA + RB*sqrt(d))*D^2.
Only a connection that is found is built back into field scalars.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .field import _sign
from .polygon import _Bound, _add, _cross, _dot, _mul, _norm, _sub, ear_clip
from .surface import TranslationSurface

__all__ = ["enumerate_saddle_connections", "enumerate_directions",
           "Triangulated", "triangulated"]


class Triangulated:
    """A triangulated copy of a surface sharing its vertex set.

    Triangles are (polygon, (i0, i1, i2)) vertex-index triples; edges are
    glued pairwise: original polygon edges through the surface gluing,
    ear-clip diagonals within each polygon.
    """

    def __init__(self, surface: TranslationSurface):
        self.triangles = []   # list of (polygon, (i0, i1, i2))
        self.gluing = {}      # (tri, k) -> (tri, k)
        diag_sides = {}
        edge_sides = {}
        lat = surface.lattice()
        for p, verts in enumerate(lat.verts):
            n = len(verts)
            for tri in ear_clip(verts, lat.d):
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


def triangulated(surface: TranslationSurface) -> Triangulated:
    """The surface's `Triangulated`, built once per family.

    An ear clip decides by orientation signs and by order along a line,
    which a linear map of positive determinant keeps, so every such
    image of a surface is clipped into the same triangles, and the
    result is kept in the family cache they share
    (`TranslationSurface._family`).  Callers must not change it.
    """
    tri = surface._family.get("triangulated")
    if tri is None:
        tri = surface._family["triangulated"] = Triangulated(surface)
    return tri


def _window_within(w1, w2, a, b, bound: _Bound) -> bool:
    """Whether segment ab meets the open cone spanned ccw from ray w1 to
    ray w2 (angle < pi) in a window with a point within the bound.

    All four points are in one integer form.  Point a + s*d of the
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
    d = bound.d
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
        return _end_within(lo, a, ab, bound)
    if _sign(*_dot(b if hi is None else hi[0], dv, d), d) <= 0:
        return _end_within(hi, b, ab, bound)
    return bound.within(_mul(ab, ab, d), _norm(dv, d))


def _end_within(end, endpoint, ab, bound: _Bound) -> bool:
    """Whether a window end lies within the bound: `endpoint` itself when
    `end` is None, else the crossing (w, _, w x a - w x b) of ray w."""
    d = bound.d
    if end is None:
        return bound.within(_norm(endpoint, d))
    w, _, den = end
    return bound.within(_mul(_mul(ab, ab, d), _norm(w, d), d),
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
    tri = triangulated(surface)
    lat = surface.lattice()
    bound = _Bound(lat, bound_sq)
    n = len(tri.triangles)
    verts = [[lat.verts[p][i] for i in vs] for p, vs in tri.triangles]
    # spokes[t][k]: from vertex k of triangle t to the vertex before it,
    # the apex when t is developed across its edge k
    spokes = [[_sub(vs[(k + 2) % 3], vs[k]) for k in range(3)]
              for vs in verts]
    class_of = surface.vertex_class_map()
    classes = [[class_of[(p, i)] for i in vs] for p, vs in tri.triangles]
    glue = [[tri.gluing[(t, k)] for k in range(3)] for t in range(n)]
    found = []
    for t_id in range(n):
        for k in range(3):
            _search_from_corner(lat, bound, verts, spokes, classes, glue,
                                t_id, k, found)
    return found


def _search_from_corner(lat, bound, verts, spokes, classes, glue, t_id, k,
                        found):
    d = bound.d
    origin = verts[t_id][k]
    start_class = classes[t_id][k]
    k1 = (k + 1) % 3
    k2 = (k + 2) % 3
    b = _sub(verts[t_id][k1], origin)
    c = _sub(verts[t_id][k2], origin)
    # the outgoing triangle edge is this corner's germ; the other corner
    # ray belongs to the neighboring corner and is recorded there
    if bound.within(_norm(b, d)):
        found.append(FoundConnection(lat.vec2(b), start_class,
                                     classes[t_id][k1]))
    # state: (glued side, cone rays, full edge segment as the pushing
    # triangle traverses it); a state is pushed only when its window is
    # not empty and not wholly beyond the bound
    stack = []
    if _window_within(b, c, b, c, bound):
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
            if bound.within(_norm(apex, d)):
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
            if _window_within(nw1, nw2, ea, eb, bound):
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
