"""Saddle-connection enumeration up to a length bound.

The search develops the surface into the plane triangle by triangle.
Each state is a window (a sub-segment of a triangle edge) seen from the
source singularity at the origin; the open cone through the window is
narrowed as it propagates, and a branch is pruned once every point of
its window lies beyond the bound.  Every saddle connection of length
at most R is the straight segment from the origin to a triangle vertex
seen through some chain of windows, so the enumeration is complete.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .field import FieldScalar, Vec2
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


def _window_within(w1: Vec2, w2: Vec2, a: Vec2, b: Vec2,
                   bound_sq: FieldScalar) -> bool:
    """Whether segment ab meets the open cone spanned ccw from ray w1 to
    ray w2 (angle < pi) in a window with a point within the bound.

    Point a + s*d of the segment, d = b - a, lies on the side
    w x (a + s*d) of ray w's line, so the line crosses the closed
    segment at s = (w x a) / (w x a - w x b) when the two signs straddle
    or touch zero, and the crossing is on the ray (at t*w, t > 0) when
    t = (a x b) / (w x d) is positive.  Each end of the window is a
    segment endpoint or such a crossing; two crossings are ordered by
    cross-multiplying their s.  The point of the window nearest the
    origin is an end, or the foot of the perpendicular from the origin
    when the window runs past it; a crossing end is within the bound
    when (a x b)^2 |w|^2 <= R^2 (w x d)^2, and the foot when
    (a x b)^2 <= R^2 |d|^2.  Nothing is divided.
    """
    f1a, f1b, f2a, f2b = w1.cross(a), w1.cross(b), w2.cross(a), w2.cross(b)
    in_a = f1a.sign() > 0 and f2a.sign() < 0
    in_b = f1b.sign() > 0 and f2b.sign() < 0
    ab = a.cross(b)
    lo = hi = None  # an end on a cone ray, as (ray, w x a, w x a - w x b)
    if not (in_a and in_b):
        ab_sign = ab.sign()
        crossings = []
        for w, fa, fb in ((w1, f1a, f1b), (w2, f2a, f2b)):
            sa, sb = fa.sign(), fb.sign()
            # the line misses the closed segment or runs parallel to it,
            # or the crossing lies behind the apex
            if sa == sb or ab_sign != (1 if sb > sa else -1):
                continue
            crossings.append((w, fa, fa - fb))
        if not crossings:
            if in_b:
                raise InternalInvariantError("window clip lost an endpoint")
            return False
        first = last = crossings[-1]
        if len(crossings) == 2:
            (_, n1, d1), (_, n2, d2) = crossings
            order = (n1 * d2 - n2 * d1).sign() * d1.sign() * d2.sign()
            if order < 0:
                first = crossings[0]
            elif order > 0:
                last = crossings[0]
        lo = None if in_a else first
        hi = None if in_b else last
        if lo is hi:
            return False  # the window shrank to one point
    d = b - a
    if (a if lo is None else lo[0]).dot(d).sign() >= 0:
        return _end_within(lo, a, ab, bound_sq)
    if (b if hi is None else hi[0]).dot(d).sign() <= 0:
        return _end_within(hi, b, ab, bound_sq)
    return (ab * ab - bound_sq * d.norm_sq()).sign() <= 0


def _end_within(end, endpoint: Vec2, ab: FieldScalar,
                bound_sq: FieldScalar) -> bool:
    """Whether a window end lies within the bound: `endpoint` itself when
    `end` is None, else the crossing (w, _, w x a - w x b) of ray w."""
    if end is None:
        return (endpoint.norm_sq() - bound_sq).sign() <= 0
    w, _, den = end
    return (ab * ab * w.norm_sq() - bound_sq * den * den).sign() <= 0


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
    holonomies); callers deduplicate as needed.
    """
    if not isinstance(bound_sq, FieldScalar):
        bound_sq = FieldScalar(bound_sq)
    surface.singularities()
    tri = Triangulated(surface)
    found = []
    for t_id, k in tri.corners():
        _search_from_corner(tri, t_id, k, bound_sq, found)
    return found


def _search_from_corner(tri, t_id, k, bound_sq, found):
    origin = tri.vertex_coords(t_id, k)
    start_class = tri.vertex_class(t_id, k)
    k1 = (k + 1) % 3
    k2 = (k + 2) % 3
    b = tri.vertex_coords(t_id, k1) - origin
    c = tri.vertex_coords(t_id, k2) - origin
    # the outgoing triangle edge is this corner's germ; the other corner
    # ray belongs to the neighboring corner and is recorded there
    if (b.norm_sq() - bound_sq).sign() <= 0:
        found.append(FoundConnection(b, start_class, tri.vertex_class(t_id, k1)))
    # state: (glued side, cone rays, full edge segment as the pushing
    # triangle traverses it); a state is pushed only when its window is
    # not empty and not wholly beyond the bound
    stack = []
    if _window_within(b, c, b, c, bound_sq):
        stack.append((tri.gluing[(t_id, k1)], b, c, b, c))
    guard = 0
    while stack:
        guard += 1
        if guard > 2_000_000:
            raise InternalInvariantError("saddle-connection search runaway")
        (nt, nk), w1, w2, seg_a, seg_b = stack.pop()
        # develop triangle nt across its edge nk: its vertices nk and
        # nk+1 sit at seg_b and seg_a (opposite orientation)
        local = [tri.vertex_coords(nt, i) for i in range(3)]
        # translation tau with local[nk] + tau = seg_b
        tau = seg_b - local[nk]
        apex_idx = (nk + 2) % 3
        apex = local[apex_idx] + tau
        # far edges of nt: (nk+1) runs seg_a -> apex, (nk+2) runs apex -> seg_b
        if w1.cross(apex).sign() > 0 and apex.cross(w2).sign() > 0:
            if (apex.norm_sq() - bound_sq).sign() <= 0:
                found.append(FoundConnection(
                    apex, start_class, tri.vertex_class(nt, apex_idx)))
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
            if _window_within(nw1, nw2, ea, eb, bound_sq):
                stack.append((tri.gluing[(nt, edge_k)], nw1, nw2, ea, eb))


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
