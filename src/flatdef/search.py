"""Saddle-connection enumeration up to a length bound, and the Delaunay
triangulation it runs on.

The search develops the surface into the plane triangle by triangle.
Each state is a window (a sub-segment of a triangle edge) seen from the
source singularity at the origin; the open cone through the window is
narrowed as it propagates, and a branch is pruned once every point of
its window lies beyond the bound.  Every saddle connection of length
at most R is the straight segment from the origin to a triangle vertex
seen through some chain of windows, so the enumeration is complete on
any triangulation whose vertices are the points of Sigma.

It runs on the Delaunay one (Masur-Smillie 1991; reached by incircle
flips, Bobenko-Springborn 2007), whose triangles are not long and thin,
so fewer windows split.  It searches only holonomies in the half-plane
H = {y > 0} or {y = 0, x > 0}: of a connection and its reverse exactly
one lies in H, so the reverse of each connection found is added
without a search.  `_Tri`, `_incircle` and `_delaunay` are the one
implementation of the flips; `equivalence.py` builds its cells on them.

The search runs on the surface's integer lattice form (`polygon.py`,
`TranslationSurface.lattice`): every point it develops is a sum of
edge vectors, so it stays in that form, and every predicate it takes
is homogeneous in the coordinates, so the common scale D of the form
changes no sign.  A flip takes only differences of edge vectors, so
the form is closed under flips.  The bound is the one addition each
call makes (`polygon._Bound`, which the trace shares): with
R^2 = (RA + RB*sqrt(d))/Rd it carries the scale, |P|^2 <= R^2 becoming
Rd*|DP|^2 <= (RA + RB*sqrt(d))*D^2.
Only a connection that is found is built back into field scalars.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .field import _positive, _sign
from .polygon import (_ORIGIN, _WEST, _Bound, _add, _cross, _dot, _mul, _norm,
                      _sub, ear_clip)
from .surface import TranslationSurface

__all__ = ["enumerate_saddle_connections", "enumerate_directions",
           "Triangulated", "triangulated"]


class Triangulated:
    """A triangulated copy of a surface sharing its vertex set.

    Triangles are (polygon, (i0, i1, i2)) vertex-index triples, ccw;
    side k of a triangle runs from its vertex k to its vertex k + 1.
    Sides are glued pairwise: original polygon edges through the surface
    gluing, ear-clip diagonals within each polygon.

    The gluing is stored as the trace walks it.  A state s = 3t + k
    means "in triangle t, entered through side k", and `walk[s]` is
    (apex, above, below): the polygon vertex index of the triangle's
    vertex k + 2, opposite side k, then the states entered across side
    k + 1, which a ray leaves by when the apex lies above it, and across
    side k + 2, which it leaves by when the apex lies below.  A side
    that is a polygon edge gives ~m, negative, for the state m of its
    glued side: leaving by it crosses into another polygon.
    `sides[p][e]` is the state 3t + k whose side k is polygon p's edge
    e: the state a ray crossing into p by e enters.
    """

    def __init__(self, surface: TranslationSurface):
        self.triangles = []   # list of (polygon, (i0, i1, i2))
        mates = {}            # (tri, k) -> (tri, k)
        sides = {}            # (polygon, edge) -> (tri, k)
        diag_sides = {}
        lat = surface.lattice()
        for p, verts in enumerate(lat.verts):
            n = len(verts)
            for tri in ear_clip(verts, lat.d):
                t_id = len(self.triangles)
                self.triangles.append((p, tri))
                for k in range(3):
                    a, b = tri[k], tri[(k + 1) % 3]
                    if b == (a + 1) % n:
                        sides[(p, a)] = (t_id, k)
                    else:
                        key = (p, min(a, b), max(a, b))
                        if key in diag_sides:
                            other = diag_sides.pop(key)
                            mates[(t_id, k)] = other
                            mates[other] = (t_id, k)
                        else:
                            diag_sides[key] = (t_id, k)
        if diag_sides:
            raise InternalInvariantError("unmatched triangulation diagonals")
        # (tri, k) -> the state entered across side k, coded
        across = {side: 3 * t + k for side, (t, k) in mates.items()}
        for edge, side in sides.items():
            t, k = sides[surface.gluing[edge]]
            across[side] = ~(3 * t + k)
        self.walk = [(ends[(k + 2) % 3], across[(t, (k + 1) % 3)],
                      across[(t, (k + 2) % 3)])
                     for t, (_, ends) in enumerate(self.triangles)
                     for k in range(3)]
        self.sides = [tuple(3 * t + k for t, k in
                            (sides[(p, e)] for e in range(len(verts))))
                      for p, verts in enumerate(lat.verts)]

    @property
    def gluing(self):
        """The mate of each side, (t, k) -> (t, k), as a new dict: side k
        of triangle t is the one that state 3t + (k - 1) mod 3 leaves by
        when its apex lies above."""
        return {(s // 3, (s + 1) % 3): divmod(m if m >= 0 else ~m, 3)
                for s, (_, m, _) in enumerate(self.walk)}


def triangulated(surface: TranslationSurface) -> Triangulated:
    """The surface's `Triangulated`, built once per family: the ear clip
    that `_Tri` copies and flips.

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


MAX_FLIPS = 100_000


class _Tri:
    """Triangulated surface with edge-vector triangles, gluings and
    corner classes, which flips rewrite.

    Built from the family's ear clip (`triangulated`), with a gluing
    dict of its own.  Edge vectors are in the surface's integer form
    `lat`: triangle t has edges[t] = [e0, e1, e2], summing
    to zero, and its vertices sit at O, e0 and e0 + e1 when it is
    developed with corner 0 at the origin.  classes[t][k] is the vertex
    class of corner k, the tail of edge k.
    """

    def __init__(self, surface: TranslationSurface):
        base = triangulated(surface)
        self.lat = surface.lattice()
        points = self.lat.verts
        class_of = surface.vertex_class_map()
        self.edges = []
        self.classes = []
        for p, (i0, i1, i2) in base.triangles:
            pts = points[p]
            self.edges.append([_sub(pts[i1], pts[i0]),
                               _sub(pts[i2], pts[i1]),
                               _sub(pts[i0], pts[i2])])
            self.classes.append([class_of[(p, i0)], class_of[(p, i1)],
                                 class_of[(p, i2)]])
        self.gluing = base.gluing

    def hinge(self, t1, k1):
        """Develop the two triangles sharing edge (t1, k1) into the plane.

        Returns (P, Q, apex1, apex2): the shared edge runs P -> Q with
        apex1 the third vertex of t1 (left of PQ) and apex2 the partner
        triangle's apex (right of PQ).  The partner is always a distinct
        triangle: two sides of one triangle cannot carry opposite
        vectors without degenerating the third.
        """
        t2, k2 = self.gluing[(t1, k1)]
        if t2 == t1:
            raise InternalInvariantError("self-glued triangle side")
        e = self.edges[t1][k1]
        apex1 = _add(e, self.edges[t1][(k1 + 1) % 3])
        # t2's side k2 carries -e, its tail placed at Q, so its vertex
        # k2+1 lands on P and the apex follows t2's next edge from P
        apex2 = self.edges[t2][(k2 + 1) % 3]
        return _ORIGIN, e, apex1, apex2

    def flip(self, t1, k1):
        """Replace the shared edge of the hinge with the other diagonal.

        Old: t1 = (P->Q, Q->A1, A1->P), t2 = (Q->P, P->A2, A2->Q).
        New: t1 = (A2->A1, A1->P, P->A2), t2 = (A1->A2, A2->Q, Q->A1),
        so the corner classes become (A2, A1, P) and (A1, A2, Q).
        """
        gluing = self.gluing
        t2, k2 = gluing[(t1, k1)]
        p, q, a1, a2 = self.hinge(t1, k1)
        qa1, a1p = (t1, (k1 + 1) % 3), (t1, (k1 + 2) % 3)
        pa2, a2q = (t2, (k2 + 1) % 3), (t2, (k2 + 2) % 3)
        c1 = self.classes[t1]
        cp, cq, ca1 = c1[k1], c1[qa1[1]], c1[a1p[1]]
        ca2 = self.classes[t2][a2q[1]]
        self.edges[t1] = [_sub(a1, a2), _sub(p, a1), _sub(a2, p)]
        self.edges[t2] = [_sub(a2, a1), _sub(q, a2), _sub(a1, q)]
        self.classes[t1] = [ca2, ca1, cp]
        self.classes[t2] = [ca1, ca2, cq]
        # outside mates referring to old quad sides must be renamed
        rename = {qa1: (t2, 2), a1p: (t1, 1), pa2: (t1, 2), a2q: (t2, 1)}
        pairs = [((t1, 0), (t2, 0))]
        for old, new in rename.items():
            mate = gluing[old]
            pairs.append((new, rename.get(mate, mate)))
        for side, mate in pairs:
            gluing[side] = mate
            gluing[mate] = side


def _incircle(p, q, r, s, d) -> int:
    """Sign of the incircle determinant for ccw triangle pqr and query s,
    all in the integer form over Z[sqrt(d)]; positive when s is strictly
    inside the circumcircle.

    With p' = p - s and so on, the determinant of the rows
    (x', y', |v'|^2) expanded along its third column is
    |p'|^2 (q' x r') + |q'|^2 (r' x p') + |r'|^2 (p' x q'), each factor
    a pair (A, B) meaning A + B*sqrt(d); over Q every B is zero, and
    the x and y parts alone give the determinant.
    """
    if not d:
        sx, sy = s[0], s[2]
        px, py, qx, qy = p[0] - sx, p[2] - sy, q[0] - sx, q[2] - sy
        rx, ry = r[0] - sx, r[2] - sy
        det = ((px * px + py * py) * (qx * ry - qy * rx)
               + (qx * qx + qy * qy) * (rx * py - ry * px)
               + (rx * rx + ry * ry) * (px * qy - py * qx))
        return (det > 0) - (det < 0)
    p, q, r = _sub(p, s), _sub(q, s), _sub(r, s)
    a = _mul(_norm(p, d), _cross(q, r, d), d)
    b = _mul(_norm(q, d), _cross(r, p, d), d)
    c = _mul(_norm(r, d), _cross(p, q, d), d)
    return _sign(a[0] + b[0] + c[0], a[1] + b[1] + c[1], d)


def _delaunay(tri: _Tri):
    """Flip until every hinge satisfies the incircle condition.

    Returns the co-circular hinges of the last sweep, the one that
    flipped nothing, as the set of both sides of each: one incircle test
    per glued pair, co-circularity being symmetric.
    """
    d = tri.lat.d
    flips = 0
    dirty = True
    while dirty:
        dirty = False
        cocircular = set()
        for t1 in range(len(tri.edges)):
            for k1 in range(3):
                mate = tri.gluing[(t1, k1)]
                if (t1, k1) > mate:
                    continue
                s = _incircle(*tri.hinge(t1, k1), d)
                if s > 0:
                    # flippability: the quad must be strictly convex,
                    # which incircle violation guarantees for a hinge
                    tri.flip(t1, k1)
                    flips += 1
                    if flips > MAX_FLIPS:
                        raise InternalInvariantError(
                            "Delaunay flipping did not terminate")
                    dirty = True
                elif s == 0:
                    cocircular.update(((t1, k1), mate))
    return cocircular


class FoundConnection:
    __slots__ = ("holonomy", "start_class", "end_class")

    def __init__(self, holonomy, start_class, end_class):
        self.holonomy = holonomy
        self.start_class = start_class
        self.end_class = end_class


def enumerate_saddle_connections(surface: TranslationSurface,
                                 bound_sq) -> list[FoundConnection]:
    """All saddle connections with |holonomy|^2 <= bound_sq.

    Each connection is reported from both endpoints, with opposite
    holonomies; callers deduplicate as needed.  The list holds first
    the connections whose holonomy lies in the half-plane H = {y > 0}
    or {y = 0, x > 0}, in search order, then the reverse of each in the
    same order.  `bound_sq` is an int, a Fraction or a FieldScalar of
    the surface's field (or rational); one that is not positive raises
    NonPositiveLength.
    """
    lat = surface.lattice()
    bound = _Bound(lat, _positive("bound_sq", bound_sq))
    tri = _Tri(surface)
    _delaunay(tri)
    n = len(tri.edges)
    # spokes[t][k]: from vertex k of triangle t to the vertex before it,
    # the apex when t is developed across its edge k
    spokes = [[_sub(_ORIGIN, es[(k + 2) % 3]) for k in range(3)]
              for es in tri.edges]
    glue = [[tri.gluing[(t, k)] for k in range(3)] for t in range(n)]
    found = []
    for t_id in range(n):
        for k in range(3):
            _search_from_corner(lat, bound, tri.edges, spokes, tri.classes,
                                glue, t_id, k, found)
    return found + [FoundConnection(-c.holonomy, c.end_class, c.start_class)
                    for c in found]


def _in_h(v, d) -> bool:
    """Whether lattice vector v lies in H = {y > 0} or {y = 0, x > 0}."""
    y = _sign(v[2], v[3], d)
    return y > 0 or y == 0 and _sign(v[0], v[1], d) > 0


def _search_from_corner(lat, bound, edges, spokes, classes, glue, t_id, k,
                        found):
    """Record the connections in H that leave corner k of triangle t_id
    along its outgoing edge or inside its cone."""
    d = bound.d
    start_class = classes[t_id][k]
    k1 = (k + 1) % 3
    b = edges[t_id][k]
    c = spokes[t_id][k]
    # the outgoing triangle edge is this corner's germ; the other corner
    # ray belongs to the neighboring corner and is recorded there
    b_in_h = _in_h(b, d)
    if b_in_h and bound.within(_norm(b, d)):
        found.append(FoundConnection(lat.vec2(b), start_class,
                                     classes[t_id][k1]))
    # the cone runs ccw from b to c through less than pi: it misses H
    # when b lies below the x-axis or points west and c does not lie
    # above it; it runs past west when b lies above and c below, and is
    # clipped there; a cone with east strictly inside is kept whole, as
    # an exactly east connection has its reverse exactly west
    c_y = _sign(c[2], c[3], d)
    if not b_in_h and c_y <= 0:
        return
    far = _WEST if c_y < 0 and b_in_h else c
    # state: (glued side, cone rays, full edge segment as the pushing
    # triangle traverses it); a state is pushed only when its window is
    # not empty and not wholly beyond the bound
    stack = []
    if _window_within(b, far, b, c, bound):
        stack.append((glue[t_id][k1], b, far, b, c))
    guard = 0
    while stack:
        guard += 1
        if guard > 2_000_000:
            raise InternalInvariantError("saddle-connection search runaway")
        (nt, nk), w1, w2, seg_a, seg_b = stack.pop()
        # develop triangle nt across its edge nk: its vertices nk and
        # nk+1 sit at seg_b and seg_a (opposite orientation), so its
        # apex is at seg_b + spokes[nt][nk]
        apex = _add(seg_b, spokes[nt][nk])
        # far edges of nt: (nk+1) runs seg_a -> apex, (nk+2) apex -> seg_b.
        # seg_a lies on or clockwise of ray w1 and seg_b on or
        # counterclockwise of ray w2 (an end strictly inside the cone
        # would be a vertex seen, which splits).  So an apex on or
        # clockwise of w1 puts edge seg_a -> apex there too, where the
        # open cone misses it, and the cone leaves through the other far
        # edge alone; the same holds on the w2 side.
        if _sign(*_cross(w1, apex, d), d) <= 0:
            splits = (((nk + 2) % 3, (apex, seg_b), (w1, w2)),)
        elif _sign(*_cross(apex, w2, d), d) <= 0:
            splits = (((nk + 1) % 3, (seg_a, apex), (w1, w2)),)
        else:
            if _in_h(apex, d) and bound.within(_norm(apex, d)):
                found.append(FoundConnection(
                    lat.vec2(apex), start_class, classes[nt][(nk + 2) % 3]))
            splits = (
                ((nk + 1) % 3, (seg_a, apex), (w1, apex)),
                ((nk + 2) % 3, (apex, seg_b), (apex, w2)),
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
    dirs = set()
    for conn in enumerate_saddle_connections(surface, bound_sq):
        # the list holds each connection's reverse, which has the same
        # direction, and exactly one of the two holonomies lies in H
        h = conn.holonomy
        y = h.y.sign()
        if y > 0 or y == 0 and h.x.sign() > 0:
            dirs.add(Direction(h))
    return sorted(dirs, key=lambda d: d.sort_key())
