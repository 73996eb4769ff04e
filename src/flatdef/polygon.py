"""Exact planar predicates for polygons, on an integer lattice form.

Conventions used throughout the package:

* a polygon is a cyclic list of edge vectors summing to zero; vertex i
  sits at the partial sum of edges 0..i-1, anchored at the origin;
* boundaries are positively oriented (interior on the left);
* straight vertices (interior angle exactly pi) are allowed -- they are
  marked points sitting on an edge of the flat metric;
* corner i spans, counterclockwise, from the outgoing edge ray E_i to
  the reversed incoming ray -E_{i-1}; its angle lies in (0, 2*pi).

The predicates run on the lattice form (`Lattice`; a surface holds one):
with D the lcm of the denominators of all edge coordinates, a point
((xa + xb*sqrt(d))/D, (ya + yb*sqrt(d))/D) is the tuple of integers
(xa, xb, ya, yb), and an element A + B*sqrt(d) of Z[sqrt(d)] the pair
(A, B).  Signs are decided by `field._sign`.  Every predicate is
homogeneous in the coordinates, so the scale D > 0 changes no sign.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd, lcm

from .errors import InternalInvariantError
from .field import (QQ, FieldCtx, FieldScalar, Vec2, _as_scalar, _new, _sign,
                    join_ctx)

__all__ = [
    "Lattice",
    "signed_area2",
    "cross_sign",
    "same_ray",
    "corner_crosses_east",
    "check_simple",
    "segments_intersect_interior",
    "ear_clip",
]

_ORIGIN = (0, 0, 0, 0)
_EAST = (1, 0, 0, 0)
_WEST = (-1, 0, 0, 0)


# -- arithmetic in the lattice form ----------------------------------------

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


def _pairs(scalars):
    """The field scalars as pairs over their common denominator, and it."""
    D = lcm(*(s._D for s in scalars))
    return [(s._A * (D // s._D), s._B * (D // s._D)) for s in scalars], D


def _add(p, q):
    return p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3]


def _sub(p, q):
    return p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3]


class Lattice:
    """The integer form of a list of polygons over one denominator D.

    `edges[p]` and `verts[p]` hold polygon p's edge vectors and its
    vertices, vertex i at the sum of edges 0..i-1.  D is the lcm of the
    reduced denominators of the edge coordinates, and `ctx` is QQ when
    every coordinate is rational.  `point` converts any vector whose
    coordinate denominators divide D, as those of every sum and
    difference of vertices do.  A surface builds its form from its
    polygons, or takes it from the surface it is the `image` of; a trace
    from an interior point re-expresses it `over` a finer denominator.
    """

    __slots__ = ("ctx", "d", "D", "edges", "verts")

    def __init__(self, polygons):
        scalars = [s for poly in polygons for v in poly for s in (v.x, v.y)]
        self.D = lcm(*(s._D for s in scalars))
        self._fill(join_ctx(QQ, *scalars),
                   [[self.point(e) for e in poly] for poly in polygons])

    def _fill(self, ctx, edges):
        self.ctx = ctx
        self.d = ctx.d
        self.edges = edges
        self.verts = [list(accumulate(poly[:-1], _add, initial=_ORIGIN))
                      for poly in edges]

    def image(self, g, reverse: bool = False) -> "Lattice":
        """The form of the polygons mapped by the matrix g (a `Mat2`);
        with `reverse`, each polygon's edges are reversed and negated.

        g's entries are pairs over their common denominator Dg, so the
        image coordinates are pairs over D*Dg.  Dividing them and D*Dg
        by G, the gcd of D*Dg and every image integer, leaves the lcm of
        the coordinates' reduced denominators, D*Dg/G: the D of the
        image's own form.  An irrational g over another field than the
        polygons' raises ValueError, naming g's field first.
        """
        entries = (g.a, g.b, g.c, g.d)
        ctx = join_ctx(self.ctx, *entries)
        d = ctx.d
        ((aA, aB), (bA, bB), (cA, cB), (dA, dB)), Dg = _pairs(entries)
        G = self.D * Dg
        edges = []
        for poly in self.edges:
            if reverse:
                poly = [_sub(_ORIGIN, e) for e in reversed(poly)]
            out = []
            for xa, xb, ya, yb in poly:
                e = (aA * xa + bA * ya + d * (aB * xb + bB * yb),
                     aA * xb + aB * xa + bA * yb + bB * ya,
                     cA * xa + dA * ya + d * (cB * xb + dB * yb),
                     cA * xb + cB * xa + dA * yb + dB * ya)
                G = gcd(G, *e)
                out.append(e)
            edges.append(out)
        if G != 1:
            edges = [[(xa // G, xb // G, ya // G, yb // G)
                      for xa, xb, ya, yb in poly] for poly in edges]
        if not any(e[1] or e[3] for poly in edges for e in poly):
            ctx = QQ
        lat = Lattice.__new__(Lattice)
        lat.D = self.D * Dg // G
        lat._fill(ctx, edges)
        return lat

    def over(self, D: int, ctx: FieldCtx) -> "Lattice":
        """This form over D, a multiple of this D, in the field `ctx`,
        which holds this form's: every coordinate times D // self.D.

        D is then no longer the least common denominator, so `point`
        converts every vector whose denominators divide D.
        """
        m = D // self.D
        lat = Lattice.__new__(Lattice)
        lat.D = D
        lat._fill(ctx, [[tuple(c * m for c in e) for e in poly]
                        for poly in self.edges])
        return lat

    def point(self, v: Vec2):
        D = self.D
        x, y = v.x, v.y
        kx, ky = D // x._D, D // y._D
        return x._A * kx, x._B * kx, y._A * ky, y._B * ky

    def vec2(self, p, scale: int = 1) -> Vec2:
        """The vector of the point p over D*scale."""
        xa, xb, ya, yb = p
        D, ctx = self.D * scale, self.ctx
        return Vec2(_new(xa, xb, D, ctx), _new(ya, yb, D, ctx))

    def corner_rays(self, corner):
        """(outgoing edge ray, reversed incoming ray) spanning corner
        (p, i) counterclockwise."""
        p, i = corner
        edges = self.edges[p]
        return edges[i], _sub(_ORIGIN, edges[i - 1])

    def area2(self) -> FieldScalar:
        """Twice the flat area of all the polygons."""
        A = B = 0
        for verts in self.verts:
            a, b = signed_area2(verts, self.d)
            A += a
            B += b
        return _new(A, B, self.D * self.D, self.ctx)


class _Bound:
    """A bound R^2 = (RA + RB*sqrt(d))/Rd on squared lengths, against
    the integer form `lat` of a surface: the one bound test of the
    saddle-connection search and of the trace.

    The test runs in the field of `lat.ctx` and the bound, by
    `field.join_ctx`: a rational bound takes the field of `lat`, a
    rational `lat` the field of the bound, and two different irrational
    fields raise ValueError.  `bound_sq` is an int, a Fraction or a
    FieldScalar.
    """

    __slots__ = ("d", "Rd", "RA_D2", "RB_D2")

    def __init__(self, lat: Lattice, bound_sq):
        bound_sq = _as_scalar(bound_sq)
        self.d = join_ctx(lat.ctx, bound_sq).d
        # |P|^2 <= R^2 reads Rd*|DP|^2 <= (RA + RB*sqrt(d))*D^2 on the
        # scaled point DP, so the bound side carries D^2
        D = lat.D
        self.Rd = bound_sq._D
        self.RA_D2 = bound_sq._A * D * D
        self.RB_D2 = bound_sq._B * D * D

    def scaled(self, den):
        """The bound's side of the test for a denominator den > 0, as a
        pair: (RA + RB*sqrt(d))*D^2*den.  A trace keeps it for each edge
        it crosses, with den that edge's R^2."""
        RA, RB = self.RA_D2, self.RB_D2
        dA, dB = den
        return RA * dA + self.d * RB * dB, RA * dB + RB * dA

    def within(self, num, den=(1, 0)) -> bool:
        """Whether a scaled squared length num/den (D^2 times the true
        one, den > 0) is within the bound: Rd*num <= `scaled(den)`."""
        A, B = self.scaled(den)
        Rd = self.Rd
        return _sign(A - Rd * num[0], B - Rd * num[1], self.d) >= 0


# -- predicates ------------------------------------------------------------

def signed_area2(verts, d):
    """Twice the signed area (shoelace over the vertex chain), as a pair."""
    A = B = 0
    for p, q in zip(verts, verts[1:] + verts[:1]):
        a, b = _cross(p, q, d)
        A += a
        B += b
    return A, B


def cross_sign(u, v, d) -> int:
    return _sign(*_cross(u, v, d), d)


def same_ray(u, v, d) -> bool:
    """True when u and v point in exactly the same direction."""
    return cross_sign(u, v, d) == 0 and _sign(*_dot(u, v, d), d) > 0


def corner_crosses_east(out_ray, rev_in_ray, d, closed: str = "end") -> bool:
    """Whether (1, 0) lies in the half-open ccw sector of a corner, from
    out_ray to rev_in_ray, closed at its `closed` end ("start" or "end").

    Closed at the end, summing over the corner cycle of a vertex class
    counts its full turns exactly once each; closed at the start, the
    corners are those whose east separatrix germ leaves them.

    The sector sweeps an angle in (0, 2*pi), and rays on one ray make a
    full turn, containing everything.  A ray v is on w = (1, 0) exactly
    when its y-part is 0 and its x-part positive, and the cross products
    of w with the rays are their y-parts: with so, si the signs of the
    y-parts of out_ray and rev_in_ray, w lies strictly inside when
    s = out x rev_in > 0 (a sweep below pi) exactly if so < 0 < si,
    when s < 0 (above pi) unless si < 0 < so, and when s = 0
    (anti-parallel rays, or a zero one: the half-plane left of out_ray)
    exactly if so < 0.  So
    so < 0 < si puts w inside and si < 0 < so outside whatever s is,
    and otherwise the sign of s decides, with s = 0 left to the full
    turn or so < 0.  A corner thus costs the signs of its two rises and
    at most one cross sign; x-parts are read only for horizontal rays.
    """
    if closed not in ("start", "end"):
        raise ValueError(f"closed must be 'start' or 'end', not {closed!r}")
    so = _sign(out_ray[2], out_ray[3], d)
    si = _sign(rev_in_ray[2], rev_in_ray[3], d)
    if so == 0 and _sign(out_ray[0], out_ray[1], d) > 0:
        return closed == "start"
    if si == 0 and _sign(rev_in_ray[0], rev_in_ray[1], d) > 0:
        return closed == "end"
    if so < 0 < si:
        return True
    if si < 0 < so:
        return False
    s = cross_sign(out_ray, rev_in_ray, d)
    if s:
        return s < 0
    return so < 0 or same_ray(out_ray, rev_in_ray, d)


def _on_segment(x, a, b, d) -> bool:
    """x strictly inside the open segment (a, b); assumes x collinear with a,b."""
    ab = _sub(b, a)
    t = _dot(_sub(x, a), ab, d)
    n = _norm(ab, d)
    return _sign(*t, d) > 0 and _sign(n[0] - t[0], n[1] - t[1], d) > 0


def segments_intersect_interior(p, q, r, s, d) -> bool:
    """True when segments pq and rs share a point other than common endpoints.

    Endpoint-to-endpoint contact is ignored; endpoint-on-interior and
    interior crossings (including collinear overlap) count.
    """
    pq = _sub(q, p)
    rs = _sub(s, r)
    d1 = cross_sign(pq, _sub(r, p), d)
    d2 = cross_sign(pq, _sub(s, p), d)
    d3 = cross_sign(rs, _sub(p, r), d)
    d4 = cross_sign(rs, _sub(q, r), d)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True  # proper crossing
    # collinear / touching configurations: an endpoint on the other
    # segment's line, by the sign taken above, inside that segment
    for side, x, u, v in ((d1, r, p, q), (d2, s, p, q), (d3, p, r, s),
                          (d4, q, r, s)):
        if side == 0 and _on_segment(x, u, v, d):
            return True
    if d1 == 0 and d2 == 0:
        # fully collinear: overlap iff neither is strictly separated
        # endpoints shared already excluded by _on_segment checks unless equal
        if (p == r and q == s) or (p == s and q == r):
            return True
    return False


def check_simple(edges, verts, d) -> None:
    """Raise ValueError unless the edge list traces a simple ccw polygon.

    `verts[i]` is the sum of edges 0..i-1.  Straight vertices are fine;
    zero edges, fold-backs, repeated vertices, self-intersections and
    clockwise orientation are not.
    """
    n = len(edges)
    if n < 3:
        raise ValueError("polygon needs at least 3 edges")
    for e in edges:
        if e == _ORIGIN:
            raise ValueError("zero-length edge")
    if _add(verts[-1], edges[-1]) != _ORIGIN:
        raise ValueError("edge vectors do not close up")
    for i in range(n):
        if same_ray(edges[i], _sub(_ORIGIN, edges[i - 1]), d):
            raise ValueError(f"fold-back at vertex {i}")
    for i in range(n):
        for j in range(i + 1, n):
            if verts[i] == verts[j]:
                raise ValueError(f"repeated vertex position at {i} and {j}")
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex by construction
            if segments_intersect_interior(a, b, verts[j], verts[(j + 1) % n], d):
                raise ValueError(f"edges {i} and {j} intersect")
    if _sign(*signed_area2(verts, d), d) <= 0:
        raise ValueError("boundary is not positively oriented")


def _point_in_closed_triangle(x, a, b, c, d) -> bool:
    s1 = cross_sign(_sub(b, a), _sub(x, a), d)
    s2 = cross_sign(_sub(c, b), _sub(x, b), d)
    s3 = cross_sign(_sub(a, c), _sub(x, c), d)
    return s1 >= 0 and s2 >= 0 and s3 >= 0


def _diagonal_ok(pos, idx, k, d) -> bool:
    """Is remaining-polygon vertex idx[k] an ear tip?

    It is when it is strictly convex and no other remaining vertex lies
    in the closed triangle it spans with its two neighbours.  For a
    simple polygon, straight vertices included, these two tests make
    the diagonal between the neighbours internal and leave the clipped
    polygon simple (README, "Ears by the two-ears lemma").
    """
    m = len(idx)
    i0, i1, i2 = idx[(k - 1) % m], idx[k], idx[(k + 1) % m]
    a, b, c = pos[i0], pos[i1], pos[i2]
    if cross_sign(_sub(b, a), _sub(c, b), d) <= 0:
        return False  # reflex or straight corner: not an ear tip
    for j in idx:
        if j in (i0, i1, i2):
            continue
        if _point_in_closed_triangle(pos[j], a, b, c, d):
            return False
    return True


def ear_clip(verts, d) -> list[tuple[int, int, int]]:
    """Triangulate a simple ccw polygon given by its vertices; returns
    vertex-index triples.

    Straight vertices are tolerated.  O(n^3) worst case, fine at desk
    scale.  The polygon has been validated, so finding no ear is an
    internal invariant failure.
    """
    n = len(verts)
    idx = list(range(n))
    tris = []
    while len(idx) > 3:
        for k in range(len(idx)):
            if _diagonal_ok(verts, idx, k, d):
                m = len(idx)
                tris.append((idx[(k - 1) % m], idx[k], idx[(k + 1) % m]))
                idx.pop(k)
                break
        else:
            raise InternalInvariantError("no ear found; polygon not simple?")
    a, b, c = (verts[i] for i in idx)
    if cross_sign(_sub(b, a), _sub(c, b), d) <= 0:
        raise InternalInvariantError("degenerate final triangle in ear clipping")
    tris.append((idx[0], idx[1], idx[2]))
    return tris
