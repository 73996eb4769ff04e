"""Translation equivalence via canonical Delaunay cell decompositions.

Two surfaces are translation equivalent when a cut-and-paste respecting
translations matches them.  Both are retriangulated to Delaunay by exact
incircle flips; gluing co-circular neighbors yields the Delaunay cell
complex, unique (Bobenko-Springborn 2007), which is matched cell by cell
over all anchors (exponential worst case, fine at desk scale).

Everything runs on the surface's integer lattice form (`polygon.py`,
`TranslationSurface.lattice`): with D the lcm of the denominators of
all vertex coordinates, every edge vector is four ints (xa, xb, ya, yb)
meaning ((xa + xb*sqrt(d))/D, (ya + yb*sqrt(d))/D).  A flip takes only
differences of edge vectors, so the form is closed under flips, and the
incircle determinant is homogeneous of degree 4, so the scale D changes
no sign.  The cells stay lattice tuples, and two surfaces with one D
are matched tuple for tuple, so the match builds no field scalar.  Only
`delaunay_cells` builds its cells back into vectors.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .field import _sign
from .polygon import _ORIGIN, _add, _cross, _mul, _norm, _sub
from .search import triangulated
from .surface import TranslationSurface

__all__ = ["translation_equivalent", "delaunay_cells"]

MAX_FLIPS = 100_000


class _Tri:
    """Triangulated surface with edge-vector triangles and gluings.

    Built from the saddle-connection search's triangulation, which the
    surface's family shares; the gluing is a copy because flips rewrite
    it.  Edge vectors are in the surface's integer form `lat`.
    """

    def __init__(self, surface: TranslationSurface):
        base = triangulated(surface)
        self.lat = surface.lattice()
        points = self.lat.verts
        self.edges = []    # edges[t] = [e0, e1, e2] summing to zero
        for p, (i0, i1, i2) in base.triangles:
            pts = points[p]
            self.edges.append([_sub(pts[i1], pts[i0]),
                               _sub(pts[i2], pts[i1]),
                               _sub(pts[i0], pts[i2])])
        self.gluing = dict(base.gluing)

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
        New: t1 = (A2->A1, A1->P, P->A2), t2 = (A1->A2, A2->Q, Q->A1).
        """
        t2, k2 = self.gluing[(t1, k1)]
        p, q, a1, a2 = self.hinge(t1, k1)
        n1 = [_sub(a1, a2), _sub(p, a1), _sub(a2, p)]
        n2 = [_sub(a2, a1), _sub(q, a2), _sub(a1, q)]
        nb = {
            "qa1": self.gluing[(t1, (k1 + 1) % 3)],
            "a1p": self.gluing[(t1, (k1 + 2) % 3)],
            "pa2": self.gluing[(t2, (k2 + 1) % 3)],
            "a2q": self.gluing[(t2, (k2 + 2) % 3)],
        }
        # outside mates referring to old quad sides must be renamed
        rename = {
            (t1, (k1 + 1) % 3): (t2, 2),
            (t1, (k1 + 2) % 3): (t1, 1),
            (t2, (k2 + 1) % 3): (t1, 2),
            (t2, (k2 + 2) % 3): (t2, 1),
        }
        self.edges[t1] = n1
        self.edges[t2] = n2
        pairs = {
            (t1, 0): (t2, 0),
            (t1, 1): rename.get(nb["a1p"], nb["a1p"]),
            (t1, 2): rename.get(nb["pa2"], nb["pa2"]),
            (t2, 1): rename.get(nb["a2q"], nb["a2q"]),
            (t2, 2): rename.get(nb["qa1"], nb["qa1"]),
        }
        for side, mate in pairs.items():
            self.gluing[side] = mate
            self.gluing[mate] = side


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


def _cells(surface: TranslationSurface):
    """`delaunay_cells` with each cell a tuple of lattice edge vectors."""
    tri = _Tri(surface)
    # the non-essential edges: hinges with all four points co-circular
    cocircular = _delaunay(tri)
    n = len(tri.edges)
    # merge triangles across non-essential edges into cells: walk each
    # cell boundary along essential sides
    side_seen = set()
    cells = []
    cell_gluing = {}
    slot_of = {}

    def next_essential(side):
        # rotate within the cell: step to the next boundary side ccw
        t, k = side
        nxt = (t, (k + 1) % 3)
        while nxt in cocircular:
            t2, k2 = tri.gluing[nxt]
            nxt = (t2, (k2 + 1) % 3)
        return nxt

    for t1 in range(n):
        for k1 in range(3):
            if (t1, k1) in cocircular or (t1, k1) in side_seen:
                continue
            loop = []
            side = (t1, k1)
            guard = 0
            while True:
                guard += 1
                if guard > 3 * n + 3:
                    raise InternalInvariantError("cell walk did not close")
                loop.append(side)
                side_seen.add(side)
                side = next_essential(side)
                if side == (t1, k1):
                    break
            cell_id = len(cells)
            cells.append(tuple(tri.edges[t][k] for t, k in loop))
            for slot, s in enumerate(loop):
                slot_of[s] = (cell_id, slot)
    for s, (cell_id, slot) in slot_of.items():
        mate = tri.gluing[s]
        cell_gluing[(cell_id, slot)] = slot_of[mate]
    return cells, cell_gluing


def delaunay_cells(surface: TranslationSurface):
    """The canonical Delaunay cell complex as (cells, gluing).

    Cells are polygons given by ccw `Vec2` edge-vector tuples; co-circular
    triangles are merged, so the complex does not depend on flip order
    or on the input presentation.  The gluing pairs (cell, edge) slots.
    """
    cells, gluing = _cells(surface)
    lat = surface.lattice()
    return [tuple(map(lat.vec2, cell)) for cell in cells], dict(gluing)


def _match_from(cells1, gl1, cells2, gl2, c2, rot) -> bool:
    """Try to extend cell 0 of surface 1 -> (cell c2, rotation rot)."""
    n0 = len(cells1[0])
    if len(cells2[c2]) != n0:
        return False
    for k in range(n0):
        if cells1[0][k] != cells2[c2][(k + rot) % len(cells2[c2])]:
            return False
    assignment = {0: (c2, rot)}
    stack = [0]
    while stack:
        a = stack.pop()
        b, r = assignment[a]
        na = len(cells1[a])
        for k in range(na):
            (a2, k2) = gl1[(a, k)]
            (b2, j2) = gl2[(b, (k + r) % na)]
            r2 = (j2 - k2) % len(cells1[a2]) if len(cells1[a2]) else 0
            if len(cells2[b2]) != len(cells1[a2]):
                return False
            if a2 in assignment:
                if assignment[a2] != (b2, r2):
                    return False
                continue
            for k3 in range(len(cells1[a2])):
                if cells1[a2][k3] != cells2[b2][(k3 + r2) % len(cells2[b2])]:
                    return False
            assignment[a2] = (b2, r2)
            stack.append(a2)
    return len(assignment) == len(cells1)


def translation_equivalent(m1: TranslationSurface,
                           m2: TranslationSurface) -> bool:
    """Exact translation equivalence (cut-and-paste isomorphism).

    Fast invariants first (field, genus, signature, area, lattice
    denominator), then canonical Delaunay cells and exhaustive anchored
    matching of their lattice tuples.
    """
    # an edge of either surface is a saddle connection of the other, so
    # equivalent surfaces have their coordinates in one field
    if m1.ctx.d and m2.ctx.d and m1.ctx.d != m2.ctx.d:
        return False
    d1 = m1.singularities()
    d2 = m2.singularities()
    if d1.genus != d2.genus or d1.signature != d2.signature:
        return False
    if not (m1.area2() - m2.area2()).is_zero():
        return False
    # D, the least n taking every edge into Z[sqrt(d)]^2, is fixed by the
    # relative periods the edges generate: equivalent surfaces share it
    if m1.lattice().D != m2.lattice().D:
        return False
    cells1, gl1 = _cells(m1)
    cells2, gl2 = _cells(m2)
    if sorted(map(len, cells1)) != sorted(map(len, cells2)):
        return False
    for c2 in range(len(cells2)):
        for rot in range(len(cells2[c2])):
            if _match_from(cells1, gl1, cells2, gl2, c2, rot):
                return True
    return False
