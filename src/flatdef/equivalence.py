"""Translation equivalence via canonical Delaunay cell decompositions.

Two surfaces are translation equivalent when a cut-and-paste respecting
translations matches them.  Both are retriangulated to Delaunay by exact
incircle flips (`search._delaunay`, which the saddle-connection search
shares); gluing co-circular neighbors yields the Delaunay cell complex,
unique (Bobenko-Springborn 2007), which is matched cell by cell over all
anchors (exponential worst case, fine at desk scale).  This module holds
the cell walk and the matching.

Everything runs on the surface's integer lattice form (`polygon.py`,
`TranslationSurface.lattice`): with D the lcm of the denominators of
all vertex coordinates, every edge vector is four ints (xa, xb, ya, yb)
meaning ((xa + xb*sqrt(d))/D, (ya + yb*sqrt(d))/D).  The cells stay
lattice tuples, and two surfaces with one D are matched tuple for
tuple, so the match builds no field scalar.  Only `delaunay_cells`
builds its cells back into vectors.
"""

from __future__ import annotations

from .errors import InternalInvariantError
from .search import _Tri, _delaunay
from .surface import TranslationSurface

__all__ = ["translation_equivalent", "delaunay_cells"]

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
    A test oracle of the Delaunay-cell pins (tests/test_output_pin.py).
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
