"""The component check by Euler characteristic and boundary circles, kept
as a reference for the tests.

This is the rule `cylinders._check_component` applied before it walked
the pieces as a cycle of strips: identify piece corners through glued
items (`ref_corner_classes`), require Euler characteristic zero and no
polygon vertex off the boundary, walk the boundary items into circles
through the glued fans (`ref_boundary_circles`), and require two
circles, one running east and one west, of equal length, with an
edge-run connection along every horizontal edge among them.
tests/test_certify.py checks the library's verdicts, circles,
circumferences and areas against it.
"""

from flatdef.cylinders import _corner_points
from flatdef.errors import InternalInvariantError
from flatdef.field import _new, _sign
from flatdef.polygon import signed_area2


class _UnionFind:
    """Union-find on 0..n-1 with path halving.

    The smaller root wins every union, so each class is named by its
    least member and class ids do not depend on the union order.
    """

    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class RefCheck:
    def __init__(self, ok, reason="", bottom=None, top=None,
                 circumference=None, area=None):
        self.ok = ok
        self.reason = reason
        self.bottom = bottom
        self.top = top
        self.circumference = circumference
        self.area = area


def ref_corner_classes(comp_pieces):
    """Class id of every piece corner (pid, k), corners being identified
    only through glued items."""
    ids = {}
    for piece in comp_pieces:
        for k in range(len(piece.items)):
            ids[(piece.pid, k)] = len(ids)
    uf = _UnionFind(len(ids))
    in_comp = {piece.pid for piece in comp_pieces}
    for piece in comp_pieces:
        n = len(piece.items)
        for k, item in enumerate(piece.items):
            if item.partner is None:
                continue
            mate = item.partner
            if mate.piece.pid not in in_comp:
                raise InternalInvariantError("gluing escapes the component")
            mn = len(mate.piece.items)
            # item runs a->b; mate runs b->a on the other side
            uf.union(ids[(piece.pid, (k + 1) % n)],
                     ids[(mate.piece.pid, mate.index)])
            uf.union(ids[(piece.pid, k)],
                     ids[(mate.piece.pid, (mate.index + 1) % mn)])
    return {key: uf.find(idx) for key, idx in ids.items()}


def ref_boundary_circles(comp_pieces):
    """Walk the boundary items into circles, rotating through glued fans."""
    by_piece = {piece.pid: piece for piece in comp_pieces}
    boundary = [(piece.pid, k) for piece in comp_pieces
                for k, item in enumerate(piece.items) if item.partner is None]
    seen = set()
    circles = []
    for start in boundary:
        if start in seen:
            continue
        circle = []
        cur = start
        guard = 0
        while True:
            guard += 1
            if guard > 4 * len(boundary) * max(len(p.items)
                                               for p in comp_pieces) + 8:
                raise InternalInvariantError("boundary walk did not close")
            seen.add(cur)
            circle.append(cur)
            pid, k = cur
            piece = by_piece[pid]
            n = len(piece.items)
            nxt = (pid, (k + 1) % n)
            hop = 0
            while by_piece[nxt[0]].items[nxt[1]].partner is not None:
                hop += 1
                if hop > sum(len(p.items) for p in comp_pieces) + 8:
                    raise InternalInvariantError("corner fan did not close")
                mate = by_piece[nxt[0]].items[nxt[1]].partner
                nxt = (mate.piece.pid,
                       (mate.index + 1) % len(mate.piece.items))
            if nxt == start:
                break
            cur = nxt
        circles.append(circle)
    return circles


def ref_check_component(surface, comp_pieces, edge_runs):
    """The old certification of one component of the cut surface."""
    class_of = ref_corner_classes(comp_pieces)
    n_vertices = len(set(class_of.values()))
    n_faces = len(comp_pieces)
    glued = 0
    boundary_items = 0
    for piece in comp_pieces:
        for item in piece.items:
            if item.partner is None:
                boundary_items += 1
            else:
                glued += 1
    if glued % 2 != 0:
        raise InternalInvariantError("odd number of glued item sides")
    n_edges = glued // 2 + boundary_items
    chi = n_vertices - n_edges + n_faces
    if chi != 0:
        return RefCheck(False, f"euler characteristic {chi}")

    # interior singular points: a corner class with no boundary item
    # incident whose geometric point is a polygon vertex
    boundary_classes = set()
    for piece in comp_pieces:
        n = len(piece.items)
        for k, item in enumerate(piece.items):
            if item.partner is None:
                boundary_classes.add(class_of[(piece.pid, k)])
                boundary_classes.add(class_of[(piece.pid, (k + 1) % n)])
    for piece in comp_pieces:
        for k, item in enumerate(piece.items):
            if item.start[0] == "vertex":
                if class_of[(piece.pid, k)] not in boundary_classes:
                    return RefCheck(
                        False, "singular point interior to the component")

    circles = ref_boundary_circles(comp_pieces)
    if len(circles) != 2:
        return RefCheck(False, f"{len(circles)} boundary circles")
    # lengths and areas as pairs over D*Q
    lat = surface.lattice()
    d = lat.d
    corners, Q = _corner_points(lat, comp_pieces)
    lengths = []
    signs = []
    for circle in circles:
        A = B = 0
        csign = None
        for pid, k in circle:
            pts = corners[pid]
            (xa, xb, ya, yb), (ua, ub, va, vb) = pts[k], pts[(k + 1) % len(pts)]
            if va != ya or vb != yb:
                raise InternalInvariantError("non-horizontal boundary item")
            s = _sign(ua - xa, ub - xb, d)
            if csign is None:
                csign = s
            elif csign != s:
                return RefCheck(False, "mixed boundary orientation")
            A += ua - xa
            B += ub - xb
        lengths.append((A, B) if csign > 0 else (-A, -B))
        signs.append(csign)
    if set(signs) != {1, -1}:
        return RefCheck(False, "boundary circles of equal orientation")
    bottom = circles[signs.index(1)]
    top = circles[signs.index(-1)]
    if lengths[0] != lengths[1]:
        return RefCheck(False, "boundary circles of different length")
    by_pid = {piece.pid: piece for piece in comp_pieces}
    for pid, k in bottom + top:
        piece = by_pid[pid]
        item = piece.items[k]
        if item.kind != "chord" and (piece.polygon, item.edge) not in edge_runs:
            return RefCheck(False, "boundary edge run beyond the bound")

    A = B = 0
    for pts in corners.values():
        a, b = signed_area2(pts, d)
        A += a
        B += b
    DQ = lat.D * Q
    return RefCheck(True, "", bottom=bottom, top=top,
                    circumference=_new(*lengths[0], DQ, lat.ctx),
                    area=_new(A, B, 2 * DQ * DQ, lat.ctx))
