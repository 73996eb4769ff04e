"""Cylinder decompositions in a given direction.

The pipeline: normalize the direction to horizontal with the
rotation-scaling matrix [[vx, vy], [-vy, vx]] (field entries, conformal
up to scale), trace every eastward separatrix germ, cut the polygons
along the saddle connections found, glue the resulting pieces across
non-horizontal sub-edges, and certify each connected component as a
cylinder by combinatorial checks: Euler characteristic zero, exactly
two consistently oriented horizontal boundary circles of equal length,
and no interior singular points.  This certification is what makes the
Periodic status rigorous, and it keeps partial decompositions sound:
a component that passes is a complete cylinder of the direction even
when other separatrices exceeded the trace bound.
"""

from __future__ import annotations

from .errors import InternalInvariantError, NonPositiveLength
from .field import FieldScalar, Mat2, Vec2
from .homology import HomologyFrame, homology_frame
from .polygon import _EAST, sector_contains
from .surface import TranslationSurface
from .tracing import EAST, NORTH, east_ray_corners, trace_from_corner

__all__ = ["Direction", "SaddleConnection", "Cylinder", "Decomposition",
           "decompose", "default_bound_sq", "PERIODIC", "PARTIAL",
           "NO_CYLINDER"]

PERIODIC = "Periodic"
PARTIAL = "PartialWithinBound"
NO_CYLINDER = "NoCylinderFound"


class Direction:
    """A direction up to positive scaling, with a canonical representative.

    Rational slopes reduce to a primitive integer vector; irrational
    slopes normalize the first nonzero coordinate to one.  The sign
    convention makes x positive, or y positive when x = 0.
    """

    __slots__ = ("vector",)

    def __init__(self, v: Vec2):
        if v.is_zero():
            raise ValueError("the zero vector has no direction")
        object.__setattr__(self, "vector", _canonical(v))

    def __setattr__(self, *a):
        raise AttributeError("Direction is immutable")

    def __eq__(self, other):
        if not isinstance(other, Direction):
            return NotImplemented
        return self.vector == other.vector

    def __hash__(self):
        return hash(self.vector)

    def __repr__(self):
        return f"Direction({self.vector.x}, {self.vector.y})"

    def sort_key(self):
        v = self.vector
        return (v.norm_sq(), v.x, v.y)


def _canonical(v: Vec2) -> Vec2:
    x, y = v.x, v.y
    if x.sign() == 0:
        return Vec2(FieldScalar(0), FieldScalar(1))
    if x.sign() < 0:
        x, y = -x, -y
    slope = y / x
    if slope.is_rational():
        q = slope.as_fraction()
        return Vec2(FieldScalar(q.denominator), FieldScalar(q.numerator))
    return Vec2(FieldScalar(1), slope)


class SaddleConnection:
    """A straight geodesic between singular points, with its trace data."""

    __slots__ = ("sc_id", "holonomy", "normalized_holonomy", "start_corner",
                 "end_corner", "start_class", "end_class", "chords",
                 "crossings", "is_edge_run")

    def __init__(self, sc_id, holonomy, normalized_holonomy, start_corner,
                 end_corner, start_class, end_class, chords, crossings,
                 is_edge_run):
        self.sc_id = sc_id
        self.holonomy = holonomy
        self.normalized_holonomy = normalized_holonomy
        self.start_corner = start_corner
        self.end_corner = end_corner
        self.start_class = start_class
        self.end_class = end_class
        self.chords = chords
        self.crossings = crossings
        self.is_edge_run = is_edge_run

    def __repr__(self):
        return f"SaddleConnection({self.holonomy.x}, {self.holonomy.y})"


class Cylinder:
    """One certified maximal cylinder of a decomposition.

    Heights and circumferences refer to the normalized surface; moduli
    and circumference ratios are scale-free and so intrinsic to the
    original direction.
    """

    __slots__ = ("cyl_id", "height", "circumference", "area", "core_coords",
                 "cross_coords", "core_crossings", "boundary_sc_ids",
                 "piece_ids", "core_chords")

    def __init__(self, cyl_id, height, circumference, area, core_coords,
                 cross_coords, core_crossings, boundary_sc_ids, piece_ids,
                 core_chords=()):
        self.cyl_id = cyl_id
        self.height = height
        self.circumference = circumference
        self.area = area
        self.core_coords = core_coords
        self.cross_coords = cross_coords
        self.core_crossings = core_crossings
        self.boundary_sc_ids = boundary_sc_ids
        self.piece_ids = piece_ids
        self.core_chords = core_chords

    @property
    def modulus(self) -> FieldScalar:
        return self.height / self.circumference

    def __repr__(self):
        return (f"Cylinder(h={self.height}, c={self.circumference}, "
                f"m={self.modulus})")


class _Piece:
    __slots__ = ("pid", "polygon", "items", "component")

    def __init__(self, pid, polygon, items):
        self.pid = pid
        self.polygon = polygon
        self.items = items  # list of _Item
        self.component = None


class _Item:
    """One directed boundary element of a piece (ccw, interior left)."""

    __slots__ = ("kind", "edge", "t0", "t1", "chord_id", "direction",
                 "start", "end", "start_coords", "end_coords", "piece",
                 "index", "partner")

    def __init__(self, kind, start, end, start_coords, end_coords, *,
                 edge=None, t0=None, t1=None, chord_id=None, direction=None):
        self.kind = kind          # "sub" or "chord"
        self.edge = edge
        self.t0 = t0
        self.t1 = t1
        self.chord_id = chord_id
        self.direction = direction
        self.start = start        # PathPoint
        self.end = end
        self.start_coords = start_coords
        self.end_coords = end_coords
        self.piece = None
        self.index = None
        self.partner = None       # glued _Item or None for boundary items

    @property
    def vec(self) -> Vec2:
        return self.end_coords - self.start_coords


class _Chord:
    __slots__ = ("chord_id", "polygon", "sc_id", "sc_index", "start", "end",
                 "start_coords", "end_coords")

    def __init__(self, chord_id, polygon, sc_id, sc_index, start, end,
                 start_coords, end_coords):
        self.chord_id = chord_id
        self.polygon = polygon
        self.sc_id = sc_id
        self.sc_index = sc_index
        self.start = start
        self.end = end
        self.start_coords = start_coords
        self.end_coords = end_coords


class Decomposition:
    """The result of decompose(); immutable by convention."""

    def __init__(self, surface, frame, direction, matrix, normalized, status,
                 cylinders, saddle_connections, bound_sq,
                 unresolved_rays, cut):
        self.surface = surface
        self.frame = frame
        self.direction = direction
        self.matrix = matrix
        self.normalized = normalized
        self.status = status
        self.cylinders = cylinders
        self.saddle_connections = saddle_connections
        self.bound_sq = bound_sq
        self.unresolved_rays = unresolved_rays
        self.cut = cut

    @property
    def is_periodic(self) -> bool:
        return self.status == PERIODIC

    def transport_factor(self):
        """The complex scalar mapping normalized-frame cocycle values to
        original-direction period displacements: (vx + i vy) / |v|^2."""
        from .linalg import ComplexScalar
        v = self.direction.vector
        n = v.norm_sq()
        return ComplexScalar(v.x / n, v.y / n)

    def __repr__(self):
        return (f"Decomposition({self.direction!r}, {self.status}, "
                f"{len(self.cylinders)} cylinders)")


def default_bound_sq(surface: TranslationSurface,
                     factor: int = 20) -> FieldScalar:
    """Squared default trace bound: (factor x longest input edge)^2.

    Lengths are compared through their squares so the bound stays in the
    field.
    """
    best = None
    for poly in surface.polygons:
        for e in poly:
            n = e.norm_sq()
            if best is None or (n - best).sign() > 0:
                best = n
    return best * (factor * factor)


def _point_coords(surface, p, point) -> Vec2:
    if point[0] == "vertex":
        return surface.vertices(p)[point[1]]
    e, t = point[1], point[2]
    a = surface.vertices(p)[e]
    d = surface.polygons[p][e]
    return Vec2(a.x + d.x * t, a.y + d.y * t)


def _is_edge_run(surface, chord) -> bool:
    p, start, end = chord
    if start[0] != "vertex" or end[0] != "vertex":
        return False
    n = len(surface.polygons[p])
    return end[1] == (start[1] + 1) % n


def _pick_first_cw(ref: Vec2, candidates):
    """The candidate direction first encountered rotating CW from -ref.

    candidates is a list of (direction, payload); a direction equal to
    -ref itself (a U-turn) is chosen only when it is the sole option.
    """
    back = -ref

    def angle_class(d: Vec2):
        cr = back.cross(d).sign()
        if cr == 0:
            if back.dot(d).sign() > 0:
                return 3  # same ray as back: full turn
            return 1      # opposite: angle pi
        return 0 if cr < 0 else 2

    best = None
    for d, payload in candidates:
        cls = angle_class(d)
        if best is None:
            best = (cls, d, payload)
            continue
        bcls, bd, _ = best
        if cls < bcls:
            best = (cls, d, payload)
        elif cls == bcls and cls in (0, 2):
            if d.cross(bd).sign() < 0:
                # d strictly before bd going CW
                best = (cls, d, payload)
    return best[2]


def _build_cut_pieces(surface, chords_by_polygon):
    """Cut each polygon along its chords; return pieces and glueable items.

    Pieces are the faces of the chord arrangement, walked with interior
    on the left, so their boundary item lists run counterclockwise.
    """
    pieces = []
    sub_lookup = {}    # (p, e, t0) -> _Item  (boundary sub-edges)

    for p, poly in enumerate(surface.polygons):
        n = len(poly)
        verts = surface.vertices(p)
        split: dict[int, set] = {e: set() for e in range(n)}
        for ch in chords_by_polygon.get(p, []):
            for pt in (ch.start, ch.end):
                if pt[0] == "edge":
                    split[pt[1]].add(pt[2])
        # directed edges of the arrangement
        directed = []   # (_Item-like record before piecing)
        outgoing = {}   # PathPoint -> list[(direction, idx)]

        def add_directed(item):
            idx = len(directed)
            directed.append(item)
            outgoing.setdefault(item.start, []).append((item.vec, idx))
            return idx

        zero = FieldScalar(0, 0, surface.ctx)
        one = FieldScalar(1, 0, surface.ctx)
        for e in range(n):
            params = sorted(split[e])  # exact field order
            pts = ([("vertex", e)] + [("edge", e, t) for t in params]
                   + [("vertex", (e + 1) % n)])
            bounds = [zero] + params + [one]
            for k in range(len(pts) - 1):
                item = _Item(
                    "sub", pts[k], pts[k + 1],
                    _point_coords(surface, p, pts[k]),
                    _point_coords(surface, p, pts[k + 1]),
                    edge=e, t0=bounds[k], t1=bounds[k + 1])
                add_directed(item)
        for ch in chords_by_polygon.get(p, []):
            fwd = _Item("chord", ch.start, ch.end, ch.start_coords,
                        ch.end_coords, chord_id=ch.chord_id, direction=1)
            rev = _Item("chord", ch.end, ch.start, ch.end_coords,
                        ch.start_coords, chord_id=ch.chord_id, direction=-1)
            add_directed(fwd)
            add_directed(rev)

        used = [False] * len(directed)
        for start_idx in range(len(directed)):
            if used[start_idx]:
                continue
            loop = []
            idx = start_idx
            guard = 0
            while True:
                guard += 1
                if guard > len(directed) + 1:
                    raise InternalInvariantError("face walk did not close")
                used[idx] = True
                loop.append(idx)
                cur = directed[idx]
                cands = outgoing.get(cur.end, [])
                if not cands:
                    raise InternalInvariantError(
                        f"face walk stuck at {cur.end} in polygon {p}")
                nxt = _pick_first_cw(cur.vec, cands)
                if nxt == start_idx:
                    break
                if used[nxt]:
                    raise InternalInvariantError(
                        f"face walk revisited an edge in polygon {p}")
                idx = nxt
            piece = _Piece(len(pieces), p, [directed[i] for i in loop])
            for pos, i in enumerate(loop):
                directed[i].piece = piece
                directed[i].index = pos
            pieces.append(piece)
            for i in loop:
                it = directed[i]
                if it.kind == "sub":
                    sub_lookup[(p, it.edge, it.t0)] = it

    return pieces, sub_lookup


def _glue_items(surface, pieces, sub_lookup):
    """Glue sub-edge items across non-horizontal cells; mark the rest
    as boundary (cuts)."""
    one = FieldScalar(1, 0, surface.ctx)
    for (p, e, t0), item in sub_lookup.items():
        if item.partner is not None:
            continue
        vec = surface.polygons[p][e]
        if vec.y.sign() == 0:
            continue  # horizontal cell: stays a boundary item
        q, f = surface.gluing[(p, e)]
        mate = sub_lookup.get((q, f, one - item.t1))
        if mate is None or (mate.t1 - (one - item.t0)).sign() != 0:
            raise InternalInvariantError(
                f"sub-edge split mismatch across gluing {(p, e)}")
        item.partner = mate
        mate.partner = item


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


def _components(pieces):
    uf = _UnionFind(len(pieces))
    for piece in pieces:
        for item in piece.items:
            if item.partner is not None:
                uf.union(piece.pid, item.partner.piece.pid)
    comps = {}
    for piece in pieces:
        root = uf.find(piece.pid)
        piece.component = root
        comps.setdefault(root, []).append(piece)
    return [comps[k] for k in sorted(comps)]


def _corner_classes(comp_pieces):
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


def _boundary_circles(comp_pieces):
    """Walk the boundary items into circles, rotating through glued fans."""
    by_piece = {piece.pid: piece for piece in comp_pieces}
    boundary = [(piece.pid, k) for piece in comp_pieces
                for k, item in enumerate(piece.items) if item.partner is None]
    bset = set(boundary)
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
            if guard > 4 * len(boundary) * max(len(p.items) for p in comp_pieces) + 8:
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
                nxt = (mate.piece.pid, (mate.index + 1) % len(mate.piece.items))
            if nxt == start:
                break
            cur = nxt
        circles.append(circle)
    return circles


def _piece_area2(piece) -> FieldScalar:
    pts = [item.start_coords for item in piece.items]
    n = len(pts)
    total = pts[0].x - pts[0].x
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        total = total + (a.x * b.y - b.x * a.y)
    return total


class _ComponentCheck:
    __slots__ = ("ok", "reason", "bottom", "top", "circumference", "area",
                 "pieces")

    def __init__(self, ok, reason="", bottom=None, top=None,
                 circumference=None, area=None, pieces=None):
        self.ok = ok
        self.reason = reason
        self.bottom = bottom
        self.top = top
        self.circumference = circumference
        self.area = area
        self.pieces = pieces


def _check_component(surface, comp_pieces):
    """Certify one component of the cut surface as a cylinder."""
    by_piece = {piece.pid: piece for piece in comp_pieces}
    class_of = _corner_classes(comp_pieces)
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
        return _ComponentCheck(False, f"euler characteristic {chi}")

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
                    return _ComponentCheck(
                        False, "singular point interior to the component")

    circles = _boundary_circles(comp_pieces)
    if len(circles) != 2:
        return _ComponentCheck(False, f"{len(circles)} boundary circles")
    zero = FieldScalar(0, 0, surface.ctx)
    lengths = []
    signs = []
    for circle in circles:
        total = zero
        csign = None
        for pid, k in circle:
            item = by_piece[pid].items[k]
            v = item.vec
            if v.y.sign() != 0:
                raise InternalInvariantError("non-horizontal boundary item")
            s = v.x.sign()
            if csign is None:
                csign = s
            elif csign != s:
                return _ComponentCheck(False, "mixed boundary orientation")
            total = total + v.x
        lengths.append(total if csign > 0 else -total)
        signs.append(csign)
    if set(signs) != {1, -1}:
        return _ComponentCheck(False, "boundary circles of equal orientation")
    bottom = circles[signs.index(1)]
    top = circles[signs.index(-1)]
    if (lengths[0] - lengths[1]).sign() != 0:
        return _ComponentCheck(False, "boundary circles of different length")

    area2 = zero
    for piece in comp_pieces:
        area2 = area2 + _piece_area2(piece)
    return _ComponentCheck(True, "", bottom=bottom, top=top,
                           circumference=lengths[0], area=area2 / 2,
                           pieces=comp_pieces)


def _bottom_germ_corner(surface, by_piece, chords, saddle_connections, bottom):
    """A corner emitting an eastward boundary germ of the bottom circle."""
    for pid, k in bottom:
        item = by_piece[pid].items[k]
        if item.start[0] != "vertex":
            continue
        if item.kind == "sub":
            return (by_piece[pid].polygon, item.edge)
        ch = chords[item.chord_id]
        if item.direction == 1 and ch.sc_index == 0:
            sc = saddle_connections[ch.sc_id]
            return sc.start_corner
    raise InternalInvariantError("bottom circle has no vertex germ")


def _find_vertical_corner(surface, germ_corner):
    """Rotate ccw from the eastward germ to the corner containing (0,1).

    The first corner only counts on the arc strictly past the eastward
    germ ray, so the germ found is the one on the cylinder's side.
    """
    lat = surface.lattice()
    north = (0, 0, 1, 0)  # in the integer form
    _, end = lat.corner_rays(germ_corner)
    if sector_contains(_EAST, end, north, lat.d, include_start=False,
                       include_end=False):
        return germ_corner
    corner = surface.next_corner(germ_corner)
    for _ in range(10 * len(surface.gluing) + 8):
        start, end = lat.corner_rays(corner)
        if sector_contains(start, end, north, lat.d, include_start=True,
                           include_end=False):
            return corner
        corner = surface.next_corner(corner)
    raise InternalInvariantError("no corner contains the vertical germ")


def _locate_chord_through(chords_by_polygon, p, coords):
    for ch in chords_by_polygon.get(p, []):
        if (ch.start_coords.y - coords.y).sign() != 0:
            continue
        if (ch.start_coords.x - coords.x).sign() < 0 and \
           (coords.x - ch.end_coords.x).sign() < 0:
            return ch
    return None


def _chord_by_start(chords_by_polygon, p, point):
    for ch in chords_by_polygon.get(p, []):
        if ch.start == point:
            return ch
    return None


def _cross_path(surface, chords_by_polygon, saddle_connections, corner,
                height):
    """Vertical cross-cut of a cylinder, from a bottom zero to a top zero.

    Traces (0,1) from the corner for exactly `height`; if the endpoint is
    not itself a singular point, slides east along the boundary leaf to
    the next one.  Returns (chords, rise_check_passed).
    """
    north = NORTH(surface.ctx)
    res = trace_from_corner(surface, corner, north, stop_at_advance=height)
    if res.kind == "vertex":
        if (res.advance - height).sign() != 0:
            raise InternalInvariantError(
                "cross path hit a singularity below the top boundary")
        return list(res.chords)
    if res.kind != "target":
        raise InternalInvariantError(f"cross path ended with {res.kind}")
    chords = list(res.chords)
    if res.pending_start is not None:
        # stopped strictly inside a polygon, on a cut chord of the top
        # boundary; slide east to the chord's right end and follow the
        # saddle connection to its terminal zero
        p, start_point = res.pending_start
        coords = res.end_position[1]
        ch = _locate_chord_through(chords_by_polygon, p, coords)
        if ch is None:
            raise InternalInvariantError(
                "cross path stopped off the cut system")
        chords.append((p, start_point, ch.end))
        chords.extend(_sc_tail(surface, saddle_connections[ch.sc_id],
                               ch.sc_index + 1))
        return chords
    # stopped exactly on a boundary point of some polygon
    q, point = res.end_pathpoint
    f, s = point[1], point[2]
    vec = surface.polygons[q][f]
    if vec.y.sign() == 0:
        # landed on a horizontal cell: slide east along it
        if vec.x.sign() > 0:
            chords.append((q, point,
                           ("vertex", (f + 1) % len(surface.polygons[q]))))
        else:
            chords.append((q, point, ("vertex", f)))
        return chords
    # a cut-chord endpoint: the continuing chord starts here on one of
    # the two sides of the edge
    ch = _chord_by_start(chords_by_polygon, q, point)
    if ch is not None:
        chords.append((q, point, ch.end))
    else:
        q2, f2 = surface.gluing[(q, f)]
        point2 = ("edge", f2, FieldScalar(1, 0, surface.ctx) - s)
        ch = _chord_by_start(chords_by_polygon, q2, point2)
        if ch is None:
            raise InternalInvariantError(
                "cross path stopped at an untracked chord endpoint")
        chords.append((q2, point2, ch.end))
    chords.extend(_sc_tail(surface, saddle_connections[ch.sc_id],
                           ch.sc_index + 1))
    return chords


def _sc_tail(surface, sc, from_index):
    return [sc.chords[i] for i in range(from_index, len(sc.chords))]


def _core_from_pieces(surface, comp_pieces, circumference):
    """The core leaf of a certified component, read from its pieces.

    Every polygon vertex is a singular or marked point and the component
    is bounded by traced saddle connections, so each non-horizontal
    sub-edge runs from its bottom circle to its top circle, and the leaf
    at half height crosses it once, at its midpoint.  Items run ccw, so
    the eastward leaf enters a piece through its one sub-edge running
    down and leaves through its one sub-edge running up.  The walk
    starts at the component's first piece and follows the gluing across
    each exit.  Returns the chords; each one's end is a crossing.
    """
    ends = {}
    for piece in comp_pieces:
        down, up = [], []
        for item in piece.items:
            if item.kind == "sub":
                rise = surface.polygons[piece.polygon][item.edge].y.sign()
                if rise < 0:
                    down.append(item)
                elif rise > 0:
                    up.append(item)
        if len(down) != 1 or len(up) != 1:
            raise InternalInvariantError(
                f"piece {piece.pid} has {len(down)} core entries and "
                f"{len(up)} exits")
        ends[piece.pid] = down[0], up[0]
    chords = []
    run2 = FieldScalar(0, 0, surface.ctx)  # twice the x-length walked
    first = comp_pieces[0]
    piece = first
    while True:
        entry, exit_ = ends.pop(piece.pid)
        chords.append((piece.polygon, _midpoint(entry), _midpoint(exit_)))
        run2 = (run2 + exit_.start_coords.x + exit_.end_coords.x
                - entry.start_coords.x - entry.end_coords.x)
        piece = exit_.partner.piece
        if piece is first:
            break
        if piece.pid not in ends:
            raise InternalInvariantError("core walk revisited a piece")
    if ends:
        raise InternalInvariantError(
            f"core walk missed {len(ends)} pieces of the component")
    if (run2 - circumference * 2).sign() != 0:
        raise InternalInvariantError("core leaf does not close up")
    return chords


def _midpoint(item):
    return ("edge", item.edge, (item.t0 + item.t1) / 2)


class BoundExceeded:
    """Sentinel value: the separatrix stayed open within the length bound."""

    __slots__ = ("advance_sq",)

    def __init__(self, advance_sq):
        self.advance_sq = advance_sq

    def __repr__(self):
        return f"BoundExceeded(advance_sq={self.advance_sq})"


def _positive(name, value):
    """`value` as a FieldScalar; NonPositiveLength unless it is positive."""
    if not isinstance(value, FieldScalar):
        value = FieldScalar(value)
    if value.sign() <= 0:
        raise NonPositiveLength(f"{name} must be positive, got {value}")
    return value


def _normalize(surface, direction):
    """(Direction, normalizing matrix g, g-image of the surface); g has
    det |v|^2 > 0, so the image carries the surface's validated vertex
    classes, ready for tracing."""
    if not isinstance(direction, Direction):
        direction = Direction(direction if isinstance(direction, Vec2)
                              else Vec2(*direction))
    g = Mat2.direction_normalizer(direction.vector)
    normalized = surface.apply_matrix(g, label=surface.label)
    return direction, g, normalized


def _trace_east(normalized, g_inv, class_of, corner, max_advance_sq, sc_id):
    """Follow the eastward separatrix from `corner` of a normalized surface.

    Returns (trace result, SaddleConnection), the connection being None
    when the trace ran past max_advance_sq.
    """
    res = trace_from_corner(normalized, corner, EAST(normalized.ctx),
                            max_advance_sq=max_advance_sq)
    if res.kind == "bound":
        return res, None
    hol_norm = Vec2(res.advance, FieldScalar(0, 0, normalized.ctx))
    return res, SaddleConnection(
        sc_id=sc_id,
        holonomy=g_inv.apply(hol_norm),
        normalized_holonomy=hol_norm,
        start_corner=corner,
        end_corner=res.end_corner,
        start_class=class_of[corner],
        end_class=class_of[res.end_corner],
        chords=list(res.chords),
        crossings=list(res.crossings),
        is_edge_run=(len(res.chords) == 1
                     and _is_edge_run(normalized, res.chords[0])),
    )


def trace_separatrix(surface: TranslationSurface, corner, direction,
                     trace_length):
    """Follow the separatrix leaving `corner` in `direction`.

    Returns a SaddleConnection when a singular point is hit within the
    length bound (measured on this surface), else a BoundExceeded value.
    The corner must emit the direction: it is the (polygon, vertex)
    whose half-open sector contains it.  A trace_length that is not
    positive raises NonPositiveLength.
    """
    trace_length = _positive("trace_length", trace_length)
    direction, g, normalized = _normalize(surface, direction)
    n = direction.vector.norm_sq()
    res, sc = _trace_east(normalized, g.inverse(),
                          normalized.vertex_class_map(), corner,
                          trace_length * trace_length * n, 0)
    if sc is None:
        return BoundExceeded(res.advance * res.advance / n)
    return sc


def decompose(surface: TranslationSurface, direction,
              trace_factor: int = 20,
              trace_length: FieldScalar | None = None,
              frame: HomologyFrame | None = None) -> Decomposition:
    """Find the cylinders of `surface` in `direction`.

    trace_length bounds the length of separatrices followed (measured on
    the original surface); by default it is trace_factor times the
    longest edge.  Status is Periodic only when every separatrix closed
    up within the bound and every complementary component was certified
    as a cylinder, in which case the cylinder areas sum to the area of
    the normalized surface exactly.  A trace_factor or trace_length that
    is not positive raises NonPositiveLength.
    """
    _positive("trace_factor", trace_factor)
    if trace_length is not None:
        trace_length = _positive("trace_length", trace_length)
    direction, g, normalized = _normalize(surface, direction)
    if frame is None:
        frame = homology_frame(surface)
    v = direction.vector

    if trace_length is None:
        bound_sq = default_bound_sq(surface, trace_factor)
    else:
        bound_sq = trace_length * trace_length
    # advance on the normalized surface is x-progress = |v| * length on M
    max_advance_sq = bound_sq * v.norm_sq()

    saddle_connections = []
    unresolved = []
    g_inv = g.inverse()
    class_of = normalized.vertex_class_map()
    for corner in east_ray_corners(normalized):
        _, sc = _trace_east(normalized, g_inv, class_of, corner,
                            max_advance_sq, len(saddle_connections))
        if sc is None:
            unresolved.append(corner)
        else:
            saddle_connections.append(sc)
    edge_run_sc = {}
    for sc in saddle_connections:
        if sc.is_edge_run:
            p0, start, _end = sc.chords[0]
            edge_run_sc[(p0, start[1])] = sc.sc_id
            edge_run_sc[normalized.gluing[(p0, start[1])]] = sc.sc_id

    # collect interior cut chords per polygon
    chords_by_polygon: dict[int, list] = {}
    chord_table = []
    for sc in saddle_connections:
        if sc.is_edge_run:
            continue
        for idx, (p, start, end) in enumerate(sc.chords):
            ch = _Chord(len(chord_table), p, sc.sc_id, idx, start, end,
                        _point_coords(normalized, p, start),
                        _point_coords(normalized, p, end))
            chord_table.append(ch)
            chords_by_polygon.setdefault(p, []).append(ch)

    pieces, sub_lookup = _build_cut_pieces(normalized, chords_by_polygon)
    _glue_items(normalized, pieces, sub_lookup)
    components = _components(pieces)
    by_piece = {piece.pid: piece for piece in pieces}

    cylinders = []
    failed_components = 0
    for comp in components:
        check = _check_component(normalized, comp)
        if not check.ok:
            failed_components += 1
            continue
        c = check.circumference
        h = check.area / c
        germ = _bottom_germ_corner(normalized, by_piece, chord_table,
                                   saddle_connections, check.bottom)
        corner = _find_vertical_corner(normalized, germ)
        cross_chords = _cross_path(normalized, chords_by_polygon,
                                   saddle_connections, corner, h)
        cross_coords = frame.coords_of_path(cross_chords)
        core_chords = _core_from_pieces(normalized, comp, c)
        core_coords = frame.coords_of_path(core_chords)
        nv = len(frame.boundary_matrix[0]) if frame.boundary_matrix else 0
        bnd = [0] * nv
        for k, coeff in enumerate(core_coords):
            if coeff:
                for j, b in enumerate(frame.boundary_matrix[k]):
                    bnd[j] += coeff * b
        if any(x != 0 for x in bnd):
            raise InternalInvariantError("core class is not absolute")
        crossings_per_cell = [0] * len(frame.cells)
        for p, _start, (_, e, _t) in core_chords:
            cidx, _sign = frame.cell_of[(p, e)]
            rp, re = frame.cells[cidx]
            # crossing sign: + when the cell crosses the core going up,
            # measured on the normalized surface
            crossings_per_cell[cidx] += normalized.polygons[rp][re].y.sign()
        boundary_ids = set()
        for pid, k in check.bottom + check.top:
            item = by_piece[pid].items[k]
            if item.kind == "chord":
                boundary_ids.add(chord_table[item.chord_id].sc_id)
            else:
                sc_id = edge_run_sc.get((by_piece[pid].polygon, item.edge))
                if sc_id is not None:
                    boundary_ids.add(sc_id)
        cyl = Cylinder(
            cyl_id=len(cylinders), height=h, circumference=c,
            area=check.area, core_coords=tuple(core_coords),
            cross_coords=tuple(cross_coords),
            core_crossings=tuple(crossings_per_cell),
            boundary_sc_ids=tuple(sorted(boundary_ids)),
            piece_ids=tuple(piece.pid for piece in comp),
            core_chords=tuple(core_chords),
        )
        cylinders.append(cyl)

    all_closed = not unresolved
    if all_closed:
        if failed_components:
            # every separatrix closed, so every leaf is closed or singular
            # and every component must certify; a failure is a bug
            raise InternalInvariantError(
                f"{failed_components} components failed certification in a "
                f"fully resolved direction")
        status = PERIODIC
        total = normalized.area()
        acc = FieldScalar(0, 0, normalized.ctx)
        for cyl in cylinders:
            acc = acc + cyl.area
        if (acc - total).sign() != 0:
            raise InternalInvariantError(
                "cylinder areas do not sum to the surface area")
    elif cylinders:
        status = PARTIAL
    else:
        status = NO_CYLINDER

    cut = _CutData(pieces, sub_lookup, chord_table, chords_by_polygon)
    return Decomposition(surface, frame, direction, g, normalized, status,
                         tuple(cylinders), tuple(saddle_connections),
                         bound_sq, tuple(unresolved), cut)


class _CutData:
    __slots__ = ("pieces", "sub_lookup", "chords", "chords_by_polygon")

    def __init__(self, pieces, sub_lookup, chords, chords_by_polygon):
        self.pieces = pieces
        self.sub_lookup = sub_lookup
        self.chords = chords
        self.chords_by_polygon = chords_by_polygon
