"""Cylinder decompositions in a given direction.

The pipeline: normalize the direction to horizontal with the
rotation-scaling matrix [[vx, vy], [-vy, vx]] (field entries, conformal
up to scale), trace every eastward separatrix germ, cut the polygons
along the saddle connections found, glue the resulting pieces across
non-horizontal sub-edges, and certify each connected component as a
cylinder by one rule: every piece has one sub-edge running down and one
running up, so the component is a cycle of strips, and a saddle
connection was found along every horizontal edge of its boundary.  The
walk around that cycle gives the core, the boundary circles and the
cross curve.  This certification is what makes the Periodic status
rigorous, and it keeps partial decompositions sound: a component that
passes is a complete cylinder of the direction even when other
separatrices exceeded the trace bound.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .errors import InternalInvariantError, StaleCocycle
from .field import (FieldScalar, Mat2, Vec2, _new, _positive, _sign,
                    _sum_is_one)
from .homology import HomologyFrame, homology_frame
from .polygon import (_EAST, _ORIGIN, _WEST, _dot, _norm, _sub, cross_sign,
                      signed_area2)
from .surface import TranslationSurface, component_labels
from .tracing import east_ray_corners, trace_from_corner

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
    """One directed boundary element of a piece (ccw, interior left).

    Its coordinates are built only on request (`_point_coords`)."""

    __slots__ = ("kind", "edge", "t0", "t1", "chord_id", "direction",
                 "start", "end", "piece", "index", "partner")

    def __init__(self, kind, start, end, *, edge=None, t0=None, t1=None,
                 chord_id=None, direction=None):
        self.kind = kind          # "sub" or "chord"
        self.edge = edge
        self.t0 = t0
        self.t1 = t1
        self.chord_id = chord_id
        self.direction = direction
        self.start = start        # PathPoint
        self.end = end
        self.piece = None
        self.index = None
        self.partner = None       # glued _Item or None for boundary items


_Chord = namedtuple("_Chord", "chord_id polygon sc_id start end")


FailedComponent = namedtuple("FailedComponent", "piece_ids reason")


class Decomposition:
    """The result of decompose(); immutable by convention.

    `failed_components` holds a FailedComponent (the piece ids in `cut`
    and the reason) for each component of the cut that did not certify.
    """

    def __init__(self, surface, frame, direction, matrix, normalized, status,
                 cylinders, saddle_connections, bound_sq,
                 unresolved_rays, cut, failed_components):
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
        self._cut = cut
        self.failed_components = failed_components
        self._crossings = None

    @property
    def cut(self):
        """The normalized surface cut along the saddle connections found:
        its pieces, sub-edges per polygon edge, chords and chords per
        polygon, each piece marked with its component.

        `decompose` passes None when no separatrix closed, since nothing
        then needs the cut; it is built here, without chords, on first
        access, with the contents `decompose` would have built.
        """
        if self._cut is None:
            self._cut = _build_cut(self.normalized, [], {})[0]
        return self._cut

    @property
    def crossings(self) -> tuple[tuple[int, ...], ...]:
        """The crossing table: row i holds I_i, the signed count of
        crossings with cylinder i's core, on the frame's basis chains.

        Built on first read, with three integer checks that raise
        InternalInvariantError: each I_i vanishes on every saddle
        connection of the direction, which misses every cylinder
        interior; it vanishes on every core class, the cores being
        disjoint and parallel; and I_i(cross_j) is 1 when i = j and 0
        otherwise, cylinder j's cross curve staying inside it and
        crossing its core once, going up.  That duality makes the I_i
        independent, and a cocycle z lies in their span exactly when
        z = sum_i z(cross_i) I_i.
        """
        if self._crossings is None:
            table = tuple(
                tuple(sum(c * x for c, x in zip(chain, cyl.core_crossings))
                      for chain in self.frame.basis_chains)
                for cyl in self.cylinders)

            def values(coords):
                return [sum(c * x for c, x in zip(row, coords))
                        for row in table]

            for sc in self.saddle_connections if table else ():
                if any(values(self.frame.coords_of_path(sc.chords))):
                    raise InternalInvariantError("twist cocycle nonzero on "
                                                 "a saddle connection")
            for j, cyl in enumerate(self.cylinders):
                if any(values(cyl.core_coords)):
                    raise InternalInvariantError(
                        "twist cocycle nonzero on a core class")
                if values(cyl.cross_coords) != [int(i == j)
                                                for i in range(len(table))]:
                    raise InternalInvariantError(
                        "twist cocycles are not dual to the cross classes")
            self._crossings = table
        return self._crossings

    def check_own(self, surface: TranslationSurface | None = None,
                  frame: HomologyFrame | None = None) -> None:
        """Raise StaleCocycle unless `surface`, when given, is this
        decomposition's own (the same object, or one whose frame has this
        frame's hash) and `frame`, when given, has this frame's hash."""
        if (surface is not None and surface is not self.surface
                and homology_frame(surface).hash != self.frame.hash):
            raise StaleCocycle("surface is not the decomposition's surface")
        if (frame is not None and frame is not self.frame
                and frame.hash != self.frame.hash):
            raise StaleCocycle("frame is not the decomposition's frame")

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

    Lengths are compared through their squares, on the lattice form, so
    the bound stays in the field.  The bound is kept in the surface's
    `_cache` per factor, as `decompose` reads it in every direction; the
    key holds the factor's type, so that a factor equal to another of
    another type, such as 20.0 and 20, fails or passes as it would
    without the memo.
    """
    bound = surface._cache.get(("default_bound_sq", type(factor), factor))
    if bound is not None:
        return bound
    lat = surface.lattice()
    d = lat.d
    best = None
    for edges in lat.edges:
        for e in edges:
            n = _norm(e, d)
            if best is None or _sign(n[0] - best[0], n[1] - best[1], d) > 0:
                best = n
    bound = surface._cache[("default_bound_sq", type(factor), factor)] = \
        _new(*best, lat.D * lat.D, lat.ctx) * (factor * factor)
    return bound


def _lattice_point(lat, p, point):
    """(P, q): PathPoint `point` of polygon p is the lattice point P
    over D*q."""
    if point[0] == "vertex":
        return lat.verts[p][point[1]], 1
    _, e, t = point
    xa, xb, ya, yb = lat.verts[p][e]
    exa, exb, eya, eyb = lat.edges[p][e]
    A, B, q, d = t._A, t._B, t._D, lat.d
    return (xa * q + A * exa + d * B * exb, xb * q + A * exb + B * exa,
            ya * q + A * eya + d * B * eyb, yb * q + A * eyb + B * eya), q


def _point_coords(surface, p, point) -> Vec2:
    lat = surface.lattice()
    return lat.vec2(*_lattice_point(lat, p, point))


def _is_edge_run(surface, chord) -> bool:
    p, start, end = chord
    return (start[0] == end[0] == "vertex"
            and end[1] == (start[1] + 1) % len(surface.lattice().edges[p]))


def _pick_first_cw(back, candidates, d):
    """The candidate direction first met rotating CW from `back`, the
    reversed incoming direction.

    candidates is a list of (direction, payload), directions being
    lattice vectors; a direction along `back` itself (a U-turn) is
    chosen only when it is the sole option.
    """
    def angle_class(v):
        cr = cross_sign(back, v, d)
        if cr == 0:
            if _sign(*_dot(back, v, d), d) > 0:
                return 3  # same ray as back: full turn
            return 1      # opposite: angle pi
        return 0 if cr < 0 else 2

    best = None
    for v, payload in candidates:
        cls = angle_class(v)
        # within a class, v strictly before best going CW; two
        # directions of class 1 or 3 would be one ray, so never tie
        if best is None or cls < best[0] or (
                cls == best[0] and cross_sign(v, best[1], d) < 0):
            best = (cls, v, payload)
    return best[2]


def _build_cut_pieces(surface, chords_by_polygon):
    """Cut each polygon along its chords; return the pieces and, per
    polygon edge (p, e), its sub-edges in order along the edge.

    Pieces are the faces of the chord arrangement, walked with interior
    on the left, so their boundary item lists run counterclockwise.  The
    surface is normalized, so a sub-edge points along its lattice edge
    and a chord east (west when reversed): each turn of the walk is a
    few sign tests on those lattice vectors.
    """
    lat = surface.lattice()
    d = lat.d
    zero = _new(0, 0, 1, surface.ctx)
    one = _new(1, 0, 1, surface.ctx)
    pieces = []
    subs = {}

    for p, edges in enumerate(lat.edges):
        n = len(edges)
        chords = chords_by_polygon.get(p, [])
        split = [set() for _ in range(n)]
        for ch in chords:
            for pt in (ch.start, ch.end):
                if pt[0] == "edge":
                    split[pt[1]].add(pt[2])
        # directed edges of the arrangement, with their reversed direction
        directed = []
        outgoing = {}   # PathPoint -> list[(direction, idx)]

        def add_directed(item, direction, back):
            outgoing.setdefault(item.start, []).append((direction, len(directed)))
            directed.append((item, back))

        for e in range(n):
            params = sorted(split[e])  # exact field order
            pts = ([("vertex", e)] + [("edge", e, t) for t in params]
                   + [("vertex", (e + 1) % n)])
            bounds = [zero] + params + [one]
            back = _sub(_ORIGIN, edges[e])
            subs[(p, e)] = items = [
                _Item("sub", pts[k], pts[k + 1], edge=e, t0=bounds[k],
                      t1=bounds[k + 1]) for k in range(len(pts) - 1)]
            for item in items:
                add_directed(item, edges[e], back)
        for ch in chords:
            add_directed(_Item("chord", ch.start, ch.end, chord_id=ch.chord_id,
                               direction=1), _EAST, _WEST)
            add_directed(_Item("chord", ch.end, ch.start, chord_id=ch.chord_id,
                               direction=-1), _WEST, _EAST)

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
                cur, back = directed[idx]
                cands = outgoing.get(cur.end, [])
                if not cands:
                    raise InternalInvariantError(
                        f"face walk stuck at {cur.end} in polygon {p}")
                nxt = _pick_first_cw(back, cands, d)
                if nxt == start_idx:
                    break
                if used[nxt]:
                    raise InternalInvariantError(
                        f"face walk revisited an edge in polygon {p}")
                idx = nxt
            piece = _Piece(len(pieces), p, [directed[i][0] for i in loop])
            for pos, item in enumerate(piece.items):
                item.piece = piece
                item.index = pos
            pieces.append(piece)

    return pieces, subs


def _mates(surface, subs, p, e):
    """Each sub-edge of edge e of polygon p with the one glued to it.

    Glued edges run opposite ways, so the sub-edge at [t0, t1] meets the
    one at [1 - t1, 1 - t0] of the partner edge, in reverse order.
    """
    items = subs[(p, e)]
    mates = subs[surface.gluing[(p, e)]][::-1]
    if len(items) != len(mates) or not all(
            _sum_is_one(item.t0, mate.t1) and _sum_is_one(item.t1, mate.t0)
            for item, mate in zip(items, mates)):
        raise InternalInvariantError(
            f"sub-edge split mismatch across gluing {(p, e)}")
    return zip(items, mates)


def _glue_items(surface, subs):
    """Glue sub-edge items across non-horizontal cells; mark the rest
    as boundary (cuts)."""
    edges = surface.lattice().edges
    for p, e in subs:
        if edges[p][e][2:] != (0, 0) and subs[(p, e)][0].partner is None:
            for item, mate in _mates(surface, subs, p, e):
                item.partner, mate.partner = mate, item


def _components(pieces):
    """The pieces grouped by component, each marked with its least pid;
    pieces meet across glued items."""
    labels = component_labels(len(pieces), lambda pid: (
        item.partner.piece.pid for item in pieces[pid].items
        if item.partner is not None))
    comps = {}
    for piece, root in zip(pieces, labels):
        piece.component = root
        comps.setdefault(root, []).append(piece)
    return list(comps.values())


def _corner_points(lat, comp_pieces):
    """(corners, Q): every piece's corners as lattice points over D*Q,
    one Q for the component; corner k of a piece starts its item k."""
    raw = {piece.pid: [_lattice_point(lat, piece.polygon, item.start)
                       for item in piece.items] for piece in comp_pieces}
    Q = lcm(*(q for pts in raw.values() for _, q in pts))
    return {pid: [P if q == Q else tuple(x * (Q // q) for x in P)
                  for P, q in pts] for pid, pts in raw.items()}, Q


class _ComponentCheck:
    """The verdict on one component of the cut, with its reason when it
    fails.  A certified component keeps its walk, its boundary circles
    as (pid, k) items, its circumference and area, and, for the cross
    curve, its corners over D*Q (`_corner_points`)."""

    __slots__ = ("ok", "reason", "walk", "bottom", "top", "circumference",
                 "area", "pieces", "corners")

    def __init__(self, ok, reason="", **fields):
        self.ok = ok
        self.reason = reason
        for name in self.__slots__[2:]:
            setattr(self, name, fields.get(name))


def _between(piece, a, b):
    """(pid, k) of the items of `piece` after item a and before item b,
    counterclockwise."""
    n = len(piece.items)
    stop = b.index if b.index > a.index else b.index + n
    return [(piece.pid, k % n) for k in range(a.index + 1, stop)]


def _check_component(surface, comp_pieces, edge_runs):
    """Certify one component of the cut surface as a cylinder.

    Pieces are glued only across non-horizontal sub-edges, so chords and
    horizontal sub-edges are its boundary.  The component is a cylinder
    exactly when each piece has one sub-edge running down, its entry,
    and one running up, its exit (README, "A cylinder is a cycle of
    strips").  Each piece is then a strip whose other items run east
    along its bottom and west along its top, and following each exit to
    the piece glued across it visits every piece once.  That walk lists
    the pieces in the order the core leaf crosses them, as
    (piece, entry, exit).  The items from each entry to its exit make
    the bottom circle, started at its first item in piece order and then
    item order; those from each exit to its entry make the top circle.

    `edge_runs` maps each horizontal polygon edge whose run closed as a
    saddle connection, named by either of its glued sides, to that
    connection's id.  A component bounded by an edge whose run the
    bound stopped is not certified: its certificate could not list that
    boundary connection.
    """
    lat = surface.lattice()
    d = lat.d
    ends = {}
    for piece in comp_pieces:
        down, up = [], []
        for item in piece.items:
            if item.kind == "sub":
                rise = _sign(*lat.edges[piece.polygon][item.edge][2:], d)
                if rise < 0:
                    down.append(item)
                elif rise > 0:
                    up.append(item)
        if len(down) != 1 or len(up) != 1:
            return _ComponentCheck(
                False, f"piece {piece.pid} has {len(down)} entries and "
                       f"{len(up)} exits")
        ends[piece.pid] = down[0], up[0]
    for piece in comp_pieces:
        for item in piece.items:
            if (item.partner is None and item.kind == "sub"
                    and (piece.polygon, item.edge) not in edge_runs):
                return _ComponentCheck(False,
                                       "boundary edge run beyond the bound")

    walk, bottom, top = [], [], []
    first = piece = comp_pieces[0]
    while True:
        entry, exit_ = ends.pop(piece.pid)
        walk.append((piece, entry, exit_))
        bottom += _between(piece, entry, exit_)
        top += _between(piece, exit_, entry)
        piece = exit_.partner.piece
        if piece is first:
            break
        if piece.pid not in ends:
            raise InternalInvariantError("walk revisited a piece")
    if ends:
        raise InternalInvariantError(
            f"walk missed {len(ends)} pieces of the component")

    # lengths and areas as pairs over D*Q
    corners, Q = _corner_points(lat, comp_pieces)
    A = B = 0
    for pid, k in bottom:
        pts = corners[pid]
        (xa, xb, _, _), (ua, ub, _, _) = pts[k], pts[(k + 1) % len(pts)]
        A += ua - xa
        B += ub - xb
    length = A, B
    A = B = 0
    for pts in corners.values():
        a, b = signed_area2(pts, d)
        A += a
        B += b
    DQ = lat.D * Q
    check = _ComponentCheck(True, walk=walk, top=top,
                            circumference=_new(*length, DQ, lat.ctx),
                            area=_new(A, B, 2 * DQ * DQ, lat.ctx),
                            pieces=comp_pieces, corners=corners)
    if _offsets(check, walk)[1] != tuple(2 * x for x in length):
        raise InternalInvariantError("core leaf does not close up")
    i = bottom.index(min(bottom))
    check.bottom = bottom[i:] + bottom[:i]
    return check


def _offsets(check, walk):
    """(offsets, lap) of a core walk, as pairs over D*Q.

    Laid out along the walk, the pieces tile the developed cylinder: a
    point at x in a piece's polygon frame lies at (2x + the piece's
    offset) / 2 in the frame of the walk's first piece.  lap is twice
    the x-run of one lap of the walk, the circumference.
    """
    corners = check.corners

    def mid2(piece, item):
        # twice the x-coordinate of the item's midpoint
        pts = corners[piece.pid]
        a, b = pts[item.index], pts[(item.index + 1) % len(pts)]
        return a[0] + b[0], a[1] + b[1]

    off = {}
    x = (0, 0)
    for (piece, _, exit_), (after, entry, _) in zip(walk, walk[1:] + walk[:1]):
        off[piece.pid] = x
        e, f = mid2(piece, exit_), mid2(after, entry)
        x = x[0] + e[0] - f[0], x[1] + e[1] - f[1]
    return off, x


def _cross_from_pieces(surface, check, core_chords):
    """The cross curve of a certified component, read from its pieces.

    It runs from z0, the start of the first item of the bottom circle
    at a polygon vertex, to z1, the first polygon vertex on the top
    circle at or east of the point straight above z0.  Inside the closed
    cylinder a path from z0 to z1 is fixed up to homotopy by its x-run,
    and this one's is the offset of z1 from z0, in [0, c) for c the
    circumference.  The path built here runs from z0 to the exit of its
    piece, along the core's chords (one per piece of the walk), and from
    the entry of z1's piece to z1.  Returns its chords and the number of
    core laps to add to its class so that its x-run lands in [0, c).
    """
    d = surface.lattice().d
    corners, walk = check.corners, check.walk
    pieces = {piece.pid: piece for piece in check.pieces}
    z0 = next(((pid, k) for pid, k in check.bottom
               if pieces[pid].items[k].start[0] == "vertex"), None)
    if z0 is None:
        raise InternalInvariantError("bottom circle has no vertex")
    i = next(i for i, step in enumerate(walk) if step[0].pid == z0[0])
    walk, core = walk[i:] + walk[:i], core_chords[i:] + core_chords[:i]
    off, lap = _offsets(check, walk)
    x0 = corners[z0[0]][z0[1]]
    best = None
    for pid, k in check.top:
        if pieces[pid].items[k].start[0] != "vertex":
            continue
        x1, o = corners[pid][k], off[pid]
        run = 2 * (x1[0] - x0[0]) + o[0], 2 * (x1[1] - x0[1]) + o[1]
        laps = _laps(run, lap, d)
        shifted = run[0] + laps * lap[0], run[1] + laps * lap[1]
        if best is None or _sign(shifted[0] - best[0][0],
                                 shifted[1] - best[0][1], d) < 0:
            best = shifted, laps, (pid, k)
    if best is None:
        raise InternalInvariantError("top circle has no vertex")
    _, laps, (pid, k) = best
    j = next(j for j, step in enumerate(walk) if step[0].pid == pid)
    start, end = pieces[z0[0]].items[z0[1]].start, pieces[pid].items[k].start
    if j == 0:
        return [(core[0][0], start, end)], laps
    return ([(core[0][0], start, core[0][2])] + core[1:j]
            + [(core[j][0], core[j][1], end)]), laps


def _laps(run, lap, d) -> int:
    """The k with 0 <= run + k*lap < lap, for pairs of Z[sqrt d] and
    lap > 0."""
    k = 0
    while _sign(run[0] + k * lap[0], run[1] + k * lap[1], d) < 0:
        k += 1
    while _sign(run[0] + (k - 1) * lap[0], run[1] + (k - 1) * lap[1], d) >= 0:
        k -= 1
    return k


def _midpoint(item):
    return ("edge", item.edge, (item.t0 + item.t1) / 2)


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


def _connection(normalized, res, east, class_of, corner, sc_id):
    """The SaddleConnection of a trace `res` from `corner` of a normalized
    surface that ended at a vertex.

    `east` is v / |v|^2 for the direction vector v, which the
    normalizing map sends to (1, 0), so a connection advancing by a has
    holonomy a * east on the surface; `class_of` is the surface's
    `vertex_class_map`.
    """
    return SaddleConnection(
        sc_id=sc_id,
        holonomy=east.scale(res.advance),
        normalized_holonomy=Vec2(res.advance,
                                 FieldScalar(0, 0, normalized.ctx)),
        start_corner=corner,
        end_corner=res.end_corner,
        start_class=class_of[corner],
        end_class=class_of[res.end_corner],
        chords=list(res.chords),
        crossings=list(res.crossings),
        is_edge_run=(len(res.chords) == 1
                     and _is_edge_run(normalized, res.chords[0])),
    )


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

    A certified cylinder lists every saddle connection of its boundary,
    so one bounded by a polygon edge whose run the bound stopped is not
    certified.  Hence when no separatrix closes within the bound the
    status is NoCylinderFound without cutting the surface: the returned
    decomposition builds its `cut` only when it is read.  Each component
    of a cut that fails certification is kept, with its reason, in
    `failed_components`.

    A `frame` that is neither the surface's own (`homology_frame`) nor
    one with its hash raises StaleCocycle.
    """
    _positive("trace_factor", trace_factor)
    if trace_length is not None:
        trace_length = _positive("trace_length", trace_length)
    own = homology_frame(surface)
    if frame is None:
        frame = own
    elif frame is not own and frame.hash != own.hash:
        raise StaleCocycle("frame is not the surface's frame")
    direction, g, normalized = _normalize(surface, direction)
    v = direction.vector

    if trace_length is None:
        bound_sq = default_bound_sq(surface, trace_factor)
    else:
        bound_sq = trace_length * trace_length
    # advance on the normalized surface is x-progress = |v| * length on M
    n = v.norm_sq()
    max_advance_sq = bound_sq * n

    saddle_connections = []
    unresolved = []
    # built when the first ray closes: a direction in which none does
    # needs neither
    east = class_of = None
    for corner in east_ray_corners(normalized):
        res = trace_from_corner(normalized, corner,
                                max_advance_sq=max_advance_sq)
        if res.kind == "bound":
            unresolved.append(corner)
            continue
        if east is None:
            east = v.scale(n.inverse())
            class_of = normalized.vertex_class_map()
        saddle_connections.append(_connection(
            normalized, res, east, class_of, corner, len(saddle_connections)))
    edge_run_sc = _edge_runs(normalized, saddle_connections)

    # collect interior cut chords per polygon
    chords_by_polygon: dict[int, list] = {}
    chord_table = []
    for sc in saddle_connections:
        if sc.is_edge_run:
            continue
        for p, start, end in sc.chords:
            ch = _Chord(len(chord_table), p, sc.sc_id, start, end)
            chord_table.append(ch)
            chords_by_polygon.setdefault(p, []).append(ch)

    # with no saddle connection no component certifies: every boundary
    # item of the cut is a horizontal edge whose run found no connection.
    # Skip the cut, and let the Decomposition build it if asked.
    cut, components = None, []
    if saddle_connections:
        cut, components = _build_cut(normalized, chord_table,
                                     chords_by_polygon)

    cylinders = []
    failed = []
    for comp in components:
        check = _check_component(normalized, comp, edge_run_sc)
        if not check.ok:
            failed.append(FailedComponent(tuple(piece.pid for piece in comp),
                                          check.reason))
            continue
        c = check.circumference
        h = check.area / c
        core_chords = [(piece.polygon, _midpoint(entry), _midpoint(exit_))
                       for piece, entry, exit_ in check.walk]
        core_coords = frame.coords_of_path(core_chords)
        cross_chords, laps = _cross_from_pieces(normalized, check,
                                                core_chords)
        cross_coords = [x + laps * y for x, y in
                        zip(frame.coords_of_path(cross_chords), core_coords)]
        nv = len(frame.boundary_matrix[0]) if frame.boundary_matrix else 0
        bnd = [0] * nv
        for k, coeff in enumerate(core_coords):
            if coeff:
                for j, b in enumerate(frame.boundary_matrix[k]):
                    bnd[j] += coeff * b
        if any(x != 0 for x in bnd):
            raise InternalInvariantError("core class is not absolute")
        crossings_per_cell = [0] * len(frame.cells)
        lat = normalized.lattice()
        for p, _start, (_, e, _t) in core_chords:
            cidx, _side = frame.cell_of[(p, e)]
            rp, re = frame.cells[cidx]
            # crossing sign: + when the cell crosses the core going up,
            # measured on the normalized surface
            crossings_per_cell[cidx] += _sign(*lat.edges[rp][re][2:], lat.d)
        boundary_ids = set()
        for pid, k in check.bottom + check.top:
            item = cut.pieces[pid].items[k]
            if item.kind == "chord":
                boundary_ids.add(chord_table[item.chord_id].sc_id)
            else:
                boundary_ids.add(edge_run_sc[(cut.pieces[pid].polygon,
                                              item.edge)])
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

    if not unresolved:
        if failed:
            # every separatrix closed, so every leaf is closed or singular
            # and every component must certify; a failure is a bug
            raise InternalInvariantError(
                "components failed certification in a fully resolved "
                "direction: " + "; ".join(f"pieces {list(f.piece_ids)}: "
                                          f"{f.reason}" for f in failed))
        status = PERIODIC
        acc = sum((cyl.area for cyl in cylinders),
                  FieldScalar(0, 0, normalized.ctx))
        if (acc - normalized.area()).sign() != 0:
            raise InternalInvariantError(
                "cylinder areas do not sum to the surface area")
    elif cylinders:
        status = PARTIAL
    else:
        status = NO_CYLINDER

    return Decomposition(surface, frame, direction, g, normalized, status,
                         tuple(cylinders), tuple(saddle_connections),
                         bound_sq, tuple(unresolved), cut, tuple(failed))


def _edge_runs(normalized, saddle_connections):
    """{(polygon, edge): sc_id} for each horizontal edge whose run is a
    saddle connection, under both of its glued sides."""
    runs = {}
    for sc in saddle_connections:
        if sc.is_edge_run:
            p0, start, _end = sc.chords[0]
            runs[(p0, start[1])] = sc.sc_id
            runs[normalized.gluing[(p0, start[1])]] = sc.sc_id
    return runs


_CutData = namedtuple("_CutData", "pieces subs chords chords_by_polygon")


def _build_cut(normalized, chord_table, chords_by_polygon):
    """(cut, components): the normalized surface cut along the chords,
    its pieces glued across non-horizontal sub-edges and each marked
    with its component, and the components' piece lists."""
    pieces, subs = _build_cut_pieces(normalized, chords_by_polygon)
    _glue_items(normalized, subs)
    components = _components(pieces)
    return _CutData(pieces, subs, chord_table, chords_by_polygon), components
