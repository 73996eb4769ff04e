"""Exact straight-line tracing through glued polygons, on the lattice form.

All tracing here happens on a direction-normalized surface, and only
east: the separatrices of the horizontal foliation.  Positions carry
exact coordinates in the current polygon's frame together with the
boundary parameterization needed for homology bookkeeping.

A ray walks through the family's ear-clip triangles
(`search.triangulated`, shared by every image of positive determinant,
so one set serves all of a surface's directions).  It keeps its height
H and enters each triangle strictly inside a side, so only the opposite
vertex can lie at height H: one sign ends the ray there or names the
side it leaves by; a diagonal leads to the next triangle of the polygon
and a polygon edge is a crossing.  A straight run meets each triangle
of a polygon at most once, so a walk that visits more raises
InternalInvariantError.  A ray from a corner starts in the triangle of
the corner's fan whose sector holds east (`polygon.corner_crosses_east`,
the rule that picks the corners).  An edge's exit line and gluing
translation are built the first time a ray leaves through it.

The arithmetic runs on the surface's `polygon.Lattice`: a coordinate
is a pair (A, B) of integers meaning (A + B*sqrt(d))/D.  Gluing
translations are lattice vectors, so a ray keeps its height on the
lattice from polygon to polygon, and so does `base`, its start's
x-coordinate plus the x-parts of the translations it has crossed: the
advance to a point of x-coordinate x in the current polygon's frame is
x - base, and an exit lies at x = (C + H*M)/R of lattice pairs, R > 0.
An interior point need not be a lattice point, so `trace_from_point`
re-expresses the lattice over a multiple of D and in a field that hold
it (`polygon.Lattice.over`), on a `_Shell` of the surface, and finds
its first exit by one scan of its polygon's edges (`_first_exit`).

Every trace has a bound, tested by `polygon._Bound`, one
cross-multiplied sign, in the field of the lattice and the bound
(`field.join_ctx`), decided before the first step: a bound over
another irrational field raises ValueError whichever way the ray runs.
`FieldScalar`s are built only for what a trace returns: its advance
and, on first access, its chords' and crossings' edge parameters.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from .errors import InternalInvariantError
from .field import FieldScalar, Vec2, _new, _sign, join_ctx
from .polygon import _Bound, _mul, _sub, corner_crosses_east
from .search import triangulated
from .surface import TranslationSurface

__all__ = ["TraceResult", "trace_from_corner", "east_ray_corners"]


class TraceResult:
    """Outcome of a straight-line trace.

    kind is "vertex" (hit a cone/marked point) or "bound" (advance
    budget exhausted mid-flight).  chords is the list of polygon runs
    (polygon, start PathPoint, end PathPoint); crossings records every
    glued-edge transition as (polygon, edge, parameter s on the edge).

    The trace keeps its lattice steps, (polygon, crossed edge, height
    over D) per crossing, and chords and crossings are `_Built` views of
    them: their lengths are known at once, and their PathPoints, with
    `FieldScalar` edge parameters, are built on first access, once.  The
    first chord starts at `key`, a corner's ("vertex", i), or None for
    an interior start.  A view is made per read, so that the result and
    its views form no reference cycle, which would outlive the trace
    until the garbage collector ran.
    """

    __slots__ = ("kind", "advance", "end_corner", "_surface", "_d", "_key",
                 "_steps", "_built")

    def __init__(self, kind, advance, surface, d, key, steps,
                 end_corner=None):
        self.kind = kind
        self.advance = advance
        self.end_corner = end_corner
        self._surface = surface
        self._d = d
        self._key = key
        self._steps = steps
        self._built = None

    @property
    def chords(self):
        return _Built(self, 0,
                      len(self._steps) + (self.end_corner is not None))

    @property
    def crossings(self):
        return _Built(self, 1, len(self._steps))

    def _build(self):
        """(chords, crossings)."""
        if self._built is None:
            surface, d = self._surface, self._d
            lat = surface.lattice()
            ctx = lat.ctx
            one = _new(1, 0, 1, ctx)
            chords, crossings = [], []
            point = self._key
            for p, e, (HA, HB) in self._steps:
                # the edge's parameter at height H: (H - h0) / rise
                _, _, h0A, h0B = lat.verts[p][e]
                s = _quotient((HA - h0A, HB - h0B), lat.edges[p][e][2:], 1,
                              d, ctx)
                chords.append((p, point, ("edge", e, s)))
                crossings.append((p, e, s))
                point = ("edge", surface.gluing[(p, e)][1], one - s)
            if self.end_corner is not None:
                q, v = self.end_corner
                chords.append((q, point, ("vertex", v)))
            self._built = chords, crossings
        return self._built


class _Built(Sequence):
    """One list of a `TraceResult`: its length is known at once, its
    items are built on first access."""

    __slots__ = ("_result", "_index", "_n")

    def __init__(self, result, index, n):
        self._result = result
        self._index = index
        self._n = n

    def _items(self):
        return self._result._build()[self._index]

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        return self._items()[i]

    def __iter__(self):
        return iter(self._items())


class _Shell:
    """A surface's gluing and family triangles on another lattice form
    of its polygons, with a cache of its own: what `_trace` reads of a
    surface."""

    __slots__ = ("gluing", "_family", "_lattice", "_cache")

    def __init__(self, surface, lattice):
        self.gluing = surface.gluing
        self._family = surface._family
        self._lattice = lattice
        self._cache = {}

    def lattice(self):
        return self._lattice


def east_ray_corners(surface: TranslationSurface):
    """All corners whose half-open sector [out, rev-in) contains (1, 0).

    Each eastward separatrix germ of the horizontal foliation appears at
    exactly one corner, so these are the rays to trace for a horizontal
    decomposition.  Each corner is decided by the rises of its two
    edges and at most one cross sign (`polygon.corner_crosses_east`).
    The list is cached on the surface: callers read it and must not
    change it.
    """
    corners = surface._cache.get("east")
    if corners is None:
        lat = surface.lattice()
        corners = surface._cache["east"] = [
            (p, i) for p, edges in enumerate(lat.edges)
            for i in range(len(edges))
            if corner_crosses_east(*lat.corner_rays((p, i)), lat.d,
                                   closed="start")]
    return corners


def _quotient(N, R, scale, d, ctx) -> FieldScalar:
    """The scalar N / (R * scale) of pairs N, R != 0 and an integer scale."""
    RA, RB = R
    if not RB:
        return _new(N[0], N[1], RA * scale, ctx)
    NA, NB = N
    return _new(NA * RA - d * NB * RB, NB * RA - NA * RB,
                (RA * RA - d * RB * RB) * scale, ctx)


def _exit_line(start, vec, d):
    """(C, M, R) of the edge from lattice point `start` along `vec`, in
    pairs over D: a ray at height H meets its line at x = (C + H*M)/R,
    with R > 0."""
    M, R = vec[:2], vec[2:]
    adh, hda = _mul(start[:2], R, d), _mul(start[2:], M, d)
    C = adh[0] - hda[0], adh[1] - hda[1]
    if _sign(*R, d) < 0:
        return (-C[0], -C[1]), (-M[0], -M[1]), (-R[0], -R[1])
    return C, M, R


def _edge_exit(surface, exits, p, e):
    """The exit through polygon edge (p, e), kept in the surface's
    `_cache["exits"]` from the first time a ray leaves through it:
    (C, M, R, R*R, q, f, dh, da), the edge's `_exit_line`, its partner
    (q, f), and the translation taking a point of e to the same point of
    f, which runs the other way: end(f) - start(e)."""
    lat = surface.lattice()
    start = lat.verts[p][e]
    C, M, R = _exit_line(start, lat.edges[p][e], lat.d)
    q, f = surface.gluing[(p, e)]
    g = _sub(lat.verts[q][(f + 1) % len(lat.verts[q])], start)
    exits[p][e] = entry = (C, M, R, _mul(R, R, lat.d), q, f, g[2:], g[:2])
    return entry


def _cmp(X, Y, P, Q, d) -> int:
    """The sign of X/Y - P/Q, for pairs with Y, Q > 0, cross-multiplied."""
    XQ, PY = _mul(X, Q, d), _mul(P, Y, d)
    return _sign(XQ[0] - PY[0], XQ[1] - PY[1], d)


def _first_exit(lat, p, H, ref, d):
    """The first exit of polygon p of the lattice form `lat` strictly
    ahead of the point at height H and x-coordinate P/Q, ref = (P, Q)
    pairs over D with Q > 0: a vertex (v, None), an edge (None, e), or
    None when nothing is ahead.

    The candidates are, in edge order, each end at height H of a
    non-horizontal edge and each edge crossing H inside.  The nearest
    wins; at one point, a vertex found first stays and an edge gives
    way to a later candidate."""
    verts, edges = lat.verts[p], lat.edges[p]
    best = None
    for e, vec in enumerate(edges):
        if not (vec[2] or vec[3]):
            continue  # horizontal
        f = (e + 1) % len(edges)
        s0 = _sign(verts[e][2] - H[0], verts[e][3] - H[1], d)
        s1 = _sign(verts[f][2] - H[0], verts[f][3] - H[1], d)
        if not (s0 and s1):
            found = e if not s0 else f, None
            at = verts[found[0]][:2], (1, 0)
        elif s0 != s1:
            C, M, R = _exit_line(verts[e], vec, d)
            hM = _mul(H, M, d)
            found, at = (None, e), ((C[0] + hM[0], C[1] + hM[1]), R)
        else:
            continue
        if _cmp(*at, *ref, d) <= 0:
            continue  # not ahead
        c = 1 if best is None else _cmp(*best_at, *at, d)
        if c > 0 or c == 0 and best[0] is None:
            best, best_at = found, at
    return best


def trace_from_corner(surface: TranslationSurface, corner,
                      max_advance_sq: FieldScalar):
    """Trace the leaf leaving `corner` east.

    The advance of the trace is the plain x-progress.  Stops at the
    first vertex hit, or returns kind "bound" once the squared advance
    would exceed max_advance_sq.  A corner that east does not leave, one
    not in `east_ray_corners`, raises ValueError.
    """
    p, i = corner
    if (p, i) not in east_ray_corners(surface):
        raise ValueError(f"direction Vec2(1, 0) does not leave corner {corner}")
    pt = surface.lattice().verts[p][i]
    return _trace(surface, p, pt[2:], pt[:2], ("vertex", i),
                  max_advance_sq)


def trace_from_point(surface: TranslationSurface, p: int, origin: Vec2,
                     max_advance_sq: FieldScalar):
    """Trace the leaf through an interior point of polygon p east, on
    the surface's lattice re-expressed over a denominator and in a
    field that hold the point."""
    ctx = join_ctx(surface.ctx, origin.x, origin.y)
    lat = surface.lattice()
    lat = lat.over(lcm(lat.D, origin.x._D, origin.y._D), ctx)
    pt = lat.point(origin)
    return _trace(_Shell(surface, lat), p, pt[2:], pt[:2], None,
                  max_advance_sq)


def _trace(surface, p, H, base, key, max_advance_sq):
    """Trace east from the point at height H and x-coordinate `base`
    (pairs over D) of polygon p of the surface's lattice, standing on
    `key` (a corner's ("vertex", i)) or inside the polygon (None).

    The ray walks through the family's triangles to a polygon edge,
    which it crosses, or to a vertex, where it ends.  A start inside a
    polygon finds its next stop by `_first_exit`, for as long as it
    stands outside the polygon it is in.  The returned scalars live in
    the lattice's field; the arithmetic runs in the field of the
    lattice and the bound, decided here once, before any step.
    """
    lat = surface.lattice()
    D, ctx = lat.D, lat.ctx
    bound = _Bound(lat, max_advance_sq)
    d = bound.d
    tri = triangulated(surface)
    triangles, links = tri.triangles, tri.links
    exits = surface._cache.get("exits")
    if exits is None:
        exits = surface._cache["exits"] = [[None] * len(v) for v in lat.verts]
    verts = lat.verts[p]
    # the triangles of polygon p the walk may still enter
    left = len(verts) - 3
    steps = []
    prev = None  # the advance so far, as (N, R): N / (R * D)
    t = None  # the triangle the ray is in, entered through its side k
    if key is None:
        ref = base, (1, 0)  # the x-coordinate P / Q the ray stands at
    else:
        # the triangle of the corner's fan whose sector [out, rev-in)
        # holds east, turning from the corner's outgoing edge
        i = key[1]
        t, k = divmod(tri.sides[p][i], 3)
        while True:
            ends = triangles[t][1]
            out = _sub(verts[ends[(k + 1) % 3]], verts[i])
            rev_in = _sub(verts[ends[(k + 2) % 3]], verts[i])
            if corner_crosses_east(out, rev_in, d, closed="start"):
                break
            lk, j = links[t], 3 * ((k + 2) % 3)
            if lk[j + 2] >= 0:
                raise InternalInvariantError(
                    f"east leaves no triangle at corner {(p, i)}")
            t, k = lk[j], lk[j + 1]
        # as if entered by the side that ends at the corner: the ray runs
        # along the other side to its far end, or out by the opposite one
        k = (k + 2) % 3
    HA, HB = H
    bA, bB = base
    while True:
        # the next stop: a vertex v, where the ray ends, or an edge e
        if t is None:
            found = _first_exit(lat, p, (HA, HB), ref, d)
            if found is None:
                x = _new(bA, bB, D, ctx)
                if prev is not None:
                    x = x + _quotient(*prev, D, d, ctx)
                raise InternalInvariantError(
                    f"ray from {Vec2(x, _new(HA, HB, D, ctx))} in polygon "
                    f"{p} escaped the boundary")
            v, e = found
        else:
            # in triangle t, entered through side k strictly between its
            # ends' heights: only the opposite vertex can lie at height
            # H, and above or below it names the side out
            while True:
                v = triangles[t][1][(k + 2) % 3]
                apex = verts[v]
                s = _sign(apex[2] - HA, apex[3] - HB, d)
                if not s:
                    break
                lk = links[t]
                j = 3 * ((k + 1) % 3 if s > 0 else (k + 2) % 3)
                t, k = lk[j], lk[j + 1]
                if lk[j + 2] >= 0:
                    v, e = None, lk[j + 2]
                    break
                if not left:
                    raise InternalInvariantError(
                        f"the walk visited more triangles of polygon {p} "
                        f"than it has")
                left -= 1
        if v is not None:
            NA, NB = verts[v][0] - bA, verts[v][1] - bB
            if not bound.within((NA * NA + d * NB * NB, 2 * NA * NB)):
                break
            return TraceResult("vertex", _new(NA, NB, D, ctx), surface, d,
                               key, steps, end_corner=(p, v))
        (CA, CB), (MA, MB), (RA, RB), R2, q, f, (gA, gB), (tA, tB) = \
            exits[p][e] or _edge_exit(surface, exits, p, e)
        # the advance to the exit is N / (R * D)
        NA = CA + HA * MA + d * HB * MB - bA * RA - d * bB * RB
        NB = CB + HA * MB + HB * MA - bA * RB - bB * RA
        if not bound.within((NA * NA + d * NB * NB, 2 * NA * NB), R2):
            break
        steps.append((p, e, (HA, HB)))
        HA, HB = HA + gA, HB + gB
        bA, bB = bA + tA, bB + tB
        prev = (NA, NB), (RA, RB)
        if t is None:
            if _sign(*lat.edges[p][e][2:], d) > 0:
                # left p upwards, so it enters q: on to the walk
                t, k = divmod(tri.sides[q][f], 3)
            else:
                # the point stood outside p, and stands outside q
                bR = _mul((bA, bB), (RA, RB), d)
                ref = (bR[0] + NA, bR[1] + NB), (RA, RB)
        p, verts, left = q, lat.verts[q], len(lat.verts[q]) - 3
    return TraceResult("bound", _new(0, 0, 1, ctx) if prev is None
                       else _quotient(*prev, D, d, ctx),
                       surface, d, key, steps)
