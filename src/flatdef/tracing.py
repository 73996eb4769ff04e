"""Exact straight-line tracing through glued polygons, on the lattice form.

All tracing here runs east, along the separatrices of the horizontal
foliation: of a surface, or of a `_Shell`, the view of a surface's
lattice form under a matrix of positive determinant that `decompose`
traces a direction on (`cylinders._normalize`).  A view holds what a
trace reads of a surface (its lattice form, gluing and family) and a
`_cache` of its own.  Positions carry exact coordinates in the current
polygon's frame together with the boundary parameterization needed for
homology bookkeeping.

A ray walks through the family's ear-clip triangles
(`search.triangulated`, shared by every image of positive determinant,
so one set serves all of a surface's directions).  It keeps its height
H and enters each triangle strictly inside a side, so only the opposite
vertex can lie at height H: one sign ends the ray there or names the
side it leaves by; a diagonal leads to the next triangle of the polygon
and a polygon edge is a crossing.  The walk reads this from a flat
table of states (`Triangulated.walk`): per triangle one list index, one
height difference and one sign, taken inline.  A straight run meets
each triangle of a polygon at most once, so a walk that visits more
raises InternalInvariantError.  A ray from a corner starts in the
triangle of the corner's fan whose sector holds east, the rule that
picks the corners (`polygon.corner_crosses_east`), read on a triangle's
sector as two heights.  A crossing reads one flat row of the image's
`_cache["exits"]`, built the first time a ray crosses that edge: the
edge's exit line, the bound's side of the test there, and the gluing
translation.

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
At a crossing the sign is taken inline on the row's side of the test,
`_Bound.scaled`, so the rows serve the bound they were built for.
`FieldScalar`s are built only for what a trace returns, each on first
access: its advance and its chords' and crossings' edge parameters.
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

    The trace keeps its lattice steps, (polygon, crossed edge, HA, HB)
    per crossing, with the height H = (HA, HB) over D, and chords and
    crossings are `_Built` views of them: their lengths are known at
    once, and their PathPoints, with `FieldScalar` edge parameters, are
    built on first access, once.  The first chord starts at `key`, a
    corner's ("vertex", i), or None for an interior start.  A `_Built`
    is made per read, so that the result and its lists form no
    reference cycle, which would outlive the trace until the garbage
    collector ran.  The advance is kept as (N, R, scale), N / (R * scale)
    of pairs and an integer (`_quotient`), until it is first read.
    """

    __slots__ = ("kind", "_advance", "end_corner", "_surface", "_d", "_key",
                 "_steps", "_built")

    def __init__(self, kind, advance, surface, d, key, steps,
                 end_corner=None):
        self.kind = kind
        self._advance = advance
        self.end_corner = end_corner
        self._surface = surface
        self._d = d
        self._key = key
        self._steps = steps
        self._built = None

    @property
    def advance(self) -> FieldScalar:
        """The plain x-progress of the trace, in the lattice's field."""
        if self._advance.__class__ is tuple:
            self._advance = _quotient(*self._advance, self._d,
                                      self._surface.lattice().ctx)
        return self._advance

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
            for p, e, HA, HB in self._steps:
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
    """A surface's gluing and family on another lattice form of its
    polygons, with a cache of its own: what `_trace`, the cut and the
    certification read of a surface.

    The form is the surface's re-expressed over a finer denominator
    (`trace_from_point`) or its image under a matrix of positive
    determinant, which keeps the gluing and the family (`decompose`,
    README, "An image shares its source's family").  The view's
    `_cache` holds what is read from its own coordinates: east corners
    and exit rows.
    """

    __slots__ = ("gluing", "_family", "_lattice", "_cache")

    def __init__(self, surface, lattice):
        self.gluing = surface.gluing
        self._family = surface._family
        self._lattice = lattice
        self._cache = {}

    @property
    def ctx(self):
        return self._lattice.ctx

    def lattice(self):
        return self._lattice


def east_ray_corners(surface: TranslationSurface):
    """All corners whose half-open sector [out, rev-in) contains (1, 0).

    Each eastward separatrix germ of the horizontal foliation appears at
    exactly one corner, so these are the rays to trace for a horizontal
    decomposition.  Each corner is decided by the rises of its two
    edges, one sign per edge: with both edges falling east is inside,
    with both rising outside, and otherwise `polygon.corner_crosses_east`
    decides, by at most one cross sign.  The list is cached on the
    surface: callers read it and must not change it.
    """
    corners = surface._cache.get("east")
    if corners is None:
        lat = surface.lattice()
        d = lat.d
        corners = surface._cache["east"] = []
        for p, edges in enumerate(lat.edges):
            rises = [_sign(e[2], e[3], d) for e in edges]
            for i, rise in enumerate(rises):
                if rise > 0 and rises[i - 1] > 0:
                    continue
                if (rise < 0 and rises[i - 1] < 0
                        or corner_crosses_east(*lat.corner_rays((p, i)), d,
                                               closed="start")):
                    corners.append((p, i))
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


def _exit_row(surface, rows, m, bound):
    """The row of the crossing into walk state m (`search.Triangulated`),
    kept in `rows` from the first time a ray crosses there: (e, CA, CB,
    MA, MB, RA, RB, SA, SB, q, gA, gB, tA, tB, tris) for the polygon edge
    (p, e) glued to m's side, edge f of polygon q.  These are e's
    `_exit_line` (C, M, R), the bound's side S of its test at the exit,
    `bound.scaled(R*R)`, then q, the translation g = end(f) - start(e)
    taking a point of e to the same point of f, which runs the other
    way, as its y-part then x-part, and tris, a range as long as q has
    triangles, which bounds the walk in q."""
    lat = surface.lattice()
    t, k = divmod(m, 3)
    q, ends = triangulated(surface).triangles[t]
    f = ends[k]
    p, e = surface.gluing[(q, f)]
    start, end = lat.verts[p][e], lat.verts[q][(f + 1) % len(lat.verts[q])]
    C, M, R = _exit_line(start, lat.edges[p][e], lat.d)
    gxA, gxB, gyA, gyB = _sub(end, start)
    rows[m] = row = (e, *C, *M, *R, *bound.scaled(_mul(R, R, lat.d)), q,
                     gyA, gyB, gxA, gxB, range(len(lat.verts[q]) - 2))
    return row


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


def _corner_state(tri, verts, p, i, d):
    """The walk state of the ray leaving corner i of polygon p east.

    The fan of triangles at the corner is turned from the triangle on
    the corner's outgoing edge, in the state entered by that edge
    (`Triangulated.sides`), to the one whose sector [out, rev-in) holds
    east.  In such a state the corner is the tail of the entry side,
    rev-in runs to the apex, and the next triangle of the fan lies
    across the side from the apex back to the corner, the state's
    `below` side.  A triangle's sector is below pi, so it holds east
    exactly when out ends at or below the corner's height and rev-in
    above it, as `polygon.corner_crosses_east` decides for such a
    sector; out is the previous rev-in.  The ray is then as if entered
    by the side from the apex: it runs along the out side to its far
    end, the new apex, or leaves by the opposite side."""
    walk = tri.walk
    _, _, HA, HB = verts[i]
    _, _, yA, yB = verts[(i + 1) % len(verts)]
    state, out_down = tri.sides[p][i], _sign(yA - HA, yB - HB, d) <= 0
    while True:
        apex, _, below = walk[state]
        _, _, yA, yB = verts[apex]
        rev_in_up = _sign(yA - HA, yB - HB, d) > 0
        if out_down and rev_in_up:
            return state - state % 3 + (state + 2) % 3
        if below < 0:
            raise InternalInvariantError(
                f"east leaves no triangle at corner {(p, i)}")
        state, out_down = below, not rev_in_up


def _trace(surface, p, H, base, key, max_advance_sq):
    """Trace east from the point at height H and x-coordinate `base`
    (pairs over D) of polygon p of the surface's lattice, standing on
    `key` (a corner's ("vertex", i)) or inside the polygon (None).

    The ray walks the family's triangles (`Triangulated.walk`) to a
    polygon edge, which it crosses by the edge's row of
    `_cache["exits"]`, or to a vertex, where it ends.  A start inside a
    polygon finds its next stop by `_first_exit`, for as long as it
    stands outside the polygon it is in, and enters the walk at the
    state of the side it crosses into.  The returned scalars live in
    the lattice's field; the arithmetic runs in the field of the
    lattice and the bound, decided here once, before any step.
    """
    lat = surface.lattice()
    D, ctx, all_verts = lat.D, lat.ctx, lat.verts
    bound = _Bound(lat, max_advance_sq)
    d = bound.d
    Rd = bound.Rd
    tri = triangulated(surface)
    walk = tri.walk
    # the rows hold the bound's side of each crossing's test, so they
    # serve the bound they were built for, as every ray of `decompose`
    # on one image has the same bound
    held = bound.RA_D2, bound.RB_D2, d
    exits = surface._cache.get("exits")
    if exits is None or exits[0] != held:
        exits = surface._cache["exits"] = held, [None] * len(walk)
    rows = exits[1]
    verts = all_verts[p]
    tris = range(len(verts) - 2)  # a step per triangle of polygon p
    steps = []
    # the advance at the last crossing: N / (R * D), R from its row
    NA = NB = 0
    last = None
    HA, HB = H
    bA, bB = base
    if key is None:
        s = None
        ref = base, (1, 0)  # the x-coordinate P / Q the ray stands at
    else:
        s = _corner_state(tri, verts, p, key[1], d)
    while True:
        # the next stop: a vertex v, where the ray ends, or the walk
        # state m across the polygon edge it crosses
        if s is None:
            found = _first_exit(lat, p, (HA, HB), ref, d)
            if found is None:
                x = _new(bA, bB, D, ctx)
                if last is not None:
                    x = x + _quotient((NA, NB), last[5:7], D, d, ctx)
                raise InternalInvariantError(
                    f"ray from {Vec2(x, _new(HA, HB, D, ctx))} in polygon "
                    f"{p} escaped the boundary")
            v, e = found
            if v is None:
                q, f = surface.gluing[(p, e)]
                m = tri.sides[q][f]
        else:
            # in the triangle of state s, entered strictly between the
            # ends of a side: only the apex can lie at height H, and
            # above or below it names the side out.  The sign of the
            # height difference A + B*sqrt(d) is `field._sign`, inline
            for _ in tris:
                v, above, below = walk[s]
                apex = verts[v]
                A = apex[2] - HA
                B = apex[3] - HB
                if B and (not A or (A > 0) != (B > 0) and A * A < d * B * B):
                    A = B
                if not A:
                    break
                s = above if A > 0 else below
                if s < 0:
                    v, m = None, ~s
                    break
            else:
                raise InternalInvariantError(
                    f"the walk visited more triangles of polygon {p} "
                    f"than it has")
        if v is not None:
            XA, XB = verts[v][0] - bA, verts[v][1] - bB
            if not bound.within((XA * XA + d * XB * XB, 2 * XA * XB)):
                break
            return TraceResult("vertex", ((XA, XB), (1, 0), D), surface,
                               d, key, steps, end_corner=(p, v))
        row = rows[m] or _exit_row(surface, rows, m, bound)
        e, CA, CB, MA, MB, RA, RB, SA, SB, q, gA, gB, tA, tB, tris = row
        # the advance to the exit is X / (R * D), within the bound when
        # S - Rd*X^2 is not negative (`_Bound.within` on num X^2 and
        # den R^2), its sign taken inline
        XA = CA + HA * MA + d * HB * MB - bA * RA - d * bB * RB
        XB = CB + HA * MB + HB * MA - bA * RB - bB * RA
        SA -= Rd * (XA * XA + d * XB * XB)
        SB -= 2 * Rd * XA * XB
        if SB and (not SA or (SA > 0) != (SB > 0)
                   and SA * SA < d * SB * SB):
            SA = SB
        if SA < 0:
            break
        steps.append((p, e, HA, HB))
        HA += gA
        HB += gB
        bA += tA
        bB += tB
        NA, NB, last = XA, XB, row
        if s is not None or _sign(*lat.edges[p][e][2:], d) > 0:
            # from the walk, or from a point that left p upwards, so it
            # enters q: on to the walk
            s = m
        else:
            # the point stood outside p, and stands outside q
            bR = _mul((bA, bB), (RA, RB), d)
            ref = (bR[0] + XA, bR[1] + XB), (RA, RB)
        p, verts = q, all_verts[q]
    return TraceResult("bound", ((0, 0), (1, 0), 1) if last is None
                       else ((NA, NB), last[5:7], D), surface, d, key, steps)
