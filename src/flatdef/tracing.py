"""Exact straight-line tracing through glued polygons, on the lattice form.

All tracing here happens on a direction-normalized surface, and only
east: the separatrices of the horizontal foliation.  Positions carry
exact coordinates in the current polygon's frame together with the
boundary parameterization needed for homology bookkeeping.

An eastward ray keeps its height y inside a polygon, so where it leaves
depends only on that height and on how far east it starts.
`_SlabTable` indexes one polygon by height once, and each crossing is
then a table lookup.  The set-up is built only as far as the rays read
it: the corners east leaves are decided by the rises of their edges
(`polygon.corner_crosses_east`), a polygon's table is built when a ray
first enters it, and the exits along a vertex-height line when a ray
first stands on that line; most rays cross the open slabs between.

The arithmetic runs on the surface's `polygon.Lattice`: a coordinate
is a pair (A, B) of integers meaning (A + B*sqrt(d))/D.  Gluing
translations are lattice vectors, so a ray keeps its height on the
lattice from polygon to polygon, and so does `base`, its start's
x-coordinate plus the x-parts of the translations it has crossed: the
advance to a point of x-coordinate x in the current polygon's frame is
x - base.  An exit through an edge lies at the quotient
x = (C + H*M)/R of lattice pairs, with R > 0.  A corner is a point of
the surface's lattice.  An interior point need not be, so
`trace_from_point` re-expresses the lattice once, over the least
multiple of D that holds the point and in the field of the point
(`polygon.Lattice.over`), and traces on that: the step loop knows one
lattice and one scale.  The re-expressed lattice and its slab tables
live on a `_Shell` of the surface, never in the surface's own cache.

Every trace has a bound, tested by the saddle-connection search's
`polygon._Bound`, one cross-multiplied sign.  A trace runs in the field
of its lattice and its bound (`field.join_ctx`), decided before the
first step, so a bound over another irrational field raises ValueError
whichever way the ray runs.  `FieldScalar`s are built only for what a
trace returns: its advance and, on first access, its chords' and
crossings' edge parameters.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cmp_to_key
from math import lcm

from .errors import InternalInvariantError
from .field import FieldScalar, Vec2, _new, _sign, join_ctx
from .polygon import _Bound, _mul, _sub, corner_crosses_east
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
            d, ctx = self._d, self._surface.lattice().ctx
            one = _new(1, 0, 1, ctx)
            chords, crossings = [], []
            point = self._key
            for p, e, H in self._steps:
                table, glue = _polygon_table(self._surface, p)
                s = table.param(e, H, d, ctx)
                chords.append((p, point, ("edge", e, s)))
                crossings.append((p, e, s))
                point = ("edge", glue[e][1], one - s)
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
    """A surface's gluing on another lattice form of its polygons, with
    a cache of its own: what `_trace` and `_polygon_table` read of a
    surface."""

    __slots__ = ("gluing", "_lattice", "_cache")

    def __init__(self, surface, lattice):
        self.gluing = surface.gluing
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


def _lattice_split(pt):
    """(y, x) pairs of a lattice point (xa, xb, ya, yb)."""
    return pt[2:], pt[:2]


def _quotient(N, R, scale, d, ctx) -> FieldScalar:
    """The scalar N / (R * scale) of pairs N, R != 0 and an integer scale."""
    RA, RB = R
    if not RB:
        return _new(N[0], N[1], RA * scale, ctx)
    NA, NB = N
    return _new(NA * RA - d * NB * RB, NB * RA - NA * RB,
                (RA * RA - d * RB * RB) * scale, ctx)


def _escaped(p, y, x):
    return InternalInvariantError(
        f"ray from {Vec2(x, y)} in polygon {p} escaped the boundary")


class _SlabTable:
    """Where an eastward ray leaves one polygon, indexed by height.

    Points are `polygon.Lattice` points over D, split into a height y
    and an along-coordinate x.  `heights` holds the
    distinct vertex heights in ascending order (the breakpoints), and
    `line_of` maps each to its index.  Open slab i lies between
    heights[i-1] and heights[i]; slabs 0 and len(heights) are unbounded
    and empty.  For each slab, `order[i]` lists the edges crossing it
    in along-ray order and `succ[i]` maps each to the exit event of the
    next one.  On the line at heights[j], `events[j]` lists the exits
    of a ray on that line in ascending along-coordinate, one per point:
    a crossed edge, or a vertex with a non-horizontal incident edge;
    `line_pos[j]` maps each ("edge", e) and ("vertex", v) standing at
    one of those points to its index.  `lines[e]` holds, for a
    non-horizontal edge e, its start and direction as pairs
    (h0, a0, dh, da), `exits[e]` its exit event and `span[e]` the ranks
    of its lower and upper end.

    The heights, spans, exits and slab orders are built with the table.
    A line's `events[j]` and `line_pos[j]` are None until `line(j)`
    builds them, which `exit` asks for the first time a ray stands on
    that line: a trace from a corner stands on its start's line, and
    most crossings leave through an open slab, so most lines of a
    polygon are never read.

    An exit event is a tuple (kind, data, C, M, R, R2): kind "vertex"
    with the vertex index or "edge" with the edge index, and pairs such
    that the event's along-coordinate, for a ray at height H, is
    (C + H*M) / R over D, with R > 0 and R2 = R*R.

    `exit` reproduces the rule of a scan over all edges: the nearest
    hit strictly ahead of the origin; at one point a vertex label found
    first stays, and an edge label gives way to a later candidate.
    Which of two points comes first is decided by cross-multiplying,
    never by dividing.
    """

    __slots__ = ("heights", "line_of", "order", "succ", "events",
                 "line_pos", "lines", "exits", "span", "_d", "_rank",
                 "_alongs")

    def __init__(self, verts, edges, d):
        n = len(edges)
        pts = [_lattice_split(v) for v in verts]
        heights = sorted({h for h, _ in pts}, key=cmp_to_key(
            lambda u, v: _sign(u[0] - v[0], u[1] - v[1], d)))
        line_of = {h: j for j, h in enumerate(heights)}
        # rank[v]: the index of vertex v's height in `heights`, so that
        # which side of a line a vertex lies on is an integer comparison
        rank = [line_of[h] for h, _ in pts]
        lines = [None] * n
        exits = [None] * n
        span = [None] * n
        one = (1, 0)
        # per line, in edge scan order: (P, R, M, R, edge) for each edge
        # of slope M/R that crosses the open slab just above the line at
        # along-coordinate P/R
        above = [[] for _ in heights]
        for e, vec in enumerate(edges):
            f = (e + 1) % n
            ra, rb = rank[e], rank[f]
            if ra == rb:
                continue  # horizontal
            dh, da = _lattice_split(vec)
            h0, a0 = pts[e]
            lines[e] = (h0, a0, dh, da)
            # along at height h: a0 + (h - h0) da/dh = (C + h M) / R
            adh, hda = _mul(a0, dh, d), _mul(h0, da, d)
            C = adh[0] - hda[0], adh[1] - hda[1]
            M, R = da, dh
            if _sign(*R, d) < 0:
                C, M, R = (-C[0], -C[1]), (-M[0], -M[1]), (-R[0], -R[1])
            exits[e] = ("edge", e, C, M, R, _mul(R, R, d))
            lo, hi = span[e] = (ra, rb) if ra < rb else (rb, ra)
            above[lo].append((pts[e if ra == lo else f][1], one, M, R, e))
            for j in range(lo + 1, hi):
                above[j].append((_along(C, M, heights[j], d), R, M, R, e))

        # the edges of a slab keep their order across it, so it is the
        # order where they leave its lower line; edges leaving one point
        # fan out by slope
        cmp_quotients = _quotient_cmp(d)

        def cmp_spans(u, v):
            return (cmp_quotients(u, v) or cmp_quotients(u[2:], v[2:])
                    or (u[4] > v[4]) - (u[4] < v[4]))

        order = [[]] + [[span[4] for span in sorted(spans, key=cmp_to_key(cmp_spans))]
                        for spans in above]
        self.order = order
        self.succ = [{e: exits[g] for e, g in zip(o, o[1:])} for o in order]
        self.heights = heights
        self.line_of = line_of
        self.lines = lines
        self.exits = exits
        self.span = span
        self.events = [None] * len(heights)
        self.line_pos = [None] * len(heights)
        self._d = d
        self._rank = rank
        self._alongs = [a for _, a in pts]

    def line(self, j):
        """(events[j], line_pos[j]), built on the first call for line j.

        The candidates are gathered in edge scan order, each vertex
        through every non-horizontal edge it ends, and sorted stably.
        """
        events = self.events[j]
        if events is not None:
            return events, self.line_pos[j]
        d, h, rank, alongs = self._d, self.heights[j], self._rank, self._alongs
        n = len(self.exits)
        one = (1, 0)
        # (P, R, key, event) for each exit at along-coordinate P/R
        cands = []
        for e, event in enumerate(self.exits):
            if event is None:
                continue
            lo, hi = self.span[e]
            if lo < j < hi:
                cands.append((_along(event[2], event[3], h, d), event[4],
                              ("edge", e), event))
            elif j == lo or j == hi:
                v = e if rank[e] == j else (e + 1) % n
                a = alongs[v]
                cands.append((a, one, ("vertex", v),
                              ("vertex", v, a, (0, 0), one, one)))
        cmp_quotients = _quotient_cmp(d)
        # stable: scan order within a point
        cands.sort(key=cmp_to_key(cmp_quotients))
        events = []
        pos = {}
        last = None
        for cand in cands:
            if last is not None and cmp_quotients(last, cand) == 0:
                # one point: a vertex label found first stays, an edge
                # label gives way to a later candidate
                if events[-1][0] == "edge":
                    events[-1] = cand[3]
            else:
                events.append(cand[3])
            pos[cand[2]] = len(events) - 1
            last = cand
        self.events[j] = events
        self.line_pos[j] = pos
        return events, pos

    def exit(self, H, A, d, key=None):
        """The first exit event strictly ahead of a point, or None.

        The point lies at height H and along-coordinate A, pairs over
        D.  `key`, ("edge", e) or ("vertex", v), names the event the
        point stands on, when it is one: the edge it lies inside of or
        the vertex it is; then A is read only if that event is not an
        exit of the point's line.
        """
        j = self.line_of.get(H)
        if j is not None:
            events, pos = self.line(j)
            i = pos.get(key)
            if i is None:
                i = 0
                while i < len(events) and not _ahead(events[i], H, A, d):
                    i += 1
            else:
                i += 1
            return events[i] if i < len(events) else None
        # the open slab: the first breakpoint above H, searched among
        # those the entry edge spans
        heights = self.heights
        entry = key[1] if key is not None and key[0] == "edge" else None
        if entry is not None:
            lo, hi = self.span[entry]
            lo += 1
        else:
            lo, hi = 0, len(heights)
        HA, HB = H
        while lo < hi:
            mid = (lo + hi) // 2
            hA, hB = heights[mid]
            if _sign(HA - hA, HB - hB, d) > 0:
                lo = mid + 1
            else:
                hi = mid
        if entry is not None:
            return self.succ[lo].get(entry)
        for e in self.order[lo]:
            if _ahead(self.exits[e], H, A, d):
                return self.exits[e]
        return None

    def param(self, e, H, d, ctx) -> FieldScalar:
        """The parameter in (0, 1) of the point at height H on edge e."""
        h0, _, dh, _ = self.lines[e]
        return _quotient((H[0] - h0[0], H[1] - h0[1]), dh, 1, d, ctx)


def _along(C, M, h, d):
    """C + h*M, the along-coordinate times R at height h of an edge
    whose exit event holds C, M and R."""
    hM = _mul(h, M, d)
    return C[0] + hM[0], C[1] + hM[1]


def _quotient_cmp(d):
    """The comparison of the quotients P/R (pairs, R > 0) that lead two
    tuples, by one cross-multiplied sign."""
    def cmp(u, v):
        (P1A, P1B), (R1A, R1B), (P2A, P2B), (R2A, R2B) = u[0], u[1], v[0], v[1]
        return _sign(P1A * R2A + d * P1B * R2B - P2A * R1A - d * P2B * R1B,
                     P1A * R2B + P1B * R2A - P2A * R1B - P2B * R1A, d)
    return cmp


def _ahead(event, H, A, d) -> bool:
    """Whether `event` lies strictly ahead of along-coordinate A on the
    ray at height H."""
    _, _, C, M, R, _ = event
    HA, HB = H
    MA, MB = M
    RA, RB = R
    return _sign(C[0] + HA * MA + d * HB * MB - A[0] * RA - d * A[1] * RB,
                 C[1] + HA * MB + HB * MA - A[0] * RB - A[1] * RA, d) > 0


def _polygon_table(surface, p):
    """(slab table, per-edge gluing) of polygon p, cached on the surface.

    The gluing entry of edge e is (q, f, dh, da): its partner edge and
    the translation taking a point of e to the same point of f, as
    pairs over D.
    """
    tables = surface._cache.get("slabs")
    if tables is None:
        tables = surface._cache["slabs"] = [None] * len(surface.lattice().edges)
    entry = tables[p]
    if entry is None:
        lat = surface.lattice()
        verts = lat.verts[p]
        table = _SlabTable(verts, lat.edges[p], lat.d)
        glue = []
        for e in range(len(verts)):
            q, f = surface.gluing[(p, e)]
            # the point at s on (p, e) is the point at 1 - s on (q, f),
            # which runs the other way: both differ by end(f) - start(e)
            end_f = lat.verts[q][(f + 1) % len(lat.verts[q])]
            glue.append((q, f) + _lattice_split(_sub(end_f, verts[e])))
        entry = tables[p] = (table, glue)
    return entry


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
    h, a = _lattice_split(surface.lattice().verts[p][i])
    return _trace(surface, p, h, a, ("vertex", i), max_advance_sq)


def trace_from_point(surface: TranslationSurface, p: int, origin: Vec2,
                     max_advance_sq: FieldScalar):
    """Trace the leaf through an interior point of polygon p east, on
    the surface's lattice re-expressed over a denominator and in a
    field that hold the point."""
    ctx = join_ctx(surface.ctx, origin.x, origin.y)
    lat = surface.lattice()
    lat = lat.over(lcm(lat.D, origin.x._D, origin.y._D), ctx)
    h, a = _lattice_split(lat.point(origin))
    return _trace(_Shell(surface, lat), p, h, a, None, max_advance_sq)


def _trace(surface, p, H, base, key, max_advance_sq):
    """Trace east from the point at height H and x-coordinate `base`
    (pairs over D) of polygon p of the surface's lattice, standing on
    `key` (a corner's ("vertex", i)) or inside the polygon (None).

    The returned scalars live in the lattice's field; the arithmetic
    runs in the field of the lattice and the bound, decided here once,
    before any step.
    """
    lat = surface.lattice()
    D, ctx = lat.D, lat.ctx
    bound = _Bound(lat, max_advance_sq)
    d = bound.d
    steps = []

    event = None
    if key is not None:
        rise, step = _lattice_split(lat.edges[p][key[1]])
        if rise == (0, 0) and _sign(*step, d) > 0:
            # a run along a horizontal edge: its one event ends the
            # trace, so it needs no table
            v = (key[1] + 1) % len(lat.edges[p])
            event = ("vertex", v, lat.verts[p][v][:2], (0, 0), (1, 0), (1, 0))
    if event is None:
        table, glue = _polygon_table(surface, p)
        event = table.exit(H, base, d, key)
    tables = surface._cache.get("slabs")
    prev = None  # the advance so far, as (N, R): N / (R * D)
    while True:
        if event is None:
            x = _new(*base, D, ctx)
            if prev is not None:
                x = x + _quotient(*prev, D, d, ctx)
            raise _escaped(p, _new(*H, D, ctx), x)
        kind, data, (CA, CB), (MA, MB), (RA, RB), R2 = event
        HA, HB = H
        bA, bB = base
        # the advance to the exit is N / (R * D)
        NA = CA + HA * MA + d * HB * MB - bA * RA - d * bB * RB
        NB = CB + HA * MB + HB * MA - bA * RB - bB * RA
        if not bound.within((NA * NA + d * NB * NB, 2 * NA * NB), R2):
            return TraceResult("bound", _new(0, 0, 1, ctx) if prev is None
                               else _quotient(*prev, D, d, ctx),
                               surface, d, key, steps)
        if kind == "vertex":
            return TraceResult("vertex",
                               _quotient((NA, NB), (RA, RB), D, d, ctx),
                               surface, d, key, steps, end_corner=(p, data))
        steps.append((p, data, H))
        q, f, (gA, gB), (tA, tB) = glue[data]
        H = (HA + gA, HB + gB)
        base = (bA + tA, bB + tB)
        prev = (NA, NB), (RA, RB)
        p = q
        table, glue = tables[p] or _polygon_table(surface, p)
        event = table.exit(H, None, d, ("edge", f))
