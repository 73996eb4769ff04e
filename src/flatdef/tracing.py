"""Exact straight-line tracing through glued polygons, on the lattice form.

All tracing here happens on a direction-normalized surface, in one of
two directions: `EAST` (separatrices and core leaves) or `NORTH`
(cylinder cross sections).  Positions carry exact coordinates in the
current polygon's frame together with the boundary parameterization
needed for homology bookkeeping.

A ray along an axis keeps its height (y for `EAST`, x for `NORTH`)
inside a polygon, so where it leaves depends only on that height and
on how far along the ray it starts.  `_SlabTable` indexes one polygon
by height once, and each crossing is then a table lookup.

The arithmetic runs on the surface's `polygon.Lattice`: a coordinate
is a pair (A, B) of integers meaning (A + B*sqrt(d))/D.  Gluing
translations are lattice vectors, so a ray keeps its height on the
lattice from polygon to polygon, and so does `base`, its start's
along-coordinate plus the along-parts of the translations it has
crossed: the advance to a point of along-coordinate x in the current
polygon's frame is x - base.  An exit through an edge lies at the
quotient x = (k*C + H*M)/R (over k*D) of lattice pairs, with R > 0,
so the bound and stop tests are one cross-multiplied sign each.  A
start off the lattice (an interior point) is held over k*D for the
least integer k that holds it; k = 1 at a corner.  `FieldScalar`s are
built only for what a trace returns: its advance, its end position,
and, on first access, its chords' and crossings' edge parameters.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cmp_to_key
from math import lcm

from .errors import InternalInvariantError
from .field import FieldScalar, Vec2, _new, _sign
from .polygon import _EAST, _mul, _sub, sector_contains
from .surface import TranslationSurface

__all__ = ["TraceResult", "trace_from_corner", "east_ray_corners", "EAST", "NORTH"]

MAX_STEPS = 1_000_000


def EAST(ctx) -> Vec2:
    return Vec2(FieldScalar(1, 0, ctx), FieldScalar(0, 0, ctx))


def NORTH(ctx) -> Vec2:
    return Vec2(FieldScalar(0, 0, ctx), FieldScalar(1, 0, ctx))


class TraceResult:
    """Outcome of a straight-line trace.

    kind is "vertex" (hit a cone/marked point), "bound" (advance budget
    exhausted mid-flight) or "target" (stopped exactly at the requested
    advance).  chords is the list of polygon runs
    (polygon, start PathPoint, end PathPoint); crossings records every
    glued-edge transition as (polygon, edge, parameter s on the edge).
    """

    __slots__ = ("kind", "chords", "crossings", "advance", "end_corner",
                 "end_position", "pending_start", "end_pathpoint")

    def __init__(self, kind, chords, crossings, advance, end_corner=None,
                 end_position=None, pending_start=None, end_pathpoint=None):
        self.kind = kind
        self.chords = chords
        self.crossings = crossings
        self.advance = advance
        self.end_corner = end_corner
        self.end_position = end_position
        self.pending_start = pending_start
        self.end_pathpoint = end_pathpoint


def east_ray_corners(surface: TranslationSurface):
    """All corners whose half-open sector [out, rev-in) contains (1, 0).

    Each eastward separatrix germ of the horizontal foliation appears at
    exactly one corner, so these are the rays to trace for a horizontal
    decomposition.
    """
    lat = surface.lattice()
    out = []
    for p, edges in enumerate(lat.edges):
        for i in range(len(edges)):
            start, end = lat.corner_rays((p, i))
            if sector_contains(start, end, _EAST, lat.d,
                               include_start=True, include_end=False):
                out.append((p, i))
    return out


def _axis(direction: Vec2) -> int:
    """0 for `EAST`, 1 for `NORTH`; ValueError for any other direction."""
    x, y = direction.x, direction.y
    if not y and x == 1:
        return 0
    if not x and y == 1:
        return 1
    raise ValueError(f"tracing runs east (1, 0) or north (0, 1), "
                     f"not {direction}")


def _split(v: Vec2, axis: int):
    """(height, along) coordinates of v for rays along `axis`."""
    return (v.y, v.x) if axis == 0 else (v.x, v.y)


def _join(h, a, axis: int) -> Vec2:
    """The point at height h and along-coordinate a; undoes `_split`."""
    return Vec2(a, h) if axis == 0 else Vec2(h, a)


def _lattice_split(pt, axis: int):
    """(height, along) pairs of a lattice point (xa, xb, ya, yb)."""
    xa, xb, ya, yb = pt
    return ((ya, yb), (xa, xb)) if axis == 0 else ((xa, xb), (ya, yb))


def _quotient(N, R, scale, d, ctx) -> FieldScalar:
    """The scalar N / (R * scale) of pairs N, R != 0 and an integer scale."""
    RA, RB = R
    if not RB:
        return _new(N[0], N[1], RA * scale, ctx)
    NA, NB = N
    return _new(NA * RA - d * NB * RB, NB * RA - NA * RB,
                (RA * RA - d * RB * RB) * scale, ctx)


def _pair(s: FieldScalar, scale: int):
    """s * scale as a pair; scale must be a multiple of s's denominator."""
    m = scale // s._D
    return s._A * m, s._B * m


def _start(lat, origin: Vec2, axis: int):
    """(k, height, along) of a point: the least k >= 1 such that both
    coordinates are pairs over k*D, and those pairs."""
    D = lat.D
    k = lcm(D, origin.x._D, origin.y._D) // D
    h, a = _split(origin, axis)
    return k, _pair(h, k * D), _pair(a, k * D)


def _escaped(p, h, a, axis):
    return InternalInvariantError(
        f"ray from {_join(h, a, axis)} in polygon {p} escaped the boundary")


class _SlabTable:
    """Where a ray along one axis leaves one polygon, indexed by height.

    Points are `polygon.Lattice` points over D.  `heights` holds the
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

    An exit event is a tuple (kind, data, C, M, R, R2): kind "vertex"
    with the vertex index or "edge" with the edge index, and pairs such
    that the event's along-coordinate, for a ray at height H over k*D,
    is (k*C + H*M) / R over k*D, with R > 0 and R2 = R*R.

    `exit` reproduces the rule of a scan over all edges: the nearest
    hit strictly ahead of the origin; at one point a vertex label found
    first stays, and an edge label gives way to a later candidate.
    Which of two points comes first is decided by cross-multiplying,
    never by dividing.
    """

    __slots__ = ("heights", "line_of", "order", "succ", "events",
                 "line_pos", "lines", "exits", "span")

    def __init__(self, verts, edges, axis, d):
        n = len(edges)
        pts = [_lattice_split(v, axis) for v in verts]
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
        # per line, in edge scan order: cands holds (P, R, key, event)
        # for each exit at along-coordinate P/R, and above holds
        # (P, R, M, R, edge) for each edge of slope M/R that crosses the
        # open slab just above the line
        cands = [[] for _ in heights]
        above = [[] for _ in heights]
        for e, vec in enumerate(edges):
            f = (e + 1) % n
            ra, rb = rank[e], rank[f]
            if ra == rb:
                continue  # horizontal
            dh, da = _lattice_split(vec, axis)
            h0, a0 = pts[e]
            lines[e] = (h0, a0, dh, da)
            # along at height h: a0 + (h - h0) da/dh = (C + h M) / R
            adh, hda = _mul(a0, dh, d), _mul(h0, da, d)
            C = adh[0] - hda[0], adh[1] - hda[1]
            M, R = da, dh
            if _sign(*R, d) < 0:
                C, M, R = (-C[0], -C[1]), (-M[0], -M[1]), (-R[0], -R[1])
            exits[e] = event = ("edge", e, C, M, R, _mul(R, R, d))
            lo, hi = span[e] = (ra, rb) if ra < rb else (rb, ra)
            for v, j in ((e, ra), (f, rb)):
                a = pts[v][1]
                cands[j].append((a, one, ("vertex", v),
                                 ("vertex", v, a, (0, 0), one, one)))
                if j == lo:
                    above[j].append((a, one, M, R, e))
            for j in range(lo + 1, hi):
                hM = _mul(heights[j], M, d)
                P = C[0] + hM[0], C[1] + hM[1]
                cands[j].append((P, R, ("edge", e), event))
                above[j].append((P, R, M, R, e))

        def cmp_quotients(u, v):
            # P1/R1 against P2/R2, the quotients (P, R), R > 0, that
            # lead the tuples u and v
            (P1A, P1B), (R1A, R1B), (P2A, P2B), (R2A, R2B) = u[0], u[1], v[0], v[1]
            return _sign(P1A * R2A + d * P1B * R2B - P2A * R1A - d * P2B * R1B,
                         P1A * R2B + P1B * R2A - P2A * R1B - P2B * R1A, d)

        self.events = []
        self.line_pos = []
        for line in cands:
            # stable: scan order within a point
            line.sort(key=cmp_to_key(cmp_quotients))
            events = []
            pos = {}
            last = None
            for cand in line:
                if last is not None and cmp_quotients(last, cand) == 0:
                    # one point: a vertex label found first stays, an
                    # edge label gives way to a later candidate
                    if events[-1][0] == "edge":
                        events[-1] = cand[3]
                else:
                    events.append(cand[3])
                pos[cand[2]] = len(events) - 1
                last = cand
            self.events.append(events)
            self.line_pos.append(pos)

        # the edges of a slab keep their order across it, so it is the
        # order where they leave its lower line; edges leaving one point
        # fan out by slope
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

    def exit(self, H, A, k, d, key=None):
        """The first exit event strictly ahead of a point, or None.

        The point lies at height H and along-coordinate A, pairs over
        k*D.  `key`, ("edge", e) or ("vertex", v), names the event the
        point stands on, when it is one: the edge it lies inside of or
        the vertex it is; then A is read only if that event is not an
        exit of the point's line.
        """
        if k == 1:
            j = self.line_of.get(H)
        elif H[0] % k or H[1] % k:
            j = None
        else:
            j = self.line_of.get((H[0] // k, H[1] // k))
        if j is not None:
            events = self.events[j]
            i = self.line_pos[j].get(key)
            if i is None:
                i = 0
                while i < len(events) and not _ahead(events[i], H, A, k, d):
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
            if _sign(HA - k * hA, HB - k * hB, d) > 0:
                lo = mid + 1
            else:
                hi = mid
        if entry is not None:
            return self.succ[lo].get(entry)
        for e in self.order[lo]:
            if _ahead(self.exits[e], H, A, k, d):
                return self.exits[e]
        return None

    def param(self, e, H, k, d, ctx) -> FieldScalar:
        """The parameter in (0, 1) of the point at height H (over k*D)
        on edge e."""
        h0, _, dh, _ = self.lines[e]
        return _quotient((H[0] - k * h0[0], H[1] - k * h0[1]), dh, k, d, ctx)


def _ahead(event, H, A, k, d) -> bool:
    """Whether `event` lies strictly ahead of along-coordinate A on the
    ray at height H (all over k*D)."""
    _, _, C, M, R, _ = event
    HA, HB = H
    MA, MB = M
    RA, RB = R
    return _sign(k * C[0] + HA * MA + d * HB * MB - A[0] * RA - d * A[1] * RB,
                 k * C[1] + HA * MB + HB * MA - A[0] * RB - A[1] * RA, d) > 0


def _polygon_table(surface, p, axis):
    """(slab table, per-edge gluing) of polygon p, cached on the surface.

    The gluing entry of edge e is (q, f, dh, da): its partner edge and
    the translation taking a point of e to the same point of f, as
    pairs over D.
    """
    tables = surface._cache.get(("slabs", axis))
    if tables is None:
        tables = surface._cache[("slabs", axis)] = [None] * len(surface.polygons)
    entry = tables[p]
    if entry is None:
        lat = surface.lattice()
        verts = lat.verts[p]
        table = _SlabTable(verts, lat.edges[p], axis, lat.d)
        glue = []
        for e in range(len(verts)):
            q, f = surface.gluing[(p, e)]
            # the point at s on (p, e) is the point at 1 - s on (q, f),
            # which runs the other way: both differ by end(f) - start(e)
            end_f = lat.verts[q][(f + 1) % len(lat.verts[q])]
            glue.append((q, f) + _lattice_split(_sub(end_f, verts[e]), axis))
        entry = tables[p] = (table, glue)
    return entry


def trace_from_corner(surface: TranslationSurface, corner, direction: Vec2,
                      max_advance_sq: FieldScalar | None = None,
                      stop_at_advance: FieldScalar | None = None):
    """Trace the leaf leaving `corner` in `direction`, `EAST` or `NORTH`.

    The advance of the trace is the plain x- or y-progress.  Stops at
    the first vertex hit; with max_advance_sq set, returns kind "bound"
    once the squared advance would exceed it; with stop_at_advance set,
    stops exactly there (kind "target", possibly mid-polygon).  Any
    other direction raises ValueError.
    """
    axis = _axis(direction)
    p, i = corner
    lat = surface.lattice()
    start_ray, end_ray = lat.corner_rays(corner)
    if not sector_contains(start_ray, end_ray, lat.point(direction), lat.d,
                           include_start=True, include_end=False):
        raise ValueError(f"direction {direction} does not leave corner {corner}")
    h, a = _lattice_split(lat.verts[p][i], axis)
    return _trace(surface, axis, p, 1, h, a, ("vertex", i), surface.ctx,
                  max_advance_sq, stop_at_advance)


def trace_from_point(surface: TranslationSurface, p: int, origin: Vec2,
                     direction: Vec2,
                     max_advance_sq: FieldScalar | None = None,
                     stop_at_advance: FieldScalar | None = None):
    """Trace the leaf through an interior point of polygon p, `EAST` or
    `NORTH`; any other direction raises ValueError."""
    axis = _axis(direction)
    k, h, a = _start(surface.lattice(), origin, axis)
    return _trace(surface, axis, p, k, h, a, None,
                  _field(surface.ctx, origin.x, origin.y),
                  max_advance_sq, stop_at_advance)


def _field(ctx, *scalars):
    """The field of `ctx` and the scalars; ValueError if two differ."""
    for s in scalars:
        if s._B and s.ctx.d != ctx.d:
            if ctx.d:
                raise ValueError(f"incompatible fields Q(sqrt({ctx.d})) "
                                 f"and Q(sqrt({s.ctx.d}))")
            ctx = s.ctx
    return ctx


class _Built(Sequence):
    """One list of a `_Path`: its length is known at once, its items are
    built on first access."""

    __slots__ = ("_path", "_index", "_n")

    def __init__(self, path, index, n):
        self._path = path
        self._index = index
        self._n = n

    def _items(self):
        return self._path.build()[self._index]

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        return self._items()[i]

    def __iter__(self):
        return iter(self._items())


class _Path:
    """The chords and crossings of a trace, kept as its lattice steps.

    `steps` holds (polygon, crossed edge, height over k*D) per crossing;
    `end` is the last chord's (polygon, end PathPoint), or None when the
    trace stopped with no chord left open.  `build` turns them into
    PathPoints with `FieldScalar` edge parameters, once.
    """

    __slots__ = ("surface", "axis", "k", "d", "ctx", "start", "steps",
                 "end", "_built")

    def __init__(self, surface, axis, k, d, ctx, start):
        self.surface = surface
        self.axis = axis
        self.k = k
        self.d = d
        self.ctx = ctx
        self.start = start
        self.steps = []
        self.end = None
        self._built = None

    def build(self):
        """(chords, crossings, the PathPoint the trace stands on)."""
        if self._built is None:
            k, d, ctx = self.k, self.d, self.ctx
            one = _new(1, 0, 1, ctx)
            chords, crossings = [], []
            point = self.start
            for p, e, H in self.steps:
                table, glue = _polygon_table(self.surface, p, self.axis)
                s = table.param(e, H, k, d, ctx)
                chords.append((p, point, ("edge", e, s)))
                crossings.append((p, e, s))
                point = ("edge", glue[e][1], one - s)
            if self.end is not None:
                q, end = self.end
                chords.append((q, point, end))
            self._built = chords, crossings, point
        return self._built

    def result(self, kind, advance, **fields):
        n = len(self.steps)
        return TraceResult(kind, _Built(self, 0, n + (self.end is not None)),
                           _Built(self, 1, n), advance, **fields)


def _beyond_foreign(XA, XB, RA, RB, BA, BB, BD, d, bd) -> bool:
    """advance^2 > bound, for a bound over Q(sqrt(bd)) and a surface
    over another Q(sqrt(d)): advance^2 = X / R (pairs of Z[sqrt d],
    over (k*D)^2) is compared in the bound's field when it is rational,
    and else raises the ValueError that `FieldScalar` arithmetic raises
    for two fields."""
    if XB * RA - XA * RB:
        raise ValueError(f"incompatible fields Q(sqrt({d})) and Q(sqrt({bd}))")
    # X / R = num / den, den = N(R) > 0 since R is a square
    num, den = XA * RA - d * XB * RB, RA * RA - d * RB * RB
    return _sign(num * BD - BA * den, -BB * den, bd) > 0


def _as_scalar(x) -> FieldScalar:
    return x if isinstance(x, FieldScalar) else FieldScalar(x)


def _trace(surface, axis, p, k, H, base, key, ctx, max_advance_sq,
           stop_at_advance):
    """Trace from the point at height H and along-coordinate `base`
    (pairs over k*D) of polygon p, standing on `key` (a corner's
    ("vertex", i)) or inside the polygon (None)."""
    lat = surface.lattice()
    kD = k * lat.D
    if stop_at_advance is not None:
        stop_at_advance = _as_scalar(stop_at_advance)
        SA, SB, SD = stop_at_advance._A, stop_at_advance._B, stop_at_advance._D
        SA, SB = SA * kD, SB * kD
        ctx = _field(ctx, stop_at_advance)
    d = ctx.d
    if max_advance_sq is not None:
        max_advance_sq = _as_scalar(max_advance_sq)
        BA, BB, BD = max_advance_sq._A, max_advance_sq._B, max_advance_sq._D
        BA, BB = BA * kD * kD, BB * kD * kD
        # the field the bound test runs in; a rational surface takes
        # the bound's
        bd = max_advance_sq.ctx.d if BB else d
        d = d or bd
    path = _Path(surface, axis, k, d, ctx, key)
    steps = path.steps

    def scalar(pair):
        return _new(pair[0], pair[1], kD, ctx)

    def at_stop(q):
        # the point at the requested advance, in polygon q's frame
        return q, _join(scalar(H), scalar(base) + stop_at_advance, axis)

    run = None  # the along-edge run's edge; only possible at a vertex
    if key is not None:
        edges = lat.edges[p]
        rise, step = _lattice_split(edges[key[1]], axis)
        if rise == (0, 0) and _sign(*step, d) > 0:
            # its one event ends the trace, so it needs no table
            run = key[1]
            v = (run + 1) % len(edges)
            event = ("vertex", v, _lattice_split(lat.verts[p][v], axis)[1],
                     (0, 0), (1, 0), (1, 0))
    if run is None:
        table, glue = _polygon_table(surface, p, axis)
        event = table.exit(H, base, k, d, key)
    tables = surface._cache.get(("slabs", axis))
    prev = None  # the advance so far, as (N, R): N / (R * k * D)
    for _ in range(MAX_STEPS):
        if event is None:
            along = scalar(base)
            if prev is not None:
                along = along + _quotient(*prev, kD, d, ctx)
            raise _escaped(p, scalar(H), along, axis)
        kind, data, (CA, CB), (MA, MB), (RA, RB), (R2A, R2B) = event
        HA, HB = H
        bA, bB = base
        # the advance to the exit is N / (R * k * D)
        NA = k * CA + HA * MA + d * HB * MB - bA * RA - d * bB * RB
        NB = k * CB + HA * MB + HB * MA - bA * RB - bB * RA
        if stop_at_advance is not None:
            c = _sign(NA * SD - SA * RA - d * SB * RB,
                      NB * SD - SA * RB - SB * RA, d)
            if c > 0 and run is not None:
                step = _new(NA, NB, kD, ctx)
                end = ("edge", run, stop_at_advance / step)
                return TraceResult("target", [(p, key, end)], [],
                                   stop_at_advance, end_position=at_stop(p),
                                   end_pathpoint=(p, end))
            if c > 0:
                # stop mid-chord at the exact requested advance; the
                # unfinished chord from the current point is left to
                # the caller
                _, _, point = path.build()
                return path.result("target", stop_at_advance,
                                   end_position=at_stop(p),
                                   pending_start=(p, point))
        if max_advance_sq is not None:
            XA, XB = NA * NA + d * NB * NB, 2 * NA * NB
            if (_sign(XA * BD - BA * R2A - d * BB * R2B,
                      XB * BD - BA * R2B - BB * R2A, d) > 0 if bd == d
                    else _beyond_foreign(XA, XB, R2A, R2B, BA, BB, BD, d, bd)):
                return path.result("bound", _new(0, 0, 1, ctx) if prev is None
                                   else _quotient(*prev, kD, d, ctx))
        if kind == "vertex":
            path.end = (p, ("vertex", data))
            return path.result("vertex",
                               _quotient((NA, NB), (RA, RB), kD, d, ctx),
                               end_corner=(p, data))
        steps.append((p, data, H))
        q, f, (gA, gB), (tA, tB) = glue[data]
        H = (HA + k * gA, HB + k * gB)
        base = (bA + k * tA, bB + k * tB)
        prev = (NA, NB), (RA, RB)
        if stop_at_advance is not None and c == 0:
            _, _, point = path.build()
            return path.result("target", _quotient(*prev, kD, d, ctx),
                               end_position=at_stop(q),
                               end_pathpoint=(q, point))
        p = q
        table, glue = tables[p] or _polygon_table(surface, p, axis)
        event = table.exit(H, None, k, d, ("edge", f))
    raise InternalInvariantError("trace exceeded the step safety cap")
