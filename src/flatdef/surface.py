"""Translation surfaces as glued polygons, with exact validation.

A surface is a list of polygons (cyclic edge-vector lists) plus a
perfect matching on (polygon, edge) pairs; glued edges carry exactly
opposite vectors.  Every polygon vertex is a cone point or marked point
of the flat metric.
"""

from __future__ import annotations

from .errors import (
    BadConeAngle,
    GluingMismatch,
    NonClosedPolygon,
    NonPositiveLength,
    NonSimplePolygon,
    NotConnected,
    SingularMatrix,
)
from .field import FieldScalar, Mat2, QQ, Vec2, unify_ctx
from .polygon import (
    Lattice,
    _ORIGIN,
    _add,
    check_simple,
    corner_crosses_east,
)

__all__ = ["TranslationSurface", "SingularityData", "square_tiled", "l_shape"]

EdgeRef = tuple[int, int]  # (polygon index, edge index)


class SingularityData:
    """Vertex classes with cone orders; stratum bookkeeping."""

    __slots__ = ("classes", "cone_orders", "genus")

    def __init__(self, classes, cone_orders, genus):
        object.__setattr__(self, "classes", tuple(tuple(c) for c in classes))
        object.__setattr__(self, "cone_orders", tuple(cone_orders))
        object.__setattr__(self, "genus", genus)

    def __setattr__(self, *a):
        raise AttributeError("SingularityData is immutable")

    @property
    def signature(self) -> tuple[int, ...]:
        return tuple(sorted(self.cone_orders, reverse=True))

    @property
    def num_points(self) -> int:
        return len(self.classes)

    def __repr__(self):
        return f"SingularityData(genus={self.genus}, signature={self.signature})"


class TranslationSurface:
    """Immutable translation surface; validation happens on construction."""

    def __init__(self, polygons, gluing, label: str = ""):
        polys = []
        scalars = []
        for poly in polygons:
            edges = []
            for v in poly:
                if not isinstance(v, Vec2):
                    v = Vec2(*v)
                edges.append(v)
                scalars.extend((v.x, v.y))
            polys.append(tuple(edges))
        ctx = unify_ctx(*scalars) if scalars else QQ
        polys = [
            tuple(e if e.ctx is ctx else Vec2(e.x.with_ctx(ctx), e.y.with_ctx(ctx))
                  for e in poly)
            for poly in polys
        ]
        gl: dict[EdgeRef, EdgeRef] = {}
        for a, b in dict(gluing).items() if isinstance(gluing, dict) else gluing:
            a = (int(a[0]), int(a[1]))
            b = (int(b[0]), int(b[1]))
            gl[a] = b
            gl[b] = a
        self.polygons = tuple(polys)
        self.gluing = gl
        self.ctx = ctx
        self.label = label
        self._cache: dict = {}
        self._validate_structure()

    # -- structural checks run for every surface -----------------------

    def _validate_structure(self):
        all_refs = {
            (p, e) for p in range(len(self.polygons))
            for e in range(len(self.polygons[p]))
        }
        if set(self.gluing) != all_refs:
            missing = sorted(all_refs - set(self.gluing))
            extra = sorted(set(self.gluing) - all_refs)
            raise GluingMismatch(f"gluing is not a perfect matching "
                                 f"(missing={missing}, unknown={extra})")
        for a, b in self.gluing.items():
            if self.gluing[b] != a or a == b:
                raise GluingMismatch(f"gluing is not an involution at {a}")

    def edge_vector(self, ref: EdgeRef) -> Vec2:
        return self.polygons[ref[0]][ref[1]]

    def num_polygons(self) -> int:
        return len(self.polygons)

    def edge_refs(self):
        for p, poly in enumerate(self.polygons):
            for e in range(len(poly)):
                yield (p, e)

    def vertices(self, p: int) -> list[Vec2]:
        key = ("verts", p)
        if key not in self._cache:
            lat = self.lattice()
            self._cache[key] = [lat.vec2(v) for v in lat.verts[p]]
        return self._cache[key]

    def lattice(self) -> Lattice:
        """The integer form of every polygon (`polygon.Lattice`)."""
        if "lattice" not in self._cache:
            self._cache["lattice"] = Lattice(self.polygons)
        return self._cache["lattice"]

    def area2(self) -> FieldScalar:
        """Twice the flat area."""
        return self.lattice().area2()

    def area(self) -> FieldScalar:
        return self.area2() / 2

    # -- corner combinatorics ------------------------------------------

    def next_corner(self, corner: EdgeRef) -> EdgeRef:
        """The next corner counterclockwise around the same vertex.

        Corner (p, i) sits at vertex i of polygon p; rotating ccw past
        the incoming edge i-1 lands on the glued polygon's corner at the
        matching vertex.
        """
        p, i = corner
        n = len(self.polygons[p])
        return self.gluing[(p, (i - 1) % n)]

    def vertex_class_map(self) -> dict[EdgeRef, int]:
        """corner -> vertex class index, using validated singularity data."""
        data = self.singularities()
        out = {}
        for ci, cls in enumerate(data.classes):
            for corner in cls:
                out[corner] = ci
        return out

    # -- full validation -------------------------------------------------

    def singularities(self) -> SingularityData:
        if "sing" in self._cache:
            return self._cache["sing"]
        lat = self.lattice()
        for p, (edges, verts) in enumerate(zip(lat.edges, lat.verts)):
            # no edges close up; check_simple then rejects the polygon
            if edges and _add(verts[-1], edges[-1]) != _ORIGIN:
                raise NonClosedPolygon(f"polygon {p} does not close up")
            try:
                check_simple(edges, verts, lat.d)
            except ValueError as exc:
                raise NonSimplePolygon(f"polygon {p}: {exc}") from None
        for a, b in self.gluing.items():
            if _add(lat.edges[a[0]][a[1]], lat.edges[b[0]][b[1]]) != _ORIGIN:
                raise GluingMismatch(
                    f"glued edges {a} and {b} are not opposite vectors")
        self._check_connected()

        corners = [(p, i) for p in range(len(self.polygons))
                   for i in range(len(self.polygons[p]))]
        seen = set()
        classes = []
        for start in corners:
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            cur = self.next_corner(start)
            while cur != start:
                cycle.append(cur)
                seen.add(cur)
                cur = self.next_corner(cur)
            classes.append(cycle)

        cone_orders = []
        for cycle in classes:
            turns = 0
            for corner in cycle:
                turns += corner_crosses_east(*lat.corner_rays(corner), lat.d)
            if turns < 1:
                raise BadConeAngle(f"vertex class {cycle[0]} has angle < 2*pi")
            cone_orders.append(turns - 1)

        v = len(classes)
        e = len(self.gluing) // 2
        f = len(self.polygons)
        chi = v - e + f
        if chi % 2 != 0 or chi > 0:
            raise BadConeAngle(f"Euler characteristic {chi} is not that of a "
                               f"closed surface of genus >= 1")
        genus = (2 - chi) // 2
        if sum(cone_orders) != 2 * genus - 2:
            raise BadConeAngle(
                f"cone orders {cone_orders} violate the angle-count identity "
                f"for genus {genus}")
        data = SingularityData(classes, cone_orders, genus)
        self._cache["sing"] = data
        return data

    def _check_connected(self):
        n = len(self.polygons)
        if n == 0:
            raise NotConnected("surface has no polygons")
        seen = {0}
        stack = [0]
        while stack:
            p = stack.pop()
            for e in range(len(self.polygons[p])):
                q = self.gluing[(p, e)][0]
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        if len(seen) != n:
            raise NotConnected("polygon gluing graph is disconnected")

    # -- value semantics ---------------------------------------------------

    def _key(self):
        gl = tuple(sorted((a, b) for a, b in self.gluing.items() if a < b))
        return (self.ctx.d, self.polygons, gl, self.label)

    def __eq__(self, other):
        if not isinstance(other, TranslationSurface):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        name = self.label or "surface"
        return (f"TranslationSurface({name}: {len(self.polygons)} polygons, "
                f"d={self.ctx.d})")

    # -- GL(2, R) action ---------------------------------------------------

    def apply_matrix(self, g: Mat2, label: str | None = None) -> "TranslationSurface":
        """The linear action on every edge vector.

        Orientation-reversing matrices flip each polygon's boundary
        order so the result is again positively oriented.

        With det > 0 the image carries this surface's singularity data,
        validating this surface first if it has not been.  A linear map
        of positive determinant keeps every polygon closed, simple and
        counterclockwise and keeps glued edges opposite; corners and
        gluing, hence the vertex classes, are the same.  Along a path
        from the identity to g in GL+(2,R), which is connected, every
        corner angle moves continuously within (0, 2*pi), so each
        vertex's total angle, always a multiple of 2*pi, cannot change.
        """
        det_sign = g.det().sign()
        if det_sign == 0:
            raise SingularMatrix("matrix has determinant zero")
        if label is None:
            label = self.label
        if det_sign > 0:
            data = self.singularities()
            polys = [[g.apply(e) for e in poly] for poly in self.polygons]
            gl = {a: b for a, b in self.gluing.items() if a < b}
            image = TranslationSurface(polys, gl.items(), label)
            image._cache["sing"] = data
            return image
        polys = []
        for poly in self.polygons:
            n = len(poly)
            polys.append([-g.apply(poly[n - 1 - i]) for i in range(n)])
        remap = {}
        for (p, e), (q, f) in self.gluing.items():
            np_, nq = len(self.polygons[p]), len(self.polygons[q])
            remap[(p, np_ - 1 - e)] = (q, nq - 1 - f)
        gl = {a: b for a, b in remap.items() if a < b}
        return TranslationSurface(polys, gl.items(), label)


def validate(surface: TranslationSurface) -> SingularityData:
    """Full validation; returns cone orders, genus and stratum signature."""
    return surface.singularities()


def _parse_perm(perm, n: int) -> list[int]:
    """Permutations of 1..n as mapping lists (1-based values), dicts or
    cycle tuples.

    Every form must name entries in 1..n, none twice, and give a
    permutation; anything else is a ValueError.
    """
    if isinstance(perm, dict):
        pairs = list(perm.items())
    else:
        perm = list(perm)
        if perm and not isinstance(perm[0], (list, tuple)):
            if sorted(perm) != list(range(1, n + 1)):
                raise ValueError(f"not a permutation of 1..{n}: {perm}")
            return [v - 1 for v in perm]
        pairs = [(a, cyc[(i + 1) % len(cyc)])
                 for cyc in perm for i, a in enumerate(cyc)]
    table = list(range(n))
    moved = set()
    for a, b in pairs:
        for x in (a, b):
            if not isinstance(x, int) or not 1 <= x <= n:
                raise ValueError(f"permutation entry {x!r} is not in 1..{n}")
        if a in moved:
            raise ValueError(f"permutation entry {a} appears twice")
        moved.add(a)
        table[a - 1] = b - 1
    if sorted(table) != list(range(n)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    return table


def square_tiled(h, v, n: int | None = None, label: str = "") -> TranslationSurface:
    """The origami with n unit squares, right neighbor h, top neighbor v.

    h and v may be mapping lists like [2, 1, 3] or cycle tuples like
    [(1, 2)]; squares are numbered from 1.
    """
    if n is None:
        flat = []
        for perm in (h, v):
            perm = list(perm)
            if perm and isinstance(perm[0], (list, tuple)):
                for cyc in perm:
                    flat.extend(cyc)
            else:
                flat.extend(perm)
        n = max(flat) if flat else 1
    ht = _parse_perm(h, n)
    vt = _parse_perm(v, n)

    one = FieldScalar(1)
    zero = FieldScalar(0)
    square = [Vec2(one, zero), Vec2(zero, one), Vec2(-one, zero), Vec2(zero, -one)]
    polys = [list(square) for _ in range(n)]
    # edges: 0 bottom, 1 right, 2 top, 3 left
    gluing = []
    for i in range(n):
        gluing.append(((i, 1), (ht[i], 3)))
        gluing.append(((i, 2), (vt[i], 0)))
    reach = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in (ht[i], vt[i], ht.index(i), vt.index(i)):
            if j not in reach:
                reach.add(j)
                stack.append(j)
    if len(reach) != n:
        raise NotConnected("the two permutations do not act transitively")
    surf = TranslationSurface(polys, gluing, label or f"origami-{n}")
    surf.singularities()
    return surf


def l_shape(w1, h1, w2, h2, label: str = "") -> TranslationSurface:
    """The L-shaped surface: a w1 x h1 block with a w2 x h2 block on top.

    Opposite parallel sides are glued; requires 0 < w2 < w1 and all
    lengths positive.  Genus 2 with a single cone point of order 2.
    """
    vals = []
    for x in (w1, h1, w2, h2):
        if not isinstance(x, FieldScalar):
            x = FieldScalar(x)
        vals.append(x)
    w1, h1, w2, h2 = vals
    for name, x in zip(("w1", "h1", "w2", "h2"), vals):
        if x.sign() <= 0:
            raise NonPositiveLength(f"{name} must be positive")
    if (w1 - w2).sign() <= 0:
        raise NonPositiveLength("w1 - w2 must be positive (w2 < w1)")
    zero = FieldScalar(0)
    edges = [
        Vec2(w2, zero),        # 0 bottom left part
        Vec2(w1 - w2, zero),   # 1 bottom right part
        Vec2(zero, h1),        # 2 right side
        Vec2(w2 - w1, zero),   # 3 step, leftward
        Vec2(zero, h2),        # 4 upper right side
        Vec2(-w2, zero),       # 5 top
        Vec2(zero, -h2),       # 6 upper left side
        Vec2(zero, -h1),       # 7 lower left side
    ]
    gluing = [((0, 0), (0, 5)), ((0, 1), (0, 3)), ((0, 2), (0, 7)), ((0, 4), (0, 6))]
    surf = TranslationSurface([edges], gluing, label or "l-shape")
    surf.singularities()
    return surf
