"""Translation surfaces as glued polygons, with exact validation.

A surface is a list of polygons (cyclic edge-vector lists) plus a
perfect matching on (polygon, edge) pairs; glued edges carry exactly
opposite vectors.  Every polygon vertex is a cone point or marked point
of the flat metric.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    BadConeAngle,
    GluingMismatch,
    NonClosedPolygon,
    NonPositiveLength,
    NonSimplePolygon,
    NotConnected,
    SingularMatrix,
)
from .field import FieldScalar, Mat2, Vec2, _positive
from .polygon import (
    Lattice,
    _ORIGIN,
    _add,
    check_simple,
    corner_crosses_east,
)

__all__ = ["TranslationSurface", "SingularityData", "square_tiled", "l_shape"]

EdgeRef = tuple[int, int]  # (polygon index, edge index)


def _index(value) -> int:
    """A gluing index: an int, not a bool; anything else, such as 2.9 or
    "3", is a GluingMismatch, so no index is truncated or parsed."""
    if type(value) is not int:
        raise GluingMismatch(f"gluing index {value!r} is not an integer")
    return value


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
    """Immutable translation surface, valid from construction.

    Its coordinates are held once, in its lattice form (`lattice()`),
    which the constructor and `apply_matrix` both store by `_set`;
    `polygons` is built from that form the first time it is read.
    `_set` ends by validating the surface, so no invalid one exists.

    Computed data is cached in two dicts.  `_cache` holds what depends on
    the surface's own coordinates: its lattice form, area, homology
    frame, east corners and exit lines.  `_family` holds what every
    image of positive determinant shares with it, and `apply_matrix`
    hands such an image the same dict: the singularity data, the frame's
    integer data and the triangulation (`search.triangulated`).
    """

    def __init__(self, polygons, gluing, label: str = ""):
        polys = [[v if isinstance(v, Vec2) else Vec2(*v) for v in poly]
                 for poly in polygons]
        pairs = gluing.items() if isinstance(gluing, dict) else gluing
        self._family = {}
        self._set(Lattice(polys),
                  [((_index(a[0]), _index(a[1])), (_index(b[0]), _index(b[1])))
                   for a, b in pairs], label)

    def _set(self, lat: Lattice, pairs, label: str) -> None:
        """Store the lattice form, the gluing of the (a, b) pairs in
        their order and the label, check that the gluing is a perfect
        matching of the edges, and validate the surface.  The caller
        sets `_family` first; a det > 0 image's holds its source's data."""
        gluing: dict[EdgeRef, EdgeRef] = {}
        for a, b in pairs:
            gluing[a] = b
            gluing[b] = a
        self.gluing = gluing
        self.ctx = lat.ctx
        self.label = label
        self._cache = {"lattice": lat}
        all_refs = set(self.edge_refs())
        if set(gluing) != all_refs:
            missing = sorted(all_refs - set(gluing))
            extra = sorted(set(gluing) - all_refs)
            raise GluingMismatch(f"gluing is not a perfect matching "
                                 f"(missing={missing}, unknown={extra})")
        for a, b in gluing.items():
            if gluing[b] != a or a == b:
                raise GluingMismatch(f"gluing is not an involution at {a}")
        self.singularities()

    @cached_property
    def polygons(self) -> tuple[tuple[Vec2, ...], ...]:
        """The edge vectors of every polygon, built from the lattice
        form the first time they are read."""
        lat = self.lattice()
        return tuple(tuple(lat.vec2(e) for e in edges) for edges in lat.edges)

    def edge_refs(self):
        for p, edges in enumerate(self.lattice().edges):
            for e in range(len(edges)):
                yield (p, e)

    def vertices(self, p: int) -> list[Vec2]:
        """The vertices of polygon p, built from the lattice form on each
        call."""
        lat = self.lattice()
        return [lat.vec2(v) for v in lat.verts[p]]

    def lattice(self) -> Lattice:
        """The integer form of every polygon (`polygon.Lattice`)."""
        return self._cache["lattice"]

    def area2(self) -> FieldScalar:
        """Twice the flat area."""
        return self.lattice().area2()

    def area(self) -> FieldScalar:
        """The flat area, kept in `_cache` from its first read."""
        area = self._cache.get("area")
        if area is None:
            area = self._cache["area"] = self.area2() / 2
        return area

    # -- corner combinatorics ------------------------------------------

    def next_corner(self, corner: EdgeRef) -> EdgeRef:
        """The next corner counterclockwise around the same vertex.

        Corner (p, i) sits at vertex i of polygon p; rotating ccw past
        the incoming edge i-1 lands on the glued polygon's corner at the
        matching vertex.
        """
        p, i = corner
        n = len(self.lattice().edges[p])
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
        if "sing" in self._family:
            return self._family["sing"]
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
        sizes = [len(edges) for edges in lat.edges]
        if not sizes:
            raise NotConnected("surface has no polygons")
        if any(component_labels(len(sizes), lambda p: (
                self.gluing[(p, e)][0] for e in range(sizes[p])))):
            raise NotConnected("polygon gluing graph is disconnected")

        corners = [(p, i) for p, edges in enumerate(lat.edges)
                   for i in range(len(edges))]
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
        f = len(lat.edges)
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
        self._family["sing"] = data
        return data

    # -- value semantics ---------------------------------------------------

    def _key(self):
        # a surface's form is over the lcm of its coordinates' reduced
        # denominators, so equal surfaces have equal integers
        lat = self.lattice()
        gl = tuple(sorted((a, b) for a, b in self.gluing.items() if a < b))
        return (lat.d, lat.D, tuple(map(tuple, lat.edges)), gl, self.label)

    def __eq__(self, other):
        if not isinstance(other, TranslationSurface):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        name = self.label or "surface"
        return (f"TranslationSurface({name}: "
                f"{len(self.lattice().edges)} polygons, d={self.ctx.d})")

    # -- GL(2, R) action ---------------------------------------------------

    def apply_matrix(self, g: Mat2, label: str | None = None) -> "TranslationSurface":
        """The linear action on every edge vector.

        The image is computed on the lattice form (`Lattice.image`) and
        stored by `_set`, as the constructor stores its surface, with the
        gluing pairs in the order the constructor would be given them.
        Orientation-reversing matrices flip each polygon's boundary order
        so the result is again positively oriented.  The image's field
        is the form's.

        With det > 0 the image shares this surface's family cache
        (`_family`), so it is valid by this surface's validation.
        A linear map of positive determinant keeps every polygon closed,
        simple and counterclockwise and keeps glued edges opposite;
        corners and gluing, hence the vertex classes, are the same.
        Along a path from the identity to g in GL+(2,R), which is
        connected, every corner angle moves continuously within
        (0, 2*pi), so each vertex's total angle, always a multiple of
        2*pi, cannot change: the singularity data is the same.  So is
        the integer data of the homology frame (`homology.HomologyFrame`),
        which depends only on polygon sizes, edge indices, gluing and
        vertex classes, and the triangulation, whose ear-clip choices
        are orientation signs that such a map keeps.  With det < 0 the
        corners are renumbered: a family of its own, validated afresh.
        """
        det_sign = g.det().sign()
        if det_sign == 0:
            raise SingularMatrix("matrix has determinant zero")
        if label is None:
            label = self.label
        lat = self.lattice().image(g, reverse=det_sign < 0)
        pairs = self.gluing.items()
        if det_sign < 0:
            sizes = [len(edges) for edges in lat.edges]
            pairs = [((p, sizes[p] - 1 - e), (q, sizes[q] - 1 - f))
                     for (p, e), (q, f) in pairs]
        image = TranslationSurface.__new__(TranslationSurface)
        image._family = self._family if det_sign > 0 else {}
        # the pairs a < b, in the order the constructor is given them
        image._set(lat, [(a, b) for a, b in pairs if a < b], label)
        return image


def component_labels(n: int, neighbours) -> list[int]:
    """Each of 0..n-1 labelled with the least member of its component.

    `neighbours(i)` yields the indices one step from i; the steps must
    reach each index's whole component from it, as those of a symmetric
    relation or of permutations do.  Searching from each unlabelled
    index in increasing order starts at each component's least member.
    """
    labels = [-1] * n
    for root in range(n):
        if labels[root] < 0:
            labels[root] = root
            stack = [root]
            while stack:
                for j in neighbours(stack.pop()):
                    if labels[j] < 0:
                        labels[j] = root
                        stack.append(j)
    return labels


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
    [(1, 2)]; squares are numbered from 1.  n < 1 raises ValueError.
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
    if n < 1:
        raise ValueError(f"an origami has at least one square, not {n}")
    ht = _parse_perm(h, n)
    vt = _parse_perm(v, n)
    # the squares a search reaches by h and v alone form an orbit of the
    # group they generate, so forward steps find each component
    if any(component_labels(n, lambda i: (ht[i], vt[i]))):
        raise NotConnected("the two permutations do not act transitively")

    one = FieldScalar(1)
    zero = FieldScalar(0)
    square = [Vec2(one, zero), Vec2(zero, one), Vec2(-one, zero), Vec2(zero, -one)]
    polys = [list(square) for _ in range(n)]
    # edges: 0 bottom, 1 right, 2 top, 3 left
    gluing = []
    for i in range(n):
        gluing.append(((i, 1), (ht[i], 3)))
        gluing.append(((i, 2), (vt[i], 0)))
    return TranslationSurface(polys, gluing, label or f"origami-{n}")


def l_shape(w1, h1, w2, h2, label: str = "") -> TranslationSurface:
    """The L-shaped surface: a w1 x h1 block with a w2 x h2 block on top.

    Opposite parallel sides are glued; requires 0 < w2 < w1 and all
    lengths positive.  Genus 2 with a single cone point of order 2.
    """
    w1, h1, w2, h2 = (_positive(name, x) for name, x in
                      zip(("w1", "h1", "w2", "h2"), (w1, h1, w2, h2)))
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
    return TranslationSurface([edges], gluing, label or "l-shape")
