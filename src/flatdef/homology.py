"""Homology frames: integer bases of H_1(X, Sigma; Z) and everything
hanging off them (periods, absolute subspace, intersection pairing,
cocycles, and the integer class of a path of polygon chords, counted
in whole edges).

Cell structure: one 1-cell per glued edge pair, oriented along the
lexicographically smaller (polygon, edge) of the pair; 2-cells are the
polygons; 0-cells the vertex classes.  Since every 0-cell is a marked
point or cone point, H_1(X, Sigma; Z) is the cokernel of the face
boundary map on 1-chains, and a basis is read off from a Smith normal
form with deterministic pivoting.

A cocycle holds its values as integer quadruples over one denominator,
in the layout of `polygon.Lattice` points.  The period cocycle is summed
from the lattice form's edges over the basis chains, and the absolute
projection and `evaluate` are integer dot products; ComplexScalars are
built only where values are read.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd

from .errors import InternalInvariantError, StaleCocycle
from .field import QQ, FieldScalar, _new, _sum_is_one, _text, join_ctx
from .intmat import integer_kernel, smith_form
from .linalg import ComplexScalar, _content, _qmul, _quads
from .surface import TranslationSurface

__all__ = ["HomologyFrame", "Cocycle", "homology_frame", "PathPoint",
           "Chord"]


# a point on a polygon boundary: ("vertex", i) or ("edge", e, t) with the
# parameter t in (0, 1) measured along the polygon's own edge direction
PathPoint = tuple

# a straight run inside one polygon, from one boundary point to another
Chord = tuple  # (polygon_index, PathPoint, PathPoint)


def _combine(coeffs, quads) -> tuple:
    """sum_k coeffs[k] * quads[k] for integer coefficients: a cocycle's
    value on a class, or a period from edge vectors."""
    a = b = c = e = 0
    for k, q in zip(coeffs, quads):
        if k:
            a += k * q[0]
            b += k * q[1]
            c += k * q[2]
            e += k * q[3]
    return a, b, c, e


class Cocycle:
    """An element of H^1(M, Sigma; C): complex values on the frame basis.

    Held on integers, as `linalg.Echelon` eliminates it: value k is
    (ra + rb*sqrt(d) + i*(ia + ib*sqrt(d)))/D with `quads[k]` =
    (ra, rb, ia, ib), D > 0 and the gcd of D and every entry 1, so equal
    cocycles hold equal integers; `ctx` is QQ when every value is
    rational.  `values`, the ComplexScalars, are built when first read.
    """

    __slots__ = ("quads", "D", "ctx", "frame_hash", "_values")

    def __init__(self, values, frame_hash: str):
        quads, D, ctx, _ = _quads(values)
        self._set(quads, D, ctx, frame_hash)

    @classmethod
    def _of(cls, quads, D, ctx, frame_hash: str) -> "Cocycle":
        """The cocycle of integer quadruples over D (non-zero) in `ctx`."""
        out = object.__new__(cls)
        out._set(quads, D, ctx, frame_hash)
        return out

    def _set(self, quads, D, ctx, frame_hash):
        g = gcd(D, _content(quads))
        if D < 0:
            g = -g
        if g != 1:
            quads = [(a // g, b // g, c // g, e // g) for a, b, c, e in quads]
        if not any(q[1] or q[3] for q in quads):
            ctx = QQ
        for name, value in (("quads", tuple(quads)), ("D", D // g),
                            ("ctx", ctx), ("frame_hash", frame_hash),
                            ("_values", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("Cocycle is immutable")

    @property
    def values(self) -> tuple:
        if self._values is None:
            object.__setattr__(self, "_values", tuple(
                self._complex(q) for q in self.quads))
        return self._values

    def _complex(self, q) -> ComplexScalar:
        """The quadruple q over this D as a ComplexScalar."""
        return ComplexScalar(_new(q[0], q[1], self.D, self.ctx),
                             _new(q[2], q[3], self.D, self.ctx))

    def is_real(self) -> bool:
        return not any(q[2] or q[3] for q in self.quads)

    def scale(self, c) -> "Cocycle":
        (w,), Dc, ctx, _ = _quads([c], self.ctx)
        d = ctx.d
        return Cocycle._of([_qmul(w, q, d) for q in self.quads], self.D * Dc,
                           ctx, self.frame_hash)

    def __add__(self, other: "Cocycle") -> "Cocycle":
        if self.frame_hash != other.frame_hash:
            raise StaleCocycle("cocycles live on different frames")
        s, t = other.D, self.D
        ctx = join_ctx(QQ, *(c.sqrt_gen() for c in (self.ctx, other.ctx)
                             if c.d))
        return Cocycle._of(
            [tuple(x * s + y * t for x, y in zip(p, q))
             for p, q in zip(self.quads, other.quads)],
            s * t, ctx, self.frame_hash)

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return (self.frame_hash == other.frame_hash and self.D == other.D
                and self.quads == other.quads and self.ctx.d == other.ctx.d)

    def __repr__(self):
        return f"Cocycle({[str(v) for v in self.values]})"


# The names of the frame's integer data.  It depends only on polygon
# sizes, edge indices, gluing and vertex classes, which an image of
# positive determinant shares with its source, so the surface keeps it in
# the family cache that `TranslationSurface.apply_matrix` shares with such
# images.
_FRAME_DATA = ("cells", "cell_of", "m", "_coord_cols", "basis_chains",
               "boundary_matrix", "absolute_basis", "_ray_cycles",
               "intersection_matrix")


class HomologyFrame:
    """A chosen integer basis of H_1(X, Sigma; Z) with derived data.

    The integer data (`_FRAME_DATA`) is computed and self-checked once
    and kept in the surface's family cache (`TranslationSurface._family`);
    a frame of a surface whose family already holds it computes only its
    own `hash`.
    """

    def __init__(self, surface: TranslationSurface):
        self.surface = surface
        data = surface.singularities()
        self.genus = data.genus
        ints = surface._family.get("frame_data")
        if ints is None:
            self._build(surface, data)
            surface._family["frame_data"] = {
                name: vars(self)[name] for name in _FRAME_DATA}
        else:
            vars(self).update(ints)

        self.hash = self._content_hash()

    def _build(self, surface, data):
        """Compute the integer data from the cell structure, with its
        self-checks."""
        refs = sorted(surface.edge_refs())
        cells = []
        cell_of: dict = {}
        for ref in refs:
            if ref in cell_of:
                continue
            partner = surface.gluing[ref]
            idx = len(cells)
            cells.append(ref)
            cell_of[ref] = (idx, 1)
            cell_of[partner] = (idx, -1)
        self.cells = tuple(cells)
        self.cell_of = cell_of
        ne = len(cells)
        sizes = [len(edges) for edges in surface.lattice().edges]

        # face boundaries as integer vectors in Z^E
        faces = []
        for p, n in enumerate(sizes):
            row = [0] * ne
            for e in range(n):
                c, s = cell_of[(p, e)]
                row[c] += s
            faces.append(row)
        diag, _, v, vinv = smith_form(faces)
        if any(d != 1 for d in diag):
            raise InternalInvariantError(
                f"relative H_1 has torsion {diag}; surface data is corrupt")
        r = len(diag)
        self.m = ne - r
        s = data.num_points
        if self.m != 2 * self.genus + s - 1:
            raise InternalInvariantError(
                f"basis size {self.m} != 2g+s-1 = {2 * self.genus + s - 1}")
        self._coord_cols = [[v[row][j] for j in range(r, ne)] for row in range(ne)]
        self.basis_chains = tuple(tuple(vinv[j]) for j in range(r, ne))
        for k, chain in enumerate(self.basis_chains):
            want = [1 if i == k else 0 for i in range(self.m)]
            if self.coords_of_chain(chain) != want:
                raise InternalInvariantError("basis chain coordinates inconsistent")
        for row in faces:
            if any(x != 0 for x in self.coords_of_chain(row)):
                raise InternalInvariantError("face boundary has nonzero coordinates")

        # vertex classes and the boundary map on basis classes
        vertex_class_of = surface.vertex_class_map()
        nv = data.num_points
        bnd = []
        for chain in self.basis_chains:
            out = [0] * nv
            for c, coeff in enumerate(chain):
                if coeff == 0:
                    continue
                p, e = self.cells[c]
                tail = vertex_class_of[(p, e)]
                head = vertex_class_of[(p, (e + 1) % sizes[p])]
                out[head] += coeff
                out[tail] -= coeff
            bnd.append(out)
        self.boundary_matrix = tuple(tuple(row) for row in bnd)

        ker = integer_kernel(bnd)
        if len(ker) != 2 * self.genus:
            raise InternalInvariantError(
                f"absolute subspace rank {len(ker)} != 2g = {2 * self.genus}")
        self.absolute_basis = tuple(tuple(x) for x in ker)

        # ccw ray cycles around each vertex class, as (cell, sign) ends
        self._ray_cycles = []
        for cycle in data.classes:
            self._ray_cycles.append(tuple(cell_of[corner] for corner in cycle))

        jmat = []
        abs_chains = [self.chain_of_coords(v) for v in self.absolute_basis]
        for a in abs_chains:
            jmat.append(tuple(self.intersection_of_chains(a, b)
                              for b in abs_chains))
        self.intersection_matrix = tuple(jmat)
        for i in range(2 * self.genus):
            for j in range(2 * self.genus):
                if jmat[i][j] != -jmat[j][i]:
                    raise InternalInvariantError("intersection form not antisymmetric")

    # -- coordinates -----------------------------------------------------

    def coords_of_chain(self, chain) -> list[int]:
        """Frame coordinates of an integer 1-chain given in Z^E, summed
        over its nonzero entries."""
        cols = [(c, col) for c, col in zip(chain, self._coord_cols) if c]
        return [sum(c * col[k] for c, col in cols) for k in range(self.m)]

    def chain_of_coords(self, coords) -> list[int]:
        """A representative chain in Z^E for frame coordinates."""
        ne = len(self.cells)
        out = [0] * ne
        for k, c in enumerate(coords):
            if c:
                for e in range(ne):
                    out[e] += c * self.basis_chains[k][e]
        return out

    def cell_coords(self, ref) -> list[int]:
        """Frame coordinates of a single oriented polygon edge."""
        c, s = self.cell_of[ref]
        return [s * self._coord_cols[c][k] for k in range(self.m)]

    # -- geometry of cells -------------------------------------------------

    def periods(self) -> tuple[ComplexScalar, ...]:
        """Exact periods of the basis classes (the period map Phi)."""
        return self.period_cocycle().values

    def period_cocycle(self) -> Cocycle:
        """[omega] as a cocycle: the tautological period class, summed
        over the basis chains from the lattice form's edges."""
        lat = self.surface.lattice()
        vectors = [lat.edges[p][e] for p, e in self.cells]
        quads = [_combine(chain, vectors) for chain in self.basis_chains]
        return Cocycle._of(quads, lat.D, lat.ctx, self.hash)

    # -- intersection pairing ----------------------------------------------

    def intersection_of_chains(self, a, b) -> int:
        """Algebraic intersection number of two closed integer 1-chains.

        Strands are pushed off so that all crossings happen in vertex
        disks and at shared cells; at a vertex with ccw ray ends r_1..r_N
        the count is sum_{k<j} I_a(r_k) I_b(r_j), plus a_c b_c over cells.
        Requires both chains to be cycles (zero boundary).
        """
        total = sum(x * y for x, y in zip(a, b))
        for cycle in self._ray_cycles:
            prefix = 0
            for cell, sign in cycle:
                ib = sign * b[cell]
                if ib:
                    total += prefix * ib
                prefix += sign * a[cell]
        return total

    def j_inverse(self):
        """Inverse of the intersection matrix; integral by unimodularity.

        The Smith form gives unimodular U and V with U J V diagonal: J is
        invertible exactly when the diagonal has 2g entries, unimodular
        when each is 1, and then J^-1 = V U.
        """
        n = 2 * self.genus
        diag, U, V, _ = smith_form(self.intersection_matrix)
        if len(diag) < n:
            raise InternalInvariantError("intersection form singular")
        if any(x != 1 for x in diag):
            raise InternalInvariantError("intersection form is not unimodular")
        return tuple(tuple(sum(V[i][k] * U[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))

    def symplectic_pairing(self, phi, psi):
        """Cup-product pairing of two absolute cocycle value vectors.

        phi and psi hold the values on the absolute basis (as returned by
        project_absolute, real or complex).  Cocycle vectors are J-images
        of homology classes, so the pairing pulls back through J^{-1}:
        <phi, psi> = phi^T J^{-T} psi, which vanishes exactly when the
        Poincare-dual classes have zero intersection.
        """
        jinv = self.j_inverse()
        n = 2 * self.genus
        total = None
        for i in range(n):
            for j in range(n):
                c = jinv[j][i]  # transpose of J^{-1}
                if c:
                    term = phi[i] * psi[j] * c
                    total = term if total is None else total + term
        if total is None:
            return ComplexScalar(FieldScalar(0, 0, self.surface.ctx))
        return total

    # -- absolute projection -------------------------------------------------

    def _absolute_quads(self, cocycle: Cocycle) -> list[tuple]:
        """The restriction to the absolute subspace basis (length 2g) as
        integer quadruples over the cocycle's D."""
        self.check(cocycle)
        return [_combine(vec, cocycle.quads) for vec in self.absolute_basis]

    def project_absolute(self, cocycle: Cocycle) -> tuple[ComplexScalar, ...]:
        """Restriction of a cocycle to the absolute subspace basis (length 2g)."""
        return tuple(cocycle._complex(q)
                     for q in self._absolute_quads(cocycle))

    def evaluate(self, cocycle: Cocycle, coords) -> ComplexScalar:
        """Value of a cocycle on a class given in frame coordinates."""
        self.check(cocycle)
        return cocycle._complex(_combine(coords, cocycle.quads))

    def cocycle(self, values) -> Cocycle:
        if len(values) != self.m:
            raise ValueError(f"cocycle needs {self.m} values")
        return Cocycle(values, self.hash)

    def check(self, cocycle: Cocycle) -> None:
        if cocycle.frame_hash != self.hash:
            raise StaleCocycle("cocycle was computed against a different frame")

    # -- paths to classes -----------------------------------------------------

    def chain_of_path(self, chords) -> list[int]:
        """The 1-chain in Z^E of a path given as polygon chords.

        Each chord (polygon, start, end), homotoped rel endpoints onto
        its polygon's boundary, counts the edges from its entry edge (or
        start vertex) up to and including its exit edge (or up to its
        end vertex), negatively when that run goes backwards.  Where the
        path crosses a gluing, the chords on either side run along parts
        t and 1 - t of the glued edge, which make up the one edge counted.
        So each chord must start on the partner of the edge the one
        before it (cyclically) exits, at 1 - t, or at a vertex after one
        that ends at a vertex; any other join raises.
        """
        cell_of, gluing = self.cell_of, self.surface.gluing
        acc = [0] * len(self.cells)
        for i, (p, start, end) in enumerate(chords):
            q, _, last = chords[i - 1]
            joined = start[0] == last[0] == "vertex" or (
                start[0] == last[0] == "edge"
                and gluing[(q, last[1])] == (p, start[1])
                and _sum_is_one(last[2], start[2]))
            if not joined:
                raise InternalInvariantError(
                    f"path breaks between chords {i - 1} and {i}")
            lo, hi = start[1], end[1] + (end[0] == "edge")
            for e in range(min(lo, hi), max(lo, hi)):
                c, s = cell_of[(p, e)]
                acc[c] += s if lo < hi else -s
        return acc

    def coords_of_path(self, chords) -> list[int]:
        return self.coords_of_chain(self.chain_of_path(chords))

    # -- hashing -----------------------------------------------------------

    def _content_hash(self) -> str:
        lat = self.surface.lattice()
        D, d = lat.D, lat.d
        payload = {
            "d": d,
            "polygons": [[[_text(xa, xb, D, d), _text(ya, yb, D, d)]
                          for xa, xb, ya, yb in edges] for edges in lat.edges],
            "gluing": sorted([list(a), list(b)]
                             for a, b in self.surface.gluing.items() if a < b),
            "cells": [list(c) for c in self.cells],
            "basis": [list(c) for c in self.basis_chains],
            "absolute": [list(v) for v in self.absolute_basis],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def __repr__(self):
        return (f"HomologyFrame(m={self.m}, genus={self.genus}, "
                f"hash={self.hash})")


def homology_frame(surface: TranslationSurface) -> HomologyFrame:
    if "frame" not in surface._cache:
        surface._cache["frame"] = HomologyFrame(surface)
    return surface._cache["frame"]

