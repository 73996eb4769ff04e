"""Cylinder deformations in period coordinates.

The twist cocycle I_i of cylinder i takes, on each homology class, the
signed count of crossings with its core circle; scaled by the heights
and summed over a cylinder set it is the derivative of the cylinder
shear.  Every cocycle built here reads I_i from the decomposition's
crossing table (`Decomposition.crossings`), which checks once, on
integers, that I_i vanishes on the direction's saddle connections and
core classes and is dual to the cross classes.  Shear and stretch act by
one matrix M on the chosen cylinders of the normalized surface: a frame
cell whose member share in the decomposition's cut is s goes to g^-1
(M(s v) + (1 - s) v).  When the chosen cylinders fill the surface the
deformation is the input surface's GL(2,R) image under g^-1 M g;
otherwise the surface is recut along exactly those cylinder boundaries
where moved and fixed regions meet.  Linearity in period coordinates
is checked exactly, on integers in normalized coordinates.  A
decomposition carries its surface and frame; a surface or frame handed
beside it (to `shear`, `stretch`, `twist_space`,
`cylinder_preserving_space`, `verify_linearity`) goes through
`Decomposition.check_own`.
"""

from __future__ import annotations

from .cylinders import (Decomposition, _build_cut_pieces, _mates,
                        _point_coords, decompose)
from .errors import (DeformationTooLarge, DegenerateCylinder, FlatdefError,
                     InternalInvariantError)
from .field import FieldScalar, Mat2, Vec2, _as_scalar, join_ctx
from .homology import Cocycle, HomologyFrame, homology_frame
from .linalg import _quads, rational_relation_lattice, row_reduce
from .polygon import _mul, _pairs
from .surface import TranslationSurface

__all__ = ["eta", "eta_normalized", "shear", "stretch", "twist_space",
           "cylinder_preserving_space", "torus_closure", "verify_linearity",
           "deform_from_periods", "TorusClosure"]


def _cylinder_subset(decomposition, ids):
    if ids is None:
        return list(decomposition.cylinders)
    chosen = [cyl for cyl in decomposition.cylinders if cyl.cyl_id in ids]
    if len(chosen) != len(set(ids)):
        raise ValueError(f"unknown cylinder ids in {sorted(set(ids))}")
    return chosen


def _crossing_cocycle(decomposition: Decomposition, weighted,
                      factor=1) -> Cocycle:
    """The cocycle sum_i w_i I_i over (w_i, cylinder_i) pairs, with I_i
    read from the decomposition's crossing table, times `factor`; on
    integers: the field scalars w_i are pairs over one denominator W,
    and each value a pair over W times the factor's quadruple."""
    scalars = [w for w, _ in weighted]
    weights, W = _pairs(scalars)
    (f,), F, ctx, _ = _quads(
        [factor], join_ctx(decomposition.view.ctx, *scalars))
    fa, fb, fc, fe = f
    d = ctx.d
    rows = [(w, decomposition.crossings[cyl.cyl_id])
            for w, (_, cyl) in zip(weights, weighted)]
    quads = []
    for k in range(decomposition.frame.m):
        a = b = 0
        for (wa, wb), row in rows:
            if row[k]:
                a += wa * row[k]
                b += wb * row[k]
        quads.append((a * fa + d * b * fb, a * fb + b * fa,
                      a * fc + d * b * fe, a * fe + b * fc))
    return Cocycle._of(quads, W * F, ctx, decomposition.frame.hash)


def eta_normalized(decomposition: Decomposition, ids=None) -> Cocycle:
    """Sum of height-weighted core-crossing cocycles, in normalized frame
    coordinates (real values; the shear derivative on the normalized
    surface)."""
    chosen = _cylinder_subset(decomposition, ids)
    return _crossing_cocycle(decomposition,
                             [(cyl.height, cyl) for cyl in chosen])


def eta(decomposition: Decomposition, ids=None) -> Cocycle:
    """The shear derivative for the decomposition's own direction.

    Transported through the inverse normalizing matrix, so adding
    t * eta to the periods of the original surface is exactly the
    direction-v cylinder shear by t.
    """
    chosen = _cylinder_subset(decomposition, ids)
    return _crossing_cocycle(decomposition,
                             [(cyl.height, cyl) for cyl in chosen],
                             decomposition.transport_factor())


def twist_space(surface: TranslationSurface, frame: HomologyFrame,
                decomposition: Decomposition):
    """Exact basis of the span of the per-cylinder shear cocycles.

    Returns (basis, dim).  Cylinder i's cocycle h_i I_i takes h_i on its
    own cross class and 0 on every other, a duality the crossing table
    checks, so the cocycles are independent and dim is the number of
    cylinders.
    """
    decomposition.check_own(surface, frame)
    if not decomposition.is_periodic:
        raise ValueError("twist space needs a Periodic decomposition")
    gens = [eta_normalized(decomposition, [cyl.cyl_id])
            for cyl in decomposition.cylinders]
    return gens, len(gens)


def cylinder_preserving_space(surface: TranslationSurface,
                              frame: HomologyFrame,
                              decomposition: Decomposition):
    """Real cocycles vanishing on every core class, as frame cocycles.

    Computed relative to the stratum (the full dual).  It contains the
    twist space because every I_i vanishes on every core class, which
    reading the crossing table checks.
    """
    decomposition.check_own(surface, frame)
    if not decomposition.is_periodic:
        raise ValueError("cylinder-preserving space needs a Periodic "
                         "decomposition")
    decomposition.crossings  # read for its checks
    # integer rows: their RREF over Q is the one over the field
    rows = [list(cyl.core_coords) for cyl in decomposition.cylinders]
    _, _, null = row_reduce(rows, ncols=frame.m)
    basis = [frame.cocycle(vec) for vec in null]
    return basis, len(basis)


class TorusClosure:
    """Closure data of a multi-parameter cylinder twist."""

    __slots__ = ("dimension", "allowed_basis", "relation_basis",
                 "rational_solution", "cocycle")

    def __init__(self, dimension, allowed_basis, relation_basis,
                 rational_solution, cocycle):
        self.dimension = dimension
        self.allowed_basis = allowed_basis
        self.relation_basis = relation_basis
        self.rational_solution = rational_solution
        self.cocycle = cocycle


def torus_closure(moduli,
                  decomposition: Decomposition | None = None) -> TorusClosure:
    """Closure of the twist flow with the given cylinder moduli.

    The allowed twist parameters A are the rational vectors satisfying
    every homogeneous rational relation the moduli do; the closure
    dimension is dim A.  A nonzero rational solution is always returned;
    when a decomposition is supplied, so is the induced rational tangent
    cocycle sum_i t_i c_i I_i.
    """
    vals = [_as_scalar(m) for m in moduli]
    if any(m.sign() <= 0 for m in vals):
        raise ValueError("moduli must be positive")
    relations, allowed = rational_relation_lattice(vals)
    if not allowed:
        raise InternalInvariantError("positive moduli admit no twist at all")
    t = list(allowed[0])
    cocycle = None
    if decomposition is not None:
        if len(moduli) != len(decomposition.cylinders):
            raise ValueError("moduli do not match the decomposition")
        cocycle = _crossing_cocycle(
            decomposition, [(cyl.circumference * FieldScalar(ti), cyl)
                            for ti, cyl in zip(t, decomposition.cylinders)])
    return TorusClosure(len(allowed), [list(a) for a in allowed],
                        [list(r) for r in relations], t, cocycle)


# -- geometric shear and stretch -------------------------------------------


def _member_components(decomposition: Decomposition, member_ids) -> set:
    """The cut components of the chosen cylinders."""
    cut = decomposition.cut
    return {cut.pieces[cyl.piece_ids[0]].component
            for cyl in decomposition.cylinders if cyl.cyl_id in member_ids}


def _deformed_surface(decomposition: Decomposition, member_ids,
                      inner: Mat2) -> TranslationSurface:
    """The deformed surface: with every cut component a member, its
    image under conj = g^-1 @ inner @ g (det > 0, so the validation
    carries over); otherwise the recut, which a proper subset or a
    Partial decomposition's uncertified components need."""
    g = decomposition.matrix
    conj = g.inverse() @ inner @ g
    members = _member_components(decomposition, member_ids)
    if all(piece.component in members for piece in decomposition.cut.pieces):
        return decomposition.surface.apply_matrix(conj)
    return _recut_surface(decomposition, _recut(decomposition, members),
                          conj)


def _member_shares(decomposition: Decomposition, member_ids) -> list:
    """The member share s of each frame cell: the fraction of its vector
    v that sub-edges of member components cover in the cut, 1 when all
    do.  A linear `inner` moves the cell to g^-1 (inner(s v) + (1 - s) v).
    """
    members = _member_components(decomposition, member_ids)
    subs = decomposition.cut.subs
    ctx = decomposition.view.ctx
    zero, one = FieldScalar(0, 0, ctx), FieldScalar(1, 0, ctx)
    shares = []
    for cell in decomposition.frame.cells:
        inside = [item for item in subs[cell]
                  if item.piece.component in members]
        shares.append(one if len(inside) == len(subs[cell]) else
                      sum((item.t1 - item.t0 for item in inside), zero))
    return shares


def _recut(decomposition: Decomposition, members):
    """Recut the normalized view along the boundaries separating the
    member components from the rest.

    Returns (pieces, subs, treat), `treat` telling for each piece id
    whether the deformation acts on it.
    """
    view = decomposition.view
    cut = decomposition.cut

    # chords that separate a member region from a non-member region
    chord_sides = {}
    for piece in cut.pieces:
        for item in piece.items:
            if item.kind == "chord":
                side = chord_sides.setdefault(item.chord_id, {})
                side[item.direction] = piece.component
    needed = []
    for ch in cut.chords:
        sides = chord_sides[ch.chord_id]
        above = sides.get(1)
        below = sides.get(-1)
        if (above in members) != (below in members):
            needed.append(ch)

    reduced_by_polygon: dict[int, list] = {}
    for new_id, ch in enumerate(needed):
        reduced_by_polygon.setdefault(ch.polygon, []).append(
            ch._replace(chord_id=new_id))
    pieces, subs = _build_cut_pieces(view, reduced_by_polygon)

    # a reduced piece is a union of fine pieces of one membership, and
    # each of its sub-edges starts at a fine subdivision point, so its
    # first sub-edge off a horizontal edge names its treatment
    edges = view.lattice().edges
    member = {(p, e, fine.t0): fine.piece.component in members
              for (p, e), fines in cut.subs.items()
              if edges[p][e][2:] != (0, 0) for fine in fines}
    treat = {}
    for piece in pieces:
        for item in piece.items:
            key = (piece.polygon, item.edge, item.t0)
            if item.kind == "sub" and key in member:
                treat[piece.pid] = member[key]
                break
        else:
            raise InternalInvariantError("piece treatment undetermined")
    return pieces, subs, treat


def _recut_surface(decomposition: Decomposition, recut,
                   conj: Mat2) -> TranslationSurface:
    """The recut pieces as a surface, read on the surface itself (a
    vertex or edge parameter is the same on it and its normalized
    image), with `conj` applied to the treated ones."""
    surface = decomposition.surface
    pieces, subs, treat = recut

    # polygons of the deformed surface; piece ids are their positions
    new_polys = []
    for piece in pieces:
        poly = []
        for item in piece.items:
            vec = (_point_coords(surface, piece.polygon, item.end)
                   - _point_coords(surface, piece.polygon, item.start))
            poly.append(conj.apply(vec) if treat[piece.pid] else vec)
        new_polys.append(poly)

    # sub-edges pair with their mates across every cell, horizontal or
    # not, and each chord's two sides pair up
    gluing = [((item.piece.pid, item.index), (mate.piece.pid, mate.index))
              for p, e in subs for item, mate in _mates(surface, subs, p, e)]
    sides = {}
    for piece in pieces:
        for k, item in enumerate(piece.items):
            if item.kind == "chord":
                sides.setdefault(item.chord_id, []).append((piece.pid, k))
    gluing.extend(sides.values())
    return TranslationSurface(new_polys, gluing, surface.label)


def shear(surface: TranslationSurface, decomposition: Decomposition, t,
          ids=None):
    """The cylinder shear u_t applied to the chosen cylinders.

    With ids=None the whole certified cylinder set is sheared, which is
    the deformation that stays in the orbit closure; when that set fills
    the surface the result is its image under one matrix, otherwise it
    is rebuilt geometrically.  Its periods satisfy the exact linearity
    law, which verify_linearity re-checks independently.
    """
    decomposition.check_own(surface)
    chosen = {cyl.cyl_id for cyl in _cylinder_subset(decomposition, ids)}
    return _deformed_surface(decomposition, chosen, Mat2.shear(t))


def stretch(surface: TranslationSurface, decomposition: Decomposition, s,
            ids=None):
    """The cylinder stretch with vertical scale 1+s on the chosen set."""
    decomposition.check_own(surface)
    one_plus = FieldScalar(1) + _as_scalar(s)
    if one_plus.sign() <= 0:
        raise DegenerateCylinder("stretch needs 1 + s > 0")
    chosen = {cyl.cyl_id for cyl in _cylinder_subset(decomposition, ids)}
    return _deformed_surface(decomposition, chosen,
                             Mat2.vertical_scale(one_plus))


def verify_linearity(surface: TranslationSurface, frame: HomologyFrame,
                     decomposition: Decomposition, t, ids=None) -> bool:
    """Check Phi(u_t M) = Phi(M) + t * eta exactly, on integers.

    Phi(M) holds when the normalized lattice is the g-image of the
    surface's, so that g^-1 takes the normalized cells to the surface's.
    On the normalized surface u_t moves a frame cell of rise y_c and
    member share s_c in the cut by (t s_c y_c, 0); g^-1 maps (1, 0) to
    tau = transport_factor(), and eta = tau sum_i h_i I_i.  So the t
    term holds on each basis chain gamma_k when

        sum_c gamma_k[c] s_c y_c = sum_{i chosen} h_i I_i(gamma_k),

    with g^-1 (1, 0) = tau checked once: the left side from the cut, the
    right from the heights and the crossing table.  Both sides are
    linear in t, so t is only validated.
    Exact disagreement returns False and means a bug; a surface or frame
    that is not the decomposition's raises StaleCocycle.
    """
    decomposition.check_own(surface, frame)
    _as_scalar(t)  # raises on inexact input
    lat = decomposition.view.lattice()
    image = surface.lattice().image(decomposition.matrix)
    if (image.D, image.edges) != (lat.D, lat.edges):
        return False
    tau = decomposition.transport_factor()
    if decomposition.matrix.apply(Vec2(tau.re, tau.im)) != Vec2(1, 0):
        return False
    chosen = _cylinder_subset(decomposition, ids)
    # pairs (A, B) meaning A + B sqrt(d): s_c y_c over S * D, h_i over H
    shares, S = _pairs(_member_shares(decomposition,
                                      {cyl.cyl_id for cyl in chosen}))
    heights, H = _pairs([cyl.height for cyl in chosen])
    moved = [_mul(s, lat.edges[p][e][2:], lat.d)
             for s, (p, e) in zip(shares, frame.cells)]
    rows = [(h, decomposition.crossings[cyl.cyl_id])
            for h, cyl in zip(heights, chosen)]
    for k, chain in enumerate(frame.basis_chains):
        left = [H * sum(c * m[j] for c, m in zip(chain, moved) if c)
                for j in (0, 1)]
        right = [S * lat.D * sum(row[k] * h[j] for h, row in rows)
                 for j in (0, 1)]
        if left != right:
            return False
    return True


def deform_from_periods(surface: TranslationSurface, zeta: Cocycle,
                        eps) -> TranslationSurface:
    """Displace every edge holonomy by eps * zeta and rebuild.

    zeta must be a cocycle of the surface's own frame (`homology_frame`,
    or one with its hash); any other raises StaleCocycle.

    Raises DeformationTooLarge when any polygon stops being simple (or
    the stratum changes, or a real deformation fails to preserve the
    horizontal cylinder heights it must preserve).  Only input errors
    (FlatdefError) of the rebuilt surface become DeformationTooLarge; an
    InternalInvariantError propagates unchanged.
    """
    frame = homology_frame(surface)
    frame.check(zeta)
    eps = _as_scalar(eps)
    if eps.sign() < 0:
        raise ValueError("eps must be nonnegative; rescale zeta instead")
    shift = []
    for cell in frame.cells:
        val = frame.evaluate(zeta, frame.cell_coords(cell))
        shift.append(Vec2(val.re * eps, val.im * eps))

    def moved(p, e, vec):
        c, sign = frame.cell_of[(p, e)]
        return vec + shift[c] if sign > 0 else vec - shift[c]

    new_polys = [[moved(p, e, vec) for e, vec in enumerate(poly)]
                 for p, poly in enumerate(surface.polygons)]
    gl = [(a, b) for a, b in surface.gluing.items() if a < b]
    pre_data = surface.singularities()
    pre_horizontal = None
    if zeta.is_real() and eps.sign() > 0:
        pre_horizontal = decompose(surface, Vec2(1, 0))
    try:
        result = TranslationSurface(new_polys, gl, surface.label)
        post_data = result.singularities()
    except FlatdefError as exc:
        raise DeformationTooLarge(f"deformed surface is invalid: {exc}")
    if post_data.signature != pre_data.signature:
        raise DeformationTooLarge("deformation changed the stratum")
    if pre_horizontal is not None and pre_horizontal.is_periodic:
        post = decompose(result, Vec2(1, 0))
        pre_heights = sorted(c.height for c in pre_horizontal.cylinders)
        post_heights = sorted(c.height for c in post.cylinders)
        if not post.is_periodic or pre_heights != post_heights:
            raise DeformationTooLarge(
                "horizontal cylinders did not persist with their heights")
    return result
