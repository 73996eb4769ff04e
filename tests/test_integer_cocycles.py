"""Cocycles on integers against the ComplexScalar formulas they replaced.

A `Cocycle` holds its values as integer quadruples over one denominator,
and the period cocycle, eta, the absolute projection and `evaluate` are
computed on those integers.  Here each is recomputed from its formula in
ComplexScalar and FieldScalar arithmetic, from the surface's polygons,
the cylinders' heights, the crossing table and the transport factor, and
must agree value for value on the conftest fixtures and the golden L's
52 SL(2,Z) images; the tangent span must have the ranks and RREF that
scalar elimination (tests/reference_linalg.py) gives on those values.
"""

import pytest

from flatdef.analysis import TangentSpan
from flatdef.cylinders import PERIODIC, decompose
from flatdef.deform import eta, eta_normalized
from flatdef.field import FieldScalar, Mat2, Vec2
from flatdef.homology import homology_frame
from flatdef.linalg import ComplexScalar

from reference_linalg import RefEchelon
from test_crossings import SL2Z_SMALL

FIXTURE_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]


def _zero(frame):
    return ComplexScalar(FieldScalar(0, 0, frame.surface.ctx))


def ref_periods(frame):
    """sum_c chain[c] * (cell vector as x + i y), per basis chain."""
    out = []
    for chain in frame.basis_chains:
        acc = _zero(frame)
        for cell, coeff in zip(frame.cells, chain):
            if coeff:
                v = frame.surface.polygons[cell[0]][cell[1]]
                acc = acc + ComplexScalar(v.x, v.y) * coeff
        out.append(acc)
    return out


def ref_eta(dec, ids=None, transport=True):
    """sum_i h_i I_i over the chosen cylinders, times the transport
    factor (vx + i vy)/|v|^2."""
    cyls = [c for c in dec.cylinders if ids is None or c.cyl_id in ids]
    tau = dec.transport_factor() if transport else ComplexScalar(1)
    out = []
    for k in range(dec.frame.m):
        acc = FieldScalar(0, 0, dec.normalized.ctx)
        for cyl in cyls:
            acc = acc + cyl.height * dec.crossings[cyl.cyl_id][k]
        out.append(ComplexScalar(acc) * tau)
    return out


def ref_dot(values, coords, frame):
    acc = _zero(frame)
    for c, v in zip(coords, values):
        if c:
            acc = acc + v * c
    return acc


def check_frame(frame):
    omega = frame.period_cocycle()
    assert list(omega.values) == ref_periods(frame)
    assert list(frame.periods()) == ref_periods(frame)
    assert list(frame.project_absolute(omega)) == [
        ref_dot(omega.values, vec, frame) for vec in frame.absolute_basis]
    for cell in frame.cells:
        coords = frame.cell_coords(cell)
        assert frame.evaluate(omega, coords) == ref_dot(
            ref_periods(frame), coords, frame)
        # the period on a cell is its edge vector
        v = frame.surface.polygons[cell[0]][cell[1]]
        assert frame.evaluate(omega, coords) == ComplexScalar(v.x, v.y)


def check_decomposition(dec, span, ref_full, ref_proj):
    """eta and its projection and values against the formulas, and the
    span grown by it against scalar elimination of the same values."""
    frame = dec.frame
    e = eta(dec)
    assert list(e.values) == ref_eta(dec)
    assert list(eta_normalized(dec).values) == ref_eta(dec, transport=False)
    for cyl in dec.cylinders:
        assert list(eta(dec, [cyl.cyl_id]).values) == ref_eta(
            dec, [cyl.cyl_id])
        for coords in (cyl.core_coords, cyl.cross_coords):
            assert frame.evaluate(e, coords) == ref_dot(
                ref_eta(dec), coords, frame)
    projected = frame.project_absolute(e)
    assert list(projected) == [ref_dot(ref_eta(dec), vec, frame)
                               for vec in frame.absolute_basis]
    if dec.status == PERIODIC:
        assert span.add_certified(dec)
        ref_full.add(ref_eta(dec))
        ref_proj.add(list(projected))
    assert (span.dim(), span.p_dim()) == (ref_full.rank, ref_proj.rank)
    assert span.basis() == ref_full.rows


def check_surface(surface, directions):
    frame = homology_frame(surface)
    check_frame(frame)
    span = TangentSpan(frame)
    ref_full, ref_proj = RefEchelon(frame.m), RefEchelon(2 * frame.genus)
    ref_full.add(ref_periods(frame))
    ref_proj.add([ref_dot(ref_periods(frame), vec, frame)
                  for vec in frame.absolute_basis])
    for v in directions:
        check_decomposition(decompose(surface, Vec2(*v), frame=frame),
                            span, ref_full, ref_proj)
    return span


@pytest.mark.parametrize("name", ["torus", "l_origami", "golden_l",
                                  "marked_torus"])
def test_conftest_fixtures(name, request):
    span = check_surface(request.getfixturevalue(name), FIXTURE_DIRECTIONS)
    assert span.dim() >= 1


def test_golden_sl2z_images(golden_l):
    assert len(SL2Z_SMALL) == 52
    dims = set()
    for m in SL2Z_SMALL:
        span = check_surface(golden_l.apply_matrix(Mat2(*m)),
                             [(1, 0), (0, 1), (1, 1)])
        dims.add((span.dim(), span.p_dim()))
    # a Veech surface: every image has the same span sizes
    assert len(dims) == 1


def test_cocycle_arithmetic(golden_l):
    # scale and + on integers against the ComplexScalar products and sums
    frame = homology_frame(golden_l)
    omega = frame.period_cocycle()
    dec = decompose(golden_l, Vec2(1, 1), frame=frame)
    e = eta(dec)
    c = ComplexScalar(FieldScalar(1, 2, golden_l.ctx), FieldScalar(-3, 0))
    assert list(omega.scale(c).values) == [v * c for v in omega.values]
    assert list((omega + e).values) == [
        x + y for x, y in zip(omega.values, e.values)]
    assert frame.cocycle(list(e.values)) == e
    assert not e.is_real() and eta_normalized(dec).is_real()
