"""Metamorphic tests: relations between decompositions of related surfaces.

The relations are SL(2,Z) acting on the surface and the direction
together, rescaling by lam * I, and re-presenting the surface by its
canonical Delaunay cells (the last two are described above their tests).

For g in SL(2,Z), the cylinders of g.S in direction g.v are the g-images
of the cylinders of S in direction v.  So the status and the number of
cylinders agree, and so does each cylinder's area and its circumference
as a multiple of the direction vector (g maps c = lam * v to lam * g.v).
A modulus is area / |c|^2 = area / (lam^2 |v|^2), so the moduli
themselves scale by |v|^2 / |g.v|^2; the invariant multiset is that of
modulus * |v|^2 (README, "SL(2,Z) metamorphic test: moduli scale by
|v|² / |g·v|²").

Every pair must decompose.  Among them are 24, each in a direction that
the matrix sends to an axis, on which a core traced from a half-height
start once raised "ray ... escaped the boundary".
"""

from fractions import Fraction

import pytest

from flatdef.cylinders import decompose
from flatdef.equivalence import delaunay_cells
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.surface import TranslationSurface, l_shape

SL2Z_SMALL = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
              for c in range(-2, 3) for d in range(-2, 3)
              if a * d - b * c == 1]
DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))


@pytest.fixture(scope="module")
def sqrt2_l():
    return l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen(), label="sqrt2-l")


def _invariants(dec, v):
    scale = v.norm_sq()
    return (dec.status, len(dec.cylinders),
            sorted((c.modulus * scale for c in dec.cylinders), key=str))


@pytest.mark.parametrize("name", ["golden_l", "l_origami", "sqrt2_l"])
def test_sl2z_on_surface_and_direction(request, name):
    surface = request.getfixturevalue(name)
    expected = {v: _invariants(decompose(surface, Vec2(*v)), Vec2(*v))
                for v in DIRECTIONS}
    for m in SL2Z_SMALL:
        g = Mat2(*m)
        image = surface.apply_matrix(g)
        for v in DIRECTIONS:
            gv = g.apply(Vec2(*v))
            dec = decompose(image, gv)
            assert _invariants(dec, gv) == expected[v], (m, v)


# -- rescaling and re-presentation ---------------------------------------------
#
# Scaling the surface by lam * I and the trace length by lam maps every
# separatrix, saddle connection and cylinder of direction v to one of the
# image, lengths times lam: status, the counts and the moduli stay, and
# circumferences scale by lam.  Rebuilding the surface from its canonical
# Delaunay cells changes the polygons (so the tracer sees other edges and
# walks other triangles) but not the flat surface, so nothing may change.

TRACE_LENGTH = 12
META_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 2),
                   (3, 1))


def _lambdas(surface):
    """3, 1/7 and an irrational: of the surface's field, or sqrt(3) over Q."""
    ctx = surface.ctx if surface.ctx.d else FieldCtx.get(3)
    return (FieldScalar(3), FieldScalar(Fraction(1, 7)),
            FieldScalar(1, 1, ctx))


def _counts(dec):
    return (dec.status, len(dec.cylinders), len(dec.saddle_connections),
            len(dec.unresolved_rays))


def _multiset(values):
    return sorted(values, key=str)


@pytest.mark.parametrize("name", ["golden_l", "sqrt2_l", "l_origami"])
def test_rescaling(request, name):
    surface = request.getfixturevalue(name)
    for v in META_DIRECTIONS:
        dec = decompose(surface, Vec2(*v), trace_length=TRACE_LENGTH)
        for lam in _lambdas(surface):
            image = surface.apply_matrix(Mat2(lam, 0, 0, lam))
            scaled = decompose(image, Vec2(*v), trace_length=lam * TRACE_LENGTH)
            assert _counts(scaled) == _counts(dec), (v, str(lam))
            assert _multiset(c.modulus for c in scaled.cylinders) == \
                _multiset(c.modulus for c in dec.cylinders), (v, str(lam))
            assert _multiset(c.circumference for c in scaled.cylinders) == \
                _multiset(lam * c.circumference for c in dec.cylinders), \
                (v, str(lam))


@pytest.mark.parametrize("name", ["golden_l", "sqrt2_l", "l_origami"])
def test_delaunay_representation(request, name):
    surface = request.getfixturevalue(name)
    cells, gluing = delaunay_cells(surface)
    again = TranslationSurface(cells, gluing, label=surface.label)
    assert again.polygons != surface.polygons
    for v in META_DIRECTIONS:
        dec = decompose(surface, Vec2(*v), trace_length=TRACE_LENGTH)
        other = decompose(again, Vec2(*v), trace_length=TRACE_LENGTH)
        assert _counts(other) == _counts(dec), v
        for attr in ("modulus", "circumference"):
            assert _multiset(getattr(c, attr) for c in other.cylinders) == \
                _multiset(getattr(c, attr) for c in dec.cylinders), (v, attr)
