"""A direction's view traces as its normalized surface does.

`decompose` traces, cuts and certifies a direction on a view
(`tracing._Shell`) of the surface's image under the direction's
normalizer g: the image's lattice form, taken by `Lattice.image`, with
the surface's gluing and family.  `Decomposition.normalized` builds the
image itself, by `apply_matrix`, when it is read.  The two must agree:
on each, every east ray gives the same kind, advance, end corner, chords
and crossings, and the built image equals the one `apply_matrix` returns
and shares the source's family.  A decomposition and its JSON construct
no surface, and a ray that stops at the bound builds no advance that
nothing reads.  `ref_canonical` and `ref_east_ray_corners` are copies of
the code that the integer direction and the one-sign-per-edge corner
rule replaced.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from flatdef import tracing
from flatdef.cylinders import (NO_CYLINDER, PARTIAL, PERIODIC, _canonical,
                               decompose)
from flatdef.field import FieldCtx, FieldScalar, Vec2
from flatdef.polygon import corner_crosses_east
from flatdef.serialize import decomposition_to_json
from flatdef.surface import TranslationSurface, l_shape
from flatdef.tracing import _Shell, east_ray_corners, trace_from_corner

FIXTURES = ["torus", "l_origami", "golden_l", "marked_torus"]
# the 16 primitive directions (p, q) with |p|, |q| <= 3, one of each +-pair
PRIMITIVE_3 = [(p, q) for p in range(0, 4) for q in range(-3, 4)
               if (p, q) != (0, 0) and not (p == 0 and q < 0)
               and gcd(p, q) == 1]


# -- references ---------------------------------------------------------------

def ref_canonical(v):
    x, y = v.x, v.y
    if x.sign() == 0:
        return Vec2(FieldScalar(0), FieldScalar(1))
    if x.sign() < 0:
        x, y = -x, -y
    slope = y / x
    if slope.is_rational():
        q = slope.as_fraction()
        return Vec2(FieldScalar(q.denominator), FieldScalar(q.numerator))
    return Vec2(FieldScalar(1), slope)


def ref_east_ray_corners(surface):
    lat = surface.lattice()
    return [(p, i) for p, edges in enumerate(lat.edges)
            for i in range(len(edges))
            if corner_crosses_east(*lat.corner_rays((p, i)), lat.d,
                                   closed="start")]


# -- comparison ---------------------------------------------------------------

def _exact(value):
    if isinstance(value, FieldScalar):
        return ("scalar", value.ctx.d, value._A, value._B, value._D)
    if isinstance(value, (tuple, list)):
        return tuple(_exact(v) for v in value)
    return value


def record(res):
    """Every field of a TraceResult, exactly."""
    return (res.kind, _exact(res.advance), res.end_corner,
            _exact(list(res.chords)), _exact(list(res.crossings)))


def check_view(surface, v, **kwargs):
    """Decompose `surface` in v and check its view against the image
    `apply_matrix` builds; return the decomposition."""
    dec = decompose(surface, v, **kwargs)
    view = dec.view
    image = surface.apply_matrix(dec.matrix)
    assert isinstance(view, _Shell)
    assert view.gluing is surface.gluing
    assert view._family is surface._family
    assert dec.normalized == image
    assert dec.normalized._family is surface._family
    assert dec.normalized is dec.normalized
    lat, want = view.lattice(), image.lattice()
    assert (lat.ctx, lat.D, lat.edges, lat.verts) == \
        (want.ctx, want.D, want.edges, want.verts)
    assert view.ctx is image.ctx
    corners = east_ray_corners(view)
    assert corners == east_ray_corners(image) == ref_east_ray_corners(image)
    bound = dec.bound_sq * dec.direction.vector.norm_sq()
    for corner in corners:
        assert record(trace_from_corner(view, corner, max_advance_sq=bound)) \
            == record(trace_from_corner(image, corner, max_advance_sq=bound))
    assert decomposition_to_json(dec)["area_normalized"] == \
        str(image.area())
    return dec


# -- the tests ----------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_directions(request, name):
    surface = request.getfixturevalue(name)
    statuses = {check_view(surface, Vec2(*v)).status for v in PRIMITIVE_3}
    assert PERIODIC in statuses


def _generic_lshape(d):
    r = FieldCtx.get(d).sqrt_gen()
    return l_shape(4 + r / 16, 3 - r / 8, 2 - r / 16, 2 + r / 8)


def test_lshape_directions():
    # the benchmark's generic shapes, and a sqrt 2 L-shape that leaves a
    # certified cylinder beside an uncertified component at factor 2
    surfaces = [_generic_lshape(d) for d in (2, 3, 5)]
    surfaces.append(l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen()))
    statuses = set()
    for surface in surfaces:
        for v in PRIMITIVE_3:
            for factor in (2, 20):
                statuses.add(check_view(surface, Vec2(*v),
                                        trace_factor=factor).status)
    assert statuses == {PERIODIC, PARTIAL, NO_CYLINDER}


def _scalar(draw, ctx, lo, hi):
    """a + b*sqrt(d), with a in [lo, hi] and |b| <= 1/4."""
    a = draw(st.fractions(min_value=lo, max_value=hi, max_denominator=8))
    b = (draw(st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4),
                           max_denominator=4)) if ctx.d else Fraction(0))
    return FieldScalar(a, b, ctx)


@st.composite
def lshapes_and_directions(draw):
    """An L-shape over Q, Q(sqrt 2) or Q(sqrt 5) and a direction: an
    integer one, or one with an irrational slope in the shape's field."""
    ctx = FieldCtx.get(draw(st.sampled_from((0, 2, 5))))
    w2 = _scalar(draw, ctx, 1, 2)
    surface = l_shape(w2 + _scalar(draw, ctx, 1, 2), _scalar(draw, ctx, 1, 2),
                      w2, _scalar(draw, ctx, 1, 2))
    p = draw(st.integers(-3, 3))
    if ctx.d and draw(st.booleans()):
        v = Vec2(FieldScalar(p or 1, 0, ctx), _scalar(draw, ctx, -3, 3))
    else:
        q = draw(st.integers(-3, 3).filter(lambda q: p or q))
        v = Vec2(p, q)
    return surface, v


@settings(max_examples=60, deadline=None)
@given(lshapes_and_directions(), st.integers(1, 20))
def test_random_lshapes(case, factor):
    surface, v = case
    check_view(surface, v, trace_factor=factor)


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=12), st.fractions(max_denominator=12),
       st.sampled_from((0, 2, 5)))
def test_canonical_rational_directions(x, y, d):
    # rational coordinates, also held in an irrational field
    if x == y == 0:
        return
    ctx = FieldCtx.get(d)
    v = Vec2(FieldScalar(x, 0, ctx), FieldScalar(y, 0, ctx))
    got, want = _canonical(v), ref_canonical(v)
    assert (_exact((got.x, got.y)), got.ctx) == \
        (_exact((want.x, want.y)), want.ctx)


def test_decompose_and_json_build_no_surface(monkeypatch, l_origami,
                                             golden_l):
    # the view is the only image a decomposition builds; a surface is
    # built by `_set` (constructor and `apply_matrix`), and a bound
    # ray's advance by `_quotient`, which nothing reads in a direction
    # where no ray closes
    sets, quotients = [], []
    set_, quotient = TranslationSurface._set, tracing._quotient

    def counted_set(self, *args):
        sets.append(self)
        return set_(self, *args)

    def counted_quotient(*args):
        quotients.append(args)
        return quotient(*args)

    surfaces = [_generic_lshape(d) for d in (2, 3, 5)]
    surfaces += [l_origami, golden_l]
    for surface in surfaces:
        surface.area()
    monkeypatch.setattr(TranslationSurface, "_set", counted_set)
    monkeypatch.setattr(tracing, "_quotient", counted_quotient)
    statuses = set()
    for surface in surfaces:
        for v in PRIMITIVE_3:
            del quotients[:]
            dec = decompose(surface, Vec2(*v))
            decomposition_to_json(dec)
            statuses.add(dec.status)
            if not dec.saddle_connections:
                assert quotients == []
    assert statuses == {PERIODIC, NO_CYLINDER}
    assert sets == []
    dec.normalized
    dec.normalized
    assert len(sets) == 1
