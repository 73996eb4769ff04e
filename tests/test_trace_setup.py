"""The trace's east rule, checked against the rule it replaced.

`tracing.east_ray_corners` decides each corner by the rises of its two
edges and at most one cross sign (`polygon.corner_crosses_east`, closed
at the start).  `ref_east_corners` asks the general sector test,
`reference_trace.sector_contains`, as the tracer did before; the
end-closed form, which counts cone angles, is held to it too.

The surfaces: the conftest fixtures normalized in every primitive
direction with |p|, |q| <= 3, seeded generic L-shapes over Q(sqrt 2),
Q(sqrt 3) and Q(sqrt 5) and seeded 4-8 square origamis normalized the
same way, the golden L's images under SL(2,Z) matrices with entries in
[-2, 2], and hypothesis-drawn L-shapes mapped by drawn matrices of
either determinant sign.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2, _sign
from flatdef.polygon import _EAST, corner_crosses_east
from flatdef.surface import l_shape
from flatdef.tracing import east_ray_corners

from reference_trace import sector_contains

DIRECTIONS = [(p, q) for p in range(0, 4) for q in range(-3, 4)
              if (p, q) != (0, 0) and not (p == 0 and q < 0)
              and gcd(p, q) == 1]
SL2Z_SMALL = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
              for c in range(-2, 3) for d in range(-2, 3)
              if a * d - b * c == 1]
# the integer matrices with entries in [-2, 2] and det != 0, the
# identity first
NONSINGULAR = [(1, 0, 0, 1)] + [
    m for m in product(range(-2, 3), repeat=4)
    if m[0] * m[3] - m[1] * m[2] and m != (1, 0, 0, 1)]
FIXTURES = ["torus", "l_origami", "golden_l", "marked_torus"]


# -- references ---------------------------------------------------------------

def ref_east_corners(surface):
    """The corners whose sector [out, rev-in) holds (1, 0), by the
    general sector test."""
    lat = surface.lattice()
    return [(p, i) for p, edges in enumerate(lat.edges)
            for i in range(len(edges))
            if sector_contains(*lat.corner_rays((p, i)), _EAST, lat.d,
                               include_start=True, include_end=False)]


# -- surfaces -----------------------------------------------------------------

def _normalized(surface, v):
    return surface.apply_matrix(Mat2.direction_normalizer(Vec2(*v)))


def _generic_lshape(rng, d):
    """An L-shape near (4, 3, 2, 2) with irrational parts in Q(sqrt d)."""
    r = FieldCtx.get(d).sqrt_gen()
    return l_shape(*(x + r * Fraction(rng.randint(-5, 5), 32)
                     + Fraction(rng.randint(-3, 3), 14)
                     for x in (4, 3, 2, 2)))


def _seeded_surfaces(seeded_origami):
    rng = random.Random(23)
    out = [_generic_lshape(rng, d) for d in (2, 3, 5) for _ in range(2)]
    out += [seeded_origami(n, seed) for n, seed in
            [(4, 1), (5, 2), (6, 3), (7, 4), (8, 5)]]
    return out


@pytest.fixture(scope="module")
def surfaces(request, seeded_origami, golden_l):
    """Every surface of the module docstring but the drawn ones."""
    out = []
    for source in ([request.getfixturevalue(name) for name in FIXTURES]
                   + _seeded_surfaces(seeded_origami)):
        out += [_normalized(source, v) for v in DIRECTIONS]
    out += [golden_l.apply_matrix(Mat2(*m)) for m in SL2Z_SMALL]
    return out


@st.composite
def drawn_surfaces(draw):
    """An L-shape over Q or Q(sqrt d) mapped by a small matrix of either
    determinant sign."""
    d = draw(st.sampled_from([0, 2, 3, 5]))
    r = FieldCtx.get(d).sqrt_gen() if d else FieldScalar(0)

    def length():
        return (FieldScalar(draw(st.fractions(min_value=Fraction(1, 4),
                                              max_value=3,
                                              max_denominator=8)))
                + r * draw(st.fractions(min_value=0, max_value=Fraction(1, 4),
                                        max_denominator=8)))

    w2, dw, h1, h2 = length(), length(), length(), length()
    surface = l_shape(w2 + dw, h1, w2, h2)
    return surface.apply_matrix(Mat2(*draw(st.sampled_from(NONSINGULAR))))


# -- the east rule ------------------------------------------------------------

def _kind(lat, corner):
    """Which horizontal cases a corner shows: its out-edge and reversed
    in-edge pointing east or west."""
    d = lat.d
    kinds = set()
    for name, ray in zip(("out", "in"), lat.corner_rays(corner)):
        if _sign(ray[2], ray[3], d) == 0:
            kinds.add(f"{name} {'east' if _sign(ray[0], ray[1], d) > 0 else 'west'}")
    return kinds


def _check_east(surface):
    lat = surface.lattice()
    assert east_ray_corners(surface) == ref_east_corners(surface)
    for p, edges in enumerate(lat.edges):
        for i in range(len(edges)):
            out, rev_in = lat.corner_rays((p, i))
            assert corner_crosses_east(out, rev_in, lat.d, closed="start") == \
                sector_contains(out, rev_in, _EAST, lat.d,
                                include_start=True, include_end=False)
            assert corner_crosses_east(out, rev_in, lat.d, closed="end") == \
                sector_contains(out, rev_in, _EAST, lat.d,
                                include_start=False, include_end=True)


class TestEastRule:
    def test_matches_the_sector_rule(self, surfaces):
        kinds = set()
        for surface in surfaces:
            _check_east(surface)
            lat = surface.lattice()
            for p, edges in enumerate(lat.edges):
                for i in range(len(edges)):
                    kinds |= _kind(lat, (p, i))
        # horizontal out- and in-rays, pointing east and west, all occur
        assert kinds == {"out east", "out west", "in east", "in west"}

    def test_marked_points(self, marked_torus):
        # a vertex of angle 2*pi*(k + 1) has k + 1 east germs, one per
        # corner the rule picks: one at each marked point of the torus
        _check_east(marked_torus)
        data = marked_torus.singularities()
        assert data.cone_orders == (0, 0)
        east = east_ray_corners(marked_torus)
        for cls, order in zip(data.classes, data.cone_orders):
            assert len(set(cls) & set(east)) == order + 1

    @pytest.mark.parametrize("m, east", [((1, 0, 0, 1), True),
                                         ((-1, 0, 0, -1), False)])
    def test_straight_corners(self, m, east):
        # the L-shape's bottom edge runs through a straight corner, whose
        # rays are horizontal: east leaves it when its out-edge points
        # east, and the end-closed count then sees no turn; turned by pi,
        # the other way round
        surface = l_shape(3, 1, 1, 1).apply_matrix(Mat2(*m))
        lat = surface.lattice()
        out, rev_in = lat.corner_rays((0, 1))
        assert _sign(out[2], out[3], 0) == _sign(rev_in[2], rev_in[3], 0) == 0
        assert corner_crosses_east(out, rev_in, 0, closed="start") == east
        assert corner_crosses_east(out, rev_in, 0, closed="end") == (not east)
        _check_east(surface)

    def test_every_small_ray_pair(self):
        # the rule is the sector test with w = (1, 0) for any rays:
        # zero rays, full turns and anti-parallel pairs included
        rays = [(x, 0, y, 0) for x in range(-2, 3) for y in range(-2, 3)]
        rays += [(x, 1, y, -1) for x in range(-2, 3) for y in range(-2, 3)]
        for d in (0, 2):
            for out, rev_in in product(rays, repeat=2):
                if not d and (out[1] or rev_in[1]):
                    continue
                assert corner_crosses_east(out, rev_in, d, closed="start") == \
                    sector_contains(out, rev_in, _EAST, d,
                                    include_start=True, include_end=False)
                assert corner_crosses_east(out, rev_in, d, closed="end") == \
                    sector_contains(out, rev_in, _EAST, d,
                                    include_start=False, include_end=True)

    def test_closed_must_name_an_end(self):
        with pytest.raises(ValueError, match="closed must be"):
            corner_crosses_east(_EAST, (0, 0, 1, 0), 0, closed="both")

    @settings(max_examples=150, deadline=None)
    @given(drawn_surfaces())
    def test_drawn_surfaces(self, surface):
        _check_east(surface)
