from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from flatdef.errors import (
    GluingMismatch,
    NonClosedPolygon,
    NonPositiveLength,
    NonSimplePolygon,
    NotConnected,
    SingularMatrix,
)
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.surface import TranslationSurface, l_shape, square_tiled

Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)


def torus():
    return square_tiled([], [], n=1, label="torus")


def l_origami():
    return square_tiled([(1, 2)], [(1, 3)], n=3, label="l-origami")


def golden_l():
    return l_shape(PHI, 1, 1, PHI - 1, label="golden-l")


class TestValidate:
    def test_torus(self):
        data = torus().singularities()
        assert data.genus == 1
        assert data.signature == (0,)
        assert data.num_points == 1

    def test_l_origami(self):
        data = l_origami().singularities()
        assert data.genus == 2
        assert data.signature == (2,)
        assert data.num_points == 1

    def test_golden_l(self):
        surf = golden_l()
        data = surf.singularities()
        assert data.genus == 2
        assert data.signature == (2,)
        # area = phi + (phi - 1) = sqrt(5)
        assert surf.area() == FieldScalar(0, 1, Q5)

    def test_unit_l_shape_matches_origami_stratum(self):
        data = l_shape(2, 1, 1, 1).singularities()
        assert data.genus == 2
        assert data.signature == (2,)

    def test_gluing_mismatch(self):
        one, zero = FieldScalar(1), FieldScalar(0)
        polys = [[Vec2(one, zero), Vec2(zero, one), Vec2(-one, zero),
                  Vec2(zero, -one)]]
        # glue bottom to right: vectors not opposite
        gluing = [((0, 0), (0, 1)), ((0, 2), (0, 3))]
        with pytest.raises(GluingMismatch):
            TranslationSurface(polys, gluing).singularities()

    def test_non_closed_polygon(self):
        polys = [[Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -2)]]
        gluing = [((0, 0), (0, 2)), ((0, 1), (0, 3))]
        with pytest.raises(NonClosedPolygon):
            TranslationSurface(polys, gluing).singularities()

    def test_self_intersecting_polygon(self):
        polys = [[Vec2(2, 0), Vec2(-1, 1), Vec2(0, -2), Vec2(-1, 1)]]
        gluing = [((0, 0), (0, 2)), ((0, 1), (0, 3))]
        with pytest.raises((NonSimplePolygon, NonClosedPolygon)):
            TranslationSurface(polys, gluing).singularities()

    def test_incomplete_gluing(self):
        polys = [[Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1)]]
        with pytest.raises(GluingMismatch):
            TranslationSurface(polys, [((0, 0), (0, 2))])

    @pytest.mark.parametrize("gluing", [
        [((0, 0), (0, 2.9)), ((0, 1), (0, 3))],
        [((0, 0), (0, 2)), ((0, 1), (0, "3"))],
        [((0.5, 0), (0, 2)), ((0, 1), (0, 3))],
        [((0, 0), (0, 2)), ((0, True), (0, 3))],
    ])
    def test_gluing_index_must_be_an_int(self, gluing):
        # int() would truncate or parse each to the unit torus's own
        # index and build a valid surface
        polys = [[(1, 0), (0, 1), (-1, 0), (0, -1)]]
        with pytest.raises(GluingMismatch, match="is not an integer"):
            TranslationSurface(polys, gluing)


class TestConstructors:
    def test_torus_area(self):
        assert torus().area() == FieldScalar(1)

    def test_origami_area_is_square_count(self):
        assert l_origami().area() == FieldScalar(3)

    def test_origami_not_connected(self):
        with pytest.raises(NotConnected):
            square_tiled([], [], n=2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_origami_without_squares(self, n):
        # n = 0 failed with an IndexError inside the connectivity search
        with pytest.raises(ValueError, match="at least one square"):
            square_tiled([], [], n=n)

    @pytest.mark.parametrize("h", [
        [(1, 2), (2, 3)],        # 3 lies outside 1..2
        [(1, 2, 2)],             # 2 twice in one cycle
        [(1, 2), (2, 1)],        # 1 and 2 twice across cycles
        [(0, 1)],                # 0 is not a square
        {1: 2},                  # 2 -> 2 as well: not a bijection
        {1: 3},
        [2, 2],                  # mapping list that is no permutation
    ])
    def test_origami_bad_permutation(self, h):
        with pytest.raises(ValueError, match="permutation"):
            square_tiled(h, [], n=2)

    def test_origami_dict_and_cycle_forms_agree(self):
        a = square_tiled([(1, 2)], [(1, 3)], n=3)
        b = square_tiled({1: 2, 2: 1}, {1: 3, 3: 1}, n=3)
        c = square_tiled([2, 1, 3], [3, 2, 1], n=3)
        assert a == b == c

    def test_l_shape_bad_lengths(self):
        with pytest.raises(NonPositiveLength):
            l_shape(1, 1, 0, 1)
        with pytest.raises(NonPositiveLength):
            l_shape(1, 1, 1, 1)  # needs w2 < w1

    @pytest.mark.parametrize("x", [1.5, "1", Decimal("1.5")])
    def test_l_shape_rejects_inexact_lengths(self, x):
        with pytest.raises(TypeError, match="expected int or Fraction"):
            l_shape(2, x, 1, 1)

    def test_golden_area_identity(self):
        # phi^2 = phi + 1 forces area phi + (phi-1) = 2 phi - 1 = sqrt 5
        s = golden_l()
        assert s.area() == 2 * PHI - 1


class TestGL2:
    def test_identity_fixed(self):
        m = torus()
        assert m.apply_matrix(Mat2(1, 0, 0, 1)) == m

    def test_shear_torus(self):
        m = torus().apply_matrix(Mat2.shear(1))
        assert m.polygons[0][0] == Vec2(1, 0)
        assert m.polygons[0][1] == Vec2(1, 1)
        m.singularities()

    def test_direction_mapping(self):
        g = Mat2(1, 2, -2, 1)
        assert g.apply(Vec2(1, 2)) == Vec2(5, 0)

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            torus().apply_matrix(Mat2(1, 1, 1, 1))

    def test_orientation_reversing(self):
        m = torus().apply_matrix(Mat2(1, 0, 0, -1))
        data = m.singularities()
        assert data.genus == 1
        assert m.area() == FieldScalar(1)

    def test_area_scales_by_det(self):
        g = Mat2(1, 2, -2, 1)
        m = l_origami().apply_matrix(g)
        assert m.area() == FieldScalar(15)
        data = m.singularities()
        assert data.signature == (2,)


def _fresh(surface):
    """The same polygons and gluing, validated from scratch."""
    gluing = [(a, b) for a, b in surface.gluing.items() if a < b]
    return TranslationSurface(surface.polygons, gluing, surface.label)


def _data(d):
    return (d.classes, d.cone_orders, d.genus)


# the 52 matrices of SL(2,Z) with entries in [-2, 2], and the 16 primitive
# directions (p, q) with |p|, |q| <= 3, one of each +-pair
SL2Z_SMALL = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
              for c in range(-2, 3) for d in range(-2, 3)
              if a * d - b * c == 1]
PRIMITIVE_3 = [(p, q) for p in range(0, 4) for q in range(-3, 4)
               if (p, q) != (0, 0) and not (p == 0 and q < 0)
               and gcd(p, q) == 1]


class TestTransportedValidation:
    """apply_matrix with det > 0 hands its singularity data to the image.

    The expectation is an argument, not a fixture (README, "An image
    shares its source's family"): a linear map of positive determinant
    keeps the polygons simple, closed and counterclockwise, keeps glued
    edges opposite and keeps every cone angle, so the transported data
    must equal what a full validation of the image finds.
    """

    @staticmethod
    def _check(g):
        image = golden_l().apply_matrix(g)
        assert "sing" in image._family  # carried over, not recomputed
        assert _data(image.singularities()) == \
            _data(_fresh(image).singularities())

    @pytest.mark.parametrize("m", SL2Z_SMALL)
    def test_golden_sl2z_images(self, m):
        self._check(Mat2(*m))

    @pytest.mark.parametrize("v", PRIMITIVE_3)
    def test_golden_direction_normalizers(self, v):
        self._check(Mat2.direction_normalizer(Vec2(*v)))

    def test_no_unvalidated_source_exists(self):
        # the source an image would share its family with is rejected
        # when it is built
        polys = [[Vec2(2, 0), Vec2(-1, 1), Vec2(0, -2), Vec2(-1, 1)]]
        gluing = [((0, 0), (0, 2)), ((0, 1), (0, 3))]
        with pytest.raises(NonSimplePolygon):
            TranslationSurface(polys, gluing)

    def test_repr_leaves_polygons_unbuilt(self):
        image = golden_l().apply_matrix(Mat2.shear(1))
        assert repr(image) == "TranslationSurface(golden-l: 1 polygons, d=5)"
        assert "polygons" not in vars(image)


class TestForeignField:
    """A matrix or direction over another quadratic field than the
    surface's is rejected with the matrix's field named first."""

    MESSAGE = "incompatible fields Q(sqrt(5)) and Q(sqrt(2))"

    @staticmethod
    def _sqrt2_l():
        return l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen(), label="sqrt2-l")

    @pytest.mark.parametrize("m", [(1, "r5", 0, 1), ("r5", 0, 0, 1),
                                   (1, 0, "r5", 1), (0, 1, 1, "r5")])
    def test_apply_matrix(self, m):
        r5 = Q5.sqrt_gen()
        g = Mat2(*(r5 if x == "r5" else x for x in m))
        with pytest.raises(ValueError) as info:
            self._sqrt2_l().apply_matrix(g)
        assert str(info.value) == self.MESSAGE

    def test_decompose(self):
        from flatdef.cylinders import decompose
        with pytest.raises(ValueError) as info:
            decompose(self._sqrt2_l(), (1, Q5.sqrt_gen()))
        assert str(info.value) == self.MESSAGE
