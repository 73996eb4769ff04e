from fractions import Fraction

import pytest

from flatdef import search
from flatdef.cylinders import decompose
from flatdef.equivalence import delaunay_cells, translation_equivalent
from flatdef.errors import InternalInvariantError
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.surface import l_shape, square_tiled

Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)


class TestDelaunay:
    def test_torus_cells_merge_to_square(self, torus):
        cells, gluing = delaunay_cells(torus)
        assert [len(c) for c in cells] == [4]
        assert len(gluing) == 4

    def test_cells_preserve_area(self, golden_l, l_origami):
        from flatdef.polygon import Lattice
        for surf in (golden_l, l_origami):
            cells, _ = delaunay_cells(surf)
            total = FieldScalar(0, 0, surf.ctx)
            for cell in cells:
                total = total + Lattice([cell]).area2()
            assert (total - surf.area2()).is_zero()

    def test_canonical_under_retriangulation(self, l_origami):
        # an equivalent presentation with different polygons: one 6-gon
        cells1, _ = delaunay_cells(l_origami)
        other = l_shape(2, 1, 1, 1)
        cells2, _ = delaunay_cells(other)
        assert sorted(len(c) for c in cells1) == sorted(len(c) for c in cells2)


class TestEquivalence:
    def test_reflexive(self, torus, l_origami, golden_l, marked_torus):
        for surf in (torus, l_origami, golden_l, marked_torus):
            assert translation_equivalent(surf, surf)

    def test_symmetric(self, l_origami):
        other = l_shape(2, 1, 1, 1)
        assert translation_equivalent(l_origami, other)
        assert translation_equivalent(other, l_origami)

    def test_torus_full_twist(self, torus):
        assert translation_equivalent(torus, torus.apply_matrix(Mat2.shear(1)))

    def test_area_mismatch(self, torus):
        big = torus.apply_matrix(Mat2(1, 0, 0, 2))
        assert not translation_equivalent(torus, big)

    def test_stratum_mismatch(self, torus, l_origami):
        assert not translation_equivalent(torus, l_origami)

    def test_marked_points_respected(self, torus, marked_torus):
        assert not translation_equivalent(torus, marked_torus)

    def test_golden_not_origami(self, golden_l, l_origami):
        assert not translation_equivalent(golden_l, l_origami)

    def test_twisted_golden(self, golden_l):
        # a full twist along the horizontal direction returns the surface:
        # both moduli are phi-1 and t = 1/(phi-1) = phi makes t*m = 1
        from flatdef.deform import shear
        d = decompose(golden_l, Vec2(1, 0))
        t = PHI
        assert all((t * c.modulus - 1).is_zero() for c in d.cylinders)
        assert translation_equivalent(shear(golden_l, d, t), golden_l)

    def test_origami_relabeling(self):
        a = square_tiled([(1, 2)], [(1, 3)], n=3)
        b = square_tiled([(2, 3)], [(2, 1)], n=3)  # same shape, relabeled
        assert translation_equivalent(a, b)

    def test_gl2_images_detected(self, golden_l):
        g = Mat2(1, Fraction(1, 3), 0, 1)
        assert not translation_equivalent(golden_l,
                                          golden_l.apply_matrix(g))

    def test_other_quadratic_field(self):
        # equivalent surfaces share a field: each edge of one is a
        # saddle connection of the other
        a = l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen())
        b = l_shape(2, 1, 1, Q5.sqrt_gen())
        assert not translation_equivalent(a, b)
        assert not translation_equivalent(b, a)

    def test_rational_against_irrational(self):
        a = l_shape(2, 1, 1, 1)
        b = l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen())
        assert not translation_equivalent(a, b)
        assert not translation_equivalent(b, a)


# six seeded origamis with 4 to 8 squares
ORIGAMI_SEEDS = [(4, 1), (5, 2), (6, 3), (7, 4), (8, 5), (6, 6)]


class TestGuards:
    def test_flip_limit_raises(self, monkeypatch, multi_twisted,
                               seeded_origami):
        twisted = multi_twisted(seeded_origami(6, 6), (1, 1))
        monkeypatch.setattr(search, "MAX_FLIPS", 0)
        with pytest.raises(InternalInvariantError, match="did not terminate"):
            delaunay_cells(twisted)

    @pytest.mark.parametrize("n, seed", ORIGAMI_SEEDS)
    def test_multi_twist_returns(self, multi_twisted, seeded_origami, n, seed):
        surface = seeded_origami(n, seed)
        assert translation_equivalent(surface, surface)
        for v in ((1, 0), (0, 1), (1, 1)):
            assert translation_equivalent(surface, multi_twisted(surface, v))
