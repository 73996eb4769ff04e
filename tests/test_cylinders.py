from fractions import Fraction

import pytest

from flatdef.cylinders import (BoundExceeded, Direction, PARTIAL, PERIODIC,
                               NO_CYLINDER, decompose, trace_separatrix)
from flatdef.errors import NonPositiveLength, StaleCocycle
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.homology import HomologyFrame, homology_frame
from flatdef.search import enumerate_directions

Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)


def mods(dec):
    return sorted(str(c.modulus) for c in dec.cylinders)


def hc(dec):
    return sorted((str(c.height), str(c.circumference)) for c in dec.cylinders)


class TestDirection:
    def test_rational_canonical(self):
        d = Direction(Vec2(Fraction(2, 3), 1))
        assert (str(d.vector.x), str(d.vector.y)) == ("2", "3")

    def test_sign_convention(self):
        assert Direction(Vec2(-1, 2)) == Direction(Vec2(1, -2))
        assert Direction(Vec2(0, -3)) == Direction(Vec2(0, 1))

    def test_irrational_slope(self):
        d = Direction(Vec2(FieldScalar(2), FieldScalar(0, 2, Q5)))
        assert d.vector.x == FieldScalar(1)
        assert d.vector.y == FieldScalar(0, 1, Q5)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Direction(Vec2(0, 0))


class TestTrace:
    def test_torus_horizontal(self, torus):
        sc = trace_separatrix(torus, (0, 0), Vec2(1, 0), 10)
        assert sc.holonomy == Vec2(1, 0)

    def test_torus_slope_two(self, torus):
        sc = trace_separatrix(torus, (0, 0), Vec2(1, 2), 10)
        assert sc.holonomy == Vec2(1, 2)

    def test_golden_top_boundary(self, golden_l):
        # the eastward ray from the corner at height 1 runs along the top
        # cylinder's bottom boundary, a unit saddle connection
        sc = trace_separatrix(golden_l, (0, 7), Vec2(1, 0), 10)
        assert sc.holonomy == Vec2(1, 0)

    def test_bound_exceeded(self, torus):
        out = trace_separatrix(torus, (0, 0), Vec2(1, 2),
                               FieldScalar(Fraction(1, 2)))
        assert isinstance(out, BoundExceeded)


class TestDecompose:
    def test_torus_horizontal(self, torus):
        dec = decompose(torus, Vec2(1, 0))
        assert dec.status == PERIODIC
        assert hc(dec) == [("1", "1")]
        assert str(dec.cylinders[0].modulus) == "1"

    def test_l_origami_horizontal(self, l_origami):
        dec = decompose(l_origami, Vec2(1, 0))
        assert dec.status == PERIODIC
        assert hc(dec) == [("1", "1"), ("1", "2")]
        assert mods(dec) == ["1", "1/2"]

    def test_torus_slope_two(self, torus):
        dec = decompose(torus, Vec2(1, 2))
        assert dec.status == PERIODIC
        assert hc(dec) == [("1", "5")]
        assert str(dec.cylinders[0].modulus) == "1/5"

    def test_golden_horizontal_moduli(self, golden_l):
        dec = decompose(golden_l, Vec2(1, 0))
        assert dec.status == PERIODIC
        phi_minus_one = str(PHI - 1)
        assert mods(dec) == [phi_minus_one, phi_minus_one]

    def test_area_identity(self, torus, l_origami, golden_l):
        for surf in (torus, l_origami, golden_l):
            for v in ((1, 0), (0, 1), (1, 1)):
                dec = decompose(surf, Vec2(*v))
                assert dec.status == PERIODIC
                acc = FieldScalar(0, 0, dec.normalized.ctx)
                for cyl in dec.cylinders:
                    acc = acc + cyl.height * cyl.circumference
                assert (acc - dec.normalized.area()).is_zero()

    def test_core_class_is_absolute(self, l_origami, golden_l):
        for surf in (l_origami, golden_l):
            frame = homology_frame(surf)
            dec = decompose(surf, Vec2(1, 1), frame=frame)
            for cyl in dec.cylinders:
                bnd = [0] * len(frame.boundary_matrix[0])
                for k, coeff in enumerate(cyl.core_coords):
                    for j, b in enumerate(frame.boundary_matrix[k]):
                        bnd[j] += coeff * b
                assert all(x == 0 for x in bnd)

    def test_cross_pairs_with_own_core(self, l_origami):
        from flatdef.deform import intersection_cocycle
        frame = homology_frame(l_origami)
        dec = decompose(l_origami, Vec2(1, 0), frame=frame)
        for cyl in dec.cylinders:
            ic = intersection_cocycle(dec, cyl.cyl_id)
            for other in dec.cylinders:
                val = frame.evaluate(ic, other.cross_coords)
                want = 1 if other.cyl_id == cyl.cyl_id else 0
                assert val.im.is_zero() and val.re == FieldScalar(want)
                core_val = frame.evaluate(ic, other.core_coords)
                assert core_val.is_zero()

    @pytest.mark.parametrize("surface, foreign", [
        ("torus", "l_origami"),
        ("golden_l", "l_origami"),
        ("golden_l", "golden_shear"),
    ])
    def test_foreign_frame_rejected(self, request, surface, foreign):
        # on a foreign frame the core paths break or miss its cells, or
        # the certificate carries the other surface's frame hash
        surf = request.getfixturevalue(surface)
        if foreign == "golden_shear":
            other = surf.apply_matrix(Mat2(1, 1, 0, 1))
        else:
            other = request.getfixturevalue(foreign)
        with pytest.raises(StaleCocycle):
            decompose(surf, Vec2(1, 1), frame=homology_frame(other))

    def test_frame_with_own_hash_accepted(self, golden_l):
        frame = HomologyFrame(golden_l)
        assert frame is not homology_frame(golden_l)
        dec = decompose(golden_l, Vec2(1, 1), frame=frame)
        assert dec.status == PERIODIC
        assert dec.frame is frame
        assert dec.frame.hash == homology_frame(golden_l).hash

    def test_partial_with_tiny_bound(self, torus):
        dec = decompose(torus, Vec2(5, 1),
                        trace_length=FieldScalar(Fraction(1, 2)))
        assert dec.status in (PARTIAL, NO_CYLINDER)
        assert dec.unresolved_rays

    @pytest.mark.parametrize("kw", [
        {"trace_factor": 0},
        {"trace_factor": -1},
        {"trace_length": 0},
        {"trace_length": Fraction(-1, 2)},
        {"trace_length": FieldScalar(1, -1, Q5)},  # 1 - sqrt(5) < 0
    ])
    def test_nonpositive_bound_rejected(self, torus, kw):
        with pytest.raises(NonPositiveLength):
            decompose(torus, Vec2(1, 0), **kw)

    @pytest.mark.parametrize("length", [-10, 0, Fraction(-1, 2)])
    def test_trace_separatrix_nonpositive_length_rejected(self, torus,
                                                          length):
        # the length enters the advance bound squared, so its sign must
        # be checked before squaring
        with pytest.raises(NonPositiveLength):
            trace_separatrix(torus, (0, 0), Vec2(1, 0), length)

    def test_square_tiled_rational_always_periodic(self, l_origami):
        for v in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, -1),
                  (2, -3)):
            dec = decompose(l_origami, Vec2(*v), trace_factor=200)
            assert dec.status == PERIODIC

    def test_transport_invariance(self, l_origami):
        g = Mat2(1, 1, 1, 2)  # det 1
        moved = l_origami.apply_matrix(g)
        for v in ((1, 0), (0, 1), (1, 1)):
            d1 = decompose(l_origami, Vec2(*v))
            d2 = decompose(moved, g.apply(Vec2(*v)))
            assert d1.status == d2.status == PERIODIC
            assert len(d1.cylinders) == len(d2.cylinders)
            m1 = sorted((c.modulus / d1.cylinders[0].modulus
                         for c in d1.cylinders), key=str)
            m2 = sorted((c.modulus / d2.cylinders[0].modulus
                         for c in d2.cylinders), key=str)
            # modulus ratios agree after transport up to common scale
            ratio = m1[0] / m2[0]
            for a, b in zip(m1, m2):
                assert (a - b * ratio).is_zero()


class TestEnumerate:
    def test_torus_norm_two(self, torus):
        ds = enumerate_directions(torus, 2)
        got = {(str(d.vector.x), str(d.vector.y)) for d in ds}
        assert got == {("1", "0"), ("0", "1"), ("1", "1"), ("1", "-1")}

    def test_l_origami_norm_one(self, l_origami):
        ds = enumerate_directions(l_origami, 1)
        got = {(str(d.vector.x), str(d.vector.y)) for d in ds}
        assert got == {("1", "0"), ("0", "1")}

    def test_tiny_bound_empty(self, torus):
        assert enumerate_directions(torus, Fraction(1, 2)) == []

    def test_superset_of_cylinder_directions(self, l_origami):
        # every direction with a unit-length saddle connection shows up
        ds = enumerate_directions(l_origami, 5)
        got = {(str(d.vector.x), str(d.vector.y)) for d in ds}
        assert {("1", "0"), ("0", "1"), ("1", "1"), ("2", "1"),
                ("1", "2")} <= got

    def test_deterministic_order(self, golden_l):
        a = enumerate_directions(golden_l, 4)
        b = enumerate_directions(golden_l, 4)
        assert [(str(d.vector.x), str(d.vector.y)) for d in a] == \
               [(str(d.vector.x), str(d.vector.y)) for d in b]
