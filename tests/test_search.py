"""Tests of the saddle-connection search on its integer lattice form.

The search develops vertices over one common denominator D and tests
them against the bound R^2 = (RA + RB*sqrt(d))/Rd as
Rd*|DP|^2 <= (RA + RB*sqrt(d))*D^2.  Scaling the surface by lambda and
the bound by lambda^2 changes D, Rd and the field of the bound but not
the geometry, so the search must find the same connections, scaled, in
the same order; a search that lost Rd or carried D for D^2 would not.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from flatdef.field import FieldCtx, FieldScalar, Mat2
from flatdef.search import enumerate_saddle_connections
from flatdef.surface import l_shape, square_tiled

Q2 = FieldCtx.get(2)
Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)


def golden():
    return l_shape(PHI, 1, 1, PHI - 1, label="golden-l")


def sqrt2_l():
    return l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")


def l_origami():
    return square_tiled([(1, 2)], [(1, 3)], n=3, label="l-origami")


def found(surface, bound_sq):
    return [(c.holonomy, c.start_class, c.end_class)
            for c in enumerate_saddle_connections(surface, bound_sq)]


# (surface, squared bound, the field an irrational scale may come from);
# 1 + sqrt(5) cannot scale a surface over Q(sqrt(2)), so that surface is
# scaled by 1 + sqrt(2)
SURFACES = {
    "golden-l": (golden, 9, Q5),
    "sqrt2-l": (sqrt2_l, 9, Q2),
    "l-origami": (l_origami, 10, Q5),
}


class TestScaling:
    @pytest.mark.parametrize("name", sorted(SURFACES))
    @pytest.mark.parametrize("scale", ["1/7", "3/11", "1+sqrt"])
    def test_scaled_surface_scaled_bound(self, name, scale):
        make, bound_sq, ctx = SURFACES[name]
        lam = (FieldScalar(1, 1, ctx) if scale == "1+sqrt"
               else FieldScalar(Fraction(scale)))
        surface = make()
        base = found(surface, bound_sq)
        assert base  # the comparison below is not vacuous
        scaled = found(surface.apply_matrix(Mat2(lam, 0, 0, lam)),
                       lam * lam * bound_sq)
        assert scaled == [(h.scale(lam), s, e) for h, s, e in base]

    def test_bound_between_squared_lengths(self):
        # every squared length on an origami is an integer, and none lies
        # in (5, 3 + sqrt(5)]; the bound's field is not the surface's
        surface = l_origami()
        assert found(surface, FieldScalar(3, 1, Q5)) == found(surface, 5)


class TestBoundary:
    def test_incompatible_fields(self):
        with pytest.raises(ValueError, match="incompatible fields"):
            enumerate_saddle_connections(sqrt2_l(), FieldScalar(3, 1, Q5))
        with pytest.raises(ValueError, match="incompatible fields"):
            enumerate_saddle_connections(golden(), FieldScalar(3, 1, Q2))

    @pytest.mark.parametrize("bound_sq", [1.5, "4", Decimal("4")])
    def test_inexact_bound_rejected(self, bound_sq):
        with pytest.raises(TypeError):
            enumerate_saddle_connections(golden(), bound_sq)


class TestWorkCount:
    def test_scalar_products_do_not_grow_with_the_bound(self, monkeypatch):
        # the triangulation and the window search both run on the
        # surface's integer form, so once it is built a search multiplies
        # no FieldScalar at all, whatever the bound
        surface = golden()
        enumerate_saddle_connections(surface, 1)  # fill the surface caches
        calls = []
        mul = FieldScalar.__mul__

        def counting_mul(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(FieldScalar, "__mul__", counting_mul)
        counts = []
        for bound_sq in (4, 64):
            calls.clear()
            n_found = len(enumerate_saddle_connections(surface, bound_sq))
            counts.append((len(calls), n_found))
        (small, n_small), (large, n_large) = counts
        assert n_large > n_small
        assert small == large == 0
