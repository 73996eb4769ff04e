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

import reference_search
from flatdef import search
from flatdef.analysis import sweep
from flatdef.errors import NonPositiveLength
from flatdef.field import FieldCtx, FieldScalar, Mat2
from flatdef.search import (_Tri, _delaunay, _incircle,
                            enumerate_directions, enumerate_saddle_connections)
from flatdef.surface import l_shape, square_tiled
from reference_search import GOLDEN_KNOWN_DEFECT, GOLDEN_MATRICES

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

    @pytest.mark.parametrize("bound_sq", [-1, 0, Fraction(-1, 2)])
    def test_non_positive_bound_rejected(self, bound_sq):
        # such a bound holds no connection, and a scan over it would
        # report no direction at all instead of refusing the input
        surface = square_tiled([2, 1, 3], [1, 3, 2])
        message = f"bound_sq must be positive, got {bound_sq}"
        for search_ in (enumerate_saddle_connections, enumerate_directions,
                        sweep):
            with pytest.raises(NonPositiveLength, match=message):
                search_(surface, bound_sq)


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

    def test_delaunay_half_plane_halves_the_windows(self, monkeypatch):
        # the 48 golden images of the golden-certify workload at R^2 = 1:
        # the Delaunay triangulation has fewer thin triangles to split
        # windows, and the half-plane searches each connection from one
        # end; the ear-clip search from both ends opens 6,608 windows
        calls = []
        window_within = search._window_within

        def counting(*args):
            calls.append(1)
            return window_within(*args)

        monkeypatch.setattr(search, "_window_within", counting)
        monkeypatch.setattr(reference_search, "_window_within", counting)
        images = [golden().apply_matrix(Mat2(*m)) for m in GOLDEN_MATRICES
                  if m not in GOLDEN_KNOWN_DEFECT]
        assert len(images) == 48
        counts = []
        for enumerate_ in (enumerate_saddle_connections,
                           reference_search.ref_enumerate_saddle_connections):
            calls.clear()
            n_found = sum(len(enumerate_(image, 1)) for image in images)
            counts.append((len(calls), n_found))
        (windows, n_found), (ref_windows, ref_found) = counts
        assert n_found == ref_found > 0
        assert 2 * windows <= ref_windows


class TestFlipInvariants:
    """After `_delaunay`, every glued side pair joins corners of the same
    classes and every hinge passes the incircle test."""

    def _check(self, surface):
        tri = _Tri(surface)
        _delaunay(tri)
        for (t, k), (t2, k2) in tri.gluing.items():
            # side (t, k) runs from corner k to k+1, its mate the other way
            assert tri.classes[t][k] == tri.classes[t2][(k2 + 1) % 3]
            assert tri.classes[t][(k + 1) % 3] == tri.classes[t2][k2]
            assert _incircle(*tri.hinge(t, k), tri.lat.d) <= 0
        return tri

    @pytest.mark.parametrize("name", ["torus", "l_origami", "golden_l",
                                      "marked_torus"])
    def test_fixture(self, request, name):
        self._check(request.getfixturevalue(name))

    @pytest.mark.parametrize("n, seed", [(3, 1), (5, 3), (7, 5), (9, 7)])
    def test_seeded_origami(self, seeded_origami, n, seed):
        self._check(seeded_origami(n, seed))

    @pytest.mark.parametrize("n, seed, v", [(6, 6, (1, 1)), (8, 8, (1, 0))])
    def test_flipped_origami(self, multi_twisted, seeded_origami, n, seed,
                             v):
        # multi-twisted origamis take dozens of flips, so the class
        # bookkeeping of `flip` is exercised, not only the ear clip's
        surface = multi_twisted(seeded_origami(n, seed), v)
        assert self._check(surface).edges != _Tri(surface).edges

    def test_two_point_torus(self, two_point_torus):
        # two vertex classes, and flips that join them
        surface = two_point_torus(Fraction(1, 2), Fraction(1, 3))
        assert len(surface.singularities().classes) == 2
        assert self._check(surface).edges != _Tri(surface).edges

