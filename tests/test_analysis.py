import itertools
from fractions import Fraction

import pytest

from flatdef.analysis import (HAS_UNCERTIFIED, accumulate_tangent,
                              complete_parabolicity_check,
                              complete_periodicity_scan, field_bound,
                              more_cylinders_search,
                              rank_lower_bound, sweep)
from flatdef.cylinders import PERIODIC, decompose
from flatdef.deform import deform_from_periods
from flatdef.errors import InternalInvariantError, NonPositiveLength
from flatdef.field import FieldCtx, FieldScalar, Vec2
from flatdef.homology import homology_frame
from flatdef.linalg import ComplexScalar, row_reduce
from flatdef.surface import l_shape, square_tiled

Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)
SQRT5 = FieldScalar(0, 1, Q5)


class TestTangentSpan:
    def test_torus_saturates(self, torus):
        span = accumulate_tangent(torus, [decompose(torus, Vec2(1, 0))])
        assert span.dim() == 2
        assert span.p_dim() == 2
        assert rank_lower_bound(span) == 1

    def test_empty_direction_list(self, torus):
        span = accumulate_tangent(torus, [])
        assert span.dim() == 1
        assert rank_lower_bound(span) == 1  # p(omega) never vanishes

    def test_full_set_generators_stay_in_gl2_span(self, l_origami):
        # shearing every cylinder of a certified periodic direction is the
        # conjugated global horocycle, so the certified span never grows
        # past the 2-dimensional GL(2,R) span; see README, "Criterion 4:
        # the rank certificate of a square-tiled surface is rank 1"
        span = accumulate_tangent(
            l_origami, [decompose(l_origami, v)
                        for v in (Vec2(1, 0), Vec2(0, 1), Vec2(1, 1))])
        assert span.dim() == 2
        assert span.p_dim() == 2
        assert rank_lower_bound(span) == 1

    def test_golden_l_rank_one(self, golden_l):
        span = accumulate_tangent(golden_l,
                                  sweep(golden_l, 4, trace_factor=50))
        assert span.p_dim() == 2
        assert rank_lower_bound(span) == 1

    def test_order_invariance(self, l_origami, golden_l):
        for surf in (l_origami, golden_l):
            dirs = [Vec2(1, 0), Vec2(0, 1), Vec2(1, 1), Vec2(1, -1)]
            dims = set()
            pdims = set()
            for perm in itertools.permutations(dirs):
                span = accumulate_tangent(
                    surf, [decompose(surf, v) for v in perm])
                dims.add(span.dim())
                pdims.add(span.p_dim())
            assert len(dims) == 1 and len(pdims) == 1

    def test_echelon_matches_row_reduce(self, l_origami, golden_l):
        # the span's echelon bases against the old definition: one
        # row_reduce over every generator, after each added direction
        dirs = [Vec2(1, 0), Vec2(0, 1), Vec2(1, 1), Vec2(2, 1), Vec2(1, -2)]
        for surf in (l_origami, golden_l):
            f = homology_frame(surf)
            span = accumulate_tangent(surf, [])
            for d in dirs:
                span.add_certified(decompose(surf, d, frame=f))
                full = [list(gen.values) for gen, _ in span.generators]
                proj = [list(f.project_absolute(gen))
                        for gen, _ in span.generators]
                rank, rref, _ = row_reduce(full, ncols=f.m)
                assert span.dim() == rank
                assert span.basis() == rref
                assert span.p_dim() == row_reduce(proj,
                                                  ncols=2 * f.genus)[0]
            assert len(span.generators) == 1 + len(dirs)

    def test_partial_directions_quarantined(self, golden_l):
        # absurdly small bound: nothing certifies
        span = accumulate_tangent(golden_l, [
            decompose(golden_l, Vec2(13, 8),
                      trace_length=FieldScalar(Fraction(1, 100)))])
        assert span.dim() == 1
        assert len(span.skipped) == 1
        assert span.skipped[0]["rule"] == "NotCertified"


class TestFieldBound:
    def test_l_origami_rational(self, l_origami):
        d = decompose(l_origami, Vec2(1, 0))
        rep = field_bound(d)
        assert rep["field"] == "Q"
        assert not rep["single_cylinder"]

    def test_golden_horizontal(self, golden_l):
        rep = field_bound(decompose(golden_l, Vec2(1, 0)))
        assert rep["field"] == "Q(sqrt(5))"

    def test_single_cylinder_flag(self, l_origami):
        d = decompose(l_origami, Vec2(1, 1))
        assert len(d.cylinders) == 1
        rep = field_bound(d)
        assert rep["single_cylinder"]
        assert rep["field"] == "Q"

    def test_invariant_under_rational_gl2(self, golden_l):
        from flatdef.field import Mat2
        g = Mat2(2, 1, 1, 1)
        moved = golden_l.apply_matrix(g)
        r1 = field_bound(decompose(golden_l, Vec2(1, 0)))
        r2 = field_bound(decompose(moved, g.apply(Vec2(1, 0))))
        assert r1["field"] == r2["field"]


class TestScans:
    def test_torus_all_periodic(self, torus):
        rep = complete_periodicity_scan(sweep(torus, 5))
        assert rep["counts"][HAS_UNCERTIFIED] == 0
        assert rep["counts"][PERIODIC] == rep["directions"]

    def test_golden_completely_periodic(self, golden_l):
        rep = complete_periodicity_scan(
            sweep(golden_l, 4, trace_factor=50))
        assert rep["counts"][HAS_UNCERTIFIED] == 0
        assert rep["offending_directions"] == []

    def test_l_origami_rational_scan(self, l_origami):
        rep = complete_periodicity_scan(
            sweep(l_origami, 5, trace_factor=120))
        assert rep["counts"][HAS_UNCERTIFIED] == 0
        assert rep["counts"][PERIODIC] == rep["directions"]

    def test_golden_parabolic(self, golden_l):
        rep = complete_parabolicity_check(
            sweep(golden_l, 4, trace_factor=50))
        assert rep["parabolic"]
        assert rep["periodic_directions_checked"] > 0

    def test_generic_lshape_fails_parabolicity(self):
        surf = l_shape(FieldScalar(1) + SQRT5, 1, 1, 1, label="generic-l")
        rep = complete_parabolicity_check(sweep(surf, 2, trace_factor=40))
        assert not rep["parabolic"]
        assert rep["periodic_directions_checked"] == 2
        assert [f["direction"] for f in rep["failures"]] == [
            ["0", "1"], ["1", "0"]]

    @pytest.mark.parametrize("kw", [{"trace_factor": 0},
                                    {"trace_length": Fraction(-1, 2)}])
    def test_sweep_refuses_a_bound_that_traces_nothing(self, torus, kw):
        # no direction lies within 1/1000, so no decompose checks the bound
        assert sweep(torus, Fraction(1, 1000)) == []
        with pytest.raises(NonPositiveLength, match="must be positive"):
            sweep(torus, Fraction(1, 1000), **kw)

    def test_horizontal_moduli_of_failure(self):
        surf = l_shape(FieldScalar(1) + SQRT5, 1, 1, 1)
        d = decompose(surf, Vec2(1, 0))
        assert d.status == PERIODIC
        m = sorted((c.modulus for c in d.cylinders), key=str)
        ratio = m[0] / m[1]
        assert not ratio.is_rational()


class TestMoreCylinders:
    def test_marked_torus_gains_a_cylinder(self, marked_torus):
        f = homology_frame(marked_torus)
        d = decompose(marked_torus, Vec2(1, 0), frame=f)
        assert len(d.cylinders) == 1
        res = more_cylinders_search(d, Fraction(1, 8), [Vec2(1, 0)])
        assert res is not None and res["found"]
        assert res["new_cylinders"] == 2

    def test_l_origami_hypothesis_fails(self, l_origami):
        f = homology_frame(l_origami)
        d = decompose(l_origami, Vec2(1, 0), frame=f)
        res = more_cylinders_search(d, Fraction(1, 8), [Vec2(1, 0)])
        assert res is None  # CP = Tw: nothing to gain

    def test_eps_ladder_exhaustion(self, marked_torus, monkeypatch):
        import flatdef.analysis as analysis_mod
        from flatdef.errors import DeformationTooLarge

        def always_too_large(*a, **kw):
            raise DeformationTooLarge("forced")

        monkeypatch.setattr(analysis_mod, "deform_from_periods",
                            always_too_large)
        f = homology_frame(marked_torus)
        d = decompose(marked_torus, Vec2(1, 0), frame=f)
        res = more_cylinders_search(d, 1, [Vec2(1, 0)], max_halvings=3)
        assert res is not None and not res["found"]
        assert len(res["attempted_eps"]) == 3

    # settings under which no deformation size is tried are refused at
    # entry: eps = 0 is a zero deformation, a negative eps is no size,
    # and max_halvings < 1 tries none
    @pytest.mark.parametrize("eps, max_halvings, error, message", [
        (0, 12, NonPositiveLength, "eps must be positive, got 0"),
        (Fraction(-1, 8), 12, NonPositiveLength,
         "eps must be positive, got -1/8"),
        (Fraction(1, 8), 0, ValueError, "max_halvings must be at least 1"),
        (Fraction(1, 8), -1, ValueError, "max_halvings must be at least 1"),
    ])
    def test_search_settings_that_search_nothing(self, eps, max_halvings,
                                                 error, message):
        d = decompose(square_tiled([2, 3, 1], [1, 2, 3]), Vec2(1, 0))
        assert d.status == PERIODIC
        with pytest.raises(error, match=message):
            more_cylinders_search(d, eps, [Vec2(1, 0)],
                                  max_halvings=max_halvings)

    def test_invariant_failure_propagates(self, marked_torus, monkeypatch):
        # a bug while validating the deformed surface must surface as
        # InternalInvariantError, not as "deformation too large"
        from flatdef.surface import TranslationSurface
        f = homology_frame(marked_torus)
        d = decompose(marked_torus, Vec2(1, 0), frame=f)
        original = TranslationSurface.singularities

        def broken(self):
            if self is marked_torus:
                return original(self)
            raise InternalInvariantError("forced")

        monkeypatch.setattr(TranslationSurface, "singularities", broken)
        zeta = f.cocycle([ComplexScalar(0, Fraction(1, 100))] * f.m)
        with pytest.raises(InternalInvariantError, match="forced"):
            deform_from_periods(marked_torus, zeta, Fraction(1, 8))
        with pytest.raises(InternalInvariantError, match="forced"):
            more_cylinders_search(d, Fraction(1, 8), [Vec2(1, 0)])
