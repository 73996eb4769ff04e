import itertools
import random
from fractions import Fraction

import pytest

from flatdef import deform
from flatdef.analysis import TangentSpan
from flatdef.cylinders import Decomposition, _build_cut_pieces, decompose
from flatdef.deform import (_member_components, _member_shares, _recut,
                            _recut_surface,
                            cylinder_preserving_space, deform_from_periods,
                            eta, eta_normalized, shear, stretch,
                            torus_closure, twist_space, verify_linearity)
from flatdef.errors import (DeformationTooLarge, DegenerateCylinder,
                            InternalInvariantError, NotConnected,
                            StaleCocycle)
from flatdef.equivalence import translation_equivalent
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.homology import HomologyFrame, homology_frame
from flatdef.linalg import ComplexScalar, row_reduce
from flatdef.render import render_surface
from flatdef.surface import TranslationSurface, l_shape, square_tiled
from flatdef.tracing import _Shell

Q2 = FieldCtx.get(2)
Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)


def intersection_cocycle(d, cyl):
    """I_i, the cocycle counting crossings with cylinder i's core: its
    shear cocycle h_i I_i divided by its height."""
    return eta_normalized(d, [cyl.cyl_id]).scale(cyl.height.inverse())


class TestIntersectionCocycle:
    def test_torus_values(self, torus):
        f = homology_frame(torus)
        d = decompose(torus, Vec2(1, 0), frame=f)
        ic = intersection_cocycle(d, d.cylinders[0])
        # frame basis: horizontal cell then vertical cell
        assert [str(v.re) for v in ic.values] == ["0", "1"]

    def test_l_origami_bottom(self, l_origami):
        f = homology_frame(l_origami)
        d = decompose(l_origami, Vec2(1, 0), frame=f)
        bottom = min(d.cylinders, key=lambda c: str(c.circumference) == "1")
        ic = intersection_cocycle(d, bottom)
        # integer cocycle, value 1 on its own cross class
        assert all(v.im.is_zero() and v.re.is_rational() for v in ic.values)
        assert frameval(f, ic, bottom.cross_coords) == 1

    def test_zero_on_own_core(self, golden_l):
        f = homology_frame(golden_l)
        d = decompose(golden_l, Vec2(0, 1), frame=f)
        for cyl in d.cylinders:
            ic = intersection_cocycle(d, cyl)
            assert f.evaluate(ic, cyl.core_coords).is_zero()


def frameval(frame, cocycle, coords):
    v = frame.evaluate(cocycle, coords)
    assert v.im.is_zero()
    return v.re.as_fraction()


class TestEta:
    def test_torus(self, torus):
        f = homology_frame(torus)
        d = decompose(torus, Vec2(1, 0), frame=f)
        e = eta(d)
        assert [(str(v.re), str(v.im)) for v in e.values] == \
            [("0", "0"), ("1", "0")]

    def test_l_origami_cross_values_are_heights(self, l_origami):
        f = homology_frame(l_origami)
        d = decompose(l_origami, Vec2(1, 0), frame=f)
        e = eta_normalized(d)
        for cyl in d.cylinders:
            assert frameval(f, e, cyl.cross_coords) == 1  # heights are 1
        for sc in d.saddle_connections:
            assert f.evaluate(e, f.coords_of_path(sc.chords)).is_zero()

    def test_subset_additivity(self, l_origami):
        f = homology_frame(l_origami)
        d = decompose(l_origami, Vec2(1, 0), frame=f)
        full = eta_normalized(d)
        parts = [eta_normalized(d, [c.cyl_id]) for c in d.cylinders]
        acc = parts[0]
        for p in parts[1:]:
            acc = acc + p
        assert acc == full

    def test_full_set_eta_is_imaginary_period_part(self, golden_l):
        # for a certified periodic direction the full cylinder set fills
        # the surface, so the shear derivative is Im(Phi) in normalized
        # coordinates: the global horocycle
        f = homology_frame(golden_l)
        for v in ((1, 0), (1, 1)):
            d = decompose(golden_l, Vec2(*v), frame=f)
            e = eta_normalized(d)
            g = d.matrix
            for val, per in zip(e.values, f.periods()):
                rotated = g.apply(Vec2(per.re, per.im))
                assert (val.re - rotated.y).is_zero()


class TestShearStretch:
    def test_full_dehn_twist_torus(self, torus):
        d = decompose(torus, Vec2(1, 0))
        assert translation_equivalent(shear(torus, d, 1), torus)

    def test_full_dehn_twist_l_origami(self, l_origami):
        d = decompose(l_origami, Vec2(1, 0))
        assert translation_equivalent(shear(l_origami, d, 2), l_origami)

    def test_partial_twist_not_equivalent(self, l_origami):
        d = decompose(l_origami, Vec2(1, 0))
        assert not translation_equivalent(shear(l_origami, d, 1), l_origami)

    def test_shear_composes_additively(self, l_origami):
        f = homology_frame(l_origami)
        d = decompose(l_origami, Vec2(1, 0), frame=f)
        one = shear(l_origami, d, Fraction(1, 3))
        d2 = decompose(one, Vec2(1, 0))
        two = shear(one, d2, Fraction(1, 5))
        direct = shear(l_origami, d, Fraction(1, 3) + Fraction(1, 5))
        assert translation_equivalent(two, direct)

    def test_stretch_torus(self, torus):
        d = decompose(torus, Vec2(1, 0))
        st = stretch(torus, d, 1)
        assert st.area() == FieldScalar(2)
        per = {(str(p.re), str(p.im)) for p in homology_frame(st).periods()}
        assert per == {("1", "0"), ("0", "2")}

    def test_stretch_composes_multiplicatively(self, torus):
        d = decompose(torus, Vec2(1, 0))
        a = stretch(torus, d, 1)
        da = decompose(a, Vec2(1, 0))
        b = stretch(a, da, Fraction(1, 2))
        direct = stretch(torus, d, 2)  # (1+1)(1+1/2) = 1+2
        assert translation_equivalent(b, direct)

    def test_degenerate_stretch(self, torus):
        d = decompose(torus, Vec2(1, 0))
        with pytest.raises(DegenerateCylinder):
            stretch(torus, d, -1)

    def test_subset_shear_with_cuts(self, golden_l):
        # direction (1,1) needs genuine interior cuts for a subset shear
        f = homology_frame(golden_l)
        d = decompose(golden_l, Vec2(1, 1), frame=f)
        assert len(d.cylinders) == 2
        result = shear(golden_l, d, Fraction(1, 3), ids=[0])
        assert (result.area() - golden_l.area()).is_zero()
        data = result.singularities()
        assert data.genus == 2

    def test_shear_keeps_area_and_stratum(self, golden_l):
        d = decompose(golden_l, Vec2(0, 1))
        out = shear(golden_l, d, Fraction(7, 5))
        assert (out.area() - golden_l.area()).is_zero()
        assert out.singularities().signature == (2,)


def _seeded_origamis(count, seed=20261018):
    """Connected square-tiled surfaces with 4 to 8 squares."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 8)
        h = list(range(1, n + 1))
        v = list(range(1, n + 1))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            out.append(square_tiled(h, v, n=n, label=f"origami-{len(out)}"))
        except NotConnected:
            continue
    return out


ORIGAMIS = _seeded_origamis(6)


def _full_set_cases(torus, l_origami, golden_l):
    """(surface, direction) pairs whose full cylinder set fills the surface."""
    cases = [(torus, (1, 1)), (l_origami, (1, 0)), (l_origami, (1, 1)),
             (golden_l, (1, 1)), (golden_l, (2, 1)), (golden_l, (0, 1))]
    cases += [(s, v) for s in ORIGAMIS for v in ((1, 0), (0, 1), (1, 1))]
    return cases


def _fresh(surface):
    """The same polygons and gluing, validated from scratch."""
    gluing = [(a, b) for a, b in surface.gluing.items() if a < b]
    return TranslationSurface(surface.polygons, gluing, surface.label)


def _data(d):
    return (d.classes, d.cone_orders, d.genus)


def _recut_count(monkeypatch, op, *args, **kwargs):
    """(op(*args, **kwargs), how many times it recut the surface)."""
    calls = []

    def counted(decomposition, members):
        calls.append(members)
        return _recut(decomposition, members)

    with monkeypatch.context() as m:
        m.setattr(deform, "_recut", counted)
        return op(*args, **kwargs), len(calls)


class TestFullSetDeformation:
    """Shear and stretch of every cylinder are one matrix on the surface.

    The image carries the source's singularity data through apply_matrix
    (README, "An image shares its source's family"); each expectation
    below is a fresh validation or the general recut of the same
    deformation.
    """

    AMOUNTS = [(shear, Fraction(-3, 7)), (shear, Fraction(5, 2)),
               (stretch, Fraction(-1, 2)), (stretch, Fraction(3))]

    def test_transported_validation(self, torus, l_origami, golden_l):
        for surf, v in _full_set_cases(torus, l_origami, golden_l):
            d = decompose(surf, Vec2(*v))
            assert d.is_periodic
            for op, amount in self.AMOUNTS:
                out = op(surf, d, amount)
                assert "sing" in out._family  # carried over, not recomputed
                assert _data(out.singularities()) == \
                    _data(_fresh(out).singularities())

    def test_matches_general_recut(self, monkeypatch, torus, l_origami,
                                   golden_l):
        for surf, v in _full_set_cases(torus, l_origami, golden_l):
            d = decompose(surf, Vec2(*v))
            ids = {cyl.cyl_id for cyl in d.cylinders}
            members = _member_components(d, ids)
            for op, amount, inner in (
                    (shear, Fraction(-3, 7), Mat2.shear(Fraction(-3, 7))),
                    (stretch, Fraction(3, 2),
                     Mat2.vertical_scale(Fraction(5, 2)))):
                out, recuts = _recut_count(monkeypatch, op, surf, d, amount)
                assert recuts == 0
                recut = _recut(d, members)
                assert out == _recut_surface(
                    d, recut, d.matrix.inverse() @ inner @ d.matrix)
                assert share_holonomies(d, ids, inner) == \
                    ref_recut_holonomies(d, ref_recut(d, members), inner)

    def test_proper_subset_recuts(self, monkeypatch, l_origami):
        # the two horizontal cylinders meet along horizontal edges, so no
        # chord separates them, yet a one-cylinder shear must recut
        d = decompose(l_origami, Vec2(1, 0))
        inner = Mat2.shear(Fraction(1, 2))
        for cyl in d.cylinders:
            out, recuts = _recut_count(monkeypatch, shear, l_origami, d,
                                       Fraction(1, 2), ids=[cyl.cyl_id])
            assert recuts == 1
            assert out != l_origami.apply_matrix(inner)

    def test_partial_full_set_recuts(self, monkeypatch):
        surf = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
        d = decompose(surf, Vec2(2, 1))
        assert not d.is_periodic and d.cylinders
        out, recuts = _recut_count(monkeypatch, shear, surf, d,
                                   Fraction(1, 2))
        assert recuts == 1
        assert len(out.polygons) > len(surf.polygons)


class TestVerifyLinearity:
    @pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(7, 5)])
    def test_fixtures(self, torus, l_origami, golden_l, t):
        for surf in (torus, l_origami, golden_l):
            f = homology_frame(surf)
            for v in ((1, 0), (0, 1), (1, 1)):
                d = decompose(surf, Vec2(*v), frame=f)
                assert d.is_periodic
                assert verify_linearity(surf, f, d, t)

    def test_seeded_origamis(self):
        for surf in ORIGAMIS:
            f = homology_frame(surf)
            for v in ((1, 0), (0, 1), (1, 1)):
                d = decompose(surf, Vec2(*v), frame=f)
                assert verify_linearity(surf, f, d, Fraction(-5, 3))

    def test_subsets(self, l_origami, golden_l):
        for surf, v in ((l_origami, (1, 0)), (golden_l, (1, 1))):
            f = homology_frame(surf)
            d = decompose(surf, Vec2(*v), frame=f)
            for cyl in d.cylinders:
                assert verify_linearity(surf, f, d, Fraction(2, 7),
                                        ids=[cyl.cyl_id])


    def test_subset_builds_no_surface(self, monkeypatch, golden_l):
        f = homology_frame(golden_l)
        d = decompose(golden_l, Vec2(1, 1), frame=f)
        built = []
        init = TranslationSurface.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TranslationSurface, "__init__", counted)
        assert verify_linearity(golden_l, f, d, Fraction(2, 7), ids=[0])
        assert built == []

    def test_no_second_cut(self, monkeypatch, l_origami, golden_l):
        # the member shares come from the decomposition's own cut, so no
        # subset, and no full set, cuts the surface again
        def no_cut(*args):
            raise AssertionError("verify_linearity recut the surface")

        cases = [(surf, v) for surf in (l_origami, golden_l)
                 for v in ((1, 0), (1, 1))]
        decs = [(surf, decompose(surf, Vec2(*v))) for surf, v in cases]
        monkeypatch.setattr(deform, "_build_cut_pieces", no_cut)
        for surf, d in decs:
            f = homology_frame(surf)
            for subset in _nonempty_subsets([c.cyl_id for c in d.cylinders]):
                assert verify_linearity(surf, f, d, Fraction(2, 7),
                                        ids=subset)

    def test_full_set_builds_no_normalized_polygons(self, l_origami,
                                                    golden_l):
        for surf in ORIGAMIS + [l_origami, golden_l]:
            d = decompose(surf, Vec2(1, 1))
            assert verify_linearity(surf, homology_frame(surf), d,
                                    Fraction(-5, 3))
            assert "polygons" not in vars(d.normalized)


def _linearity_cases(l_origami, golden_l):
    """(surface, frame, decomposition, cylinder ids) of the seeded
    origamis and the fixtures in (1, 0), (0, 1) and (1, 1)."""
    for surf in ORIGAMIS + [l_origami, golden_l]:
        f = homology_frame(surf)
        for v in ((1, 0), (0, 1), (1, 1)):
            d = decompose(surf, Vec2(*v), frame=f)
            assert d.is_periodic
            yield surf, f, d, [cyl.cyl_id for cyl in d.cylinders]


def _nonempty_subsets(ids):
    return [set(c) for k in range(1, len(ids) + 1)
            for c in itertools.combinations(ids, k)]


class TestLinearityLaw:
    """The cylinder-deformation theorem's invariants on every cylinder
    subset, not on chosen fixtures: the shear of any subset moves the
    periods by exactly t * eta of that subset, and eta is additive over
    disjoint subsets."""

    def test_every_subset(self, l_origami, golden_l):
        checked = 0
        for surf, f, d, ids in _linearity_cases(l_origami, golden_l):
            for subset in _nonempty_subsets(ids):
                assert verify_linearity(surf, f, d, Fraction(-2, 7),
                                        ids=subset)
                checked += 1
        assert checked == 88

    def test_eta_additive(self, l_origami, golden_l):
        for _, _, d, ids in _linearity_cases(l_origami, golden_l):
            for union in _nonempty_subsets(ids):
                for part in _nonempty_subsets(sorted(union))[:-1]:
                    rest = union - part
                    assert eta(d, union) == eta(d, part) + eta(d, rest)


def ref_verify_linearity(surf, f, d, t, ids=None):
    """The periods route the normalized-coordinate law replaced: the
    periods of the sheared cells against periods + t * eta."""
    chosen = ({c.cyl_id for c in d.cylinders} if ids is None
              else set(ids))
    hol = share_holonomies(d, chosen, Mat2.shear(t))
    sheared = []
    for chain in f.basis_chains:
        x = y = 0
        for c, k in enumerate(chain):
            if k:
                x, y = x + hol[c].x * k, y + hol[c].y * k
        sheared.append(ComplexScalar(x, y))
    tc = ComplexScalar(t)
    return all((got - (phi + tc * ev)).is_zero() for got, phi, ev in
               zip(sheared, f.periods(), eta(d, ids).values))


def _partial_sqrt2():
    surf = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
    d = decompose(surf, Vec2(2, 1))
    assert not d.is_periodic and d.cylinders
    return surf, homology_frame(surf), d


def _raised(d, cyl_id):
    """A copy of d whose cylinder cyl_id is one unit taller."""
    raised = decompose(d.surface, d.direction.vector, frame=d.frame)
    cyl = raised.cylinders[cyl_id]
    cyl.height = cyl.height + 1
    return raised


class TestLinearityFalse:
    """verify_linearity answers False, and agrees with the periods route,
    when either side of the law is wrong."""

    T = Fraction(-2, 7)

    def test_matches_periods_route(self, l_origami, golden_l):
        checked = 0
        for surf, f, d, ids in _linearity_cases(l_origami, golden_l):
            for subset in _nonempty_subsets(ids):
                assert verify_linearity(surf, f, d, self.T, ids=subset) \
                    is ref_verify_linearity(surf, f, d, self.T, subset) \
                    is True
                checked += 1
        assert checked == 88

    def test_partial_matches_periods_route(self):
        surf, f, d = _partial_sqrt2()
        for subset in _nonempty_subsets([c.cyl_id for c in d.cylinders]):
            assert verify_linearity(surf, f, d, self.T, ids=subset) \
                is ref_verify_linearity(surf, f, d, self.T, subset) is True
        assert verify_linearity(surf, f, d, self.T)

    def test_raised_height(self, l_origami, golden_l):
        cases = list(_linearity_cases(l_origami, golden_l))
        cases.append((*_partial_sqrt2(), None))
        for surf, f, d, _ids in cases:
            for cyl in d.cylinders:
                raised = _raised(d, cyl.cyl_id)
                assert not verify_linearity(surf, f, raised, self.T)
                assert not ref_verify_linearity(surf, f, raised, self.T)
                assert not verify_linearity(surf, f, raised, self.T,
                                            ids=[cyl.cyl_id])
                others = [c.cyl_id for c in d.cylinders if c is not cyl]
                if others:
                    assert verify_linearity(surf, f, raised, self.T,
                                            ids=others)

    def test_changed_share(self, monkeypatch, l_origami, golden_l):
        changed = 0
        for surf, f, d, _ids in _linearity_cases(l_origami, golden_l):
            lat = d.normalized.lattice()
            # a cell with a rise that some basis chain counts
            cell = next(c for c, (p, e) in enumerate(f.cells)
                        if lat.edges[p][e][2:] != (0, 0)
                        and any(chain[c] for chain in f.basis_chains))
            shares = _member_shares

            def bumped(decomposition, member_ids):
                out = shares(decomposition, member_ids)
                out[cell] = out[cell] - Fraction(1, 3)
                return out

            with monkeypatch.context() as m:
                m.setattr(deform, "_member_shares", bumped)
                assert not verify_linearity(surf, f, d, self.T)
            assert verify_linearity(surf, f, d, self.T)
            changed += 1
        assert changed == 24

    def test_conjugate_transport(self, monkeypatch, l_origami, golden_l):
        factor = Decomposition.transport_factor
        cases = [(s, homology_frame(s), decompose(s, Vec2(*v)))
                 for s in (l_origami, golden_l) for v in ((1, 1), (2, 1))]
        monkeypatch.setattr(
            Decomposition, "transport_factor",
            lambda self: ComplexScalar(factor(self).re, -factor(self).im))
        for surf, f, d in cases:
            assert not verify_linearity(surf, f, d, self.T)
            assert not ref_verify_linearity(surf, f, d, self.T)

    def test_normalized_not_the_image(self, monkeypatch, l_origami,
                                      golden_l):
        """The Phi(M) term: a normalized surface that is not the g-image
        of the surface fails, though it keeps the cut, the rises and the
        heights, so that the t term alone still holds."""
        checked = 0
        for surf, f, d, _ids in _linearity_cases(l_origami, golden_l):
            d.cut  # built from the true normalized view
            sheared = d.normalized.apply_matrix(Mat2.shear(1))
            with monkeypatch.context() as m:
                m.setattr(d, "_normalized", sheared)
                m.setattr(d, "view", _Shell(surf, sheared.lattice()))
                assert not verify_linearity(surf, f, d, self.T)
                assert not ref_verify_linearity(surf, f, d, self.T)
            assert verify_linearity(surf, f, d, self.T)
            checked += 1
        assert checked == 24

    def test_full_set_multiplies_no_complex(self, monkeypatch, l_origami,
                                            golden_l):
        cases = list(_linearity_cases(l_origami, golden_l))
        for surf, f, d, _ids in cases:
            verify_linearity(surf, f, d, self.T)  # fill the caches

        def refused(*args):
            raise AssertionError("verify_linearity multiplied ComplexScalars")

        monkeypatch.setattr(ComplexScalar, "__mul__", refused)
        monkeypatch.setattr(ComplexScalar, "__rmul__", refused)
        monkeypatch.setattr(HomologyFrame, "periods", refused)
        for surf, f, d, _ids in cases:
            assert verify_linearity(surf, f, d, self.T)


# -- the reference: the two-cut rule the member shares replaced ----------------

def ref_recut(decomposition, members):
    """(pieces, subs, treat): the normalized surface recut along the
    chords between member and non-member components, each recut piece
    treated as the fine piece at the start of its first non-horizontal
    sub-edge, found by scanning that edge's fine sub-edges."""
    normalized = decomposition.normalized
    cut = decomposition.cut
    chord_sides = {}
    for piece in cut.pieces:
        for item in piece.items:
            if item.kind == "chord":
                side = chord_sides.setdefault(item.chord_id, {})
                side[item.direction] = piece.component
    needed = [ch for ch in cut.chords
              if (chord_sides[ch.chord_id].get(1) in members)
              != (chord_sides[ch.chord_id].get(-1) in members)]
    reduced_by_polygon = {}
    for new_id, ch in enumerate(needed):
        reduced_by_polygon.setdefault(ch.polygon, []).append(
            ch._replace(chord_id=new_id))
    pieces, subs = _build_cut_pieces(normalized, reduced_by_polygon)

    def treatment(piece):
        for item in piece.items:
            if item.kind != "sub":
                continue
            vec = normalized.polygons[piece.polygon][item.edge]
            if vec.y.sign() == 0:
                continue
            for fine in cut.subs[(piece.polygon, item.edge)]:
                if fine.t0 == item.t0:
                    return fine.piece.component in members
        raise InternalInvariantError("piece treatment undetermined")

    return pieces, subs, {piece.pid: treatment(piece) for piece in pieces}


def ref_recut_holonomies(decomposition, recut, inner):
    """Each frame cell's deformed holonomy, summed over its recut
    sub-edges, `inner` acting on those of treated pieces."""
    normalized = decomposition.normalized
    g_inv = decomposition.matrix.inverse()
    _pieces, subs, treat = recut
    zero = FieldScalar(0, 0, normalized.ctx)
    out = []
    for cell in decomposition.frame.cells:
        vec = normalized.polygons[cell[0]][cell[1]]
        s = sum((item.t1 - item.t0 for item in subs[cell]
                 if treat[item.piece.pid]), zero)
        out.append(g_inv.apply(inner.apply(vec.scale(s)) + vec.scale(1 - s)))
    return out


def share_holonomies(decomposition, member_ids, inner):
    """Each frame cell's deformed holonomy from its member share s:
    g^-1 (inner(s v) + (1 - s) v), v its normalized vector."""
    lat = decomposition.normalized.lattice()
    g_inv = decomposition.matrix.inverse()
    shares = _member_shares(decomposition, member_ids)
    out = []
    for s, (p, e) in zip(shares, decomposition.frame.cells):
        vec = lat.vec2(lat.edges[p][e])
        out.append(g_inv.apply(inner.apply(vec.scale(s)) + vec.scale(1 - s)))
    return out


class TestOneRule:
    """Each cell moves by its member share in the decomposition's cut:
    on every cylinder subset the deformed holonomies and the recut's
    treatment equal those of the recut reference, whose pieces each take
    one fine piece's membership."""

    INNERS = (Mat2.shear(Fraction(-2, 7)), Mat2.vertical_scale(Fraction(5, 3)))

    def _check(self, d, subset):
        members = _member_components(d, subset)
        ref = ref_recut(d, members)
        assert _recut(d, members)[2] == ref[2]
        for inner in self.INNERS:
            assert share_holonomies(d, subset, inner) == \
                ref_recut_holonomies(d, ref, inner)

    def test_every_subset(self, l_origami, golden_l):
        checked = 0
        for _surf, _f, d, ids in _linearity_cases(l_origami, golden_l):
            for subset in _nonempty_subsets(ids):
                self._check(d, subset)
                checked += 1
        assert checked == 88

    def test_partial(self):
        surf = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
        d = decompose(surf, Vec2(2, 1))
        assert not d.is_periodic
        subsets = _nonempty_subsets([c.cyl_id for c in d.cylinders])
        assert subsets
        for subset in subsets:
            self._check(d, subset)


class TestForeignFrame:
    """A frame that is not the decomposition's raises StaleCocycle at
    every entry point that still takes one beside it, a span's own frame
    included; two 3-square origamis, and the golden L with an origami's
    frame."""

    CALLS = {
        "twist_space": lambda s, f, d: twist_space(s, f, d),
        "cylinder_preserving_space":
            lambda s, f, d: cylinder_preserving_space(s, f, d),
        "verify_linearity":
            lambda s, f, d: verify_linearity(s, f, d, Fraction(1, 3)),
        "add_certified": lambda s, f, d: TangentSpan(f).add_certified(d),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_raises(self, name, l_origami, golden_l):
        other = square_tiled([(1, 2, 3)], [(1, 2)], n=3, label="other")
        for surf, foreign in ((l_origami, other), (golden_l, l_origami)):
            d = decompose(surf, Vec2(1, 0))
            assert d.is_periodic
            with pytest.raises(StaleCocycle):
                self.CALLS[name](surf, homology_frame(foreign), d)


class TestForeignSurface:
    """A surface that is not the decomposition's raises StaleCocycle at
    each entry point that takes one beside it, even with the
    decomposition's own frame: the golden L with an origami's
    decomposition, and the reverse.  Unchecked, they return the origami's
    deformation, False from verify_linearity, or the origami's cylinders
    drawn on the golden L's polygons (or a bare KeyError)."""

    CALLS = {
        "twist_space": lambda s, d: twist_space(s, d.frame, d),
        "cylinder_preserving_space":
            lambda s, d: cylinder_preserving_space(s, d.frame, d),
        "verify_linearity":
            lambda s, d: verify_linearity(s, d.frame, d, Fraction(1, 3)),
        "shear": lambda s, d: shear(s, d, 1),
        "stretch": lambda s, d: stretch(s, d, Fraction(1, 2)),
        "render_surface": lambda s, d: render_surface(s, d),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_raises(self, name, l_origami, golden_l):
        for surf, other in ((golden_l, l_origami), (l_origami, golden_l)):
            d = decompose(other, Vec2(1, 0))
            assert d.is_periodic
            with pytest.raises(StaleCocycle):
                self.CALLS[name](surf, d)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_copy_accepted(self, name, l_origami):
        # a surface built again from the same data is the decomposition's
        # own: its frame has the same hash
        copy = square_tiled([(1, 2)], [(1, 3)], n=3, label="l-origami")
        assert copy is not l_origami
        d = decompose(l_origami, Vec2(1, 0))
        assert self.CALLS[name](copy, d) == self.CALLS[name](l_origami, d)


class TestSpaces:
    def test_twist_dims(self, torus, l_origami, golden_l):
        for surf, want in ((torus, 1), (l_origami, 2), (golden_l, 2)):
            f = homology_frame(surf)
            d = decompose(surf, Vec2(1, 0), frame=f)
            _, dim = twist_space(surf, f, d)
            assert dim == want
            assert dim == len(d.cylinders)

    def test_cp_dims(self, torus, l_origami, marked_torus):
        for surf, want in ((torus, 1), (l_origami, 2), (marked_torus, 2)):
            f = homology_frame(surf)
            d = decompose(surf, Vec2(1, 0), frame=f)
            _, dim = cylinder_preserving_space(surf, f, d)
            assert dim == want

    def test_cp_contains_twist(self, marked_torus):
        f = homology_frame(marked_torus)
        d = decompose(marked_torus, Vec2(1, 0), frame=f)
        tw, twd = twist_space(marked_torus, f, d)
        cp, cpd = cylinder_preserving_space(marked_torus, f, d)
        assert cpd > twd
        rows = [[v.re for v in gen.values] for gen in cp]
        rank_cp, _, _ = row_reduce(rows, ncols=f.m)
        rows_both = rows + [[v.re for v in gen.values] for gen in tw]
        rank_both, _, _ = row_reduce(rows_both, ncols=f.m)
        assert rank_both == rank_cp

    def test_isotropy_of_projected_twist_space(self, torus, l_origami,
                                               golden_l):
        for surf in (torus, l_origami, golden_l):
            f = homology_frame(surf)
            for v in ((1, 0), (0, 1), (1, 1)):
                d = decompose(surf, Vec2(*v), frame=f)
                gens, _ = twist_space(surf, f, d)
                projected = [f.project_absolute(g) for g in gens]
                for pa in projected:
                    for pb in projected:
                        assert f.symplectic_pairing(pa, pb).is_zero()
                # sanity: the pairing itself is not degenerate
                po = f.project_absolute(f.period_cocycle())
                assert not f.symplectic_pairing(po,
                                                projected[0]).is_zero()


def ref_cylinder_preserving(surface, frame, decomposition):
    """The null space of the core coordinates eliminated as FieldScalar
    rows, the route the Fraction elimination replaced."""
    rows = [[FieldScalar(c, 0, surface.ctx) for c in cyl.core_coords]
            for cyl in decomposition.cylinders]
    _, _, null = row_reduce(rows, ncols=frame.m)
    return [frame.cocycle([ComplexScalar(x) for x in vec]) for vec in null]


class TestCylinderPreservingOnRationals:
    """Eliminating the integer core coordinates as Fractions gives the
    basis the field route gives, value for value, text and field
    included, since RREF is unique."""

    def test_matches_field_route(self, torus, l_origami, golden_l,
                                 marked_torus):
        checked = 0
        for surf in [torus, l_origami, golden_l, marked_torus] + ORIGAMIS:
            f = homology_frame(surf)
            for v in ((1, 0), (0, 1), (1, 1)):
                d = decompose(surf, Vec2(*v), frame=f)
                basis, dim = cylinder_preserving_space(surf, f, d)
                ref = ref_cylinder_preserving(surf, f, d)
                assert dim == len(ref)
                assert basis == ref
                assert [[(str(x.re), str(x.im), x.re.ctx, x.im.ctx)
                         for x in gen.values] for gen in basis] == \
                    [[(str(x.re), str(x.im), x.re.ctx, x.im.ctx)
                      for x in gen.values] for gen in ref]
                checked += 1
        assert checked == 30


class TestTorusClosure:
    def test_examples(self):
        tc = torus_closure([Fraction(1, 2), 1])
        assert tc.dimension == 1
        a = tc.allowed_basis[0]
        assert a[1] == 2 * a[0]

        tc2 = torus_closure([FieldScalar(1, 0, Q5), FieldScalar(0, 1, Q5)])
        assert tc2.dimension == 2

        tc3 = torus_closure([PHI - 1, PHI - 1])
        assert tc3.dimension == 1
        assert tc3.allowed_basis[0][0] == tc3.allowed_basis[0][1]

    def test_rational_solution_in_allowed_space(self):
        tc = torus_closure([Fraction(2, 3), Fraction(1, 3), 1])
        t = tc.rational_solution
        assert any(x != 0 for x in t)
        for q in tc.relation_basis:
            assert sum(qi * ti for qi, ti in zip(q, t)) == 0

    def test_induced_cocycle(self, golden_l):
        f = homology_frame(golden_l)
        d = decompose(golden_l, Vec2(1, 0), frame=f)
        tc = torus_closure([c.modulus for c in d.cylinders], decomposition=d)
        assert tc.cocycle is not None
        # defined over Q[c2/c1]: values lie in the ratio field
        for v in tc.cocycle.values:
            assert v.im.is_zero()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            torus_closure([1, Fraction(0)])


class TestDeformFromPeriods:
    def test_zero_deformation(self, torus):
        f = homology_frame(torus)
        z = f.cocycle([ComplexScalar(0), ComplexScalar(0)])
        out = deform_from_periods(torus, z, 1)
        assert out == torus

    def test_vertical_dual_displacement(self, torus):
        f = homology_frame(torus)
        # dual of the vertical class: real cocycle
        z = f.cocycle([ComplexScalar(0), ComplexScalar(1)])
        out = deform_from_periods(torus, z, Fraction(1, 10))
        per = {(str(p.re), str(p.im)) for p in homology_frame(out).periods()}
        assert per == {("1", "0"), ("1/10", "1")}

    def test_exact_period_displacement(self, golden_l):
        f = homology_frame(golden_l)
        vals = [ComplexScalar(Fraction(1, 7), Fraction(-1, 9)),
                ComplexScalar(0), ComplexScalar(Fraction(2, 11)),
                ComplexScalar(0, Fraction(1, 13))]
        z = f.cocycle(vals)
        eps = FieldScalar(Fraction(1, 50))
        out = deform_from_periods(golden_l, z, eps)
        f2 = homology_frame(out)
        assert f2.basis_chains == f.basis_chains
        for new, old, dv in zip(f2.periods(), f.periods(), vals):
            want = old + dv * eps
            assert (new - want).is_zero()

    def test_foreign_cocycle(self, torus, l_origami, golden_l):
        # read through the origami's cells, the torus comes back scaled
        # by 11/10 and the golden L raises a bare KeyError
        zeta = homology_frame(l_origami).period_cocycle()
        for surf in (torus, golden_l):
            with pytest.raises(StaleCocycle):
                deform_from_periods(surf, zeta, Fraction(1, 10))

    def test_too_large(self, l_origami, golden_l):
        # collapsing all periods to zero breaks every polygon
        f = homology_frame(l_origami)
        z = f.cocycle([-p for p in f.periods()])
        with pytest.raises(DeformationTooLarge):
            deform_from_periods(l_origami, z, 1)
        # collapsing one edge class of the golden L's octagon
        fg = homology_frame(golden_l)
        vals = [ComplexScalar(0)] * fg.m
        vals[2] = ComplexScalar(0, -1)  # kills the right vertical edge
        zg = fg.cocycle(vals)
        with pytest.raises(DeformationTooLarge):
            deform_from_periods(golden_l, zg, 1)
