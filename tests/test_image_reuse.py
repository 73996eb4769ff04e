"""An `apply_matrix` image keeps what a linear map cannot change.

With det > 0 the image shares its source's family cache
(`TranslationSurface._family`): the integer data of the homology frame
(`homology._FRAME_DATA`) and the triangulation (`search.triangulated`).
Every image builds its polygons from its own lattice form when they are
first read.  The expectation is an argument, not a fixture (README, "An
image shares its source's family"): the frame's integer data depends
only on polygon sizes, edge indices, gluing and vertex classes, which
det > 0 keeps, so a carried frame must equal a fresh `HomologyFrame` of
an equal surface built by the constructor, in every integer field and
in `hash`; an ear clip decides by orientation
signs, which det > 0 keeps, so a shared triangulation must equal a fresh
`Triangulated` of the image.  Nothing read from the image's own
coordinates is shared.
"""

import math
from fractions import Fraction
from math import gcd

import pytest

from flatdef import deform, homology
from flatdef.cylinders import decompose
from flatdef.deform import shear, stretch
from flatdef.equivalence import translation_equivalent
from flatdef.field import FieldCtx, Mat2, Vec2
from flatdef.homology import _FRAME_DATA, HomologyFrame, homology_frame
from flatdef.polygon import _Bound
from flatdef.search import Triangulated, triangulated
from flatdef.surface import TranslationSurface, l_shape, square_tiled
from flatdef.tracing import _exit_row, east_ray_corners

from conftest import PHI

# the 52 matrices of SL(2,Z) with entries in [-2, 2], and the 16 primitive
# directions (p, q) with |p|, |q| <= 3, one of each +-pair
SL2Z_SMALL = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
              for c in range(-2, 3) for d in range(-2, 3)
              if a * d - b * c == 1]
PRIMITIVE_3 = [(p, q) for p in range(0, 4) for q in range(-3, 4)
               if (p, q) != (0, 0) and not (p == 0 and q < 0)
               and gcd(p, q) == 1]
ORIGAMIS = [(4, 1), (5, 2), (6, 3), (7, 4), (8, 5), (8, 6)]


def _golden():
    """A fresh golden L with its frame built, so images carry it."""
    surface = l_shape(PHI, 1, 1, PHI - 1, label="golden-l")
    homology_frame(surface)
    return surface


def _fresh(surface):
    """The same polygons and gluing, built by the constructor."""
    gluing = [(a, b) for a, b in surface.gluing.items() if a < b]
    return TranslationSurface(surface.polygons, gluing, surface.label)


def _fields(frame):
    return ({name: getattr(frame, name) for name in _FRAME_DATA},
            frame.m, frame.genus, frame.hash)


def _no_smith_form(*args):
    raise AssertionError("a carried frame ran the Smith form")


def _check_carried(source, image, monkeypatch):
    assert "polygons" not in vars(image)
    assert image._family["frame_data"] is source._family["frame_data"]
    with monkeypatch.context() as m:
        m.setattr(homology, "smith_form", _no_smith_form)
        frame = HomologyFrame(image)
    fresh = _fresh(image)
    assert "frame_data" not in fresh._family
    assert _fields(frame) == _fields(HomologyFrame(fresh))


def _eager(surface, g, gluing):
    """The image built edge by edge by the constructor: each edge mapped
    by g, each polygon reversed and negated when det g < 0."""
    polys = []
    for poly in surface.polygons:
        edges = [g.apply(e) for e in poly]
        if g.det().sign() < 0:
            edges = [-e for e in reversed(edges)]
        polys.append(edges)
    return TranslationSurface(polys, [(a, b) for a, b in gluing.items()
                                      if a < b])


def _scalars(surface):
    """Every coordinate with its field, so Q and Q(sqrt d) differ."""
    return [[(str(s), s.ctx.d) for v in poly for s in (v.x, v.y)]
            for poly in surface.polygons]


class TestCarriedFrame:
    @pytest.mark.parametrize("m", SL2Z_SMALL)
    def test_golden_sl2z_images(self, m, monkeypatch):
        source = _golden()
        _check_carried(source, source.apply_matrix(Mat2(*m)), monkeypatch)

    @pytest.mark.parametrize("v", PRIMITIVE_3)
    def test_golden_direction_normalizers(self, v, monkeypatch):
        source = _golden()
        g = Mat2.direction_normalizer(Vec2(*v))
        _check_carried(source, source.apply_matrix(g), monkeypatch)

    @pytest.mark.parametrize("n, seed", ORIGAMIS)
    def test_origami_full_set_shear_and_stretch(self, n, seed,
                                                seeded_origami, monkeypatch):
        source = seeded_origami(n, seed)
        frame = homology_frame(source)
        for v in [(1, 0), (1, 1), (2, -1)]:
            dec = decompose(source, Vec2(*v), frame=frame)
            assert dec.is_periodic
            for image in (shear(source, dec, Fraction(2, 7)),
                          stretch(source, dec, Fraction(3, 5))):
                _check_carried(source, image, monkeypatch)

    def test_decompose_builds_the_frame_first(self, monkeypatch):
        # with no frame passed, decompose builds the surface's frame
        # before normalizing, so the normalized image and its full-set
        # shear carry it
        source = square_tiled([2, 3, 1, 4], [3, 4, 2, 1])
        dec = decompose(source, Vec2(1, 1))
        assert "frame_data" in dec.normalized._family
        _check_carried(source, shear(source, dec, 2), monkeypatch)

    def test_image_of_an_image(self, monkeypatch):
        source = _golden()
        image = source.apply_matrix(Mat2(1, 1, 0, 1)).apply_matrix(
            Mat2(2, 1, 1, 1))
        _check_carried(source, image, monkeypatch)

    @pytest.mark.parametrize("m", [(-1, 0, 0, 1), (0, 1, 1, 0), (1, 2, 1, 1),
                                   (2, 1, 1, -1)])
    @pytest.mark.parametrize("name", ["golden", "l_origami", "origami",
                                      "marked_torus"])
    def test_negative_det_builds_afresh(self, request, name, m,
                                        seeded_origami):
        # the golden L's renumbered gluing is its own, so only the other
        # surfaces show a frame carried through det < 0
        source = (_golden() if name == "golden"
                  else seeded_origami(6, 3) if name == "origami"
                  else request.getfixturevalue(name))
        homology_frame(source)
        image = source.apply_matrix(Mat2(*m))
        assert "frame_data" not in image._family
        assert _fields(HomologyFrame(image)) == \
            _fields(HomologyFrame(_fresh(image)))

    def test_source_without_frame_carries_nothing(self):
        source = l_shape(PHI, 1, 1, PHI - 1)
        image = source.apply_matrix(Mat2(1, 1, 0, 1))
        assert "frame_data" not in image._family
        assert _fields(HomologyFrame(image)) == \
            _fields(HomologyFrame(_fresh(image)))


class TestLazyPolygons:
    @pytest.mark.parametrize("m", SL2Z_SMALL[::4] + [
        (-1, 0, 0, 1), (Fraction(1, 2), 3, 0, Fraction(2, 3)),
        (0, 1, 1, Fraction(5, 3))])
    def test_polygons_equal_the_eager_build(self, m):
        source = _golden()
        g = Mat2(*m)
        image = source.apply_matrix(g)
        assert "polygons" not in vars(image)
        assert _scalars(image) == _scalars(_eager(source, g, image.gluing))
        assert image.polygons is image.polygons
        assert image == _fresh(image)

    def test_rational_image_of_an_irrational_surface(self):
        r2 = FieldCtx.get(2).sqrt_gen()
        image = l_shape(2 * r2, r2, r2, r2).apply_matrix(Mat2(r2, 0, 0, r2))
        assert image.ctx.d == 0
        assert all(s.ctx.d == 0 for poly in image.polygons for v in poly
                   for s in (v.x, v.y))
        assert image == l_shape(4, 2, 2, 2)

    @pytest.mark.parametrize("v", PRIMITIVE_3)
    def test_decompose_builds_no_normalized_polygons(self, v):
        r2 = FieldCtx.get(2).sqrt_gen()
        for surface in (_golden(), l_shape(4 + r2, 3, 2, 2 + r2)):
            dec = decompose(surface, Vec2(*v))
            normalized = dec.normalized
            normalized.singularities()
            normalized.vertex_class_map()
            assert "polygons" not in vars(normalized)

    def test_origami_decompose_builds_no_normalized_polygons(
            self, seeded_origami):
        surface = seeded_origami(6, 3)
        for v in PRIMITIVE_3:
            dec = decompose(surface, Vec2(*v))
            assert dec.is_periodic
            assert "polygons" not in vars(dec.normalized)



# what a det > 0 image shares with its source; everything else it keeps
# in its own `_cache`
FAMILY_KEYS = {"sing", "frame_data", "triangulated"}


def _triangles(tri):
    return tri.triangles, sorted(tri.gluing.items())


class TestFamilyCache:
    @pytest.mark.parametrize("m", SL2Z_SMALL[::3])
    def test_golden_images_share_the_fresh_triangulation(self, m):
        source = _golden()
        image = source.apply_matrix(Mat2(*m))
        assert triangulated(image) is triangulated(source)
        assert _triangles(triangulated(source)) == \
            _triangles(Triangulated(image)) == \
            _triangles(Triangulated(_fresh(image)))

    @pytest.mark.parametrize("n, seed", ORIGAMIS)
    def test_origami_images_share_the_fresh_triangulation(self, n, seed,
                                                          seeded_origami):
        source = seeded_origami(n, seed)
        for v in [(1, 0), (1, 1), (2, -1)]:
            dec = decompose(source, Vec2(*v))
            for image in (dec.normalized, shear(source, dec, Fraction(2, 7)),
                          stretch(source, dec, Fraction(3, 5))):
                assert image._family is source._family
                assert _triangles(triangulated(image)) == \
                    _triangles(Triangulated(image))

    def test_negative_det_triangulates_afresh(self):
        source = square_tiled([(1, 2)], [(1, 3)], n=3)
        triangulated(source)
        image = source.apply_matrix(Mat2(0, 1, 1, 0))
        assert image._family is not source._family
        assert "triangulated" not in image._family
        assert _triangles(triangulated(image)) == \
            _triangles(Triangulated(image))

    @pytest.mark.parametrize("m", [(1, 1, 0, 1), (2, 1, 1, 1), (0, -1, 1, 0)])
    def test_frame_built_on_an_image_serves_its_source(self, m,
                                                       monkeypatch):
        # the family is shared both ways: frame data first built on an
        # image is the source's too, as det > 0 has an inverse of det > 0
        source = l_shape(PHI, 1, 1, PHI - 1, label="golden-l")
        image = source.apply_matrix(Mat2(*m))
        homology_frame(image)
        assert source._family["frame_data"] is image._family["frame_data"]
        with monkeypatch.context() as mp:
            mp.setattr(homology, "smith_form", _no_smith_form)
            frame = HomologyFrame(source)
        assert _fields(frame) == _fields(HomologyFrame(_fresh(source)))

    @pytest.mark.parametrize("n, seed", [(4, 1), (6, 3), (8, 5)])
    @pytest.mark.parametrize("v", [(1, 0), (0, 1), (1, 1)])
    def test_one_triangulation_per_origami_deform_cycle(
            self, n, seed, v, seeded_origami, monkeypatch):
        # the benchmark's write-path cycle: the multi-twist's Delaunay
        # matching triangulates the surface and its twist, one family
        built = []
        init = Triangulated.__init__

        def counted(self, surface):
            built.append(surface)
            init(self, surface)

        monkeypatch.setattr(Triangulated, "__init__", counted)
        s = seeded_origami(n, seed)
        frame = homology_frame(s)
        dec = decompose(s, Vec2(*v), frame=frame)
        deform.twist_space(s, frame, dec)
        deform.cylinder_preserving_space(s, frame, dec)
        sheared = shear(s, dec, Fraction(2, 7))
        stretch(s, dec, Fraction(3, 5))
        assert deform.verify_linearity(s, frame, dec, Fraction(2, 7))
        inv = [1 / cyl.modulus.as_fraction() for cyl in dec.cylinders]
        t = Fraction(math.lcm(*(x.numerator for x in inv)),
                     math.gcd(*(x.denominator for x in inv)))
        twisted = shear(s, dec, t)
        assert translation_equivalent(s, twisted)
        decompose(sheared, Vec2(*v), frame=homology_frame(sheared))
        # the first reader may be the surface or an image of it, such as
        # the trace's normalized surface
        assert len(built) == 1
        assert built[0]._family is s._family

    @pytest.mark.parametrize("name", ["golden", "origami"])
    def test_no_direction_dependent_entry_is_shared(self, name,
                                                    seeded_origami):
        source = _golden() if name == "golden" else seeded_origami(6, 3)
        triangulated(source)
        images = []
        # directions whose normalizers move every edge, so no two of the
        # surfaces have equal coordinates
        for v in [(0, 1), (1, 1), (2, -1)]:
            dec = decompose(source, Vec2(*v))
            normalized = dec.normalized
            # read everything a surface caches of its own coordinates:
            # the trace made its exit rows for its bound, and every edge
            # a ray can leave by gets its row, under the walk state
            # across it
            east_ray_corners(normalized)
            bound = _Bound(normalized.lattice(),
                           dec.bound_sq * dec.direction.vector.norm_sq())
            key, rows = normalized._cache["exits"]
            assert key == (bound.RA_D2, bound.RB_D2, bound.d)
            sides = triangulated(normalized).sides
            for p, edges in enumerate(normalized.lattice().edges):
                for e, vec in enumerate(edges):
                    if vec[2:] != (0, 0):
                        q, f = normalized.gluing[(p, e)]
                        _exit_row(normalized, rows, sides[q][f], bound)
                normalized.vertices(p)
            normalized.polygons
            homology_frame(normalized)
            assert normalized._family is source._family
            images.append(normalized)
        assert set(source._family) == FAMILY_KEYS
        assert not {"east", "exits"} & set(source._cache)
        for a in [source] + images:
            assert not set(a._cache) & FAMILY_KEYS
            for b in [source] + images:
                if a is b:
                    continue
                assert a.lattice() is not b.lattice()
                assert a.lattice().edges != b.lattice().edges
                assert a.vertices(0) != b.vertices(0)
                assert a.polygons != b.polygons
                assert homology_frame(a) is not homology_frame(b)
                for key in ("east", "exits"):
                    if key in a._cache and key in b._cache:
                        assert a._cache[key] is not b._cache[key]
