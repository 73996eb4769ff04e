"""An `apply_matrix` image keeps what a linear map cannot change.

With det > 0 the image carries the integer data of its source's homology
frame (`homology._FRAME_DATA`), and every image builds its polygons from
its own lattice form when they are first read.  The expectation is an
argument, not a fixture (README, "An image keeps its source's frame and
builds its polygons when read"): the frame's integer data depends only on
polygon sizes, edge indices, gluing and vertex classes, which det > 0
keeps, so a carried frame must equal a fresh `HomologyFrame` of an equal
surface built by the constructor, in every integer field and in `hash`.
"""

from fractions import Fraction
from math import gcd

import pytest

from flatdef import homology
from flatdef.cylinders import decompose
from flatdef.deform import shear, stretch
from flatdef.field import FieldCtx, Mat2, Vec2
from flatdef.homology import _FRAME_DATA, HomologyFrame, homology_frame
from flatdef.surface import TranslationSurface, l_shape, square_tiled

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
    assert image._cache["frame_data"] is source._cache["frame_data"]
    with monkeypatch.context() as m:
        m.setattr(homology, "smith_form", _no_smith_form)
        frame = HomologyFrame(image)
    fresh = _fresh(image)
    assert "frame_data" not in fresh._cache
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
        assert "frame_data" in dec.normalized._cache
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
        assert "frame_data" not in image._cache
        assert _fields(HomologyFrame(image)) == \
            _fields(HomologyFrame(_fresh(image)))

    def test_source_without_frame_carries_nothing(self):
        source = l_shape(PHI, 1, 1, PHI - 1)
        image = source.apply_matrix(Mat2(1, 1, 0, 1))
        assert "frame_data" not in image._cache
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

