"""The Delaunay half-plane search against the ear-clip search it replaced.

`search.enumerate_saddle_connections` searches the surface's Delaunay
triangulation and only holonomies in H = {y > 0} or {y = 0, x > 0},
adding the reverse of each connection it finds.  The reference
(tests/reference_search.py) searches the family's ear clip from every
corner's whole cone.  Both must find the same multiset of (holonomy,
start class, end class) and the same directions; only the list order
may differ.  The surfaces include every SL(2,Z) image of the golden L
with entries in [-2, 2], perturbed L-shapes over three fields, seeded
origamis with one and with several vertex classes, and marked tori.

`two_point_torus(1/2, 1/3)` has an exactly east connection, (1, 0) from
the corner point back to itself, that no Delaunay edge carries: the
marked point at height 1/3 leaves no empty circle through its ends.
So that connection lies strictly inside a corner cone that straddles
east, which is why such a cone is searched whole.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from flatdef.field import FieldCtx, Mat2, Vec2
from flatdef.search import (_Tri, _delaunay, enumerate_directions,
                            enumerate_saddle_connections)
from flatdef.surface import l_shape
from reference_search import (GOLDEN_KNOWN_DEFECT, GOLDEN_MATRICES,
                              ref_enumerate_directions,
                              ref_enumerate_saddle_connections)

RADII = (1, 4, 9, 25)


def perturbed_lshape(d, seed):
    """An L-shape over Q(sqrt(d)) whose four lengths are drawn from
    random.Random(seed) around (4, 3, 2, 2)."""
    rng = random.Random(seed)
    r = FieldCtx.get(d).sqrt_gen()
    lengths = [base + rng.choice((1, -1)) * r
               * Fraction(rng.randint(1, 8), 16 * rng.randint(9, 17))
               for base in (4, 3, 2, 2)]
    return l_shape(*lengths, label=f"l-{d}-{seed}")


def _multiset(conns):
    return Counter((c.holonomy, c.start_class, c.end_class) for c in conns)


def assert_same_search(surface):
    for bound_sq in RADII:
        ref = ref_enumerate_saddle_connections(surface, bound_sq)
        got = enumerate_saddle_connections(surface, bound_sq)
        assert _multiset(got) == _multiset(ref), bound_sq
        assert enumerate_directions(surface, bound_sq) == \
            ref_enumerate_directions(surface, bound_sq)


def test_golden_matrices():
    assert len(GOLDEN_MATRICES) == 52
    assert set(GOLDEN_KNOWN_DEFECT) <= set(GOLDEN_MATRICES)


def test_golden_l(golden_l):
    assert_same_search(golden_l)


@pytest.mark.parametrize("matrix", GOLDEN_MATRICES)
def test_golden_image(golden_l, matrix):
    assert_same_search(golden_l.apply_matrix(Mat2(*matrix)))


def test_sqrt2_lshape():
    assert_same_search(l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen()))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_perturbed_lshape(d, seed):
    assert_same_search(perturbed_lshape(d, seed))


ORIGAMIS = [(3, 1), (4, 2), (5, 3), (6, 4), (7, 5), (8, 6), (9, 7), (9, 8)]


@pytest.mark.parametrize("n, seed", ORIGAMIS)
def test_seeded_origami(seeded_origami, n, seed):
    assert_same_search(seeded_origami(n, seed))


def test_origamis_include_several_vertex_classes(seeded_origami):
    counts = [len(seeded_origami(n, seed).singularities().classes)
              for n, seed in ORIGAMIS]
    assert min(counts) == 1 and max(counts) > 1


@pytest.mark.parametrize("x, y", [
    (Fraction(1, 2), Fraction(1, 3)),
    (FieldCtx.get(2).sqrt_gen() - 1, Fraction(2, 5)),
], ids=["rational", "irrational"])
def test_two_point_torus(two_point_torus, x, y):
    assert_same_search(two_point_torus(x, y))


def test_marked_torus_fixture(marked_torus):
    assert_same_search(marked_torus)


def test_east_connection_inside_a_delaunay_corner(two_point_torus):
    # the fixture the straddling-cone rule needs: (1, 0) is found, and
    # no side of the Delaunay triangulation carries it
    surface = two_point_torus(Fraction(1, 2), Fraction(1, 3))
    tri = _Tri(surface)
    _delaunay(tri)
    east = surface.lattice().point(Vec2(1, 0))
    assert all(e != east for es in tri.edges for e in es)
    assert Vec2(1, 0) in {c.holonomy
                          for c in enumerate_saddle_connections(surface, 1)}
