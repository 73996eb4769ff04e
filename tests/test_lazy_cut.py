"""The cut that `decompose` skips where no separatrix closed.

A cylinder is bounded by saddle connections and horizontal edges of its
direction, and a certified cylinder lists every saddle connection of
its boundary.  With no saddle connection, every boundary item of the
cut is a horizontal edge whose run the bound stopped, and a component
bounded by one is not certified; with no horizontal polygon edge either,
every sub-edge is glued, and the one component of the cut is the whole
closed surface, which is no annulus.  `decompose` then builds no cut,
and `Decomposition.cut` builds the chordless cut on first access.
These tests hold the lazy cut to an eager build made here, hold the
skip to the case it is sound for, and hold every certified cylinder to
its boundary connections, under bounds shorter and longer than the
edges.
"""

import math
from fractions import Fraction

import pytest

from flatdef.cylinders import (NO_CYLINDER, PARTIAL, _build_cut_pieces,
                               _check_component, _components, _glue_items,
                               decompose)
from flatdef.field import FieldCtx, FieldScalar, Vec2
from flatdef.surface import l_shape, square_tiled

Q2 = FieldCtx.get(2)


def _generic_lshape(d):
    r = FieldCtx.get(d).sqrt_gen()
    return l_shape(4 + r / 16, 3 - r / 8, 2 - r / 16, 2 + r / 8)


def _sqrt2_l():
    return l_shape(2, 1, 1, Q2.sqrt_gen())


DIRECTIONS = [(p, q) for p in range(4) for q in range(-3, 4)
              if (p, q) != (0, 0) and not (p == 0 and q < 0)
              and math.gcd(p, q) == 1]
SURFACES = [_generic_lshape(d) for d in (2, 3, 5)] + [_sqrt2_l()]


def _eager_cut(normalized):
    """The chordless cut as `decompose` built it before the skip."""
    pieces, subs = _build_cut_pieces(normalized, {})
    _glue_items(normalized, subs)
    return pieces, subs, _components(pieces)


def _items(items):
    return [[it.kind, it.start, it.end, it.edge, it.t0, it.t1, it.chord_id,
             it.direction, it.piece.pid, it.index,
             None if it.partner is None
             else [it.partner.piece.pid, it.partner.index]]
            for it in items]


def _pieces(pieces):
    return [[piece.pid, piece.polygon, piece.component, _items(piece.items)]
            for piece in pieces]


def _unclosed():
    """Every (surface, direction, decomposition) with no saddle
    connection."""
    out = []
    for surf in SURFACES:
        for v in DIRECTIONS:
            dec = decompose(surf, Vec2(*v))
            if not dec.saddle_connections:
                out.append((surf, v, dec))
    return out


def test_lazy_cut_is_the_eager_cut():
    cases = _unclosed()
    assert len(DIRECTIONS) == 16
    # 8 of 16 directions on each generic L-shape, 2 on the sqrt(2) L
    assert len(cases) == 26
    for _surf, v, dec in cases:
        assert dec.status == NO_CYLINDER and dec.cylinders == ()
        assert dec.unresolved_rays
        assert dec._cut is None
        normalized = dec.normalized
        pieces, subs, components = _eager_cut(normalized)
        cut = dec.cut
        assert dec.cut is cut
        assert _pieces(cut.pieces) == _pieces(pieces)
        assert sorted(cut.subs) == sorted(subs)
        assert all(_items(cut.subs[key]) == _items(subs[key]) for key in subs)
        assert cut.chords == [] and cut.chords_by_polygon == {}
        assert len(components) == 1
        assert [piece.pid for piece in components[0]] == \
            [piece.pid for piece in cut.pieces]
        assert {piece.component for piece in cut.pieces} == {0}
        assert all(item.partner is not None
                   for piece in cut.pieces for item in piece.items)
        assert not _check_component(normalized, cut.pieces, {}).ok


def test_partial_direction_keeps_its_cylinder():
    # some rays unresolved, yet a closed separatrix bounds a cylinder:
    # the skip must not fire here
    dec = decompose(_sqrt2_l(), Vec2(2, 1))
    assert dec.status == PARTIAL
    assert len(dec.cylinders) == 1 and dec.unresolved_rays
    assert dec.saddle_connections and dec._cut is not None
    assert str(dec.cylinders[0].modulus) == "1/5"


@pytest.mark.parametrize("v", [(1, 0), (0, 1), (1, 1)])
def test_closed_directions_cut_at_once(v):
    dec = decompose(_sqrt2_l(), Vec2(*v))
    assert dec.saddle_connections and dec._cut is not None


def test_short_bound_certifies_no_horizontal_edge_cylinder():
    # the torus square's horizontal edges bound its cylinder, but a bound
    # of 1/2 stops the edge run before it closes: no saddle connection,
    # so the cylinder, whose boundary connection would go unlisted, is
    # not certified, and no cut is made
    dec = decompose(square_tiled([1], [1]), Vec2(1, 0),
                    trace_length=FieldScalar(Fraction(1, 2)))
    assert dec.saddle_connections == () and dec._cut is None
    assert dec.status == NO_CYLINDER and dec.cylinders == ()
    assert dec.unresolved_rays == ((0, 0),)
    # the lazy cut is the annulus the edge bounds; only the edge run
    # fails its check
    cut = dec.cut
    check = _check_component(dec.normalized, cut.pieces, {})
    assert check.reason == "boundary edge run beyond the bound"
    runs = {(0, 0): 0, (0, 2): 0}
    assert _check_component(dec.normalized, cut.pieces, runs).ok


# trace lengths below the shortest edge of every fixture (the marked
# torus has edges of length 1/2), between its edge lengths, above the
# longest (the golden L's, (1 + sqrt 5)/2), and the default
BOUNDS = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, 2, 5, None]


@pytest.mark.parametrize("name", ["torus", "l_origami", "marked_torus",
                                  "golden_l"])
def test_certified_cylinders_list_their_boundary(name, request):
    # each boundary circle of a cylinder is a chain of whole saddle
    # connections, so the connections it lists are at least one circle
    # long and at most both
    surface = request.getfixturevalue(name)
    found = 0
    for bound in BOUNDS:
        length = None if bound is None else FieldScalar(bound)
        for v in DIRECTIONS:
            dec = decompose(surface, Vec2(*v), trace_length=length)
            for cyl in dec.cylinders:
                found += 1
                ids = cyl.boundary_sc_ids
                assert ids and len(set(ids)) == len(ids)
                # normalized advances and circumferences share one scale
                total = sum((dec.saddle_connections[i].normalized_holonomy.x
                             for i in ids), FieldScalar(0, 0, surface.ctx))
                assert (total - cyl.circumference).sign() >= 0
                assert (cyl.circumference * 2 - total).sign() >= 0
    assert found

