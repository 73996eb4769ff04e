"""Each cylinder's cross class, against the north trace it replaced.

A certified cylinder's cross curve runs from a zero z0 on its bottom
circle to a zero z1 on its top.  `decompose` takes for z0 the start of
the first item of the bottom circle that begins at a polygon vertex,
and for z1 the first vertex on the top circle at or east of the point
straight above z0.  The reference below is the route `decompose` took
before: from the corner at z0 that holds the vertical germ on the
cylinder's side (`ref_find_vertical_corner`), trace north on
`FieldScalar`s (`reference_trace.ref_trace`) for exactly the height,
then slide east along the top circle -- along the cut chord the trace
stopped on, or the horizontal edge it landed on -- and follow that
saddle connection to its end.  Both must give the same class for every
certified cylinder of the pinned inputs and of L-shapes drawn over
Q(sqrt 2) and Q(sqrt 5).

Independently of either route, the class's holonomy, read from the
period map of the original surface and mapped by the normalizing
matrix, must be (s, h): h the cylinder's height and 0 <= s < its
circumference.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from flatdef.cylinders import (_check_component, _edge_runs, _point_coords,
                               decompose)
from flatdef.errors import InternalInvariantError
from flatdef.field import FieldCtx, FieldScalar, Vec2
from flatdef.surface import l_shape

from reference_trace import ref_trace_from_corner, sector_contains
from test_output_pin import cross_pin_cases


# -- the reference: the north trace from the bottom zero -----------------------

def ref_sc_index(saddle_connections, ch):
    """The position of cut chord `ch` along its saddle connection, which
    is embedded, so no chord of it repeats."""
    return saddle_connections[ch.sc_id].chords.index(
        (ch.polygon, ch.start, ch.end))


def ref_bottom_germ_corner(pieces, chords, saddle_connections, bottom):
    """A corner emitting an eastward boundary germ of the bottom circle."""
    for pid, k in bottom:
        item = pieces[pid].items[k]
        if item.start[0] != "vertex":
            continue
        if item.kind == "sub":
            return (pieces[pid].polygon, item.edge)
        ch = chords[item.chord_id]
        if item.direction == 1 and \
                ref_sc_index(saddle_connections, ch) == 0:
            return saddle_connections[ch.sc_id].start_corner
    raise InternalInvariantError("bottom circle has no vertex germ")


def ref_find_vertical_corner(surface, germ_corner):
    """Rotate ccw from the eastward germ to the corner containing (0, 1),
    counting the first corner only on the arc strictly past the germ."""
    lat = surface.lattice()
    east, north = (1, 0, 0, 0), (0, 0, 1, 0)
    _, end = lat.corner_rays(germ_corner)
    if sector_contains(east, end, north, lat.d, include_start=False,
                       include_end=False):
        return germ_corner
    corner = surface.next_corner(germ_corner)
    for _ in range(10 * len(surface.gluing) + 8):
        start, end = lat.corner_rays(corner)
        if sector_contains(start, end, north, lat.d, include_start=True,
                           include_end=False):
            return corner
        corner = surface.next_corner(corner)
    raise InternalInvariantError("no corner contains the vertical germ")


def ref_locate_chord_through(surface, chords_by_polygon, p, coords):
    for ch in chords_by_polygon.get(p, []):
        start = _point_coords(surface, p, ch.start)
        if (start.y - coords.y).sign() != 0:
            continue
        if (start.x - coords.x).sign() < 0 and \
           (coords.x - _point_coords(surface, p, ch.end).x).sign() < 0:
            return ch
    return None


def ref_chord_by_start(chords_by_polygon, p, point):
    for ch in chords_by_polygon.get(p, []):
        if ch.start == point:
            return ch
    return None


def ref_cross_path(surface, chords_by_polygon, saddle_connections, corner,
                   height):
    """Trace (0, 1) from the corner for exactly `height`; if the end is
    not a singular point, slide east along the top circle to the next
    one.  Returns the chords."""
    ctx = surface.ctx
    north = Vec2(FieldScalar(0, 0, ctx), FieldScalar(1, 0, ctx))
    res = ref_trace_from_corner(surface, corner, north, stop_at_advance=height)
    if res.kind == "vertex":
        assert res.advance == height
        return list(res.chords)
    assert res.kind == "target"
    chords = list(res.chords)
    if res.pending_start is not None:
        # stopped inside a polygon, on a cut chord of the top circle
        p, start_point = res.pending_start
        ch = ref_locate_chord_through(surface, chords_by_polygon, p,
                                      res.end_position[1])
        assert ch is not None
        chords.append((p, start_point, ch.end))
    else:
        q, point = res.end_pathpoint
        f, s = point[1], point[2]
        vec = surface.polygons[q][f]
        if vec.y.sign() == 0:
            # on a horizontal edge: slide east to its east end
            end = (f + 1) % len(surface.polygons[q]) if vec.x.sign() > 0 else f
            return chords + [(q, point, ("vertex", end))]
        # at a cut chord's end: the chord goes on from here, on one of
        # the two sides of the edge
        ch = ref_chord_by_start(chords_by_polygon, q, point)
        if ch is None:
            q2, f2 = surface.gluing[(q, f)]
            q, point = q2, ("edge", f2, FieldScalar(1, 0, ctx) - s)
            ch = ref_chord_by_start(chords_by_polygon, q, point)
            assert ch is not None
        chords.append((q, point, ch.end))
    rest = saddle_connections[ch.sc_id].chords
    return chords + rest[ref_sc_index(saddle_connections, ch) + 1:]


def ref_cross_chords(dec, cyl):
    """The reference cross curve of a cylinder of `dec`, from its cut."""
    normalized, cut = dec.normalized, dec.cut
    check = _check_component(normalized,
                             [cut.pieces[pid] for pid in cyl.piece_ids],
                             _edge_runs(normalized, dec.saddle_connections))
    assert check.ok
    germ = ref_bottom_germ_corner(cut.pieces, cut.chords,
                                  dec.saddle_connections, check.bottom)
    corner = ref_find_vertical_corner(normalized, germ)
    return ref_cross_path(normalized, cut.chords_by_polygon,
                          dec.saddle_connections, corner, cyl.height)


# -- the checks ----------------------------------------------------------------

def check_against_reference(dec):
    for cyl in dec.cylinders:
        assert tuple(dec.frame.coords_of_path(ref_cross_chords(dec, cyl))) == \
            cyl.cross_coords, (dec, cyl.cyl_id)


def check_holonomy(dec):
    periods = dec.frame.periods()
    zero = FieldScalar(0, 0, dec.surface.ctx)
    for cyl in dec.cylinders:
        x = y = zero
        for c, z in zip(cyl.cross_coords, periods):
            if c:
                x, y = x + z.re * c, y + z.im * c
        run = dec.matrix.apply(Vec2(x, y))
        assert run.y == cyl.height, (dec, cyl.cyl_id)
        assert run.x.sign() >= 0 and (run.x - cyl.circumference).sign() < 0, \
            (dec, cyl.cyl_id)


def test_pinned_inputs_match_reference():
    cases = cross_pin_cases()
    assert sum(len(dec.cylinders) for _, _, dec in cases) == 1012
    for _, _, dec in cases:
        check_against_reference(dec)


def test_pinned_inputs_holonomy():
    for _, _, dec in cross_pin_cases():
        check_holonomy(dec)


def _scalar(draw, ctx):
    """a + b*sqrt(d), a in [1, 2] and |b| <= 1/4: positive."""
    a = draw(st.fractions(min_value=1, max_value=2, max_denominator=4))
    b = draw(st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4),
                          max_denominator=4))
    return FieldScalar(a, b, ctx)


DIRECTIONS_3 = [(p, q) for p in range(4) for q in range(-3, 4)
                if (p, q) != (0, 0) and not (p == 0 and q < 0)
                and gcd(p, q) == 1]


@st.composite
def lshape_decompositions(draw):
    ctx = FieldCtx.get(draw(st.sampled_from([2, 5])))
    w2 = _scalar(draw, ctx)
    surface = l_shape(w2 + _scalar(draw, ctx), _scalar(draw, ctx), w2,
                      _scalar(draw, ctx))
    directions = draw(st.lists(st.sampled_from(DIRECTIONS_3), min_size=1,
                               max_size=3, unique=True))
    return [decompose(surface, Vec2(*v)) for v in directions]


@settings(max_examples=40, deadline=None)
@given(lshape_decompositions())
def test_lshapes_match_reference(decs):
    for dec in decs:
        check_against_reference(dec)
        check_holonomy(dec)
