"""Path classes by whole edges, against the rule they replaced.

`HomologyFrame.chain_of_path` counts each chord in whole polygon edges
and checks that consecutive chords continue through the gluings.  The
reference below is the rule it replaced: each chord is homotoped onto
its polygon's boundary through vertex 0, the part of a last edge taken
with its exact `FieldScalar` parameter t, and these weights must cancel
to integers over a whole path.  Both must give the same chain for every
saddle connection, every core curve and every north-route cross curve
(`ref_cross_chords`) of the pinned inputs and of L-shapes drawn over
Q(sqrt 2) and Q(sqrt 5).  Saddle-connection classes appear in no pin,
so this is what guards them.
"""

from hypothesis import given, settings

from flatdef.field import FieldScalar

from test_cross_curve import lshape_decompositions, ref_cross_chords
from test_output_pin import cross_pin_cases


def ref_prefix_chain(frame, p, point, acc, weight):
    """Add the boundary path from polygon p's vertex 0 to `point`."""
    if point[0] == "vertex":
        upto = point[1]
        t = None
    else:
        upto = point[1]
        t = point[2]
    for e in range(upto):
        c, s = frame.cell_of[(p, e)]
        acc[c] = acc[c] + weight * s
    if t is not None and not t.is_zero():
        c, s = frame.cell_of[(p, upto)]
        acc[c] = acc[c] + weight * t * s


def ref_chain_of_path(frame, chords):
    ctx = frame.surface.ctx
    acc = [FieldScalar(0, 0, ctx)] * len(frame.cells)
    minus_one = FieldScalar(-1, 0, ctx)
    one = FieldScalar(1, 0, ctx)
    for p, start, end in chords:
        ref_prefix_chain(frame, p, start, acc, minus_one)
        ref_prefix_chain(frame, p, end, acc, one)
    for x in acc:
        assert x.is_rational() and x.a.denominator == 1, x
    return [int(x.a) for x in acc]


def check_paths(dec):
    """Compare every path of `dec`; return how many there were."""
    frame = dec.frame
    paths = [sc.chords for sc in dec.saddle_connections]
    paths += [cyl.core_chords for cyl in dec.cylinders]
    paths += [ref_cross_chords(dec, cyl) for cyl in dec.cylinders]
    for chords in paths:
        assert frame.chain_of_path(chords) == \
            ref_chain_of_path(frame, chords), (dec, chords)
    return len(paths)


def test_pinned_inputs_match_reference():
    # 2,193 saddle connections, and a core and a cross curve for each of
    # the 1,012 cylinders
    counts = [check_paths(dec) for _, _, dec in cross_pin_cases()]
    assert sum(counts) == 2193 + 2 * 1012


@settings(max_examples=40, deadline=None)
@given(lshape_decompositions())
def test_lshapes_match_reference(decs):
    for dec in decs:
        check_paths(dec)
