"""The crossing table against the field-arithmetic route it replaced.

`Decomposition.crossings` holds each cylinder's twist cocycle I_i on the
frame's basis chains, and on first read checks on integers that I_i
vanishes on the direction's saddle connections and core classes and
that I_i(cross_j) is 1 when i = j and 0 otherwise.  Before it, each
deform entry point summed core crossings on field scalars, checked the
same facts with `frame.evaluate`, and `twist_space` checked independence
by elimination.  That route is kept here as the reference: every cocycle
read from the table must equal it, on the conftest fixtures, the golden
L and its SL(2,Z) images, drawn L-shapes over Q(sqrt 2) and Q(sqrt 5)
(Periodic and PartialWithinBound directions) and random origamis.

Then the table must refuse broken data: negating one cylinder's
crossings, swapping two cylinders' crossings, giving a core the cross
class, or giving a saddle connection the path of a cross curve makes
every reader raise InternalInvariantError.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from flatdef.analysis import TangentSpan
from flatdef.cylinders import PARTIAL, PERIODIC, decompose
from flatdef.deform import (_crossing_cocycle, cylinder_preserving_space,
                            eta, eta_normalized, torus_closure, twist_space)
from flatdef.errors import InternalInvariantError
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.homology import homology_frame
from flatdef.linalg import ComplexScalar, Echelon, row_reduce
from flatdef.surface import l_shape

from test_cross_curve import ref_cross_chords

Q2 = FieldCtx.get(2)

SL2Z_SMALL = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
              for c in range(-2, 3) for d in range(-2, 3)
              if a * d - b * c == 1]

DIRECTIONS_3 = [(p, q) for p in range(4) for q in range(-3, 4)
                if (p, q) != (0, 0) and not (p == 0 and q < 0)
                and gcd(p, q) == 1]


# -- the reference: crossings summed and checked on field scalars -------------

def ref_crossing_cocycle(frame, weighted, zero):
    """sum_i w_i I_i over (w_i, cylinder_i) pairs, each I_i summed over
    the basis chains on the spot."""
    totals = []
    for chain in frame.basis_chains:
        acc = zero
        for weight, cyl in weighted:
            count = sum(c * x for c, x in zip(chain, cyl.core_crossings))
            if count:
                acc = acc + weight * count
        totals.append(acc)
    return frame.cocycle([ComplexScalar(v) for v in totals])


def ref_checked_cocycles(dec):
    """The cocycles I_i, checked by `frame.evaluate` to vanish on every
    saddle connection and core class, and by elimination to be
    independent."""
    frame = dec.frame
    ics = [ref_crossing_cocycle(frame, [(1, cyl)], 0) for cyl in dec.cylinders]
    classes = ([frame.coords_of_path(sc.chords)
                for sc in dec.saddle_connections]
               + [cyl.core_coords for cyl in dec.cylinders])
    span = Echelon(frame.m)
    for ic in ics:
        for coords in classes:
            assert frame.evaluate(ic, coords).is_zero()
        assert span.add([v.re for v in ic.values])
    return ics


def ref_eta_normalized(dec, cyls):
    return ref_crossing_cocycle(dec.frame, [(c.height, c) for c in cyls],
                                FieldScalar(0, 0, dec.normalized.ctx))


def ref_cylinder_preserving_space(dec):
    rows = [[FieldScalar(c, 0, dec.surface.ctx) for c in cyl.core_coords]
            for cyl in dec.cylinders]
    _, _, null = row_reduce(rows, ncols=dec.frame.m)
    return [dec.frame.cocycle([ComplexScalar(x) for x in vec]) for vec in null]


def in_twist_span_by_duality(dec, z):
    at_cross = [(dec.frame.evaluate(z, cyl.cross_coords).re, cyl)
                for cyl in dec.cylinders]
    return _crossing_cocycle(dec, at_cross) == z


def check_against_reference(dec):
    """Every cocycle the table gives equals the reference route's."""
    s, f = dec.surface, dec.frame
    ics = ref_checked_cocycles(dec)
    for cyl, ic in zip(dec.cylinders, ics):
        assert eta_normalized(dec, [cyl.cyl_id]) == ic.scale(cyl.height)
    if not dec.cylinders:
        assert dec.crossings == ()
        return
    assert eta(dec) == ref_eta_normalized(
        dec, dec.cylinders).scale(dec.transport_factor())
    tc = torus_closure([c.modulus for c in dec.cylinders], dec)
    assert tc.cocycle == ref_crossing_cocycle(
        f, [(c.circumference * FieldScalar(t), c)
            for t, c in zip(tc.rational_solution, dec.cylinders)],
        FieldScalar(0, 0, dec.normalized.ctx))
    if not dec.is_periodic:
        return
    gens, dim = twist_space(s, f, dec)
    assert gens == [ref_eta_normalized(dec, [c]) for c in dec.cylinders]
    assert dim == len(ics)
    basis, cp_dim = cylinder_preserving_space(s, f, dec)
    assert basis == ref_cylinder_preserving_space(dec)
    assert cp_dim == len(basis)
    # more_cylinders_search picks its witness by duality: it must agree
    # with elimination against the twist generators
    twists = Echelon(f.m)
    for gen in gens:
        twists.add([v.re for v in gen.values])
        assert in_twist_span_by_duality(dec, gen)
    for z in basis:
        rest = twists.reduce([v.re for v in z.values])
        assert in_twist_span_by_duality(dec, z) == all(
            x.is_zero() for x in rest)


# -- the differential tests -----------------------------------------------------

FIXTURE_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]


@pytest.mark.parametrize("name", ["torus", "l_origami", "golden_l",
                                  "marked_torus"])
def test_conftest_fixtures(name, request):
    surf = request.getfixturevalue(name)
    frame = homology_frame(surf)
    for v in FIXTURE_DIRECTIONS:
        check_against_reference(decompose(surf, Vec2(*v), frame=frame))


def test_golden_sl2z_images(golden_l):
    assert len(SL2Z_SMALL) == 52
    cylinders = 0
    for m in SL2Z_SMALL:
        image = golden_l.apply_matrix(Mat2(*m))
        frame = homology_frame(image)
        for v in ((1, 0), (0, 1)):
            dec = decompose(image, Vec2(*v), frame=frame)
            assert dec.status == PERIODIC
            check_against_reference(dec)
            cylinders += len(dec.cylinders)
    assert cylinders >= 2 * 52


def test_partial_direction():
    surf = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
    dec = decompose(surf, Vec2(2, 1))
    assert dec.status == PARTIAL and dec.cylinders
    check_against_reference(dec)


def _scalar(draw, ctx):
    """a + b*sqrt(d), a in [1, 2] and |b| <= 1/4: positive."""
    a = draw(st.fractions(min_value=1, max_value=2, max_denominator=4))
    b = draw(st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4),
                          max_denominator=4))
    return FieldScalar(a, b, ctx)


@st.composite
def lshape_decompositions(draw):
    ctx = FieldCtx.get(draw(st.sampled_from([2, 5])))
    w2 = _scalar(draw, ctx)
    surface = l_shape(w2 + _scalar(draw, ctx), _scalar(draw, ctx), w2,
                      _scalar(draw, ctx))
    directions = draw(st.lists(st.sampled_from(DIRECTIONS_3), min_size=1,
                               max_size=3, unique=True))
    frame = homology_frame(surface)
    return [decompose(surface, Vec2(*v), frame=frame) for v in directions]


@settings(max_examples=40, deadline=None)
@given(lshape_decompositions())
def test_drawn_lshapes(decs):
    for dec in decs:
        check_against_reference(dec)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_random_origamis(n, seeded_origami):
    for seed in range(4):
        surf = seeded_origami(n, seed)
        frame = homology_frame(surf)
        for v in ((1, 0), (0, 1), (1, 1)):
            dec = decompose(surf, Vec2(*v), frame=frame)
            assert dec.status == PERIODIC
            check_against_reference(dec)


# -- the mutation tests ---------------------------------------------------------

def _negate_one(dec):
    cyl = dec.cylinders[0]
    cyl.core_crossings = tuple(-x for x in cyl.core_crossings)


def _swap_two(dec):
    a, b = dec.cylinders[:2]
    a.core_crossings, b.core_crossings = b.core_crossings, a.core_crossings


def _core_is_cross(dec):
    cyl = dec.cylinders[1]
    cyl.core_coords = cyl.cross_coords


def _saddle_connection_crosses(dec):
    # the reference cross curve runs from a zero to a zero across cylinder
    # 0, so I_0 takes 1 on it
    dec.saddle_connections[0].chords = tuple(
        ref_cross_chords(dec, dec.cylinders[0]))


MUTATIONS = {"negate one": _negate_one, "swap two": _swap_two,
             "core is cross": _core_is_cross,
             "saddle connection crosses": _saddle_connection_crosses}

READERS = {
    "twist_space": lambda s, f, d: twist_space(s, f, d),
    "cylinder_preserving_space":
        lambda s, f, d: cylinder_preserving_space(s, f, d),
    "add_certified": lambda s, f, d: TangentSpan(f).add_certified(d),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", ["l_origami", "golden_l"])
def test_mutation_raises(name, mutation, reader, request):
    surf = request.getfixturevalue(name)
    frame = homology_frame(surf)
    dec = decompose(surf, Vec2(1, 0), frame=frame)
    assert dec.is_periodic and len(dec.cylinders) == 2
    MUTATIONS[mutation](dec)
    with pytest.raises(InternalInvariantError):
        READERS[reader](surf, frame, dec)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("name", ["l_origami", "golden_l"])
def test_unmutated_reads(name, reader, request):
    # the same calls on intact data raise nothing
    surf = request.getfixturevalue(name)
    frame = homology_frame(surf)
    READERS[reader](surf, frame, decompose(surf, Vec2(1, 0), frame=frame))
