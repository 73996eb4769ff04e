"""Translation equivalence on integer cells.

`translation_equivalent` answers False when the two surfaces' lattice
denominators D differ, and otherwise matches the two Delaunay complexes
as lattice tuples over that D.  These tests compare it with the matcher
it replaced, kept here as `ref_equivalent`: the same exhaustive anchored
match on `Vec2` cells, which compares values and needs no D.  Full
twists (every cylinder, or one cylinder by the inverse of its modulus)
must match, and keep D, since D is an invariant of the relative periods;
shears by a fraction of a twist must not match, whether they change D or
not.  Once the lattice forms are built, the match builds no field
scalar.
"""

import sys
from fractions import Fraction

from flatdef import field
from flatdef.cylinders import decompose
from flatdef.deform import shear
from flatdef.equivalence import delaunay_cells, translation_equivalent
from flatdef.field import FieldCtx, FieldScalar, Vec2
from flatdef.polygon import Lattice
from flatdef.surface import l_shape

Q2 = FieldCtx.get(2)
Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)
DIRECTIONS = ((1, 0), (0, 1), (1, 1))
# (squares, seed) of the conftest factory, 4 to 8 squares
ORIGAMI_CASES = [(4, 11), (5, 12), (6, 13), (7, 14), (8, 15), (8, 16)]


def ref_match_from(cells1, gl1, cells2, gl2, c2, rot) -> bool:
    """Try to extend cell 0 of surface 1 -> (cell c2, rotation rot)."""
    n0 = len(cells1[0])
    if len(cells2[c2]) != n0:
        return False
    for k in range(n0):
        if cells1[0][k] != cells2[c2][(k + rot) % len(cells2[c2])]:
            return False
    assignment = {0: (c2, rot)}
    stack = [0]
    while stack:
        a = stack.pop()
        b, r = assignment[a]
        na = len(cells1[a])
        for k in range(na):
            (a2, k2) = gl1[(a, k)]
            (b2, j2) = gl2[(b, (k + r) % na)]
            r2 = (j2 - k2) % len(cells1[a2]) if len(cells1[a2]) else 0
            if len(cells2[b2]) != len(cells1[a2]):
                return False
            if a2 in assignment:
                if assignment[a2] != (b2, r2):
                    return False
                continue
            for k3 in range(len(cells1[a2])):
                if cells1[a2][k3] != cells2[b2][(k3 + r2) % len(cells2[b2])]:
                    return False
            assignment[a2] = (b2, r2)
            stack.append(a2)
    return len(assignment) == len(cells1)


def ref_equivalent(m1, m2) -> bool:
    """The Vec2 matcher: invariants, then the anchored match on the
    `delaunay_cells` vectors."""
    if m1.ctx.d and m2.ctx.d and m1.ctx.d != m2.ctx.d:
        return False
    d1, d2 = m1.singularities(), m2.singularities()
    if d1.genus != d2.genus or d1.signature != d2.signature:
        return False
    if not (m1.area2() - m2.area2()).is_zero():
        return False
    cells1, gl1 = delaunay_cells(m1)
    cells2, gl2 = delaunay_cells(m2)
    if sorted(len(c) for c in cells1) != sorted(len(c) for c in cells2):
        return False
    return any(ref_match_from(cells1, gl1, cells2, gl2, c2, rot)
               for c2 in range(len(cells2)) for rot in range(len(cells2[c2])))


def _agree(m1, m2) -> bool:
    got = translation_equivalent(m1, m2)
    assert got is ref_equivalent(m1, m2)
    assert translation_equivalent(m2, m1) is got
    return got


def _single_twists(surface, v):
    """Each cylinder of direction v sheared alone by the inverse of its
    modulus: one Dehn twist, so equivalent to the surface."""
    dec = decompose(surface, Vec2(*v))
    assert dec.cylinders
    return [shear(surface, dec, 1 / cyl.modulus, ids=[cyl.cyl_id])
            for cyl in dec.cylinders]


class TestAgainstVec2Matcher:
    def test_seeded_origami_multi_twists(self, multi_twisted,
                                         seeded_origami):
        for n, seed in ORIGAMI_CASES:
            surface = seeded_origami(n, seed)
            for v in DIRECTIONS:
                twisted = multi_twisted(surface, v)
                assert _agree(surface, twisted)
                assert twisted.lattice().D == surface.lattice().D

    def test_seeded_origami_fractional_twists(self, seeded_origami):
        # each shear is a fraction of a twist: 0 < t * modulus < 1 for
        # some cylinder of each surface and direction
        denominators = {True: 0, False: 0}
        for n, seed in ORIGAMI_CASES:
            surface = seeded_origami(n, seed)
            for v in DIRECTIONS:
                dec = decompose(surface, Vec2(*v))
                for t in (Fraction(1, 11), Fraction(1, 2), Fraction(1)):
                    assert any(0 < t * cyl.modulus < 1
                               for cyl in dec.cylinders)
                    sheared = shear(surface, dec, t)
                    assert not _agree(surface, sheared)
                    denominators[sheared.lattice().D
                                 == surface.lattice().D] += 1
        # both the D test and the cell match say no
        assert denominators[True] >= 10 and denominators[False] >= 10

    def test_seeded_origami_single_twists(self, seeded_origami):
        for n, seed in ORIGAMI_CASES[:3]:
            surface = seeded_origami(n, seed)
            for v in DIRECTIONS:
                for twisted in _single_twists(surface, v):
                    assert _agree(surface, twisted)

    def test_golden_l(self, golden_l):
        # a Veech surface: in each direction every cylinder has one
        # modulus m, and the shear by 1/m twists each of them once
        for v in DIRECTIONS + ((2, 1),):
            dec = decompose(golden_l, Vec2(*v))
            t = 1 / dec.cylinders[0].modulus
            assert all(t * cyl.modulus == 1 for cyl in dec.cylinders)
            assert _agree(golden_l, shear(golden_l, dec, t))
            assert not _agree(golden_l, shear(golden_l, dec, t / 2))
        # one cylinder alone: the recut runs along horizontal edges only,
        # so it adds no marked point
        for v in ((1, 0), (0, 1)):
            for twisted in _single_twists(golden_l, v):
                assert _agree(golden_l, twisted)

    def test_sqrt2_l_shape(self):
        surface = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
        for v in ((1, 0), (0, 1)):
            dec = decompose(surface, Vec2(*v))
            assert dec.is_periodic
            for twisted in _single_twists(surface, v):
                assert _agree(surface, twisted)
            for cyl in dec.cylinders:
                half = shear(surface, dec, 1 / cyl.modulus / 2,
                             ids=[cyl.cyl_id])
                assert not _agree(surface, half)


class TestWorkCount:
    def _count_scalars(self, monkeypatch, call):
        """How many field scalars `call` builds, by __init__ or `_new`."""
        built = []
        init = FieldScalar.__init__
        new = field._new

        def counted_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counted_new(*args):
            built.append(1)
            return new(*args)

        with monkeypatch.context() as m:
            m.setattr(FieldScalar, "__init__", counted_init)
            for name, module in list(sys.modules.items()):
                if name.startswith("flatdef") and \
                        getattr(module, "_new", None) is new:
                    m.setattr(module, "_new", counted_new)
            result = call()
        return result, len(built)

    def test_no_scalar_after_area_check(self, monkeypatch, multi_twisted,
                                        seeded_origami, golden_l):
        pairs = []
        for n, seed in ORIGAMI_CASES:
            surface = seeded_origami(n, seed)
            for v in DIRECTIONS:
                dec = decompose(surface, Vec2(*v))
                pairs += [(surface, multi_twisted(surface, v), True),
                          (surface, shear(surface, dec, Fraction(1)), False),
                          (surface, shear(surface, dec, Fraction(1, 2)),
                           False)]
        dec = decompose(golden_l, Vec2(1, 0))
        pairs.append((golden_l, shear(golden_l, dec, PHI), True))
        for a, b, want in pairs:
            assert translation_equivalent(a, b) is want  # builds the lattice forms

        def no_vec2(*args):
            raise AssertionError("translation_equivalent built a vector")

        monkeypatch.setattr(Lattice, "vec2", no_vec2)
        for a, b, want in pairs:
            _, area_check = self._count_scalars(
                monkeypatch, lambda: (a.area2() - b.area2()).is_zero())
            same, total = self._count_scalars(
                monkeypatch, lambda: translation_equivalent(a, b))
            assert same is want
            assert total == area_check
