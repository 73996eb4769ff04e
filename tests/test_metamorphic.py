"""Metamorphic test: SL(2,Z) acting on the surface and the direction together.

For g in SL(2,Z), the cylinders of g.S in direction g.v are the g-images
of the cylinders of S in direction v.  So the status and the number of
cylinders agree, and so does each cylinder's area and its circumference
as a multiple of the direction vector (g maps c = lam * v to lam * g.v).
A modulus is area / |c|^2 = area / (lam^2 |v|^2), so the moduli
themselves scale by |v|^2 / |g.v|^2; the invariant multiset is that of
modulus * |v|^2 (README, "Decisions ledger").

Some inputs raise InternalInvariantError ("ray ... escaped the
boundary", ROADMAP item 5): each pair in `KNOWN_ESCAPES` is left out of
the relation and must still raise, so the test goes red both when the
defect reaches a new input and when it is fixed.  The four golden pairs
are the images in `GOLDEN_KNOWN_DEFECT` of perfbench/workloads.py, met
in the direction that the matrix sends to an axis.
"""

import pytest

from flatdef.cylinders import decompose
from flatdef.errors import InternalInvariantError
from flatdef.field import FieldCtx, Mat2, Vec2
from flatdef.surface import l_shape

SL2Z_SMALL = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
              for c in range(-2, 3) for d in range(-2, 3)
              if a * d - b * c == 1]
DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))

KNOWN_ESCAPES = {
    "golden_l": {
        ((-1, -1, 2, 1), (1, -1)), ((-1, 1, 1, -2), (1, 1)),
        ((1, -2, 1, -1), (1, 1)), ((2, 1, 1, 1), (1, -1)),
    },
    "l_origami": {
        ((-2, -1, -1, -1), (1, -1)), ((-2, 1, -1, 0), (0, 1)),
        ((-1, -2, 0, -1), (1, 0)), ((-1, -1, 2, 1), (1, -1)),
        ((-1, 0, 2, -1), (0, 1)), ((-1, 1, 1, -2), (1, 1)),
        ((-1, 2, -1, 1), (1, 1)), ((0, -1, 1, 2), (1, 0)),
        ((0, 1, -1, -2), (1, 0)), ((1, -2, 1, -1), (1, 1)),
        ((1, -1, -1, 2), (1, 1)), ((1, 0, -2, 1), (0, 1)),
        ((1, 1, -2, -1), (1, -1)), ((1, 2, 0, 1), (1, 0)),
        ((2, -1, 1, 0), (0, 1)), ((2, 1, 1, 1), (1, -1)),
    },
    "sqrt2_l": {
        ((-2, 1, -1, 0), (0, 1)), ((-1, 0, 2, -1), (0, 1)),
        ((1, 0, -2, 1), (0, 1)), ((2, -1, 1, 0), (0, 1)),
    },
}


@pytest.fixture(scope="module")
def sqrt2_l():
    return l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen(), label="sqrt2-l")


def _invariants(dec, v):
    scale = v.norm_sq()
    return (dec.status, len(dec.cylinders),
            sorted((c.modulus * scale for c in dec.cylinders), key=str))


@pytest.mark.parametrize("name", sorted(KNOWN_ESCAPES))
def test_sl2z_on_surface_and_direction(request, name):
    surface = request.getfixturevalue(name)
    expected = {v: _invariants(decompose(surface, Vec2(*v)), Vec2(*v))
                for v in DIRECTIONS}
    escaped = set()
    for m in SL2Z_SMALL:
        g = Mat2(*m)
        image = surface.apply_matrix(g)
        for v in DIRECTIONS:
            gv = g.apply(Vec2(*v))
            try:
                dec = decompose(image, gv)
            except InternalInvariantError as exc:
                if "escaped the boundary" not in str(exc):
                    raise
                escaped.add((m, v))
                continue
            assert _invariants(dec, gv) == expected[v], (m, v)
    assert escaped == KNOWN_ESCAPES[name]
