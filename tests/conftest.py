import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import settings

from flatdef.cylinders import decompose
from flatdef.deform import shear
from flatdef.errors import NotConnected
from flatdef.field import FieldCtx, FieldScalar, Vec2
from flatdef.surface import TranslationSurface, l_shape, square_tiled

# `--hypothesis-profile=fresh` draws new examples on every run, also
# where CI=true loads Hypothesis's "ci" profile, which replays the same
# ones, and prints the blob that reproduces a failing example
settings.register_profile("fresh", derandomize=False, database=None,
                          print_blob=True)

Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)


@pytest.fixture(scope="session")
def torus():
    return square_tiled([], [], n=1, label="torus")


@pytest.fixture(scope="session")
def l_origami():
    return square_tiled([(1, 2)], [(1, 3)], n=3, label="l-origami")


@pytest.fixture(scope="session")
def golden_l():
    return l_shape(PHI, 1, 1, PHI - 1, label="golden-l")


@pytest.fixture(scope="session")
def marked_torus():
    """Unit torus with two marked points on one horizontal leaf."""
    a = Fraction(1, 2)
    polys = [
        [Vec2(a, 0), Vec2(0, 1), Vec2(-a, 0), Vec2(0, -1)],
        [Vec2(1 - a, 0), Vec2(0, 1), Vec2(a - 1, 0), Vec2(0, -1)],
    ]
    gluing = [((0, 1), (1, 3)), ((1, 1), (0, 3)),
              ((0, 2), (0, 0)), ((1, 2), (1, 0))]
    return TranslationSurface(polys, gluing, "marked-torus")


@pytest.fixture(scope="session")
def two_point_torus():
    """A factory: the unit square torus with a second marked point
    p = (x, y), 0 < y < 1, as two parallelograms: O, (1, 0), (1, 0) + p,
    p, and p, (1, 0) + p, (1, 1), (0, 1)."""
    def torus(x, y):
        polys = [[Vec2(1, 0), Vec2(x, y), Vec2(-1, 0), Vec2(-x, -y)],
                 [Vec2(1, 0), Vec2(-x, 1 - y), Vec2(-1, 0), Vec2(x, y - 1)]]
        gluing = [((0, 0), (1, 2)), ((0, 2), (1, 0)),
                  ((0, 1), (0, 3)), ((1, 1), (1, 3))]
        return TranslationSurface(polys, gluing, "two-point-torus")
    return torus


@pytest.fixture(scope="session")
def multi_twisted():
    """A factory: the shear of every cylinder of a surface in direction v
    by the least t > 0 that twists each one a whole number of times
    (t = lcm of the 1/modulus), which is equivalent to the surface."""
    def twist(surface, v):
        dec = decompose(surface, Vec2(*v))
        inv = [1 / cyl.modulus.as_fraction() for cyl in dec.cylinders]
        t = Fraction(lcm(*(x.numerator for x in inv)),
                     gcd(*(x.denominator for x in inv)))
        return shear(surface, dec, t)
    return twist


@pytest.fixture(scope="session")
def seeded_origami():
    """A factory: a connected square-tiled surface with n squares, drawn
    from random.Random(seed)."""
    def origami(n, seed):
        rng = random.Random(seed)
        while True:
            h = list(range(1, n + 1))
            v = list(range(1, n + 1))
            rng.shuffle(h)
            rng.shuffle(v)
            try:
                return square_tiled(h, v, n=n, label=f"origami-{n}")
            except NotConnected:
                continue
    return origami
