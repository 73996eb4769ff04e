"""Cylinders of square-tiled surfaces from their permutations alone.

An origami is a pair of permutations (r, u) of its n unit squares: the
right and the top neighbour of each square.  `square_tiled` marks every
square corner, so in a primitive direction v = (p, q) every cylinder is
bounded by leaves through lattice points, and these lie 1/|v| apart: each
cylinder has height 1/|v|.

Fix a point x0 just off the lower-left corner of a square (just right of
it and just above, reflected into the quadrant of v).  The leaf from x0 in
square i, followed for |v|, ends at x0 of a square W(i).  It crosses one
vertical or horizontal side of the tiling at a time, in the order of the
lower Christoffel word of |q|/|p|, so W is that word read as r^±1 and
u^±1 (Schmithüsen 2004, "An algorithm for finding the Veech group of an
origami", Experimental Math. 13).  Every x0 is interior to its cylinder,
and the x0 points on one leaf are |v| apart, so the cylinders are the
cycles of W and a cycle of length l is a cylinder of circumference l·|v|
and modulus 1/(l·|v|²).  Nothing here shares code with `decompose`: no
field scalars, no tracing and no cutting.

The write path is checked against the same oracle.  The shear of every
horizontal cylinder by an integer t is the matrix [[1, t], [0, 1]] on the
whole surface, whose unit squares form the origami (r, u∘r^-t): the top
neighbour of square i is reached by t steps left, then one step up.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from flatdef.cylinders import PERIODIC, decompose
from flatdef.deform import shear
from flatdef.equivalence import translation_equivalent
from flatdef.errors import NotConnected
from flatdef.field import Vec2
from flatdef.surface import square_tiled

SEED = 20260418
COUNT = 24
DIRECTIONS = ((1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (-1, 3))
SHEARS = (1, 2, -1)


def christoffel(p, q):
    """The lower Christoffel word of |q|/|p|: "x" for a unit step along
    the first axis, "y" along the second."""
    a, b = abs(p), abs(q)
    n = a + b
    return ["y" if k * b // n > (k - 1) * b // n else "x"
            for k in range(1, n + 1)]


def inverse(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return inv


def power(perm, t):
    base = perm if t >= 0 else inverse(perm)
    out = list(range(len(perm)))
    for _ in range(abs(t)):
        out = [base[i] for i in out]
    return out


def leaf_word(r, u, v):
    """W: the square that the leaf from x0 of each square reaches after v."""
    p, q = v
    steps = {"x": r if p > 0 else inverse(r), "y": u if q > 0 else inverse(u)}
    w = list(range(len(r)))
    for letter in christoffel(p, q):
        w = [steps[letter][i] for i in w]
    return w


def cycle_lengths(perm):
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        n = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            n += 1
        lengths.append(n)
    return sorted(lengths)


def oracle_moduli(r, u, v):
    norm_sq = v[0] ** 2 + v[1] ** 2
    return sorted(Fraction(1, n * norm_sq)
                  for n in cycle_lengths(leaf_word(r, u, v)))


def origami(r, u):
    """`square_tiled` of 0-based permutations."""
    return square_tiled([x + 1 for x in r], [x + 1 for x in u], n=len(r))


def found_moduli(surface, v):
    dec = decompose(surface, Vec2(*v))
    assert dec.status == PERIODIC, v
    return sorted(c.modulus.as_fraction() for c in dec.cylinders)


def random_origamis():
    rng = random.Random(SEED)
    out = []
    while len(out) < COUNT:
        n = rng.randint(2, 7)
        r = list(range(n))
        u = list(range(n))
        rng.shuffle(r)
        rng.shuffle(u)
        try:
            origami(r, u)
        except NotConnected:
            continue
        out.append((r, u))
    return out


# the 4-square origami that the benchmark's escape case shears by 2
BENCH_ORIGAMI = ([3, 2, 1, 0], [0, 3, 2, 1])


def test_christoffel_words():
    assert christoffel(1, 0) == ["x"]
    assert christoffel(0, -1) == ["y"]
    assert christoffel(1, 1) == ["x", "y"]
    assert christoffel(2, 1) == ["x", "x", "y"]
    assert christoffel(-3, 2) == ["x", "x", "y", "x", "y"]
    assert all(gcd(*v) == 1 for v in DIRECTIONS)


def test_leaf_word_of_the_l_origami():
    # (1 2) right, (1 3) up: one horizontal cylinder of 2 squares and one
    # of 1, two vertical ones likewise, and in (1,1) a single cylinder
    r, u = [1, 0, 2], [2, 1, 0]
    assert cycle_lengths(leaf_word(r, u, (1, 0))) == [1, 2]
    assert cycle_lengths(leaf_word(r, u, (0, 1))) == [1, 2]
    assert cycle_lengths(leaf_word(r, u, (1, 1))) == [3]


@pytest.mark.parametrize("index", range(COUNT))
def test_cylinders_are_the_cycles(index):
    r, u = random_origamis()[index]
    surface = origami(r, u)
    for v in DIRECTIONS:
        assert found_moduli(surface, v) == oracle_moduli(r, u, v), (r, u, v)


@pytest.mark.parametrize("index", range(COUNT // 2))
def test_integer_shear_is_the_sheared_origami(index):
    r, u = ([BENCH_ORIGAMI] + random_origamis())[index]
    surface = origami(r, u)
    dec = decompose(surface, Vec2(1, 0))
    for t in SHEARS if index else (2,):
        sheared = shear(surface, dec, t)
        u_t = [u[i] for i in power(r, -t)]
        for v in DIRECTIONS:
            assert found_moduli(sheared, v) == oracle_moduli(r, u_t, v), \
                (r, u, t, v)
        assert translation_equivalent(sheared, origami(r, u_t)), (r, u, t)
