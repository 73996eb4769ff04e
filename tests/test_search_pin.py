"""Output pins where the saddle-connection search's pruning decides.

A window is pruned when it is empty or lies wholly beyond the length
bound.  Pruning one window too many loses connections and one too few
only costs time, so the multisets below, taken at radii where many
windows straddle the bound and on surfaces whose windows do not lie
along the axes, pin the pruning decision itself.  The digests were
recorded while the search still clipped each window to exact
intersection points.
"""

import hashlib

import pytest

from flatdef.field import FieldCtx, Mat2
from flatdef.search import enumerate_saddle_connections
from flatdef.serialize import dumps
from flatdef.surface import l_shape

Q2 = FieldCtx.get(2)


def _multiset_digest(surface, bound_sq) -> str:
    found = enumerate_saddle_connections(surface, bound_sq)
    rows = sorted(([str(c.holonomy.x), str(c.holonomy.y)],
                   c.start_class, c.end_class) for c in found)
    return hashlib.sha256(dumps(rows).encode()).hexdigest()


def test_sqrt2_lshape_r25():
    surf = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
    assert _multiset_digest(surf, 25) == \
        "e1a5e5cdf053e9a3decca7e4f42c3304873145e47d6a0fcea21e6df732f9d980"


def test_l_origami_r25(l_origami):
    assert _multiset_digest(l_origami, 25) == \
        "351165f73129354d4be70c95fbc188c4ce062e6cfa99c45435a284ccdcc5b611"


def test_golden_sl2z_image_r10(golden_l):
    image = golden_l.apply_matrix(Mat2(1, 1, 1, 2))
    assert _multiset_digest(image, 10) == \
        "3cbec2ba9bf16f07266a186ee41b80a6446feb2f4593f5500793f36ee98a6278"
