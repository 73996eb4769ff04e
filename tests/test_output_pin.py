"""Cross-version output pin: SHA-256 digests of certified JSON output.

Criterion 10 compares two runs of the same code, so it cannot notice
output that changes between versions.  These digests were recorded
from the scalar core that stored two Fractions per scalar; any later
change to arithmetic, normalization or text form that alters a single
byte of a decomposition or certificate turns this test red.  Re-record
a digest only when the JSON format is changed on purpose, and say so in
CHANGES.md.
"""

import hashlib

import pytest

from flatdef.analysis import accumulate_tangent, rank_lower_bound
from flatdef.cylinders import PARTIAL, decompose
from flatdef.field import FieldCtx, Vec2
from flatdef.homology import homology_frame
from flatdef.serialize import decomposition_to_json, dumps, span_to_json
from flatdef.surface import l_shape

Q2 = FieldCtx.get(2)


def _digest(obj) -> str:
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("v, digest", [
    ((1, 0), "95c8e7049c47d09993a0cd6f3ea60e0a0956fd1c8fd6adb8fe27e3371f4d810c"),
    ((1, 1), "164ec816059aae73ebc13bca3736bff4897ac87e87dc6bef67ab582ee7e65072"),
    ((2, 1), "f03da482092839032c068a5a21c26ea61243bf8bfc2ebe32eeb60a77999feac9"),
])
def test_golden_decompositions(golden_l, v, digest):
    assert _digest(decomposition_to_json(decompose(golden_l, Vec2(*v)))) == digest


def test_l_origami_decomposition(l_origami):
    dec = decompose(l_origami, Vec2(1, 1))
    assert _digest(decomposition_to_json(dec)) == \
        "0f3ebf840226edd5777662007a94bbe29db954802e0b808f8e72772cfa41491c"


def test_sqrt2_lshape_partial_direction():
    surf = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
    dec = decompose(surf, Vec2(2, 1))
    assert dec.status == PARTIAL
    assert _digest(decomposition_to_json(dec)) == \
        "85a6cae08d7311b589824df0fc16c309afdfcb0e36eed7bf604651ed30d2fe38"


def test_golden_span_certificate(golden_l):
    frame = homology_frame(golden_l)
    span = accumulate_tangent(golden_l, frame, [Vec2(1, 0), Vec2(1, 1)])
    assert _digest(span_to_json(span, rank_lower_bound(span))) == \
        "6edbb045e72b00db6fc5fcb056079704c55b2424dbb2d397c3f935e334456640"
