"""Cross-version output pin: SHA-256 digests of certified JSON output.

Criterion 10 compares two runs of the same code, so it cannot notice
output that changes between versions.  These digests were recorded
from the scalar core that stored two Fractions per scalar; any later
change to arithmetic, normalization or text form that alters a single
byte of a decomposition or certificate turns this test red.  Re-record
a digest only when the JSON format is changed on purpose, and say so in
CHANGES.md.
"""

import functools
import hashlib
import math
from fractions import Fraction

import pytest

from flatdef.analysis import accumulate_tangent, rank_lower_bound
from flatdef.cylinders import PARTIAL, _normalize, decompose, default_bound_sq
from flatdef.deform import shear, stretch
from flatdef import deform, equivalence
from flatdef.equivalence import delaunay_cells
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.render import render_surface
from flatdef.search import enumerate_saddle_connections
from flatdef.serialize import (decomposition_to_json, dumps, span_to_json,
                               surface_to_json)
from flatdef.surface import l_shape, square_tiled
from flatdef.tracing import east_ray_corners, trace_from_corner

from test_origami_oracle import (BENCH_ORIGAMI, DIRECTIONS as ORACLE_DIRECTIONS,
                                 SHEARS, origami, random_origamis)

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
    span = accumulate_tangent(
        golden_l, [decompose(golden_l, v) for v in (Vec2(1, 0), Vec2(1, 1))])
    assert _digest(span_to_json(span, rank_lower_bound(span))) == \
        "6edbb045e72b00db6fc5fcb056079704c55b2424dbb2d397c3f935e334456640"


# -- pins for the triangulation, chord pairing and separatrix tracing ------
#
# The decomposition digests above never reach the saddle-connection
# search, the Delaunay cells, the shear/stretch rebuilds or a single
# separatrix, so each gets its own digest of a canonical JSON form.
# These were recorded from the integer-triple scalar core while search
# and equivalence still built their triangulations separately, and the
# separatrix pins through a single-separatrix tracer since folded into
# decompose and trace_from_corner.


def _vec(v):
    return [str(v.x), str(v.y)]


def _point(pt):
    return [str(x) for x in pt]


def test_golden_saddle_connection_multiset(golden_l):
    found = enumerate_saddle_connections(golden_l, 10)
    rows = sorted((_vec(c.holonomy), c.start_class, c.end_class)
                  for c in found)
    assert _digest(rows) == \
        "c70c801243e12cc275098c4f6aead604706014047a9f1f7cfbcdc66977a7eba2"


@pytest.mark.parametrize("name, digest", [
    ("golden_l", "aaa31f466007c2f6fa578e0edb5816fe15f42eb35daee092cea1a14833b9485a"),
    ("l_origami", "92f6ebe98dfc59fde880a3d1dfb32ce87d5722c1a75de6109fa0afb8d46b0580"),
])
def test_delaunay_cells(request, name, digest):
    cells, gluing = delaunay_cells(request.getfixturevalue(name))
    payload = {
        "cells": [[_vec(e) for e in cell] for cell in cells],
        "gluing": sorted([list(a), list(b)] for a, b in gluing.items()),
    }
    assert _digest(payload) == digest


@pytest.mark.parametrize("op, amount, digest", [
    (shear, Fraction(1, 2), "7772bf0bc569c687f576f0feb81726810aed7ea079e55d131c5694d1aea13e5f"),
    (stretch, Fraction(1, 3), "494d78644fee5ae301c1830d2719c739ee96c97f343bee6b8feed385ebe2ebf0"),
])
def test_l_origami_rebuild(l_origami, op, amount, digest):
    dec = decompose(l_origami, Vec2(1, 0))
    assert _digest(surface_to_json(op(l_origami, dec, amount))) == digest


# Full-set shears and stretches in slanted directions, where the normalizing
# matrix is not the identity, and subset ones that recut; recorded while
# every rebuild still recut the surface and validated it from scratch.
@pytest.mark.parametrize("name, v, op, amount, digest", [
    ("golden_l", (1, 1), shear, Fraction(1, 2), "0fc9308587e57a191bb5bbf833341c72ac2c90381700ff0abc629876e9a57218"),
    ("golden_l", (1, 1), shear, Fraction(-2, 3), "103cf9dcfa289e676dee27343e7ac9978f5b0b7c858560e704dddcc77c6c0fe5"),
    ("golden_l", (2, 1), shear, Fraction(-3, 4), "fc3b4a88f1596338020bf62bfbfad80d81e6c54b0b8430c27055b619ea610ce4"),
    ("golden_l", (2, 1), stretch, Fraction(-1, 2), "7007f6ad20c27cb4045ccee226c2c0cae86e8a2980bf45bb70657393ef16caf2"),
    ("golden_l", (1, 1), stretch, Fraction(3), "82b104531f96626351f9085e28c50349d6369909f353a261606710bf9c293151"),
    ("l_origami", (1, 1), shear, Fraction(1, 3), "08228aaa18f8f2cd2c407564b21aa4c2d283e46ad43a8d4d3420b147477bda42"),
    ("l_origami", (1, 1), stretch, Fraction(-1, 2), "9d05b45e45dcee35039f839bb95b34d720ee9fb1499017b79e16455b527bf340"),
])
def test_full_set_rebuild(request, name, v, op, amount, digest):
    surf = request.getfixturevalue(name)
    dec = decompose(surf, Vec2(*v))
    assert _digest(surface_to_json(op(surf, dec, amount))) == digest


@pytest.mark.parametrize("name, v, op, amount, ids, digest", [
    ("golden_l", (1, 1), shear, Fraction(1, 3), [0], "6c57d18e2ff612af3e0862d711ec59ab263e35d10dc04258dd7c692d2f7d4ce3"),
    ("golden_l", (2, 1), stretch, Fraction(1, 2), [1], "547297453c118eda1c6064186be82b9cc6fc88b813bc520be4dd82a1f9354ab1"),
    ("l_origami", (1, 0), shear, Fraction(1, 2), [0], "7ed8662e0d4692b4e413f44a9a3dfbfd668e7b3ea9c627bad0d49809da9ad662"),
])
def test_subset_rebuild(request, name, v, op, amount, ids, digest):
    surf = request.getfixturevalue(name)
    dec = decompose(surf, Vec2(*v))
    assert _digest(surface_to_json(op(surf, dec, amount, ids=ids))) == digest


# the one certified cylinder of a Partial direction leaves a component
# that is not a cylinder, so even the full set recuts
@pytest.mark.parametrize("op, amount, digest", [
    (shear, Fraction(1, 2), "fc5e8cd2e7011ee9ad5f5c535068c868220385c26fca26bcd82ddb2f0ffdbb5b"),
    (stretch, Fraction(1, 3), "acdb3ca4f15869c1982cf6a70d885321fe34b06ff991fa03fe965c9fd9756f6c"),
])
def test_sqrt2_lshape_partial_rebuild(op, amount, digest):
    surf = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
    dec = decompose(surf, Vec2(2, 1))
    assert dec.status == PARTIAL
    assert _digest(surface_to_json(op(surf, dec, amount))) == digest


def test_golden_trace_separatrix(golden_l):
    dec = decompose(golden_l, (1, 0), trace_length=10)
    (sc,) = [sc for sc in dec.saddle_connections if sc.start_corner == (0, 7)]
    payload = {
        "holonomy": _vec(sc.holonomy),
        "normalized_holonomy": _vec(sc.normalized_holonomy),
        "corners": [list(sc.start_corner), list(sc.end_corner)],
        "classes": [sc.start_class, sc.end_class],
        "chords": [[p, _point(a), _point(b)] for p, a, b in sc.chords],
        "crossings": [_point(c) for c in sc.crossings],
        "is_edge_run": sc.is_edge_run,
    }
    assert _digest(payload) == \
        "d1c4677d647b94139ff371779c4d5561825119c23f99b4693c74e65f05f26efb"


# -- Delaunay cells of long, thin surfaces ----------------------------------
#
# Each case pins the cells and gluing and also the flips that
# retriangulation takes (their number and the digest of their sequence),
# so that the flip sequence itself is pinned, not only its canonical
# result.  Recorded while the flips and incircle tests still ran on
# FieldScalar coordinates.

def _delaunay_case(name, multi_twisted, seeded_origami):
    if name == "l_origami_multi_twist":
        return multi_twisted(square_tiled([(1, 2)], [(1, 3)], n=3), (1, 0))
    if name == "origami6_multi_twist":
        return multi_twisted(seeded_origami(6, 6), (1, 1))
    if name == "origami8_multi_twist":
        return multi_twisted(seeded_origami(8, 8), (1, 0))
    if name == "golden_l_image":
        phi = FieldScalar(Fraction(1, 2), Fraction(1, 2), FieldCtx.get(5))
        return l_shape(phi, 1, 1, phi - 1).apply_matrix(Mat2(2, 1, 1, 1))
    assert name == "sqrt2_lshape_denominators"
    return l_shape(Fraction(3, 2), Fraction(1, 3), Fraction(2, 7),
                   Q2.sqrt_gen() / 5)


@pytest.mark.parametrize("name, flips, flips_digest, digest", [
    ("l_origami_multi_twist", 3,
     "c8c0e25df96d665d67ceb71cd7d752a0778d21c28c6e784a4d8962e6558b9c4b",
     "16787c5c306d40a0462b5d49f95a5b7ae42cab1f0f1e4c58307f7fe412d19384"),
    ("origami6_multi_twist", 36,
     "690e4c58fe99e11e143c57208a5b2d2a70e15cda5ba0781b32bd0da85eda3e89",
     "fd36af297783168a044788463f95580dfd4d2d8c409801d2f92c66f6841666ac"),
    ("origami8_multi_twist", 40,
     "717d9ed0cd39ee214fe722c67e3947c19780fc5f9a43cd30836108a82cbbb1b0",
     "20da5f61a6ef3ee840461853018af3738cb449a05504d1d65402bbf375727af8"),
    ("golden_l_image", 4,
     "8cf4b0a744b1b4fc4dfe4e6e593343a3d958353271348c868770b667156c0408",
     "2f2d1ccae49f8243b2542cf6edd202ee16fc35003b4deed717277a51c01c94ec"),
    ("sqrt2_lshape_denominators", 1,
     "44aac98bfafaab6111bed86f0289d87de39ebeba80787204e1c379a7c068f7ea",
     "33237cd55f1e8352c8eb0efe8af2a966a78d28ac8cfb47a5f70b15194d976559"),
])
def test_delaunay_cells_and_flips(monkeypatch, multi_twisted, seeded_origami,
                                  name, flips, flips_digest, digest):
    surface = _delaunay_case(name, multi_twisted, seeded_origami)
    flipped = []
    flip = equivalence._Tri.flip

    def recorded(tri, t1, k1):
        flipped.append((t1, k1))
        return flip(tri, t1, k1)

    monkeypatch.setattr(equivalence._Tri, "flip", recorded)
    cells, gluing = equivalence.delaunay_cells(surface)
    payload = {
        "cells": [[_vec(e) for e in cell] for cell in cells],
        "gluing": sorted([list(a), list(b)] for a, b in gluing.items()),
    }
    assert len(flipped) == flips
    assert _digest(flipped) == flips_digest
    assert _digest(payload) == digest


# -- east rays of generic L-shapes at the default bound ---------------------
#
# The decomposition digests above see a ray only once it closes up, and
# only through the cylinders it bounds; most rays of a generic L-shape
# run to the bound.  This digest covers every east ray of the normalized
# surface, bound rays included (their advance, chords and crossings).
# Recorded while tracing still ran on FieldScalar slab tables.

def _generic_lshape(d):
    r = FieldCtx.get(d).sqrt_gen()
    return l_shape(4 + r / 16, 3 - r / 8, 2 - r / 16, 2 + r / 8,
                   label=f"l-{d}")


def _primitive_directions(bound=3):
    return [(p, q) for p in range(bound + 1) for q in range(-bound, bound + 1)
            if (p, q) != (0, 0) and not (p == 0 and q < 0)
            and math.gcd(p, q) == 1]


def test_generic_lshape_east_rays():
    dirs = _primitive_directions()
    assert len(dirs) == 16
    rows = []
    for d in (2, 3, 5):
        surf = _generic_lshape(d)
        bound_sq = default_bound_sq(surf)
        for v in dirs:
            direction, _g, normalized = _normalize(surf, Vec2(*v))
            max_advance_sq = bound_sq * direction.vector.norm_sq()
            for corner in east_ray_corners(normalized):
                res = trace_from_corner(normalized, corner,
                                        max_advance_sq=max_advance_sq)
                rows.append([d, list(v), list(corner), res.kind,
                             str(res.advance),
                             None if res.end_corner is None
                             else list(res.end_corner),
                             [[p, _point(a), _point(b)]
                              for p, a, b in res.chords],
                             [_point(c) for c in res.crossings]])
    assert len(rows) == 144
    assert sum(row[3] == "bound" for row in rows) == 108
    assert _digest(rows) == \
        "f232977f3cafca013346baf67810c66dbbbb00a6e7e30f73a817806cc599d9f6"


def test_trace_separatrix_bound_advance():
    direction, _, normalized = _normalize(_generic_lshape(2), (2, 1))
    n = direction.vector.norm_sq()
    res = trace_from_corner(normalized, (0, 0), max_advance_sq=25 * n)
    assert res.kind == "bound"
    assert str(res.advance * res.advance / n) == "10245/512+5/8*sqrt(2)"


# -- rendered decompositions ------------------------------------------------
#
# An SVG's lines, sorted before hashing: the set of drawn elements (cylinder
# fills, polygon outlines, core-leaf segments) is pinned, while the order in
# which a cylinder's core segments are drawn is not.

@pytest.mark.parametrize("name, v, digest", [
    ("golden_l", (1, 0),
     "0401df0b39540565f4001c428853d0e99f1e49ca882fe6f5a5d29a2ca3cc4620"),
    ("golden_l", (1, 1),
     "ad388102fb616c63a44d2ea02373a2a572f5b08b1b00bd7c55e869fdb3d8230a"),
    ("golden_l", (2, 1),
     "6970a2188868650b537ed0639899b5fb8f16c583872804dee5acf0ad8426370c"),
    ("l_origami", (1, 0),
     "3338978f79f4adc511617a6fab4eee4a73e509f7b1c571cd1155886cbd4ca9b3"),
    ("l_origami", (1, 1),
     "af633cade6175071d837dae66a34b0912ac5fee2e39729dedce3d62152286f8e"),
    ("l_origami", (2, 1),
     "4cb25d78de4edb740d13aaecca24601ed3bfd187638991cdeb1fc40598d5aee5"),
    ("sqrt2_l", (1, 0),
     "d10221030bfb64a8ebb6b69a29dc951813f1439a6b73bc30011561ee70adce22"),
])
def test_render_elements(request, name, v, digest):
    if name == "sqrt2_l":
        surf = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
    else:
        surf = request.getfixturevalue(name)
    svg = render_surface(surf, decompose(surf, Vec2(*v)))
    lines = "\n".join(sorted(svg.splitlines()))
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


# -- normalized surfaces, their lattice forms and their cuts ----------------
#
# Every op first sends its direction to horizontal (`apply_matrix`) and
# then cuts the image along the saddle connections it traces.  These
# digests pin, over three input sets, each image (polygons, gluing,
# field, lattice denominator and lattice edges), its default trace bound,
# and each cut: every piece's polygon, component and items (kind, end
# points, edge parameters, chord and gluing partner), and the recut that
# `deform` makes for each single cylinder.  Recorded while images were
# still built edge by edge on FieldScalars and the face walk still
# turned on Vec2s.

SL2Z_SMALL = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
              for c in range(-2, 3) for d in range(-2, 3)
              if a * d - b * c == 1]


def _surface_row(surf):
    lat = surf.lattice()
    return [[[_vec(e) for e in poly] for poly in surf.polygons],
            sorted([list(a), list(b)] for a, b in surf.gluing.items()),
            surf.ctx.d, lat.D, [[list(e) for e in edges] for edges in lat.edges],
            str(default_bound_sq(surf))]


def _pieces_rows(pieces):
    def param(t):
        return None if t is None else str(t)

    return [[piece.pid, piece.polygon, piece.component,
             [[it.kind, _point(it.start), _point(it.end), it.edge,
               param(it.t0), param(it.t1), it.chord_id, it.direction,
               None if it.partner is None
               else [it.partner.piece.pid, it.partner.index]]
              for it in piece.items]]
            for piece in pieces]


def _decomposition_rows(surf, v, cuts):
    """The normalized surface of `surf` in direction v; appends the cut
    and the single-cylinder recuts to `cuts`."""
    dec = decompose(surf, Vec2(*v))
    recuts = []
    for cyl in dec.cylinders:
        members = deform._member_components(dec, {cyl.cyl_id})
        pieces, _sub_lookup, treat = deform._recut(dec, members)
        recuts.append([_pieces_rows(pieces), sorted(treat.items())])
    cuts.append([dec.status, _pieces_rows(dec.cut.pieces), recuts])
    return [list(v), str(default_bound_sq(surf)), _surface_row(dec.normalized)]


def test_normalized_surfaces(golden_l):
    assert len(SL2Z_SMALL) == 52
    cuts = []
    generic = [_decomposition_rows(_generic_lshape(d), v, cuts)
               for d in (2, 3, 5) for v in _primitive_directions()]
    images = []
    for m in SL2Z_SMALL + [(1, 2, 1, 1)]:
        image = golden_l.apply_matrix(Mat2(*m))
        images.append([list(m), _surface_row(image)]
                      + [_decomposition_rows(image, v, cuts)
                         for v in ((1, 0), (1, 1))])
    assert len(cuts) == 48 + 2 * 53
    digests = {"generic": _digest(generic), "golden_images": _digest(images),
               "cuts": _digest(cuts)}
    assert digests == {
        "generic":
            "a353ac741253304ebfc755af1a38df0b83167b9bc06c8622c5c0fc565c856515",
        "golden_images":
            "e9cb353ea8604101cc0055811d668065e522993b889361f7261684e7ec421404",
        "cuts":
            "06657493fffc78951576b0551b020152562c26613b1b9376a94c5eb3e1d91c95",
    }


# -- cross classes ------------------------------------------------------------
#
# Each certified cylinder's cross class: a curve from a zero on its bottom
# circle to a zero on its top.  Recorded while `decompose` still traced
# north from the bottom zero and slid east along the top circle; the
# inputs reach all four places that trace could stop: on a zero, inside
# a polygon on a top chord, on a horizontal edge, and at a chord's end on
# an edge.  `cross_pin_cases` is shared with tests/test_cross_curve.py.

@functools.cache
def cross_pin_cases():
    """(input, direction, decomposition) for the golden L's SL(2,Z)
    images, the oracle's seeded origamis and their integer shears, the
    generic L-shapes, and the sqrt(2) L-shape's partial directions."""
    cases = []
    phi = FieldScalar(Fraction(1, 2), Fraction(1, 2), FieldCtx.get(5))
    golden = l_shape(phi, 1, 1, phi - 1, label="golden-l")
    for m in SL2Z_SMALL:
        image = golden.apply_matrix(Mat2(*m))
        cases += [(["golden", list(m)], v, decompose(image, Vec2(*v)))
                  for v in ((1, 0), (1, 1))]
    for r, u in random_origamis():
        surface = origami(r, u)
        cases += [(["origami", r, u], v, decompose(surface, Vec2(*v)))
                  for v in ORACLE_DIRECTIONS]
    for index, (r, u) in enumerate(([BENCH_ORIGAMI] + random_origamis())[:12]):
        surface = origami(r, u)
        dec = decompose(surface, Vec2(1, 0))
        for t in SHEARS if index else (2,):
            sheared = shear(surface, dec, t)
            cases += [(["shear", r, u, t], v, decompose(sheared, Vec2(*v)))
                      for v in ORACLE_DIRECTIONS]
    for d in (2, 3, 5):
        surface = _generic_lshape(d)
        cases += [(["l", d], v, decompose(surface, Vec2(*v)))
                  for v in _primitive_directions()]
    surface = l_shape(2, 1, 1, Q2.sqrt_gen(), label="sqrt2-l")
    cases += [(["sqrt2-l"], v, decompose(surface, Vec2(*v)))
              for v in ((2, 1), (2, -1))]
    return tuple(cases)


def test_cross_classes():
    cases = cross_pin_cases()
    assert [dec.status for _, _, dec in cases[-2:]] == [PARTIAL, PARTIAL]
    rows = [[name, list(v), cyl.cyl_id, list(cyl.cross_coords)]
            for name, v, dec in cases for cyl in dec.cylinders]
    assert len(rows) == 1012
    assert _digest(rows) == \
        "a85798718ae7464c2bed1fde96bf044078af66e0d1b64646a940addd4854a1da"
