"""Certification by one walk, against the rule it replaced.

`cylinders._check_component` certifies a component of the cut as a
cylinder when each of its pieces has one sub-edge running down and one
running up, and a connection was found along every horizontal edge of
its boundary; its walk gives the boundary circles (README, "A cylinder
is a cycle of strips").  tests/reference_certify.py keeps the rule it
replaced: corner classes, Euler characteristic zero, no interior
vertex, two boundary circles of opposite orientation and equal length.
For every component of the cut, over the fixtures, seeded origamis,
seeded quadratic L-shapes and the golden L's SL(2,Z) images, in the 16
primitive directions with |p|, |q| <= 3, under the default bound and
under trace lengths short enough to leave rays open, both must give
the same verdict, the same bottom circle in the same order (the cross
curve starts from it), the same top circle, circumference and area.

`decompose` keeps the pieces and reason of every component that
failed, and the periodicity scan lists the directions where some but
not all of the surface certified.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from flatdef.analysis import (HAS_UNCERTIFIED, complete_periodicity_scan,
                              sweep)
from flatdef.cli import main
from flatdef.cylinders import (NO_CYLINDER, PARTIAL, PERIODIC,
                               _check_component, _edge_runs, decompose)
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.homology import homology_frame
from flatdef.serialize import dump_surface
from flatdef.surface import l_shape

from reference_certify import ref_check_component

DIRECTIONS = [(p, q) for p in range(4) for q in range(-3, 4)
              if (p, q) != (0, 0) and not (p == 0 and q < 0)
              and gcd(p, q) == 1]
BOUNDS = [None, Fraction(1, 2), 1, 2, 3, 5]
SL2Z_SMALL = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
              for c in range(-2, 3) for d in range(-2, 3)
              if a * d - b * c == 1]


def _seeded_lshape(d, seed):
    """An L-shape over Q(sqrt d) near 4 x 3 below 2 x 2."""
    rng = random.Random(f"certify/{d}/{seed}")
    ctx = FieldCtx.get(d)
    return l_shape(*(FieldScalar(base + Fraction(rng.randint(-2, 2), 16),
                                 Fraction(rng.choice((-1, 1))
                                          * rng.randint(1, 2), 16), ctx)
                     for base in (4, 3, 2, 2)))


def _compare(surface):
    """Check every component of every decomposition of `surface` against
    the reference; return the tally of verdicts by reference reason."""
    frame = homology_frame(surface)
    tally = {}
    for bound in BOUNDS:
        length = None if bound is None else FieldScalar(bound)
        for v in DIRECTIONS:
            dec = decompose(surface, Vec2(*v), trace_length=length,
                            frame=frame)
            if dec._cut is None:
                continue
            runs = _edge_runs(dec.normalized, dec.saddle_connections)
            comps = {}
            for piece in dec.cut.pieces:
                comps.setdefault(piece.component, []).append(piece)
            for comp in comps.values():
                ref = ref_check_component(dec.normalized, comp, runs)
                new = _check_component(dec.normalized, comp, runs)
                where = (surface.label, v, bound, comp[0].pid)
                assert new.ok == ref.ok, (where, ref.reason, new.reason)
                # one kind per reason, whatever Euler characteristic
                key = ref.reason.rstrip("-0123456789 ")
                tally[key] = tally.get(key, 0) + 1
                if not ref.ok:
                    if ref.reason.startswith("boundary edge run"):
                        assert new.reason == ref.reason, where
                    else:
                        assert "entries" in new.reason, where
                    continue
                assert new.bottom == ref.bottom, where
                assert sorted(new.top) == sorted(ref.top), where
                assert new.circumference == ref.circumference, where
                assert new.area == ref.area, where
                assert sorted(piece.pid for piece, _, _ in new.walk) == \
                    [piece.pid for piece in comp], where
    return tally


@pytest.mark.parametrize("name", ["torus", "l_origami", "marked_torus",
                                  "golden_l"])
def test_fixtures(name, request):
    tally = _compare(request.getfixturevalue(name))
    assert tally[""] > 0


def test_seeded_origamis(seeded_origami):
    tally = {}
    for n in range(3, 9):
        for key, count in _compare(seeded_origami(n, n)).items():
            tally[key] = tally.get(key, 0) + count
    # origamis are completely periodic: every component cut certifies
    assert set(tally) == {""}, tally


@pytest.mark.parametrize("d", [2, 3, 5])
def test_seeded_lshapes(d):
    tally = {}
    for seed in range(2):
        for key, count in _compare(_seeded_lshape(d, seed)).items():
            tally[key] = tally.get(key, 0) + count
    assert tally[""] > 0 and tally["euler characteristic"] > 0, tally


@pytest.mark.parametrize("m", SL2Z_SMALL)
def test_golden_sl2z_images(m, golden_l):
    _compare(golden_l.apply_matrix(Mat2(*m)))


# -- failure reasons on the Decomposition --------------------------------------

def _sqrt2_l():
    return l_shape(2, 1, 1, FieldCtx.get(2).sqrt_gen(), label="sqrt2-l")


def test_failed_components_keep_their_reason():
    dec = decompose(_sqrt2_l(), Vec2(2, 1))
    assert dec.status == PARTIAL
    (failed,) = dec.failed_components
    assert failed.piece_ids == (0, 3)
    assert failed.reason.endswith("has 2 entries and 2 exits")
    assert failed.reason.startswith("piece ")
    # the failed pieces are the cut's pieces outside every cylinder
    certified = {pid for cyl in dec.cylinders for pid in cyl.piece_ids}
    assert {piece.pid for piece in dec.cut.pieces} - certified == {0, 3}

    dec = decompose(_sqrt2_l(), Vec2(1, 1))
    assert dec.status == NO_CYLINDER
    assert [f.piece_ids for f in dec.failed_components] == [(0, 1, 2)]


def test_no_cut_lists_no_failure():
    dec = decompose(_sqrt2_l(), Vec2(2, 3))
    assert not dec.saddle_connections and dec._cut is None
    assert dec.status == NO_CYLINDER and dec.failed_components == ()


def test_periodic_lists_no_failure(golden_l):
    dec = decompose(golden_l, Vec2(1, 0))
    assert dec.status == PERIODIC and dec.failed_components == ()


# -- the periodicity scan's uncertified entries --------------------------------

OFFENDING = [["2", "-1"], ["2", "1"], ["1", "-1-1*sqrt(2)"],
             ["1", "1+1*sqrt(2)"]]


def test_periodicity_scan_lists_uncertified_directions():
    rep = complete_periodicity_scan(sweep(_sqrt2_l(), 9))
    assert rep["directions"] == 14
    assert rep["counts"] == {PERIODIC: 2, HAS_UNCERTIFIED: 4,
                             NO_CYLINDER: 8}
    assert sorted(rep["offending_directions"]) == sorted(OFFENDING)
    for entry in rep["entries"]:
        assert (entry["classification"] == HAS_UNCERTIFIED) == \
            (entry["direction"] in OFFENDING)


def test_cli_periodicity_scan_lists_uncertified_directions(tmp_path, capsys):
    path = tmp_path / "sqrt2-l.json"
    dump_surface(_sqrt2_l(), path)
    assert main(["scan", str(path), "--mode", "periodicity",
                 "--max-len", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["counts"][HAS_UNCERTIFIED] == 4
    assert sorted(rep["offending_directions"]) == sorted(OFFENDING)
