import hashlib
import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import flatdef
from flatdef import cli, serialize
from flatdef.cli import main
from flatdef.cylinders import decompose
from flatdef.deform import shear, stretch
from flatdef.errors import FlatdefError
from flatdef.field import FieldCtx, FieldScalar, Mat2, Vec2
from flatdef.homology import homology_frame
from flatdef.render import render_surface
from flatdef.serialize import (decomposition_to_json, dump_surface, dumps,
                               load_surface, surface_from_json,
                               surface_to_json)
from flatdef.surface import TranslationSurface, l_shape, square_tiled

Q5 = FieldCtx.get(5)
PHI = FieldScalar(Fraction(1, 2), Fraction(1, 2), Q5)


def _json_dumps(obj) -> str:
    """The reference for `serialize.dumps`."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.fixture(autouse=True)
def dumps_matches_json(monkeypatch):
    """Every `dumps` a test here makes, the CLI's included, must give the
    reference's text; the call returns the writer's own text."""
    mismatches = []
    writer = serialize.dumps

    def checked(obj):
        text = writer(obj)
        if text != _json_dumps(obj):
            mismatches.append(text)
        return text

    monkeypatch.setattr(serialize, "dumps", checked)
    monkeypatch.setattr(cli, "dumps", checked)
    yield
    assert mismatches == []


_JSON_TEXT = st.text(st.characters(codec="utf-8"), max_size=12) | \
    st.sampled_from(["", "\"", "\\", "é", " ", "\x00\x1f\x7f",
                     "퟿\U0001f600", "a\"b\\c\n\t"])
_JSON_LEAF = (st.none() | st.booleans() | _JSON_TEXT
              | st.integers(-2**80, 2**80) | st.floats())
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=30)
_KEYS = (st.sampled_from([None, True, False]) | st.integers(-99, 99)
         | st.floats(allow_nan=False))


class TestDumps:
    """`serialize.dumps` against `json.dumps(obj, sort_keys=True,
    indent=2) + "\n"`."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON)
    def test_differential(self, obj):
        assert serialize.dumps(obj) == _json_dumps(obj)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(_KEYS, _JSON_LEAF, max_size=5))
    def test_non_string_keys(self, obj):
        # json sorts the keys before it converts them, so keys of mixed
        # kinds may raise TypeError; the writer must raise the same
        try:
            want = _json_dumps(obj)
        except TypeError as exc:
            with pytest.raises(TypeError) as got:
                serialize.dumps(obj)
            assert str(got.value) == str(exc)
            return
        assert serialize.dumps(obj) == want

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}}, [[], {}], float("nan"), float("-inf"),
        {"b": [1, 2.5, None], "a": (True, "x")}, 2**100, -(2**64),
        {"é": "\U0001f600", "ctl": "\x01\x1f", "q": "\"\\"}])
    def test_edges(self, obj):
        assert serialize.dumps(obj) == _json_dumps(obj)

    @pytest.mark.parametrize("obj", [{1: 2, "a": 3}, {(1, 2): 3}, {1},
                                     Fraction(1, 2), [b"x"]])
    def test_unserializable_is_a_type_error(self, obj):
        with pytest.raises(TypeError) as want:
            _json_dumps(obj)
        with pytest.raises(TypeError) as got:
            serialize.dumps(obj)
        assert str(got.value) == str(want.value)


class TestSurfaceIO:
    def test_round_trip_bit_exact(self, tmp_path, torus, l_origami, golden_l):
        for i, surf in enumerate((torus, l_origami, golden_l)):
            path = tmp_path / f"s{i}.json"
            dump_surface(surf, path)
            loaded = load_surface(path)
            assert loaded == surf
            path2 = tmp_path / f"s{i}b.json"
            dump_surface(loaded, path2)
            assert path.read_bytes() == path2.read_bytes()

    def test_format_version_key(self, torus):
        data = surface_to_json(torus)
        assert data["format"] == 1

    def test_json_object_round_trip(self, golden_l):
        assert surface_from_json(surface_to_json(golden_l)) == golden_l

    def test_malformed_rejected(self):
        from flatdef.errors import FlatdefError
        with pytest.raises(FlatdefError):
            surface_from_json({"polygons": []})

    def test_decomposition_deterministic(self, golden_l):
        a = dumps(decomposition_to_json(decompose(golden_l, Vec2(1, 1))))
        b = dumps(decomposition_to_json(decompose(golden_l, Vec2(1, 1))))
        assert a == b


# The writers of a surface's text, its file and its frame hash, write
# from the integers of its lattice form; the references below write each
# coordinate from `surface.polygons`, by str(Fraction) for the file and
# str(FieldScalar) for the hash.
def _reference_scalar(x):
    return [str(x.a), str(x.b)] if x.b else str(x.a)


def _reference_json(surface):
    return {
        "format": 1,
        "field": {"d": surface.ctx.d},
        "polygons": [[[_reference_scalar(e.x), _reference_scalar(e.y)]
                      for e in poly] for poly in surface.polygons],
        "gluing": sorted([list(a), list(b)]
                         for a, b in surface.gluing.items() if a < b),
        "label": surface.label,
    }


def _reference_hash(surface, frame):
    payload = {
        "d": surface.ctx.d,
        "polygons": [[[str(e.x), str(e.y)] for e in poly]
                     for poly in surface.polygons],
        "gluing": sorted([list(a), list(b)]
                         for a, b in surface.gluing.items() if a < b),
        "cells": [list(c) for c in frame.cells],
        "basis": [list(c) for c in frame.basis_chains],
        "absolute": [list(v) for v in frame.absolute_basis],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _seeded_lshape(d, seed):
    """An L-shape over Q(sqrt d) whose lengths, drawn from
    random.Random(seed), all have an irrational part or a denominator."""
    rng = random.Random(seed)
    r = FieldCtx.get(d).sqrt_gen()

    def length():
        return (Fraction(rng.randint(1, 9), rng.randint(2, 5))
                + Fraction(rng.randint(1, 4), rng.randint(1, 6)) * r)

    w2 = length()
    return l_shape(w2 + length(), length(), w2, length(),
                   label=f"l-{d}-{seed}")


# the 52 matrices of SL(2,Z) with entries in [-2, 2]
_SL2Z_SMALL = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
               for c in range(-2, 3) for d in range(-2, 3)
               if a * d - b * c == 1]


def _writer_corpus(group, request):
    if group == "fixtures":
        twisted = request.getfixturevalue("multi_twisted")
        return [request.getfixturevalue(name) for name in
                ("torus", "l_origami", "golden_l", "marked_torus")] + [
            twisted(request.getfixturevalue("l_origami"), (1, 1))]
    if group == "golden-images":
        golden = request.getfixturevalue("golden_l")
        flip = Mat2(-1, 0, 0, 1)
        return [golden.apply_matrix(g) for m in _SL2Z_SMALL
                for g in (Mat2(*m), Mat2(*m) @ flip)]
    if group == "lshapes":
        return [_seeded_lshape(d, seed) for d in (2, 3, 5)
                for seed in range(4)]
    if group == "origamis":
        origami = request.getfixturevalue("seeded_origami")
        return [origami(n, seed) for n, seed in
                [(4, 1), (5, 2), (6, 3), (7, 4), (8, 5)]]
    # the three surfaces of test_output_pin.py's test_subset_rebuild
    out = []
    for name, v, op, amount, ids in [
            ("golden_l", (1, 1), shear, Fraction(1, 3), [0]),
            ("golden_l", (2, 1), stretch, Fraction(1, 2), [1]),
            ("l_origami", (1, 0), shear, Fraction(1, 2), [0])]:
        surf = request.getfixturevalue(name)
        out.append(op(surf, decompose(surf, Vec2(*v)), amount, ids=ids))
    return out


class TestIntegerWriters:
    @pytest.mark.parametrize("group", [
        "fixtures", "golden-images", "lshapes", "origamis", "subset-rebuilds"])
    def test_writers_match_the_scalar_references(self, group, request,
                                                 tmp_path):
        for i, s in enumerate(_writer_corpus(group, request)):
            text = serialize.dumps(surface_to_json(s))
            frame = homology_frame(s)
            assert text == _json_dumps(_reference_json(s))
            assert frame.hash == _reference_hash(s, frame)
            pairs = [(a, b) for a, b in s.gluing.items() if a < b]
            fresh = TranslationSurface(s.polygons, pairs, s.label)
            assert s == fresh and hash(s) == hash(fresh)
            path = tmp_path / f"s{i}.json"
            dump_surface(s, path)
            assert path.read_text() == text
            assert load_surface(path) == s


# surface files that are not translation surfaces, by the error that
# rejects each: a polygon that does not close up, and a bow-tie whose
# edges 1 and 3 cross (it closes, and its signed area is 0)
BAD_FILES = {
    "NonClosedPolygon: polygon 0 does not close up": {
        "format": 1, "field": {"d": 0},
        "polygons": [[["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-2"]]],
        "gluing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
        "label": "broken",
    },
    "NonSimplePolygon: polygon 0: edges 1 and 3 intersect": {
        "format": 1, "field": {"d": 0},
        "polygons": [[["1", "0"], ["-1", "1"], ["1", "0"], ["-1", "-1"]]],
        "gluing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
        "label": "bow-tie",
    },
}


@pytest.fixture(params=sorted(BAD_FILES), ids=lambda line: line.split(":")[0])
def bad_file(request, tmp_path):
    """(path of a bad surface file, the error line rejecting it)."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_FILES[request.param]))
    return path, request.param


class TestBadFiles:
    # a surface is valid from construction, so no entry point meets an
    # invalid one: each rejects the file with its own error, never with
    # InternalInvariantError
    def test_construction_raises(self, bad_file):
        path, line = bad_file
        name, message = line.split(": ", 1)
        data = json.loads(path.read_text())
        polys = [[tuple(Fraction(c) for c in v) for v in poly]
                 for poly in data["polygons"]]
        gluing = [(tuple(a), tuple(b)) for a, b in data["gluing"]]
        for build in (lambda: TranslationSurface(polys, gluing),
                      lambda: surface_from_json(data),
                      lambda: load_surface(path)):
            with pytest.raises(FlatdefError) as info:
                build()
            assert (info.value.name, str(info.value)) == (name, message)

    @pytest.mark.parametrize("command", [
        ["validate", "{src}"],
        ["render", "{src}", "-o", "{tmp}/x.svg"],
        ["decompose", "{src}", "--direction", "1,0", "-o", "{tmp}/x.json",
         "--svg", "{tmp}/x.svg"],
        ["scan", "{src}", "--max-len", "2"],
        ["rank", "{src}", "--max-len", "2"],
        ["shear", "{src}", "--direction", "1,0", "--t", "1",
         "-o", "{tmp}/x.json"],
    ], ids=lambda command: command[0])
    def test_commands_exit_1(self, bad_file, capsys, command):
        path, line = bad_file
        argv = [a.format(src=path, tmp=path.parent) for a in command]
        assert main(argv) == 1
        assert capsys.readouterr().err == line + "\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["bad.json"]


@pytest.fixture()
def cli_surfaces(tmp_path):
    lori = tmp_path / "lori.json"
    golden = tmp_path / "golden.json"
    assert main(["make-origami", "--squares", "3", "--right", "(1 2)",
                 "--up", "(1 3)", str(lori)]) == 0
    assert main(["make-lshape", "--w1", "1/2+1/2*sqrt(5)", "--h1", "1",
                 "--w2", "1", "--h2=-1/2+1/2*sqrt(5)", str(golden)]) == 0
    return tmp_path, lori, golden


class TestCLI:
    def test_validate(self, cli_surfaces, capsys):
        _, lori, golden = cli_surfaces
        assert main(["validate", str(lori)]) == 0
        out = capsys.readouterr().out
        assert "genus 2" in out and "signature (2)" in out and "m=4" in out

    def test_validate_bad_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "format": 1, "field": {"d": 0},
            "polygons": [[["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-2"]]],
            "gluing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
            "label": "broken",
        }))
        assert main(["validate", str(bad)]) == 1
        assert "NonClosedPolygon" in capsys.readouterr().err

    @pytest.mark.parametrize("polygon", [[], [["1", "0"], ["-1", "0"]]])
    def test_validate_too_few_edges_exit_1(self, tmp_path, capsys, polygon):
        # an empty polygon closes up trivially and is rejected as a
        # 2-edge one is, not as an internal error
        bad = tmp_path / "bad.json"
        gluing = [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]
        if polygon:
            gluing.append([[1, 0], [1, 1]])
        bad.write_text(json.dumps({
            "format": 1, "field": {"d": 0},
            "polygons": [[["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
                         polygon],
            "gluing": gluing,
        }))
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == \
            "NonSimplePolygon: polygon 1: polygon needs at least 3 edges\n"

    def test_repeated_calls_match_fresh_processes(self, cli_surfaces,
                                                  capsys):
        # one process serves good, bad-argument, bad-file and good calls
        # in turn, with the exit codes and output of a fresh process each
        tmp, lori, _ = cli_surfaces
        bad = tmp / "bad.json"
        bad.write_text(json.dumps({
            "format": 1, "field": {"d": 0},
            "polygons": [[["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-2"]]],
            "gluing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
        }))
        calls = [["validate", str(lori)], ["validate"],
                 ["scan", str(lori), "--mode", "bogus", "--max-len", "1"],
                 ["validate", str(bad)], ["validate", str(lori)]]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(flatdef.__file__))]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        seen = []
        for argv in calls:
            capsys.readouterr()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "flatdef.cli"]
                                   + argv, capture_output=True, text=True,
                                   env=env, timeout=60)
            assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                        fresh.stderr)
            seen.append(code)
        assert seen == [0, 2, 2, 1, 0]

    def test_decompose_json_and_svg(self, cli_surfaces):
        tmp, lori, _ = cli_surfaces
        out = tmp / "dec.json"
        svg = tmp / "dec.svg"
        assert main(["decompose", str(lori), "--direction", "1,0",
                     "-o", str(out), "--svg", str(svg)]) == 0
        data = json.loads(out.read_text())
        assert data["format"] == 1
        assert data["status"] == "Periodic"
        assert sorted(c["modulus"] for c in data["cylinders"]) == ["1", "1/2"]
        tree = ET.parse(svg)
        polys = [e for e in tree.iter()
                 if e.tag.endswith("polygon") and "polygon" in e.get("class", "")]
        assert len(polys) == 3  # one element per input polygon
        fills = [e for e in tree.iter()
                 if e.tag.endswith("polygon") and e.get("class") == "cylinder"]
        assert fills

    def test_decompose_rejects_decimals(self, cli_surfaces, capsys):
        _, lori, _ = cli_surfaces
        assert main(["decompose", str(lori), "--direction", "1.5,1"]) == 1

    def test_shear_full_twist(self, cli_surfaces, tmp_path, capsys):
        tmp, lori, _ = cli_surfaces
        out = tmp / "tw.json"
        assert main(["shear", str(lori), "--direction", "1,0", "--t", "2",
                     "-o", str(out), "--check-equivalent"]) == 0
        printed = capsys.readouterr().out
        assert "linearity check: true" in printed
        assert "translation equivalent to input: true" in printed

    def test_stretch_has_no_check_equivalent(self, cli_surfaces, tmp_path,
                                             capsys):
        # only shear compares its result with its input; argparse
        # refuses the flag for stretch, which would ignore it
        _, lori, _ = cli_surfaces
        with pytest.raises(SystemExit) as info:
            main(["stretch", str(lori), "--direction", "1,0", "--s", "1",
                  "-o", str(tmp_path / "st.json"), "--check-equivalent"])
        assert info.value.code == 2
        assert "--check-equivalent" in capsys.readouterr().err
        assert not (tmp_path / "st.json").exists()

    def test_shear_subset_requires_flag(self, cli_surfaces, capsys):
        tmp, lori, _ = cli_surfaces
        out = tmp / "x.json"
        assert main(["shear", str(lori), "--direction", "1,0", "--t", "1",
                     "--subset", "0", "-o", str(out)]) == 1
        assert main(["shear", str(lori), "--direction", "1,0", "--t", "1",
                     "--subset", "0", "--uncertified", "-o", str(out)]) == 0

    # only comma-separated ASCII digits name cylinders; int() alone would
    # read an Arabic-Indic digit, "0_0" or "+0", and "" meant the full set
    @pytest.mark.parametrize("subset", ["\u0661", "0_0", "+0", "", "0,",
                                        " 0", "0, 1"])
    def test_shear_bad_subset_exit_1(self, cli_surfaces, capsys, subset):
        tmp, lori, _ = cli_surfaces
        out = tmp / "x.json"
        assert main(["shear", str(lori), "--direction", "1,0", "--t", "1",
                     "--subset", subset, "--uncertified", "-o",
                     str(out)]) == 1
        assert capsys.readouterr().err.startswith("InputError: --subset")
        assert not out.exists()

    def test_stretch(self, cli_surfaces, tmp_path):
        tmp, lori, _ = cli_surfaces
        out = tmp / "st.json"
        assert main(["stretch", str(lori), "--direction", "1,0", "--s", "1",
                     "-o", str(out)]) == 0
        surf = load_surface(out)
        assert surf.area() == FieldScalar(6)

    def test_rank_certificate(self, cli_surfaces):
        tmp, lori, _ = cli_surfaces
        out = tmp / "rank.json"
        assert main(["rank", str(lori), "--max-len", "2",
                     "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["dim_C"] == 2
        assert data["rank_lower_bound"] == 1
        assert data["frame_hash"]
        assert all(g["provenance"]["rule"] in ("PeriodClass",
                                               "CertifiedPeriodic")
                   for g in data["generators"])

    def test_scan_modes(self, cli_surfaces):
        tmp, lori, golden = cli_surfaces
        for mode, path in (("periodicity", "p.json"),
                           ("parabolicity", "q.json"),
                           ("field", "f.json")):
            out = tmp / path
            assert main(["scan", str(golden), "--max-len", "2", "--mode",
                         mode, "--factor", "50", "-o", str(out)]) == 0
        pdata = json.loads((tmp / "p.json").read_text())
        assert pdata["counts"]["HasCylinderNotCertifiedPeriodic"] == 0
        qdata = json.loads((tmp / "q.json").read_text())
        assert qdata["parabolic"] is True
        fdata = json.loads((tmp / "f.json").read_text())
        assert any(e["field"] == "Q(sqrt(5))" for e in fdata["entries"])
        ldata_path = tmp / "lf.json"
        assert main(["scan", str(lori), "--max-len", "2", "--mode", "field",
                     "-o", str(ldata_path)]) == 0
        ldata = json.loads(ldata_path.read_text())
        assert all(e["field"] == "Q" for e in ldata["entries"])

    def test_render(self, cli_surfaces):
        tmp, _, golden = cli_surfaces
        out = tmp / "g.svg"
        assert main(["render", str(golden), "--direction", "1,0",
                     "-o", str(out)]) == 0
        ET.parse(out)  # well-formed XML

    def test_deterministic_outputs(self, cli_surfaces):
        tmp, lori, _ = cli_surfaces
        a, b = tmp / "a.json", tmp / "b.json"
        for path in (a, b):
            assert main(["decompose", str(lori), "--direction", "2,1",
                         "-o", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--factor", "0"], ["--factor", "-3"], ["--bound=-1"], ["--bound", "0"],
    ])
    def test_nonpositive_bound_flags_exit_1(self, cli_surfaces, capsys, flags):
        _, lori, _ = cli_surfaces
        assert main(["decompose", str(lori), "--direction", "1,0"]
                    + flags) == 1
        assert "NonPositiveLength" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["scan", "--mode", "periodicity"],
                                         ["rank"]])
    @pytest.mark.parametrize("max_len", ["-1", "0", "-1/2"])
    def test_nonpositive_max_len_exit_1(self, cli_surfaces, capsys, command,
                                        max_len):
        _, lori, _ = cli_surfaces
        assert main([command[0], str(lori)] + command[1:]
                    + [f"--max-len={max_len}"]) == 1
        captured = capsys.readouterr()
        assert "NonPositiveLength" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ["decompose", "{lori}", "--direction", "1,1/0"],
        ["shear", "{lori}", "--direction", "1,0", "--t", "1/0",
         "-o", "{tmp}/out.json"],
        ["decompose", "{lori}", "--direction", "1,0", "--bound", "3/0"],
        ["rank", "{lori}", "--max-len", "0/0"],
        ["make-lshape", "--w1", "2/0", "--h1", "1", "--w2", "1", "--h2", "1",
         "{tmp}/l.json"],
    ])
    def test_zero_denominator_exit_1(self, cli_surfaces, capsys, args):
        tmp, lori, _ = cli_surfaces
        argv = [a.format(lori=lori, tmp=tmp) for a in args]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("InputError: cannot parse scalar")
        assert "zero denominator" in err

    def test_zero_denominator_in_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "format": 1, "field": {"d": 0},
            "polygons": [[["1/0", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]],
            "gluing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
        }))
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(
            "FlatdefError: malformed surface file")

    # render escaped the label as text and failed on a float (exit 2);
    # shear and stretch carried any JSON value over into their output
    @pytest.mark.parametrize("label", [2.5, [1], None])
    @pytest.mark.parametrize("command", [
        ["render", "{src}", "--direction", "1,0", "-o", "{tmp}/x.svg"],
        ["shear", "{src}", "--direction", "1,0", "--t", "2",
         "-o", "{tmp}/x.json"],
    ])
    def test_non_str_label_in_file_exit_1(self, cli_surfaces, capsys,
                                          label, command):
        tmp, lori, _ = cli_surfaces
        data = json.loads(lori.read_text())
        data["label"] = label
        src = tmp / "bad-label.json"
        src.write_text(json.dumps(data))
        argv = [a.format(src=src, tmp=tmp) for a in command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "FlatdefError: malformed surface file: label is")
        assert not (tmp / "x.svg").exists() and not (tmp / "x.json").exists()

    # each text means 3/2, 1000, 10 or 3 to Fraction, so the square below
    # would close up if the text were read; only "p/q" text is a scalar.
    # 1 + 1*sqrt(d) has an irrational part, which Q ("d": 0) cannot hold
    @pytest.mark.parametrize("text, minus", [
        ("1.5", "-3/2"), ("1e3", "-1000"), ("1_0", "-10"), (" 3", "-3"),
        ("+3", "-3"), (["1", "1"], ["-1", "-1"]),
    ])
    def test_non_canonical_scalar_in_file_exit_1(self, tmp_path, capsys,
                                                 text, minus):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "format": 1, "field": {"d": 0},
            "polygons": [[[text, "0"], ["0", "1"], [minus, "0"],
                          ["0", "-1"]]],
            "gluing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
        }))
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(
            "FlatdefError: malformed surface file")

    @pytest.mark.parametrize("value", [
        ["1.5", "0"], ["0", "1e3"], [1, "0"], 1.5, "1/2*sqrt(5)",
    ])
    def test_non_canonical_scalar_rejected(self, value):
        from flatdef.errors import FlatdefError
        from flatdef.serialize import scalar_from_json
        with pytest.raises(FlatdefError, match="malformed scalar"):
            scalar_from_json(value, Q5)

    @pytest.mark.parametrize("exc", [TypeError, ZeroDivisionError])
    def test_unexpected_exception_exit_2(self, cli_surfaces, capsys,
                                         monkeypatch, exc):
        import flatdef.cli as cli_mod

        def broken(args):
            raise exc("forced")

        monkeypatch.setattr(cli_mod, "cmd_validate", broken)
        _, lori, _ = cli_surfaces
        assert main(["validate", str(lori)]) == 2
        err = capsys.readouterr().err
        assert err == f"InternalError: {exc.__name__}: forced\n"

    @pytest.mark.parametrize("ear_ok, message", [
        (False, "no ear found; polygon not simple?"),
        (True, "degenerate final triangle in ear clipping"),
    ])
    def test_ear_clip_failure_exit_2(self, tmp_path, capsys, monkeypatch,
                                     ear_ok, message):
        # a unit torus with both vertical sides cut in thirds, so the
        # last three vertices of its square are collinear: refusing
        # every ear finds none, and taking every ear leaves them last
        from flatdef import polygon
        from flatdef.surface import TranslationSurface
        third = Fraction(1, 3)
        edges = [(1, 0)] + [(0, third)] * 3 + [(-1, 0)] + [(0, -third)] * 3
        surf = TranslationSurface([[Vec2(*e) for e in edges]],
                                  [((0, 0), (0, 4)), ((0, 1), (0, 7)),
                                   ((0, 2), (0, 6)), ((0, 3), (0, 5))])
        path = tmp_path / "thirds.json"
        dump_surface(surf, path)
        monkeypatch.setattr(polygon, "_diagonal_ok", lambda *args: ear_ok)
        assert main(["scan", str(path), "--max-len", "1"]) == 2
        assert capsys.readouterr().err == \
            f"InternalInvariantError: {message}\n"

    # bad cycles exit 1 as input errors, never 2: entries outside
    # 1..squares, an entry twice in one cycle or across cycles, and
    # non-ASCII digits
    @pytest.mark.parametrize("right, up", [
        ("(1 2)", "(2 3)"), ("(1 2 2)", "()"), ("(1 2)(2 3)", "()"),
        ("(0 1)", "()"), ("(\u0661 2)", "()"),
    ])
    def test_make_origami_bad_cycles_exit_1(self, tmp_path, capsys, right,
                                            up):
        out = tmp_path / "x.json"
        assert main(["make-origami", "--squares", "2", "--right", right,
                     "--up", up, str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("InputError: permutation entry",
                               "InputError: not a permutation",
                               "FlatdefError: bad cycle"))
        assert not out.exists()

    def test_non_ascii_direction_exit_1(self, cli_surfaces, capsys):
        _, lori, _ = cli_surfaces
        assert main(["decompose", str(lori), "--direction",
                     "\u0663,1"]) == 1
        assert capsys.readouterr().err.startswith(
            "InputError: cannot parse scalar")

    # a scalar over Q(sqrt 5) on a surface over Q(sqrt 2) is bad input
    @pytest.mark.parametrize("args", [
        ["decompose", "--direction=1,1*sqrt(5)"],
        ["shear", "--direction", "1,0", "--t=1*sqrt(5)"],
        ["stretch", "--direction", "1,0", "--s=1*sqrt(5)"],
    ])
    def test_foreign_field_exit_1(self, tmp_path, capsys, args):
        surf = tmp_path / "sqrt2-l.json"
        out = tmp_path / "x.json"
        assert main(["make-lshape", "--w1", "2", "--h1", "1", "--w2", "1",
                     "--h2", "1*sqrt(2)", str(surf)]) == 0
        capsys.readouterr()
        argv = [args[0], str(surf)] + args[1:]
        if args[0] != "decompose":
            argv += ["-o", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            "InputError: incompatible fields Q(sqrt(5)) and Q(sqrt(2))\n"
        assert not out.exists()

    # make-lshape --h2 with a huge d, and its surface file, ran for
    # longer than 5 s deciding whether d is square-free
    def test_huge_d_exit_1(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["make-lshape", "--w1", "2", "--h1", "1", "--w2", "1",
                     "--h2", "1*sqrt(100000000000000000000000000000000000000000037)",
                     str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "InputError: d must be below 2**31")
        assert not out.exists()

    # a bound over Q(sqrt 5) on a surface over Q(sqrt 2): (1, 0), (2, 1)
    # and (3, 1) exited 0 while every squared advance stayed rational
    @pytest.mark.parametrize("direction", ["1,0", "2,1", "3,1", "1,1", "1,2"])
    def test_bound_of_another_field_exit_1(self, tmp_path, capsys, direction):
        surf = tmp_path / "sqrt2-l.json"
        assert main(["make-lshape", "--w1", "2", "--h1", "1", "--w2", "1",
                     "--h2", "1*sqrt(2)", str(surf)]) == 0
        capsys.readouterr()
        assert main(["decompose", str(surf), "--direction", direction,
                     "--bound", "3+1*sqrt(5)"]) == 1
        assert capsys.readouterr() == (
            "", "InputError: incompatible fields Q(sqrt(5)) and Q(sqrt(2))\n")

    @pytest.mark.parametrize("squares", ["0", "-1"])
    def test_make_origami_without_squares_exit_1(self, tmp_path, capsys,
                                                 squares):
        # 0 squares failed with an IndexError (exit 2)
        out = tmp_path / "x.json"
        assert main(["make-origami", f"--squares={squares}", "--right", "()",
                     "--up", "()", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"InputError: an origami has at least one square, not {squares}\n")
        assert not out.exists()

    # int() read "d": 2.7 as Q(sqrt 2), "5" as Q(sqrt 5) and false as Q,
    # truncated the gluing indices 2.9 and 3.5 to the valid 2 and 3, and
    # overflowed on 1e400 (exit 2)
    @pytest.mark.parametrize("d, i, j", [
        ("2.7", "2", "3"), ('"5"', "2", "3"), ("false", "2", "3"),
        ("1e400", "2", "3"), ("0", "2.9", "3"), ("0", "2", "3.5"),
    ])
    def test_non_integer_in_surface_file_exit_1(self, tmp_path, capsys,
                                                d, i, j):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"format": 1, "field": {"d": %s}, "polygons": '
            '[[["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]], '
            '"gluing": [[[0, 0], [0, %s]], [[0, 1], [0, %s]]]}' % (d, i, j))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FlatdefError: malformed surface file: ")
        assert "is not an integer" in err

    # each file is the unit square but for one entry: a reader that took
    # an edge reference's first two entries, or skipped "format", would
    # load it; without a "format" key the square loads
    @pytest.mark.parametrize("change, message", [
        ({"gluing": [[[0, 0, 9], [0, 2]], [[0, 1], [0, 3]]]},
         "edge reference [0, 0, 9] is not a pair"),
        ({"gluing": [[[0, 0], [0, 2, 0, 1]], [[0, 1], [0, 3]]]},
         "edge reference [0, 2, 0, 1] is not a pair"),
        ({"format": 2}, "format 2 is not 1"),
        ({"format": 0}, "format 0 is not 1"),
        ({"format": "x"}, "format 'x' is not an integer"),
        ({"format": "1"}, "format '1' is not an integer"),
        ({"format": 1.0}, "format 1.0 is not an integer"),
        ({"format": True}, "format True is not an integer"),
    ])
    def test_malformed_gluing_or_format_exit_1(self, tmp_path, capsys,
                                               change, message):
        data = {"format": 1, "field": {"d": 0},
                "polygons": [[["1", "0"], ["0", "1"], ["-1", "0"],
                              ["0", "-1"]]],
                "gluing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**data, **change}))
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == \
            f"FlatdefError: malformed surface file: {message}\n"
        del data["format"]
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 0

    def test_make_origami_not_connected(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["make-origami", "--squares", "2", "--right", "()",
                     "--up", "()", str(out)]) == 1
        assert "NotConnected" in capsys.readouterr().err


def _xml_char(c: str) -> bool:
    """XML 1.0's Char production."""
    o = ord(c)
    return (o in (0x9, 0xA, 0xD) or 0x20 <= o <= 0xD7FF
            or 0xE000 <= o <= 0xFFFD or o >= 0x10000)


def _svg_title(label: str) -> tuple[str, str]:
    """The `<title>` of a rendered torus labelled `label`: as written, and
    as an XML parser reads it back from the UTF-8 bytes."""
    svg = render_surface(square_tiled([], [], n=1, label=label))
    written = re.search(r"<title>(.*)</title>", svg, re.S).group(1)
    tree = ET.fromstring(svg.encode("utf-8"))
    return written, tree.find("{http://www.w3.org/2000/svg}title").text


class TestRenderLabel:
    # the markup characters and "]]>" come often, any XML character can
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["&", "<", ">", "]]>", '"', "'", "&amp;", "\r\n"]),
        st.characters().filter(_xml_char)), min_size=1).map("".join))
    def test_matches_saxutils_escape(self, label):
        from xml.sax.saxutils import escape  # the escape render once used
        written, read = _svg_title(label)
        assert written == escape(label)
        # a parser turns every line end into "\n"
        assert read == label.replace("\r\n", "\n").replace("\r", "\n")

    @pytest.mark.parametrize("label, shown", [
        ("bell\u0007", "bell\ufffd"),   # C0 control
        ("a\ud800b", "a\ufffdb"),       # lone surrogate
        ("x\ufffey", "x\ufffdy"),       # a noncharacter XML forbids
    ])
    def test_forbidden_characters_become_replacement(self, label, shown):
        assert _svg_title(label)[1] == shown

    @pytest.mark.parametrize("label", ["bell\u0007", "a\ud800b"])
    def test_forbidden_label_in_file_renders(self, cli_surfaces, label):
        tmp, lori, _ = cli_surfaces
        data = json.loads(lori.read_text())
        data["label"] = label
        src = tmp / "odd-label.json"
        src.write_text(json.dumps(data))
        out = tmp / "x.svg"
        assert main(["render", str(src), "--direction", "1,0",
                     "-o", str(out)]) == 0
        ET.parse(out)


class TestRenderRange:
    def test_beyond_float_range_raises(self):
        big = l_shape(2 * 10**400, 10**400, 10**400, 10**400)
        with pytest.raises(FlatdefError, match="float range"):
            render_surface(big)
        # each coordinate a float, the picture's width not
        with pytest.raises(FlatdefError, match="float range"):
            render_surface(l_shape(2 * 10**307, 10**307, 10**307, 10**307))

    # coordinates within 1e-15 of 1 and 2 whose parts cancel: the top
    # vertex was drawn at y = 1.875, and the second surface was refused
    # as beyond the float range
    @pytest.mark.parametrize("h1, h2", [
        (1, 1 + FieldScalar(1, -1, FieldCtx.get(2)) ** 40),
        (1 - FieldScalar(1, -1, FieldCtx.get(2)) ** 1100, 1),
    ])
    def test_cancelling_coordinates_draw_in_place(self, h1, h2):
        assert render_surface(l_shape(2, h1, 1, h2)) == render_surface(
            l_shape(2, 1, 1, 1))

    # the picture is drawn before any output opens, so nothing is written
    @pytest.mark.parametrize("command", [
        ["render", "{src}", "-o", "{tmp}/x.svg"],
        ["decompose", "{src}", "--direction", "1,0", "-o", "{tmp}/x.json",
         "--svg", "{tmp}/x.svg"],
    ])
    def test_beyond_float_range_exit_1(self, tmp_path, capsys, command):
        src = tmp_path / "big.json"
        dump_surface(l_shape(2 * 10**400, 10**400, 10**400, 10**400), src)
        argv = [a.format(src=src, tmp=tmp_path) for a in command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "FlatdefError: cannot render")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]
