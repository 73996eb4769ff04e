"""Exact JSON serialization: surface files, decompositions, certificates.

Scalars travel as canonical strings ("p/q") or two-element arrays
(["p/q", "r/s"] meaning a + b*sqrt(d)); every writer sorts keys and
uses a fixed separator style so equal objects serialize byte-for-byte
identically across runs.
"""

from __future__ import annotations

import json
import re

from .cylinders import Decomposition
from .errors import FlatdefError
from .field import FieldCtx, FieldScalar, _rat_str, _read, _text
from .surface import TranslationSurface

__all__ = ["scalar_from_json", "surface_to_json", "surface_from_json",
           "dump_surface", "load_surface", "decomposition_to_json",
           "span_to_json", "dumps"]

FORMAT_VERSION = 1


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte,
    in one pass: with an indent, `json` encodes in pure Python through
    nested generators, which this writer does without.  (A structure that
    contains itself raises RecursionError, not json's ValueError.)"""
    out = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _write(o, newline: str, out) -> None:
    """Append the text of `o` at the indent of `newline` ("\\n" and two
    spaces per level), testing types in the order `json.encoder` does."""
    if isinstance(o, str):
        out(_quote(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(int.__repr__(o))
    elif isinstance(o, float):
        out(_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in o:
            out(sep)
            _write(value, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, value in sorted(o.items()):
            out(sep + _quote(_key(k)) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        f"is not JSON serializable")


def _json_text(A: int, B: int, D: int):
    """The JSON of (A + B*sqrt(d))/D, D > 0, each part reduced on its own."""
    return [_rat_str(A, D), _rat_str(B, D)] if B else _rat_str(A, D)


# the text str(Fraction) writes; Fraction itself would also read "1.5",
# "1e3", "1_0", "+3" and " 3", which no writer here produces
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _rational(text) -> str:
    """`text`, checked to be "p/q" text, for `field._read`."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise FlatdefError(f"malformed scalar {text!r}; expected p/q")
    return text


def scalar_from_json(v, ctx: FieldCtx) -> FieldScalar:
    if isinstance(v, str):
        return _read(_rational(v), "0", ctx)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return _read(_rational(v[0]), _rational(v[1]), ctx)
    raise FlatdefError(f"malformed scalar {v!r}")


def surface_to_json(surface: TranslationSurface) -> dict:
    lat = surface.lattice()
    D = lat.D
    gl = sorted([list(a), list(b)] for a, b in surface.gluing.items() if a < b)
    return {
        "format": FORMAT_VERSION,
        "field": {"d": surface.ctx.d},
        "polygons": [
            [[_json_text(xa, xb, D), _json_text(ya, yb, D)]
             for xa, xb, ya, yb in edges]
            for edges in lat.edges
        ],
        "gluing": gl,
        "label": surface.label,
    }


def _json_int(value, what: str) -> int:
    """A JSON integer; a bool, float, string or anything else is a
    TypeError, so no value is truncated or parsed."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")
    return value


def _edge_ref(ref) -> tuple[int, int]:
    """A JSON list of exactly two integers, as a (polygon, edge) pair."""
    if not isinstance(ref, list) or len(ref) != 2:
        raise TypeError(f"edge reference {ref!r} is not a pair")
    return _json_int(ref[0], "gluing index"), _json_int(ref[1], "gluing index")


def surface_from_json(data: dict) -> TranslationSurface:
    """The surface of a file's JSON data.  A `format` key, when present,
    must be FORMAT_VERSION; a file without one is read as that format."""
    try:
        if "format" in data:
            fmt = _json_int(data["format"], "format")
            if fmt != FORMAT_VERSION:
                raise ValueError(f"format {fmt} is not {FORMAT_VERSION}")
        ctx = FieldCtx.get(_json_int(data["field"]["d"], "field d"))
        polys = [
            [(scalar_from_json(sx, ctx), scalar_from_json(sy, ctx))
             for sx, sy in poly]
            for poly in data["polygons"]
        ]
        gluing = [(_edge_ref(a), _edge_ref(b)) for a, b in data["gluing"]]
        label = data.get("label", "")
        if not isinstance(label, str):
            raise TypeError(f"label is {type(label).__name__}, not str")
    except (FlatdefError, KeyError, TypeError, ValueError, IndexError,
            ZeroDivisionError) as exc:
        raise FlatdefError(f"malformed surface file: {exc}") from None
    return TranslationSurface(polys, gluing, label)


def dump_surface(surface: TranslationSurface, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(surface_to_json(surface)))


def load_surface(path) -> TranslationSurface:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return surface_from_json(data)


def _vec(v):
    return [str(v.x), str(v.y)]


def decomposition_to_json(dec: Decomposition) -> dict:
    cyls = []
    for cyl in dec.cylinders:
        cyls.append({
            "id": cyl.cyl_id,
            "height": str(cyl.height),
            "circumference": str(cyl.circumference),
            "modulus": str(cyl.modulus),
            "area": str(cyl.area),
            "core_class": list(cyl.core_coords),
            "cross_class": list(cyl.cross_coords),
            "boundary_saddle_connections": list(cyl.boundary_sc_ids),
        })
    scs = []
    for sc in dec.saddle_connections:
        scs.append({
            "id": sc.sc_id,
            "holonomy": _vec(sc.holonomy),
            "start_class": sc.start_class,
            "end_class": sc.end_class,
            "edge_run": sc.is_edge_run,
        })
    g = dec.matrix
    return {
        "format": FORMAT_VERSION,
        "direction": _vec(dec.direction.vector),
        "status": dec.status,
        "normalizing_matrix": [[str(g.a), str(g.b)], [str(g.c), str(g.d)]],
        "trace_bound_squared": str(dec.bound_sq),
        "frame_hash": dec.frame.hash,
        "cylinders": cyls,
        "saddle_connections": scs,
        "unresolved_rays": [list(c) for c in dec.unresolved_rays],
        # the normalizer has determinant |v|^2
        "area_normalized": str(dec.surface.area()
                               * dec.direction.vector.norm_sq()),
    }


def span_to_json(span, k_lb: int) -> dict:
    """Certificate JSON for a tangent span accumulation, written from the
    integers of each generator and of the span's RREF, as the text of
    the ComplexScalars they hold."""
    d = span.frame.surface.ctx.d

    def texts(quads, D):
        return [[_text(a, b, D, d), _text(c, e, D, d)]
                for a, b, c, e in quads]

    return {
        "format": FORMAT_VERSION,
        "frame_hash": span.frame.hash,
        "generators": [
            {"values": texts(gen.quads, gen.D), "provenance": prov}
            for gen, prov in span.generators
        ],
        "non_certified": list(span.skipped),
        "basis": [texts(row, n) for row, n in span._basis_quads()],
        "dim_C": span.dim(),
        "p_dim": span.p_dim(),
        "rank_lower_bound": k_lb,
    }
