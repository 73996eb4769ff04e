"""Spans and counts for the traced run, recorded from outside the library.

`install` replaces every binding of the listed public functions and
methods -- in each `flatdef` module that holds the function object, and
under each class attribute name that holds the method -- with a wrapper.
A wrapper records a span (name, start, end, parent span, op id) on one
in-memory stack, or, for scalar arithmetic, only a count.  The returned
`restore` puts the original objects back.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

from flatdef.cylinders import NO_CYLINDER, PARTIAL, PERIODIC


class Tracer:
    """Single-threaded span recorder with named counters."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.counts = {}
        self.op = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


# -- what is wrapped ---------------------------------------------------------

def _ray(tr, res):
    tr.count("tracing.rays")
    if res.kind == "bound":
        tr.count("tracing.rays_bound")
    tr.count("tracing.crossings", len(res.crossings))


def _crossings(tr, res):
    tr.count("tracing.crossings", len(res.crossings))


def _decomposition(tr, dec):
    tr.count({PERIODIC: "cylinders.periodic", PARTIAL: "cylinders.partial",
              NO_CYLINDER: "cylinders.no_cylinder"}[dec.status])
    tr.count("cylinders.cylinders_found", len(dec.cylinders))


def _connections(tr, res):
    tr.count("search.connections", len(res))


def _directions(tr, res):
    tr.count("search.directions", len(res))


def _text(tr, res):
    tr.count("serialize.dumps.bytes", len(res.encode("utf-8")))


# (module, class or None, attribute, span name, result hook)
SPANS = (
    ("polygon", None, "check_simple", "polygon.check_simple", None),
    ("surface", "TranslationSurface", "__init__", "surface.new", None),
    ("surface", "TranslationSurface", "apply_matrix", "surface.apply_matrix", None),
    ("surface", "TranslationSurface", "singularities", "surface.singularities", None),
    ("tracing", None, "trace_from_corner", "tracing.trace_from_corner", _ray),
    ("tracing", None, "trace_from_point", "tracing.trace_from_point", _crossings),
    ("cylinders", None, "decompose", "cylinders.decompose", _decomposition),
    ("search", None, "enumerate_saddle_connections", "search.enumerate", _connections),
    ("search", None, "enumerate_directions", "search.enumerate_directions", _directions),
    ("homology", "HomologyFrame", "__init__", "homology.frame", None),
    ("homology", "HomologyFrame", "coords_of_path", "homology.coords_of_path", None),
    ("intmat", None, "smith_form", "intmat.smith_form", None),
    ("linalg", None, "row_reduce", "linalg.row_reduce", None),
    ("deform", None, "shear", "deform.shear", None),
    ("deform", None, "stretch", "deform.stretch", None),
    ("deform", None, "verify_linearity", "deform.verify_linearity", None),
    ("deform", None, "eta", "deform.eta", None),
    ("deform", None, "twist_space", "deform.twist_space", None),
    ("deform", None, "cylinder_preserving_space", "deform.cylinder_preserving_space", None),
    ("equivalence", None, "translation_equivalent", "equivalence.translation_equivalent", None),
    ("equivalence", None, "delaunay_cells", "equivalence.delaunay_cells", None),
    ("analysis", None, "complete_periodicity_scan", "analysis.scan", None),
    ("analysis", None, "accumulate_tangent", "analysis.accumulate_tangent", None),
    ("analysis", "TangentSpan", "dim", "analysis.span_rank", None),
    ("analysis", "TangentSpan", "p_dim", "analysis.span_rank", None),
    ("analysis", None, "field_bound", "analysis.field_bound", None),
    ("serialize", None, "dumps", "serialize.dumps", _text),
    ("serialize", None, "load_surface", "serialize.load_surface", None),
    ("serialize", None, "surface_to_json", "serialize.surface_to_json", None),
    ("serialize", None, "decomposition_to_json", "serialize.decomposition_to_json", None),
    ("serialize", None, "span_to_json", "serialize.span_to_json", None),
    ("cli", None, "main", "cli.main", None),
)

# FieldScalar methods counted, not timed: a span per scalar op would cost
# more than the op.  Aliases such as __radd__ = __add__ are found and
# counted under the same key.
COUNTS = (
    ("__mul__", "field.mul.calls"),
    ("__add__", "field.add.calls"),
    ("__sub__", "field.add.calls"),
    ("__rsub__", "field.add.calls"),
    ("__neg__", "field.add.calls"),
    ("__truediv__", "field.div.calls"),
    ("__rtruediv__", "field.div.calls"),
    ("inverse", "field.div.calls"),
    ("sign", "field.sign.calls"),
    ("__init__", "field.new.calls"),
)


def _span_wrapper(tr, fn, name, hook):
    def wrapper(*args, **kwargs):
        idx = tr.open(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if hook is not None:
            hook(tr, res)
        return res
    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(counts, fn, key):
    def wrapper(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def _targets():
    """(class or None, original, span name or count key, hook, counted)."""
    for mod_name, cls_name, attr, name, hook in SPANS:
        home = importlib.import_module(f"flatdef.{mod_name}")
        if cls_name is None:
            yield None, getattr(home, attr), name, hook, False
        else:
            cls = getattr(home, cls_name)
            yield cls, vars(cls)[attr], name, hook, False
    field_scalar = importlib.import_module("flatdef.field").FieldScalar
    for attr, key in COUNTS:
        yield field_scalar, vars(field_scalar)[attr], key, None, True


def bindings():
    """Every (owner, attribute, original) the traced run replaces.

    A function is replaced in every flatdef module that holds it, a
    method under every attribute name of its class that holds it.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "flatdef" or name.startswith("flatdef."))]
    out = []
    for cls, fn, _name, _hook, _counted in _targets():
        for owner in (modules if cls is None else [cls]):
            out.extend((owner, key, fn) for key, value in vars(owner).items()
                       if value is fn)
    return out


def install(tr: Tracer):
    """Wrap every binding; returns a function that restores them all."""
    wrappers = {}
    for _cls, fn, name, hook, counted in _targets():
        wrappers[id(fn)] = (_count_wrapper(tr.counts, fn, name) if counted
                            else _span_wrapper(tr, fn, name, hook))
    originals = bindings()
    for owner, key, fn in originals:
        setattr(owner, key, wrappers[id(fn)])

    def restore():
        for owner, key, fn in originals:
            setattr(owner, key, fn)
    return restore


# -- per-layer metrics -------------------------------------------------------

LAYERS = ("harness", "cli", "analysis", "search", "cylinders", "tracing",
          "surface", "polygon", "homology", "intmat", "linalg", "deform",
          "equivalence", "serialize")


def _per_name(spans):
    calls, total, self_time, durations = {}, {}, {}, {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child[i]
        durations.setdefault(name, []).append(dur)
    return calls, total, self_time, durations


def per_layer_metrics(tr: Tracer):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    calls, total, self_time, durations = _per_name(tr.spans)
    c = tr.counts.get
    m = {}

    def spans(metric, *names, with_calls=True):
        names = names or (metric,)
        if with_calls:
            m[f"{metric}.calls"] = (sum(calls.get(n, 0) for n in names), "count")
        m[f"{metric}.s"] = (sum(total.get(n, 0.0) for n in names), "s")

    for key in ("mul", "add", "div", "sign", "new"):
        m[f"field.{key}.calls"] = (c(f"field.{key}.calls", 0), "count")
    spans("polygon.check_simple")
    spans("surface.apply_matrix")
    spans("surface.singularities")
    spans("surface.new")
    rays = c("tracing.rays", 0)
    m["tracing.rays"] = (rays, "count")
    m["tracing.rays_bound"] = (c("tracing.rays_bound", 0), "count")
    m["tracing.crossings"] = (c("tracing.crossings", 0), "count")
    spans("tracing.trace", "tracing.trace_from_corner",
          "tracing.trace_from_point", with_calls=False)
    m["tracing.closed_frac"] = (
        (rays - c("tracing.rays_bound", 0)) / rays if rays else 0.0, "fraction")
    spans("cylinders.decompose")
    m["cylinders.decompose.self_s"] = (self_time.get("cylinders.decompose", 0.0), "s")
    decs = durations.get("cylinders.decompose")
    m["cylinders.decompose.p50_ms"] = (
        statistics.median(decs) * 1000 if decs else 0.0, "ms")
    for key in ("periodic", "partial", "no_cylinder", "cylinders_found"):
        m[f"cylinders.{key}"] = (c(f"cylinders.{key}", 0), "count")
    spans("search.enumerate")
    m["search.enumerate.self_s"] = (self_time.get("search.enumerate", 0.0), "s")
    m["search.connections"] = (c("search.connections", 0), "count")
    m["search.directions"] = (c("search.directions", 0), "count")
    spans("homology.frame")
    spans("homology.coords_of_path")
    spans("intmat.smith_form")
    spans("linalg.row_reduce")
    for key in ("shear", "stretch", "verify_linearity", "eta", "twist_space",
                "cylinder_preserving_space"):
        spans(f"deform.{key}")
    spans("equivalence.translation_equivalent")
    spans("equivalence.delaunay_cells")
    for key in ("scan", "accumulate_tangent", "span_rank", "field_bound"):
        m[f"analysis.{key}.s"] = (total.get(f"analysis.{key}", 0.0), "s")
    spans("serialize.dumps")
    m["serialize.dumps.bytes"] = (c("serialize.dumps.bytes", 0), "bytes")
    m["serialize.load_surface.s"] = (total.get("serialize.load_surface", 0.0), "s")
    m["cli.main.s"] = (total.get("cli.main", 0.0), "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (
            sum(v for n, v in self_time.items() if n.split(".")[0] == layer), "s")
    return m
