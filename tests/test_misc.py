import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

import flatdef
from flatdef import search
from flatdef.cylinders import decompose
from flatdef.deform import eta
from flatdef.field import FieldCtx, Mat2, Vec2
from flatdef.homology import homology_frame
from flatdef.linalg import ComplexScalar
from flatdef.surface import TranslationSurface, l_shape


class TestProjectedEta:
    def test_l_origami_horizontal_eta_projects_nonzero(self, l_origami):
        f = homology_frame(l_origami)
        d = decompose(l_origami, Vec2(1, 0), frame=f)
        p = f.project_absolute(eta(d))
        assert any(not v.is_zero() for v in p)



def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, leaving out those it
    re-exports in `__all__` and `from __future__` imports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    # a name left imported after the code that read it is deleted; the
    # package's __init__ imports to re-export
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    assert len(found) >= 16
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b, c as d, e\n"
              "__all__ = ['e']\nprint(b)\n")
    assert _unused_imports(source) == ["d (line 3)", "os (line 2)"]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _shadowed_imports(source: str) -> list[str]:
    """Names a function binds that a module-level import also binds.

    Such a name is local to the whole function, so the function cannot
    call the import anywhere in it: the call raises UnboundLocalError,
    or reads the local where it was meant to read the import.
    """
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        bound = {a.arg: func.lineno for a in args.posonlyargs + args.args
                 + args.kwonlyargs + [args.vararg, args.kwarg] if a}
        # the function's own scope: nested functions and classes bind
        # their names here and have their own scopes
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound.setdefault(alias.asname or alias.name.split(".")[0],
                                     node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
            if isinstance(node, _SCOPES):
                if not isinstance(node, ast.Lambda):
                    bound.setdefault(node.name, node.lineno)
                continue
            stack.extend(ast.iter_child_nodes(node))
        found.extend(f"{func.name}: {name} (line {line})"
                     for name, line in bound.items() if name in imported)
    return sorted(found)


def test_no_import_is_shadowed():
    # `cidx, _sign = ...` in a function of a module that imports `_sign`
    # made every call of `_sign` in that function raise
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    found = {path.name: _shadowed_imports(path.read_text())
             for path in sorted(src.glob("*.py"))}
    assert len(found) >= 17
    assert {name: names for name, names in found.items() if names} == {}


def test_shadowed_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom m import sign as _sign, f, g\n"
              "def a(x):\n    n, _sign = x\n    return f(n)\n"
              "def b(os, *g):\n    return [f for f in os]\n"
              "def c(y):\n    def f():\n        import m as g\n"
              "    try:\n        pass\n"
              "    except ValueError as annotations:\n        pass\n"
              "    return y\n")
    assert _shadowed_imports(source) == [
        "a: _sign (line 5)", "b: f (line 8)", "b: g (line 7)",
        "b: os (line 7)", "c: f (line 10)", "f: g (line 11)"]


def _reads(tree) -> Counter:
    """The names, attributes and string constants that a tree reads,
    with their counts; the strings of `__all__` and `__slots__` declare
    names and are not reads."""
    declared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("__all__", "__slots__")
                for t in node.targets):
            declared.update(map(id, ast.walk(node.value)))
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
            found[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in declared):
            found[node.value] += 1
    return found


def _unread_defs(sources: dict, readers: dict, named: dict) -> list[str]:
    """Definitions, as "module: name (line n)", that nothing reads, and
    the `named` entries that match no definition.

    The definitions are the top-level functions and classes of `sources`
    and the public methods of those classes, a method named
    "Class.method".  A private (`_`-prefixed) name needs a reader in
    `sources`.  A public name needs a reader in `sources` or `readers`,
    or an entry in `named`, which maps "module: name" patterns
    (`fnmatch`) to the reason the name stays.  Reads are counted as in
    `_write_only_attributes`: names, attributes and string constants.
    Reads inside the definition's own body do not count, and an import
    is not a read.  Reads are matched by name alone, so a method that
    shares its name with an attribute read elsewhere passes unseen.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = Counter()
    for tree in trees.values():
        read.update(_reads(tree))
    outside = Counter()
    for text in readers.values():
        outside.update(_reads(ast.parse(text)))
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}: {node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{module}: {node.name}.{item.name}", item)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))
    found = [f"{key} (NAMED, defines nothing)" for key in named
             if not any(fnmatchcase(name, key) for name, _ in defs)]
    for name, node in defs:
        if read[node.name] > _reads(node)[node.name]:
            continue
        if not node.name.startswith("_") and (
                outside[node.name]
                or any(fnmatchcase(name, key) for key in named)):
            continue
        found.append(f"{name} (line {node.lineno})")
    return sorted(found)


# Public names that stay with no reader in src/flatdef or perfbench/,
# each with its reason: a test oracle, a function awaiting the ROADMAP
# item that gives it a caller, or a CLI command.
NAMED = {
    "analysis.py: TangentSpan.basis":
        "oracle: tests/test_analysis.py, tests/test_integer_cocycles.py",
    "analysis.py: more_cylinders_search":
        "awaiting ROADMAP item 16 (the paper's other two applications)",
    "cli.py: cmd_*": "CLI command: main looks it up by command name",
    "cylinders.py: Decomposition.normalized":
        "oracle: tests/test_direction_view.py, tests/test_certify.py",
    "deform.py: torus_closure":
        "awaiting ROADMAP item 2 (horocycle-closure twists)",
    "equivalence.py: delaunay_cells":
        "oracle: the Delaunay-cell pins of tests/test_output_pin.py",
    "field.py: Vec2.cross": "oracle: tests/test_predicates.py",
    "field.py: Vec2.dot": "oracle: tests/test_predicates.py",
    "homology.py: HomologyFrame.periods":
        "oracle: tests/test_homology.py, tests/test_deform.py",
    "homology.py: HomologyFrame.project_absolute":
        "oracle: tests/test_acceptance.py, tests/test_deform.py",
    "homology.py: HomologyFrame.symplectic_pairing":
        "oracle: tests/test_acceptance.py, tests/test_deform.py",
    "intmat.py: det_int":
        "oracle: tests/test_homology.py, tests/test_linalg.py",
    "linalg.py: Echelon.reduce":
        "oracle: tests/test_linalg.py, tests/test_crossings.py",
}


def test_no_unread_defs():
    # a name left behind after its last caller is deleted, or one that
    # only its own tests reach
    root = Path(__file__).resolve().parent.parent
    sources = {path.name: path.read_text()
               for path in sorted((root / "src" / "flatdef").glob("*.py"))
               if path.name != "__init__.py"}
    perfbench = {str(path): path.read_text()
                 for path in sorted((root / "perfbench").rglob("*.py"))}
    assert len(sources) >= 16 and perfbench
    assert all(reason.startswith(("oracle: ", "awaiting ROADMAP item ",
                                  "CLI command: "))
               for reason in NAMED.values())
    found = _unread_defs(sources, perfbench, NAMED)
    assert found == [], (
        "unread definitions; delete each, or give a public one a NAMED "
        'entry as README, "Every public name has a reader" says:\n'
        + "\n".join(found))


def test_unread_defs_are_found():
    sources = {
        "a.py": ("__all__ = ['unread', 'cmd_run']\n"
                 "def _used():\n    pass\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Dead:\n    pass\n"
                 "def _read_elsewhere():\n    pass\n"
                 "def _perfbench_only():\n    pass\n"
                 "def unread():\n    return _used()\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "def timed():\n    pass\n"
                 "def cmd_run(args):\n    pass\n"
                 "class Span:\n"
                 "    def dim(self):\n        return self.rank()\n"
                 "    def rank(self):\n        return 0\n"
                 "    def oracle(self):\n        return 1\n"
                 "    def dead(self):\n        return 2\n"
                 "    def _private(self):\n        return 3\n"),
        "b.py": ("from a import Span, unread\n"
                 "x = a._read_elsewhere\n"
                 "print(Span().dim())\n"),
    }
    perfbench = {"tracer.py": ("SPANS = [('a', None, 'timed'),\n"
                               "         ('a', None, '_perfbench_only')]\n")}
    named = {"a.py: cmd_*": "CLI command: run", "a.py: Span.oracle": "oracle",
             "a.py: gone": "awaiting ROADMAP item 2"}
    assert _unread_defs(sources, perfbench, named) == [
        "a.py: Span.dead (line 27)", "a.py: _Dead (line 6)",
        "a.py: _perfbench_only (line 10)", "a.py: _recursive (line 4)",
        "a.py: gone (NAMED, defines nothing)", "a.py: recursive (line 14)",
        "a.py: unread (line 12)"]


def _unread_private_params(source: str) -> list[str]:
    """Named parameters that a function or method never reads, public or
    private, dunders left out."""
    tree = ast.parse(source)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = func.name
        if name.startswith("__") and name.endswith("__"):
            continue
        args = func.args
        read = {n.id for stmt in func.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.extend(f"{name}: {a.arg} (line {func.lineno})"
                     for a in args.posonlyargs + args.args + args.kwonlyargs
                     if a.arg not in read)
    return sorted(found)


def test_no_unread_private_params():
    # a parameter left behind after the code that read it is deleted,
    # such as a scale or a field that no caller varies any more, or a
    # surface that the decomposition handed beside it already carries
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    found = {path.name: _unread_private_params(path.read_text())
             for path in sorted(src.glob("*.py"))}
    assert len(found) >= 17
    assert {name: names for name, names in found.items() if names} == {}


def test_unread_private_params_are_found():
    source = ("def _f(a, b, *args, c, **kw):\n    return a\n"
              "def _g(x, k, /, y=1):\n    def inner():\n        return x + y\n"
              "    return inner\n"
              "def public(unread):\n    pass\n"
              "class C:\n    def __init__(self, unread):\n        pass\n"
              "    def _m(self, s):\n        return s\n"
              "    def __mangled(self):\n        return 0\n"
              "class _P:\n    def __init__(self, unread):\n        pass\n"
              "    def m(self, k):\n        return self\n")
    assert _unread_private_params(source) == [
        "__mangled: self (line 14)", "_f: b (line 1)", "_f: c (line 1)",
        "_g: k (line 3)", "_m: self (line 12)", "m: k (line 19)",
        "public: unread (line 7)"]


def _is_slots(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)


def _write_only_attributes(sources: dict, readers: dict) -> list[str]:
    """Attributes, as "module: name (line n)", that `sources` assign on
    `self` or list in `__slots__` and that no module of `sources` or
    `readers` reads, as an attribute or as a string (`getattr`, `vars`)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read, slots = set(), set()
    for tree in [*trees.values(), *map(ast.parse, readers.values())]:
        for node in ast.walk(tree):
            if _is_slots(node):
                slots.update(map(id, ast.walk(node.value)))
            elif isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in slots):
                read.add(node.value)
    found = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if _is_slots(node):
                written = ast.literal_eval(node.value)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"):
                written = [node.attr]
            else:
                continue
            found.update(f"{name}: {attr} (line {node.lineno})"
                         for attr in written if attr not in read)
    return sorted(found)


def test_no_write_only_attributes():
    # an attribute kept after its last reader went is state that every
    # constructor still computes and every reader of the code must follow
    root = Path(__file__).resolve().parent.parent
    sources = {path.name: path.read_text()
               for path in sorted((root / "src" / "flatdef").glob("*.py"))}
    tests = {path.name: path.read_text()
             for path in sorted((root / "tests").glob("*.py"))}
    assert len(sources) >= 17
    assert _write_only_attributes(sources, tests) == []


def test_write_only_attributes_are_found():
    sources = {
        "a.py": ("class A:\n"
                 "    __slots__ = ('kept', 'by_name', 'dead_slot')\n"
                 "    def __init__(self, data):\n"
                 "        self.kept = data\n"
                 "        self.by_name = data\n"
                 "        self.dead = data\n"
                 "        self.count = 0\n"
                 "        self.count += 1\n"
                 "    def get(self):\n"
                 "        return self.kept\n"),
    }
    readers = {"test_a.py": "assert getattr(a, 'by_name') is not None\n"}
    assert _write_only_attributes(sources, readers) == [
        "a.py: count (line 7)", "a.py: count (line 8)",
        "a.py: dead (line 6)", "a.py: dead_slot (line 2)"]


def _scopes_using(sources: dict, matches) -> list[str]:
    """The functions, as "module: Class.function", that hold a node for
    which `matches` is true; nodes outside any function are named
    "module: <module>"."""
    found = set()

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(name, child, scope + [child.name])
                continue
            if matches(child):
                found.add(f"{name}: {'.'.join(scope) or '<module>'}")
            visit(name, child, scope)

    for name, text in sources.items():
        visit(name, ast.parse(text), [])
    return sorted(found)


_FIELD_MISMATCH = "incompatible fields"


def _field_mismatch_outside_field(sources: dict) -> list[str]:
    """Lines that spell the field-mismatch error outside field.py, which
    builds it in one place (`field._incompatible`)."""
    return [f"{name}: line {i}" for name, text in sorted(sources.items())
            if name != "field.py"
            for i, line in enumerate(text.splitlines(), 1)
            if _FIELD_MISMATCH in line]


def _calls_incompatible(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "_incompatible"
            or isinstance(func, ast.Attribute) and func.attr == "_incompatible")


def test_one_place_builds_the_field_mismatch_error():
    # a second copy of the message drifts from the first: its order of
    # the two fields or its wording; a second rule that joins two fields
    # names them in its own order
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert _FIELD_MISMATCH in sources["field.py"]
    assert _field_mismatch_outside_field(sources) == []
    assert _scopes_using(sources, _calls_incompatible) == [
        "field.py: FieldScalar.with_ctx", "field.py: join_ctx"]


def test_stray_field_mismatch_call_is_found():
    sources = {
        "field.py": ("def join_ctx(ctx, *scalars):\n"
                     "    raise _incompatible(2, ctx.d)\n"),
        "polygon.py": ("from . import field\n"
                       "class Lattice:\n"
                       "    def image(self, g):\n"
                       "        raise field._incompatible(g.d, self.d)\n"),
    }
    assert _scopes_using(sources, _calls_incompatible) == [
        "field.py: join_ctx", "polygon.py: Lattice.image"]


def _two_square_surface():
    squares = [[(r, 0), (0, 1), (-r, 0), (0, -1)]
               for r in (FieldCtx.get(5).sqrt_gen(), FieldCtx.get(2).sqrt_gen())]
    gluing = [((p, 0), (p, 2)) for p in (0, 1)] + [((p, 1), (p, 3)) for p in (0, 1)]
    return TranslationSurface(squares, gluing)


# a value brought into another field names its own field first: here
# sqrt(2) meets the field of sqrt(5), which came before it
@pytest.mark.parametrize("build", [
    lambda r5, r2: Vec2(r5, r2),
    lambda r5, r2: ComplexScalar(r5, r2),
    lambda r5, r2: Mat2(r5, r2, 0, 1),
    lambda r5, r2: _two_square_surface(),
    lambda r5, r2: l_shape(r5, 1, 1, 1).apply_matrix(Mat2(r2, 0, 0, 1)),
], ids=["Vec2", "ComplexScalar", "Mat2", "surface", "apply_matrix"])
def test_a_value_from_another_field_is_named_first(build):
    r5, r2 = FieldCtx.get(5).sqrt_gen(), FieldCtx.get(2).sqrt_gen()
    with pytest.raises(ValueError) as info:
        build(r5, r2)
    assert str(info.value) == "incompatible fields Q(sqrt(2)) and Q(sqrt(5))"


def test_field_mismatch_outside_field_is_found():
    sources = {
        "field.py": 'raise ValueError(f"incompatible fields {a} and {b}")\n',
        "tracing.py": ('x = 1\n'
                       'raise ValueError(f"incompatible fields {a} and {b}")\n'),
    }
    assert _field_mismatch_outside_field(sources) == ["tracing.py: line 2"]


def _called(node, name) -> bool:
    """Whether `node` calls `name`, bare or as a module attribute."""
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


def _is_bare_scalar_check(node) -> bool:
    """`isinstance(x, FieldScalar)` with the class alone as its second
    argument: the test half of a conditional coercion."""
    if not (_called(node, "isinstance") and len(node.args) == 2):
        return False
    cls = node.args[1]
    return (isinstance(cls, ast.Name) and cls.id == "FieldScalar"
            or isinstance(cls, ast.Attribute) and cls.attr == "FieldScalar")


def test_one_door_for_numbers():
    # every number handed to the library is lifted by `field._as_scalar`;
    # a type dispatch over a tuple of classes is not a coercion
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert len(sources) >= 17
    assert _scopes_using(sources, _is_bare_scalar_check) == [
        "field.py: _as_scalar"]


def test_bare_scalar_checks_are_found():
    sources = {
        "deform.py": ("def shear(t):\n"
                      "    if not isinstance(t, FieldScalar):\n"
                      "        t = FieldScalar(t)\n"),
        "linalg.py": ("class ComplexScalar:\n"
                      "    def _lift(other):\n"
                      "        if isinstance(other, (int, FieldScalar)):\n"
                      "            return other\n"),
        "polygon.py": ("from . import field\n"
                       "ok = isinstance(b, field.FieldScalar)\n"),
    }
    assert _scopes_using(sources, _is_bare_scalar_check) == [
        "deform.py: shear", "polygon.py: <module>"]


def test_one_positive_length_rule():
    # a length must be positive: one rule, one message, in
    # `field._positive`; only l_shape's w2 < w1 says more
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert len(sources) >= 17
    assert _scopes_using(
        sources, lambda node: _called(node, "NonPositiveLength")) == [
        "field.py: _positive", "surface.py: l_shape"]


def test_stray_positive_length_rules_are_found():
    sources = {
        "field.py": ("def _positive(name, x):\n"
                     "    raise NonPositiveLength(name)\n"),
        "cylinders.py": ("from . import errors\n"
                         "def decompose(s, t):\n"
                         "    if t <= 0:\n"
                         "        raise errors.NonPositiveLength('t')\n"
                         "    return NonPositiveLength\n"),
    }
    assert _scopes_using(
        sources, lambda node: _called(node, "NonPositiveLength")) == [
        "cylinders.py: decompose", "field.py: _positive"]


def _core_crossings_readers(sources: dict) -> list[str]:
    """The functions that read a `core_crossings` attribute."""
    return _scopes_using(sources, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "core_crossings"
        and isinstance(node.ctx, ast.Load)))


def test_only_the_crossing_table_reads_core_crossings():
    # a second route from the core crossings to the twist cocycles would
    # skip the checks the table makes once: vanishing on the direction's
    # saddle connections and cores, and duality with the cross classes
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert len(sources) >= 17
    assert _core_crossings_readers(sources) == [
        "cylinders.py: Decomposition.crossings"]


def test_core_crossings_readers_are_found():
    sources = {
        "cylinders.py": (
            "class Cylinder:\n"
            "    def __init__(self, core_crossings):\n"
            "        self.core_crossings = core_crossings\n"
            "class Decomposition:\n"
            "    def crossings(self):\n"
            "        return [c.core_crossings for c in self.cylinders]\n"),
        "deform.py": (
            "def _crossing_cocycle(cyl):\n"
            "    def count(chain):\n"
            "        return sum(c * x for c, x in\n"
            "                   zip(chain, cyl.core_crossings))\n"
            "    return count\n"
            "x = cyl.core_crossings\n"),
    }
    assert _core_crossings_readers(sources) == [
        "cylinders.py: Decomposition.crossings", "deform.py: <module>",
        "deform.py: _crossing_cocycle.count"]


def _polygons_scopes(sources: dict) -> list[str]:
    """The functions that read or assign a `.polygons` attribute."""
    return _scopes_using(sources, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "polygons"))


def test_only_the_vec2_readers_touch_polygons():
    # a surface's coordinates live in its lattice form, and `polygons` is
    # the cached Vec2 view of it: writers, hashes and comparisons work on
    # the form's integers, and no code assigns the view
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert _polygons_scopes(sources) == ["deform.py: deform_from_periods"]


def _validation_for_effect(sources: dict) -> list[str]:
    """The functions that call `.singularities()` as a statement of its
    own, its result discarded: they call it to validate."""
    return _scopes_using(sources, lambda node: (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "singularities"))


def test_only_construction_validates():
    # a surface is validated once, when `_set` stores it, so no other
    # code calls `singularities()` for its side effect
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert len(sources) >= 17
    assert _validation_for_effect(sources) == [
        "surface.py: TranslationSurface._set"]


def test_validation_for_effect_is_found():
    sources = {
        "surface.py": ("class TranslationSurface:\n"
                       "    def _set(self):\n"
                       "        self.singularities()\n"
                       "    def classes(self):\n"
                       "        return self.singularities().classes\n"),
        "search.py": ("def enumerate_saddle_connections(surface):\n"
                      "    surface.singularities()\n"
                      "    data = surface.singularities()\n"),
    }
    assert _validation_for_effect(sources) == [
        "search.py: enumerate_saddle_connections",
        "surface.py: TranslationSurface._set",
    ]


def test_polygons_scopes_are_found():
    sources = {
        "homology.py": ("class HomologyFrame:\n"
                        "    def _content_hash(self):\n"
                        "        return [str(e.x) for poly in "
                        "self.surface.polygons for e in poly]\n"),
        "serialize.py": "x = surface.polygons[0]\n",
        "surface.py": ("class TranslationSurface:\n"
                       "    def _set(self, polys):\n"
                       "        self.polygons = polys\n"
                       "    def polygons(self):\n"
                       "        return self.lattice().edges\n"),
    }
    assert _polygons_scopes(sources) == [
        "homology.py: HomologyFrame._content_hash",
        "serialize.py: <module>",
        "surface.py: TranslationSurface._set",
    ]


# The modules whose cocycles live on integers, and the calls that hand
# out ComplexScalars.  `transport_factor` builds one that `eta` only
# takes apart into integers, so it is not among them.
_COCYCLE_MODULES = ("analysis.py", "deform.py", "homology.py")
_COMPLEX_CALLS = {"_complex", "evaluate", "periods", "project_absolute",
                  "symplectic_pairing"}


def _complex_scalar_scopes(sources: dict) -> list[str]:
    """The functions of the cocycle modules that do ComplexScalar
    arithmetic: they name the class (to build one, or in an annotation),
    read a `.re` or `.im` part, or call a method that returns
    ComplexScalars."""
    def matches(node):
        if isinstance(node, ast.Name):
            return node.id == "ComplexScalar"
        if isinstance(node, ast.Attribute):
            return node.attr in ("re", "im") and isinstance(node.ctx, ast.Load)
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _COMPLEX_CALLS)
    return _scopes_using({name: text for name, text in sources.items()
                          if name in _COCYCLE_MODULES}, matches)


def test_the_certificate_path_does_no_complex_scalar_arithmetic():
    # the tangent span, eta and the crossing cocycles work on integer
    # quadruples; ComplexScalars are built only where values are read,
    # for output and for the public API
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert _complex_scalar_scopes(sources) == [
        "analysis.py: more_cylinders_search",
        "deform.py: deform_from_periods",
        "deform.py: verify_linearity",
        "homology.py: Cocycle._complex",
        "homology.py: Cocycle.values",
        "homology.py: HomologyFrame.evaluate",
        "homology.py: HomologyFrame.periods",
        "homology.py: HomologyFrame.project_absolute",
        "homology.py: HomologyFrame.symplectic_pairing",
    ]
    found = set(_complex_scalar_scopes(sources))
    for scope in ("analysis.py: TangentSpan._add",
                  "analysis.py: TangentSpan.add_certified",
                  "deform.py: eta", "deform.py: _crossing_cocycle",
                  "homology.py: HomologyFrame._absolute_quads"):
        assert scope not in found


def test_complex_scalar_scopes_are_found():
    sources = {
        "analysis.py": ("class TangentSpan:\n"
                        "    def _add(self, c) -> ComplexScalar:\n"
                        "        return c\n"),
        "deform.py": ("def eta(dec):\n"
                      "    tau = dec.transport_factor()\n"
                      "    return tau.re\n"
                      "def _crossing_cocycle(dec):\n"
                      "    tau = dec.transport_factor()\n"
                      "    tau.re = 0\n"),
        "homology.py": ("def project(frame, c):\n"
                        "    return frame.project_absolute(c)\n"
                        "x = ComplexScalar(1)\n"),
        "serialize.py": "def f(v):\n    return ComplexScalar(v.re)\n",
    }
    assert _complex_scalar_scopes(sources) == [
        "analysis.py: TangentSpan._add", "deform.py: eta",
        "homology.py: <module>", "homology.py: project"]


# Every key written to a surface's two caches, and whether an image of
# positive determinant shares it with its source.  Shared keys live in
# `_family`, the dict `apply_matrix` hands such an image; the rest live in
# `_cache`, the surface's own.  What is read from the surface's own
# coordinates (its lattice form and area, its frame, whose hash reads
# its polygons, and what is built for its horizontal direction: east
# corners and exit lines) must never be shared.
_SHARED_WITH_IMAGES = {
    "lattice": False,
    "area": False,
    "frame": False,
    "east": False,
    "exits": False,
    "default_bound_sq": False,
    "sing": True,
    "frame_data": True,
    "triangulated": True,
}
_CACHES = {"_cache": False, "_family": True}


def _key_name(node):
    """A cache key's name: a string constant, or the leading string of a
    tuple key such as ("exits", p); anything else is "<computed>"."""
    if isinstance(node, ast.Tuple) and node.elts:
        node = node.elts[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return "<computed>"


def _cache_writes(sources: dict) -> set:
    """(module, cache, key) for every key written to a `_cache` or
    `_family` attribute: by a subscript assignment, by `setdefault`, or
    by assigning a dict display to the attribute itself."""
    found = set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Attribute)
                            and target.value.attr in _CACHES):
                        found.add((name, target.value.attr,
                                   _key_name(target.slice)))
                    elif (isinstance(target, ast.Attribute)
                          and target.attr in _CACHES
                          and isinstance(node.value, ast.Dict)):
                        found.update((name, target.attr, _key_name(key))
                                     for key in node.value.keys)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "setdefault"
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr in _CACHES and node.args):
                found.add((name, node.func.value.attr,
                           _key_name(node.args[0])))
    return found


def _misplaced_cache_keys(sources: dict) -> list[str]:
    """The writes whose key is not in `_SHARED_WITH_IMAGES`, or that put
    it in the other cache than the table says."""
    out = []
    for name, cache, key in sorted(_cache_writes(sources)):
        if key not in _SHARED_WITH_IMAGES:
            out.append(f"{name}: {cache}[{key!r}] is not in the table")
        elif _SHARED_WITH_IMAGES[key] != _CACHES[cache]:
            out.append(f"{name}: {cache}[{key!r}] is in the wrong cache")
    return out


def test_cache_keys_are_in_the_sharing_table():
    # a det > 0 image shares its source's `_family`, so a key written
    # there is carried to every image: data of one direction or of one
    # surface's coordinates written there would be read on another
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert len(sources) >= 17
    assert _misplaced_cache_keys(sources) == []
    assert {key for _, _, key in _cache_writes(sources)} == \
        set(_SHARED_WITH_IMAGES)


def test_misplaced_cache_keys_are_found():
    sources = {
        "a.py": ("def f(s, p):\n"
                 "    s._cache[\"lattice\"] = 1\n"
                 "    s._family[\"east\"] = 2\n"
                 "    s._family[(\"exits\", p)] = 3\n"
                 "    x = s._cache[\"sing\"] = 4\n"
                 "    s._cache[key] = 5\n"),
        "b.py": ("def g(s, image):\n"
                 "    image._cache = {\"lattice\": 1, \"exits\": 2}\n"
                 "    image._family = {\"polygons\": 3}\n"
                 "    s._family.setdefault(\"frame\", {})\n"
                 "    s._family.setdefault(\"triangulated\", {})\n"),
    }
    assert _misplaced_cache_keys(sources) == [
        "a.py: _cache['<computed>'] is not in the table",
        "a.py: _cache['sing'] is in the wrong cache",
        "a.py: _family['east'] is in the wrong cache",
        "a.py: _family['exits'] is in the wrong cache",
        "b.py: _family['frame'] is in the wrong cache",
        "b.py: _family['polygons'] is not in the table",
    ]


# Prints the modules that `import flatdef.cli` adds to those a fresh
# interpreter starts with.  It needs only flatdef on the path, so any
# interpreter can run it alone with `python -c`.
_CLI_IMPORTS = """
import sys
bare = set(sys.modules)
import flatdef.cli
print(" ".join(sorted(set(sys.modules) - bare)))
"""

# no certificate reads or writes a network, a URL, mail or markup
NETWORK_STACK = {"xml", "urllib", "http", "email", "ssl", "socket", "html"}


def _network_modules(names) -> list[str]:
    """The names under a package of `NETWORK_STACK`, or its C module."""
    return sorted(n for n in names
                  if n.split(".")[0].lstrip("_") in NETWORK_STACK)


def test_cli_imports_no_network_stack():
    # xml.sax.saxutils, imported for one escape, brought in 30 of them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(flatdef.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", _CLI_IMPORTS], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    assert "flatdef.cli" in out.split()
    assert _network_modules(out.split()) == []
    # only `decompose --svg` and `render` draw, and they import render
    assert "flatdef.render" not in out.split()


def test_network_modules_are_found():
    assert _network_modules(
        ["xml.sax.saxutils", "_socket", "ssl", "json", "emails",
         "flatdef.render", "html"]) == ["_socket", "html", "ssl",
                                        "xml.sax.saxutils"]


# the Delaunay flip and its predicates: one triangulation module holds them
_TRIANGULATION_DEFS = ("flip", "_incircle", "_delaunay")


def _definitions(sources: dict, names) -> dict:
    """For each of `names`, the places ("module: line") that define a
    function or method of that name."""
    found = {name: [] for name in names}
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in found):
                found[node.name].append(f"{module}: {node.lineno}")
    return found


def test_one_flip_implementation():
    # the saddle-connection search and translation equivalence share the
    # Delaunay flips of `search.py`
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert len(sources) >= 17
    found = _definitions(sources, _TRIANGULATION_DEFS)
    assert {name: [place.split(":")[0] for place in places]
            for name, places in found.items()} == {
        name: ["search.py"] for name in _TRIANGULATION_DEFS}


def test_duplicate_definitions_are_found():
    sources = {
        "search.py": ("class _Tri:\n    def flip(self):\n        pass\n\n"
                      "def _incircle():\n    pass\n"),
        "equivalence.py": ("def _delaunay():\n    def flip():\n"
                           "        pass\n"),
    }
    assert _definitions(sources, _TRIANGULATION_DEFS) == {
        "flip": ["search.py: 2", "equivalence.py: 2"],
        "_incircle": ["search.py: 5"],
        "_delaunay": ["equivalence.py: 1"],
    }


def _calls(sources: dict, name: str) -> list[str]:
    """The places ("module: scope") that call `name`, by its bare name
    or as an attribute; a scope is the dotted path of the enclosing
    classes and functions, or <module>."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = (child.name if scope == "<module>"
                         else f"{scope}.{child.name}")
                visit(child, module, inner)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == name
                        or isinstance(func, ast.Attribute)
                        and func.attr == name):
                    found.append(f"{module}: {scope}")
            visit(child, module, scope)

    for module, text in sources.items():
        visit(ast.parse(text), module, "<module>")
    return sorted(found)


def test_one_triangulation_builder():
    # the saddle-connection search, translation equivalence and the
    # trace read one triangulation per family: `Triangulated` is built
    # only by `search.triangulated`, which keeps it in the family cache
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert len(sources) >= 17
    assert _calls(sources, "Triangulated") == ["search.py: triangulated"]


def test_second_triangulation_builders_are_found():
    sources = {
        "search.py": ("def triangulated(s):\n"
                      "    return Triangulated(s)\n"),
        "tracing.py": ("from . import search\n"
                       "class _Walk:\n"
                       "    def start(self, s):\n"
                       "        return [search.Triangulated(s)]\n"
                       "FAN = Triangulated\n"),
    }
    assert _calls(sources, "Triangulated") == [
        "search.py: triangulated", "tracing.py: _Walk.start"]


def test_directions_search_through_the_module_binding(monkeypatch, golden_l):
    # the traced benchmark times the search by wrapping
    # `search.enumerate_saddle_connections`, so `enumerate_directions`
    # must reach it through that binding to be seen
    calls = []
    enumerate_ = search.enumerate_saddle_connections

    def counted(*args):
        calls.append(args)
        return enumerate_(*args)

    monkeypatch.setattr(search, "enumerate_saddle_connections", counted)
    assert search.enumerate_directions(golden_l, 4)
    assert len(calls) == 1


def _sweep_rule_breaches(sources: dict) -> list[str]:
    """The places ("module: scope") other than `analysis.sweep` that
    enumerate directions, and the functions of analysis.py other than
    `sweep` that take a trace bound ("analysis.py: name (trace
    bounds)")."""
    found = [place for place in _calls(sources, "enumerate_directions")
             if place != "analysis.py: sweep"]
    for func in ast.walk(ast.parse(sources.get("analysis.py", ""))):
        if (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                and func.name != "sweep"
                and {a.arg for a in ast.walk(func.args)
                     if isinstance(a, ast.arg)}
                & {"trace_factor", "trace_length"}):
            found.append(f"analysis.py: {func.name} (trace bounds)")
    return sorted(found)


def test_one_sweep_picks_the_directions():
    # every certificate and scan folds over the decompositions of one
    # `analysis.sweep`, which alone enumerates directions and takes the
    # trace bounds
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert len(sources) >= 17
    assert _calls(sources, "enumerate_directions") == ["analysis.py: sweep"]
    assert _sweep_rule_breaches(sources) == []


def test_sweep_rule_breaches_are_found():
    sources = {
        "analysis.py": ("def sweep(s, r, trace_factor=20, trace_length=None):\n"
                        "    return enumerate_directions(s, r)\n"
                        "def scan(s, r, trace_factor=20):\n"
                        "    return search.enumerate_directions(s, r)\n"
                        "class Span:\n"
                        "    def add(self, d, *, trace_length=None):\n"
                        "        pass\n"),
        "cli.py": ("def cmd_rank(args):\n"
                   "    return enumerate_directions(args.s, 1)\n"),
        "deform.py": "def shear(dec, t, trace_factor=20):\n    pass\n",
    }
    assert _sweep_rule_breaches(sources) == [
        "analysis.py: add (trace bounds)", "analysis.py: scan",
        "analysis.py: scan (trace bounds)", "cli.py: cmd_rank"]


def _tracer_targets(source: str) -> list[tuple]:
    """(module, class or None, attribute) of each row of the SPANS and
    COUNTS tables of a tracer module's source; a count wraps a method
    of `field.FieldScalar`."""
    tables = {node.targets[0].id: node.value
              for node in ast.parse(source).body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    return ([tuple(ast.literal_eval(e) for e in row.elts[:3])
             for row in tables["SPANS"].elts]
            + [("field", "FieldScalar", ast.literal_eval(row.elts[0]))
               for row in tables["COUNTS"].elts])


def _unresolved(targets) -> list[str]:
    """The targets that name no module of flatdef, no class of it, or
    no attribute of it: a module's own binding, or one in a class's own
    namespace, as the tracer wraps them."""
    found = []
    for module, cls, attr in targets:
        try:
            owner = importlib.import_module(f"flatdef.{module}")
        except ModuleNotFoundError:
            owner = None
        if owner is not None and cls is not None:
            owner = vars(owner).get(cls)
        if owner is None or attr not in vars(owner):
            found.append(".".join(n for n in (module, cls, attr) if n))
    return sorted(found)


def test_the_tracer_wraps_names_that_exist():
    # perfbench/tracer.py wraps library functions and methods that it
    # names by string, read here without importing perfbench, so a
    # deleted or renamed one fails here and not only in a traced run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    targets = _tracer_targets(path.read_text())
    assert ("tracing", None, "trace_from_point") in targets
    assert ("field", "FieldScalar", "__mul__") in targets
    assert _unresolved(targets) == []


def test_unresolved_tracer_names_are_found():
    source = (
        "SPANS = (\n"
        "    ('tracing', None, 'trace_from_point', 'tracing.p', _hook),\n"
        "    ('surface', 'TranslationSurface', 'gone', 'surface.g', None),\n"
        "    ('surface', 'Gone', '__init__', 'surface.G', None),\n"
        "    ('nowhere', None, 'f', 'nowhere.f', None),\n"
        ")\n"
        "COUNTS = (('__mul__', 'field.mul.calls'), ('gone', 'field.g'))\n")
    assert _unresolved(_tracer_targets(source)) == [
        "field.FieldScalar.gone", "nowhere.f", "surface.Gone.__init__",
        "surface.TranslationSurface.gone"]

