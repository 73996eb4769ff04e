import ast
import os
import subprocess
import sys
from pathlib import Path

import flatdef
from flatdef.cylinders import decompose
from flatdef.deform import eta
from flatdef.field import Vec2
from flatdef.homology import homology_frame


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


def _unread_private_defs(sources: dict) -> list[str]:
    """Private (`_`-prefixed) top-level functions and classes that no
    other top-level statement of any of the modules reads.

    `sources` maps module names to their text; a definition read only
    from inside its own body (a recursion) counts as unread.
    """
    statements = [(name, node) for name, text in sources.items()
                  for node in ast.parse(text).body]
    reads = {id(node): {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
             | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
             for _, node in statements}
    return sorted(f"{name}: {node.name} (line {node.lineno})"
                  for name, node in statements
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_")
                  and not any(node.name in reads[id(other)]
                              for _, other in statements if other is not node))


def test_no_unread_private_defs():
    # a private helper left behind after its last caller is deleted
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert len(sources) >= 17
    assert _unread_private_defs(sources) == []


def test_unread_private_defs_are_found():
    sources = {
        "a.py": ("def _used():\n    pass\n\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                 "class _Dead:\n    pass\n\n"
                 "def _read_elsewhere():\n    pass\n\n"
                 "def public():\n    return _used()\n"),
        "b.py": "import a\nx = a._read_elsewhere\n",
    }
    assert _unread_private_defs(sources) == [
        "a.py: _Dead (line 7)", "a.py: _recursive (line 4)"]


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


_FIELD_MISMATCH = "incompatible fields"


def _field_mismatch_outside_field(sources: dict) -> list[str]:
    """Lines that spell the field-mismatch error outside field.py, which
    builds it in one place (`field._incompatible`)."""
    return [f"{name}: line {i}" for name, text in sorted(sources.items())
            if name != "field.py"
            for i, line in enumerate(text.splitlines(), 1)
            if _FIELD_MISMATCH in line]


def test_one_place_builds_the_field_mismatch_error():
    # a second copy of the message drifts from the first: its order of
    # the two fields or its wording
    src = Path(__file__).resolve().parent.parent / "src" / "flatdef"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert _FIELD_MISMATCH in sources["field.py"]
    assert _field_mismatch_outside_field(sources) == []


def test_field_mismatch_outside_field_is_found():
    sources = {
        "field.py": 'raise ValueError(f"incompatible fields {a} and {b}")\n',
        "tracing.py": ('x = 1\n'
                       'raise ValueError(f"incompatible fields {a} and {b}")\n'),
    }
    assert _field_mismatch_outside_field(sources) == ["tracing.py: line 2"]


def _core_crossings_readers(sources: dict) -> list[str]:
    """The functions, as "module: Class.function", that read a
    `core_crossings` attribute; reads outside any function are named
    "module: <module>"."""
    found = set()

    def visit(name, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(name, child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute)
                    and child.attr == "core_crossings"
                    and isinstance(child.ctx, ast.Load)):
                found.add(f"{name}: {'.'.join(scope) or '<module>'}")
            visit(name, child, scope)

    for name, text in sources.items():
        visit(name, ast.parse(text), [])
    return sorted(found)


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


# Every key written to a surface's two caches, and whether an image of
# positive determinant shares it with its source.  Shared keys live in
# `_family`, the dict `apply_matrix` hands such an image; the rest live in
# `_cache`, the surface's own.  What is read from the surface's own
# coordinates (its lattice form and vertices, its frame, whose hash reads
# its polygons, and what is built for its horizontal direction: east
# corners and slab tables) must never be shared.
_SHARED_WITH_IMAGES = {
    "lattice": False,
    "verts": False,
    "frame": False,
    "east": False,
    "slabs": False,
    "sing": True,
    "frame_data": True,
    "triangulated": True,
}
_CACHES = {"_cache": False, "_family": True}


def _key_name(node):
    """A cache key's name: a string constant, or the leading string of a
    tuple key such as ("verts", p); anything else is "<computed>"."""
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
                 "    s._cache[(\"verts\", p)] = 3\n"
                 "    x = s._cache[\"sing\"] = 4\n"
                 "    s._cache[key] = 5\n"),
        "b.py": ("def g(s, image):\n"
                 "    image._cache = {\"lattice\": 1, \"slabs\": 2}\n"
                 "    image._family = {\"polygons\": 3}\n"
                 "    s._family.setdefault(\"frame\", {})\n"
                 "    s._family.setdefault(\"triangulated\", {})\n"),
    }
    assert _misplaced_cache_keys(sources) == [
        "a.py: _cache['<computed>'] is not in the table",
        "a.py: _cache['sing'] is in the wrong cache",
        "a.py: _family['east'] is in the wrong cache",
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


def test_network_modules_are_found():
    assert _network_modules(
        ["xml.sax.saxutils", "_socket", "ssl", "json", "emails",
         "flatdef.render", "html"]) == ["_socket", "html", "ssl",
                                        "xml.sax.saxutils"]
