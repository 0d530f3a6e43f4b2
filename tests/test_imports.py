"""Every name a package module imports or keeps private is used by that module.

A static scan: each module under src/regretopt is parsed, and every name
bound by an import statement must be read somewhere in the module, in code
or in a quoted annotation.  Package __init__ modules are exempt because
their imports are the re-exported API, and so are ``from __future__``
imports, which change how the module compiles.  Likewise every private
module-level name (a leading underscore, not a dunder) must be read in its
own module, and no module imports a private name from another regretopt
module, since no other module is meant to use it.  Last, every public
top-level function and class of the package must be read somewhere in the
package, the demos or the benchmark's non-test code, so that none is kept
alive only by its own tests.  And a private attribute read off any object
but self or cls is read only in a module that defines it, so that how a
class stores its state (say, the graph's adjacency) stays behind its module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "regretopt"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement, with the statement's line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, including inside quoted annotations."""
    found = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                found |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return found


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _referenced_names(tree)
    return sorted((name, line) for name, line in _imported_names(tree).items() if name not in used)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_names(tree: ast.Module) -> dict[str, int]:
    """Private name bound by each top-level definition or assignment, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if _is_private(name):
                bound[name] = node.lineno
    return bound


def unreferenced_private_names(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _referenced_names(tree)
    return sorted((name, line) for name, line in _private_names(tree).items() if name not in used)


def test_the_scan_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import io\n"
        "import os.path\n"
        "from typing import Iterable, Sequence\n"
        "from dataclasses import field as fld\n"
        "def f(x: 'Iterable[int]') -> None:\n"
        "    return os.path.join(x, 'Sequence')\n"
    )
    assert unused_imports(source) == [("Sequence", 4), ("fld", 5), ("io", 2)]


def test_package_modules_import_only_what_they_use():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        str(p.relative_to(PACKAGE)): found
        for p in modules
        if (found := unused_imports(p.read_text()))
    }
    assert unused == {}


def test_the_scan_sees_unreferenced_private_names():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "__version__ = '1'\n"
        "_A, _B = 3, 4\n"
        "def _helper(x: '_Hinted') -> int:\n"
        "    return _USED + x + _A\n"
        "class _Hinted:\n"
        "    _inner = 5\n"
        "def _orphan():\n"
        "    pass\n"
        "def public():\n"
        "    return _helper(0)\n"
    )
    assert unreferenced_private_names(source) == [("_B", 4), ("_UNUSED", 2), ("_orphan", 9)]


def test_package_private_names_are_used_in_their_module():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    unused = {
        str(p.relative_to(PACKAGE)): found
        for p in modules
        if (found := unreferenced_private_names(p.read_text()))
    }
    assert unused == {}


def private_imports(source: str) -> list[tuple[str, int]]:
    """Private names imported from a regretopt module (relative or absolute), with their lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "regretopt"):
            found += [(alias.name, node.lineno) for alias in node.names if _is_private(alias.name)]
    return sorted(found)


def test_the_scan_sees_private_imports():
    source = (
        "from ._internal import public, _hidden\n"
        "from regretopt.core import _helper as helper\n"
        "from .. import __version__\n"
        "from os import _exit\n"
    )
    assert private_imports(source) == [("_helper", 2), ("_hidden", 1)]


def test_package_modules_import_no_private_names():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    imported = {
        str(p.relative_to(PACKAGE)): found
        for p in modules
        if (found := private_imports(p.read_text()))
    }
    assert imported == {}


ROOT = PACKAGE.parent.parent
# Reference implementations that only the tests compare against.
REFERENCE_MODULES = {PACKAGE / "harness" / "brute_force.py"}


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Public function or class defined at the top level of a module, with its line."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node.lineno for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")}


def _read_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, bare or as an attribute, including inside quoted annotations."""
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return _referenced_names(tree) | attributes


def unread_public_names(defining: dict[str, str], readers: list[str]) -> list[tuple[str, str, int]]:
    """Public top-level functions and classes of the defining sources that no reader reads.

    defining maps a module's label to its source; an import alone is not a read.
    """
    read = set().union(*(_read_names(ast.parse(source)) for source in readers))
    return sorted(
        (label, name, line)
        for label, source in defining.items()
        for name, line in _public_definitions(ast.parse(source)).items()
        if name not in read
    )


def test_the_scan_sees_public_names_read_nowhere():
    module = (
        "import dataclasses\n"
        "def called(): pass\n"
        "def orphan(): pass\n"
        "class Hinted: pass\n"
        "class Attribute: pass\n"
        "def _private(): pass\n"
        "@dataclasses.dataclass\n"
        "class Imported: pass\n"
    )
    readers = [
        module,
        "from m import Imported, called\ncalled()\n",
        "import m\ndef f(x: 'Hinted') -> None:\n    return m.Attribute\n",
    ]
    assert unread_public_names({"m.py": module}, readers) == [("m.py", "Imported", 8), ("m.py", "orphan", 3)]


def test_no_public_name_is_kept_alive_only_by_tests():
    modules = sorted(PACKAGE.rglob("*.py"))
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    readers = [p.read_text() for p in modules + sorted((ROOT / "demos").glob("*.py")) + bench]
    defining = {str(p.relative_to(PACKAGE)): p.read_text() for p in modules if p not in REFERENCE_MODULES}
    assert bench and unread_public_names(defining, readers) == []


def _private_attribute_definitions(tree: ast.Module) -> set[str]:
    """Private attributes a module defines.

    A definition is a top-level private name, a private field or def in a
    class body, an assignment to self._name, or object.__setattr__(..., "_name", ...).
    """
    defined = set(_private_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                defined.add(node.attr)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                defined.add(name.value)
    return {name for name in defined if _is_private(name)}


def foreign_private_reads(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """Private attributes read off an object other than self or cls outside every module that defines them.

    sources maps a module's label to its source; returns (label, attribute, line).
    """
    trees = {label: ast.parse(source) for label, source in sources.items()}
    definers: dict[str, set[str]] = {}
    for label, tree in trees.items():
        for name in _private_attribute_definitions(tree):
            definers.setdefault(name, set()).add(label)
    return sorted(
        (label, node.attr, node.lineno)
        for label, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and _is_private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        and label not in definers.get(node.attr, ())
    )


def test_the_scan_sees_private_attributes_read_outside_their_module():
    graph = (
        "class Graph:\n"
        "    _order: tuple = ()\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, '_heads', ())\n"
        "        self._cache = {}\n"
        "    def _walk(self):\n"
        "        return self._heads, self._hidden\n"
        "def search(graph):\n"
        "    return graph._heads, graph._order, graph._cache, graph._walk()\n"
    )
    user = (
        "import sys\n"
        "def run(graph):\n"
        "    graph._cache = None\n"
        "    return graph.heads, graph._heads, graph._walk(), sys._getframe()\n"
        "class User:\n"
        "    def f(self):\n"
        "        return self._order, type(self)._order\n"
    )
    found = foreign_private_reads({"graph.py": graph, "user.py": user})
    assert found == [("user.py", "_getframe", 4), ("user.py", "_heads", 4), ("user.py", "_order", 7), ("user.py", "_walk", 4)]


def test_package_private_attributes_are_read_only_where_they_are_defined():
    sources = {str(p.relative_to(PACKAGE)): p.read_text() for p in sorted(PACKAGE.rglob("*.py"))}
    assert sources and foreign_private_reads(sources) == []
