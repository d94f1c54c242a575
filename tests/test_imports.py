"""Every name a library module imports is used in that module, every name
it defines at module level is read somewhere in the package, and it imports
only modules below it in the layer order ``LAYERS``.

``__init__.py`` is left out of all three: its imports are the package's
re-exports, and it defines nothing else.

No module-level alias names a package class bare inside a typing subscript,
and no package class outlives its dropped modules.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src" / "winfty"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import random\nfrom .weyl import bracket, mul\nmul(1, 2)\n")
    assert _unused_imports(tree) == [(1, "random"), (2, "bracket")]


def _unread_definitions(trees):
    """(module, line, name) of each module-level def, class or assigned name
    of a non-``__init__`` module that no module loads, imports or reads as an
    attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    defined = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, node.lineno, n.id) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)]
    return sorted(d for d in defined if d[2] not in read)


def test_every_module_level_name_is_read():
    assert _unread_definitions(TREES) == []


def test_an_unread_definition_is_found():
    trees = {"a.py": ast.parse("X, Y = 1, 2\ndef f():\n    return Y\nclass C:\n    pass\n"),
             "b.py": ast.parse("from .a import C\n"),
             "__init__.py": ast.parse("Z = 3\n")}
    assert _unread_definitions(trees) == [("a.py", 1, "X"), ("a.py", 2, "f")]


LAYERS = ("scalars", "echelon", "report", "lattice", "printer", "weyl", "parser",
          "onevar", "intermediate", "weightlab", "suites", "cli")


def _upward_imports(trees):
    """(module, line, imported) of each relative import, at any depth, that
    names a module not earlier than the importer in ``LAYERS``."""
    found = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        rank = LAYERS.index(name[:-3])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                found += [(name, node.lineno, t) for t in targets
                          if t.split(".")[0] not in LAYERS[:rank]]
    return sorted(found)


def test_imports_only_name_earlier_layers():
    assert _upward_imports(TREES) == []


def test_an_upward_import_is_found():
    trees = {"printer.py": ast.parse("from .scalars import Scalar\n"
                                     "def f():\n    from .weyl import mul\n"),
             "weyl.py": ast.parse("from .printer import format_element\n"),
             "report.py": ast.parse("from . import report\n"),
             "__init__.py": ast.parse("from .cli import main\n")}
    assert _upward_imports(trees) == [("printer.py", 3, "weyl"), ("report.py", 1, "report")]


def _pinned_classes(trees):
    """(module, line, name) of each package class named bare inside a
    subscript on the right of a module-level assignment.  typing caches each
    subscription, ``Dict[str, Scalar]`` included, and its cache would keep the
    class alive after the module is dropped; a quoted name is not a class."""
    classes = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                found.update((module, n.lineno, n.id) for sub in ast.walk(node.value)
                             if isinstance(sub, ast.Subscript) for n in ast.walk(sub.slice)
                             if isinstance(n, ast.Name) and n.id in classes)
    return sorted(found)


def test_no_alias_pins_a_package_class():
    assert _pinned_classes(TREES) == []


def test_a_pinning_alias_is_found():
    trees = {"a.py": ast.parse("class Scalar:\n    pass\n"
                               "Vec = Dict[int, Scalar]\n"
                               "Ok = Dict[int, 'Scalar']\n"
                               "KINDS = (Scalar, int)\n"
                               "Deep = Optional[List[Tuple[Scalar, int]]]\n"),
             "b.py": ast.parse("from .a import Scalar\nX: Any = Union[int, Scalar]\n")}
    assert _pinned_classes(trees) == [("a.py", 3, "Scalar"), ("a.py", 6, "Scalar"),
                                      ("b.py", 2, "Scalar")]


_REIMPORT = """
import gc, importlib, inspect, json, pkgutil, sys, weakref
import winfty
for info in pkgutil.iter_modules(winfty.__path__):
    importlib.import_module("winfty." + info.name)
ours = [name for name in sys.modules if name.split(".")[0] == "winfty"]
refs = [weakref.ref(obj) for name in ours for obj in vars(sys.modules[name]).values()
        if inspect.isclass(obj) and obj.__module__ == name]
for name in ours:
    del sys.modules[name]
del winfty, info
gc.collect()
print(json.dumps([len(refs), sorted(r().__qualname__ for r in refs if r() is not None)]))
"""


def test_no_package_class_outlives_its_dropped_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, check=True,
                         capture_output=True, text=True).stdout
    count, alive = json.loads(out)
    assert count > 20 and alive == []
