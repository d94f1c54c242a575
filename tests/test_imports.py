"""Every name a library module imports is used in that module, and every
name it defines at module level is read somewhere in the package.

``__init__.py`` is left out of both: its imports are the package's
re-exports, and it defines nothing else.
"""

import ast
import pathlib

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
