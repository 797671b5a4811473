"""Every name the package or its tests import is used, and every private
name the package binds (module level, class body or `self` attribute) is
read somewhere in it: deletions leave no dead imports, no orphaned
helpers and no attribute that nothing reads."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cointerval"
TESTS = Path(__file__).resolve().parent


def unused_imports(tree):
    """(line, name) of each imported name the module never reads.

    A name listed in the module's `__all__` counts as read: that is how
    the package re-exports what it imports.
    """
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _bound(node):
    """(line, name) of each name a statement binds: a def, a class or the
    names among its assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [(node.lineno, node.name)]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        (node.lineno, n.id) for t in targets for n in ast.walk(t)
        if isinstance(n, ast.Name)
    ]


def unread_privates(trees):
    """(module, line, name) of each private name (`_x`, not dunder) that a
    module binds and no module reads.

    A module binds the names at its top level, the methods and attributes
    in the body of each of its classes, and every attribute it stores on
    `self`.  A read is a loaded name, a loaded attribute or a name
    imported from a module, so `complexes._grow`, `self._keys` and
    `from .homology import _x` count.
    """
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        bound = [pair for node in tree.body for pair in _bound(node)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bound += [pair for item in node.body for pair in _bound(item)]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                bound.append((node.lineno, node.attr))
        found += [
            (module, line, name) for line, name in bound
            if name.startswith("_") and not name.startswith("__")
            and name not in read
        ]
    return sorted(found)


def _trees(directory):
    files = sorted(directory.glob("*.py"))
    assert files, directory
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in files
    }


def _package_trees():
    return _trees(PACKAGE)


def _unused_in(trees):
    return [
        f"{name}:{line} {unused}"
        for name, tree in trees.items()
        for line, unused in unused_imports(tree)
    ]


def test_package_has_no_unused_imports():
    found = _unused_in(_package_trees())
    assert found == [], f"imported but never used: {found}"


def test_tests_have_no_unused_imports():
    found = _unused_in(_trees(TESTS))
    assert found == [], f"imported but never used: {found}"


def test_package_reads_every_private_name():
    found = [
        f"{module}:{line} {name}"
        for module, line, name in unread_privates(_package_trees())
    ]
    assert found == [], f"private names no module reads: {found}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "import os\nimport sys as system\nfrom a import b, c\n"
        "from __future__ import annotations\n"
        "__all__ = ['c']\nprint(system.argv)\n"
    )
    assert unused_imports(tree) == [(1, "os"), (3, "b")]


def test_the_scan_sees_an_unread_private_name():
    trees = {
        "a.py": ast.parse(
            "_LIMIT = 3\n_orphan = 4\n__all__ = []\n"
            "def _helper():\n    return _LIMIT\n"
            "class _Unused:\n    _field = 1\n"
            "    def _method(self):\n        self._slot = self._kept\n"
            "    def __init__(self):\n        self._kept = 2\n"
        ),
        "b.py": ast.parse(
            "import a\nfrom a import _helper\n"
            "a._orphan = 5\nprint(_helper(), a._Kept)\n"
        ),
    }
    assert unread_privates(trees) == [
        ("a.py", 2, "_orphan"), ("a.py", 6, "_Unused"), ("a.py", 7, "_field"),
        ("a.py", 8, "_method"), ("a.py", 9, "_slot"),
    ]
