"""Every name the package imports is used, and every module-level private
name is read somewhere in the package: deletions leave no dead imports and
no orphaned helpers."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cointerval"


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


def unread_privates(trees):
    """(module, line, name) of each private name (`_x`, not dunder) that a
    module binds at top level and no module reads.

    A read is a loaded name, a loaded attribute or a name imported from a
    module, so `complexes._grow` and `from .homology import _x` count.
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
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [
                    n.id for t in node.targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)
                ]
            else:
                continue
            found += [
                (module, node.lineno, name) for name in bound
                if name.startswith("_") and not name.startswith("__")
                and name not in read
            ]
    return sorted(found)


def _package_trees():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, PACKAGE
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in files
    }


def test_package_has_no_unused_imports():
    found = [
        f"{name}:{line} {unused}"
        for name, tree in _package_trees().items()
        for line, unused in unused_imports(tree)
    ]
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
        ),
        "b.py": ast.parse(
            "import a\nfrom a import _helper\n"
            "a._orphan = 5\nprint(_helper(), a._Kept)\n"
        ),
    }
    assert unread_privates(trees) == [
        ("a.py", 2, "_orphan"), ("a.py", 6, "_Unused"),
    ]
