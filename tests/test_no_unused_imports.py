"""Every name the package imports is used: deletions leave no dead imports."""

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


def test_package_has_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, PACKAGE
    found = [
        f"{path.name}:{line} {name}"
        for path in files
        for line, name in unused_imports(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert found == [], f"imported but never used: {found}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "import os\nimport sys as system\nfrom a import b, c\n"
        "from __future__ import annotations\n"
        "__all__ = ['c']\nprint(system.argv)\n"
    )
    assert unused_imports(tree) == [(1, "os"), (3, "b")]
