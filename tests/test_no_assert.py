"""Invariants in the package must survive `python -O`: no assert statements."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cointerval"


def test_package_has_no_assert_statements():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, PACKAGE
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert vanishes under python -O: {found}"
