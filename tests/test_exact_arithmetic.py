"""Nothing in the package is floated: no true division, no float, no Fraction.

Every rank and kernel is computed over the integers or mod p, so the
package needs neither floats nor rationals.  The scan fails on `/` and
`/=`, float literals, the name `float`, and any import of `fractions`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cointerval"


def inexact(tree):
    """(line, what) for each inexact construct in a module's tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "fractions" for alias in node.names
        ):
            found.append((node.lineno, "import fractions"))
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append((node.lineno, "import fractions"))
    return sorted(found)


def test_package_does_no_inexact_arithmetic():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, PACKAGE
    found = [
        f"{path.name}:{line} {what}"
        for path in files
        for line, what in inexact(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], f"inexact arithmetic in the package: {found}"
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert "nothing is floated" in " ".join(ast.get_docstring(init).split())


def test_the_scan_sees_every_construct():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "import fractions as fr, os\n"
        "a = 1 / 2\n"
        "a /= 3\n"
        "b = 0.5 + 1e3\n"
        "c = float(7)\n"
        "d = 7 // 2 + len('1/2') + 2 ** -1\n"
        "e = x.float\n"
    )
    assert inexact(tree) == [
        (1, "import fractions"),
        (2, "import fractions"),
        (3, "true division"),
        (4, "true division"),
        (5, "float literal"),
        (5, "float literal"),
        (6, "float"),
    ]
