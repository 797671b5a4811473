"""The README's budget table names exactly the package's `*_LIMIT` guards."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cointerval"
README = ROOT / "README.md"


def assigned_limits(module, tree):
    """`module.NAME` for each `*_LIMIT` name the module assigns; a name it
    only imports is another module's guard."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        out.update(
            f"{module}.{t.id}" for t in targets
            if isinstance(t, ast.Name) and t.id.endswith("_LIMIT")
        )
    return out


def table_limits(text):
    """The guards named in the first column of the README budget table."""
    table = text.split("The budget guards", 1)[1].split("\n\n", 2)[1]
    return set(re.findall(r"^\| `(\w+\.\w+_LIMIT)` \|", table, re.M))


def test_budget_table_names_every_limit():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, PACKAGE
    assigned = set().union(*(
        assigned_limits(path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in files
    ))
    named = table_limits(README.read_text(encoding="utf-8"))
    assert len(assigned) >= 8
    assert sorted(assigned - named) == [], "guards missing from the table"
    assert sorted(named - assigned) == [], "table names no such guard"


def test_the_scans_see_guards_and_rows():
    tree = ast.parse(
        "from .complexes import CELL_LIMIT\nimport os\n"
        "EDGE_LIMIT = 3\nWIDTH_LIMIT: int = 4\nOTHER = 5\n"
        "def f():\n    limit = CELL_LIMIT\n"
    )
    assert assigned_limits("m", tree) == {"m.EDGE_LIMIT", "m.WIDTH_LIMIT"}
    text = (
        "The budget guards, each a module constant:\n\n"
        "| guard | refuses | used by |\n|---|---|---|\n"
        "| `m.EDGE_LIMIT` | many edges | `f` |\n"
        "| `m.EDGE_LIMIT` | many edges again | `g` |\n\n"
        "| `m.NOT_IN_THE_TABLE_LIMIT` | later text |\n"
    )
    assert table_limits(text) == {"m.EDGE_LIMIT"}
