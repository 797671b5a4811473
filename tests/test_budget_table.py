"""The README's budget table names exactly the package's `*_LIMIT` guards,
and each row states the value its guard is assigned."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cointerval"
README = ROOT / "README.md"


def assigned_limits(module, tree):
    """`module.NAME` -> value for each `*_LIMIT` name the module assigns;
    a name it only imports is another module's guard."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for t in targets:
            if isinstance(t, ast.Name) and t.id.endswith("_LIMIT"):
                out[f"{module}.{t.id}"] = ast.literal_eval(node.value)
    return out


def table_rows(text):
    """(guard, refuses cell) for each row of the README budget table; a
    `\\|` inside a cell is an escaped pipe, not a cell border."""
    table = text.split("The budget guards", 1)[1].split("\n\n", 2)[1]
    return [
        (m[1], re.split(r"(?<!\\)\|", m[2], maxsplit=1)[0].strip())
        for m in re.finditer(r"^\| `(\w+\.\w+_LIMIT)` \|(.*)$", table, re.M)
    ]


def table_limits(text):
    """The guards named in the first column of the README budget table."""
    return {name for name, _cell in table_rows(text)}


def stated_limit(cell):
    """The first number after "more than" in a cell, commas dropped."""
    found = re.search(r"more than (\d[\d,]*)", cell)
    return int(found[1].replace(",", "")) if found else None


def package_limits():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, PACKAGE
    limits = {}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        limits.update(assigned_limits(path.stem, tree))
    return limits


def test_budget_table_names_every_limit():
    assigned = set(package_limits())
    named = table_limits(README.read_text(encoding="utf-8"))
    assert len(assigned) >= 8
    assert sorted(assigned - named) == [], "guards missing from the table"
    assert sorted(named - assigned) == [], "table names no such guard"


def test_budget_table_states_every_value():
    limits = package_limits()
    rows = table_rows(README.read_text(encoding="utf-8"))
    assert len(rows) >= len(limits)
    for name, cell in rows:
        assert stated_limit(cell) == limits.get(name), (name, cell)


def test_the_scans_see_guards_and_rows():
    tree = ast.parse(
        "from .complexes import CELL_LIMIT\nimport os\n"
        "EDGE_LIMIT = 3\nWIDTH_LIMIT: int = 4_000\nOTHER = 5\n"
        "def f():\n    limit = CELL_LIMIT\n"
    )
    assert assigned_limits("m", tree) == {
        "m.EDGE_LIMIT": 3, "m.WIDTH_LIMIT": 4000
    }
    text = (
        "The budget guards, each a module constant:\n\n"
        "| guard | refuses | used by |\n|---|---|---|\n"
        "| `m.EDGE_LIMIT` | more than 3 edges (2^\\|E\\| sets) | `f` |\n"
        "| `m.WIDTH_LIMIT` | a width of more than 4,000, or 5 | `g` |\n"
        "| `m.EDGE_LIMIT` | many edges again | `g` |\n\n"
        "| `m.NOT_IN_THE_TABLE_LIMIT` | later text |\n"
    )
    assert table_limits(text) == {"m.EDGE_LIMIT", "m.WIDTH_LIMIT"}
    rows = table_rows(text)
    assert rows == [
        ("m.EDGE_LIMIT", "more than 3 edges (2^\\|E\\| sets)"),
        ("m.WIDTH_LIMIT", "a width of more than 4,000, or 5"),
        ("m.EDGE_LIMIT", "many edges again"),
    ]
    assert [stated_limit(cell) for _name, cell in rows] == [3, 4000, None]
