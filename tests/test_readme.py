"""The README's Library section names only what the package exports."""

import re
from pathlib import Path

import cointerval

README = Path(__file__).resolve().parents[1] / "README.md"


def library_paragraph():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n#", 1)[0]
    (paragraph,) = [
        p for p in library.split("\n\n")
        if p.startswith("The other entry points")
    ]
    return paragraph


def test_library_names_import_from_the_package():
    names = re.findall(r"`([^`]+)`", library_paragraph())
    assert len(names) >= 8
    for name in names:
        head, *rest = name.split(".")
        assert head in cointerval.__all__, name
        obj = getattr(cointerval, head)
        for attr in rest:
            obj = getattr(obj, attr)
        assert callable(obj), name
