"""Complex dump format: serialize labeled complexes, re-verify from text.

One cell per line, `dim | s_1 ; s_2 ; ... ; s_k | label`, sorted by
(dim, blocks); an empty block slot (a join cell whose factor vanished)
is written `-`.  Parsing rebuilds the face poset by componentwise block
containment and recovers boundary orientations degree by degree: the
signed boundary of a cell spans the one-dimensional kernel of its
faces' boundary matrix, and any deviation (wrong kernel dimension,
non-unit entries) means the text is not the face poset of a polyhedral
complex and raises ParseError.  The parsed object plugs into the same
verification machinery as internally built complexes.
"""

from __future__ import annotations

from fractions import Fraction

from ._kernels import nullspace_rational
from .complexes import LabeledComplex
from .errors import ParseError


class PosetComplex(LabeledComplex):
    """Complex reconstructed from a dump; boundaries stored explicitly."""

    def __init__(self, cells, boundaries):
        self._boundaries = boundaries
        super().__init__(cells)

    def boundary(self, cell):
        return self._boundaries[cell]


def _blocks_of(X, cell):
    """Uniform-arity block representation of a cell, for serialization."""
    factors = getattr(X, "factors", None)
    if factors is None:
        return cell
    out = []
    for i, c in enumerate(cell):
        arity = len(next(iter(factors[i].all_cells())))
        if c is None:
            out.extend([()] * arity)
        else:
            if getattr(factors[i], "factors", None) is not None:
                raise ValueError("nested joins cannot be dumped")
            out.extend(c)
    return tuple(out)


def write_complex_dump(X):
    """Serialize X in the dump format (deterministic, byte-stable)."""
    rows = []
    for cell in X.all_cells():
        blocks = _blocks_of(X, cell)
        rows.append((X.dim(cell), blocks, tuple(sorted(X.label(cell)))))
    rows.sort()
    lines = []
    for dim, blocks, label in rows:
        btxt = " ; ".join(
            " ".join(map(str, b)) if b else "-" for b in blocks
        )
        lines.append(f"{dim} | {btxt} | {' '.join(map(str, label))}")
    return "\n".join(lines) + "\n"


def parse_complex_dump(text):
    """Rebuild a verifiable complex from dump text."""
    cells = {}
    arity = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise ParseError("expected `dim | blocks | label`", lineno)
        try:
            dim = int(parts[0])
        except ValueError:
            raise ParseError(f"bad dimension {parts[0]!r}", lineno) from None
        blocks = []
        for btxt in parts[1].split(";"):
            btxt = btxt.strip()
            if btxt == "-" or not btxt:
                blocks.append(())
                continue
            try:
                block = tuple(int(v) for v in btxt.split())
            except ValueError:
                raise ParseError(f"bad block {btxt!r}", lineno) from None
            if any(
                block[i] >= block[i + 1] for i in range(len(block) - 1)
            ):
                raise ParseError(
                    f"block {block} is not strictly increasing", lineno
                )
            blocks.append(block)
        blocks = tuple(blocks)
        if arity is None:
            arity = len(blocks)
        elif len(blocks) != arity:
            raise ParseError(
                f"cell has {len(blocks)} blocks, expected {arity}", lineno
            )
        try:
            label = frozenset(int(v) for v in parts[2].split())
        except ValueError:
            raise ParseError(f"bad label {parts[2]!r}", lineno) from None
        if not label:
            raise ParseError("empty label", lineno)
        if blocks in cells:
            raise ParseError(f"duplicate cell {blocks}", lineno)
        if dim < 0:
            raise ParseError(f"negative dimension {dim}", lineno)
        cells[blocks] = (dim, label)
    return _orient(cells)


def _below(small, big):
    return all(set(s) <= set(b) for s, b in zip(small, big))


_AUG = "aug"


def _orient(cells):
    """Derive signed boundaries from the face poset, degree by degree."""
    by_dim = {}
    for key, (dim, _label) in cells.items():
        by_dim.setdefault(dim, []).append(key)
    for dim in by_dim:
        by_dim[dim].sort()
    boundaries = {}
    for dim in sorted(by_dim):
        for cell in by_dim[dim]:
            if dim == 0:
                boundaries[cell] = []
                continue
            faces = [f for f in by_dim.get(dim - 1, ()) if _below(f, cell)]
            # label monotonicity along the face relation
            for f in faces:
                if not cells[f][1] <= cells[cell][1]:
                    raise ParseError(
                        f"label of face {f} does not divide label of {cell}"
                    )
            if not faces:
                raise ParseError(
                    f"cell {cell} of dimension {dim} has no faces"
                )
            targets = {}
            if dim == 1:
                targets[_AUG] = 0
            for f in faces:
                for g, _s in boundaries[f]:
                    targets.setdefault(g, len(targets))
            target_index = {g: i for i, g in enumerate(sorted(targets, key=str))}
            rows = [[0] * len(faces) for _ in target_index]
            for j, f in enumerate(faces):
                if dim == 1:
                    rows[target_index[_AUG]][j] = 1
                else:
                    for g, s in boundaries[f]:
                        rows[target_index[g]][j] += s
            basis = nullspace_rational(rows, len(faces))
            if len(basis) != 1:
                raise ParseError(
                    f"cell {cell}: boundary kernel has dimension "
                    f"{len(basis)}, not a polyhedral cell"
                )
            vec = basis[0]
            lead = next((v for v in vec if v), None)
            if lead is None:
                raise ParseError(f"cell {cell}: degenerate boundary")
            vec = [v / lead for v in vec]
            if any(v not in (Fraction(1), Fraction(-1)) for v in vec):
                raise ParseError(
                    f"cell {cell}: boundary coefficients are not units"
                )
            boundaries[cell] = [
                (f, 1 if v > 0 else -1) for f, v in zip(faces, vec)
            ]
    return PosetComplex(cells, boundaries)


def write_complex_dump_file(X, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_complex_dump(X))


def read_complex_dump(path):
    with open(path, encoding="utf-8") as fh:
        return parse_complex_dump(fh.read())
