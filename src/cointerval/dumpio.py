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

Faces are found with one holder bitset per (block slot, value) pair
and dimension, not by testing every pair of cells.  The kernel is
solved over a large prime field and lifted to +-1 signs checked over
the integers, which pins down the rational kernel; Fraction arithmetic
runs only for a cell whose lift fails, to name the rejection.
"""

from __future__ import annotations

from fractions import Fraction

from ._kernels import nullspace_mod, nullspace_rational
from .complexes import LabeledComplex, _holders, _layout, _members
from .errors import ParseError


def write_complex_dump(X):
    """Serialize X in the dump format (deterministic, byte-stable).

    Cells come out in X's order, which is (dim, blocks) order.
    """
    lines = []
    for cell in X.all_cells():
        btxt = " ; ".join(
            " ".join(map(str, b)) if b else "-" for b in cell
        )
        label = " ".join(map(str, sorted(X.label(cell))))
        lines.append(f"{X.dim(cell)} | {btxt} | {label}")
    return "\n".join(lines) + "\n"


def parse_complex_dump(text):
    """Rebuild a verifiable complex from dump text."""
    return _orient(_read_cells(text))


def _read_cells(text):
    """The dump's cells as {blocks: (dim, label)}, checked line by line."""
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
    return cells


# Orientation is solved modulo this prime (the largest below 2^30, so a
# residue fits one CPython int digit) and lifted to signs over the integers.
ORIENT_PRIME = 1_073_741_789


def _pair_bits(keys, bits):
    """Bitmask of each cell's (slot, value) pairs; new pairs get new bits."""
    masks = []
    for key in keys:
        mask = 0
        for slot, block in enumerate(key):
            for v in block:
                k = bits.get((slot, v))
                if k is None:
                    k = bits[(slot, v)] = len(bits)
                mask |= 1 << k
        masks.append(mask)
    return masks


def _orient(cells):
    """Derive signed boundaries from the face poset, degree by degree.

    The faces of a cell are the cells one dimension down whose every
    block slot lies inside the cell's (componentwise containment): all
    of them, minus the holders of each (slot, value) pair the cell does
    not have.  The signs span the kernel of the faces' boundaries; see
    `_unit_kernel` for why solving it over a prime field is exact.  The
    columns, as face ids and signs, go to the complex as they are.
    """
    keys, masks, verts = _layout(cells)
    bits, columns, holders = {}, {}, {}
    for dim, dim_keys in keys.items():
        pairs = _pair_bits(dim_keys, bits)
        if dim:
            every = (1 << len(keys[dim - 1])) - 1
            present = sum(1 << k for k in holders)
            columns[dim] = cols = []
            for cell, mask in zip(dim_keys, pairs):
                keep = every
                for k in _members(present & ~mask):
                    keep &= ~holders[k]
                cols.append(_signed_faces(
                    cells, keys, columns, dim, cell, _members(keep)
                ))
        # holders are only needed for the next dimension up
        holders = _holders(pairs) if dim + 1 in keys else {}
    return LabeledComplex(keys, masks, verts, lambda: columns)


def _signed_faces(cells, keys, columns, dim, cell, faces):
    """The column of a cell with the given face ids one dimension down."""
    below = keys[dim - 1]
    # label monotonicity along the face relation
    for f in faces:
        if not cells[below[f]][1] <= cells[cell][1]:
            raise ParseError(
                f"label of face {below[f]} does not divide label of {cell}"
            )
    if not faces:
        raise ParseError(f"cell {cell} of dimension {dim} has no faces")
    if dim == 1:
        rows = [[1] * len(faces)]  # the augmentation
    else:
        targets = {}
        for f in faces:
            for g, _s in columns[dim - 1][f]:
                targets.setdefault(g, len(targets))
        rows = [[0] * len(faces) for _ in targets]
        for j, f in enumerate(faces):
            for g, s in columns[dim - 1][f]:
                rows[targets[g]][j] += s
    signs = _unit_kernel(rows, len(faces))
    if signs is None:
        signs = _rational_signs(cell, rows, len(faces))
    return tuple(zip(faces, signs))


def _unit_kernel(rows, ncols):
    """The +-1 kernel vector of an integer matrix, found mod a prime.

    Returns signs v (leading entry +1) when the kernel mod ORIENT_PRIME
    is one-dimensional, its normalised vector has only entries +-1, and
    their lift satisfies M v = 0 over the integers; otherwise None.
    Then the rational kernel is exactly span(v): it contains v, and its
    dimension is at most the mod-p nullity, 1, because reducing mod p
    can only lower the rank.  So v is what `_rational_signs` would give.
    """
    p = ORIENT_PRIME
    basis = nullspace_mod(rows, ncols, p)
    if len(basis) != 1 or not basis[0][0]:
        return None
    inv = pow(basis[0][0], -1, p)
    signs = []
    for v in basis[0]:
        v = v * inv % p
        if v == 1:
            signs.append(1)
        elif v == p - 1:
            signs.append(-1)
        else:
            return None
    if any(sum(a * s for a, s in zip(row, signs)) for row in rows):
        return None
    return signs


def _rational_signs(cell, rows, ncols):
    """Signs from the exact rational kernel, or a ParseError saying why not."""
    basis = nullspace_rational(rows, ncols)
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
        raise ParseError(f"cell {cell}: boundary coefficients are not units")
    return [1 if v > 0 else -1 for v in vec]


def write_complex_dump_file(X, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_complex_dump(X))


def read_complex_dump(path):
    with open(path, encoding="utf-8") as fh:
        return parse_complex_dump(fh.read())
