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

A dump whose every cell is a product of simplices (no empty block,
dimension `block_dim`) with all its one-vertex deletions present, each
labeled inside it, is oriented by the block rule (`_block_columns`):
one lookup per deletion, signed by `block_boundary` and flipped so that
each cell's first face is +1, which is the column the kernel gives.
Any other dump takes the general route (`_holder_columns`).  Faces are
found with one holder bitset per (block slot, value) pair and
dimension, not by testing every pair of cells.  Signs are carried from
face to face across ridges that lie in exactly two faces, as in any
polytope, and checked over the integers (`_propagated_signs`).  Only a
cell they leave open goes to the exact rational kernel
(`_kernels.nullspace_rational`, integer elimination on the faces' own
sparse columns), to find its signs or name the rejection.  More than
`complexes.CELL_LIMIT` cells, or a dimension that needs that many,
raise BudgetError while the lines are read.
"""

from __future__ import annotations

from . import complexes
from ._kernels import _members, nullspace_rational
from .complexes import (
    _AUG_COLUMN,
    LabeledComplex,
    _holders,
    _layout,
    block_boundary,
    block_dim,
)
from .errors import BudgetError, ParseError
from .hypergraph import _int_tokens, read_text


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
            (dim,) = _int_tokens(parts[0])
        except ValueError:
            raise ParseError(f"bad dimension {parts[0]!r}", lineno) from None
        blocks = []
        for btxt in parts[1].split(";"):
            btxt = btxt.strip()
            if btxt == "-" or not btxt:
                blocks.append(())
                continue
            try:
                block = tuple(_int_tokens(btxt))
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
            label = frozenset(_int_tokens(parts[2]))
        except ValueError:
            raise ParseError(f"bad label {parts[2]!r}", lineno) from None
        if not label:
            raise ParseError("empty label", lineno)
        if blocks in cells:
            raise ParseError(f"duplicate cell {blocks}", lineno)
        if dim < 0:
            raise ParseError(f"negative dimension {dim}", lineno)
        # a d-cell has faces in every dimension below it, so d + 1 cells
        if dim >= complexes.CELL_LIMIT:
            raise BudgetError(
                f"a cell of dimension {dim} needs more than "
                f"{complexes.CELL_LIMIT} cells"
            )
        cells[blocks] = (dim, label)
        if len(cells) > complexes.CELL_LIMIT:
            raise BudgetError(
                f"the dump has more than {complexes.CELL_LIMIT} cells"
            )
    return cells


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
    """The complex of the dump's cells, its columns by the block rule
    when every cell is a product of simplices (`_block_columns`) and by
    holder search and sign propagation otherwise (`_holder_columns`).
    Both give the same columns wherever the block rule applies."""
    keys, masks, verts = _layout(cells)
    columns = _block_columns(keys, masks)
    if columns is None:
        columns = _holder_columns(keys, masks)
    return LabeledComplex(keys, masks, verts, lambda: columns)


def _block_columns(keys, masks):
    """Columns by one-vertex deletion, or None unless every cell allows it.

    The rule applies when every cell has no empty block and dimension
    `block_dim`, and every deletion `block_boundary` names is a cell
    whose label lies inside the cell's.  A cell's faces one dimension
    down by componentwise containment are then exactly its deletions,
    the faces the holder search finds.

    A cell's flip (+-1) is its parsed orientation over
    `block_boundary`'s.  Face f enters with its `block_boundary` sign
    times f's flip: the boundary of the product of simplices, the one
    kernel vector of its faces' columns up to scale, in parsed
    coordinates.  The cell's flip then makes its first face by id +1,
    as the propagation and the rational kernel do, so the columns are
    theirs entry for entry.
    """
    ids = {}
    for dim, dim_keys in keys.items():
        for i, cell in enumerate(dim_keys):
            if block_dim(cell) != dim or not all(cell):
                return None
            ids[cell] = i
    flips = [1] * len(keys.get(0, ()))  # a vertex's augmentation is +1
    columns = {}
    for dim in range(1, len(keys)):
        below = masks[dim - 1]
        cols = columns[dim] = []
        cell_flips = []
        for cell, mask in zip(keys[dim], masks[dim]):
            outside = ~mask
            col = []
            for face, sign in block_boundary(cell):
                f = ids.get(face)
                if f is None or below[f] & outside:
                    return None
                col.append((f, sign * flips[f]))
            col.sort()
            flip = col[0][1]
            cell_flips.append(flip)
            cols.append(
                tuple(col) if flip == 1 else tuple((f, -s) for f, s in col)
            )
        flips = cell_flips
    return columns


def _holder_columns(keys, masks):
    """Signed boundaries from the face poset, degree by degree.

    The faces of a cell are the cells one dimension down whose every
    block slot lies inside the cell's (componentwise containment): all
    of them, minus the holders of each (slot, value) pair the cell does
    not have.  Each cell's signs are the kernel of its faces' columns
    (`_signed_faces`).
    """
    bits, columns, holders = {}, {}, {}
    for dim, dim_keys in keys.items():
        pairs = _pair_bits(dim_keys, bits)
        if dim:
            every = (1 << len(keys[dim - 1])) - 1
            present = sum(1 << k for k in holders)
            columns[dim] = cols = []
            for i, mask in enumerate(pairs):
                drop = 0
                for k in _members(present & ~mask):
                    drop |= holders[k]
                cols.append(_signed_faces(
                    keys, masks, columns, dim, i, _members(every & ~drop)
                ))
        # holders are only needed for the next dimension up
        holders = _holders(pairs) if dim + 1 in keys else {}
    return columns


def _signed_faces(keys, masks, columns, dim, i, faces):
    """The column of d-cell number i with the given face ids below it."""
    cell = keys[dim][i]
    # label monotonicity along the face relation
    outside = ~masks[dim][i]
    for f in faces:
        if masks[dim - 1][f] & outside:
            raise ParseError(
                f"label of face {keys[dim - 1][f]} does not divide "
                f"label of {cell}"
            )
    if not faces:
        raise ParseError(f"cell {cell} of dimension {dim} has no faces")
    # the faces' own columns; a face meets a ridge at most once, so every
    # entry is +-1
    if dim == 1:
        cols = [_AUG_COLUMN] * len(faces)
    else:
        cols = [columns[dim - 1][f] for f in faces]
    signs = _propagated_signs(cols)
    if signs is None:
        signs = _rational_signs(cell, cols)
    return tuple(zip(faces, signs))


def _propagated_signs(cols):
    """The +-1 kernel vector of sparse +-1 columns, by sign propagation.

    The columns' rows, one per ridge, are gathered first.  A row with
    exactly two entries a, b (a ridge in exactly two faces) forces
    v_b = -a b v_a on every kernel vector.  Starting from v_0 = +1, walk
    those rows from column to column; if the walk reaches every
    column, each kernel vector is fixed by its first entry, so the
    kernel has dimension at most 1 over any field.  If the walked v also
    satisfies M v = 0 over the integers (two-entry rows are checked as
    the walk crosses them), the kernel is exactly span(v), and v is what
    `_rational_signs` would give.  Otherwise returns None.
    """
    ncols = len(cols)
    by_ridge = {}
    for j, col in enumerate(cols):
        for g, s in col:
            by_ridge.setdefault(g, []).append((j, s))
    links = [[] for _ in range(ncols)]
    others = []
    for row in by_ridge.values():
        if len(row) == 2:
            (a, s), (b, t) = row
            links[a].append((b, -s * t))
            links[b].append((a, -s * t))
        else:
            others.append(row)
    signs = [0] * ncols
    signs[0] = 1
    stack = [0]
    while stack:
        a = stack.pop()
        for b, rel in links[a]:
            if not signs[b]:
                signs[b] = rel * signs[a]
                stack.append(b)
            elif signs[b] != rel * signs[a]:
                return None
    if not all(signs):
        return None
    for row in others:
        if sum(s * signs[j] for j, s in row):
            return None
    return signs


def _rational_signs(cell, cols):
    """Signs from the exact rational kernel, or a ParseError saying why not."""
    basis = nullspace_rational(cols)
    if len(basis) != 1:
        raise ParseError(
            f"cell {cell}: boundary kernel has dimension "
            f"{len(basis)}, not a polyhedral cell"
        )
    vec = basis[0]
    lead = vec[0]
    if any(v != lead and v != -lead for v in vec):
        raise ParseError(f"cell {cell}: boundary coefficients are not units")
    return [1 if v == lead else -1 for v in vec]


def read_complex_dump(path):
    return parse_complex_dump(read_text(path))
