r"""Complex dump format: serialize labeled complexes, re-verify from text.

One cell per line, `dim | s_1 ; s_2 ; ... ; s_k | label`, sorted by
(dim, blocks); an empty block slot (a join cell whose factor vanished)
is written `-`.  Parsing rebuilds the face poset by componentwise block
containment and recovers boundary orientations degree by degree: the
signed boundary of a cell spans the one-dimensional kernel of its
faces' boundary matrix, and any deviation (wrong kernel dimension,
non-unit entries) means the text is not the face poset of a polyhedral
complex and raises ParseError.  The parsed object plugs into the same
verification machinery as internally built complexes.

The reader (`_read`) makes one pass over the lines (`hypergraph._lines`:
breaks at `\n`, `\r\n` and `\r` only), filing each as a (blocks, label)
row of its dimension and parsing each distinct block slot text once;
it sorts each dimension once and turns labels into bitmasks once every
vertex is known.

A dump whose every cell is a product of simplices (no empty block,
dimension `block_dim`) is filed as the builders file their complexes
(`complexes._filed`): one bit per distinct block value, so a deletion
is one xor and one lookup, signed as `block_boundary` signs it; the
complex's one check (every deletion a cell labeled inside its cell, and
the boundary squaring to zero) says whether the deletions are its
faces.  Such a dump parses to the columns of the complex that wrote it.
Any other dump takes the general route (`_holder_columns`).  Faces are
found with one holder bitset per (block slot, value) pair and
dimension, not by testing every pair of cells.  Signs are carried from
face to face across ridges that lie in exactly two faces, as in any
polytope, and checked over the integers (`_propagated_signs`), so the
first face of each cell is +1.  Only a cell they leave open goes to
the exact rational kernel (`_kernels.nullspace_rational`, integer
elimination on the faces' own sparse columns), to find its signs or
name the rejection.  The two routes' columns differ by a +-1 change of
basis, which no rank, check or printed line sees.  More than
`complexes.CELL_LIMIT` cells, or a dimension that needs that many, and
more than `hypergraph.VERTEX_LIMIT` distinct label vertices or block
values, raise BudgetError while the lines are read: a dump written from
a complex built from a hypergraph has its label vertices and block
values among the hypergraph's vertices (or, in a Taylor dump, its at
most `resolution.TAYLOR_EDGE_LIMIT` edge indices).  So do cells x block
slots x distinct block values past the product of the two limits: the
bits that either route's codes or (slot, value) pairs hold.
"""

from __future__ import annotations

from itertools import chain
from operator import lshift, lt

from . import complexes, hypergraph
from ._kernels import _members, nullspace_rational
from .complexes import _AUG_COLUMN, LabeledComplex, _filed, _holders
from .errors import BudgetError, ParseError, PreconditionError
from .hypergraph import _SPACE, _lines, _plain, read_text


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
    return _orient(*_read(text))


def _read(text):
    """The dump's cells as keys, label masks and label vertices (the
    fields of `LabeledComplex`), checked line by line.

    One pass files each line as a (blocks, label) row of its dimension;
    each dimension is then sorted once, and labels become masks once
    every vertex is known.  The token rule (`_plain`) is tested once per
    line, and per field only to name the field a line breaks it in.
    More than `hypergraph.VERTEX_LIMIT` distinct label vertices, or
    distinct block values, raise BudgetError as the lines are read,
    before any mask is made, and so do cells x block slots x distinct
    block values past `complexes.CELL_LIMIT` times that limit.
    """
    rows = {}  # dim -> [(blocks, label)]
    seen = set()
    vertices = set()
    values = set()  # the values of the distinct blocks
    limit = hypergraph.VERTEX_LIMIT
    width = complexes.CELL_LIMIT * limit
    arity = None
    parsed = {}  # slot text -> its block; dumps repeat their slots
    for lineno, line in _lines(text):
        parts = line.split("|")
        if len(parts) != 3:
            raise ParseError("expected `dim | blocks | label`", lineno)
        dtxt, btxt, ltxt = parts
        plain = _plain(line)
        try:
            if not (plain or _plain(dtxt)):
                raise ValueError
            (dim,) = map(int, dtxt.split())
        except ValueError:
            raise ParseError(
                f"bad dimension {dtxt.strip(_SPACE)!r}", lineno
            ) from None
        blocks = []
        for slot in btxt.split(";"):
            block = parsed.get(slot)
            if block is None:
                tokens = slot.split()
                try:
                    if not (plain or _plain(slot)):
                        raise ValueError
                    block = () if tokens == ["-"] else tuple(map(int, tokens))
                except ValueError:
                    raise ParseError(
                        f"bad block {slot.strip(_SPACE)!r}", lineno
                    ) from None
                if len(block) > 1 and not all(map(lt, block, block[1:])):
                    raise ParseError(
                        f"block {block} is not strictly increasing", lineno
                    )
                parsed[slot] = block
                values.update(block)
            blocks.append(block)
        blocks = tuple(blocks)
        if arity is None:
            arity = len(blocks)
        elif len(blocks) != arity:
            raise ParseError(
                f"cell has {len(blocks)} blocks, expected {arity}", lineno
            )
        try:
            if not (plain or _plain(ltxt)):
                raise ValueError
            label = [*map(int, ltxt.split())]
        except ValueError:
            raise ParseError(
                f"bad label {ltxt.strip(_SPACE)!r}", lineno
            ) from None
        if not label:
            raise ParseError("empty label", lineno)
        count = len(seen)
        seen.add(blocks)  # one hash of the key; a duplicate adds nothing
        if len(seen) == count:
            raise ParseError(f"duplicate cell {blocks}", lineno)
        if dim < 0:
            raise ParseError(f"negative dimension {dim}", lineno)
        # a d-cell has faces in every dimension below it, so d + 1 cells
        if dim >= complexes.CELL_LIMIT:
            raise BudgetError(
                f"a cell of dimension {dim} needs more than "
                f"{complexes.CELL_LIMIT} cells"
            )
        if len(seen) > complexes.CELL_LIMIT:
            raise BudgetError(
                f"the dump has more than {complexes.CELL_LIMIT} cells"
            )
        vertices.update(label)
        if len(vertices) > limit:
            raise BudgetError(
                f"the dump has more than {limit} distinct label vertices"
            )
        if len(values) > limit:
            raise BudgetError(
                f"the dump has more than {limit} distinct block values"
            )
        # the bits of the codes or (slot, value) pairs an orientation holds
        if len(seen) * arity * len(values) > width:
            raise BudgetError(
                f"the dump's cells x block slots x distinct block values "
                f"come to more than {width}"
            )
        dim_rows = rows.get(dim)
        if dim_rows is None:
            dim_rows = rows[dim] = []
        dim_rows.append((blocks, label))
    vertices = sorted(vertices)
    bit = dict(zip(vertices, (1 << k for k in range(len(vertices)))))
    get = bit.__getitem__
    # the dimensions no line declares share one empty list, so a lone
    # cell of dimension up to CELL_LIMIT costs no list per dimension;
    # the cells above such a gap have no faces, and `_orient` refuses
    # the dump before any list is filed in a complex
    empty = []
    keys = dict.fromkeys(range(max(rows, default=-1) + 1), empty)
    masks = dict.fromkeys(keys, empty)
    for dim, dim_rows in rows.items():
        dim_rows.sort()  # by blocks, which no two rows share
        keys[dim] = [blocks for blocks, _label in dim_rows]
        masks[dim] = dim_masks = []
        for _blocks, label in dim_rows:
            mask = sum(map(get, label))
            # carries mean a repeated vertex
            if mask.bit_count() != len(label):
                mask = sum(map(get, set(label)))
            dim_masks.append(mask)
    return keys, masks, vertices


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


def _orient(keys, masks, verts):
    """The complex of the dump's cells.

    A dump of products of simplices (no empty dimension or block, every
    cell of dimension `block_dim`) is filed as the builders file theirs
    (`complexes._filed`), one bit per distinct block value.  If its one
    check passes, every deletion is a cell labeled inside its cell, and
    the deletions are the faces.  Any other dump takes the holder route
    (`_holder_columns`).
    """
    cells = list(chain.from_iterable(keys.values()))
    arity = len(cells[0]) if cells else 0
    if all(keys.values()) and all(
        all(cell) and sum(map(len, cell)) == dim + arity
        for dim, dim_keys in keys.items() for cell in dim_keys
    ):
        blocks = set(chain.from_iterable(cells))
        values = sorted(set(chain.from_iterable(blocks)))
        bit = dict(zip(values, (1 << k for k in range(len(values)))))
        code = {block: sum(map(bit.get, block)) for block in blocks}
        shifts = [i * len(values) for i in range(arity)]
        X = _filed((
            (cell, dim, mask, sum(map(lshift, map(code.get, cell), shifts)))
            for dim, dim_keys in keys.items()
            for cell, mask in zip(dim_keys, masks[dim])
        ), verts, bit, len(values))
        try:
            X._checked  # raises unless every deletion is a face
        except PreconditionError:
            pass
        else:
            return X
    columns = _holder_columns(keys, masks)
    return LabeledComplex(keys, masks, verts, lambda: columns)


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
        if not dim_keys:  # the first cells above it have no faces
            holders = {}
            continue
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
