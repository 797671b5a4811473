"""Labeled cell complexes, and the block complexes of d-graphs.

A block cell is a tuple of disjoint increasing vertex blocks
(s_1, ..., s_k) with max(s_i) < min(s_{i+1}); geometrically it is the
product of the simplices spanned by the blocks, so its dimension is
sum(|s_i| - 1) and its faces arise by shrinking blocks componentwise.
The complex of a d-graph H has one d-block cell for every tuple whose
transversals (one vertex per block) are all edges of H; its vertices are
the edges themselves and each cell is labeled by the union of its
blocks.

`LabeledComplex` is the one complex class, and it is its own index: the
cells of each dimension in sort order (a cell's id is its position),
their labels as bitmasks, and a builder's rule for the boundary
columns.  On first use of its columns or downsets the complex checks,
once, that faces are cells with labels inside their cell's and that
the boundary squares to zero.  A downset is the same class with an id
selection, sharing the keys, masks and checked columns of the complex
it was cut from.

The builders differ only in how they find cells and columns.
`build_complex` grows the cells of a d-graph by downward closure
(`_grow`): "every transversal is an edge" survives shrinking blocks, so
block tuples grow one vertex at a time and a branch is cut at its first
non-edge.  The growth meets the cells in sort order and yields their
label masks and one-vertex-deletion columns directly; it stops with
BudgetError past CELL_LIMIT cells.  `LabeledComplex.from_cells` takes
cells, labels and a boundary rule (Taylor and independence complexes,
part complexes, hand-built ones); `covers.join` and
`dumpio.parse_complex_dump` build joins and parsed dumps.
"""

from __future__ import annotations

import copy
import functools
import itertools

from .errors import BudgetError, PreconditionError
from .homology import _assert_squares_to_zero
from .hypergraph import Hypergraph


# cells grown before build_complex refuses (also faces kept by
# staircase.restrict_to_graph); `resolve` on copath(15), 98,305
# cells, takes about 5 s and 340 MB (2 vCPUs, Python 3.11)
CELL_LIMIT = 100_000

_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
_AUG_COLUMN = ((0, 1),)  # a vertex's augmentation: once the empty face


def _members(bits):
    """Positions of the set bits of a non-negative int, ascending."""
    flags = bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)
    return list(itertools.compress(range(len(flags)), flags))


def _holders(masks):
    """For each bit set in some mask, the bitset of positions holding it.

    Writes the masks as rows of equal-width bit strings, the last mask
    on top; read top to bottom, column j is then the binary numeral of
    the positions holding bit width-1-j.
    """
    width = max(masks, default=0).bit_length()
    if not width:
        return {}
    fmt = f"0{width}b"
    columns = zip(*[format(m, fmt) for m in reversed(masks)])
    out = {}
    for j, column in enumerate(columns):
        bits = int("".join(column), 2)
        if bits:
            out[width - 1 - j] = bits
    return out


def _not_a_cell(face, cell, dim):
    return PreconditionError(
        f"face {face} of {cell} is not a cell of dimension {dim - 1}"
    )


def _column(faces, pos, cell, dim):
    """Signed faces as (face id, coefficient) pairs; `pos` ids the
    cells one dimension down."""
    acc = {}
    for face, sign in faces:
        i = pos.get(face)
        if i is None:
            raise _not_a_cell(face, cell, dim)
        acc[i] = acc.get(i, 0) + sign
    return tuple((i, c) for i, c in acc.items() if c)


def _layout(cells):
    """Keys (sorted, per dimension 0..top), label masks and ascending
    label vertices of {cell: (dim, label)}."""
    top = max((dim for dim, _label in cells.values()), default=-1)
    keys = {d: [] for d in range(top + 1)}
    for cell, (dim, _label) in cells.items():
        keys[dim].append(cell)
    for dim_cells in keys.values():
        dim_cells.sort()
    verts = sorted(frozenset().union(*(lab for _d, lab in cells.values())))
    bit = {v: 1 << k for k, v in enumerate(verts)}
    masks = {
        d: [sum(bit[v] for v in cells[c][1]) for c in dim_cells]
        for d, dim_cells in keys.items()
    }
    return keys, masks, verts


class LabeledComplex:
    """Finite labeled cell complex, stored by cell id.

      keys[d]     the d-cells in sort order; a cell's id is its position
      masks[d]    their labels as int bitmasks, bit k for vertices[k]
      vertices    the label vertices, ascending
      columns     the builder's function giving {d: the columns of the
                  d-cells, as (face id, coefficient) pairs}

    Cells, dimensions and labels are read off keys and masks, so the
    columns are made only for `boundary`, `columns` or a downset.  A
    downset is a copy with an id selection ({dim: id bitset}); it shares
    the keys, masks, checked columns and holders of the complex it was
    cut from.
    """

    def __init__(self, keys, masks, vertices, columns):
        self._keys = keys
        self._masks = masks
        self._vertices = tuple(vertices)
        self._bit = {v: 1 << k for k, v in enumerate(self._vertices)}
        self._make_columns = columns
        self._labels = {}  # one frozenset per distinct label mask
        self._base = None  # a downset's: the complex it was cut from
        self._sets = None  # a downset's selection
        self._ids = {d: range(len(cells)) for d, cells in keys.items() if cells}

    @classmethod
    def from_cells(cls, cells, boundary):
        """A complex from {cell: (dim, label)} and a boundary rule.

        Cells are sorted within each dimension; `boundary(cell)` gives
        signed faces as (cell, sign) pairs and is read when the columns
        are first needed.
        """
        keys, masks, verts = _layout(cells)

        def columns():
            out = {}
            for d in range(1, len(keys)):
                pos = {face: i for i, face in enumerate(keys[d - 1])}
                out[d] = [_column(boundary(c), pos, c, d) for c in keys[d]]
            return out

        return cls(keys, masks, verts, columns)

    @classmethod
    def from_blocks(cls, blocks_iter, label_fn=None):
        """Block cells under `block_boundary`, labeled by label_fn(blocks)
        (by default the union of the blocks)."""
        if label_fn is None:
            label_fn = itertools.chain.from_iterable
        cells = {b: (block_dim(b), frozenset(label_fn(b))) for b in blocks_iter}
        return cls.from_cells(cells, block_boundary)

    def remapped(self, mapping):
        """Push block contents *and* labels through a vertex bijection.

        Shrink faces commute with the bijection, and the sign rule only
        sees block sizes and within-block positions, so the image is
        again a valid block complex (on relabeled vertices).
        """
        return LabeledComplex.from_cells({
            tuple(tuple(sorted(mapping[v] for v in b)) for b in cell): (
                self.dim(cell), frozenset(mapping[v] for v in self.label(cell))
            )
            for cell in self.all_cells()
        }, block_boundary)

    # --- cells and labels ---------------------------------------------
    @property
    def _whole(self):
        # the complex a downset is cut from; a whole complex holds no
        # reference to itself, so it is freed without the cycle collector
        return self if self._base is None else self._base

    @property
    def pos(self):
        """cell -> (dim, id), over the complex a downset is cut from."""
        return self._whole._pos

    @functools.cached_property
    def _pos(self):
        return {
            cell: (d, i) for d, cells in self._keys.items()
            for i, cell in enumerate(cells)
        }

    def __contains__(self, cell):
        where = self.pos.get(cell)
        if where is None or self._sets is None:
            return where is not None
        return self._sets.get(where[0], 0) >> where[1] & 1 == 1

    def _where(self, cell):
        dim, i = where = self.pos[cell]
        if self._sets is not None and not self._sets.get(dim, 0) >> i & 1:
            raise KeyError(cell)
        return where

    def __len__(self):
        return sum(len(ids) for ids in self._ids.values())

    @property
    def is_empty(self):
        return not self._ids

    def dim(self, cell):
        return self._where(cell)[0]

    def label(self, cell):
        dim, i = self._where(cell)
        return self.label_of(self._masks[dim][i])

    def label_of(self, mask):
        """The label with this bitmask (one frozenset per mask)."""
        label = self._labels.get(mask)
        if label is None:
            label = self._labels[mask] = frozenset(
                self._vertices[k] for k in _members(mask)
            )
        return label

    def mask(self, vertices):
        """Bitmask of the given vertices (ones no label uses are dropped)."""
        bit = self._bit
        return sum(bit[v] for v in vertices if v in bit)

    def dims(self):
        return sorted(self._ids)

    def max_dim(self):
        return max(self._ids, default=-1)

    def ids(self, dim):
        """Index ids of this complex's cells of the given dimension."""
        return self._ids.get(dim, ())

    def cells(self, dim):
        keys = self._keys.get(dim, ())
        return tuple(keys[i] for i in self.ids(dim))

    def masks(self, dim):
        """Label bitmasks of this complex's cells of the given dimension."""
        masks = self._masks.get(dim, ())
        return [masks[i] for i in self.ids(dim)]

    def all_cells(self):
        for dim in self.dims():
            yield from self.cells(dim)

    def boundary(self, cell):
        """Signed codimension-1 faces as (cell, sign) pairs."""
        dim, i = self._where(cell)
        if not dim:
            return []
        faces = self._keys[dim - 1]
        return [(faces[f], c) for f, c in self._whole._columns[dim][i]]

    def f_vector(self):
        return tuple(len(self.ids(d)) for d in range(self.max_dim() + 1))

    def vertex_labels(self):
        """Labels of the 0-cells (the generators of the resolved ideal)."""
        return {self.label_of(m) for m in self.masks(0)}

    def lattice_masks(self):
        """The lcm lattice as label bitmasks, in `lcm_lattice` order.

        Bit k stands for the k-th smallest vertex, so the ascending bit
        list of a mask orders like the sorted elements of its label.
        """
        gens = set(self.masks(0))
        closure = set(gens)
        frontier = set(gens)
        while frontier:
            new = set()
            for a in frontier:
                for g in gens:
                    u = a | g
                    if u not in closure:
                        closure.add(u)
                        new.add(u)
            frontier = new
        keyed = sorted((m.bit_count(), _members(m), m) for m in closure)
        return [m for _size, _bits, m in keyed]

    def lcm_lattice(self):
        """All unions of vertex labels, sorted by (size, elements)."""
        return [self.label_of(m) for m in self.lattice_masks()]

    # --- checked columns and downsets ---------------------------------
    @functools.cached_property
    def _columns(self):
        return self._make_columns()

    @functools.cached_property
    def _checked(self):
        """The columns, with the augmentation in dimension 0, once checked.

        Raises PreconditionError unless every face is a cell one
        dimension down whose label lies inside its cell's label, and the
        boundary squares to zero (augmentation included).  Label
        monotonicity makes every downset closed under faces, and the
        boundary of a subcomplex is the restriction of the parent's, so
        neither check is needed again for a downset.
        """
        keys, masks, columns = self._keys, self._masks, self._columns
        for d, cols in columns.items():
            below, count = masks[d - 1], len(masks[d - 1])
            for i, (col, mask) in enumerate(zip(cols, masks[d])):
                for face, _coeff in col:
                    if not 0 <= face < count:
                        raise _not_a_cell(f"id {face}", keys[d][i], d)
                    if below[face] & ~mask:
                        raise PreconditionError(
                            f"label of face {keys[d - 1][face]} is not "
                            f"contained in the label of {keys[d][i]}"
                        )
        _assert_squares_to_zero(keys, columns)
        return {0: [_AUG_COLUMN] * len(keys.get(0, ())), **columns}

    def columns(self, dim):
        """Checked boundary columns of the whole complex's dim-cells, by id.

        A column is a tuple of (face id, coefficient) pairs.  In
        dimension 0 it is the augmentation: every vertex goes to row 0,
        the empty face.
        """
        return self._whole._checked[dim]

    @functools.cached_property
    def _vertex_holders(self):
        # {dim: for each vertex bit k, the id bitset of the cells whose
        # label has bit k}
        width = len(self._vertices)
        out = {}
        for d, dim_masks in self._masks.items():
            holders = _holders(dim_masks)
            out[d] = [holders.get(k, 0) for k in range(width)]
        return out

    def downset_leq(self, alpha):
        """Subcomplex of cells whose label is contained in alpha."""
        return self.downset(self.mask(alpha))

    def downset_lt(self, alpha):
        """Subcomplex of cells whose label is strictly below alpha."""
        alpha = frozenset(alpha)
        # no label equals an alpha holding a vertex that no label has
        strict = all(v in self._bit for v in alpha)
        return self.downset(self.mask(alpha), strict)

    def downset(self, mask, strict=False):
        """Cells whose label lies inside (or strictly below) a label mask.

        A label lies inside the mask when it has no bit outside it; all
        cells of a dimension are tested at once by removing the holders
        of every vertex outside.  With strict, a label inside the mask
        that also holds each of its bits equals it and is dropped.
        """
        whole = self._whole
        whole._checked  # raises unless the whole complex checks out
        inside = _members(mask)
        outside = _members((1 << len(self._vertices)) - 1 & ~mask)
        sets = {}
        for dim, holders in whole._vertex_holders.items():
            keep = (1 << len(self._keys[dim])) - 1
            if self._sets is not None:
                keep = self._sets.get(dim, 0)
            for k in outside:
                keep &= ~holders[k]
            if strict:
                same = keep
                for k in inside:
                    same &= holders[k]
                keep &= ~same
            if keep:
                sets[dim] = keep
        view = copy.copy(whole)
        view._base = whole
        view._sets = sets
        view._ids = {d: _members(bits) for d, bits in sets.items()}
        return view


def block_dim(blocks):
    return sum(len(b) - 1 for b in blocks)


def block_boundary(blocks):
    """Signed faces of a product-of-simplices cell.

    Deleting vertex v from block i carries the sign
    (-1)^(sum of earlier block dimensions) * (-1)^(index of v in its
    block); blocks of size one cannot shrink.  Composing twice cancels,
    which the complex checks on first use of its columns.
    """
    out = []
    offset = 0
    for i, block in enumerate(blocks):
        if len(block) >= 2:
            base = -1 if offset & 1 else 1
            for pos, v in enumerate(block):
                face = blocks[:i] + (block[:pos] + block[pos + 1:],) + blocks[i + 1:]
                sign = base if pos % 2 == 0 else -base
                out.append((face, sign))
        offset += len(block) - 1
    return out


def _grow(H, bit, stride):
    """Block cells of H grown by downward closure, in preorder.

    Yields (cell, dim, label mask, code) for every block tuple whose
    transversals are all edges.  The first block grows one vertex at a
    time; the blocks after it form a cell of the (d-1)-graph L(B) =
    intersection over x in B of {e[1:] : e in H, e[0] = x}, whose
    tuples all lie above max B.  A branch is cut as soon as L(B) is
    empty, and that graph's cells are grown the same way, down to a
    last block that may be any nonempty set of vertices of a 1-graph.
    Visiting a block's continuations before its one-vertex extensions
    meets the tuples in lexicographic order, which is the complex's
    sort order within every dimension.

    `code` packs block i's vertex mask at bit offset i * stride, so
    deleting vertex v from block i is `code ^ bit[v] << i * stride`.
    Raises BudgetError once more than CELL_LIMIT cells are grown.
    """
    d = H.d
    count = 0
    subsets = {}  # vertices of a last block -> _lex_subsets of them
    stack = []

    def open_block(prefix, pmask, pcode, pdim, tuples):
        # push the one-vertex starts of the next block, smallest on top
        links = {}
        for t in tuples:
            links.setdefault(t[0], set()).add(t[1:])
        starts = sorted(links)
        for at in range(len(starts) - 1, -1, -1):
            x = starts[at]
            stack.append((
                prefix, pmask, pcode, pdim, (x,), bit[x], starts, at, links,
                links[x],
            ))

    def last_blocks(tuples):
        nonlocal count
        verts = tuple(sorted(t[0] for t in tuples))
        count += (1 << len(verts)) - 1
        if count > CELL_LIMIT:
            raise BudgetError(
                f"the block complex has more than {CELL_LIMIT} cells"
            )
        subs = subsets.get(verts)
        if subs is None:
            subs = subsets[verts] = _lex_subsets(verts, bit)
        return subs

    if d == 1:
        for block, mask, dim in last_blocks(H.edges):
            yield (block,), dim, mask, mask
        return
    open_block((), 0, 0, 0, H.edges)
    shift = (d - 1) * stride
    while stack:
        (prefix, pmask, pcode, pdim, block, bmask, starts, at, links,
         rest) = stack.pop()
        for nxt in range(len(starts) - 1, at, -1):
            y = starts[nxt]
            grown = rest & links[y]
            if grown:
                stack.append((
                    prefix, pmask, pcode, pdim, block + (y,),
                    bmask | bit[y], starts, nxt, links, grown,
                ))
        prefix += (block,)
        pmask |= bmask
        pcode |= bmask << (len(prefix) - 1) * stride
        pdim += len(block) - 1
        if len(prefix) < d - 1:
            open_block(prefix, pmask, pcode, pdim, rest)
            continue
        for last, mask, dim in last_blocks(rest):
            yield (prefix + (last,), pdim + dim, pmask | mask,
                   pcode | mask << shift)


def _lex_subsets(verts, bit):
    """(subset, mask, size - 1) for the nonempty subsets of sorted verts,
    in lexicographic order."""
    out = []
    stack = [((v,), bit[v], at) for at, v in enumerate(verts)][::-1]
    while stack:
        block, mask, at = stack.pop()
        out.append((block, mask, len(block) - 1))
        for nxt in range(len(verts) - 1, at, -1):
            v = verts[nxt]
            stack.append((block + (v,), mask | bit[v], nxt))
    return out


def enumerate_block_cells(H):
    """Block tuples of H (every transversal an edge), grown in preorder."""
    verts = H.support()
    bit = {v: 1 << k for k, v in enumerate(verts)}
    return [cell for cell, *_ in _grow(H, bit, len(verts))]


def build_complex(H):
    """The labeled complex of a d-graph.

    Cells are block tuples whose transversals are all edges; the label
    is the union of blocks.  The cells are grown by downward closure
    (`_grow`), already in sort order, and filed per dimension with their
    label masks and codes; the columns come from the codes by
    one-vertex deletion.  Shrinking blocks only removes transversals,
    so the result is closed under faces.
    """
    verts = H.support()
    stride = len(verts)
    bit = {v: 1 << k for k, v in enumerate(verts)}
    keys, masks, codes, ids = {}, {}, {}, {}
    for cell, dim, mask, code in _grow(H, bit, stride):
        dim_keys = keys.get(dim)
        if dim_keys is None:
            dim_keys = keys[dim] = []
            masks[dim], codes[dim] = [], []
        ids[code] = len(dim_keys)
        dim_keys.append(cell)
        masks[dim].append(mask)
        codes[dim].append(code)

    def columns():
        out = {}
        for dim in range(1, len(keys)):
            cols = out[dim] = []
            for cell, code in zip(keys[dim], codes[dim]):
                col = []
                shift = offset = 0
                for j, block in enumerate(cell):
                    if len(block) > 1:
                        sign = -1 if offset & 1 else 1
                        for v in block:
                            face = ids.get(code ^ bit[v] << shift)
                            if face is None:
                                face = tuple(u for u in block if u != v)
                                raise _not_a_cell(
                                    cell[:j] + (face,) + cell[j + 1:], cell, dim
                                )
                            col.append((face, sign))
                            sign = -sign
                        offset += len(block) - 1
                    shift += stride
                cols.append(tuple(col))
        return out

    return LabeledComplex(keys, masks, verts, columns)


def fold(H, i, j):
    """Remove the cone over the j-layer, valid when it nests in the i-layer.

    Requires i < j and every edge of the j-layer to be an edge of the
    i-layer; then dropping the edges {j} u e (e in the j-layer) does not
    change the homotopy type of the complex.
    """
    if i not in H.vertices or j not in H.vertices:
        raise ValueError(f"fold vertices must lie in {H.vertices}")
    if not i < j:
        raise PreconditionError(f"fold needs i < j, got ({i}, {j})")
    layer_j = H.layer(j)
    if not layer_j.edges <= H.layer(i).edges:
        raise PreconditionError(
            f"the {j}-layer does not nest inside the {i}-layer"
        )
    removed = {tuple(sorted((j,) + e)) for e in layer_j.edges}
    return Hypergraph(H.d, H.vertices, H.edges - removed)


def contractibility_certificate(H):
    """Fold sequence showing the complex of a cointerval graph is a point.

    Returns a list of steps, each ('fold', i, j) or ('descend', v): folds
    shrink the graph at fixed uniformity until only the smallest support
    vertex v carries a layer, then the complex equals a simplex joined
    with the layer complex and the certificate descends into the layer.
    Replaying the steps (each fold precondition rechecked) and ending at
    uniformity one proves contractibility with no homology computation.
    """
    if not H.edges:
        raise PreconditionError("the empty complex has no certificate")
    if not H.is_cointerval():
        raise PreconditionError("certificate requires a cointerval graph")
    steps = []
    cur = H
    while cur.d > 1:
        while True:
            busy = [v for v in cur.support() if cur.layer(v).edges]
            if len(busy) <= 1:
                break
            i, j = busy[0], busy[-1]
            steps.append(("fold", i, j))
            cur = fold(cur, i, j)
        v = min(cur.support())
        steps.append(("descend", v))
        cur = cur.layer(v)
    return steps
