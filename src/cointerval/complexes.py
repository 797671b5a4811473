"""Labeled polyhedral complexes built from block tuples.

A block cell is a tuple of disjoint increasing vertex blocks
(s_1, ..., s_k) with max(s_i) < min(s_{i+1}); geometrically it is the
product of the simplices spanned by the blocks, so its dimension is
sum(|s_i| - 1) and its faces arise by shrinking blocks componentwise.
The complex of a d-graph H has one d-block cell for every tuple whose
transversals (one vertex per block) are all edges of H; its vertices are
the edges themselves and each cell is labeled by the union of its
blocks.

`LabeledComplex` is the shared container: concrete subclasses only
provide the boundary rule and cell sort keys, everything label-driven
(downsets, the lcm lattice, f-vectors) lives here.  Each complex builds
one `CellIndex` on first use -- integer cell ids, labels as bitmasks,
boundaries as sparse signed columns -- and checks it once; a downset is
a `Downset` view selecting ids from that index, never a rebuilt complex.

`build_complex` grows the cells of a d-graph by downward closure
(`_grow`): "every transversal is an edge" survives shrinking blocks, so
block tuples grow one vertex at a time and a branch is cut at its first
non-edge.  The growth meets the cells in sort order and hands the index
its keys, label masks and one-vertex-deletion columns directly.  Every
other complex (dumps, joins, Taylor and independence complexes,
hand-built ones) is indexed from its cells and `boundary()` by
`CellIndex.of`; both routes go through the same checks.  Growth stops
with BudgetError past CELL_LIMIT cells.
"""

from __future__ import annotations

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


class CellIndex:
    """Integer ids, label bitmasks and sparse boundary columns of a complex.

      keys[d]     the d-cells in the complex's sort order; a cell's id is
                  its position here
      pos         cell -> id (built on first use)
      masks[d]    the label of each d-cell as an int bitmask, bit k
                  standing for the k-th smallest vertex of `vertices`
      holders[d]  for each vertex bit k, the set of d-cells whose label
                  has bit k, as an int bitset over ids
      columns[d]  for d >= 1, the boundary of each d-cell as a tuple of
                  (face id, coefficient) pairs, zero coefficients dropped

    A builder hands over keys, masks, the sorted vertices and columns;
    `of(X)` is the generic builder, which reads them off a complex's
    cells, labels and `boundary()`.  Whatever the builder, construction
    checks the whole complex once and raises PreconditionError unless
    every face is a cell one dimension down whose label lies inside its
    cell's label, and the boundary squares to zero (augmentation
    included).  Label monotonicity makes every downset closed under
    faces, and the boundary of a subcomplex is the restriction of the
    parent's, so neither check is needed again for a downset.
    """

    def __init__(self, keys, masks, vertices, columns):
        self.keys = keys
        self.masks = masks
        self.vertices = frozenset(vertices)
        self._bit = {v: 1 << k for k, v in enumerate(vertices)}
        self.holders = {}
        for d, dim_masks in masks.items():
            holders = _holders(dim_masks)
            self.holders[d] = [holders.get(k, 0) for k in range(len(vertices))]
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
        self.columns = columns
        _assert_squares_to_zero(self)

    @classmethod
    def of(cls, X):
        """Index a complex from its cells, labels and `boundary()`."""
        top = X.max_dim()
        keys = {d: X.cells(d) for d in range(top + 1)}
        labels = {d: [X.label(c) for c in cells] for d, cells in keys.items()}
        verts = sorted(frozenset().union(*itertools.chain(*labels.values())))
        bit = {v: 1 << k for k, v in enumerate(verts)}
        masks = {
            d: [sum(bit[v] for v in lab) for lab in labs]
            for d, labs in labels.items()
        }
        pos = {cell: i for cells in keys.values() for i, cell in enumerate(cells)}
        columns = {
            d: [_column(X, d, cell, pos) for cell in keys[d]]
            for d in range(1, top + 1)
        }
        return cls(keys, masks, verts, columns)

    @functools.cached_property
    def pos(self):
        """cell -> id, over every dimension."""
        return {
            cell: i for cells in self.keys.values()
            for i, cell in enumerate(cells)
        }

    def mask(self, vertices):
        """Bitmask of the given vertices (ones no label uses are dropped)."""
        bit = self._bit
        return sum(bit[v] for v in vertices if v in bit)

    def below(self, alpha, strict):
        """Bitsets of the cells whose label is inside (or below) alpha.

        A label lies inside alpha when it has no vertex outside it,
        lab & ~mask(alpha) == 0; all cells of a dimension are tested at
        once by removing the holders of every vertex outside alpha.  A
        label inside alpha equals it when it also holds every vertex of
        alpha.  Returns {dim: bitset} for the dimensions with such cells.
        """
        mask = self.mask(alpha)
        inside = [k for k in range(len(self._bit)) if mask >> k & 1]
        outside = [k for k in range(len(self._bit)) if not mask >> k & 1]
        exact = strict and alpha <= self.vertices
        sets = {}
        for dim, holders in self.holders.items():
            keep = (1 << len(self.keys[dim])) - 1
            for k in outside:
                keep &= ~holders[k]
            if exact:
                same = keep
                for k in inside:
                    same &= holders[k]
                keep &= ~same
            if keep:
                sets[dim] = keep
        return sets


def _not_a_cell(face, cell, dim):
    return PreconditionError(
        f"face {face} of {cell} is not a cell of dimension {dim - 1}"
    )


def _column(X, dim, cell, pos):
    """The boundary of a cell as (face id, coefficient) pairs."""
    acc = {}
    for face, sign in X.boundary(cell):
        i = pos.get(face)
        if i is None or X.dim(face) != dim - 1:
            raise _not_a_cell(face, cell, dim)
        acc[i] = acc.get(i, 0) + sign
    return tuple((i, c) for i, c in acc.items() if c)


class LabeledComplex:
    """Finite labeled complex: cells with dimensions and label sets."""

    def __init__(self, cells, by_dim=None):
        # cells: dict cell_key -> (dim, frozenset label); by_dim, if
        # given: dim -> the cells of that dimension, already sorted, and
        # then both are a builder's own, kept without copying
        if by_dim is None:
            cells = dict(cells)
            by_dim = {}
            for key, (dim, _label) in cells.items():
                by_dim.setdefault(dim, []).append(key)
            for dim in by_dim:
                by_dim[dim].sort(key=self.sort_key)
        self._cells = cells
        self._by_dim = by_dim
        self._ix = None

    # --- subclass interface -------------------------------------------
    def boundary(self, cell):
        """Signed codimension-1 faces as (cell, sign) pairs."""
        raise NotImplementedError

    def sort_key(self, cell):
        return cell

    # --- generic queries ----------------------------------------------
    def __contains__(self, cell):
        return cell in self._cells

    def __len__(self):
        return len(self._cells)

    @property
    def is_empty(self):
        return len(self) == 0

    def dim(self, cell):
        return self._cells[cell][0]

    def label(self, cell):
        return self._cells[cell][1]

    def dims(self):
        return sorted(self._by_dim)

    def max_dim(self):
        return max(self._by_dim) if self._by_dim else -1

    def cells(self, dim):
        return tuple(self._by_dim.get(dim, ()))

    def all_cells(self):
        for dim in self.dims():
            yield from self.cells(dim)

    def f_vector(self):
        if self.is_empty:
            return ()
        return tuple(len(self.ids(d)) for d in range(self.max_dim() + 1))

    def vertex_labels(self):
        """Labels of the 0-cells (the generators of the resolved ideal)."""
        return {self.label(c) for c in self.cells(0)}

    def lcm_lattice(self):
        """All unions of vertex labels, sorted by (size, elements).

        Closed on int bitmasks, bit k standing for the k-th smallest
        vertex, so the ascending bit list of a mask orders like the
        sorted elements of its label.
        """
        labels = self.vertex_labels()
        order = sorted(frozenset().union(*labels))
        bit = {v: 1 << k for k, v in enumerate(order)}
        gens = {sum(bit[v] for v in lab) for lab in labels}
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
        keyed = sorted((len(b), b) for b in map(_members, closure))
        return [frozenset(order[k] for k in b) for _n, b in keyed]

    # --- index and downsets -------------------------------------------
    def index(self):
        """The complex's CellIndex, built and checked on first use."""
        if self._ix is None:
            self._ix = self._make_index()
        return self._ix

    def _make_index(self):
        return CellIndex.of(self)

    def ids(self, dim):
        """Index ids of this complex's cells of the given dimension."""
        return range(len(self._by_dim.get(dim, ())))

    def downset_leq(self, alpha):
        """Subcomplex of cells whose label is contained in alpha."""
        return self._downset(frozenset(alpha), strict=False)

    def downset_lt(self, alpha):
        """Subcomplex of cells whose label is strictly below alpha."""
        return self._downset(frozenset(alpha), strict=True)

    def _downset(self, alpha, strict):
        return Downset(self, self.index().below(alpha, strict))


class Downset(LabeledComplex):
    """Cells of a complex selected by label: a view on its index.

    Stores only the selected ids per dimension (as a bitset and as an
    ascending list); cells, labels, boundaries and boundary columns are
    the parent's, shared and never copied.  The selection is closed
    under faces because the parent's index checked label monotonicity.
    """

    def __init__(self, parent, sets):
        self._parent = parent
        self._sets = sets
        self._ids = {d: _members(bits) for d, bits in sets.items()}
        self._ix = parent.index()
        self._size = sum(len(v) for v in self._ids.values())

    def boundary(self, cell):
        return self._parent.boundary(cell)

    def sort_key(self, cell):
        return self._parent.sort_key(cell)

    def __contains__(self, cell):
        i = self._ix.pos.get(cell)
        if i is None:
            return False
        return self._sets.get(self._parent.dim(cell), 0) >> i & 1 == 1

    def __len__(self):
        return self._size

    def dim(self, cell):
        if cell not in self:
            raise KeyError(cell)
        return self._parent.dim(cell)

    def label(self, cell):
        if cell not in self:
            raise KeyError(cell)
        return self._parent.label(cell)

    def dims(self):
        return sorted(self._ids)

    def max_dim(self):
        return max(self._ids) if self._ids else -1

    def cells(self, dim):
        keys = self._ix.keys.get(dim, ())
        return tuple(keys[i] for i in self.ids(dim))

    def ids(self, dim):
        return self._ids.get(dim, ())

    def _downset(self, alpha, strict):
        sets = {}
        for dim, bits in self._ix.below(alpha, strict).items():
            bits &= self._sets.get(dim, 0)
            if bits:
                sets[dim] = bits
        return Downset(self._parent, sets)


def block_dim(blocks):
    return sum(len(b) - 1 for b in blocks)


def block_boundary(blocks):
    """Signed faces of a product-of-simplices cell.

    Deleting vertex v from block i carries the sign
    (-1)^(sum of earlier block dimensions) * (-1)^(index of v in its
    block); blocks of size one cannot shrink.  Composing twice cancels,
    which building the complex's index checks.
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


class BlockComplex(LabeledComplex):
    """Complex whose cells are block tuples; labels stored per cell."""

    def __init__(self, cells, growth=None):
        # build_complex passes its growth: the cells in sort order per
        # dimension, and what the index is built from
        self._growth = growth
        super().__init__(cells, None if growth is None else growth.keys)

    def boundary(self, cell):
        return block_boundary(cell)

    def _make_index(self):
        if self._growth is None:
            return super()._make_index()
        return self._growth.index()

    @classmethod
    def from_blocks(cls, blocks_iter, label_fn=None):
        if label_fn is None:
            label_fn = lambda blocks: frozenset(itertools.chain(*blocks))
        cells = {}
        for blocks in blocks_iter:
            cells[blocks] = (block_dim(blocks), frozenset(label_fn(blocks)))
        return cls(cells)

    def relabeled(self, mapping):
        """Same cells with every label pushed through the vertex map."""
        return type(self)(
            {
                key: (dim, frozenset(mapping[v] for v in lab))
                for key, (dim, lab) in self._cells.items()
            }
        )

    def remapped(self, mapping):
        """Push block contents *and* labels through a vertex bijection.

        Shrink faces commute with the bijection, and the sign rule only
        sees block sizes and within-block positions, so the image is
        again a valid block complex (on relabeled vertices).
        """
        cells = {}
        for key, (dim, lab) in self._cells.items():
            new_key = tuple(
                tuple(sorted(mapping[v] for v in block)) for block in key
            )
            cells[new_key] = (dim, frozenset(mapping[v] for v in lab))
        return type(self)(cells)


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


class _Growth:
    """Cells of a d-graph's complex with what its index needs.

    Growing (`_grow`) files each cell under its dimension in sort order,
    with its label (as a set in `cells`, as a mask in `masks`) and its
    code; `index()` turns the codes into one-vertex-deletion columns
    and hands all of it to CellIndex.
    """

    def __init__(self, H):
        verts = H.support()
        self.vertices = verts
        self._stride = len(verts)
        self._bit = {v: 1 << k for k, v in enumerate(verts)}
        self.cells = {}  # cell -> (dim, label)
        self.keys, self.masks, self._codes = {}, {}, {}
        self._ids = {}
        labels = {}  # one frozenset per distinct label
        for cell, dim, mask, code in _grow(H, self._bit, self._stride):
            keys = self.keys.get(dim)
            if keys is None:
                keys = self.keys[dim] = []
                self.masks[dim], self._codes[dim] = [], []
            self._ids[code] = len(keys)
            keys.append(cell)
            self.masks[dim].append(mask)
            self._codes[dim].append(code)
            label = labels.get(mask)
            if label is None:
                label = labels[mask] = frozenset(itertools.chain(*cell))
            self.cells[cell] = (dim, label)

    def index(self):
        ids, bit, stride = self._ids, self._bit, self._stride
        columns = {}
        for dim in range(1, len(self.keys)):
            cols = columns[dim] = []
            for cell, code in zip(self.keys[dim], self._codes[dim]):
                col = []
                shift = offset = 0
                for block in cell:
                    if len(block) > 1:
                        sign = -1 if offset & 1 else 1
                        for v in block:
                            face = ids.get(code ^ bit[v] << shift)
                            if face is None:
                                raise _not_a_cell(
                                    _delete(cell, block, v), cell, dim
                                )
                            col.append((face, sign))
                            sign = -sign
                        offset += len(block) - 1
                    shift += stride
                cols.append(tuple(col))
        return CellIndex(self.keys, self.masks, self.vertices, columns)


def _delete(cell, block, v):
    """The face of a block cell that drops vertex v from the given block."""
    i = cell.index(block)
    return cell[:i] + (tuple(u for u in block if u != v),) + cell[i + 1:]


def enumerate_block_cells(H):
    """Block tuples of H (every transversal an edge), grown in preorder."""
    verts = H.support()
    bit = {v: 1 << k for k, v in enumerate(verts)}
    return [cell for cell, *_ in _grow(H, bit, len(verts))]


def build_complex(H):
    """The labeled complex of a d-graph.

    Cells are block tuples whose transversals are all edges; the label
    is the union of blocks.  The cells are grown by downward closure
    (`_grow`), already in sort order, and the index comes from the same
    growth: masks, and columns by one-vertex deletion.  Shrinking blocks
    only removes transversals, so the result is closed under faces.
    """
    growth = _Growth(H)
    return BlockComplex(growth.cells, growth)


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
