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
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError
from .homology import _assert_squares_to_zero
from .hypergraph import Hypergraph


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _members(bits):
    """Positions of the set bits of a non-negative int, ascending."""
    flags = bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)
    return list(itertools.compress(range(len(flags)), flags))


def _holders(masks):
    """For each bit set in some mask, the bitset of positions holding it."""
    ids = {}
    for i, mask in enumerate(masks):
        for k in _members(mask):
            ids.setdefault(k, []).append(i)
    return {k: sum(1 << i for i in members) for k, members in ids.items()}


class CellIndex:
    """Integer ids, label bitmasks and sparse boundary columns of a complex.

      keys[d]     the d-cells in the complex's sort order; a cell's id is
                  its position here
      pos         cell -> id
      masks[d]    the label of each d-cell as an int bitmask, bit k
                  standing for the k-th smallest vertex of `vertices`
      holders[d]  for each vertex bit k, the set of d-cells whose label
                  has bit k, as an int bitset over ids
      columns[d]  for d >= 1, the boundary of each d-cell as a tuple of
                  (face id, coefficient) pairs, zero coefficients dropped

    Building checks the whole complex once and raises PreconditionError
    unless every face is a cell one dimension down whose label lies
    inside its cell's label, and the boundary squares to zero
    (augmentation included).  Label monotonicity makes every downset
    closed under faces, and the boundary of a subcomplex is the
    restriction of the parent's, so neither check is needed again for a
    downset.
    """

    def __init__(self, X):
        top = X.max_dim()
        self.keys = {d: X.cells(d) for d in range(top + 1)}
        labels = [X.label(c) for c in X.all_cells()]
        verts = sorted(frozenset().union(*labels))
        self.vertices = frozenset(verts)
        self._bit = {v: 1 << k for k, v in enumerate(verts)}
        self.pos = {}
        self.masks = {}
        self.holders = {}
        for d, keys in self.keys.items():
            masks = self.masks[d] = [self.mask(X.label(c)) for c in keys]
            holders = _holders(masks)
            self.holders[d] = [holders.get(k, 0) for k in range(len(verts))]
            for i, cell in enumerate(keys):
                self.pos[cell] = i
        self.columns = {}
        for d in range(1, top + 1):
            below = self.masks[d - 1]
            self.columns[d] = [
                self._column(X, d, cell, mask, below)
                for cell, mask in zip(self.keys[d], self.masks[d])
            ]
        _assert_squares_to_zero(self)

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

    def _column(self, X, dim, cell, mask, below):
        acc = {}
        for face, sign in X.boundary(cell):
            i = self.pos.get(face)
            if i is None or X.dim(face) != dim - 1:
                raise PreconditionError(
                    f"face {face} of {cell} is not a cell of dimension "
                    f"{dim - 1}"
                )
            if below[i] & ~mask:
                raise PreconditionError(
                    f"label of face {face} is not contained in the label "
                    f"of {cell}"
                )
            acc[i] = acc.get(i, 0) + sign
        return tuple((i, c) for i, c in acc.items() if c)


class LabeledComplex:
    """Finite labeled complex: cells with dimensions and label sets."""

    def __init__(self, cells):
        # cells: dict cell_key -> (dim, frozenset label)
        self._cells = dict(cells)
        by_dim = {}
        for key, (dim, _label) in self._cells.items():
            by_dim.setdefault(dim, []).append(key)
        for dim in by_dim:
            by_dim[dim].sort(key=self.sort_key)
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
            self._ix = CellIndex(self)
        return self._ix

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

    def boundary(self, cell):
        return block_boundary(cell)

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


def _compositions(total, parts):
    # all ways to write total as an ordered sum of `parts` positive ints
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield (0,) + cuts + (total,)


def enumerate_block_cells(H):
    """Block tuples of H: every transversal must be an edge."""
    edges = H.edges
    d = H.d
    out = []
    verts = H.support()
    for size in range(d, len(verts) + 1):
        for sub in itertools.combinations(verts, size):
            for cuts in _compositions(size, d):
                blocks = tuple(
                    sub[cuts[i]:cuts[i + 1]] for i in range(d)
                )
                if all(t in edges for t in itertools.product(*blocks)):
                    out.append(blocks)
    return out


def build_complex(H):
    """The labeled complex of a d-graph.

    Cells are block tuples whose transversals are all edges; the label
    is the union of blocks.  The result is automatically closed under
    faces since shrinking blocks only removes transversals.
    """
    return BlockComplex.from_blocks(enumerate_block_cells(H))


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
