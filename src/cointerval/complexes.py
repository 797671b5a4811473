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
columns.  On first use of its boundary, columns or downsets the
complex checks, once, that faces are cells with labels inside their
cell's and that the boundary squares to zero; nothing is read off a
complex that fails, and one that passes drops the builder's rule.
Over GF(2) the checked columns are also packed, once, into one int
each.  A downset is an id selection ({dim: id bitset}, `_select`): the
lattice sweeps read ranks straight off it and the complex's columns,
and no downset is built as a complex.

The builders differ only in how they find cells and code them: each
meets its products of simplices in sort order, and `_filed` ids them
and derives the columns by one-vertex deletion (in a join, also a
factor's vertex vanishing).  `build_complex` grows the cells of a
d-graph by downward closure (`_grow`): "every transversal is an edge"
survives shrinking blocks, so block tuples grow one vertex at a time
and a branch is cut at its first non-edge; it stops with BudgetError
past CELL_LIMIT cells.  `resolution.independence_complex` grows
independent sets as one-block cells with `_lex_subsets`, cut at each
completed edge, and `resolution.taylor_complex` takes every set of edge
indices.  `covers.join` codes its factors' picks itself, and `_coded`
codes cells keyed by blocks by their values for `remapped` and a dump
of products of simplices; the dump parser orients any other dump.
"""

from __future__ import annotations

import functools
import itertools
from itertools import chain
from operator import lshift

from ._kernels import _flags, _members, pack_gf2
from .errors import BudgetError, PreconditionError
from .homology import _assert_squares_to_zero
from .hypergraph import Hypergraph


# cells grown before build_complex refuses (also faces kept by
# staircase.restrict_to_graph); `resolve` on copath(15), 98,305
# cells, takes 1.8-2.2 s and 327 MB peak RSS, and `verify` on its dump
# 2.4-2.9 s and 321-325 MB (VmHWM; 2 vCPUs, Python 3.11)
CELL_LIMIT = 100_000

_AUG_COLUMN = ((0, 1),)  # a vertex's augmentation: once the empty face


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


class LabeledComplex:
    """Finite labeled cell complex, stored by cell id.

      keys[d]     the d-cells in sort order; a cell's id is its position
      masks[d]    their labels as int bitmasks, bit k for vertices[k]
      vertices    the label vertices, ascending
      columns     the builder's function giving {d: the columns of the
                  d-cells, as (face id, coefficient) pairs}

    Cells, dimensions and labels are read off keys and masks, so the
    columns are made only for `boundary`, `columns` or a downset.  An
    id selection ({dim: id bitset}, `_select`) picks the cells of a
    downset; the lattice sweeps read ranks straight off it.
    """

    def __init__(self, keys, masks, vertices, columns):
        self._keys = keys
        self._masks = masks
        self._vertices = tuple(vertices)
        self._bit = {v: 1 << k for k, v in enumerate(self._vertices)}
        self._column_rule = columns
        self._labels = {}  # one frozenset per distinct label mask
        # the id selection of every cell; dimensions without one are left out
        self._sets = {
            d: (1 << len(cells)) - 1 for d, cells in keys.items() if cells
        }

    def remapped(self, mapping):
        """Push block contents *and* labels through a vertex bijection.

        Shrink faces commute with the bijection, and the sign rule only
        sees block sizes and within-block positions, so the image is
        again a valid block complex (on relabeled vertices), coded anew.
        """
        for domain in (set(self._vertices), _block_values(self._keys)):
            images = set(map(mapping.get, domain))
            if None in images or len(images) < len(domain):
                raise ValueError("remapping is undefined or not injective")
        verts = sorted(mapping[v] for v in self._vertices)
        bit = {v: 1 << k for k, v in enumerate(verts)}
        to = [bit[mapping[v]] for v in self._vertices]
        keys, masks = {}, {}
        for d, cells in self._keys.items():
            rows = sorted(
                (tuple(tuple(sorted(map(mapping.__getitem__, b))) for b in c),
                 sum(map(to.__getitem__, _members(mask))))
                for c, mask in zip(cells, self._masks[d])
            )
            keys[d] = [key for key, _mask in rows]
            masks[d] = [mask for _key, mask in rows]
        return _coded(keys, masks, verts)

    # --- cells and labels ---------------------------------------------
    @functools.cached_property
    def pos(self):
        """cell -> (dim, id)."""
        return {
            cell: (d, i) for d, cells in self._keys.items()
            for i, cell in enumerate(cells)
        }

    def __contains__(self, cell):
        return cell in self.pos

    def __len__(self):
        return sum(len(cells) for cells in self._keys.values())

    @property
    def is_empty(self):
        return not self._sets

    def dim(self, cell):
        return self.pos[cell][0]

    def label(self, cell):
        dim, i = self.pos[cell]
        return self.label_of(self._masks[dim][i])

    def label_of(self, mask):
        """The label with this bitmask (one frozenset per mask)."""
        label = self._labels.get(mask)
        if label is None:
            label = self._labels[mask] = frozenset(
                itertools.compress(self._vertices, _flags(mask))
            )
        return label

    def mask(self, vertices):
        """Bitmask of the given vertices (ones no label uses are dropped)."""
        bit = self._bit
        return sum(bit[v] for v in vertices if v in bit)

    def dims(self):
        return sorted(self._sets)

    def max_dim(self):
        return max(self._sets, default=-1)

    def cells(self, dim):
        return tuple(self._keys.get(dim, ()))

    def masks(self, dim):
        """Label bitmasks of the cells of the given dimension."""
        return list(self._masks.get(dim, ()))

    def all_cells(self):
        for dim in self.dims():
            yield from self.cells(dim)

    def boundary(self, cell):
        """Signed codimension-1 faces as (cell, sign) pairs, once checked."""
        dim, i = self.pos[cell]
        if not dim:
            return []
        faces = self._keys[dim - 1]
        return [(faces[f], c) for f, c in self._checked[dim][i]]

    def f_vector(self):
        keys = self._keys
        return tuple(len(keys.get(d, ())) for d in range(self.max_dim() + 1))

    def lattice_masks(self):
        """The lcm lattice: every union of vertex labels, as label bitmasks.

        Bit k stands for the k-th smallest vertex, so `union_closure`
        orders the masks by size and then like the sorted elements of
        their labels.
        """
        return union_closure(self.masks(0))

    # --- checked columns and downsets ---------------------------------
    @functools.cached_property
    def _checked(self):
        """The columns, with the augmentation in dimension 0, once checked.

        Raises PreconditionError unless every face is a cell one
        dimension down whose label lies inside its cell's label, and the
        boundary squares to zero (augmentation included).  Label
        monotonicity makes every downset closed under faces, and the
        boundary of a subcomplex is the restriction of the parent's, so
        neither check is needed again for an id selection.  Once the
        columns pass, the builder's rule and what it holds are dropped;
        a complex that fails keeps it, and raises again on the next read.
        """
        keys, masks, columns = self._keys, self._masks, self._column_rule()
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
        checked = {0: [_AUG_COLUMN] * len(keys.get(0, ())), **columns}
        _assert_squares_to_zero(keys, checked)
        self._column_rule = None
        return checked

    def columns(self, dim):
        """Checked boundary columns of the dim-cells, by id.

        A column is a tuple of (face id, coefficient) pairs.  In
        dimension 0 it is the augmentation: every vertex goes to row 0,
        the empty face.
        """
        return self._checked[dim]

    @functools.cached_property
    def _packed(self):
        return {d: pack_gf2(cols) for d, cols in self._checked.items()}

    def packed_columns(self, dim):
        """The checked columns of the dim-cells mod 2, by id: one int
        each, bit r set for an odd coefficient on row r.

        Packed once per complex, when a rank over GF(2) first needs them.
        """
        return self._packed[dim]

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

    def _select(self, mask):
        """The id selection ({dim: id bitset}) of the cells whose label
        lies inside a label mask.

        A label lies inside the mask when it has no bit outside it; all
        cells of a dimension are tested at once by removing the holders
        of every vertex outside.  Dimensions left without a cell are
        left out, so an empty selection is an empty dict.
        """
        self._checked  # raises unless the complex checks out
        outside = _members((1 << len(self._vertices)) - 1 & ~mask)
        sets = {}
        for dim, holders in self._vertex_holders.items():
            keep = self._sets.get(dim, 0)
            for k in outside:
                keep &= ~holders[k]
            if keep:
                sets[dim] = keep
        return sets


# each byte with its eight bits in reverse order
_FLIP = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def union_closure(masks):
    """Every union of a nonempty set of the masks, sorted by size and
    then by ascending bit list.

    The closure grows one generator at a time: the unions that use g are
    g itself and g joined to every union found before it.  Among masks
    of one size, comparing ascending bit lists is comparing the masks
    with their bits reversed, larger first.  The bits are reversed over
    whole bytes, each byte flipped by a table (`_FLIP`) and the byte
    order turned; padding to whole bytes shifts every reversed mask by
    the same amount, which keeps their order.  The reversed masks are
    compared as those bytes: all have the same length, so they compare
    as the big-endian ints they spell.  Raises BudgetError as
    soon as the closure holds more than CELL_LIMIT masks: k generators
    with disjoint masks have 2^k - 1 unions.
    """
    out = set()
    for g in set(masks):
        out |= {a | g for a in out}
        out.add(g)
        if len(out) > CELL_LIMIT:
            raise BudgetError(
                f"the lcm lattice has more than {CELL_LIMIT} elements"
            )
    size = (max(out, default=0).bit_length() + 7) // 8
    ordered = sorted(
        out, reverse=True,
        key=lambda m: m.to_bytes(size, "little").translate(_FLIP),
    )
    ordered.sort(key=int.bit_count)  # stable: ties keep the reversed order
    return ordered


def block_dim(blocks):
    return sum(len(b) - 1 for b in blocks)


def _grow(H, bit):
    """Block cells of H grown by downward closure, in preorder.

    Yields (cell, dim, label mask, code) for every block tuple whose
    transversals are all edges.  A cell is a first block B followed by
    a cell of the (d-1)-graph L(B) = intersection over x in B of
    {e[1:] : e in H, e[0] = x}, whose tuples all lie above max B, so
    `cells` recurses once per block: it grows B one vertex at a time,
    cuts a branch as soon as L(B) is empty and yields from the cells of
    L(B) with B appended to the prefix.  A 1-graph's cell is any
    nonempty set of its vertices (`_lex_subsets`, made once per vertex
    set and counted against the budget before it is made).  Visiting a
    block's continuations before its one-vertex extensions meets the
    tuples in lexicographic order, which is the complex's sort order
    within every dimension.

    `code` packs block i's vertex mask at bit offset i * len(bit), so
    deleting vertex v from block i is `code ^ bit[v] << i * len(bit)`.
    Raises BudgetError once more than CELL_LIMIT cells are grown.
    """
    count = 0
    subsets = {}  # vertices of a last block -> _lex_subsets of them

    def cells(tuples, prefix, pmask, pcode, pdim):
        # the cells of the graph of `tuples`, each after the blocks of prefix
        nonlocal count
        offset = len(prefix) * len(bit)
        if len(prefix) == H.d - 1:
            verts = tuple(sorted(t[0] for t in tuples))
            count += (1 << len(verts)) - 1
            if count > CELL_LIMIT:
                raise BudgetError(
                    f"the block complex has more than {CELL_LIMIT} cells"
                )
            subs = subsets.get(verts)
            if subs is None:
                subs = subsets[verts] = list(_lex_subsets(verts, bit))
            for last, mask, dim in subs:
                yield (prefix + (last,), pdim + dim, pmask | mask,
                       pcode | mask << offset)
            return
        links = {}
        for t in tuples:
            links.setdefault(t[0], set()).add(t[1:])
        starts = sorted(links)
        stack = [((), 0, -1, None)]  # (block, mask, its last start, L(block))
        while stack:
            block, bmask, at, rest = stack.pop()
            for nxt in range(len(starts) - 1, at, -1):
                y = starts[nxt]
                grown = links[y] if rest is None else rest & links[y]
                if grown:
                    stack.append((block + (y,), bmask | bit[y], nxt, grown))
            if block:
                yield from cells(rest, prefix + (block,), pmask | bmask,
                                 pcode | bmask << offset,
                                 pdim + len(block) - 1)

    return cells(H.edges, (), 0, 0, 0)


def _lex_subsets(verts, bit, rests=None):
    """(subset, mask, size - 1) for the nonempty subsets of sorted verts,
    in lexicographic order, yielded as they grow.

    A subset grows one vertex at a time, only by vertices above its
    largest one.  With `rests` ({v: masks}), growing by v is cut when
    the subset's mask holds one of rests[v]: passing each edge minus its
    largest vertex v under v yields the edge-free (independent) sets.
    """
    stack = [((), 0, 0)]
    while stack:
        block, mask, start = stack.pop()
        if block:
            yield block, mask, len(block) - 1
        for nxt in range(len(verts) - 1, start - 1, -1):
            v = verts[nxt]
            if rests is None or all(r & ~mask for r in rests[v]):
                stack.append((block + (v,), mask | bit[v], nxt + 1))


def _misshapen(keys):
    """The first cell of {dim: cells} with an empty block or a dimension
    other than its `block_dim`, or None."""
    for dim, cells in keys.items():
        for cell in cells:
            if not all(cell) or sum(map(len, cell)) != dim + len(cell):
                return cell
    return None


def _block_values(keys):
    cells = chain.from_iterable(keys.values())
    return set(chain.from_iterable(chain.from_iterable(cells)))


def _coded(keys, masks, vertices):
    """The complex of cells keyed by blocks, each dimension sorted,
    filed by `_filed`: one bit per distinct block value, in sorted
    order, block i's at offset i * the number of values."""
    blocks = set(chain.from_iterable(chain.from_iterable(keys.values())))
    values = sorted(set(chain.from_iterable(blocks)))
    bit = dict(zip(values, (1 << k for k in range(len(values)))))
    code = {block: sum(map(bit.get, block)) for block in blocks}
    first = next(chain.from_iterable(keys.values()), ())
    shifts = [i * len(values) for i in range(len(first))]
    return _filed((
        (cell, dim, mask, sum(map(lshift, map(code.get, cell), shifts)))
        for dim, dim_keys in keys.items()
        for cell, mask in zip(dim_keys, masks[dim])
    ), vertices, bit)


def _filed(cells, vertices, bit, factors=None):
    """The complex of products of simplices met in sort order.

    `cells` yields (cell, dim, label mask, code) per cell, cells of a
    dimension in sort order; `code` packs block i's vertices (`bit`, all
    below `1 << len(bit)` if keys have several blocks) at offset
    i * len(bit).  A cell's id is its position in its dimension.
    `factors` gives each join factor's (start, stop) slots (None: one).

    The columns walk the present factors (a vanished one has empty
    slots).  Deleting v from block i is `code ^ bit[v] << i * len(bit)`; a
    factor whose pick is a vertex also vanishes, to `code` without its
    slot bits.  The sign is (-1)^offset, the offset being v's index in
    its block, plus the dimensions of the blocks before it, plus one per
    present factor before it: the product rule, a vertex going to the
    empty face.  The complex checks that composing twice cancels.
    """
    stride = len(bit)
    keys, masks, codes, ids = {}, {}, {}, {}
    for cell, dim, mask, code in cells:
        dim_keys = keys.get(dim)
        if dim_keys is None:
            dim_keys = keys[dim] = []
            masks[dim], codes[dim] = [], []
        ids[code] = len(dim_keys)
        dim_keys.append(cell)
        masks[dim].append(mask)
        codes[dim].append(code)
    # (start, stop, slot mask, first shift) per factor
    slots = [(0, None, -1, 0)] if factors is None else [
        (a, b, ((1 << (b - a) * stride) - 1) << a * stride, a * stride)
        for a, b in factors
    ]

    def columns():
        out = {}
        for dim in range(1, len(keys)):
            cols = out[dim] = []
            for cell, code in zip(keys[dim], codes[dim]):
                col = []
                offset = 0
                for a, b, slot, shift in slots:
                    if not code & slot:
                        continue
                    start = offset
                    for block in cell[a:b]:
                        if len(block) > 1:
                            sign = -1 if offset & 1 else 1
                            for v in block:
                                face = ids.get(code ^ bit[v] << shift)
                                if face is None:
                                    j = shift // stride
                                    face = tuple(u for u in block if u != v)
                                    raise _not_a_cell(
                                        cell[:j] + (face,) + cell[j + 1:],
                                        cell, dim,
                                    )
                                col.append((face, sign))
                                sign = -sign
                            offset += len(block) - 1
                        shift += stride
                    if offset == start:  # the pick is a vertex
                        face = ids.get(code & ~slot)
                        if face is None:
                            face = f"without {cell[a:b]}"
                            raise _not_a_cell(face, cell, dim)
                        col.append((face, -1 if offset & 1 else 1))
                    offset += 1
                cols.append(tuple(col))
        return out

    return LabeledComplex(keys, masks, vertices, columns)


def build_complex(H):
    """The labeled complex of a d-graph.

    Cells are block tuples whose transversals are all edges; the label
    is the union of blocks.  The cells are grown by downward closure
    (`_grow`), already in sort order, and filed with their label masks
    and codes (`_filed`).  Shrinking blocks only removes transversals,
    so the result is closed under faces.
    """
    verts = H.support()
    bit = {v: 1 << k for k, v in enumerate(verts)}
    return _filed(_grow(H, bit), verts, bit)


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
