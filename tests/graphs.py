"""Test-graph generators, a corpus of complexes that resolve, the
generic complex builder (`from_cells`) with the block sign rule and the
former tuple-keyed join as oracles, a shuffled-id complex builder,
downset and strict-downset cutters, a refusal probe and a wide dump,
shared by the test modules."""

import itertools
import math
import random

import pytest

from cointerval import (
    BudgetError,
    Hypergraph,
    LabeledComplex,
    build_complex,
    complexes,
    join,
    taylor_complex,
)
from cointerval._kernels import _flags, _members, _picked
from cointerval.complexes import _not_a_cell


def block_boundary(blocks):
    """Signed faces of a product-of-simplices cell: the sign rule of
    `complexes._filed` for one factor, written out.

    Deleting vertex v from block i carries the sign
    (-1)^(sum of earlier block dimensions) * (-1)^(index of v in its
    block); blocks of size one cannot shrink.
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


def _column(faces, pos, cell, dim):
    """Signed faces as (face id, coefficient) pairs, equal faces summed;
    `pos` ids the cells one dimension down."""
    acc = {}
    for face, sign in faces:
        i = pos.get(face)
        if i is None:
            raise _not_a_cell(face, cell, dim)
        acc[i] = acc.get(i, 0) + sign
    return tuple((i, c) for i, c in acc.items() if c)


def from_cells(cells, boundary):
    """The generic builder: a complex from {cell: (dim, label)} and a
    boundary rule.

    Cells are sorted within each dimension; `boundary(cell)` gives
    signed faces as (cell, sign) pairs and is read when the columns are
    first needed, each face found by its key.  Every builder of the
    package is compared with it, and hand-built or planted complexes are
    made with it.
    """
    top = max((dim for dim, _label in cells.values()), default=-1)
    keys = {d: [] for d in range(top + 1)}
    for cell, (dim, _label) in cells.items():
        keys[dim].append(cell)
    for dim_cells in keys.values():
        dim_cells.sort()
    verts = sorted(set().union(*(lab for _d, lab in cells.values())))
    bit = {v: 1 << k for k, v in enumerate(verts)}
    masks = {
        d: [sum(bit[v] for v in cells[c][1]) for c in dim_cells]
        for d, dim_cells in keys.items()
    }

    def columns():
        out = {}
        for d in range(1, len(keys)):
            pos = {face: i for i, face in enumerate(keys[d - 1])}
            out[d] = [_column(boundary(c), pos, c, d) for c in keys[d]]
        return out

    return LabeledComplex(keys, masks, verts, columns)


def former_join(factors):
    """The join as it was built before it was filed over factor slots:
    tuple keys, frozenset labels and a product-rule boundary that reads
    each factor's `dim`, `label` and `boundary` per cell, through
    `from_cells`."""
    factors = tuple(X for X in factors if not X.is_empty)
    picks = [list(X.all_cells()) for X in factors]
    if any(not block for cells in picks for cell in cells for block in cell):
        raise ValueError(
            "nested joins are not supported; join every factor in one call"
        )
    size = math.prod(len(cells) + 1 for cells in picks) - 1
    if size > complexes.CELL_LIMIT:
        raise BudgetError(
            f"the join has {size} > {complexes.CELL_LIMIT} cells"
        )
    vanished = [((),) * len(cells[0]) for cells in picks]
    # factor i's blocks sit at key[starts[i]:starts[i + 1]]
    starts = list(itertools.accumulate(map(len, vanished), initial=0))
    slots = list(zip(factors, starts, starts[1:], vanished))
    cells = {}
    for combo in itertools.product(*([v] + c for v, c in zip(vanished, picks))):
        picked = [(X, c) for X, c in zip(factors, combo) if any(c)]
        if picked:
            cells[sum(combo, ())] = (
                sum(X.dim(c) + 1 for X, c in picked) - 1,
                frozenset().union(*(X.label(c) for X, c in picked)),
            )

    def boundary(key):
        out = []
        offset = 0
        for X, a, b, empty in slots:
            cell = key[a:b]
            if not any(cell):
                continue
            dim = X.dim(cell)
            sign = -1 if offset & 1 else 1
            for face, s in X.boundary(cell):
                out.append((key[:a] + face + key[b:], sign * s))
            dropped = key[:a] + empty + key[b:]
            if dim == 0 and any(dropped):
                out.append((dropped, sign))
            offset += dim + 1
        return out

    return from_cells(cells, boundary)


def same_complex(X, Y, where=None):
    """Assert that two complexes are equal entry for entry: vertices,
    keys, label masks and checked columns."""
    assert X._vertices == Y._vertices, where
    assert {d: list(k) for d, k in X._keys.items()} == {
        d: list(k) for d, k in Y._keys.items()
    }, where
    assert X._masks == Y._masks, where
    assert {d: X.columns(d) for d in X.dims()} == {
        d: Y.columns(d) for d in Y.dims()
    }, where


def checked_join(factors):
    """`join(factors)`, once it equals `former_join(factors)` exactly."""
    J = join(factors)
    same_complex(J, former_join(factors), factors)
    return J


def zero_sphere(a, b):
    """Two points a and b: the strict downset of a segment below its
    whole label."""
    seg = build_complex(Hypergraph(1, [a, b], [(a,), (b,)]))
    return strict_downset(seg, seg.mask({a, b}))[1]


def all_graphs(d, vertices):
    """Every d-graph on the given vertices, one per subset of the d-sets."""
    universe = list(itertools.combinations(vertices, d))
    for mask in range(2 ** len(universe)):
        yield Hypergraph(
            d, vertices, [e for i, e in enumerate(universe) if mask >> i & 1]
        )


def copath(n):
    """Complement of the path 1-2-...-n: edges {i, j} with j - i >= 2."""
    return Hypergraph(
        2, range(1, n + 1),
        [(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
         if j - i >= 2],
    )


def random_graph(rng, d, vertices, p):
    """Each d-set of the vertices an edge with probability p, one
    `rng.random()` draw per d-set in lexicographic order."""
    return Hypergraph(d, vertices, [
        e for e in itertools.combinations(vertices, d) if rng.random() < p
    ])


def planted_2k2(rng, n, p):
    """A random 2-graph on n vertices with an induced 2K2 planted on four
    of them, so never cointerval."""
    a, b, c, d = rng.sample(range(1, n + 1), 4)
    edges = {
        e for e in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    }
    edges |= {tuple(sorted((a, b))), tuple(sorted((c, d)))}
    edges -= {tuple(sorted(q)) for q in ((a, c), (a, d), (b, c), (b, d))}
    return Hypergraph(2, range(1, n + 1), edges)


def strand_corpus():
    """Complexes that support resolutions over every field: the block
    complexes of every cointerval 2-graph and 3-graph on at most five
    vertices and of copath(4..9), and the Taylor complexes of seeded
    2-graphs (not minimal, so their equal-label blocks are nonzero)."""
    out = [
        (f"{H.d}-graph {sorted(H.edges)}", build_complex(H))
        for d in (2, 3) for n in range(d, 6)
        for H in all_graphs(d, range(1, n + 1))
        if H.edges and H.is_cointerval()
    ]
    out += [(f"copath{n}", build_complex(copath(n))) for n in range(4, 10)]
    rng = random.Random(60)
    for i in range(60):
        H = random_graph(rng, 2, range(1, rng.randrange(3, 7)), 0.5)
        if H.edges:
            out.append((f"taylor_seeded{i}", taylor_complex(H)))
    return out


def slotted_points(count, slots, values):
    """Dump text of `count` distinct points labeled 1, each with `slots`
    one-value block slots over `values` values: cells x slots x values
    is what the dump width budget counts."""
    return "".join(
        "0 | " + " ; ".join(
            str((c + s * (c // values + 1)) % values) for s in range(slots)
        ) + " | 1\n"
        for c in range(count)
    )


def scrambled_complex(cells, seed):
    """A block complex whose cell ids follow a seeded shuffle.

    Acyclicity does not depend on the order of the cells, but the lead
    matching of `verify_resolution` does: under a shuffled order leads
    collide, so some acyclic downsets go to exact elimination.  Each
    cell is keyed (rank, blocks), so sorting the keys sorts by rank.
    """
    order = sorted(cells)
    random.Random(seed).shuffle(order)
    rank = {c: i for i, c in enumerate(order)}

    def boundary(key):
        return [((rank[f], f), s) for f, s in block_boundary(key[1])]

    return from_cells(
        {(rank[c], c): dim_label for c, dim_label in cells.items()}, boundary
    )


def downset(X, mask):
    """The cells of X whose label lies inside a label mask, as a complex
    of their own.

    Built from `X._select(mask)`, on X's vertices so that label masks
    carry over: the selected keys and masks, and X's checked columns
    renumbered onto the selected faces.  Like every complex it checks
    its own columns, on first use.
    """
    sets = X._select(mask)
    keys = {d: _picked(X._keys[d], bits) for d, bits in sets.items()}
    masks = {d: _picked(X._masks[d], bits) for d, bits in sets.items()}
    checked = X._checked

    def columns():
        out = {}
        for d in range(1, len(sets)):
            new = {f: i for i, f in enumerate(_members(sets[d - 1]))}
            out[d] = [
                tuple((new[f], c) for f, c in col)
                for col in _picked(checked[d], sets[d])
            ]
        return out

    return LabeledComplex(keys, masks, X._vertices, columns)


def strict_downset(X, mask):
    """The cells of X whose label lies strictly inside a label mask.

    Returns their id selection of X ({dim: id bitset}) and a complex of
    their own.  A label strictly inside the mask lies inside the mask
    with one of its bits removed, so the selection is the union of the
    downsets below those masks; the complex is built afresh from the
    selected cells, their labels and X's boundary, and checks its own
    columns.
    """
    sets = {}
    for k in _members(mask):
        for dim, bits in X._select(mask & ~(1 << k)).items():
            sets[dim] = sets.get(dim, 0) | bits
    cells = {
        cell: (dim, X.label(cell))
        for dim, bits in sets.items() for cell in _picked(X.cells(dim), bits)
    }
    return sets, from_cells(cells, X.boundary)


def refusal(call, *args):
    """The exact type and the message of the ValueError call(*args) raises
    (PreconditionError and ParseError are ValueErrors too)."""
    with pytest.raises(ValueError) as err:
        call(*args)
    return type(err.value), str(err.value)


def members_oracle(bits):
    """`_kernels._members` before its walk of narrow ints: a sparse mask
    (fewer than one set bit in 16) read off its binary digits by `rfind`,
    a denser one picked out of `_flags`, whatever its width."""
    if bits.bit_count() * 16 < bits.bit_length():
        digits = bin(bits)
        top = len(digits) - 1
        out = []
        i = digits.rfind("1")
        while i > 1:
            out.append(top - i)
            i = digits.rfind("1", 2, i)
        return out
    flags = _flags(bits)
    return list(itertools.compress(range(len(flags)), flags))
