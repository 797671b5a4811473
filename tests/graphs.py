"""Test-graph generators, a corpus of complexes that resolve, a
shuffled-id complex builder, downset and strict-downset cutters, a
refusal probe and a wide dump, shared by the test modules."""

import itertools
import random

import pytest

from cointerval import Hypergraph, LabeledComplex, build_complex, taylor_complex
from cointerval._kernels import _flags, _members, _picked
from cointerval.complexes import block_boundary


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

    return LabeledComplex.from_cells(
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
    return sets, LabeledComplex.from_cells(cells, X.boundary)


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
