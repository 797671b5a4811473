"""The grown block complex against the first enumeration, kept as oracle.

`build_complex` grows block tuples by downward closure and hands its
LabeledComplex keys, label masks and one-vertex-deletion columns
straight from that growth.  The oracle here is the enumeration it replaced:
every support subset times every composition into d blocks, kept when
all transversals are edges, built by the generic route (cells, labels
and `block_boundary` through `LabeledComplex.from_cells`).  Cells must
agree in the same order, and the two complexes' keys, masks, holders
and checked columns entry for entry.
"""

import itertools
import random

import pytest

from cointerval import (
    BudgetError,
    Hypergraph,
    LabeledComplex,
    PreconditionError,
    build_complex,
    complexes,
)
from cointerval.complexes import block_boundary, block_dim

from graphs import all_graphs, downset


def scan_block_cells(H):
    """Every support subset times every composition, kept when all
    transversals are edges."""
    edges, d = H.edges, H.d
    verts = H.support()
    out = []
    for size in range(d, len(verts) + 1):
        for sub in itertools.combinations(verts, size):
            for cuts in itertools.combinations(range(1, size), d - 1):
                bounds = (0,) + cuts + (size,)
                blocks = tuple(sub[bounds[i]:bounds[i + 1]] for i in range(d))
                if all(t in edges for t in itertools.product(*blocks)):
                    out.append(blocks)
    return out


def scanned_graphs(d, n, step=1):
    """(H, scan_block_cells(H) sorted) for every step-th d-graph H on 1..n.

    The same scan, run once over the vertex set: each candidate block
    tuple's transversals become a bitmask over the possible edges, and
    a graph keeps the candidates whose mask lies inside its edge mask.
    A candidate through a vertex outside the support has a transversal
    that is not an edge, so this is the scan over the support.
    """
    universe = list(itertools.combinations(range(1, n + 1), d))
    bit = {e: 1 << i for i, e in enumerate(universe)}
    candidates = []
    for size in range(d, n + 1):
        for sub in itertools.combinations(range(1, n + 1), size):
            for cuts in itertools.combinations(range(1, size), d - 1):
                bounds = (0,) + cuts + (size,)
                blocks = tuple(sub[bounds[i]:bounds[i + 1]] for i in range(d))
                need = sum(bit[t] for t in itertools.product(*blocks))
                candidates.append((blocks, need))
    candidates.sort()
    for mask in range(0, 2 ** len(universe), step):
        H = Hypergraph(
            d, range(1, n + 1),
            [e for i, e in enumerate(universe) if mask >> i & 1],
        )
        yield H, [blocks for blocks, need in candidates if not need & ~mask]


def seeded_graphs(count, seed=6):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.choice((3, 4))
        n = rng.randint(d, 8)
        p = rng.uniform(0.3, 0.95)
        universe = itertools.combinations(range(1, n + 1), d)
        out.append(Hypergraph(
            d, range(1, n + 1), [e for e in universe if rng.random() < p]
        ))
    return out


EDGE_CASES = [
    # labels outside 1..n, with isolated vertices
    Hypergraph(2, [3, 10, 17, 40, 41, 99],
               [(3, 17), (10, 40), (3, 41), (17, 41), (10, 41)]),
    Hypergraph(3, [-4, 0, 7, 8, 12, 30],
               [(-4, 0, 7), (-4, 0, 8), (-4, 7, 8), (0, 7, 8), (7, 8, 12)]),
    # an empty edge set
    Hypergraph(2, [1, 2, 3], []),
    Hypergraph(3, [], []),
    # 1-graphs: every nonempty set of edge vertices is a cell
    Hypergraph(1, range(1, 6), [(1,), (3,), (4,)]),
    Hypergraph(1, [2, 5, 11], [(2,), (5,), (11,)]),
    # a single edge
    Hypergraph(4, range(1, 6), [(1, 2, 4, 5)]),
]


def assert_same_index(H):
    grown = build_complex(H)
    oracle = LabeledComplex.from_cells({
        b: (block_dim(b), frozenset(itertools.chain(*b)))
        for b in scan_block_cells(H)
    }, block_boundary)
    assert len(grown) == len(oracle), H
    assert grown.dims() == oracle.dims(), H
    for d in oracle.dims():
        assert grown.cells(d) == oracle.cells(d), H
    for cell in oracle.all_cells():
        assert grown.dim(cell) == oracle.dim(cell)
        assert grown.label(cell) == oracle.label(cell)
    assert grown.pos == oracle.pos, H
    if oracle.is_empty:
        return
    a, b = grown, oracle
    assert a._vertices == b._vertices, H
    assert {d: list(k) for d, k in a._keys.items()} == {
        d: list(k) for d, k in b._keys.items()
    }, H
    assert a._masks == b._masks, H
    assert a._vertex_holders == b._vertex_holders, H
    dims = range(oracle.max_dim() + 1)
    assert [a.columns(d) for d in dims] == [b.columns(d) for d in dims], H


def test_scanned_graphs_is_the_scan():
    for H, cells in scanned_graphs(2, 4):
        assert cells == sorted(scan_block_cells(H)), H


def test_grown_cells_match_scan_on_every_small_graph():
    # preorder growth meets the cells in lexicographic order; 4-graphs
    # take three levels of block recursion (on 6 vertices, every fourth
    # of the 32,768 keeps the test's time down)
    graphs = itertools.chain(
        *(scanned_graphs(2, n) for n in range(1, 7)), scanned_graphs(3, 5),
        scanned_graphs(4, 5), scanned_graphs(4, 6, step=4),
    )
    for H, cells in graphs:
        assert sorted(build_complex(H).all_cells()) == cells, H


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 5)])
def test_builder_index_matches_generic_index(d, n):
    for H in all_graphs(d, range(1, n + 1)):
        assert_same_index(H)


def test_builder_index_matches_generic_index_on_six_vertices():
    # one 2-graph in sixteen on 6 vertices: the generic complex of all
    # 32,768 costs about 10 s; the grown cells of all are compared above
    for H in itertools.islice(all_graphs(2, range(1, 7)), 0, None, 16):
        assert_same_index(H)


def test_builder_index_matches_generic_index_on_seeded_graphs():
    for H in seeded_graphs(60) + EDGE_CASES:
        cells = sorted(build_complex(H).all_cells())
        assert cells == sorted(scan_block_cells(H)), H
        assert_same_index(H)


def test_one_graph_cells_are_all_vertex_sets():
    H = Hypergraph(1, [2, 5, 11], [(2,), (5,), (11,)])
    assert sorted(build_complex(H).all_cells()) == [
        ((2,),), ((2, 5),), ((2, 5, 11),), ((2, 11),), ((5,),), ((5, 11),),
        ((11,),),
    ]


# --- planted faults in the builder's columns ----------------------------

def _plant(monkeypatch, change):
    """Wrap the builder's column rule so `change` edits its columns."""
    real = LabeledComplex.__init__

    def planted(self, keys, masks, vertices, columns):
        def edited():
            out = {d: list(cols) for d, cols in columns().items()}
            change(out)
            return out

        real(self, keys, masks, vertices, edited)

    monkeypatch.setattr(LabeledComplex, "__init__", planted)


def test_flipped_sign_in_builder_columns_raises(monkeypatch, copath5):
    def flip(columns):
        # the top cell ((1,), (2, 3, 4, 5)); its first face is
        # ((1,), (3, 4, 5))
        (face, sign), *rest = columns[3][0]
        columns[3][0] = ((face, -sign), *rest)

    _plant(monkeypatch, flip)
    X = build_complex(copath5)
    with pytest.raises(PreconditionError) as err:
        X.columns(1)
    # the message the generic route gives for the same flip
    assert str(err.value) == (
        "boundary does not square to zero at ((1,), (2, 3, 4, 5)): "
        "{((1,), (4, 5)): -2, ((1,), (3, 5)): 2, ((1,), (3, 4)): -2}"
    )
    Y = build_complex(copath5)
    with pytest.raises(PreconditionError):
        downset(Y, Y.mask({1, 2, 3, 4, 5}))


def test_missing_face_in_builder_columns_raises(monkeypatch, copath5):
    def drop(columns):
        columns[2][0] = columns[2][0][1:]

    _plant(monkeypatch, drop)
    with pytest.raises(PreconditionError, match="does not square to zero"):
        build_complex(copath5).columns(1)


def test_edge_with_one_endpoint_raises(monkeypatch, copath5):
    def drop(columns):
        columns[1][0] = columns[1][0][1:]

    _plant(monkeypatch, drop)
    with pytest.raises(PreconditionError) as err:
        build_complex(copath5).columns(1)
    assert str(err.value) == (
        "boundary does not square to zero at ((1,), (2, 3)): "
        "{'empty face': -1}"
    )


def test_face_id_past_the_end_raises(monkeypatch, copath5):
    def past(columns):
        (face, sign), *rest = columns[1][0]
        columns[1][0] = ((10**6, sign), *rest)

    _plant(monkeypatch, past)
    with pytest.raises(PreconditionError, match="not a cell of dimension 0"):
        build_complex(copath5).columns(1)


def test_missing_cell_in_growth_raises(monkeypatch, copath5):
    real = complexes._grow

    def without_a_vertex(H, bit, stride):
        for grown in real(H, bit, stride):
            if grown[0] != ((2,), (4,)):
                yield grown

    monkeypatch.setattr(complexes, "_grow", without_a_vertex)
    X = build_complex(copath5)
    with pytest.raises(PreconditionError) as err:
        X.columns(1)
    assert str(err.value) == (
        "face ((2,), (4,)) of ((1, 2), (4,)) is not a cell of dimension 0"
    )


def test_cell_budget_counts_while_growing(monkeypatch):
    H = Hypergraph(2, range(1, 8), itertools.combinations(range(1, 8), 2))
    total = len(scan_block_cells(H))
    monkeypatch.setattr(complexes, "CELL_LIMIT", total)
    assert len(list(build_complex(H).all_cells())) == total
    monkeypatch.setattr(complexes, "CELL_LIMIT", total - 1)
    with pytest.raises(BudgetError, match=f"more than {total - 1}"):
        build_complex(H)
