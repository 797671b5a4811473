"""The Betti readout on label masks against the frozenset readout.

Every route hands `BettiTable` label masks and the vertex tuple of the
complex it read.  The oracle here is the former readout, kept
test-local: each nonzero entry turned into a label (`label_of`), the
table keyed by frozensets, its rows sorted from those frozensets and
printed by the former formatter (`table_lines_oracle`), which made each
row's text from its tuple of vertices.  Both readouts share the routes'
arithmetic, so any difference is in the readout.
"""

import collections
import pathlib
import random
from dataclasses import dataclass

import pytest

from cointerval import (
    GF2,
    GF3,
    QQ,
    BettiTable,
    Hypergraph,
    PreconditionError,
    betti_from_cells,
    betti_from_downset_homology,
    betti_hochster,
    build_complex,
    cli,
    join,
    read_complex_dump,
    taylor_complex,
    verify_resolution,
)
from cointerval.complexes import union_closure
from cointerval.homology import homology_ranks
from cointerval.resolution import _rank, independence_complex

from graphs import all_graphs, block_boundary, copath, from_cells, random_graph

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIELDS = (GF2, GF3, QQ)


@dataclass
class FrozenTable:
    """`BettiTable` as it was: entries keyed by (i, frozenset(alpha))."""

    entries: dict = ()

    def __post_init__(self):
        pairs = self.entries
        if hasattr(pairs, "keys"):
            pairs = pairs.items()
        frozen = {(i, frozenset(alpha)): b for (i, alpha), b in pairs}
        self.entries = {key: int(b) for key, b in frozen.items() if b}

    def get(self, i, alpha):
        return self.entries.get((i, frozenset(alpha)), 0)

    def coarse(self):
        out = {}
        for (i, alpha), b in self.entries.items():
            key = (i, len(alpha))
            out[key] = out.get(key, 0) + b
        return out

    def totals(self):
        if not self.entries:
            return ()
        pdim = max(i for i, _ in self.entries)
        sums = [0] * (pdim + 1)
        for (i, _alpha), b in self.entries.items():
            sums[i] += b
        return tuple(sums)

    def pdim(self):
        return max((i for i, _ in self.entries), default=-1)

    def is_d_linear(self, d):
        return all(j == i + d for i, j in self.coarse())

    def sorted_entries(self):
        return sorted(
            (i, tuple(sorted(alpha)), b) for (i, alpha), b in self.entries.items()
        )


def table_lines_oracle(table):
    """`cli._table_lines` before the rows were printed from masks: each
    row's alpha, a tuple of vertices, made text one vertex at a time."""
    return [
        f"{i} | {' '.join(map(str, alpha))} | {b}"
        for i, alpha, b in table.sorted_entries()
    ] or ["(no entries)"]


def cells_oracle(X):
    entries = {}
    for dim in X.dims():
        for mask, count in collections.Counter(X.masks(dim)).items():
            entries[(dim, X.label_of(mask))] = count
    return FrozenTable(entries)


def strands_oracle(X, fld):
    report = verify_resolution(X, fields=(fld,))
    if not report.passed:
        raise PreconditionError("no resolution over " + str(fld))
    entries = {(0, X.label_of(m)): 1 for m in X.masks(0)}
    lattice = set(report.lattice)
    counts = collections.Counter()
    blocks = {}
    for dim in range(1, X.max_dim() + 1):
        masks = X.masks(dim)
        counts.update((dim, mask) for mask in masks if mask in lattice)
        below = X.masks(dim - 1)
        for col, mask in zip(X.columns(dim), masks):
            block = [(face, c) for face, c in col if below[face] == mask]
            if block:
                blocks.setdefault((dim, mask), []).append(block)
    ranks = {key: _rank(cols, fld.char) for key, cols in blocks.items()}
    for (dim, mask), count in counts.items():
        betti = count - ranks.get((dim, mask), 0) - ranks.get((dim + 1, mask), 0)
        if betti:
            entries[(dim, X.label_of(mask))] = betti
    return FrozenTable(entries)


def hochster_oracle(H, fld):
    ind = independence_complex(H)
    entries = {}
    for amask in union_closure(ind.mask(e) for e in H.edges):
        size = amask.bit_count()
        sets = ind._select(amask)
        if not sets:
            entries[(size - 1, ind.label_of(amask))] = 1
            continue
        for degree, rank in enumerate(homology_ranks(ind, fld, sets)):
            if rank and size - degree - 2 >= 0:
                entries[(size - degree - 2, ind.label_of(amask))] = rank
    return FrozenTable(entries)


def assert_same_readout(table, oracle, where):
    assert type(table) is BettiTable, where
    rebuilt = BettiTable(oracle.entries)
    assert table == rebuilt and rebuilt == table, where
    assert table.entries == oracle.entries, where
    assert bool(table) == bool(oracle.entries), where
    for i, alpha in oracle.entries:
        for key in (alpha, sorted(alpha), iter(alpha)):
            assert table.get(i, key) == oracle.get(i, alpha), where
        assert table.get(i + 1, alpha) == oracle.get(i + 1, alpha), where
        assert table.get(i, alpha | {-1}) == 0, where
    assert table.get(0, ()) == oracle.get(0, ()), where
    assert table.coarse() == oracle.coarse(), where
    assert table.totals() == oracle.totals(), where
    assert table.pdim() == oracle.pdim(), where
    for d in range(1, 5):
        assert table.is_d_linear(d) == oracle.is_d_linear(d), where
    assert table.sorted_entries() == oracle.sorted_entries(), where
    assert cli._table_lines(table) == table_lines_oracle(oracle), where


def small_graphs():
    """Every cointerval 2- and 3-graph on at most five vertices (with
    isolated vertices and the edgeless graphs among them), copath(4..10)
    and a 1-graph with an isolated vertex."""
    out = [
        H for d in (2, 3) for n in range(d, 6)
        for H in all_graphs(d, range(1, n + 1)) if H.is_cointerval()
    ]
    out += [copath(n) for n in range(4, 11)]
    out.append(Hypergraph(1, range(1, 5), [(1,), (2,), (4,)]))
    return out


def shared_label_segment():
    """Two vertices with one label and the edge between them: a
    non-minimal resolution of (x1 x2) whose beta_0 counts one label."""
    return from_cells({
        ((1,),): (0, frozenset({1, 2})),
        ((2,),): (0, frozenset({1, 2})),
        ((1, 2),): (1, frozenset({1, 2})),
    }, block_boundary)


def complex_corpus():
    """Complexes that resolve: Taylor complexes of seeded 2-graphs (not
    minimal), a join, both golden dumps and a shared-label segment."""
    rng = random.Random(2610)
    out = []
    for i in range(24):
        H = random_graph(rng, 2, range(1, rng.randrange(3, 7)), 0.5)
        if H.edges:
            out.append((f"taylor{i} {sorted(H.edges)}", taylor_complex(H)))
    out.append(("join", join([
        build_complex(copath(5)),
        taylor_complex(Hypergraph(2, range(6, 10), [(6, 7), (8, 9)])),
    ])))
    for name in ("input_taylor_2k2.dump", "input_join_2k2.dump"):
        out.append((name, read_complex_dump(GOLDEN / name)))
    out.append(("shared label", shared_label_segment()))
    return out


def test_routes_on_graphs_read_out_as_the_frozenset_tables():
    graphs = small_graphs()
    assert len(graphs) > 300
    assert any(H.support() != H.vertices for H in graphs)
    assert any(not H.edges for H in graphs)
    for H in graphs:
        X = build_complex(H)
        assert_same_readout(betti_from_cells(X), cells_oracle(X), H)
        for fld in FIELDS:
            where = (H, fld)
            strands = betti_from_downset_homology(X, fld)
            assert_same_readout(strands, strands_oracle(X, fld), where)
            hochster = betti_hochster(H, fld)
            assert_same_readout(hochster, hochster_oracle(H, fld), where)
            assert hochster == strands, where  # cointerval: they agree


def test_routes_on_complexes_read_out_as_the_frozenset_tables():
    corpus = complex_corpus()
    nonminimal = 0
    for name, X in corpus:
        assert_same_readout(betti_from_cells(X), cells_oracle(X), name)
        for fld in FIELDS:
            assert_same_readout(
                betti_from_downset_homology(X, fld), strands_oracle(X, fld),
                (name, fld),
            )
        nonminimal += betti_from_cells(X) != betti_from_downset_homology(X)
    assert nonminimal > 10
    # the shared label is one generator
    table = betti_from_downset_homology(shared_label_segment())
    assert table.entries == {(0, frozenset({1, 2})): 1}


def test_tables_on_other_vertex_sets_compare_by_their_rows():
    # alpha = {2, 4} read on two vertex tuples
    wide = BettiTable.from_masks((1, 2, 3, 4), {(0, 0b1010): 1, (1, 0b1110): 2})
    narrow = BettiTable.from_masks((2, 3, 4), {(0, 0b101): 1, (1, 0b111): 2})
    assert wide == narrow and narrow == wide
    assert wide.entries == narrow.entries
    assert wide.sorted_entries() == [(0, (2, 4), 1), (1, (2, 3, 4), 2)]
    assert BettiTable.from_masks((2, 3, 4), {(0, 0b011): 1}) != wide
    # zeros are dropped here too
    assert BettiTable.from_masks((1,), {(0, 1): 0}) == BettiTable()
    # Hochster reads all of H's vertices, the block routes its support
    H = Hypergraph(2, range(1, 7), [(1, 3), (1, 4), (2, 4)])
    X = build_complex(H)
    assert X._vertices != independence_complex(H)._vertices
    assert betti_hochster(H) == betti_from_cells(X) == (
        betti_from_downset_homology(X)
    )


def test_printed_rows_match_the_former_formatter_on_every_route():
    # 9 < 10 but "10" < "9"; negative vertices; an isolated vertex, so
    # Hochster's table is read on more vertices than the block routes'
    H = Hypergraph(2, [-3, -2, -1, 0, 9, 10, 11], [
        (-3, -1), (-3, 0), (-3, 9), (-3, 10), (-2, 0), (-2, 9), (-2, 10),
        (-1, 9), (-1, 10), (0, 10),
    ])
    assert H.is_cointerval() and H.support() != H.vertices
    X = build_complex(H)
    tables = [betti_from_cells(X), betti_from_downset_homology(X, GF3),
              betti_hochster(H, QQ), betti_from_cells(taylor_complex(H))]
    # 500 label vertices: one 500-vertex edge, and the Taylor complex of
    # two 499-vertex edges, whose rows are ordered past position 255
    wide = Hypergraph(500, range(1, 501), [tuple(range(1, 501))])
    tables += [betti_from_cells(build_complex(wide)),
               betti_from_downset_homology(build_complex(wide))]
    two = Hypergraph(499, range(1, 501), [range(1, 500), range(2, 501)])
    T = taylor_complex(two)
    tables += [betti_from_cells(T), betti_from_downset_homology(T)]
    # tables built from entries, and from wide random masks
    tables.append(BettiTable({(0, (10,)): 1, (0, (9,)): 2, (1, (-1, 9)): 3}))
    tables.append(BettiTable())
    rng = random.Random(2811)
    for width in (9, 10, 300, 500):
        verts = tuple(sorted(rng.sample(range(-600, 600), width)))
        masks = {(rng.randrange(4), rng.getrandbits(width)): rng.randrange(3)
                 for _ in range(60)}
        tables.append(BettiTable.from_masks(verts, masks))
    for table in tables:
        lines = cli._table_lines(table)
        assert lines == table_lines_oracle(table), lines[:3]
        assert lines == table_lines_oracle(FrozenTable(table.entries))
    assert table_lines_oracle(tables[0])[:4] == [
        "0 | -3 -1 | 1", "0 | -3 0 | 1", "0 | -3 9 | 1", "0 | -3 10 | 1",
    ]
    assert cli._table_lines(tables[6]) == [
        "0 | " + " ".join(map(str, range(1, 500))) + " | 1",
        "0 | " + " ".join(map(str, range(2, 501))) + " | 1",
        "1 | " + " ".join(map(str, range(1, 501))) + " | 1",
    ]


def test_public_constructor_keeps_its_semantics():
    pairs = [((0, iter([3, 1])), 1), ((0, [1, 1, 3]), 2), ((1, {5}), 0)]
    table = BettiTable(pairs)  # a later pair overrides, zeros dropped
    assert table.entries == {(0, frozenset({1, 3})): 2}
    assert table.get(0, (3, 1)) == 2 and table.get(1, {5}) == 0
    assert table.sorted_entries() == [(0, (1, 3), 2)]
    assert BettiTable({(2, frozenset({4})): True}).entries == {
        (2, frozenset({4})): 1
    }
    assert BettiTable({(0, ()): 1}).sorted_entries() == [(0, (), 1)]
    assert repr(table) == "BettiTable({(0, frozenset({1, 3})): 2})"
    assert table != table.entries and table.entries != table
    with pytest.raises(TypeError):
        hash(table)
    # the rows are made once and kept; a caller's copy does not reach them
    rows = table.sorted_entries()
    rows.clear()
    assert table.sorted_entries() == [(0, (1, 3), 2)]
