"""Hochster's route on one grown independence complex, against its oracles.

`independence_complex` grows the edge-free vertex subsets by downward
closure and labels each face by its own vertex set, and `betti_hochster`
reads the independence complex of every induced subgraph H[alpha] as a
downset of that one complex.  The oracles here are the routes they
replaced: the 2^n scan of vertex subsets against every edge, and, per
alpha, a new induced `Hypergraph` whose scanned independent sets become
a complex of their own through the tests' `from_cells`.
"""

import functools
import itertools
import random

import pytest

from cointerval import (
    GF2,
    GF3,
    QQ,
    BettiTable,
    BudgetError,
    Hypergraph,
    LabeledComplex,
    betti_from_cells,
    betti_from_downset_homology,
    betti_hochster,
    build_complex,
    complexes,
    homology_ranks,
    independence_complex,
    taylor_complex,
)
from cointerval._kernels import _members
from cointerval.complexes import union_closure

from graphs import (
    all_graphs,
    block_boundary,
    downset,
    from_cells,
    planted_2k2,
    random_graph,
    strict_downset,
)

FIELDS = (GF2, GF3, QQ)


def scan_independent_sets(H):
    """Every nonempty vertex subset holding no edge, by size then lex."""
    edges = [set(e) for e in H.edges]
    return [
        sub
        for size in range(1, H.n + 1)
        for sub in itertools.combinations(H.vertices, size)
        if not any(e <= set(sub) for e in edges)
    ]


def scanned_complex(H):
    return from_cells({
        (sub,): (len(sub) - 1, frozenset(sub))
        for sub in scan_independent_sets(H)
    }, block_boundary)


def hochster_by_subsets(H):
    """{field: BettiTable} by one induced graph and complex per alpha."""
    entries = {fld: {} for fld in FIELDS}
    for size in range(H.d, H.n + 1):
        for alpha in itertools.combinations(H.vertices, size):
            sub = H.induced(alpha)
            if not sub.edges:
                continue
            for fld in FIELDS:
                for i, rank in induced_betti(sub, fld):
                    entries[fld][(i, frozenset(alpha))] = rank
    return {fld: BettiTable(e) for fld, e in entries.items()}


@functools.lru_cache(maxsize=None)
def induced_betti(sub, fld):
    """(i, beta_{i, V(sub)}) from the scanned independence complex of sub.

    Memoised on the induced graph, which alone fixes the answer, so the
    exhaustive sweeps below build each distinct induced complex once.
    """
    size = sub.n
    ind = scanned_complex(sub)
    if ind.is_empty:
        return ((size - 1, 1),) if size - 1 >= 0 else ()
    ranks = homology_ranks(ind, fld)
    return tuple(
        (size - degree - 2, rank)
        for degree, rank in enumerate(ranks)
        if rank and size - degree - 2 >= 0
    )


def interval_complement(rng, n, span=30):
    ivs = sorted(
        (a + rng.randrange(1, span // 3 + 2), a)
        for a in (rng.randrange(span) for _ in range(n))
    )
    return Hypergraph(2, range(1, n + 1), [
        (i + 1, j + 1)
        for i, j in itertools.combinations(range(n), 2)
        if ivs[i][0] < ivs[j][1] or ivs[j][0] < ivs[i][1]
    ])


def hochster_by_subset_sweep(H, fld):
    """The 2^n sweep `betti_hochster` ran before it swept unions of edges:
    every vertex subset holding an edge, cut from one grown complex."""
    ind = independence_complex(H)
    edge_masks = [ind.mask(e) for e in H.edges]
    entries = {}
    for size in range(H.d, H.n + 1):
        for alpha in itertools.combinations(H.vertices, size):
            amask = ind.mask(alpha)
            if all(e & ~amask for e in edge_masks):
                continue
            sub = downset(ind, amask)
            if sub.is_empty:
                if size - 1 >= 0:
                    entries[(size - 1, frozenset(alpha))] = 1
                continue
            ranks = homology_ranks(sub, fld)
            for degree, rank in enumerate(ranks):
                if rank and size - degree - 2 >= 0:
                    entries[(size - degree - 2, frozenset(alpha))] = rank
    return BettiTable(entries)


def assert_same_tables(H):
    expected = hochster_by_subsets(H)
    for fld in FIELDS:
        assert betti_hochster(H, fld) == expected[fld], (H, fld)


def assert_grown_like_scan(H):
    grown, scanned = independence_complex(H), scanned_complex(H)
    assert grown.f_vector() == scanned.f_vector(), H
    assert grown._keys == scanned._keys, H
    for dim in grown.dims():
        assert [grown.label(c) for c in grown.cells(dim)] == [
            scanned.label(c) for c in scanned.cells(dim)
        ], H
        assert grown.columns(dim) == scanned.columns(dim), H


# --- the grown independence complex against the 2^n scan ---------------

@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                  (1, 5), (3, 5)])
def test_grown_complex_matches_scan_on_every_graph(d, n):
    for H in all_graphs(d, range(1, n + 1)):
        assert_grown_like_scan(H)


def test_grown_complex_matches_scan_on_seeded_graphs():
    rng = random.Random(20100406)
    for n in (6, 7, 8):
        for d, p in ((1, 0.3), (2, 0.2), (2, 0.5), (2, 0.8), (3, 0.3)):
            for _ in range(4):
                H = random_graph(rng, d, range(1, n + 1), p)
                assert_grown_like_scan(H)


def test_grown_complex_is_labeled_by_its_faces(two_k2):
    ind = independence_complex(two_k2)
    for cell in ind.all_cells():
        assert ind.label(cell) == frozenset(cell[0])
    # the induced graph's independence complex is the downset below alpha
    alpha = (1, 2, 3)
    below = downset(ind, ind.mask(alpha))
    assert set(below.all_cells()) == set(
        independence_complex(two_k2.induced(alpha)).all_cells()
    )


def test_grown_complex_is_budgeted(monkeypatch):
    edgeless = Hypergraph(2, range(1, 7), [])
    assert len(independence_complex(edgeless)) == 2 ** 6 - 1
    monkeypatch.setattr(complexes, "CELL_LIMIT", 2 ** 6 - 2)
    with pytest.raises(BudgetError, match="independence complex"):
        independence_complex(edgeless)


# --- betti_hochster against the per-subset route ------------------------

@pytest.mark.parametrize("d, sizes", [(2, (1, 2, 3, 4)), (2, (5,)), (3, (5,))])
def test_hochster_matches_per_subset_route_on_every_graph(d, sizes):
    for n in sizes:
        for H in all_graphs(d, range(1, n + 1)):
            assert_same_tables(H)


def test_hochster_matches_per_subset_route_on_1_graphs_with_loops():
    # every vertex of alpha a loop: the induced independence complex is
    # empty, one unit of homology in degree -1
    for n in range(1, 6):
        for H in all_graphs(1, range(1, n + 1)):
            assert_same_tables(H)
    all_loops = Hypergraph(1, range(1, 4), [(1,), (2,), (3,)])
    assert independence_complex(all_loops).is_empty
    assert betti_hochster(all_loops).get(2, {1, 2, 3}) == 1


def test_hochster_matches_per_subset_route_off_1_to_n():
    verts = [2, 5, 11]
    for d in (1, 2, 3):
        for H in all_graphs(d, verts):
            assert_same_tables(H)
    spread = [2, 5, 11, 13, 40]
    for H in itertools.islice(all_graphs(2, spread), 0, 1024, 7):
        assert_same_tables(H)


def test_hochster_matches_per_subset_route_on_seeded_graphs():
    rng = random.Random(1004)
    for _ in range(6):
        assert_same_tables(interval_complement(rng, 7))
        assert_same_tables(planted_2k2(rng, 7, 0.5))


def test_one_boundary_check_per_hochster_call(monkeypatch, copath5):
    calls = []
    check = complexes._assert_squares_to_zero

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(complexes, "_assert_squares_to_zero", counted)
    for fld in FIELDS:
        calls.clear()
        betti_hochster(copath5, fld)
        assert len(calls) == 1


# --- the sweep over unions of edges against the 2^n subset sweep -------

def assert_like_subset_sweep(H):
    for fld in FIELDS:
        assert betti_hochster(H, fld) == hochster_by_subset_sweep(H, fld), (
            H, fld,
        )


@pytest.mark.parametrize("d, sizes", [(1, (1, 2, 3, 4, 5)),
                                      (2, (1, 2, 3, 4, 5)), (3, (5,))])
def test_union_sweep_matches_subset_sweep_on_every_graph(d, sizes):
    # the 1-graphs reach the empty-complex branch (alpha all loops), and
    # mask 0 of every family is the edgeless graph
    for n in sizes:
        for H in all_graphs(d, range(1, n + 1)):
            assert_like_subset_sweep(H)


def test_union_sweep_matches_subset_sweep_on_seeded_graphs():
    rng = random.Random(20101018)
    for _ in range(4):
        assert_like_subset_sweep(interval_complement(rng, 8))
        assert_like_subset_sweep(planted_2k2(rng, 8, 0.5))
    for d, n, p in ((1, 7, 0.4), (2, 7, 0.3), (2, 8, 0.6), (3, 7, 0.3),
                    (3, 8, 0.15)):
        for _ in range(3):
            assert_like_subset_sweep(random_graph(rng, d, range(1, n + 1), p))
    for verts in ([2, 5, 11], [2, 5, 11, 13, 40]):
        for d in (1, 2, 3):
            assert_like_subset_sweep(
                Hypergraph(d, verts, itertools.combinations(verts[:4], d))
            )
    for n in (1, 6, 9):
        edgeless = Hypergraph(2, range(1, n + 1), [])
        assert betti_hochster(edgeless) == hochster_by_subset_sweep(
            edgeless, GF2
        ) == BettiTable()


def test_union_sweep_cuts_one_downset_per_union(monkeypatch):
    cuts = []
    real = LabeledComplex._select

    def counted(self, mask):
        cuts.append(mask)
        return real(self, mask)

    monkeypatch.setattr(LabeledComplex, "_select", counted)
    # {1, 2}, {11, 12} and their union, of 4,096 vertex subsets
    two_edges = Hypergraph(2, range(1, 13), [(1, 2), (11, 12)])
    assert betti_hochster(two_edges).totals() == (2, 1)
    assert sorted(cuts) == [0b11, 0b1100_0000_0000, 0b1100_0000_0011]


# --- id selections and the three routes --------------------------------

def hochster_corpus():
    rng = random.Random(1016)
    graphs = [Hypergraph(2, range(1, 5), [(1, 2), (3, 4)])]
    for _ in range(3):
        graphs.append(interval_complement(rng, 7))
        graphs.append(planted_2k2(rng, 7, 0.5))
    for d, n, p in ((1, 6, 0.4), (2, 7, 0.3), (3, 6, 0.3)):
        graphs.append(random_graph(rng, d, range(1, n + 1), p))
    return graphs


def test_selections_are_the_downset_ids_on_independence_complexes():
    for H in hochster_corpus():
        ind = independence_complex(H)
        unions = union_closure(ind.mask(e) for e in H.edges)
        every = range(1 << H.n)
        for mask in unions + list(itertools.islice(every, 0, None, 5)):
            for strict in (False, True):
                sets, view = (
                    strict_downset(ind, mask) if strict
                    else (ind._select(mask), downset(ind, mask))
                )
                got = {d: _members(bits) for d, bits in sets.items()}
                assert {
                    d: [ind.cells(d)[i] for i in ids] for d, ids in got.items()
                } == {d: list(view.cells(d)) for d in view.dims()}
                # a face is its own label
                want = {}
                for cell in ind.all_cells():
                    face = ind.mask(cell[0])
                    if not face & ~mask and not (strict and face == mask):
                        want.setdefault(len(cell[0]) - 1, []).append(
                            ind.pos[cell][1]
                        )
                assert got == want, (H, mask, strict)


def test_every_betti_route_keeps_its_tables():
    """Faces, downsets of the block and Taylor complexes, and Hochster's
    sweep, each against the per-subset oracle, over GF(2), GF(3), Q."""
    copath6 = Hypergraph(2, range(1, 7), [
        (i, j) for i in range(1, 7) for j in range(i + 2, 7)
    ])
    rng = random.Random(2010)
    graphs = [copath6, interval_complement(rng, 6),
              Hypergraph(2, range(1, 5), [(1, 2), (3, 4)]),
              planted_2k2(rng, 6, 0.4)]
    assert [H.is_cointerval() for H in graphs] == [True, True, False, False]
    for H in graphs:
        want = hochster_by_subsets(H)
        resolutions = [taylor_complex(H)]
        if H.is_cointerval():
            X = build_complex(H)
            resolutions.append(X)
            assert betti_from_cells(X) == want[GF2], H
        for fld in FIELDS:
            assert betti_hochster(H, fld) == want[fld], (H, fld)
            for X in resolutions:
                assert betti_from_downset_homology(X, fld) == want[fld], (
                    H, fld,
                )
