"""Clearing in `homology_ranks`: every boundary is ranked from the top
dimension down on the selected cells that are not pivot rows of the
boundary above.  The ranks equal those of the per-degree elimination it
replaced, on every selection of the corpora and over every field, and
no cleared column ever reaches a kernel."""

import random
from pathlib import Path

import pytest
from sympy import GF as sympy_GF
from sympy import QQ as sympy_QQ
from sympy.polys.matrices import DomainMatrix

from cointerval import (
    GF2,
    GF3,
    GF32003,
    QQ,
    Hypergraph,
    _kernels,
    build_complex,
    homology_ranks,
    independence_complex,
    read_complex_dump,
    taylor_complex,
)
from cointerval._kernels import _picked, pivot_rows_mod, pivot_rows_packed
from cointerval.casestudy import enumerate_classes
from cointerval.complexes import union_closure
from cointerval.resolution import _certified

from graphs import all_graphs, copath, planted_2k2, random_graph

ALL_FIELDS = (GF2, GF3, GF32003, QQ)
GOLDEN = Path(__file__).parent / "golden"
DUMPS = ("input_taylor_2k2.dump", "input_join_2k2.dump",
         "input_noncointerval.dump")


def boundary_rank(X, p, k, bits):
    """Rank of the boundary d_k on the selected k-cells, every one of
    them handed to the kernel; d_0 is the augmentation."""
    if not bits:
        return 0
    if not k:
        return 1
    if p == 2:
        return len(pivot_rows_packed(_picked(X.packed_columns(k), bits)))
    return len(pivot_rows_mod(_picked(X.columns(k), bits), p))


def uncleared_ranks(X, field, sets=None):
    """`homology_ranks` before clearing: each degree's boundary ranked on
    its own, on all its selected columns."""
    if sets is None:
        sets = X._sets
    top = max(sets, default=-1)
    rk = [boundary_rank(X, field.char, k, sets.get(k)) for k in range(top + 2)]
    return [
        sets.get(k, 0).bit_count() - rk[k] - rk[k + 1]
        for k in range(top + 1)
    ]


def lattice_selections(X):
    """Every downset of X in its label lattice, as `_select` cuts it."""
    return [X._select(mask) for mask in X.lattice_masks()]


def assert_matches_oracle(name, X, selections):
    for fld in ALL_FIELDS:
        assert homology_ranks(X, fld) == uncleared_ranks(X, fld), (name, fld)
        for sets in selections:
            assert homology_ranks(X, fld, sets) == uncleared_ranks(
                X, fld, sets
            ), (name, fld, sets)


def test_cleared_ranks_match_the_oracle_on_lattice_downsets(
    copath5, scrambled
):
    planted = Hypergraph(2, range(1, 8), list(copath5.edges) + [(6, 7)])
    rng = random.Random(27)
    corpus = [("scrambled", scrambled), ("planted", build_complex(planted))]
    corpus += [(f"copath{n}", build_complex(copath(n))) for n in range(4, 11)]
    corpus += [
        (f"planted_2k2_{i}", build_complex(planted_2k2(rng, n, 0.5)))
        for i, n in enumerate((6, 7, 7, 8))
    ]
    corpus += [
        (f"taylor{i}", taylor_complex(H))
        for i, H in enumerate((copath5, planted, copath(6)))
    ]
    corpus += [(name, read_complex_dump(GOLDEN / name)) for name in DUMPS]
    for name, X in corpus:
        assert_matches_oracle(name, X, lattice_selections(X))


def test_cleared_ranks_match_the_oracle_on_small_2_graphs():
    # every labeled 2-graph on at most 5 vertices, and one of each
    # isomorphism class on 6
    graphs = [H for n in range(2, 6) for H in all_graphs(2, range(1, n + 1))]
    graphs += enumerate_classes(2, 6)
    for H in graphs:
        X = build_complex(H)
        if not X.is_empty:
            assert_matches_oracle(H, X, lattice_selections(X))


def test_cleared_ranks_match_the_oracle_on_independence_complexes(two_k2):
    # Hochster's sweep: the downsets of the independence complex below
    # the unions of edges
    rng = random.Random(1016)
    graphs = [two_k2, copath(7)]
    graphs += [planted_2k2(rng, 7, 0.5) for _ in range(3)]
    graphs += [random_graph(rng, d, range(1, n + 1), p)
               for d, n, p in ((2, 7, 0.3), (3, 6, 0.3))]
    for H in graphs:
        ind = independence_complex(H)
        selections = [
            ind._select(mask)
            for mask in union_closure(ind.mask(e) for e in H.edges)
        ]
        assert_matches_oracle(H, ind, [s for s in selections if s])


def kernel_columns(monkeypatch):
    """The column count of every kernel call, in call order."""
    calls = []
    real_mod, real_packed = pivot_rows_mod, pivot_rows_packed

    def counted_mod(cols, p):
        calls.append(len(cols))
        return real_mod(cols, p)

    def counted_packed(masks):
        calls.append(len(masks))
        return real_packed(masks)

    monkeypatch.setattr(_kernels, "pivot_rows_mod", counted_mod)
    monkeypatch.setattr(_kernels, "pivot_rows_packed", counted_packed)
    return calls


@pytest.mark.parametrize("name", ["scrambled", "input_noncointerval.dump"])
def test_no_cleared_column_reaches_a_kernel(name, scrambled, monkeypatch):
    """On every degree the lead matching leaves open, d_k is handed
    |D^k| - r_{k+1} columns, from the top dimension down, where r_{k+1}
    is the rank of d_{k+1} on the whole downset D."""
    X = scrambled if name == "scrambled" else read_complex_dump(GOLDEN / name)
    lattice = X.lattice_masks()
    certified = _certified(X, lattice)
    open_masks = [m for i, m in enumerate(lattice) if not certified >> i & 1]
    assert open_masks
    calls = kernel_columns(monkeypatch)
    cut = 0
    for fld in ALL_FIELDS:
        for mask in open_masks:
            sets = X._select(mask)
            top = max(sets)
            rk = {k: boundary_rank(X, fld.char, k, sets.get(k))
                  for k in range(2, top + 2)}
            want = [
                sets.get(k, 0).bit_count() - rk[k + 1]
                for k in range(top, 0, -1)
            ]
            cut += sum(rk.values())
            calls.clear()
            homology_ranks(X, fld, sets)
            assert calls == [n for n in want if n], (name, fld, mask)
    assert cut  # some column was cleared


def row_rank(rows, dom):
    return DomainMatrix.from_list(rows, dom).rank() if rows else 0


def test_pivot_rows_are_the_rank_jumps_with_non_unit_leads():
    """The pivot rows of a left-to-right reduction are the rows i at
    which the rank of the rows >= i exceeds that of the rows > i; with
    leads other than +-1 over odd primes, over a huge prime and mod 2
    through the sparse reduction."""
    rng = random.Random(2014)
    primes = (2, 3, 7, 32003, 2**61 - 1)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = [[rng.choice((0, 0, 2, 3, -4, 5, 7, -9, 10**12 + 1))
                 for _ in range(ncols)] for _ in range(nrows)]
        cols = [tuple((i, row[j]) for i, row in enumerate(rows) if row[j])
                for j in range(ncols)]
        for p in primes + (0,):
            dom = sympy_QQ if p == 0 else sympy_GF(p)
            rank = [row_rank(rows[i:], dom) for i in range(nrows + 1)]
            want = {i for i in range(nrows) if rank[i] > rank[i + 1]}
            got = pivot_rows_mod(cols, p)
            assert len(got) == len(set(got)) == rank[0], (rows, p)
            assert set(got) == want, (rows, p)
        assert pivot_rows_mod(cols, 2) == pivot_rows_packed(
            _kernels.pack_gf2(cols)
        ), rows


def test_new_pivots_keep_their_entries():
    # a new pivot is stored as reduced, not scaled to lead 1: a -1 lead
    # stays p - 1 and a lead of 3 stays 3, and the pivot rows come in
    # the order they were found
    cols = [((0, 1), (2, -1)), ((1, 3), (2, 3)), ((0, 2), (1, 1), (2, 1))]
    assert _kernels._reduce(cols, 5) == {
        2: {0: 1, 2: 4}, 1: {0: 3, 1: 3}, 0: {0: 2}
    }
    assert pivot_rows_mod(cols, 5) == [2, 1, 0]
    # the determinant is 6: rank 2 mod 2 and mod 3, 3 otherwise
    for p in (2, 3, 5, 7, 32003, 2**61 - 1, 0):
        assert len(pivot_rows_mod(cols, p)) == (2 if p in (2, 3) else 3), p
