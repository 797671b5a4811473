import itertools
import math

import pytest

from cointerval import (
    Hypergraph,
    PreconditionError,
    build_complex,
    cell_to_blocks,
    depolarize,
    enumerate_staircase,
    export_geometry,
    polarize,
    polarize_blocks,
    restrict_to_graph,
    staircase_volume,
)
from cointerval.staircase import window_bseq

from graphs import refusal


def test_staircase_2_3():
    assert enumerate_staircase(2, 3) == [
        (1, 1, 4),
        (1, 2, 4),
        (1, 3, 4),
        (1, 4, 4),
    ]
    assert refusal(enumerate_staircase, 0, 2) == (
        ValueError, "need d >= 1 and m >= 0, got d=0 m=2"
    )


def test_staircase_3_2():
    assert enumerate_staircase(3, 2) == [
        (1, 1, 1, 3),
        (1, 1, 2, 3),
        (1, 1, 3, 3),
        (1, 2, 2, 3),
        (1, 2, 3, 3),
        (1, 3, 3, 3),
    ]


def test_cell_count_identity():
    for d in range(1, 7):
        for m in range(0, 7):
            cells = enumerate_staircase(d, m)
            assert len(cells) == math.comb(m + d - 1, d - 1), (d, m)
            assert len(set(cells)) == len(cells)


def test_volume_identity():
    # normalized volumes of the top cells tile the dilated simplex
    for d in range(1, 7):
        for m in range(0, 7):
            total = sum(staircase_volume(b) for b in enumerate_staircase(d, m))
            assert total == d**m, (d, m)


def test_polarization():
    assert polarize((1, 1)) == (1, 2)
    assert polarize((2, 2, 3)) == (2, 3, 5)
    for ms in [(1,), (1, 1, 1), (1, 2, 2, 4)]:
        assert depolarize(polarize(ms)) == ms
    with pytest.raises(ValueError):
        polarize(())
    with pytest.raises(ValueError):
        polarize((2, 1))  # must be sorted
    with pytest.raises(ValueError):
        depolarize((2, 2))  # not strictly increasing
    assert refusal(depolarize, (0, 2)) == (
        ValueError, "(0, 2) is not in the image of polarize"
    )


def test_cell_to_blocks():
    assert cell_to_blocks((1, 2, 4)) == ((1, 2), (3, 4, 5))
    assert cell_to_blocks((1, 1, 4)) == ((1,), (2, 3, 4, 5))
    assert cell_to_blocks((1, 1, 1, 3)) == ((1,), (2,), (3, 4, 5))
    # blocks are the blockwise polarization of the window tuple
    for bseq in enumerate_staircase(3, 4):
        windows = tuple(
            tuple(range(bseq[i], bseq[i + 1] + 1)) for i in range(3)
        )
        assert polarize_blocks(windows) == cell_to_blocks(bseq)


def brute_weak_tuples(d, m):
    """Every d-tuple of nonempty subsets of 1..m+1 with
    max(t_i) <= min(t_(i+1))."""
    points = range(1, m + 2)
    subsets = [
        t for k in range(1, m + 2) for t in itertools.combinations(points, k)
    ]
    return {
        taus for taus in itertools.product(subsets, repeat=d)
        if all(a[-1] <= b[0] for a, b in zip(taus, taus[1:]))
    }


@pytest.mark.parametrize("d, m", [(2, 3), (3, 3)])
def test_complete_graph_keeps_every_weak_tuple(d, m):
    n = m + d
    complete = Hypergraph(
        d, range(1, n + 1), itertools.combinations(range(1, n + 1), d)
    )
    geom = restrict_to_graph(d, n, complete)
    faces = [taus for fs in geom.faces_by_dim.values() for taus in fs]
    assert len(set(faces)) == len(faces)
    assert set(faces) == brute_weak_tuples(d, m)
    assert all(t for taus in faces for t in taus)
    # vertices of the full subdivision: one per size-d multiset from [m+1]
    assert len(geom.vertices) == math.comb(m + d, d)


def test_window_bseq_roundtrip():
    for d, m in [(2, 3), (3, 2), (3, 4)]:
        for bseq in enumerate_staircase(d, m):
            taus = tuple(
                tuple(range(bseq[i], bseq[i + 1] + 1)) for i in range(d)
            )
            assert window_bseq(taus, m) == bseq


def test_restrict_k5():
    K5 = Hypergraph(2, range(1, 6), itertools.combinations(range(1, 6), 2))
    geom = restrict_to_graph(2, 5, K5)
    assert len(geom.vertices) == 10  # one per edge of K5
    assert len(geom.maximal) == 4
    assert geom.f_vector() == (10, 20, 15, 4)


def test_restrict_worked_example(copath5):
    geom = restrict_to_graph(2, 5, copath5)
    assert geom.f_vector() == (7, 11, 6, 1)
    assert geom.block_cells() == set(build_complex(copath5).all_cells())


def test_restrict_single_edge():
    geom = restrict_to_graph(2, 2, Hypergraph(2, [1, 2], [(1, 2)]))
    assert len(geom.vertices) == 1
    assert geom.f_vector() == (1,)


def test_poset_isomorphism_small():
    # subdivision faces surviving the edge filter == labeled complex cells
    universe = list(itertools.combinations(range(1, 6), 2))
    for mask in range(2 ** len(universe)):
        edges = [e for i, e in enumerate(universe) if mask >> i & 1]
        H = Hypergraph(2, range(1, 6), edges)
        geom = restrict_to_graph(2, 5, H)
        assert geom.block_cells() == set(build_complex(H).all_cells()), edges


def test_restrict_preconditions(copath5):
    with pytest.raises(PreconditionError):
        restrict_to_graph(3, 5, copath5)  # d mismatch
    with pytest.raises(PreconditionError):
        restrict_to_graph(2, 6, copath5)  # vertex set is not 1..6
    gap = Hypergraph(2, (1, 3), [(1, 3)])
    with pytest.raises(PreconditionError):
        restrict_to_graph(2, 3, gap)
    assert refusal(restrict_to_graph, 2, 1, Hypergraph(2, [1], [])) == (
        PreconditionError, "need n >= d, got n=1 d=2"
    )


def test_export_deterministic(copath5):
    geom = restrict_to_graph(2, 5, copath5)
    text = export_geometry(geom)
    assert text == export_geometry(restrict_to_graph(2, 5, copath5))
    head = text.splitlines()[0]
    assert head == "2 3 5"
    assert "vertices:" in text and "cells:" in text and "faces:" in text
