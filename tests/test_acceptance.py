"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test emits a `criterion N: PASS/FAIL` line into the terminal
summary (see conftest) and enforces the stated runtime budgets where a
criterion carries one.
"""

import contextlib
import itertools
import random
import time

from cointerval import (
    GF2,
    GF3,
    GF32003,
    QQ,
    Hypergraph,
    betti_from_cells,
    betti_from_downset_homology,
    betti_hochster,
    build_complex,
    burnside_count,
    classify_all,
    enumerate_classes,
    enumerate_staircase,
    find_cointerval_labeling,
    fold,
    glued_resolution,
    homology_ranks,
    linear_width,
    restrict_to_graph,
    staircase_volume,
    taylor_complex,
    verify_resolution,
)
from cointerval.casestudy import counterexample_search, net_graph
from cointerval.cli import main

from graphs import all_graphs, downset

ALL_FIELDS = (GF2, GF3, GF32003, QQ)


@contextlib.contextmanager
def criterion(acceptance, number, summary, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        acceptance(f"criterion {number}: FAIL  {summary}")
        raise
    elapsed = time.perf_counter() - start
    note = f"{elapsed:.1f}s"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} over budget: {note}"
        note += f" < {budget:.0f}s"
    acceptance(f"criterion {number}: PASS  {summary} [{note}]")


def cointerval_labeled(H):
    """The class representative relabeled so the labels certify cointervality."""
    if H.is_cointerval():
        return H
    cert = find_cointerval_labeling(H)
    return H.relabel(cert) if cert else None


def test_criterion_1_worked_resolution(acceptance, capsys, tmp_path):
    """The running 2-graph resolves with coarse (7,11,6,1), exact fine table."""
    with criterion(acceptance, 1, "worked resolution of the running example", 1.0):
        src = tmp_path / "copath5.txt"
        src.write_text("2 5\n1 2\n1 3\n1 4\n1 5\n2 4\n2 5\n3 5\n")
        assert main(["resolve", str(src)]) == 0
        out = capsys.readouterr().out
        assert "betti (coarse): 7 11 6 1" in out
        assert "f-vector: 7 11 6 1" in out
        assert "1 | 1 2 4 | 2" in out
        assert "2 | 1 2 3 5 | 2" in out
        assert "3 | 1 2 3 4 5 | 1" in out
        assert "acyclic: pass" in out and "minimal: yes" in out
        # the fine table, entry for entry
        H = Hypergraph(
            2, range(1, 6), [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)]
        )
        table = betti_from_cells(build_complex(H))
        fine = {
            (i, " ".join(map(str, a))): b for i, a, b in table.sorted_entries()
        }
        for (i, alpha), b in fine.items():
            assert f"{i} | {alpha} | {b}" in out
        assert table.totals() == (7, 11, 6, 1)


def test_criterion_2_triple_agreement(acceptance):
    """faces == downset homology == Hochster over GF(2) and Q."""
    with criterion(acceptance, 2, "three Betti methods agree on the corpus", 120.0):
        corpus = list(enumerate_classes(3, 5))
        for n in range(1, 6):
            corpus.extend(enumerate_classes(2, n))
        for H in corpus:
            G = cointerval_labeled(H)
            if G is not None:
                X = build_complex(G)
                faces = betti_from_cells(X)
                for fld in (GF2, QQ):
                    assert betti_from_downset_homology(X, fld) == faces
                    assert betti_hochster(G, fld) == faces
            else:
                # no cellular table exists; cross-check Hochster against the
                # Taylor complex, which resolves any edge ideal
                T = taylor_complex(H)
                for fld in (GF2, QQ):
                    assert betti_from_downset_homology(
                        T, fld
                    ) == betti_hochster(H, fld)


def test_criterion_3_case_study_counts(acceptance):
    """34 classes of 3-graphs on [5]: 26 cointerval, 16 ss, 10 in the gap."""
    with criterion(acceptance, 3, "case-study classification counts"):
        rows = classify_all(3, 5)
        assert len(rows) == 34
        assert sum(r.cointerval for r in rows) == 26
        assert sum(r.strongly_stable for r in rows) == 16
        assert sum(r.cointerval and not r.strongly_stable for r in rows) == 10
        assert burnside_count(3, 5) == 34


def test_criterion_4_mixed_subdivision(acceptance):
    """Staircase cells, volume identity, and the face-poset isomorphism."""
    with criterion(acceptance, 4, "staircase subdivision matches the complex"):
        assert enumerate_staircase(2, 3) == [
            (1, 1, 4),
            (1, 2, 4),
            (1, 3, 4),
            (1, 4, 4),
        ]
        assert enumerate_staircase(3, 2) == [
            (1, 1, 1, 3),
            (1, 1, 2, 3),
            (1, 1, 3, 3),
            (1, 2, 2, 3),
            (1, 2, 3, 3),
            (1, 3, 3, 3),
        ]
        import math

        for d in range(1, 7):
            for m in range(0, 7):
                cells = enumerate_staircase(d, m)
                assert len(cells) == math.comb(m + d - 1, d - 1)
                assert sum(staircase_volume(b) for b in cells) == d**m
        for n in range(2, 7):
            for H in all_graphs(2, range(1, n + 1)):
                geom = restrict_to_graph(2, n, H)
                assert geom.block_cells() == set(build_complex(H).all_cells())
        for H in all_graphs(3, range(1, 6)):
            geom = restrict_to_graph(3, 5, H)
            assert geom.block_cells() == set(build_complex(H).all_cells())


def test_criterion_5_counterexample(acceptance):
    """All 720 labelings of the net complement fail; cointerval ones pass."""
    with criterion(acceptance, 5, "net-complement counterexample", 300.0):
        report = counterexample_search(
            net_graph().complement(), fields=(GF2, QQ)
        )
        assert report.total == 720
        assert not report.passing
        assert report.passing == []
        # sanity half: the certified labeling of every cointerval class passes
        for H in enumerate_classes(3, 5):
            G = cointerval_labeled(H)
            if G is None:
                continue
            assert verify_resolution(build_complex(G), fields=(GF2,)).passed


def test_criterion_6_froberg(acceptance):
    """Linear Hochster table over GF(2) iff chordal complement, n <= 6."""
    with criterion(acceptance, 6, "linear resolution iff chordal complement"):
        for n in range(1, 7):
            for H in enumerate_classes(2, n):
                linear = betti_hochster(H, GF2).is_d_linear(2)
                assert linear == H.complement().is_chordal(), H


def test_criterion_7_decomposition(acceptance):
    """Every (3,5) width cover glues to a verified resolution; gap exists."""
    with criterion(acceptance, 7, "covers glue to resolutions; ss gap class"):
        rows = classify_all(3, 5)
        gaps = []
        for row in rows:
            for family, cover in (
                ("cointerval", row.cover_cointerval),
                ("ss", row.cover_ss),
            ):
                if not row.H.edges:
                    continue
                _, report = glued_resolution(
                    row.H, cover, fields=(GF2,), family=family
                )
                assert report.passed, (row.index, family)
            if row.width_cointerval == 2 and row.width_ss == 3:
                gaps.append(row.index)
        assert gaps, "no class separates the two widths"


def test_criterion_8_property_suites(acceptance):
    """Fold invariance, induced closure, characteristic independence."""
    with criterion(acceptance, 8, "fold / closure / characteristic properties"):
        # (a) 200 randomized valid fold triples, homology before == after
        rng = random.Random(20260826)
        done = 0
        while done < 200:
            d = rng.choice((2, 3))
            n = rng.randint(d + 1, 6 if d == 2 else 5)
            universe = list(itertools.combinations(range(1, n + 1), d))
            edges = [e for e in universe if rng.random() < 0.5]
            H = Hypergraph(d, range(1, n + 1), edges)
            pairs = [
                (i, j)
                for i, j in itertools.combinations(sorted(H.support()), 2)
                if H.layer(j).edges and H.layer(j).edges <= H.layer(i).edges
            ]
            if not pairs:
                continue
            i, j = pairs[rng.randrange(len(pairs))]
            done += 1
            before = homology_ranks(build_complex(H), GF2)
            after = homology_ranks(build_complex(fold(H, i, j)), GF2)
            assert {k: r for k, r in enumerate(before) if r} == {
                k: r for k, r in enumerate(after) if r
            }, (H.edge_list(), i, j)
        # (b) induced-subgraph closure of cointervality at n <= 6
        closure_corpus = [
            G
            for n in range(2, 7)
            for G in map(cointerval_labeled, enumerate_classes(2, n))
            if G is not None
        ]
        closure_corpus += [
            G for G in map(cointerval_labeled, enumerate_classes(3, 5)) if G
        ]
        for G in closure_corpus:
            for r in range(len(G.vertices) + 1):
                for W in itertools.combinations(G.vertices, r):
                    assert G.induced(W).is_cointerval(), (G, W)
        # (c) characteristic independence of every rank on the corpus
        two_k2 = Hypergraph(2, range(1, 5), [(1, 2), (3, 4)])
        _, cover = linear_width(two_k2)
        glued, _ = glued_resolution(two_k2, cover)
        rank_corpus = [
            build_complex(
                Hypergraph(
                    2,
                    range(1, 6),
                    [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)],
                )
            ),
            build_complex(Hypergraph(3, range(1, 6), [(1, 2, 3), (1, 2, 4)])),
            taylor_complex(two_k2),
            taylor_complex(net_graph().complement()),
            glued,
        ]
        rank_corpus += [
            build_complex(G)
            for G in map(cointerval_labeled, enumerate_classes(3, 5))
            if G is not None
        ]
        for X in rank_corpus:
            if X.is_empty:
                continue
            for mask in X.lattice_masks():
                sub = downset(X, mask)
                ranks = {fld: tuple(homology_ranks(sub, fld)) for fld in ALL_FIELDS}
                assert len(set(ranks.values())) == 1, (X.label_of(mask), ranks)
