import collections
import itertools

import pytest

from cointerval import (
    GF2,
    BudgetError,
    Cover,
    Hypergraph,
    PreconditionError,
    betti_hochster,
    build_complex,
    burnside_count,
    classification_table,
    classify_all,
    counterexample_search,
    enumerate_classes,
    net_graph,
    ss_width_gap_search,
)
from cointerval import casestudy, covers
from cointerval.casestudy import ClassRow
from cointerval.hypergraph import (
    find_cointerval_labeling,
    find_strongly_stable_labeling,
)

DIFFERENTIAL_SIZES = [(1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]


def test_class_counts_match_burnside():
    for d, n, expect in [(2, 3, 4), (2, 4, 11), (3, 4, 5), (2, 5, 34)]:
        classes = enumerate_classes(d, n)
        assert len(classes) == expect
        assert burnside_count(d, n) == expect
        # representatives are pairwise non-isomorphic
        forms = {H.canonical_form() for H in classes}
        assert len(forms) == expect


def test_classes_sorted_and_canonical():
    classes = enumerate_classes(2, 4)
    keys = [(len(H.edge_list()), H.edge_list()) for H in classes]
    assert keys == sorted(keys)
    assert classes[0].edge_list() == []


def test_classify_2_4():
    rows = classify_all(2, 4)
    assert len(rows) == 11
    assert sum(r.cointerval for r in rows) == 10
    assert sum(r.strongly_stable for r in rows) == 8
    assert sum(r.cointerval and not r.strongly_stable for r in rows) == 2
    # 2K2 is the unique non-cointerval class on 4 vertices
    bad = [r for r in rows if not r.cointerval]
    assert len(bad) == 1
    assert bad[0].H.canonical_form() == Hypergraph(
        2, range(1, 5), [(1, 2), (3, 4)]
    ).canonical_form()
    assert bad[0].f_vector is None
    assert bad[0].width_cointerval == 2


def test_row_invariants():
    for row in classify_all(2, 4):
        if row.cointerval:
            assert row.f_vector is not None
            assert row.width_cointerval <= 1
        else:
            assert row.width_cointerval >= 2
        assert row.width_ss >= row.width_cointerval
        # coarse Betti lives on the d-linear strand iff chordal complement
        assert row.coarse_betti is not None


def test_table_shape():
    text = classification_table(classify_all(2, 3))
    lines = text.splitlines()
    assert lines[0].startswith("class | edges |")
    assert len(lines) == 5
    assert lines[1] == "1 | - | yes | yes | - | - | 0 | 0"
    assert lines[4] == "4 | 12 13 23 | yes | yes | 3 2 | 0,2:3 1,3:2 | 1 | 1"


def test_counterexample_search_2k2(two_k2):
    rep = counterexample_search(two_k2)
    assert rep.total == 24
    assert rep.distinct == 3  # relabelings of 2K2 up to equal edge sets
    assert not rep.passing
    assert rep.passing == []


def test_counterexample_search_cointerval(copath5):
    rep = counterexample_search(copath5)
    assert rep.total == 120
    assert rep.distinct == 60
    assert rep.passing
    assert len(rep.passing) == 20
    ident = {v: v for v in copath5.vertices}
    assert ident in rep.passing


def test_net_graph_shapes():
    net = net_graph()
    assert sorted(net.edge_list()) == [
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 5),
        (3, 6),
    ]
    comp = net.complement()
    assert len(comp.edge_list()) == 9
    assert comp.complement() == net


def test_ss_width_gap():
    gap = ss_width_gap_search()
    assert [(r.width_cointerval, r.width_ss) for r in gap] == [(2, 3)]
    assert not gap[0].cointerval


def test_counterexample_search_refuses_no_fields(two_k2):
    with pytest.raises(ValueError, match="at least one field"):
        counterexample_search(two_k2, fields=())


def test_guards():
    with pytest.raises(BudgetError):
        enumerate_classes(2, 7)  # 21 possible edges > budget
    big = Hypergraph(2, range(1, 8), [(1, 2)])
    with pytest.raises(BudgetError):
        counterexample_search(big)  # 7! labelings > budget


@pytest.mark.parametrize(
    "d, n, message",
    [
        (-1, 4, "uniformity must be >= 1, got -1"),
        (0, 4, "uniformity must be >= 1, got 0"),
        (2, -2, "vertex count must be >= 0, got -2"),
    ],
)
def test_bad_sizes_are_refused_before_any_count(d, n, message):
    for survey in (enumerate_classes, burnside_count, classify_all):
        with pytest.raises(PreconditionError) as info:
            survey(d, n)
        assert str(info.value) == message


def oracle_linear_width(H, family):
    """`linear_width` as a per-part loop: one family search per nonempty
    edge subset, certificates kept from those searches, then the
    depth-first search for the least cover."""
    search, _is_member = covers._family(family)
    edge_list = H.edge_list()
    t = len(edge_list)
    if t == 0:
        return 0, Cover((), ())
    feasible = []
    for size in range(1, t + 1):
        for combo in itertools.combinations(range(t), size):
            subset = [edge_list[i] for i in combo]
            cert = covers._part_cert(H, subset, search)
            if cert is not None:
                mask = sum(1 << i for i in combo)
                feasible.append((tuple(subset), mask, cert))
    feasible.sort(key=lambda item: item[0])
    full = (1 << t) - 1
    dead = {}

    def dfs(start, k_left, union, chosen):
        if union == full:
            return chosen if k_left == 0 else None
        if k_left == 0 or start >= dead.get((union, k_left), len(feasible)):
            return None
        for i in range(start, len(feasible)):
            mask = feasible[i][1]
            if mask | union == union:
                continue
            got = dfs(i + 1, k_left - 1, union | mask, chosen + (i,))
            if got is not None:
                return got
        dead[(union, k_left)] = start
        return None

    for k in range(1, t + 1):
        picked = dfs(0, k, 0, ())
        if picked is not None:
            parts = tuple(
                Hypergraph(H.d, H.vertices, feasible[i][0]) for i in picked
            )
            return k, Cover(parts, tuple(feasible[i][2] for i in picked))
    raise AssertionError("single edges are always feasible")


def oracle_row(idx, H):
    co = find_cointerval_labeling(H)
    fvec = build_complex(H.relabel(co)).f_vector() if co else None
    wc, cover_c = oracle_linear_width(H, "cointerval")
    ws, cover_s = oracle_linear_width(H, "ss")
    return ClassRow(
        idx, H, co, find_strongly_stable_labeling(H), fvec,
        betti_hochster(H, GF2).coarse(), wc, ws, cover_c, cover_s,
    )


@pytest.mark.parametrize("d, n", DIFFERENTIAL_SIZES)
def test_classify_all_matches_the_per_part_oracle(d, n):
    rows = classify_all(d, n)
    assert [row.H for row in rows] == enumerate_classes(d, n)
    for row in rows:
        expect = oracle_row(row.index, row.H)
        for name in ClassRow.__dataclass_fields__:
            assert getattr(row, name) == getattr(expect, name), (row.H, name)


@pytest.mark.parametrize("d, n", DIFFERENTIAL_SIZES)
def test_orbit_sweep_classes_and_canonical_forms(d, n):
    universe, classes, class_of = casestudy._orbit_sweep(d, n)
    assert classes == enumerate_classes(d, n)
    assert len(classes) == burnside_count(d, n)
    assert len(class_of) == 1 << len(universe)
    for H in classes:
        assert H.canonical_form() == H
    for mask, c in enumerate(class_of):
        G = Hypergraph(
            d, range(1, n + 1),
            [e for i, e in enumerate(universe) if mask >> i & 1],
        )
        assert G.canonical_form() == classes[c], (mask, c)


def test_classify_all_searches_once_per_class(monkeypatch):
    # the per-part loop ran 3,275 searches per family on (3, 5); the
    # class flags then ran a second search per class, through covers
    calls = collections.Counter()
    names = ("find_cointerval_labeling", "find_strongly_stable_labeling")
    for module in (covers, casestudy):
        for name in names:
            def counted(G, key=(module, name), search=getattr(module, name)):
                calls[key] += 1
                return search(G)

            monkeypatch.setattr(module, name, counted)
    rows = classify_all(3, 5)
    assert len(rows) == 34
    picked = [
        sum(len(row.cover_cointerval.parts) for row in rows),
        sum(len(row.cover_ss.parts) for row in rows),
    ]
    for name, parts in zip(names, picked):
        assert calls[covers, name] == parts  # the picked parts' labelings
        assert calls[casestudy, name] == 34  # one search per class


@pytest.mark.parametrize("d, n", [(1, 0), (1, 3), (2, 4), (3, 5), (4, 5)])
def test_relabeling_tables_match_sorted_images(d, n):
    """Edges looked up by vertex mask land where the sorted image does."""
    universe = casestudy._edge_universe(d, n)
    index = {e: i for i, e in enumerate(universe)}
    want = [
        [index[tuple(sorted(perm[v - 1] for v in e))] for e in universe]
        for perm in itertools.permutations(range(1, n + 1))
    ]
    assert list(casestudy._relabelings(universe, n)) == want
