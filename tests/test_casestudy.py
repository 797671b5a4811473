import pytest

from cointerval import (
    BudgetError,
    Hypergraph,
    burnside_count,
    classification_table,
    classify_all,
    counterexample_search,
    enumerate_classes,
    net_complement,
    net_graph,
    ss_width_gap_search,
)


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
    assert not rep.any_passing
    assert rep.passing == []


def test_counterexample_search_cointerval(copath5):
    rep = counterexample_search(copath5)
    assert rep.total == 120
    assert rep.distinct == 60
    assert rep.any_passing
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
    comp = net_complement()
    assert len(comp.edge_list()) == 9
    assert comp.canonical_form() == net.complement().canonical_form()


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
