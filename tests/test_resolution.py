import copy
import itertools
import pickle
from pathlib import Path

import pytest

from cointerval import (
    BlockComplex,
    GF2,
    GF3,
    GF32003,
    QQ,
    BettiTable,
    BudgetError,
    Hypergraph,
    PreconditionError,
    betti_from_downset_homology,
    betti_from_faces,
    betti_hochster,
    build_complex,
    cube_betti,
    independence_complex,
    read_complex_dump,
    taylor_complex,
    verify_resolution,
)
from cointerval import _kernels
from cointerval.homology import ACYCLIC, EMPTY, acyclicity_status
from cointerval.resolution import (
    HOCHSTER_VERTEX_LIMIT,
    TAYLOR_EDGE_LIMIT,
    VerificationReport,
    verify_minimal,
)

GOLDEN = Path(__file__).parent / "golden"

# resolution of the running example, frozen entry by entry
COPATH5_TABLE = {
    (0, frozenset({1, 2})): 1,
    (0, frozenset({1, 3})): 1,
    (0, frozenset({1, 4})): 1,
    (0, frozenset({1, 5})): 1,
    (0, frozenset({2, 4})): 1,
    (0, frozenset({2, 5})): 1,
    (0, frozenset({3, 5})): 1,
    (1, frozenset({1, 2, 3})): 1,
    (1, frozenset({1, 2, 4})): 2,
    (1, frozenset({1, 2, 5})): 2,
    (1, frozenset({1, 3, 4})): 1,
    (1, frozenset({1, 3, 5})): 2,
    (1, frozenset({1, 4, 5})): 1,
    (1, frozenset({2, 3, 5})): 1,
    (1, frozenset({2, 4, 5})): 1,
    (2, frozenset({1, 2, 3, 4})): 1,
    (2, frozenset({1, 2, 3, 5})): 2,
    (2, frozenset({1, 2, 4, 5})): 2,
    (2, frozenset({1, 3, 4, 5})): 1,
    (3, frozenset({1, 2, 3, 4, 5})): 1,
}


def test_worked_example_fine_table(copath5):
    table = betti_from_faces(copath5)
    assert table.entries == COPATH5_TABLE
    assert table.totals() == (7, 11, 6, 1)
    assert table.pdim() == 3
    assert table.is_d_linear(2)
    assert table.get(1, {1, 2, 4}) == 2
    assert table.get(2, {1, 2, 3, 5}) == 2
    assert table.get(3, {1, 2, 3, 4, 5}) == 1
    assert table.get(1, {2, 3, 4}) == 0


def test_three_methods_agree(copath5, k4_3):
    for H in (copath5, k4_3):
        X = build_complex(H)
        faces = betti_from_faces(H)
        for fld in (GF2, QQ):
            assert betti_from_downset_homology(X, fld) == faces
            assert betti_hochster(H, fld) == faces


def test_betti_from_faces_needs_cointerval(two_k2):
    with pytest.raises(PreconditionError):
        betti_from_faces(two_k2)


def test_hochster_handles_any_graph(two_k2):
    table = betti_hochster(two_k2)
    assert table.entries == {
        (0, frozenset({1, 2})): 1,
        (0, frozenset({3, 4})): 1,
        (1, frozenset({1, 2, 3, 4})): 1,
    }
    assert not table.is_d_linear(2)  # the 4-cycle independence class obstructs


def test_verify_worked_example(copath5):
    X = build_complex(copath5)
    report = verify_resolution(X, fields=(GF2, GF3, QQ))
    assert report.passed and report.minimal
    assert len(report.alpha_status) == 21
    assert not report.failures
    assert "pass" in report.summary()


def test_verify_fails_on_two_points(two_k2):
    X = build_complex(two_k2)
    report = verify_resolution(X)
    assert not report.passed
    assert (frozenset({1, 2, 3, 4}), GF2) in report.failures
    report_ff = verify_resolution(X, fail_fast=True)
    assert len(report_ff.failures) == 1


def test_verify_empty_complex():
    X = build_complex(Hypergraph(2, [1, 2, 3], []))
    report = verify_resolution(X)
    assert report.passed and report.minimal
    assert report.alpha_status == []


def test_taylor_always_resolves_but_rarely_minimal():
    K3 = Hypergraph(2, range(1, 4), itertools.combinations(range(1, 4), 2))
    T = taylor_complex(K3)
    assert T.f_vector() == (3, 3, 1)
    report = verify_resolution(T, fields=(GF2, QQ))
    assert report.passed
    assert not report.minimal  # all four top-dimensional labels coincide
    assert not verify_minimal(T)
    # yet the Betti numbers it reports are the true (minimal) ones
    assert betti_from_downset_homology(T, checked=True) == betti_from_faces(K3)


def test_taylor_of_2k2_is_minimal(two_k2):
    T = taylor_complex(two_k2)
    assert T.f_vector() == (2, 1)
    report = verify_resolution(T)
    assert report.passed and report.minimal
    assert betti_from_downset_homology(T, checked=True) == betti_hochster(two_k2)


def test_downset_betti_rejects_non_resolution(two_k2):
    with pytest.raises(PreconditionError):
        betti_from_downset_homology(build_complex(two_k2))


def test_cube_betti(copath5):
    assert cube_betti(copath5) == 1
    assert cube_betti(copath5, (1, 2, 4)) == betti_from_faces(copath5).get(
        1, {1, 2, 4}
    )
    K4 = Hypergraph(2, range(1, 5), itertools.combinations(range(1, 5), 2))
    assert cube_betti(K4) == 3  # three ways to cut 1234 into two runs
    assert cube_betti(K4, (1, 2)) == 1
    assert cube_betti(K4, (1,)) == 0


def test_independence_complex(two_k2):
    ind = independence_complex(two_k2)
    # independent sets of 2K2: singletons and the four cross pairs
    assert ind.f_vector() == (4, 4)
    ind_k3 = independence_complex(
        Hypergraph(2, range(1, 4), itertools.combinations(range(1, 4), 2))
    )
    assert ind_k3.f_vector() == (3,)


def test_betti_table_formatting(copath5):
    table = betti_from_faces(copath5)
    text = table.format_text()
    assert "1 | 1 2 4 | 2" in text
    assert "coarse:" in text
    assert "3 5 1" in text
    empty = BettiTable({})
    assert not empty
    assert empty.totals() == ()


def test_coarse_collapse(copath5):
    coarse = betti_from_faces(copath5).coarse()
    assert coarse == {(0, 2): 7, (1, 3): 11, (2, 4): 6, (3, 5): 1}


def test_exhaustive_routes_are_budgeted():
    n = HOCHSTER_VERTEX_LIMIT + 1
    path = Hypergraph(2, range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    with pytest.raises(BudgetError):
        betti_hochster(path)
    t = TAYLOR_EDGE_LIMIT
    edges = list(itertools.combinations(range(1, 8), 2))
    assert taylor_complex(Hypergraph(2, range(1, 8), edges[:t])).f_vector()[-1] == 1
    with pytest.raises(BudgetError):
        taylor_complex(Hypergraph(2, range(1, 8), edges[: t + 1]))


def verify_every_field(X, fields):
    """The sweep that runs every field on every degree (no Q skipped)."""
    report = VerificationReport(fields=tuple(fields))
    for alpha in X.lcm_lattice():
        sub = X.downset_leq(alpha)
        if sub.is_empty:
            report.alpha_status.append((alpha, EMPTY))
            continue
        status = ACYCLIC
        for fld in fields:
            status = acyclicity_status(sub, fld)
            if status != ACYCLIC:
                report.failures.append((alpha, fld))
                break
        report.alpha_status.append((alpha, status))
    report.minimal = verify_minimal(X)
    return report


@pytest.fixture
def bareiss_calls(monkeypatch):
    calls = []
    real = _kernels.rank_bareiss

    def counted(cols):
        calls.append(len(cols))
        return real(cols)

    monkeypatch.setattr(_kernels, "rank_bareiss", counted)
    return calls


def test_q_after_a_passing_prime_is_skipped(copath5, bareiss_calls):
    X = build_complex(copath5)
    Y = read_complex_dump(GOLDEN / "input_taylor_2k2.dump")
    expected = {
        "copath5": "acyclic: pass (21 degrees checked, 0 empty, "
        "fields GF(32003), Q)\nminimal: yes",
        "taylor": "acyclic: pass (3 degrees checked, 0 empty, "
        "fields GF(32003), Q)\nminimal: yes",
    }
    for name, C in (("copath5", X), ("taylor", Y)):
        report = verify_resolution(C, (GF32003, QQ))
        assert report.summary() == expected[name]
        assert bareiss_calls == [], name
        oracle = verify_every_field(C, (GF32003, QQ))
        assert bareiss_calls, name  # the oracle did run Bareiss
        assert report.summary() == oracle.summary()
        assert report.alpha_status == oracle.alpha_status
        bareiss_calls.clear()


def test_q_first_or_alone_still_runs_bareiss(copath5, bareiss_calls):
    X = build_complex(copath5)
    for fields in ((QQ,), (QQ, GF2)):
        report = verify_resolution(X, fields)
        assert report.passed
        assert len(bareiss_calls) > 21, fields  # several ranks per degree
        bareiss_calls.clear()
    betti_from_downset_homology(X, QQ)
    assert bareiss_calls


def test_a_second_prime_field_still_runs(copath5, monkeypatch):
    seen = []
    real = _kernels.rank_mod

    def counted(cols, p):
        seen.append(p)
        return real(cols, p)

    monkeypatch.setattr(_kernels, "rank_mod", counted)
    report = verify_resolution(build_complex(copath5), (GF2, GF3))
    assert report.passed
    assert seen.count(3) >= 21 and seen.count(2) >= 21


def test_planted_2k2_failures_unchanged(copath5, bareiss_calls):
    # copath5 with a disjoint edge: {6, 7} and (1, 2) span an induced 2K2
    planted = Hypergraph(2, range(1, 8), list(copath5.edges) + [(6, 7)])
    X = build_complex(planted)
    for fields in ((GF32003, QQ), (GF2, GF3, QQ), (QQ, GF2)):
        report = verify_resolution(X, fields)
        oracle = verify_every_field(X, fields)
        assert list(report.failures) == oracle.failures, fields
        assert report.alpha_status == oracle.alpha_status, fields
        assert report.summary() == oracle.summary(), fields
        assert len(report.failures) == 21
        assert report.failures[0] == (frozenset({1, 2, 6, 7}), fields[0])


def test_failure_records_degree_and_ranks(two_k2):
    report = verify_resolution(build_complex(two_k2), (GF2, QQ))
    (failure,) = report.failures
    alpha, fld = failure
    assert (alpha, fld) == (frozenset({1, 2, 3, 4}), GF2)
    assert (failure.alpha, failure.field) == (alpha, fld)
    # two points: reduced homology of rank one in degree 0
    assert failure.degree == 0 and failure.ranks == {0: 1}
    assert report.summary().splitlines()[1] == (
        "  failed at alpha = 1 2 3 4 over GF(2)"
    )
    for twin in (pickle.loads(pickle.dumps(failure)), copy.deepcopy(failure)):
        assert twin == failure and twin.ranks == {0: 1} and twin.degree == 0
    # a hollow triangle fails in degree 1
    hollow = BlockComplex.from_blocks([((1,),), ((2,),), ((3,),),
                                       ((1, 2),), ((1, 3),), ((2, 3),)])
    (failure,) = verify_resolution(hollow, (QQ,)).failures
    assert failure.degree == 1 and failure.ranks == {1: 1}
