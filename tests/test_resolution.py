import copy
import itertools
import pickle
import random
from pathlib import Path

import pytest

from cointerval import (
    GF2,
    GF3,
    GF32003,
    QQ,
    BettiTable,
    BudgetError,
    Hypergraph,
    LabeledComplex,
    ParseError,
    PreconditionError,
    betti_from_downset_homology,
    betti_from_faces,
    betti_hochster,
    build_complex,
    cube_betti,
    homology_ranks,
    independence_complex,
    parse_complex_dump,
    read_complex_dump,
    taylor_complex,
    verify_resolution,
    write_complex_dump,
)
from cointerval import _kernels, cli
from cointerval._kernels import _members
from cointerval.complexes import block_boundary
from cointerval.homology import ACYCLIC, EMPTY, NOT_ACYCLIC, acyclicity_status
from cointerval.resolution import (
    HOCHSTER_VERTEX_LIMIT,
    TAYLOR_EDGE_LIMIT,
    Failure,
    VerificationReport,
    _certified,
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


def test_verify_refuses_no_fields(two_k2):
    # with no field nothing is checked, and 2K2's complex is no resolution
    with pytest.raises(ValueError, match="at least one field"):
        verify_resolution(build_complex(two_k2), fields=())
    with pytest.raises(ValueError, match="at least one field"):
        verify_resolution(build_complex(Hypergraph(2, [1, 2], [])), fields=())


def test_taylor_always_resolves_but_rarely_minimal():
    K3 = Hypergraph(2, range(1, 4), itertools.combinations(range(1, 4), 2))
    T = taylor_complex(K3)
    assert T.f_vector() == (3, 3, 1)
    report = verify_resolution(T, fields=(GF2, QQ))
    assert report.passed
    assert not report.minimal  # all four top-dimensional labels coincide
    assert not verify_minimal(T)
    # yet the Betti numbers it reports are the true (minimal) ones
    assert betti_from_downset_homology(T) == betti_from_faces(K3)


def test_taylor_of_2k2_is_minimal(two_k2):
    T = taylor_complex(two_k2)
    assert T.f_vector() == (2, 1)
    report = verify_resolution(T)
    assert report.passed and report.minimal
    assert betti_from_downset_homology(T) == betti_hochster(two_k2)


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
    assert "1 | 1 2 4 | 2" in cli._table_lines(table)
    assert table.coarse()[(3, 5)] == 1
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
    report = VerificationReport(
        fields=tuple(fields), lattice=X.lattice_masks(), vertices=X._vertices
    )
    for mask in report.lattice:
        sub = X.downset(mask)
        if sub.is_empty:
            report.statuses.append(EMPTY)
            continue
        status = ACYCLIC
        for fld in fields:
            status = acyclicity_status(sub, fld)
            if status != ACYCLIC:
                report.failures.append((X.label_of(mask), fld))
                break
        report.statuses.append(status)
    report.minimal = verify_minimal(X)
    return report


@pytest.fixture
def q_rank_calls(monkeypatch):
    """Column counts of the rank calls over Q (`rank_mod` with p == 0)."""
    calls = []
    real = _kernels.rank_mod

    def counted(cols, p):
        if p == 0:
            calls.append(len(cols))
        return real(cols, p)

    monkeypatch.setattr(_kernels, "rank_mod", counted)
    return calls


def test_q_after_a_passing_prime_is_skipped(copath5, q_rank_calls):
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
        assert q_rank_calls == [], name
        oracle = verify_every_field(C, (GF32003, QQ))
        assert q_rank_calls, name  # the oracle did eliminate over Q
        assert report.summary() == oracle.summary()
        assert report.alpha_status == oracle.alpha_status
        q_rank_calls.clear()


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


@pytest.fixture
def scrambled():
    # the complement of the path 2-3-...-7 plus the dominating vertex 1,
    # a cointerval graph; 60 of its 111 degrees are left to elimination
    H = Hypergraph(
        2, range(1, 8),
        [(1, j) for j in range(2, 8)]
        + [(i, j) for i in range(2, 8) for j in range(i + 2, 8)],
    )
    X = build_complex(H)
    cells = {c: (X.dim(c), X.label(c)) for c in X.all_cells()}
    return scrambled_complex(cells, seed=0)


def test_q_first_or_alone_still_eliminates(copath5, scrambled,
                                           q_rank_calls):
    # on degrees the lead matching leaves open
    for fields in ((QQ,), (QQ, GF2)):
        report = verify_resolution(scrambled, fields)
        assert report.passed
        assert report.eliminated >= 21, fields
        assert len(q_rank_calls) > 21, fields  # several ranks per degree
        q_rank_calls.clear()
    betti_from_downset_homology(build_complex(copath5), QQ)
    assert q_rank_calls


def test_a_second_prime_field_still_runs(scrambled, monkeypatch):
    seen = []
    real, real_packed = _kernels.rank_mod, _kernels.rank_packed

    def counted(cols, p):
        seen.append(p)
        return real(cols, p)

    def counted_packed(masks):
        seen.append(2)
        return real_packed(masks)

    monkeypatch.setattr(_kernels, "rank_mod", counted)
    monkeypatch.setattr(_kernels, "rank_packed", counted_packed)
    report = verify_resolution(scrambled, (GF2, GF3))
    assert report.passed and report.eliminated >= 21
    assert seen.count(3) >= 21 and seen.count(2) >= 21


def test_planted_2k2_failures_unchanged(copath5, q_rank_calls):
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
    hollow = LabeledComplex.from_cells({
        (b,): (len(b) - 1, frozenset(b))
        for b in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
    }, block_boundary)
    (failure,) = verify_resolution(hollow, (QQ,)).failures
    assert failure.degree == 1 and failure.ranks == {1: 1}


# --- the lead-matching proof against elimination everywhere ------------


def eliminate_everything(X, fields, fail_fast=False):
    """The sweep with no proof: every downset, every field, eliminated."""
    report = VerificationReport(fields=tuple(fields))
    if X.is_empty:
        report.minimal = True
        return report
    report.lattice, report.vertices = X.lattice_masks(), X._vertices
    for mask in report.lattice:
        sub = X.downset(mask)
        if sub.is_empty:
            report.statuses.append(EMPTY)
            continue
        ranks = {fld: homology_ranks(sub, fld) for fld in fields}
        bad = [fld for fld in fields if any(ranks[fld])]
        if bad:
            nonzero = {k: r for k, r in enumerate(ranks[bad[0]]) if r}
            report.failures.append(Failure(X.label_of(mask), bad[0], nonzero))
        report.statuses.append(NOT_ACYCLIC if bad else ACYCLIC)
        if fail_fast and report.failures:
            break
    report.minimal = verify_minimal(X)
    return report


def copath(n):
    """Complement of the path 1-2-...-n: edges {i, j} with j - i >= 2."""
    return Hypergraph(
        2, range(1, n + 1),
        [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)],
    )


def interval_complements(count, seed=5):
    """Complements of random interval graphs, ordered by right endpoint."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(5, 9)
        ivs = sorted(
            (a + rng.randrange(1, 5), a)
            for a in (rng.randrange(12) for _ in range(n))
        )
        edges = [
            (i + 1, j + 1) for i, j in itertools.combinations(range(n), 2)
            if ivs[i][0] < ivs[j][1] or ivs[j][0] < ivs[i][1]
        ]
        out.append(Hypergraph(2, range(1, n + 1), edges))
    return out


def hand_built(cells, boundaries):
    """A complex from {key: (dim, label)} and {key: [(face, sign)]}."""
    return LabeledComplex.from_cells(
        {k: (d, frozenset(lab)) for k, (d, lab) in cells.items()},
        lambda k: boundaries.get(k, ()),
    )


def rp2_like():
    # one cell per dimension, all labelled {1}: de = 0 and df = 2e
    return hand_built(
        {"v": (0, {1}), "e": (1, {1}), "f": (2, {1})}, {"f": [("e", 2)]}
    )


def loop_on_a_segment(filled):
    # a segment ab and a loop l with empty boundary, both labelled {1, 2};
    # with `filled`, a disk D bounds the loop
    cells = {"a": (0, {1}), "b": (0, {2}), "ab": (1, {1, 2}),
             "l": (1, {1, 2})}
    boundaries = {"ab": [("a", -1), ("b", 1)]}
    if filled:
        cells["D"] = (2, {1, 2})
        boundaries["D"] = [("l", 1)]
    return hand_built(cells, boundaries)


def disk_on_a_triangle():
    # triangles abx (label {1, 2}) and abc (label {1, 2, 3}) on a shared
    # edge ab, both filled; the strict downset below {1, 2, 3} keeps the
    # 2-cell abx but not abc, so its boundary cycle stays open there
    def edge(e):
        return [(e[0], -1), (e[1], 1)]

    def triangle(x, y, z):
        return [(y + z, 1), (x + z, -1), (x + y, 1)]

    return hand_built(
        {"a": (0, {1}), "b": (0, {2}), "c": (0, {3}), "x": (0, {1, 2}),
         "ab": (1, {1, 2}), "ac": (1, {1, 3}), "bc": (1, {2, 3}),
         "ax": (1, {1, 2}), "bx": (1, {1, 2}),
         "abc": (2, {1, 2, 3}), "abx": (2, {1, 2})},
        {**{e: edge(e) for e in ("ab", "ac", "bc", "ax", "bx")},
         "abc": triangle("a", "b", "c"), "abx": triangle("a", "b", "x")},
    )


def dumps_with_holes():
    """Parsed dumps: written ones that pass, and ones missing a top cell."""
    sources = [
        (GOLDEN / "input_taylor_2k2.dump").read_text(),
        write_complex_dump(build_complex(copath(6))),
        write_complex_dump(taylor_complex(copath(5))),
    ]
    sources += [write_complex_dump(build_complex(H))
                for H in interval_complements(3, seed=9) if H.edges]
    out = []
    rng = random.Random(3)
    for text in sources:
        out.append(parse_complex_dump(text))
        lines = text.splitlines()
        top = max(int(line.split("|")[0]) for line in lines)
        tops = [i for i, line in enumerate(lines)
                if int(line.split("|")[0]) == top and top > 0]
        for i in rng.sample(tops, min(2, len(tops))):
            try:
                out.append(parse_complex_dump(
                    "\n".join(lines[:i] + lines[i + 1:])
                ))
            except ParseError:
                pass
    return out


def random_complexes(count=8, seed=17):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(5, 8)
        p = rng.choice((0.4, 0.6, 0.8))
        edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                 if rng.random() < p]
        out.append(build_complex(Hypergraph(2, range(1, n + 1), edges)))
    return out


@pytest.fixture
def proof_corpus(copath5, k4_3, two_k2, scrambled):
    planted = Hypergraph(2, range(1, 8), list(copath5.edges) + [(6, 7)])
    k3 = Hypergraph(2, range(1, 4), itertools.combinations(range(1, 4), 2))
    resolved = build_complex(copath5)
    two_disks = disk_on_a_triangle()
    out = [
        ("copath5", resolved),
        ("copath5_strict",
         resolved.downset(resolved.mask(range(1, 6)), strict=True)),
        ("k4_3", build_complex(k4_3)),
        ("2k2", build_complex(two_k2)),
        ("planted", build_complex(planted)),
        ("scrambled", scrambled),
        ("rp2", rp2_like()),
        ("loop", loop_on_a_segment(filled=False)),
        ("disk", loop_on_a_segment(filled=True)),
        ("two_disks", two_disks),
        ("two_disks_strict",
         two_disks.downset(two_disks.mask({1, 2, 3}), strict=True)),
    ]
    out += [(f"taylor{i}", taylor_complex(H))
            for i, H in enumerate((k3, two_k2, copath5, copath(5)))]
    out += [(f"dump{i}", X) for i, X in enumerate(dumps_with_holes())]
    out += [(f"random{i}", X) for i, X in enumerate(random_complexes())]
    return out


def test_proof_matches_elimination_everywhere(proof_corpus):
    runs = [((GF2, GF3, QQ), True)] + [
        (fields, False)
        for fields in ((GF2, GF3, QQ), (QQ,), (GF32003, QQ), (GF3, GF2))
    ]
    outcomes = set()
    for name, X in proof_corpus:
        for fields, fail_fast in runs:
            got = verify_resolution(X, fields, fail_fast=fail_fast)
            want = eliminate_everything(X, fields, fail_fast=fail_fast)
            where = (name, fields, fail_fast)
            assert got.alpha_status == want.alpha_status, where
            assert got.failures == want.failures, where
            assert [(f.degree, f.ranks) for f in got.failures] == [
                (f.degree, f.ranks) for f in want.failures
            ], where
            assert got.summary() == want.summary(), where
            outcomes.add((got.passed, got.eliminated > 0))
    # the corpus reaches every case: settled by the proof, eliminated
    # and passing, eliminated and failing
    assert outcomes == {(True, False), (True, True), (False, True)}


def test_certified_degrees_are_acyclic_over_every_field(proof_corpus):
    """The proof on every vertex subset, not just the lattice."""
    for name, X in proof_corpus:
        verts = sorted(set().union(*(X.label(c) for c in X.all_cells())))
        if len(verts) > 7:
            continue
        alphas = [frozenset(s) for r in range(len(verts) + 1)
                  for s in itertools.combinations(verts, r)]
        bits = _certified(X, [X.mask(alpha) for alpha in alphas])
        for pos, alpha in enumerate(alphas):
            if bits >> pos & 1:
                sub = X.downset(X.mask(alpha))
                assert not sub.is_empty, (name, alpha)
                for fld in (GF2, GF3, QQ):
                    assert not any(homology_ranks(sub, fld)), (name, alpha)


def test_rp2_like_complex_fails_only_in_characteristic_two():
    X = rp2_like()
    (failure,) = verify_resolution(X, (GF2,)).failures
    assert failure == (frozenset({1}), GF2)
    assert failure.ranks == {1: 1, 2: 1} and failure.degree == 1
    for fld in (GF3, QQ):
        report = verify_resolution(X, (fld,))
        assert report.passed and report.eliminated == 1


def test_empty_columns_are_left_to_elimination():
    loop = verify_resolution(loop_on_a_segment(filled=False), (GF2, QQ))
    (failure,) = loop.failures
    assert failure == (frozenset({1, 2}), GF2) and failure.ranks == {1: 1}
    assert loop.eliminated == 1
    # a disk bounding the loop clears it, and the proof applies
    disk = verify_resolution(loop_on_a_segment(filled=True), (GF2, QQ))
    assert disk.passed and disk.eliminated == 0


def test_cointerval_complexes_need_no_elimination(copath5):
    planted = Hypergraph(2, range(1, 8), list(copath5.edges) + [(6, 7)])
    graphs = [copath(n) for n in range(5, 11)] + interval_complements(12)
    for H in graphs:
        assert H.is_cointerval()
        report = verify_resolution(build_complex(H), (GF2, QQ))
        assert report.passed and report.eliminated == 0, H
    report = verify_resolution(build_complex(planted), (GF2, QQ))
    assert not report.passed and report.eliminated > 0


def test_lattice_order_is_size_then_sorted_members(proof_corpus):
    for name, X in proof_corpus:
        lattice = X.lattice_masks()
        labels = [X.label_of(m) for m in lattice]
        old_order = sorted(labels, key=lambda s: (len(s), sorted(s)))
        assert labels == old_order, name
        closed = set(lattice)
        assert all(a | b in closed for a in lattice for b in lattice), name
        assert set(X.masks(0)) <= closed, name


@pytest.fixture
def labels_made(monkeypatch):
    made = []
    real = LabeledComplex.label_of

    def counted(self, mask):
        made.append(mask)
        return real(self, mask)

    monkeypatch.setattr(LabeledComplex, "label_of", counted)
    return made


def test_labels_are_made_only_for_failures(copath5, two_k2, labels_made):
    report = verify_resolution(build_complex(copath(10)), (GF2, QQ))
    assert report.passed and len(report.statuses) > 900
    assert labels_made == []
    planted = Hypergraph(2, range(1, 8), list(copath5.edges) + [(6, 7)])
    faulty = [build_complex(planted), build_complex(two_k2), rp2_like(),
              loop_on_a_segment(filled=False)]
    for X in faulty:
        failed = 0
        for fields in ((GF2, GF3, QQ), (QQ,), (GF32003, QQ)):
            labels_made.clear()
            report = verify_resolution(X, fields)
            assert labels_made == [X.mask(a) for a, _fld in report.failures]
            failed += len(report.failures)
        assert failed, X
    # the statuses read back as labels on demand, outside the sweep
    report = verify_resolution(build_complex(copath5), (GF2,))
    assert [alpha for alpha, _s in report.alpha_status][-1] == frozenset(
        range(1, 6)
    )
    assert all(s == ACYCLIC for _a, s in report.alpha_status)


# --- lattice sweeps on id selections ------------------------------------

def test_selections_are_the_downset_ids(proof_corpus):
    """`_select` picks what `downset` shows, and what the labels say."""
    for name, X in proof_corpus:
        full = (1 << len(X._vertices)) - 1
        masks = set(X.lattice_masks()) | {0, full} | {
            full & ~(1 << k) for k in range(len(X._vertices))
        }
        for mask in sorted(masks):
            for strict in (False, True):
                sets = X._select(mask, strict)
                view = X.downset(mask, strict)
                got = {d: _members(bits) for d, bits in sets.items()}
                assert {
                    d: [X.cells(d)[i] for i in ids] for d, ids in got.items()
                } == {d: list(view.cells(d)) for d in view.dims()}
                want = {}
                for d in X.dims():
                    ids = [
                        i for i in X.ids(d)
                        if not X._masks[d][i] & ~mask
                        and not (strict and X._masks[d][i] == mask)
                    ]
                    if ids:
                        want[d] = ids
                assert got == want, (name, mask, strict)


def fresh_strict_downset(X, mask):
    """The strict downset below mask as a complex of its own, with its own
    columns: no selection is involved."""
    cells = {
        c: (X.dim(c), X.label(c)) for c in X.all_cells()
        if not X.mask(X.label(c)) & ~mask and X.mask(X.label(c)) != mask
    }
    return LabeledComplex.from_cells(cells, X.boundary)


def betti_by_fresh_downsets(X, fields):
    """{field: beta_{i, alpha}} as reduced homology of freshly built
    strict downsets."""
    entries = {fld: {(0, lab): 1 for lab in X.vertex_labels()}
               for fld in fields}
    for mask in X.lattice_masks():
        sub = fresh_strict_downset(X, mask)
        if sub.is_empty:
            continue
        for fld in fields:
            for degree, rank in enumerate(homology_ranks(sub, fld)):
                if rank:
                    entries[fld][(degree + 1, X.label_of(mask))] = rank
    return {fld: BettiTable(e) for fld, e in entries.items()}


def test_downset_route_keeps_its_tables(proof_corpus):
    """Over GF(2), GF(3) and Q, the downset route against per-alpha fresh
    complexes, on the complexes that eliminating everything passes; on
    the others it refuses."""
    fields = (GF2, GF3, QQ)
    checked = 0
    for name, X in proof_corpus:
        if X.is_empty:
            continue
        want = betti_by_fresh_downsets(X, fields)
        for fld in fields:
            if not eliminate_everything(X, (fld,)).passed:
                with pytest.raises(PreconditionError):
                    betti_from_downset_homology(X, fld)
                continue
            assert betti_from_downset_homology(X, fld) == want[fld], (
                name, fld,
            )
            checked += 1
    assert checked > 40


def test_labels_are_made_only_for_nonzero_ranks(copath5, two_k2,
                                                labels_made):
    # vertex labels for beta_0, then one label per nonzero (alpha, degree)
    for H in (copath5, copath(6), *interval_complements(3)):
        X = build_complex(H)
        for fld in (GF2, QQ):
            labels_made.clear()
            table = betti_from_downset_homology(X, fld)
            assert sorted(labels_made) == sorted(
                X.mask(alpha) for _i, alpha in table.entries
            ), (H, fld)
    # Hochster's sweep labels only the alphas it enters in the table
    for H in (copath5, two_k2, copath(6)):
        bit = {v: 1 << k for k, v in enumerate(H.vertices)}
        labels_made.clear()
        table = betti_hochster(H)
        assert sorted(labels_made) == sorted(
            sum(bit[v] for v in alpha) for _i, alpha in table.entries
        ), H
