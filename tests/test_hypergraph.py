import copy
import dataclasses
import functools
import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cointerval import (
    BudgetError,
    Hypergraph,
    ParseError,
    PreconditionError,
    find_cointerval_labeling,
    find_strongly_stable_labeling,
    format_hypergraph,
    hypergraph,
    interval_representation,
    parse_hypergraph,
)
from cointerval.hypergraph import VERTEX_LIMIT, _nested_layers, _rests

from graphs import all_graphs, copath, random_graph, refusal


def borel_closure(n, gens):
    """Smallest strongly stable d-graph on 1..n holding the generators."""
    stack = [tuple(sorted(g)) for g in gens]
    seen = set()
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        members = set(e)
        for i in e:
            if i > 1 and i - 1 not in members:
                stack.append(tuple(sorted(members - {i} | {i - 1})))
    return Hypergraph(len(gens[0]), range(1, n + 1), seen)


def shuffled(rng, H):
    perm = list(H.vertices)
    rng.shuffle(perm)
    return H.relabel(dict(zip(H.vertices, perm)))


def _ss_sweep(H):
    """Oracle: the first of the k! support permutations that is stable."""
    support = H.support()
    k = len(support)
    for perm in itertools.permutations(range(1, k + 1)):
        mapping = dict(zip(support, perm))
        probe = Hypergraph(
            H.d, range(1, k + 1), [[mapping[v] for v in e] for e in H.edges]
        )
        if probe.is_strongly_stable():
            nxt = k + 1
            for v in H.vertices:
                if v not in mapping:
                    mapping[v] = nxt
                    nxt += 1
            return mapping
    return None


def _layer_oracle(H):
    """Oracle: the recursive layer-nesting test through `Hypergraph.layer`."""
    if H.d == 1:
        return True
    supp = H.support()
    layers = [H.layer(v) for v in supp]
    if not all(_layer_oracle(lay) for lay in layers):
        return False
    return all(
        layers[j].edges <= layers[i].edges
        for i in range(len(supp))
        for j in range(i + 1, len(supp))
    )


def graphs(max_n=6, d=2):
    """Strategy: d-uniform hypergraphs on 1..n with random edge subsets."""

    def build(draw_data):
        n, mask = draw_data
        universe = list(itertools.combinations(range(1, n + 1), d))
        edges = [e for i, e in enumerate(universe) if mask >> i & 1]
        return Hypergraph(d, range(1, n + 1), edges)

    return st.integers(d, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2 ** len(list(itertools.combinations(range(n), d))) - 1),
        )
    ).map(build)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Hypergraph(2, [1, 2], [(1, 2, 3)])  # wrong arity
    with pytest.raises(ValueError):
        Hypergraph(2, [1, 2], [(1, 1)])  # repeated vertex
    with pytest.raises(ValueError):
        Hypergraph(2, [1, 2], [(1, 3)])  # vertex outside V
    with pytest.raises(ValueError):
        Hypergraph(0, [1], [])


def test_immutable_and_hashable(copath5):
    with pytest.raises(AttributeError):
        copath5.d = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        copath5.edges = frozenset()
    assert copath5 == Hypergraph(2, range(1, 6), reversed(copath5.edge_list()))
    assert len({copath5, copath5}) == 1
    assert hash(copath5) == hash((copath5.d, copath5.vertices, copath5.edges))
    for twin in (
        pickle.loads(pickle.dumps(copath5)),
        copy.copy(copath5),
        copy.deepcopy(copath5),
    ):
        assert twin == copath5 and hash(twin) == hash(copath5)
        assert repr(twin) == repr(copath5)
    # vertices and edges in any order, repeated, edges as unsorted lists
    jumbled = Hypergraph(
        d=2,
        vertices=[5, 3, 1, 4, 2, 3],
        edges=[[b, a] for a, b in reversed(copath5.edge_list())] + [[2, 5]],
    )
    assert jumbled == copath5 and hash(jumbled) == hash(copath5)
    assert jumbled.vertices == (1, 2, 3, 4, 5)


def test_layers(copath5):
    got = {v: sorted(copath5.layer(v).edge_list()) for v in copath5.vertices}
    assert got == {
        1: [(2,), (3,), (4,), (5,)],
        2: [(4,), (5,)],
        3: [(5,)],
        4: [],
        5: [],
    }
    with pytest.raises(PreconditionError):
        copath5.layer(1).layer(2)  # layers of a 1-graph are undefined
    assert refusal(copath5.layer, 9) == (
        ValueError, "vertex 9 not in (1, 2, 3, 4, 5)"
    )
    assert refusal(copath5.induced, [1, 9]) == (
        ValueError, "[1, 9] is not a subset of the vertex set"
    )


def test_cointerval_flags(copath5, two_k2, k4_3):
    assert copath5.is_cointerval()
    assert not two_k2.is_cointerval()
    # edgeless vertices impose no nesting constraints
    assert k4_3.is_cointerval()
    assert Hypergraph(2, [1, 2], [(1, 2)]).is_cointerval()
    assert Hypergraph(2, [1, 2, 3], []).is_cointerval()


def test_complete_graphs_cointerval():
    for d, n in [(2, 3), (2, 5), (3, 4), (3, 6), (4, 5)]:
        edges = itertools.combinations(range(1, n + 1), d)
        assert Hypergraph(d, range(1, n + 1), edges).is_cointerval()


def test_labeling_search():
    C4 = Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    C5 = Hypergraph(2, range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    P4 = Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4)])
    assert not C4.is_cointerval()
    cert = find_cointerval_labeling(C4)
    assert cert is not None
    assert C4.relabel(cert).is_cointerval()
    assert find_cointerval_labeling(C5) is None
    assert find_cointerval_labeling(P4) is not None


def test_labeling_search_agrees_with_brute_force():
    # DFS search == any-permutation-works, on every 4-vertex graph
    universe = list(itertools.combinations(range(1, 5), 2))
    for mask in range(2 ** len(universe)):
        H = Hypergraph(
            2, range(1, 5), [e for i, e in enumerate(universe) if mask >> i & 1]
        )
        brute = any(
            H.relabel(dict(zip(H.vertices, p))).is_cointerval()
            for p in itertools.permutations(range(1, 5))
        )
        assert (find_cointerval_labeling(H) is not None) == brute


def _labeling_oracle(H):
    """(witness or None, placements tried): the search that tests each
    new layer against the layer of every earlier support vertex."""
    verts = H.vertices
    if H.d == 1 or not H.edges:
        return {v: i for i, v in enumerate(verts, start=1)}, 0
    edges_at = {v: [e for e in H.edges if v in e] for v in verts}
    edgeless = {v for v in verts if not edges_at[v]}
    order, chosen, layers = [], set(), []
    placements = 0

    def place(v):
        nonlocal placements
        placements += 1
        members = {
            frozenset(u for u in e if u != v) for e in edges_at[v]
            if all(u not in chosen for u in e if u != v)
        }
        for q, lay in enumerate(layers):
            if order[q] not in edgeless and not members <= lay:
                return None
        return members

    def dfs():
        if len(order) == len(verts):
            mapping = {v: p for p, v in enumerate(order, start=1)}
            return mapping if _layer_oracle(H.relabel(mapping)) else None
        for v in verts:
            if v in chosen:
                continue
            members = place(v)
            if members is None:
                continue
            chosen.add(v)
            order.append(v)
            layers.append(members)
            found = dfs()
            if found:
                return found
            layers.pop()
            order.pop()
            chosen.discard(v)
        return None

    return dfs(), placements


def _labeling_corpus():
    yield from (H for n in range(1, 6) for H in all_graphs(2, range(1, n + 1)))
    yield from all_graphs(3, range(1, 6))
    rng = random.Random(20261019)
    for _ in range(80):
        d = rng.choice((2, 3))
        n = rng.randint(6, 8)
        yield random_graph(rng, d, range(1, n + 1), rng.uniform(0.2, 0.9))
    for n, gens in [
        (6, [(2, 4, 6)]), (7, [(2, 5, 7), (1, 6, 7)]), (7, [(3, 4, 7)]),
        (8, [(2, 6, 8), (4, 5, 7)]), (8, [(1, 2, 8), (3, 5, 6)]),
    ]:
        yield shuffled(rng, borel_closure(n, gens))
    # the shuffled Borel 3-graph of tests/test_cli.py
    H = borel_closure(12, [(3, 7, 12), (5, 9, 11)])
    perm = list(range(1, 13))
    random.Random(7).shuffle(perm)
    yield H.relabel(dict(zip(range(1, 13), perm)))


def test_labeling_search_matches_every_layer_oracle(monkeypatch):
    # same witness and same placement count: the search passes with the
    # budget at the oracle's count and refuses one placement earlier;
    # a 2-graph without a labeling is answered before any placement
    seen = found = refused = 0
    for H in _labeling_corpus():
        want, count = _labeling_oracle(H)
        if H.d == 2 and H.edges and want is None:
            monkeypatch.setattr(hypergraph, "COINTERVAL_PLACEMENT_LIMIT", 0)
            assert find_cointerval_labeling(H) is None, H
            refused += 1
            seen += 1
            continue
        monkeypatch.setattr(hypergraph, "COINTERVAL_PLACEMENT_LIMIT", count)
        assert find_cointerval_labeling(H) == want, H
        if count:
            monkeypatch.setattr(
                hypergraph, "COINTERVAL_PLACEMENT_LIMIT", count - 1
            )
            with pytest.raises(BudgetError):
                find_cointerval_labeling(H)
        seen += 1
        found += want is not None
    assert 0 < found < seen and refused > 0
    assert count == 4513  # the 12-vertex Borel graph comes last


def _rests_oracle(H):
    """The search's edges without each vertex, as it first built them:
    one scan of every edge per vertex."""
    return {v: [frozenset(e).difference((v,)) for e in H.edges if v in e]
            for v in H.vertices}


def test_rests_are_filed_in_edge_order():
    # the same lists in the same order, so the search's layers and its
    # witnesses do not move
    corpus = list(_labeling_corpus())
    corpus += [shuffled(random.Random(n), copath(n)) for n in (10, 40)]
    assert {H.d for H in corpus} == {2, 3}
    for H in corpus:
        assert _rests(H) == _rests_oracle(H), H


@functools.cache
def _small_two_graphs():
    """Every 2-graph on 1..n for n <= 6: 33,867 graphs."""
    return [H for n in range(1, 7) for H in all_graphs(2, range(1, n + 1))]


def test_interval_test_matches_the_search(monkeypatch):
    # on a 2-graph the interval test of the complement decides what the
    # exhaustive search decides, and a yes keeps the search's witness
    corpus = [H for H in _small_two_graphs() if H.edges]
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(7, 12)
        corpus.append(
            random_graph(rng, 2, range(1, n + 1), rng.uniform(0.3, 0.95))
        )
    got = [find_cointerval_labeling(H) for H in corpus]
    chordal = [H.complement().is_chordal() for H in corpus]
    # the search alone: the test passes everything, the budget is lifted
    monkeypatch.setattr(hypergraph, "_is_chordal", lambda adj: True)
    monkeypatch.setattr(hypergraph, "_is_at_free", lambda adj: True)
    monkeypatch.setattr(hypergraph, "COINTERVAL_PLACEMENT_LIMIT", 10**9)
    for H, cert in zip(corpus, got):
        assert find_cointerval_labeling(H) == cert, H
    yes = sum(cert is not None for cert in got)
    at_only = sum(c is None and f for c, f in zip(got, chordal))
    assert 0 < yes < len(corpus)
    assert at_only > 0  # chordal complements with an asteroidal triple


def _has_induced_cycle(H):
    """Oracle: some four or more vertices induce a cycle."""
    for k in range(4, H.n + 1):
        for W in itertools.combinations(H.vertices, k):
            G = H.induced(W)
            degree = Counter(v for e in G.edges for v in e)
            if len(G.edges) == k and all(degree[v] == 2 for v in W):
                seen, stack = set(), [W[0]]
                while stack:
                    v = stack.pop()
                    if v not in seen:
                        seen.add(v)
                        stack.extend(u for e in G.edges if v in e for u in e)
                if len(seen) == k:
                    return True
    return False


def test_chordal_matches_induced_cycle_oracle():
    corpus = [H for H in _small_two_graphs() if H.n <= 5]
    rng = random.Random(20261021)
    corpus += [
        random_graph(rng, 2, range(1, rng.randint(6, 8) + 1), rng.random())
        for _ in range(150)
    ]
    chordal = 0
    for H in corpus:
        assert H.is_chordal() != _has_induced_cycle(H), H
        chordal += H.is_chordal()
    assert 0 < chordal < len(corpus)


def test_dense_two_graphs_answer_within_budget(monkeypatch):
    # dense 2-graphs on 14-20 vertices, whose "no" the search alone could
    # not reach within its budget: a "no" now makes no placement at all
    answers = []
    for n in (14, 18, 20):
        for p in (0.8, 0.85, 0.9, 0.95):
            for seed in range(6):
                rng = random.Random(f"{n}:{p}:{seed}")
                H = random_graph(rng, 2, range(1, n + 1), p)
                cert = find_cointerval_labeling(H)
                if cert is None:
                    with monkeypatch.context() as m:
                        m.setattr(hypergraph, "COINTERVAL_PLACEMENT_LIMIT", 0)
                        assert find_cointerval_labeling(H) is None
                else:
                    assert H.relabel(cert).is_cointerval()
                answers.append(cert is not None)
    assert 0 < sum(answers) < len(answers)


def test_strongly_stable(copath5, k4_3):
    assert not copath5.is_strongly_stable()  # {3,5} shifts to the non-edge {3,4}
    assert find_strongly_stable_labeling(copath5) is None  # and no relabeling helps
    assert k4_3.is_strongly_stable()
    star = Hypergraph(2, range(1, 6), [(1, j) for j in range(2, 6)])
    assert star.is_strongly_stable()
    # star centered at 5 fails as labeled but relabels to the stable star
    flipped = Hypergraph(2, range(1, 6), [(j, 5) for j in range(1, 5)])
    assert not flipped.is_strongly_stable()
    cert = find_strongly_stable_labeling(flipped)
    assert cert is not None and flipped.relabel(cert).is_strongly_stable()
    assert refusal(Hypergraph(2, (2, 3), [(2, 3)]).is_strongly_stable) == (
        PreconditionError,
        "strong stability needs vertex labels 1..n, got (2, 3)",
    )


def test_ss_labeling_matches_sweep_exhaustive():
    # the whole dict, edgeless vertices included, on every small graph
    corpus = [H for n in range(1, 6) for H in all_graphs(2, range(1, n + 1))]
    corpus += list(all_graphs(3, range(1, 6)))
    found = 0
    for H in corpus:
        got = find_strongly_stable_labeling(H)
        assert got == _ss_sweep(H), H
        found += got is not None
    assert found > 0 and found < len(corpus)


def test_ss_labeling_matches_sweep_sampled():
    rng = random.Random(20261017)
    corpus = []
    for _ in range(120):
        # 2-graphs on 6 vertices, edges drawn among a random subset so
        # that isolated vertices occur
        inner = sorted(rng.sample(range(1, 7), rng.randint(2, 6)))
        edges = [
            e for e in itertools.combinations(inner, 2) if rng.random() < 0.6
        ]
        corpus.append(Hypergraph(2, range(1, 7), edges))
    assert any(len(H.support()) < H.n for H in corpus)
    for _ in range(60):
        # labels outside 1..n, the shape covers passes for a cover part
        labels = sorted(rng.sample(range(2, 40), rng.randint(3, 6)))
        d = rng.choice((2, 3)) if len(labels) > 3 else 2
        corpus.append(random_graph(rng, d, labels, 0.5))
    for n in (5, 6):
        # stable graphs under a shuffled labeling: the answer is a dict
        corpus.append(shuffled(rng, borel_closure(n, [(2, 4, n)])))
    found = 0
    for H in corpus:
        got = find_strongly_stable_labeling(H)
        assert got == _ss_sweep(H), H
        found += got is not None
    assert found > 0


def test_ss_labeling_on_shuffled_borel_closures():
    # an 8! sweep takes seconds, so only one 8-vertex case runs it
    rng = random.Random(7)
    for n, gens, sweep in [
        (7, [(2, 5, 7), (1, 6, 7)], True),
        (7, [(3, 4, 7)], True),
        (8, [(2, 6, 8), (4, 5, 7)], False),
        (8, [(1, 2, 8), (3, 5, 6)], True),
    ]:
        H = shuffled(rng, borel_closure(n, gens))
        got = find_strongly_stable_labeling(H)
        assert got is not None
        assert H.relabel(got).is_strongly_stable()
        if sweep:
            assert got == _ss_sweep(H)


def test_nested_layers_matches_layer_recursion():
    corpus = [H for n in range(1, 6) for H in all_graphs(2, range(1, n + 1))]
    corpus += list(all_graphs(3, range(1, 6)))
    corpus += list(all_graphs(1, range(1, 5)))
    rng = random.Random(20261018)
    for _ in range(150):
        d = rng.choice((3, 4))
        n = rng.randint(d, 8)
        corpus.append(random_graph(rng, d, range(1, n + 1), rng.random()))
    # vertex 2 starts no edge, so its empty layer sits between the
    # layers of 1 and 3
    gap = Hypergraph(2, range(1, 5), [(1, 2), (1, 4), (3, 4)])
    assert not _layer_oracle(gap)
    corpus.append(gap)
    hits = 0
    for H in corpus:
        want = _layer_oracle(H)
        assert _nested_layers(H.edges) == want, H
        assert H.is_cointerval() == want, H
        hits += want
    assert 0 < hits < len(corpus)


def test_strongly_stable_implies_cointerval():
    # every labeling the strong-stability search returns is a cointerval
    # labeling, which lets `check` skip that search after a failed one
    corpus = _small_two_graphs() + list(all_graphs(3, range(1, 6)))
    stable = 0
    for H in corpus:
        if H.is_strongly_stable():
            assert H.is_cointerval(), H
        cert = find_strongly_stable_labeling(H)
        if cert is not None:
            assert H.relabel(cert).is_cointerval(), H
            stable += 1
    assert 0 < stable < len(corpus)


@given(graphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_cointerval_closed_under_induced(H):
    if not H.is_cointerval():
        return
    for r in range(len(H.vertices) + 1):
        for W in itertools.combinations(H.vertices, r):
            assert H.induced(W).is_cointerval()


def test_interval_representation(copath5):
    assert interval_representation(copath5) == {
        1: (1, 1),
        2: (2, 2),
        3: (2, 3),
        4: (3, 4),
        5: (4, 5),
    }
    with pytest.raises(PreconditionError):
        interval_representation(Hypergraph(2, range(1, 5), [(1, 2), (3, 4)]))
    assert refusal(interval_representation, Hypergraph(3, range(1, 4), [])) == (
        PreconditionError, "interval representations need a 2-graph"
    )
    assert refusal(interval_representation, Hypergraph(2, (2, 3), [])) == (
        PreconditionError, "interval representations need labels 1..n"
    )


def test_chordal():
    C4 = Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    C5 = Hypergraph(2, range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    K4 = Hypergraph(2, range(1, 5), itertools.combinations(range(1, 5), 2))
    tree = Hypergraph(2, range(1, 6), [(1, 2), (1, 3), (2, 4), (2, 5)])
    assert not C4.is_chordal() and not C5.is_chordal()
    assert K4.is_chordal() and tree.is_chordal()
    assert Hypergraph(2, range(1, 4), []).is_chordal()
    assert refusal(Hypergraph(3, range(1, 4), []).is_chordal) == (
        PreconditionError, "chordality is only defined for 2-graphs"
    )


def test_complement_involution():
    K4 = Hypergraph(2, range(1, 5), itertools.combinations(range(1, 5), 2))
    assert K4.complement().edge_list() == []
    P4 = Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4)])
    assert P4.complement().complement() == P4
    assert refusal(Hypergraph(3, range(1, 4), []).complement) == (
        PreconditionError, "complement is only defined for 2-graphs"
    )


@given(graphs(max_n=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_canonical_form_relabel_invariant(H, rnd):
    perm = list(H.vertices)
    rnd.shuffle(perm)
    G = H.relabel(dict(zip(H.vertices, perm)))
    assert H.canonical_form() == G.canonical_form()


def test_canonical_form_guard():
    big = Hypergraph(2, range(1, 11), [(1, 2)])
    with pytest.raises(BudgetError):
        big.canonical_form()


def test_parse_format_roundtrip(copath5):
    text = format_hypergraph(copath5)
    assert parse_hypergraph(text) == copath5
    assert format_hypergraph(parse_hypergraph(text)) == text  # byte-stable


def test_parse_comments_and_explicit_vertices():
    H = parse_hypergraph("# a graph\n2 4\nvertices: 2 4 6 8\n2 4\n6 8\n")
    assert H.vertices == (2, 4, 6, 8)
    assert H.edge_list() == [(2, 4), (6, 8)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_hypergraph("2 4\n1 2\nnope\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(ParseError):
        parse_hypergraph("")
    with pytest.raises(ParseError):
        parse_hypergraph("2 3\n1 2 3\n")  # arity mismatch
    # an integer is an optional `-` and ASCII digits, not all `int` takes
    for text, lineno in [
        ("2 3\n1 2\n2 \uff13\n", 3),  # a full-width digit
        ("2 +3\n1 2\n", 1),
        ("2 3\n1_0 2\n", 2),
        ("2 3\nvertices: 1 2 +3\n", 2),
    ]:
        with pytest.raises(ParseError, match=f"line {lineno}"):
            parse_hypergraph(text)
    H = parse_hypergraph("2 2\nvertices: -1 0\n-1 0\n")
    assert H.edge_list() == [(-1, 0)]


def test_lines_break_only_where_open_breaks_them():
    # `\n`, `\r\n` and `\r` end a line
    H = parse_hypergraph("2 3\r\n1 2\r2 3\n")
    assert H.edge_list() == [(1, 2), (2, 3)]
    # other ASCII controls are whitespace inside their line
    H = parse_hypergraph("2\v3\f\n\x1c1\x1d2\x1e\n2\x1f3\n")
    assert H.edge_list() == [(1, 2), (2, 3)]
    with pytest.raises(ParseError, match="line 3"):
        parse_hypergraph("2 3\n1 2\v\n2 x\n")
    # non-ASCII ones are neither breaks nor whitespace
    for sep in ("\x85", "\u2028", "\u2029"):
        with pytest.raises(ParseError, match="line 2"):
            parse_hypergraph(f"2 3\n1 2{sep}2 3\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_hypergraph(f"2 3\n1 2{sep}\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_hypergraph(f"2 3{sep}\n1 2\n")
        # inside a comment they are text like any other
        assert parse_hypergraph(f"2 3 # {sep} x\n1 2\n").edge_list() == [
            (1, 2)
        ]
    # nor is non-ASCII whitespace stripped at the end of a line
    for space in ("\xa0", "\u3000"):
        with pytest.raises(ParseError, match="line 2"):
            parse_hypergraph(f"2 3\n1 2{space}\n")


HYPERGRAPH_CHUNKS = st.sampled_from(
    list("0123 -#\n") + ["vertices:", "12", "501", " 1 2\n", "x"]
)


@st.composite
def hypergraph_texts(draw):
    """Arbitrary text, chunk soup, or a header, a `vertices:` line and
    edge lines with small, possibly wrong, numbers."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text(max_size=60))
    if kind == 1:
        return "".join(draw(st.lists(HYPERGRAPH_CHUNKS, max_size=40)))
    small = st.integers(-1, 6)
    lines = [f"{draw(small)} {draw(st.sampled_from([0, 3, 5, 600]))}"]
    if draw(st.booleans()):
        labels = draw(st.lists(small, max_size=6))
        lines.insert(draw(st.integers(0, 1)) + 1,
                     "vertices: " + " ".join(map(str, labels)))
    for _ in range(draw(st.integers(0, 5))):
        lines.append(" ".join(map(str, draw(st.lists(small, max_size=4)))))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(hypergraph_texts())
@example(f"2 {VERTEX_LIMIT + 1}\n1 2\n")  # a header past VERTEX_LIMIT
@example("2 3\n1 2\nvertices: 1 2 3\n")  # vertices: after an edge
@example("2 3\n1 1\n")  # an edge repeating a vertex
def test_any_text_parses_or_raises_parse_or_budget_error(text):
    try:
        H = parse_hypergraph(text)
    except ParseError:
        return
    except BudgetError as exc:
        assert f"> {VERTEX_LIMIT} vertices" in str(exc)
        return
    assert isinstance(H, Hypergraph)
    assert parse_hypergraph(format_hypergraph(H)) == H


def test_relabel_requires_bijection(copath5):
    with pytest.raises(ValueError):
        copath5.relabel({v: 1 for v in copath5.vertices})
    with pytest.raises(ValueError):
        copath5.relabel({1: 2})  # partial map
