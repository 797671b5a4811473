import itertools
import random

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
    interval_representation,
    parse_hypergraph,
)
from cointerval.hypergraph import VERTEX_LIMIT, _nested_layers


def all_graphs(d, n):
    """Every d-graph on 1..n."""
    universe = list(itertools.combinations(range(1, n + 1), d))
    for mask in range(2 ** len(universe)):
        yield Hypergraph(
            d, range(1, n + 1), [e for i, e in enumerate(universe) if mask >> i & 1]
        )


def random_graph(rng, d, vertices, p):
    edges = [
        e for e in itertools.combinations(vertices, d) if rng.random() < p
    ]
    return Hypergraph(d, vertices, edges)


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
    assert copath5 == Hypergraph(2, range(1, 6), reversed(copath5.edge_list()))
    assert len({copath5, copath5}) == 1


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


def test_ss_labeling_matches_sweep_exhaustive():
    # the whole dict, edgeless vertices included, on every small graph
    corpus = [H for n in range(1, 6) for H in all_graphs(2, n)]
    corpus += list(all_graphs(3, 5))
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
    corpus = [H for n in range(1, 6) for H in all_graphs(2, n)]
    corpus += list(all_graphs(3, 5))
    corpus += list(all_graphs(1, 4))
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


@given(graphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_strongly_stable_implies_cointerval(H):
    if H.is_strongly_stable():
        assert H.is_cointerval()


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


def test_chordal():
    C4 = Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    C5 = Hypergraph(2, range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    K4 = Hypergraph(2, range(1, 5), itertools.combinations(range(1, 5), 2))
    tree = Hypergraph(2, range(1, 6), [(1, 2), (1, 3), (2, 4), (2, 5)])
    assert not C4.is_chordal() and not C5.is_chordal()
    assert K4.is_chordal() and tree.is_chordal()
    assert Hypergraph(2, range(1, 4), []).is_chordal()


def test_complement_involution():
    K4 = Hypergraph(2, range(1, 5), itertools.combinations(range(1, 5), 2))
    assert K4.complement().edge_list() == []
    P4 = Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4)])
    assert P4.complement().complement() == P4


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
