"""A closed-form Betti oracle for strongly stable d-graphs.

For a squarefree strongly stable ideal generated in degree d, the
squarefree Eliahou-Kervaire resolution gives, over every field,
beta_{i, alpha} = #{u in E : u inside alpha, max u = max alpha} when
|alpha| = d + i, and 0 otherwise (Eliahou-Kervaire 1990,
Aramova-Herzog-Hibi 1998).  It reads no complex, so it checks the three
Betti routes, and past Hochster's vertex limit it is the only check of
`faces` and `cellular` that does not read the block complex.
"""

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
    build_complex,
    resolution,
)

FIELDS = (GF2, GF3, QQ)


def stable_betti(H):
    """The table of the formula: alpha = u + sigma for each edge u and
    each set sigma of vertices below max u outside u, i = |sigma|."""
    counts = {}
    for u in H.edges:
        below = [v for v in H.vertices if v < u[-1] and v not in u]
        for i in range(len(below) + 1):
            for sigma in itertools.combinations(below, i):
                key = (i, tuple(sorted(u + sigma)))
                counts[key] = counts.get(key, 0) + 1
    return BettiTable(counts)


def stable_graphs(d, n):
    """Every nonempty strongly stable d-graph on 1..n: the down-sets of
    the d-subsets under lowering one vertex by one, grown in
    lexicographic order, which lists every lowering first."""
    universe = list(itertools.combinations(range(1, n + 1), d))
    out = []

    def grow(at, chosen):
        if at == len(universe):
            if chosen:
                out.append(Hypergraph(d, range(1, n + 1), chosen))
            return
        grow(at + 1, chosen)
        e = universe[at]
        members = set(e)
        if all(
            tuple(sorted(members - {v} | {v - 1})) in chosen
            for v in e if v > 1 and v - 1 not in members
        ):
            grow(at + 1, chosen | {e})

    grow(0, frozenset())
    return out


def borel_closure(n, gens):
    """The strongly stable d-graph on 1..n generated by `gens`."""
    d = len(gens[0])
    return Hypergraph(d, range(1, n + 1), [
        e for e in itertools.combinations(range(1, n + 1), d)
        if any(all(v <= g for v, g in zip(e, gen)) for gen in gens)
    ])


def assert_routes_match(H, hochster=True):
    assert H.is_strongly_stable(), H
    want = stable_betti(H)
    X = build_complex(H)
    assert resolution.betti_from_cells(X) == want, H
    for field in FIELDS:
        assert resolution.betti_from_downset_homology(X, field) == want, (
            H, field
        )
        if hochster:
            assert resolution.betti_hochster(H, field) == want, (H, field)


def test_formula_matches_every_route_up_to_six_vertices():
    graphs = [
        H for n in range(1, 7) for d in range(1, n + 1)
        for H in stable_graphs(d, n)
    ]
    assert len(graphs) == 208
    for H in graphs:
        assert_routes_match(H)


def test_formula_matches_every_route_on_seeded_closures():
    rng = random.Random(12)
    for _ in range(12):
        n = rng.choice((7, 8))
        d = rng.randrange(2, 5)
        gens = [
            sorted(rng.sample(range(1, n + 1), d))
            for _ in range(rng.randrange(1, 4))
        ]
        assert_routes_match(borel_closure(n, gens))


# strongly stable inputs on 13-17 vertices, 337 to 6,139 cells each
PAST_HOCHSTER = [
    (13, [(2, 3, 13)]),
    (13, [(1, 9), (4, 6)]),
    (14, [tuple(range(3, 15))]),
    (15, [(1, 2, 3, 15), (2, 4, 6, 9)]),
    (16, [tuple(range(2, 9)) + (16,)]),
    (16, [tuple(range(3, 17))]),
    (17, [tuple(range(3, 18))]),
    (17, [(1, 2) + tuple(range(4, 15)) + (17,), tuple(range(4, 18))]),
]


@pytest.mark.parametrize("n, gens", PAST_HOCHSTER)
def test_formula_matches_faces_and_cellular_past_hochster(n, gens):
    H = borel_closure(n, gens)
    assert H.n > resolution.HOCHSTER_VERTEX_LIMIT
    with pytest.raises(BudgetError):
        resolution.betti_hochster(H)
    assert_routes_match(H, hochster=False)


def planted(route):
    """`route` with one more on the first row of every table it gives."""
    def wrong(*args):
        rows = route(*args).sorted_entries()
        entries = {(i, alpha): b for i, alpha, b in rows}
        i, alpha, b = rows[0]
        entries[(i, alpha)] = b + 1
        return BettiTable(entries)
    return wrong


@pytest.mark.parametrize("name", [
    "betti_from_cells", "betti_from_downset_homology", "betti_hochster",
])
def test_a_wrong_entry_in_any_route_fails(monkeypatch, name):
    H = borel_closure(6, [(2, 4, 6)])
    assert_routes_match(H)
    monkeypatch.setattr(
        resolution, name, planted(getattr(resolution, name))
    )
    with pytest.raises(AssertionError):
        assert_routes_match(H)
