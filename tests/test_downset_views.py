"""Downset views agree with complexes built afresh from the same cells."""

import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest

from cointerval import (
    GF2,
    GF3,
    GF32003,
    QQ,
    Hypergraph,
    LabeledComplex,
    build_complex,
    homology_ranks,
    join,
    read_complex_dump,
)

GOLDEN = Path(__file__).parent / "golden"
ALL_FIELDS = (GF2, GF3, GF32003, QQ)


def fresh(X, keep):
    """A new complex with X's boundary on the cells whose label passes `keep`.

    The filter works on the frozenset labels, not on the index's masks,
    and the new complex builds (and checks) an index of its own.
    """
    cells = {
        c: (X.dim(c), X.label(c)) for c in X.all_cells() if keep(X.label(c))
    }
    return LabeledComplex.from_cells(cells, X.boundary)


def random_2graphs(count, seed=11):
    rng = random.Random(seed)
    universe = list(itertools.combinations(range(1, 7), 2))
    return [
        Hypergraph(2, range(1, 7), [e for e in universe if rng.random() < 0.5])
        for _ in range(count)
    ]


@pytest.fixture
def corpus(copath5, k4_3):
    out = [
        ("copath5", build_complex(copath5)),
        ("k4_3", build_complex(k4_3)),
        ("taylor_2k2", read_complex_dump(GOLDEN / "input_taylor_2k2.dump")),
    ]
    out += [
        (f"random{i}", build_complex(H))
        for i, H in enumerate(random_2graphs(6))
    ]
    assert all(not X.is_empty for _name, X in out)
    return out


def test_views_match_fresh_complexes(corpus):
    compared = 0
    for name, X in corpus:
        for alpha in X.lcm_lattice():
            for view, keep in (
                (X.downset_leq(alpha), lambda lab: lab <= alpha),
                (X.downset_lt(alpha), lambda lab: lab < alpha),
            ):
                new = fresh(X, keep)
                where = (name, sorted(alpha))
                assert list(view.all_cells()) == list(new.all_cells()), where
                assert view.f_vector() == new.f_vector(), where
                assert len(view) == len(new) and view.is_empty == new.is_empty
                if new.is_empty:
                    continue
                for fld in ALL_FIELDS:
                    assert homology_ranks(view, fld) == homology_ranks(
                        new, fld
                    ), (where, str(fld))
                compared += 1
    assert compared > 200


def test_nested_views_and_membership(copath5):
    X = build_complex(copath5)
    alpha = frozenset({1, 2, 4, 5})
    V = X.downset_leq(alpha)
    for beta in X.lcm_lattice():
        inner = beta & alpha
        assert list(V.downset_leq(beta).all_cells()) == list(
            X.downset_leq(inner).all_cells()
        )
    assert list(V.downset_lt(alpha).all_cells()) == list(
        X.downset_lt(alpha).all_cells()
    )
    outside = [c for c in X.all_cells() if not X.label(c) <= alpha]
    assert outside
    for cell in X.all_cells():
        assert (cell in V) == (X.label(cell) <= alpha)
    with pytest.raises(KeyError):
        V.label(outside[0])
    # a label vertex outside every label leaves nothing strictly equal
    wide = alpha | {99}
    assert list(X.downset_lt(wide).all_cells()) == list(V.all_cells())


def frozenset_lcm_lattice(X):
    """The lcm lattice closed on frozenset labels (the former method)."""
    gens = sorted(X.vertex_labels(), key=sorted)
    closure = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                u = a | g
                if u not in closure:
                    closure.add(u)
                    new.add(u)
        frontier = new
    return sorted(closure, key=lambda s: (len(s), sorted(s)))


def test_lcm_lattice_matches_frozenset_closure(corpus):
    more = [
        (f"wide{i}", build_complex(H))
        for i, H in enumerate(random_2graphs(8, seed=29))
        if H.edges
    ]
    # labels off 1..n, so a vertex's bit is its rank, not its value
    far = Hypergraph(2, (3, 10, 40, 77), [(3, 40), (10, 77), (3, 10)])
    more.append(("far", build_complex(far)))
    for name, X in corpus + more:
        lattice = X.lcm_lattice()
        assert lattice == frozenset_lcm_lattice(X), name
        assert all(isinstance(a, frozenset) for a in lattice)
        # a view's lattice is closed over its own vertex labels only
        for alpha in lattice[:: max(1, len(lattice) // 5)]:
            V = X.downset_leq(alpha)
            assert V.lcm_lattice() == frozenset_lcm_lattice(V), (name, alpha)


def test_complexes_are_freed_without_the_cycle_collector(copath5, two_k2):
    # a resolve run drops each complex after printing it; one that refers
    # to itself would stay until the cycle collector runs, and the memory
    # of many such complexes adds up
    builders = [
        lambda: build_complex(copath5),
        lambda: read_complex_dump(GOLDEN / "input_taylor_2k2.dump"),
        lambda: join([build_complex(two_k2.induced((1, 2))),
                      build_complex(two_k2.induced((3, 4)))]),
    ]
    gc.disable()
    try:
        for build in builders:
            X = build()
            X.index()
            V = X.downset_lt(X.lcm_lattice()[-1])
            V.label(next(V.all_cells()))  # fills the shared caches
            refs = [weakref.ref(X), weakref.ref(V)]
            del X, V
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
