"""Downsets agree with complexes built afresh from the same cells."""

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
    verify_resolution,
    write_complex_dump,
)
from cointerval._kernels import _members
from cointerval.complexes import union_closure

GOLDEN = Path(__file__).parent / "golden"
ALL_FIELDS = (GF2, GF3, GF32003, QQ)


def fresh(X, keep):
    """A new complex with X's boundary on the cells whose label passes `keep`.

    The filter works on the frozenset labels, not on the label masks,
    and the new complex builds (and checks) columns of its own.
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
        for mask in X.lattice_masks():
            alpha = X.label_of(mask)
            for strict, keep in (
                (False, lambda lab: lab <= alpha),
                (True, lambda lab: lab < alpha),
            ):
                view = X.downset(mask, strict)
                sets = X._select(mask, strict)
                new = fresh(X, keep)
                where = (name, sorted(alpha))
                assert list(view.all_cells()) == list(new.all_cells()), where
                assert view.f_vector() == new.f_vector(), where
                assert len(view) == len(new) and view.is_empty == new.is_empty
                dump = write_complex_dump(new)
                assert write_complex_dump(view) == dump, where
                if new.is_empty:
                    for fld in ALL_FIELDS:
                        assert homology_ranks(X, fld, sets) == [], where
                    continue
                for fld in ALL_FIELDS:
                    want = homology_ranks(new, fld)
                    assert homology_ranks(view, fld) == want, (where, str(fld))
                    # the selection, ranked on X's own columns
                    assert homology_ranks(X, fld, sets) == want, (
                        where, str(fld)
                    )
                assert verify_resolution(view, ALL_FIELDS).summary() == (
                    verify_resolution(new, ALL_FIELDS).summary()
                ), where
                compared += 1
    assert compared > 200


def test_nested_views_and_membership(copath5):
    X = build_complex(copath5)
    alpha = frozenset({1, 2, 4, 5})
    V = X.downset(X.mask(alpha))
    for beta in X.lattice_masks():
        inner = X.label_of(beta) & alpha
        assert list(V.downset(beta).all_cells()) == list(
            X.downset(X.mask(inner)).all_cells()
        )
    assert list(V.downset(X.mask(alpha), strict=True).all_cells()) == list(
        X.downset(X.mask(alpha), strict=True).all_cells()
    )
    outside = [c for c in X.all_cells() if not X.label(c) <= alpha]
    assert outside
    for cell in X.all_cells():
        assert (cell in V) == (X.label(cell) <= alpha)
    with pytest.raises(KeyError):
        V.label(outside[0])
    # a vertex outside every label has no bit, so it widens no downset
    wide = alpha | {99}
    assert X.mask(wide) == X.mask(alpha)
    assert list(X.downset(X.mask(wide)).all_cells()) == list(V.all_cells())


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
        lattice = [X.label_of(m) for m in X.lattice_masks()]
        assert lattice == frozenset_lcm_lattice(X), name
        assert all(isinstance(a, frozenset) for a in lattice)
        # a view's lattice is closed over its own vertex labels only
        for alpha in lattice[:: max(1, len(lattice) // 5)]:
            V = X.downset(X.mask(alpha))
            assert [V.label_of(m) for m in V.lattice_masks()] == (
                frozenset_lcm_lattice(V)
            ), (name, alpha)


def frontier_closure(gens):
    """The union closure by frontiers, sorted by size and then by the
    ascending bit list built per mask (the former `lattice_masks`)."""
    gens = set(gens)
    closure = set(gens)
    frontier = set(gens)
    while frontier:
        frontier = {a | g for a in frontier for g in gens} - closure
        closure |= frontier
    return sorted(closure, key=lambda m: (m.bit_count(), _members(m)))


def test_union_closure_matches_the_frontier_loop():
    rng = random.Random(5914)
    for width in (5, 9, 14):
        for count in (1, 2, 4, 8, 14):
            for _ in range(6):
                gens = [rng.getrandbits(width) | 1 << rng.randrange(width)
                        for _ in range(count)]
                assert union_closure(gens) == frontier_closure(gens), gens
    # every mask of a width at once: the order alone is under test
    for width in (5, 9, 14):
        everything = [1 << k for k in range(width)]
        assert union_closure(everything) == frontier_closure(everything)
    assert union_closure([]) == []


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
            X.columns(X.max_dim())  # checks the complex
            V = X.downset(X.lattice_masks()[-1], strict=True)
            V.label(next(V.all_cells()))  # fills its caches
            refs = [weakref.ref(X), weakref.ref(V)]
            del X, V
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
