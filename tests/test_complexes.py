import itertools
import random

import pytest

from cointerval import (
    GF2,
    Hypergraph,
    PreconditionError,
    build_complex,
    contractibility_certificate,
    fold,
    homology_ranks,
    join,
    taylor_complex,
)

from graphs import block_boundary, downset, from_cells, refusal, strict_downset


def test_block_cells_worked_example(copath5):
    X = build_complex(copath5)
    assert X.f_vector() == (7, 11, 6, 1)
    # the unique 3-cell: vertex 1 against the rest, since 1 meets everything
    top = [c for c in X.all_cells() if X.dim(c) == 3]
    assert top == [((1,), (2, 3, 4, 5))]
    assert X.label(top[0]) == frozenset({1, 2, 3, 4, 5})


def test_cells_are_edge_transversal(copath5):
    for blocks in sorted(build_complex(copath5).all_cells()):
        for pick in itertools.product(*blocks):
            assert tuple(sorted(pick)) in copath5.edges


def test_block_dim_and_labels(k4_3):
    X = build_complex(k4_3)
    for cell in X.all_cells():
        assert X.dim(cell) == sum(len(b) - 1 for b in cell)
        assert X.label(cell) == frozenset(itertools.chain(*cell))


def test_boundary_is_block_shrink():
    cell = ((1, 2), (3, 4, 5))
    faces = dict(block_boundary(cell))
    assert set(faces) == {
        ((2,), (3, 4, 5)),
        ((1,), (3, 4, 5)),
        ((1, 2), (4, 5)),
        ((1, 2), (3, 5)),
        ((1, 2), (3, 4)),
    }
    # first block contributes +/- alternating, second starts at its offset
    assert faces[((2,), (3, 4, 5))] == 1
    assert faces[((1,), (3, 4, 5))] == -1
    assert faces[((1, 2), (4, 5))] == -1


def flipped_triangle():
    """A filled triangle whose 2-cell has one face sign flipped."""
    top = ((1, 2, 3),)
    cells = {
        (block,): (len(block) - 1, frozenset(block))
        for k in (1, 2, 3) for block in itertools.combinations((1, 2, 3), k)
    }

    def boundary(cell):
        faces = block_boundary(cell)
        if cell == top:
            (face, sign), *rest = faces
            faces = [(face, -sign), *rest]
        return faces

    return from_cells(cells, boundary), top


def test_boundary_is_read_only_after_the_check():
    bad, top = flipped_triangle()
    assert len(bad) == 7
    for cell in (top, ((1, 2),)):
        with pytest.raises(PreconditionError, match="square to zero"):
            bad.boundary(cell)
        assert bad._column_rule is not None  # kept to raise again
    # a join checks each factor when it is built, so the error names
    # the factor's cell, not a join cell holding it
    with pytest.raises(PreconditionError,
                       match=r"square to zero at \(\(1, 2, 3\),\):"):
        join([bad, build_complex(Hypergraph(1, [4], [(4,)]))])


def test_boundary_squares_to_zero(copath5, k4_3):
    for H in (copath5, k4_3):
        X = build_complex(H)
        for cell in X.all_cells():
            acc = {}
            for face, s in X.boundary(cell):
                for g, t in X.boundary(face):
                    acc[g] = acc.get(g, 0) + s * t
            assert all(v == 0 for v in acc.values())


def test_lcm_lattice_union_closed(copath5):
    X = build_complex(copath5)
    lattice = [X.label_of(m) for m in X.lattice_masks()]
    assert len(lattice) == 21
    as_set = set(lattice)
    for a, b in itertools.combinations(lattice, 2):
        assert a | b in as_set


def test_downsets(copath5):
    X = build_complex(copath5)
    alpha = frozenset({1, 2, 4})
    le = downset(X, X.mask(alpha))
    _sets, lt = strict_downset(X, X.mask(alpha))
    assert set(le.all_cells()) - set(lt.all_cells()) == {
        c for c in le.all_cells() if le.label(c) == alpha
    }
    assert all(le.label(c) <= alpha for c in le.all_cells())
    assert all(lt.label(c) < alpha for c in lt.all_cells())


def test_fold_worked(copath5, two_k2):
    # layer(3) = {5} nests in layer(2) = {4},{5}
    G = fold(copath5, 2, 3)
    assert sorted(G.edge_list()) == [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5)]
    with pytest.raises(PreconditionError):
        fold(copath5, 3, 2)  # needs i < j
    with pytest.raises(PreconditionError):
        fold(two_k2, 1, 3)  # layer(3) = {4} does not nest in layer(1) = {2}
    assert refusal(fold, copath5, 2, 9) == (
        ValueError, "fold vertices must lie in (1, 2, 3, 4, 5)"
    )


def test_fold_is_homology_invariant_sampled():
    rng = random.Random(42)
    universe = list(itertools.combinations(range(1, 6), 2))
    found = 0
    while found < 30:
        edges = [e for e in universe if rng.random() < 0.5]
        H = Hypergraph(2, range(1, 6), edges)
        pairs = [
            (i, j)
            for i, j in itertools.combinations(sorted(H.support()), 2)
            if H.layer(j).edges and H.layer(j).edges <= H.layer(i).edges
        ]
        if not pairs:
            continue
        i, j = pairs[rng.randrange(len(pairs))]
        found += 1
        before = homology_ranks(build_complex(H), GF2)
        after = homology_ranks(build_complex(fold(H, i, j)), GF2)
        # compare as maps: folding may drop the top dimension entirely
        assert {i: r for i, r in enumerate(before) if r} == {
            i: r for i, r in enumerate(after) if r
        }, (H.edge_list(), i, j)


def test_fold_noop_when_layer_empty(copath5):
    assert fold(copath5, 4, 5) == copath5  # layer(5) is empty


def test_certificate_replay(copath5, k4_3):
    for H in (copath5, k4_3):
        steps = contractibility_certificate(H)
        cur = H
        for step in steps:
            if step[0] == "fold":
                cur = fold(cur, step[1], step[2])  # precondition rechecked
            else:
                cur = cur.layer(step[1])
        assert cur.d == 1
        # a 1-graph complex is a simplex on its edges: contractible on sight
        assert cur.edges
        assert not any(homology_ranks(build_complex(cur), GF2))


def test_certificate_preconditions(two_k2):
    with pytest.raises(PreconditionError):
        contractibility_certificate(two_k2)
    with pytest.raises(PreconditionError):
        contractibility_certificate(Hypergraph(2, [1, 2], []))


def test_certificate_single_edge():
    H = Hypergraph(2, [1, 2], [(1, 2)])
    assert contractibility_certificate(H) == [("descend", 1)]


def test_remapped_preserves_homology(copath5):
    X = build_complex(copath5)
    perm = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
    Y = X.remapped(perm)
    assert homology_ranks(X, GF2) == homology_ranks(Y, GF2)
    assert {Y.label(c) for c in Y.cells(0)} == {
        frozenset(perm[v] for v in X.label(c)) for c in X.cells(0)
    }


def test_remapped_refuses_a_mapping_that_is_no_bijection():
    X = build_complex(Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4)]))
    # two vertices sent to one: on the parent a silent (1, 1, 3, 4)
    with pytest.raises(ValueError, match="undefined or not injective"):
        X.remapped({1: 1, 2: 1, 3: 3, 4: 4})
    # a vertex left out: on the parent a bare KeyError
    with pytest.raises(ValueError, match="undefined or not injective"):
        X.remapped({1: 1, 2: 2, 3: 3})
    Y = X.remapped({v: 5 - v for v in range(1, 5)})
    assert Y._vertices == (1, 2, 3, 4) and Y.f_vector() == (3,)


def test_remapped_checks_block_values_apart_from_label_vertices():
    # a Taylor complex's blocks hold edge indices 1, 2, not its vertices
    X = taylor_complex(Hypergraph(2, range(3, 7), [(3, 4), (5, 6)]))
    on_vertices = {v: v for v in range(3, 7)}
    with pytest.raises(ValueError, match="undefined or not injective"):
        X.remapped(on_vertices)
    with pytest.raises(ValueError, match="undefined or not injective"):
        X.remapped({**on_vertices, 1: 7, 2: 7})
    Y = X.remapped({**on_vertices, 1: 2, 2: 1})
    assert [Y.label(c) for c in Y.cells(0)] == [{5, 6}, {3, 4}]
    assert Y.f_vector() == (2, 1)
