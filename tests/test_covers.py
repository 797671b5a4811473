import itertools

import pytest

from cointerval import (
    GF2,
    GF3,
    QQ,
    BudgetError,
    Cover,
    Hypergraph,
    PreconditionError,
    build_complex,
    glued_resolution,
    homology_ranks,
    join,
    linear_width,
    part_complex,
    taylor_complex,
    verify_resolution,
)
from cointerval.casestudy import net_complement


def zero_sphere(a, b):
    seg = build_complex(Hypergraph(1, [a, b], [(a,), (b,)]))
    return seg.downset_lt(frozenset({a, b}))


def test_join_of_spheres():
    s1 = join([zero_sphere(1, 2), zero_sphere(3, 4)])
    for fld in (GF2, GF3, QQ):
        assert homology_ranks(s1, fld) == [0, 1]  # a circle
    s2 = join([zero_sphere(1, 2), zero_sphere(3, 4), zero_sphere(5, 6)])
    assert s2.f_vector() == (6, 12, 8)  # the octahedron
    for fld in (GF2, GF3, QQ):
        assert homology_ranks(s2, fld) == [0, 0, 1]


def test_join_boundary_squares_to_zero():
    X = join([zero_sphere(1, 2), build_complex(Hypergraph(2, [3, 4], [(3, 4)]))])
    for cell in X.all_cells():
        acc = {}
        for face, s in X.boundary(cell):
            for g, t in X.boundary(face):
                acc[g] = acc.get(g, 0) + s * t
        assert all(v == 0 for v in acc.values())


def split_by_arity(factors, cell):
    """A join key cut into one piece per factor; None where it vanished."""
    out, at = [], 0
    for F in factors:
        arity = len(next(F.all_cells()))
        piece = cell[at:at + arity]
        out.append(piece if any(piece) else None)
        at += arity
    assert at == len(cell)
    return out


def test_join_labels_are_unions():
    factors = [zero_sphere(1, 2), zero_sphere(3, 4)]
    X = join(factors)
    for cell in X.all_cells():
        pieces = split_by_arity(factors, cell)
        expect = frozenset()
        for i, c in enumerate(pieces):
            if c is not None:
                expect |= factors[i].label(c)
        assert X.label(cell) == expect
        assert X.dim(cell) == sum(
            factors[i].dim(c) + 1 for i, c in enumerate(pieces) if c is not None
        ) - 1


def test_join_drops_empty_factors(copath5):
    X = build_complex(copath5)
    E = build_complex(Hypergraph(2, [9, 10], []))
    assert join([X, E]).f_vector() == X.f_vector()


def test_linear_width_cointerval_is_one(copath5, k4_3):
    for H in (copath5, k4_3):
        k, cover = linear_width(H)
        assert k == 1
        assert cover.parts[0].edges == H.edges


def test_linear_width_2k2(two_k2):
    k, cover = linear_width(two_k2)
    assert k == 2
    assert [p.edge_list() for p in cover.parts] == [[(1, 2)], [(3, 4)]]
    glued, report = glued_resolution(two_k2, cover, fields=(GF2, GF3, QQ))
    assert report.passed and report.minimal
    assert glued.f_vector() == taylor_complex(two_k2).f_vector() == (2, 1)


def test_glued_resolution_refuses_no_fields(two_k2):
    _k, cover = linear_width(two_k2)
    with pytest.raises(ValueError, match="at least one field"):
        glued_resolution(two_k2, cover, fields=())


def test_linear_width_fixed_labels():
    C4 = Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert linear_width(C4)[0] == 1  # relabels to a cointerval graph
    assert linear_width(C4, relabel_parts=False)[0] == 3


def test_linear_width_ss_family(two_k2):
    k, cover = linear_width(two_k2, family="ss")
    assert k == 2
    glued, report = glued_resolution(two_k2, cover, family="ss")
    assert report.passed


def test_linear_width_net_complement():
    H = net_complement()
    k, cover = linear_width(H)
    assert k == 2
    glued, report = glued_resolution(H, cover)
    assert report.passed
    assert not report.minimal  # no minimal cellular resolution exists this way


def test_linear_width_budget():
    K6 = Hypergraph(2, range(1, 7), itertools.combinations(range(1, 7), 2))
    with pytest.raises(BudgetError):
        linear_width(K6)  # 15 edges > the exhaustive sweep budget


def test_cover_validation(two_k2):
    ok_parts = (
        Hypergraph(2, range(1, 5), [(1, 2)]),
        Hypergraph(2, range(1, 5), [(3, 4)]),
    )
    ident = {v: v for v in range(1, 5)}
    swap = {1: 3, 2: 4, 3: 1, 4: 2}
    Cover(ok_parts, (ident, swap)).validate(two_k2, "cointerval")
    # a part with a non-edge
    bad = (Hypergraph(2, range(1, 5), [(1, 3)]), ok_parts[1])
    with pytest.raises(PreconditionError):
        Cover(bad, (ident, ident)).validate(two_k2, "cointerval")
    # parts that do not cover every edge
    with pytest.raises(PreconditionError):
        Cover((ok_parts[0],), (ident,)).validate(two_k2, "cointerval")
    # certificate that does not make the part a family member
    not_ss = {v: v for v in range(1, 5)}
    with pytest.raises(PreconditionError):
        Cover(
            (Hypergraph(2, range(1, 5), [(3, 4)]), ok_parts[0]),
            (not_ss, ident),
        ).validate(two_k2, "ss")


def test_part_complex_carries_original_vertices(two_k2):
    part = Hypergraph(2, range(1, 5), [(3, 4)])
    cert = {3: 1, 4: 2, 1: 3, 2: 4}
    X = part_complex(part, cert)
    assert list(X.all_cells()) == [((3,), (4,))]
    assert X.label(((3,), (4,))) == frozenset({3, 4})


def test_duplicate_parts_verify_but_not_minimal(two_k2):
    part1 = Hypergraph(2, range(1, 5), [(1, 2)])
    part2 = Hypergraph(2, range(1, 5), [(3, 4)])
    ident = {v: v for v in range(1, 5)}
    swap = {1: 3, 2: 4, 3: 1, 4: 2}
    cover = Cover((part1, part1, part2), (ident, ident, swap))
    glued, report = glued_resolution(two_k2, cover)
    assert report.passed
    assert not report.minimal  # the doubled generator shows up twice
