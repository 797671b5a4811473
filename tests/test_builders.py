"""Every builder's index against the generic one from the same cells.

`build_complex`, `join` and `parse_complex_dump` hand `LabeledComplex`
keys, label masks and columns of their own making.  Each is compared
here, entry for entry, with the complex `LabeledComplex.from_cells`
builds from the same cells and labels and a boundary rule: `block_boundary` for
block complexes, the complex's own `boundary` otherwise.  Joins are
also checked against the order the former tuple-keyed join sorted its
cells in, and against their own dumps.
"""

import itertools
import random
from pathlib import Path

from cointerval import (
    Hypergraph,
    LabeledComplex,
    build_complex,
    glued_resolution,
    join,
    linear_width,
    parse_complex_dump,
    part_complex,
    taylor_complex,
    write_complex_dump,
)
from cointerval.complexes import block_boundary

from graphs import copath

GOLDEN = Path(__file__).parent / "golden"


def seeded_2graphs(count, seed=23):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(4, 8)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                 if rng.random() < 0.45]
        if 0 < len(edges) <= 9:
            out.append(Hypergraph(2, range(1, n + 1), edges))
    return out


def glued_covers(count):
    """(factors, glued join) for seeded 2-graphs of linear width >= 2."""
    out = []
    for H in seeded_2graphs(40):
        k, cover = linear_width(H)
        if k < 2:
            continue
        glued, _report = glued_resolution(H, cover)
        factors = [
            part_complex(part, cert)
            for part, cert in zip(cover.parts, cover.labelings) if part.edges
        ]
        out.append((factors, glued))
        if len(out) == count:
            break
    return out


def generic(X, boundary=None):
    cells = {c: (X.dim(c), X.label(c)) for c in X.all_cells()}
    return LabeledComplex.from_cells(cells, boundary or X.boundary)


def checked_columns(X):
    """The whole complex's checked columns, {dim: columns by id}."""
    return {d: X.columns(d) for d in range(X.max_dim() + 1)}


def assert_same_index(X, boundary=None, where=None):
    a, b = X, generic(X, boundary)
    assert a._vertices == b._vertices, where
    assert {d: list(k) for d, k in a._keys.items()} == {
        d: list(k) for d, k in b._keys.items()
    }, where
    assert a._masks == b._masks, where
    assert checked_columns(a) == checked_columns(b), where


def test_block_builders_match_generic_index():
    graphs = [copath(n) for n in (5, 6, 7)] + seeded_2graphs(12)
    for H in graphs:
        X = build_complex(H)
        assert_same_index(X, block_boundary, H)
        assert_same_index(X.remapped({v: 10 - v for v in H.vertices}),
                          block_boundary, H)
        assert_same_index(parse_complex_dump(write_complex_dump(X)), None, H)


def test_taylor_and_golden_dumps_match_generic_index(two_k2, copath5):
    assert_same_index(
        parse_complex_dump((GOLDEN / "input_taylor_2k2.dump").read_text())
    )
    for H in (two_k2, copath5, copath(6)):
        T = taylor_complex(H)
        assert_same_index(T, None, H)
        assert_same_index(parse_complex_dump(write_complex_dump(T)), None, H)


def former_join_order(factors):
    """Join cells as the former join sorted them, flattened to keys.

    It held one cell or None per factor and sorted by the factors'
    keys, a vanished factor first.
    """
    arity = [len(next(X.all_cells())) for X in factors]
    combos = [
        combo for combo in itertools.product(
            *([None, *X.all_cells()] for X in factors)
        )
        if any(c is not None for c in combo)
    ]
    combos.sort(key=lambda combo: tuple(
        (c,) if c is not None else () for c in combo
    ))
    by_dim = {}
    for combo in combos:
        picked = [(X, c) for X, c in zip(factors, combo) if c is not None]
        dim = sum(X.dim(c) + 1 for X, c in picked) - 1
        by_dim.setdefault(dim, []).append(sum(
            (c if c is not None else ((),) * a for c, a in zip(combo, arity)),
            (),
        ))
    return by_dim


def orientation_gauge(X, theirs_of):
    """Cell signs e with theirs_of(c) = e[c] * sum(e[f] * s * f) over X's
    boundary of c, or None if the two differ by more than orientation.

    `theirs_of` is a boundary rule, such as another complex's `boundary`;
    a rule with a flipped sign need not pass any complex's check."""
    signs = {}
    for cell in X.all_cells():
        mine = {f: s * signs[f] for f, s in X.boundary(cell)}
        theirs = dict(theirs_of(cell))
        if set(mine) != set(theirs):
            return None
        first = next(iter(mine), None)
        e = 1 if first is None else theirs[first] * mine[first]
        if any(theirs[f] != e * s for f, s in mine.items()):
            return None
        signs[cell] = e
    return signs


def test_glued_joins_match_generic_index_and_their_dumps():
    covers = glued_covers(8)
    assert len(covers) == 8
    for factors, glued in covers:
        assert_same_index(glued)
        assert {d: list(glued.cells(d)) for d in glued.dims()} == (
            former_join_order(factors)
        )
        Y = parse_complex_dump(write_complex_dump(glued))
        assert_same_index(Y)
        assert {d: list(k) for d, k in Y._keys.items()} == {
            d: list(k) for d, k in glued._keys.items()
        }
        assert Y._masks == glued._masks
        # a dump holds no orientation: the parser fixes each cell's first
        # face to +1, so signs agree up to reorienting cells
        assert orientation_gauge(glued, Y.boundary) is not None


def test_orientation_gauge_sees_a_flipped_sign(two_k2):
    _k, cover = linear_width(two_k2)
    glued, _report = glued_resolution(two_k2, cover)
    cell = glued.cells(glued.max_dim())[0]
    flipped = [(f, -s) if i == 0 else (f, s)
               for i, (f, s) in enumerate(glued.boundary(cell))]

    def theirs_of(c):
        return flipped if c == cell else glued.boundary(c)

    assert orientation_gauge(glued, glued.boundary) is not None
    assert orientation_gauge(glued, theirs_of) is None


def test_join_of_a_single_factor_keeps_its_keys(copath5):
    X = build_complex(copath5)
    J = join([X])
    assert list(J.all_cells()) == list(X.all_cells())
    assert checked_columns(J) == checked_columns(X)
