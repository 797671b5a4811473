import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF as sympy_GF
from sympy import QQ as sympy_QQ
from sympy import Matrix
from sympy.polys.matrices import DomainMatrix

from cointerval import (
    GF2,
    GF3,
    GF32003,
    QQ,
    Field,
    Hypergraph,
    PreconditionError,
    build_complex,
    homology_ranks,
)
from cointerval import homology
from cointerval._kernels import (
    _members,
    nullspace_rational,
    pack_gf2,
    pivot_rows_mod,
    pivot_rows_packed,
)
from cointerval.complexes import block_dim
from cointerval.homology import _assert_squares_to_zero, _split_by_sign

from graphs import (
    block_boundary,
    downset,
    from_cells,
    members_oracle,
    strict_downset,
)

ALL_FIELDS = (GF2, GF3, GF32003, QQ)
SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent


def sparse(rows):
    """Dense rows as sparse columns (the rows become the columns)."""
    return [tuple((j, v) for j, v in enumerate(row) if v) for row in rows]


def dense(X, k):
    """Boundary matrix of degree k of a full complex: one row per k-cell."""
    nrows = 1 if k == 0 else len(X.columns(k - 1))
    out = []
    for col in X.columns(k):
        row = [0] * nrows
        for r, v in col:
            row[r] += v
        out.append(row)
    return out


def test_field_validation():
    assert str(QQ) == "Q" and str(GF2) == "GF(2)"
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(-3)
    assert Field(32003) == GF32003


def test_field_primality_is_fast_and_exact():
    start = time.perf_counter()
    assert Field(2**61 - 1).char == 2**61 - 1
    assert time.perf_counter() - start < 1.0
    for p in (2, 3, 32003):
        assert Field(p).char == p
    # 2^61 + 1 is divisible by 3; 561 and 41041 are Carmichael numbers;
    # the last one fools Miller-Rabin with the first 12 primes as bases
    for composite in (2**61 + 1, 561, 41041, 318665857834031151167461):
        with pytest.raises(ValueError):
            Field(composite)
    with pytest.raises(ValueError, match="cannot certify"):
        Field(2**89 - 1)  # prime, but beyond the deterministic range


matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(matrices)
@settings(max_examples=80, deadline=None)
def test_rank_kernels_against_sympy(rows):
    ncols = len(rows[0])
    cols = sparse(rows)
    assert len(pivot_rows_mod(cols, 0)) == Matrix(rows).rank()
    for p in (2, 3, 32003):
        dom = DomainMatrix.from_list(rows, sympy_GF(p))
        assert len(pivot_rows_mod(cols, p)) == dom.rank(), (rows, p)
    # the kernel of the matrix with these rows: its columns, sparse
    null = nullspace_rational(sparse(list(zip(*rows))))
    assert len(null) == ncols - Matrix(rows).rank()
    for vec in null:
        for row in rows:
            assert sum(a * x for a, x in zip(row, vec)) == 0


def test_rank_mod_catches_characteristic():
    cols = [((0, 2),)]
    assert len(pivot_rows_mod(cols, 2)) == 0
    assert len(pivot_rows_mod(cols, 3)) == 1
    assert len(pivot_rows_mod(cols, 0)) == 1


def test_rank_mod_huge_prime():
    # p > 2^32: products of residues exceed 64 bits; Python ints absorb it
    p = 2**61 - 1
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randrange(-p, p) for _ in range(5)] for _ in range(5)]
        dom = DomainMatrix.from_list(rows, sympy_GF(p))
        assert len(pivot_rows_mod(sparse(rows), p)) == dom.rank()
    # a rank drop only visible modulo p
    assert len(pivot_rows_mod(sparse([[1, 1], [1, 1 + p]]), p)) == 1
    assert len(pivot_rows_mod(sparse([[1, 1], [1, 1 + p]]), 0)) == 2


def test_packed_gf2_rank_against_rank_mod_and_sympy():
    """Packed once, then xor, against the sparse reduction mod 2 and
    sympy: the rank mod 2 of seeded sparse matrices."""
    rng = random.Random(2010)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 40), rng.randrange(1, 40)
        fill = rng.choice((0.05, 0.15, 0.4))
        rows = [[rng.randint(-5, 5) if rng.random() < fill else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        cols = sparse(list(zip(*rows)))
        want = DomainMatrix.from_list(rows, sympy_GF(2)).rank()
        packed = pivot_rows_packed(pack_gf2(cols))
        assert len(packed) == len(pivot_rows_mod(cols, 2)) == want, rows
    # rows may be any ids, spread far apart, as a downset's are
    spread = [tuple((r * 997, v) for r, v in col) for col in cols]
    assert len(pivot_rows_packed(pack_gf2(spread))) == len(
        pivot_rows_mod(cols, 2)
    )
    # an even entry vanishes, repeated rows cancel
    assert pack_gf2([((3, 2), (1, 1)), ((0, 1), (0, 1))]) == [0b10, 0]


def test_packed_columns_are_the_checked_columns_mod_2(copath5, k4_3):
    for H in (copath5, k4_3):
        X = build_complex(H)
        for dim in X.dims():
            assert X.packed_columns(dim) == pack_gf2(X.columns(dim))
        _sets, view = strict_downset(X, X.lattice_masks()[-1])
        for dim in view.dims():
            assert view.packed_columns(dim) == pack_gf2(view.columns(dim))
    assert X.packed_columns(0) == [1] * len(X.cells(0))  # the augmentation


def bits_of(mask):
    """The per-bit oracle: each binary digit read in turn."""
    return [i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1"]


def test_members_matches_a_per_bit_walk():
    rng = random.Random(1016)
    masks = [0, 1, 2, 3, 0b1011, 1 << 100 | 1, (1 << 64) - 1]
    for width in (8, 20, 300, 5_000, 1 << 16, 1 << 20):
        for density in (0.5, 0.1, 1 / 15, 1 / 17, 0.01):
            digits = ["0"] * width
            for b in rng.sample(range(width), max(1, int(width * density))):
                digits[b] = "1"
            digits[-1] = "1"
            masks.append(int("".join(reversed(digits)), 2))
    # either side of the switch to the per-bit walk: 9 or 10 of 160 bits
    for count in (9, 10):
        mask = 1 << 159 | sum(1 << 16 * i for i in range(count - 1))
        assert (mask.bit_count() * 16 < mask.bit_length()) == (count == 9)
        masks.append(mask)
    for mask in masks:
        assert _members(mask) == bits_of(mask), mask.bit_length()


def test_members_matches_its_former_body():
    # every int below 2^12, and either side of the 64-bit walk
    masks = list(range(1 << 12))
    rng = random.Random(6412)
    for width in (63, 64, 65):
        top = 1 << width - 1
        masks += [top, top | 1, (1 << width) - 1, top | 1 << 31 | 1 << 32]
        masks += [top | rng.getrandbits(width - 1) for _ in range(50)]
        masks += [top | 1 << rng.randrange(width - 1) for _ in range(20)]
    # wide ints, sparse and dense, on both of the former paths
    for width in (100, 1_000, 20_000):
        top = 1 << width - 1
        masks += [top | 1, (1 << width) - 1, top | rng.getrandbits(width)]
        masks.append(top | sum(1 << rng.randrange(width) for _ in range(5)))
    for mask in masks:
        assert _members(mask) == members_oracle(mask), mask


def test_members_on_a_wide_sparse_mask_costs_its_members():
    wide = 1 << 10**5 | 1
    assert _members(wide) == [0, 10**5]
    start = time.perf_counter()
    for _ in range(1000):
        _members(wide)
    assert time.perf_counter() - start < 1.0


def low_rank(rng, n, rank):
    """A dense n x n integer matrix of the given rank (for a generic
    draw), as a product of n x rank and rank x n factors; entries stay
    within +-rank * 200^2."""
    a = [[rng.randint(-200, 200) for _ in range(rank)] for _ in range(n)]
    b = [[rng.randint(-200, 200) for _ in range(n)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_q_rank_on_dense_matrices_against_sympy():
    rng = random.Random(11)
    bound = 10**6
    cases = [
        [[rng.randint(-bound, bound) for _ in range(25)] for _ in range(25)]
        for _ in range(3)
    ]
    cases += [low_rank(rng, 25, r) for r in (1, 7, 24)]
    # a row that is minus another, and a zero column
    rows = [[rng.randint(-bound, bound) for _ in range(25)] for _ in range(25)]
    rows[3] = [-v for v in rows[0]]
    for row in rows:
        row[5] = 0
    cases.append(rows)
    for rows in cases:
        want = DomainMatrix.from_list(rows, sympy_QQ).rank()
        assert len(pivot_rows_mod(sparse(rows), 0)) == want
        assert len(pivot_rows_mod(sparse(list(zip(*rows))), 0)) == want
    assert [DomainMatrix.from_list(r, sympy_QQ).rank() for r in cases] == [
        25, 25, 25, 1, 7, 24, 24
    ]


def test_nullspace_rational_against_sympy():
    rng = random.Random(5)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-50, 50)))
                 for _ in range(ncols)] for _ in range(nrows)]
        null = nullspace_rational(sparse(list(zip(*rows))))
        assert len(null) == ncols - Matrix(rows).rank()
        if null:
            assert Matrix(null).rank() == len(null)
        for vec in null:
            assert len(vec) == ncols and any(vec)
            for row in rows:
                assert sum(a * x for a, x in zip(row, vec)) == 0
    # sparse rows need not start at 0, and a zero column is a kernel
    # vector of its own
    assert nullspace_rational([((7, 2),), ((7, -1), (3, 0)), ()]) == [
        [1, 2, 0], [0, 0, 1]
    ]


def test_two_points_not_acyclic(two_k2):
    X = build_complex(two_k2)
    assert X.f_vector() == (2,)
    for fld in ALL_FIELDS:
        assert any(homology_ranks(X, fld))
        assert homology_ranks(X, fld) == [1]


def test_cointerval_complexes_acyclic(copath5, k4_3):
    for H in (copath5, k4_3):
        X = build_complex(H)
        for fld in ALL_FIELDS:
            assert not any(homology_ranks(X, fld))


def test_empty_complex_is_flagged(copath5):
    X = build_complex(Hypergraph(2, [1, 2], []))
    assert X.is_empty
    with pytest.raises(PreconditionError, match="empty complex"):
        homology_ranks(X, GF2)
    # an empty selection has no degrees
    for fld in ALL_FIELDS:
        assert homology_ranks(build_complex(copath5), fld, {}) == []


def test_single_point_acyclic():
    X = build_complex(Hypergraph(2, [1, 2], [(1, 2)]))
    for fld in ALL_FIELDS:
        assert not any(homology_ranks(X, fld))


def test_circle_homology(copath5):
    # strict downset below the full label of a square-ish region gives a circle
    X = build_complex(copath5)
    _sets, Y = strict_downset(X, X.mask({1, 2, 3, 4, 5}))
    for fld in ALL_FIELDS:
        ranks = homology_ranks(Y, fld)
        assert ranks == [0, 0, 1]  # the 2-sphere-less shell of the removed 3-cell


def test_boundary_matrices_shape(copath5):
    X = build_complex(copath5)
    assert {k: len(X.columns(k)) for k in X.dims()} == {
        0: 7, 1: 11, 2: 6, 3: 1
    }
    # one row per cell, columns over the basis one degree down;
    # the augmentation sends every vertex to the empty cell
    assert dense(X, 0) == [[1]] * 7
    assert len(dense(X, 1)) == 11 and len(dense(X, 1)[0]) == 7
    # the sparse columns index faces in the complex's sort order
    assert all(r in range(len(X.columns(k - 1))) for k in (1, 2, 3)
               for col in X.columns(k) for r, _v in col)


def test_characteristic_independence_on_downsets(copath5, k4_3):
    for H in (copath5, k4_3):
        X = build_complex(H)
        for mask in X.lattice_masks():
            per_field = {
                fld: homology_ranks(downset(X, mask), fld)
                for fld in ALL_FIELDS
            }
            assert len(set(map(tuple, per_field.values()))) == 1, (
                H,
                X.label_of(mask),
                per_field,
            )


def test_complex_boundary_ranks_match_sympy(copath5):
    X = build_complex(copath5)
    assert X.dims() == [0, 1, 2, 3]
    for k in X.dims():
        want = Matrix(dense(X, k)).rank()
        assert len(pivot_rows_mod(X.columns(k), 0)) == want


def test_random_complex_ranks_match_sympy():
    rng = random.Random(7)
    import itertools

    universe = list(itertools.combinations(range(1, 7), 2))
    for _ in range(10):
        edges = [e for e in universe if rng.random() < 0.45]
        X = build_complex(Hypergraph(2, range(1, 7), edges))
        if X.is_empty:
            continue
        for fld, p in ((GF2, 2), (GF3, 3)):
            assert X.dims() == list(range(X.max_dim() + 1))
            rk = {}
            for k in X.dims():
                mat = X.columns(k)
                if mat:
                    dom = DomainMatrix.from_list(dense(X, k), sympy_GF(p))
                    assert len(pivot_rows_mod(mat, p)) == dom.rank()
                    rk[k] = dom.rank()
            # the reduced homology ranks read off sympy's boundary ranks
            assert homology_ranks(X, fld) == [
                len(X.columns(k)) - rk.get(k, 0) - rk.get(k + 1, 0)
                for k in X.dims()
            ]


def flipped_sign(blocks_iter):
    """Block cells with one face sign of ((1,), (2, 3, 4, 5)) flipped."""

    def boundary(cell):
        faces = block_boundary(cell)
        if cell == ((1,), (2, 3, 4, 5)):
            (face, sign), *rest = faces
            faces = [(face, -sign), *rest]
        return faces

    cells = {b: (block_dim(b), frozenset().union(*b)) for b in blocks_iter}
    return from_cells(cells, boundary)


def test_flipped_sign_raises(copath5):
    X = flipped_sign(sorted(build_complex(copath5).all_cells()))
    with pytest.raises(PreconditionError) as err:
        homology_ranks(X, GF2)
    # flipping the first face, ((1,), (3, 4, 5)), leaves -2 times its boundary
    assert str(err.value) == (
        "boundary does not square to zero at ((1,), (2, 3, 4, 5)): "
        "{((1,), (4, 5)): -2, ((1,), (3, 5)): 2, ((1,), (3, 4)): -2}"
    )
    # a downset runs the same check first and raises the same way
    Y = flipped_sign(sorted(build_complex(copath5).all_cells()))
    with pytest.raises(PreconditionError):
        downset(Y, Y.mask({1, 2, 3, 4, 5}))


def split_oracle(columns):
    """`homology._split_by_sign` before its one loop per column: two
    comprehensions per column, None unless they hold every entry."""
    out = []
    for col in columns:
        plus = [r for r, c in col if c == 1]
        minus = [r for r, c in col if c == -1]
        if len(plus) + len(minus) != len(col):
            return None
        out.append((plus, minus))
    return out


def augmented_columns(X):
    """The columns `_checked` hands to the check: the builder's, and the
    augmentation in dimension 0; none of them checked yet."""
    return {0: [((0, 1),)] * len(X.cells(0)), **X._column_rule()}


def test_sign_split_matches_its_former_body(copath5, k4_3):
    for H in (copath5, k4_3):
        columns = augmented_columns(build_complex(H))
        for cols in columns.values():
            assert _split_by_sign(cols) == split_oracle(cols)
    assert _split_by_sign([]) == split_oracle([]) == []
    assert _split_by_sign([(), ((3, -1),)]) == [([], []), ([], [3])]
    for bad in ([((0, 1), (1, 2))], [((0, 1),), ((1, -1), (2, 0))],
                [((0, -2),)], [((0, 1),), ((1, -1),), ((2, 3),)]):
        assert _split_by_sign(bad) is split_oracle(bad) is None


def squares_error(keys, columns):
    with pytest.raises(PreconditionError) as err:
        _assert_squares_to_zero(keys, columns)
    return str(err.value)


def test_squares_check_raises_as_with_the_former_split(copath5, monkeypatch):
    # a flipped sign keeps every coefficient +-1: the sorted route
    # finds the cell and the exact sum names it
    X = flipped_sign(sorted(build_complex(copath5).all_cells()))
    unit = (X._keys, augmented_columns(X))
    # a doubled 2-cell column has no unit split: every 3-cell is summed
    Y = build_complex(copath5)
    doubled = augmented_columns(Y)
    doubled[2][0] = tuple((f, 2 * c) for f, c in doubled[2][0])
    assert _split_by_sign(doubled[2]) is None
    non_unit = (Y._keys, doubled)
    got = [squares_error(*unit), squares_error(*non_unit)]
    assert got[0] == (
        "boundary does not square to zero at ((1,), (2, 3, 4, 5)): "
        "{((1,), (4, 5)): -2, ((1,), (3, 5)): 2, ((1,), (3, 4)): -2}"
    )
    # ((1,), (2, 3, 4)) is the doubled face of ((1,), (2, 3, 4, 5))
    assert got[1] == (
        "boundary does not square to zero at ((1,), (2, 3, 4, 5)): "
        "{((1,), (3, 4)): -1, ((1,), (2, 4)): 1, ((1,), (2, 3)): -1}"
    )
    monkeypatch.setattr(homology, "_split_by_sign", split_oracle)
    assert [squares_error(*unit), squares_error(*non_unit)] == got


def test_flipped_sign_raises_under_optimize():
    code = textwrap.dedent(
        """
        from cointerval import GF2, Hypergraph, PreconditionError
        from cointerval import build_complex, homology_ranks
        from cointerval.complexes import block_dim
        from graphs import block_boundary, from_cells

        def boundary(cell):
            faces = block_boundary(cell)
            if len(cell[1]) == 4:
                (face, sign), *rest = faces
                faces = [(face, -sign), *rest]
            return faces

        H = Hypergraph(2, range(1, 6), [(1, 2), (1, 3), (1, 4), (1, 5),
                                        (2, 4), (2, 5), (3, 5)])
        X = from_cells(
            {b: (block_dim(b), frozenset().union(*b))
             for b in sorted(build_complex(H).all_cells())},
            boundary,
        )
        try:
            homology_ranks(X, GF2)
        except PreconditionError as exc:
            print("raised:", exc)
        else:
            print("no error")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": os.pathsep.join((str(SRC), str(TESTS)))},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: boundary does not square to zero")


def test_label_not_monotone_rejected():
    # the edge's label misses vertex 3, which one of its endpoints carries
    X = from_cells({
        ((1, 2),): (1, frozenset({1, 2})),
        ((1,),): (0, frozenset({1, 3})),
        ((2,),): (0, frozenset({2})),
    }, block_boundary)
    with pytest.raises(PreconditionError, match="not contained in the label"):
        X.columns(1)
    with pytest.raises(PreconditionError):
        downset(X, X.mask({1, 2, 3}))


def test_missing_face_rejected():
    X = from_cells({
        ((1, 2),): (1, frozenset({1, 2})),
        ((1,),): (0, frozenset({1})),
    }, block_boundary)
    with pytest.raises(PreconditionError, match="not a cell of dimension 0"):
        homology_ranks(X, GF2)
