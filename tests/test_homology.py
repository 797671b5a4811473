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
from sympy import Matrix
from sympy.polys.matrices import DomainMatrix

from cointerval import (
    GF2,
    GF3,
    GF32003,
    QQ,
    Field,
    Hypergraph,
    LabeledComplex,
    PreconditionError,
    acyclicity_status,
    boundary_matrices,
    build_complex,
    enumerate_block_cells,
    homology_ranks,
    is_acyclic,
)
from cointerval._kernels import (
    nullspace_rational,
    rank_bareiss,
    rank_mod,
)
from cointerval.complexes import block_boundary, block_dim
from cointerval.homology import ACYCLIC, EMPTY, NOT_ACYCLIC

ALL_FIELDS = (GF2, GF3, GF32003, QQ)
SRC = Path(__file__).resolve().parents[1] / "src"


def sparse(rows):
    """Dense rows as sparse columns (the rows become the columns)."""
    return [tuple((j, v) for j, v in enumerate(row) if v) for row in rows]


def dense(cc, k):
    """Boundary matrix of degree k of a full complex: one row per k-cell."""
    nrows = 1 if k == 0 else len(cc.matrices[k - 1])
    out = []
    for col in cc.matrices[k]:
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
    assert rank_bareiss(cols) == Matrix(rows).rank()
    for p in (2, 3, 32003):
        dom = DomainMatrix.from_list(rows, sympy_GF(p))
        assert rank_mod(cols, p) == dom.rank(), (rows, p)
    null = nullspace_rational(rows, ncols)
    assert len(null) == ncols - Matrix(rows).rank()
    for vec in null:
        for row in rows:
            assert sum(a * x for a, x in zip(row, vec)) == 0


def test_rank_mod_catches_characteristic():
    cols = [((0, 2),)]
    assert rank_mod(cols, 2) == 0
    assert rank_mod(cols, 3) == 1
    assert rank_bareiss(cols) == 1


def test_rank_mod_huge_prime():
    # p > 2^32: products of residues exceed 64 bits; Python ints absorb it
    p = 2**61 - 1
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randrange(-p, p) for _ in range(5)] for _ in range(5)]
        dom = DomainMatrix.from_list(rows, sympy_GF(p))
        assert rank_mod(sparse(rows), p) == dom.rank()
    # a rank drop only visible modulo p
    assert rank_mod(sparse([[1, 1], [1, 1 + p]]), p) == 1
    assert rank_bareiss(sparse([[1, 1], [1, 1 + p]])) == 2


def test_two_points_not_acyclic(two_k2):
    X = build_complex(two_k2)
    assert X.f_vector() == (2,)
    for fld in ALL_FIELDS:
        assert acyclicity_status(X, fld) == NOT_ACYCLIC
        assert homology_ranks(X, fld) == [1]


def test_cointerval_complexes_acyclic(copath5, k4_3):
    for H in (copath5, k4_3):
        X = build_complex(H)
        for fld in ALL_FIELDS:
            assert acyclicity_status(X, fld) == ACYCLIC
            assert is_acyclic(X, fld)


def test_empty_complex_is_flagged(copath5):
    X = build_complex(Hypergraph(2, [1, 2], []))
    assert acyclicity_status(X, GF2) == EMPTY
    assert not is_acyclic(X, GF2)


def test_single_point_acyclic():
    X = build_complex(Hypergraph(2, [1, 2], [(1, 2)]))
    for fld in ALL_FIELDS:
        assert acyclicity_status(X, fld) == ACYCLIC


def test_circle_homology(copath5):
    # strict downset below the full label of a square-ish region gives a circle
    X = build_complex(copath5)
    Y = X.downset_lt(frozenset({1, 2, 3, 4, 5}))
    for fld in ALL_FIELDS:
        ranks = homology_ranks(Y, fld)
        assert ranks == [0, 0, 1]  # the 2-sphere-less shell of the removed 3-cell


def test_boundary_matrices_shape(copath5):
    X = build_complex(copath5)
    cc = boundary_matrices(X, GF2)
    assert {k: len(m) for k, m in cc.matrices.items()} == {
        0: 7, 1: 11, 2: 6, 3: 1
    }
    # one row per cell, columns over the basis one degree down;
    # the augmentation sends every vertex to the empty cell
    assert dense(cc, 0) == [[1]] * 7
    assert len(dense(cc, 1)) == 11 and len(dense(cc, 1)[0]) == 7
    # the sparse columns index faces in the complex's sort order
    assert all(r in range(len(cc.matrices[k - 1])) for k in (1, 2, 3)
               for col in cc.matrices[k] for r, _v in col)


def test_characteristic_independence_on_downsets(copath5, k4_3):
    for H in (copath5, k4_3):
        X = build_complex(H)
        for alpha in X.lcm_lattice():
            per_field = {
                fld: homology_ranks(X.downset_leq(alpha), fld)
                for fld in ALL_FIELDS
            }
            assert len(set(map(tuple, per_field.values()))) == 1, (
                H,
                alpha,
                per_field,
            )


def test_complex_boundary_ranks_match_sympy(copath5):
    X = build_complex(copath5)
    cc = boundary_matrices(X, QQ)
    assert sorted(cc.matrices) == [0, 1, 2, 3]
    for k, mat in cc.matrices.items():
        assert rank_bareiss(mat) == Matrix(dense(cc, k)).rank()


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
            cc = boundary_matrices(X, fld)
            assert sorted(cc.matrices) == list(range(X.max_dim() + 1))
            for k, mat in cc.matrices.items():
                if mat:
                    dom = DomainMatrix.from_list(dense(cc, k), sympy_GF(p))
                    assert rank_mod(mat, p) == dom.rank()


def flipped_sign(blocks_iter):
    """Block cells with one face sign of ((1,), (2, 3, 4, 5)) flipped."""

    def boundary(cell):
        faces = block_boundary(cell)
        if cell == ((1,), (2, 3, 4, 5)):
            (face, sign), *rest = faces
            faces = [(face, -sign), *rest]
        return faces

    cells = {b: (block_dim(b), frozenset().union(*b)) for b in blocks_iter}
    return LabeledComplex.from_cells(cells, boundary)


def test_flipped_sign_raises(copath5):
    X = flipped_sign(enumerate_block_cells(copath5))
    with pytest.raises(PreconditionError) as err:
        homology_ranks(X, GF2)
    # flipping the first face, ((1,), (3, 4, 5)), leaves -2 times its boundary
    assert str(err.value) == (
        "boundary does not square to zero at ((1,), (2, 3, 4, 5)): "
        "{((1,), (4, 5)): -2, ((1,), (3, 5)): 2, ((1,), (3, 4)): -2}"
    )
    # the downset view path runs the same check and raises the same way
    Y = flipped_sign(enumerate_block_cells(copath5))
    with pytest.raises(PreconditionError):
        Y.downset_leq({1, 2, 3, 4, 5})


def test_flipped_sign_raises_under_optimize():
    code = textwrap.dedent(
        """
        from cointerval import GF2, Hypergraph, LabeledComplex
        from cointerval import PreconditionError
        from cointerval import enumerate_block_cells, homology_ranks
        from cointerval.complexes import block_boundary, block_dim

        def boundary(cell):
            faces = block_boundary(cell)
            if len(cell[1]) == 4:
                (face, sign), *rest = faces
                faces = [(face, -sign), *rest]
            return faces

        H = Hypergraph(2, range(1, 6), [(1, 2), (1, 3), (1, 4), (1, 5),
                                        (2, 4), (2, 5), (3, 5)])
        X = LabeledComplex.from_cells(
            {b: (block_dim(b), frozenset().union(*b))
             for b in enumerate_block_cells(H)},
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
        env={"PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: boundary does not square to zero")


def test_label_not_monotone_rejected():
    # the edge's label misses vertex 3, which one of its endpoints carries
    X = LabeledComplex.from_cells({
        ((1, 2),): (1, frozenset({1, 2})),
        ((1,),): (0, frozenset({1, 3})),
        ((2,),): (0, frozenset({2})),
    }, block_boundary)
    with pytest.raises(PreconditionError, match="not contained in the label"):
        X.columns(1)
    with pytest.raises(PreconditionError):
        X.downset_leq({1, 2, 3})


def test_missing_face_rejected():
    X = LabeledComplex.from_cells({
        ((1, 2),): (1, frozenset({1, 2})),
        ((1,),): (0, frozenset({1})),
    }, block_boundary)
    with pytest.raises(PreconditionError, match="not a cell of dimension 0"):
        homology_ranks(X, GF2)
