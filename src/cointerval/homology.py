"""Exact (reduced) cellular homology over the rationals or a prime field.

Boundary matrices are sparse signed columns cut from a complex's
checked columns (`LabeledComplex.columns`): the full complex uses them
as they are, a downset view takes the columns of the cells it selects
(their faces are again in the view).  The complex checks once that
consecutive boundaries compose to zero and raises PreconditionError if
not; `boundary_matrices` never re-checks.  Ranks are exact: xor
elimination over GF(2), sparse elimination over GF(p) for odd p, and
fraction-free elimination over the integers for characteristic zero
(`_kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import PreconditionError

_AUG = ("",)  # basis marker for the empty face in augmented complexes


# No composite below MR_EXACT_BELOW is a strong pseudoprime to all of
# the first 13 primes (Sorenson-Webster 2017), so Miller-Rabin with
# these bases proves primality there.  The first 12 bases alone are
# fooled by 318665857834031151167461.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(p):
    """Deterministic Miller-Rabin; raises ValueError beyond its range."""
    if p < 2:
        return False
    if p in MR_BASES:
        return True
    if any(p % q == 0 for q in MR_BASES):
        return False
    if p >= MR_EXACT_BELOW:
        raise ValueError(
            f"cannot certify {p} as prime: the deterministic test is exact "
            f"only below {MR_EXACT_BELOW}"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (char 0) or a prime field GF(p)."""

    char: int

    def __post_init__(self):
        p = self.char
        if p != 0 and not _is_prime(p):
            raise ValueError(f"{p} is not prime")

    def __str__(self):
        return "Q" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)
GF2 = Field(2)
GF3 = Field(3)
GF32003 = Field(32003)
DEFAULT_FIELDS = (GF2, QQ)


class ChainComplex:
    """Sparse integer boundary matrices of a labeled complex.

    `matrices[k]` holds one sparse column per k-cell, as (row,
    coefficient) pairs over the degree-(k-1) cells; in degree 0 the
    augmentation sends every vertex to row 0, the empty face.
    """

    def __init__(self, field, matrices):
        self.field = field
        self.matrices = matrices

    def boundary_rank(self, k):
        mat = self.matrices.get(k)
        if not mat:
            return 0
        if self.field.char == 0:
            return _kernels.rank_bareiss(mat)
        return _kernels.rank_mod(mat, self.field.char)

    def homology_ranks(self):
        """Reduced homology ranks in degrees 0..top."""
        mats = self.matrices
        rk = [self.boundary_rank(k) for k in range(len(mats) + 1)]
        return [len(mats[k]) - rk[k] - rk[k + 1] for k in range(len(mats))]


def boundary_matrices(X, field):
    """The augmented chain complex of X over the field, as sparse columns.

    Columns follow the complex's sort order and rows are ids in the
    complex X was cut from (X itself unless X is a downset).  The
    degree-0 boundary sends every vertex to the empty face, so homology
    ranks come out reduced.
    """
    matrices = {}
    for dim in range(X.max_dim() + 1):
        cols = X.columns(dim)
        matrices[dim] = [cols[i] for i in X.ids(dim)]
    return ChainComplex(field, matrices)


def _assert_squares_to_zero(keys, columns):
    """Raise PreconditionError unless every boundary composes to zero.

    Takes a whole complex's keys and columns ({dim: cells in id order}
    and {dim: columns by id}); the augmentation counts, so each edge's
    two endpoints must cancel as well.  The error names the first
    failing cell and the nonzero coefficients of its boundary's boundary.

    An edge passes when its coefficients sum to zero.  Above that, when
    every coefficient involved is +-1, a cell passes iff the faces of
    its faces, taken with a plus sign, are the same multiset as those
    taken with a minus sign; that is tested by sorting.  Other
    coefficients, and the cell that fails, are summed exactly.
    """
    for dim in sorted(columns):
        below = columns.get(dim - 1)
        split = None if below is None else _split_by_sign(below)
        for i, col in enumerate(columns[dim]):
            if below is None:
                if not sum(sign for _face, sign in col):
                    continue
            elif split is not None and _cancels(col, split):
                continue
            bad = {
                ("empty face" if k == _AUG else keys[dim - 2][k]): v
                for k, v in _boundary_of_boundary(col, below).items() if v
            }
            if bad:
                raise PreconditionError(
                    f"boundary does not square to zero at "
                    f"{keys[dim][i]}: {bad}"
                )


def _split_by_sign(columns):
    """Each column's rows as (rows with +1, rows with -1), or None if some
    coefficient is not a unit."""
    out = []
    for col in columns:
        plus = [r for r, c in col if c == 1]
        minus = [r for r, c in col if c == -1]
        if len(plus) + len(minus) != len(col):
            return None
        out.append((plus, minus))
    return out


def _cancels(col, split):
    plus, minus = [], []
    for face, sign in col:
        p, m = split[face]
        if sign == 1:
            plus += p
            minus += m
        elif sign == -1:
            plus += m
            minus += p
        else:
            return False
    plus.sort()
    minus.sort()
    return plus == minus


def _boundary_of_boundary(col, below):
    acc = {}
    for face, sign in col:
        if below is None:
            acc[_AUG] = acc.get(_AUG, 0) + sign
            continue
        for sub, subsign in below[face]:
            acc[sub] = acc.get(sub, 0) + sign * subsign
    return acc


def homology_ranks(X, field):
    """Reduced homology ranks of X in degrees 0..dim(X)."""
    if X.is_empty:
        raise PreconditionError("homology of the empty complex is degree -1")
    return boundary_matrices(X, field).homology_ranks()


EMPTY = "empty"
ACYCLIC = "acyclic"
NOT_ACYCLIC = "not-acyclic"


def acyclicity_status(X, field):
    """'acyclic', 'not-acyclic', or 'empty' for the empty complex.

    The empty complex gets its own status: its reduced homology is a
    single copy of the field in degree -1, so lumping it with either
    answer would be wrong.
    """
    if X.is_empty:
        return EMPTY
    ranks = homology_ranks(X, field)
    return ACYCLIC if not any(ranks) else NOT_ACYCLIC


def is_acyclic(X, field):
    """True iff X is nonempty with vanishing reduced homology."""
    return acyclicity_status(X, field) == ACYCLIC
