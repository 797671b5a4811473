"""Exact (reduced) cellular homology over the rationals or a prime field.

`homology_ranks(X, field, sets)` reads the ranks of an id selection of
a labeled complex ({dim: id bitset}: all its cells, or a downset cut by
`LabeledComplex._select`) straight off the complex's checked columns
(`LabeledComplex.columns`); the faces of selected cells are selected
again, so the selected columns are the selection's boundary matrices.
The complex checks once that consecutive boundaries compose to zero
and raises PreconditionError if not; no selection is re-checked.
Ranks are exact: xor elimination over GF(2) on the columns the complex
packed once (`LabeledComplex.packed_columns`, `_kernels.rank_packed`),
and one sparse column reduction for every other field, mod p for odd p
and over the integers for characteristic zero (`_kernels.rank_mod`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from ._kernels import _picked
from .errors import PreconditionError


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


def _assert_squares_to_zero(keys, columns):
    """Raise PreconditionError unless every boundary composes to zero.

    Takes a complex's keys and augmented columns ({dim: cells in
    id order} and {dim: columns by id}, with every vertex on row 0, the
    empty face, in dimension 0), so each edge's two endpoints must
    cancel as well.  The error names the first failing cell and the
    nonzero coefficients of its boundary's boundary.

    When every coefficient involved is +-1, a cell passes iff the faces
    of its faces, taken with a plus sign, are the same multiset as those
    taken with a minus sign; that is tested by sorting.  Other
    coefficients, and the cell that fails, are summed exactly.
    """
    for dim in range(1, len(columns)):
        below = columns[dim - 1]
        split = _split_by_sign(below)
        for i, col in enumerate(columns[dim]):
            if split is not None and _cancels(col, split):
                continue
            bad = {
                (keys[dim - 2][k] if dim > 1 else "empty face"): v
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
        for sub, subsign in below[face]:
            acc[sub] = acc.get(sub, 0) + sign * subsign
    return acc


def homology_ranks(X, field, sets=None):
    """Reduced homology ranks of X over the field in degrees 0..dim(X).

    With `sets`, an id selection of X ({dim: id bitset}, as
    `LabeledComplex._select` gives), those of the selected cells
    instead; an empty selection has no degrees.  Ranks read X's checked
    columns (`columns`, over GF(2) `packed_columns`), picked by the
    selection; in degree 0 the augmentation sends every vertex to the
    empty face, so its rank is 1 over every field and the ranks come
    out reduced.
    """
    if sets is None:
        if X.is_empty:
            raise PreconditionError("homology of the empty complex is degree -1")
        sets = X._sets
    top = max(sets, default=-1)
    rk = [_boundary_rank(X, field.char, k, sets.get(k)) for k in range(top + 2)]
    return [
        sets.get(k, 0).bit_count() - rk[k] - rk[k + 1]
        for k in range(top + 1)
    ]


def _boundary_rank(X, p, k, bits):
    if not bits:
        return 0
    if not k:
        return 1
    if p == 2:
        return _kernels.rank_packed(_picked(X.packed_columns(k), bits))
    return _kernels.rank_mod(_picked(X.columns(k), bits), p)


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
