"""Exact (reduced) cellular homology over the rationals or a prime field.

Boundary matrices are assembled from a complex's per-cell signed faces;
construction asserts that consecutive boundaries compose to zero.  Ranks
are computed exactly: fraction-free elimination over the integers for
characteristic zero, modular elimination for GF(p) (compiled kernel when
available).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .errors import PreconditionError

_AUG = ("",)  # basis marker for the empty face in augmented complexes


@dataclass(frozen=True)
class Field:
    """The rationals (char 0) or a prime field GF(p)."""

    char: int

    def __post_init__(self):
        p = self.char
        if p == 0:
            return
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")

    def __str__(self):
        return "Q" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)
GF2 = Field(2)
GF3 = Field(3)
GF32003 = Field(32003)
DEFAULT_FIELDS = (GF2, QQ)


class ChainComplex:
    """Dense integer boundary matrices of a labeled complex."""

    def __init__(self, field, sizes, matrices, augmented):
        self.field = field
        self.sizes = sizes  # dict degree -> number of cells
        self.matrices = matrices  # degree k -> columns over degree-(k-1) basis
        self.augmented = augmented
        self._ranks = None

    def top(self):
        return max(self.sizes) if self.sizes else -1

    def boundary_rank(self, k):
        mat = self.matrices.get(k)
        if not mat or not mat[0]:
            return 0
        if self.field.char == 0:
            return _kernels.rank_bareiss(mat)
        return _kernels.rank_mod(mat, self.field.char)

    def homology_ranks(self):
        """Reduced (if augmented) homology ranks in degrees 0..top."""
        if self._ranks is not None:
            return self._ranks
        top = self.top()
        ranks = []
        rk = {k: self.boundary_rank(k) for k in range(0, top + 2)}
        for i in range(0, top + 1):
            ranks.append(self.sizes.get(i, 0) - rk[i] - rk[i + 1])
        self._ranks = ranks
        return ranks


def boundary_matrices(X, field, augmented=True):
    """Assemble the chain complex of X over the field.

    Columns are indexed by cells in the complex's sort order.  With
    augmented=True the degree-0 boundary is the all-ones augmentation
    row, so homology ranks come out reduced.
    """
    if X.is_empty:
        return ChainComplex(field, {}, {}, augmented)
    top = X.max_dim()
    index = {}
    for dim in range(0, top + 1):
        for pos, cell in enumerate(X.cells(dim)):
            index[cell] = pos
    sizes = {dim: len(X.cells(dim)) for dim in range(0, top + 1)}
    matrices = {}
    if augmented:
        matrices[0] = [[1] for _ in range(sizes[0])]
    for dim in range(1, top + 1):
        rows = sizes[dim - 1]
        cols = []
        for cell in X.cells(dim):
            col = [0] * rows
            for face, sign in X.boundary(cell):
                col[index[face]] += sign
            cols.append(col)
        matrices[dim] = cols
    _assert_squares_to_zero(X, augmented)
    return ChainComplex(field, sizes, matrices, augmented)


def _assert_squares_to_zero(X, augmented):
    for dim in range(1, X.max_dim() + 1):
        for cell in X.cells(dim):
            acc = {}
            for face, sign in X.boundary(cell):
                if dim == 1:
                    if augmented:
                        acc[_AUG] = acc.get(_AUG, 0) + sign
                    continue
                for sub, subsign in X.boundary(face):
                    key = sub
                    acc[key] = acc.get(key, 0) + sign * subsign
            bad = {k: v for k, v in acc.items() if v}
            assert not bad, f"boundary does not square to zero at {cell}: {bad}"


def homology_ranks(X, field):
    """Reduced homology ranks of X in degrees 0..dim(X)."""
    if X.is_empty:
        raise PreconditionError("homology of the empty complex is degree -1")
    return boundary_matrices(X, field, augmented=True).homology_ranks()


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
