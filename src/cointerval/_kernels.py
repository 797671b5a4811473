"""Exact linear algebra kernels, one per field family.

The rank kernels take a matrix as a sequence of sparse columns, each a
sequence of (row, value) pairs with Python-int values; rows may be any
non-negative ints (a downset's boundary columns keep the row ids of the
complex they were cut from), and rank does not depend on which rows are
empty.  Everything is exact:

  GF(2)  each column packed into one int bitmask, xor elimination;
  GF(p)  sparse column reduction with dict columns, any prime p (Python
         ints, so no overflow);
  Q      densified, then fraction-free (Bareiss) elimination.

`nullspace_rational` is dense Fraction Gauss-Jordan.  Dump parsing
orients cells by sign propagation and calls it only for a cell that
propagation leaves open, in practice on the way to rejecting a
malformed dump; the dump oracle in the tests uses it for every cell.
"""

from fractions import Fraction


def rank_mod(cols, p):
    """Rank over GF(p) of a matrix given by sparse integer columns."""
    if p == 2:
        return _rank_gf2(cols)
    pivots = {}  # leading row -> reduced column with leading entry 1
    for col in cols:
        vec = {}
        for r, v in col:
            v = (vec.get(r, 0) + v) % p
            if v:
                vec[r] = v
            else:
                vec.pop(r, None)
        while vec:
            lead = max(vec)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(vec[lead], -1, p)
                pivots[lead] = {r: v * inv % p for r, v in vec.items()}
                break
            f = vec[lead]
            for r, v in piv.items():
                v = (vec.get(r, 0) - f * v) % p
                if v:
                    vec[r] = v
                else:
                    del vec[r]
    return len(pivots)


def _rank_gf2(cols):
    # Columns packed into single ints; elimination is then just xor.
    pivots = {}
    for col in cols:
        mask = 0
        for r, v in col:
            if v & 1:
                mask ^= 1 << r
        while mask:
            lead = mask.bit_length() - 1
            other = pivots.get(lead)
            if other is None:
                pivots[lead] = mask
                break
            mask ^= other
    return len(pivots)


def rank_bareiss(cols):
    """Rank over the rationals via fraction-free (Bareiss) elimination.

    The sparse columns become the rows of a dense matrix over the rows
    they touch.  Entries stay integral throughout; intermediate values
    are minors of the input, so Python's big ints absorb the growth.
    """
    touched = sorted({r for col in cols for r, _v in col})
    if not touched:
        return 0
    where = {r: j for j, r in enumerate(touched)}
    n = len(touched)
    a = []
    for col in cols:
        row = [0] * n
        for r, v in col:
            row[where[r]] += v
        a.append(row)
    m = len(a)
    rank = 0
    r = 0
    prev = 1
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        arc = a[r][c]
        row_r = a[r]
        for i in range(r + 1, m):
            row_i = a[i]
            aic = row_i[c]
            for j in range(c + 1, n):
                row_i[j] = (arc * row_i[j] - aic * row_r[j]) // prev
            row_i[c] = 0
        prev = arc
        r += 1
        rank += 1
        if r == m:
            break
    return rank


def nullspace_rational(rows, ncols):
    """Basis of the rational nullspace of the matrix, as Fraction lists."""
    m = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -a[i][fc]
        basis.append(vec)
    return basis
