"""Pure-Python exact linear algebra kernels.

Matrices are lists of equal-length rows of Python ints.  Everything here
is exact: elimination over GF(p) for prime p, fraction-free elimination
over the integers (giving ranks over the rationals), and a small
rational nullspace routine used when orientations have to be
reconstructed from a bare face poset.
"""

from fractions import Fraction

BACKEND = "python"


def rank_mod(rows, p):
    """Rank of an integer matrix over GF(p)."""
    if p == 2:
        return _rank_gf2(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0 or n == 0:
        return 0
    a = [[v % p for v in row] for row in rows]
    rank = 0
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        row_r = a[r]
        if inv != 1:
            for j in range(c, n):
                row_r[j] = row_r[j] * inv % p
        for i in range(r + 1, m):
            f = a[i][c]
            if f:
                row_i = a[i]
                for j in range(c, n):
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
        r += 1
        rank += 1
        if r == m:
            break
    return rank


def _rank_gf2(rows):
    # Rows packed into single ints; elimination is then just xor.
    pivots = {}
    rank = 0
    for row in rows:
        mask = 0
        for j, v in enumerate(row):
            if v & 1:
                mask |= 1 << j
        while mask:
            lead = mask.bit_length() - 1
            other = pivots.get(lead)
            if other is None:
                pivots[lead] = mask
                rank += 1
                break
            mask ^= other
    return rank


def rank_bareiss(rows):
    """Rank over the rationals via fraction-free (Bareiss) elimination.

    Entries stay integral throughout; intermediate values are minors of
    the input, so Python's big ints absorb the growth.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0 or n == 0:
        return 0
    a = [[int(v) for v in row] for row in rows]
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
