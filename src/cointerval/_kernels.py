"""Exact linear algebra kernels: xor for GF(2), one reduction for the rest.

The kernels take a matrix as a sequence of sparse columns, each a
sequence of (row, value) pairs with Python-int values; rows may be any
non-negative ints (a downset's boundary columns keep the row ids of the
complex they were cut from), and rank does not depend on which rows are
empty.  Everything is exact:

  GF(2)  each column packed into one int bitmask, xor elimination;
  GF(p)  sparse column reduction with dict columns, each pivot scaled
         to lead 1 (Python ints, so no overflow for any prime p);
  Q      the same reduction over the integers (p = 0): a column is
         scaled by the pivot's lead, the pivot subtracted, and the
         result divided by the gcd of its entries.

`nullspace_rational` runs the integer reduction on columns tagged with
their own index, on rows below every real row: a reduced column that
leads on a tag row has lost all its real rows, and its tags are a kernel
vector.  Dump parsing
orients cells by sign propagation and calls it only for a cell that
propagation leaves open, in practice on the way to rejecting a
malformed dump.
"""

from math import gcd


def rank_mod(cols, p):
    """Rank over GF(p), or over Q for p == 0, of sparse integer columns."""
    if p == 2:
        return _rank_gf2(cols)
    return len(_reduce(cols, p))


def nullspace_rational(cols):
    """Integer basis of the rational kernel of a matrix given by sparse
    columns: one list of coefficients per basis vector, one per column."""
    tagged = [tuple(col) + ((-1 - j, 1),) for j, col in enumerate(cols)]
    kernel = [vec for lead, vec in _reduce(tagged, 0).items() if lead < 0]
    return [[vec.get(-1 - j, 0) for j in range(len(cols))] for vec in kernel]


def _reduce(cols, p):
    """Column reduction over GF(p) for odd p, or over the integers for
    p == 0: every nonzero reduced column, by its leading (largest) row."""
    pivots = {}
    for col in cols:
        vec = {}
        for r, v in col:
            v = (vec.get(r, 0) + v) % p if p else vec.get(r, 0) + v
            if v:
                vec[r] = v
            else:
                vec.pop(r, None)
        while vec:
            lead = max(vec)
            piv = pivots.get(lead)
            if piv is None:
                if p:
                    inv = pow(vec[lead], -1, p)
                    vec = {r: v * inv % p for r, v in vec.items()}
                else:
                    vec = _primitive(vec)
                pivots[lead] = vec
                break
            f = vec[lead]
            if not p:
                c = piv[lead]
                g = gcd(c, f)
                c //= g
                f //= g
                if c != 1:
                    vec = {r: v * c for r, v in vec.items()}
            for r, v in piv.items():
                v = (vec.get(r, 0) - f * v) % p if p else vec.get(r, 0) - f * v
                if v:
                    vec[r] = v
                else:
                    del vec[r]
            if not p and vec:
                vec = _primitive(vec)
    return pivots


def _primitive(vec):
    """The integer column divided by the gcd of its entries."""
    g = gcd(*vec.values())
    return {r: v // g for r, v in vec.items()} if g != 1 else vec


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
