"""Exact linear algebra kernels: xor for GF(2), one reduction for any field.

The kernels take a matrix as a sequence of sparse columns, each a
sequence of (row, value) pairs with Python-int values; rows may be any
non-negative ints (a selection's columns keep the row ids of the
complex they were picked from), and rank does not depend on which rows
are empty.  Everything is exact:

  GF(2)  each column packed into one int bitmask (`pack_gf2`), xor
         elimination on the packed columns (`rank_packed`); the
         package ranks GF(2) this way;
  GF(p)  sparse column reduction with dict columns, each pivot scaled
         to lead 1 (`rank_mod`; Python ints, so no overflow for any
         prime p, 2 included, where it is independent of the xor);
  Q      the same reduction over the integers (p = 0): a column is
         scaled by the pivot's lead, the pivot subtracted, and the
         result divided by the gcd of its entries.

`nullspace_rational` runs the integer reduction on columns tagged with
their own index, on rows below every real row: a reduced column that
leads on a tag row has lost all its real rows, and its tags are a kernel
vector.  Dump parsing orients cells by sign propagation and calls it
only for a cell that propagation leaves open, in practice on the way to
rejecting a malformed dump.

`_members` and `_picked` read an id bitset: the positions of its set
bits, or the items of a sequence at them.
"""

import itertools
from math import gcd

_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _flags(bits):
    # one byte per bit position of bits, lowest first: 1 if set, else 0
    return bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)


def _members(bits):
    """Positions of the set bits of a non-negative int, ascending.

    A sparse mask (fewer than one set bit in 16) is walked one set bit
    at a time, `rfind` skipping the zeros between them, so a wide bitset
    with few members is cheap; a denser one has its ones picked out of
    `_flags` all at once.
    """
    if bits.bit_count() * 16 < bits.bit_length():
        digits = bin(bits)
        top = len(digits) - 1
        out = []
        i = digits.rfind("1")
        while i > 1:
            out.append(top - i)
            i = digits.rfind("1", 2, i)
        return out
    flags = _flags(bits)
    return list(itertools.compress(range(len(flags)), flags))


def _picked(seq, bits):
    """The items of seq at the set bits of an id bitset, in order."""
    return list(itertools.compress(seq, _flags(bits)))


def rank_mod(cols, p):
    """Rank over GF(p), or over Q for p == 0, of sparse integer columns."""
    return len(_reduce(cols, p))


def nullspace_rational(cols):
    """Integer basis of the rational kernel of a matrix given by sparse
    columns: one list of coefficients per basis vector, one per column."""
    tagged = [tuple(col) + ((-1 - j, 1),) for j, col in enumerate(cols)]
    kernel = [vec for lead, vec in _reduce(tagged, 0).items() if lead < 0]
    return [[vec.get(-1 - j, 0) for j in range(len(cols))] for vec in kernel]


def _reduce(cols, p):
    """Column reduction over GF(p) for any prime p, or over the integers
    for p == 0: every nonzero reduced column, by its leading (largest)
    row."""
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


def pack_gf2(cols):
    """Sparse integer columns mod 2, each as one int: bit r set for an
    odd entry on row r."""
    out = []
    for col in cols:
        mask = 0
        for r, v in col:
            if v & 1:
                mask ^= 1 << r
        out.append(mask)
    return out


def rank_packed(masks):
    """Rank over GF(2) of columns packed by `pack_gf2`; elimination is
    then just xor."""
    pivots = {}
    for mask in masks:
        while mask:
            lead = mask.bit_length() - 1
            other = pivots.get(lead)
            if other is None:
                pivots[lead] = mask
                break
            mask ^= other
    return len(pivots)
