"""Staircase mixed subdivision of a dilated simplex, exactly.

The d-fold Minkowski sum of faces of the simplex on m+1 lattice points
has a staircase subdivision whose maximal cells are window sequences
b = (b_1=1 <= b_2 <= ... <= b_d <= b_{d+1}=m+1): cell i sums the
simplex on points b_i..b_{i+1}.  Faces are weak tuples (t_1, ..., t_d)
of nonempty point sets with max(t_i) <= min(t_{i+1}); their vertices
are the weakly increasing transversals, i.e. degree-d multisets.

Shifting the i-th coordinate of a multiset by i-1 (polarization) turns
multisets into d-subsets of [m+d]; under it the faces of the subdivision
restricted to a d-graph H on [n] (n = m+d) become exactly the block
cells of H's labeled complex.  `restrict_to_graph` realizes that
restriction with integer vertex coordinates; on the complete d-graph
on [m+d] it keeps every weak tuple, so every face of the subdivision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import complexes
from .complexes import block_dim
from .errors import BudgetError, PreconditionError


def enumerate_staircase(d, m):
    """All window sequences, sorted lexicographically."""
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d} m={m}")
    out = []
    for mid in itertools.combinations_with_replacement(range(1, m + 2), d - 1):
        out.append((1,) + mid + (m + 1,))
    return out


def staircase_volume(bseq):
    """Normalized volume of one maximal cell (a multinomial coefficient)."""
    ks = [bseq[i + 1] - bseq[i] for i in range(len(bseq) - 1)]
    m = sum(ks)
    vol = math.factorial(m)
    for k in ks:
        vol //= math.factorial(k)
    return vol


def polarize(multiset):
    """Shift the i-th entry of a sorted multiset by i, giving a set.

    (a_1 <= ... <= a_d) with a_i >= 1 maps to {a_1, a_2+1, ..., a_d+d-1},
    a strictly increasing tuple; this is the bijection between degree-d
    multisets on m+1 letters and d-subsets of [m+d].
    """
    t = tuple(multiset)
    if not t or any(a < 1 for a in t):
        raise ValueError(f"need positive entries, got {t}")
    if any(t[i] > t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"multiset must be weakly increasing, got {t}")
    return tuple(a + i for i, a in enumerate(t))


def depolarize(subset):
    """Inverse of polarize; input must be a strictly increasing tuple."""
    t = tuple(subset)
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"set must be strictly increasing, got {t}")
    out = tuple(a - i for i, a in enumerate(t))
    if not out or any(a < 1 for a in out):
        raise ValueError(f"{t} is not in the image of polarize")
    return out


def cell_to_blocks(bseq):
    """Window cell as a block tuple: block i is b_i..b_{i+1} shifted by i-1."""
    d = len(bseq) - 1
    return tuple(
        tuple(range(bseq[k] + k, bseq[k + 1] + k + 1)) for k in range(d)
    )


def polarize_blocks(taus):
    """Apply the polarization shift blockwise to a weak tuple."""
    return tuple([tuple([a + k for a in tau]) for k, tau in enumerate(taus)])


@dataclass
class Geometry:
    """Realized subcomplex of the staircase subdivision.

    vertices: (id, coords, multiset, polarized label) sorted by multiset;
    faces_by_dim: every face as a weak tuple; maximal: the faces not
    properly contained in another (componentwise).
    """

    d: int
    m: int
    n: int
    vertices: list
    faces_by_dim: dict
    maximal: list

    def f_vector(self):
        if not self.faces_by_dim:
            return ()
        top = max(self.faces_by_dim)
        return tuple(
            len(self.faces_by_dim.get(k, ())) for k in range(top + 1)
        )

    def block_cells(self):
        """All faces as polarized block tuples (the complex-side view)."""
        return {
            polarize_blocks(taus)
            for faces in self.faces_by_dim.values()
            for taus in faces
        }


def window_bseq(taus, m):
    """The window sequence of a full staircase cell, or None.

    Full cells are chains of contiguous windows sharing endpoints,
    starting at 1 and ending at m+1.
    """
    bseq = []
    for k, tau in enumerate(taus):
        if tau != tuple(range(tau[0], tau[-1] + 1)):
            return None
        if k and tau[0] != bseq[-1]:
            return None
        if k == 0:
            bseq.append(tau[0])
        bseq.append(tau[-1])
    if bseq[0] != 1 or bseq[-1] != m + 1:
        return None
    return tuple(bseq)


def restrict_to_graph(d, n, H):
    """Faces of the subdivision whose vertices are all edges of H.

    H must be a d-graph on vertex labels 1..n; the subdivision lives on
    the dilated simplex with m = n - d.  A face survives exactly when
    every transversal polarizes to an edge, so the result's polarized
    block cells coincide with the labeled complex of H.  Raises
    BudgetError once more than `complexes.CELL_LIMIT` faces survive.

    Survival is closed under shrinking blocks, so the faces are grown
    from the surviving vertices (the depolarized edges) one point at a
    time, one dimension after another (`_extend`).  A face is maximal
    exactly when no one-point extension of it survives, since any face
    containing it contains one.
    """
    if H.d != d:
        raise PreconditionError(f"expected a {d}-graph, got d={H.d}")
    if H.vertices != tuple(range(1, n + 1)):
        raise PreconditionError("embedding needs vertex labels 1..n")
    m = n - d
    if m < 0:
        raise PreconditionError(f"need n >= d, got n={n} d={d}")
    # the surviving vertices are the depolarized edges; links[i][rest]:
    # bitmask of the points p such that rest with p put in place i is
    # one of them
    multisets = [tuple(a - k for k, a in enumerate(e)) for e in H.edges]
    links = [{} for _ in range(d)]
    for w in multisets:
        for i in range(d):
            rest = w[:i] + w[i + 1:]
            links[i][rest] = links[i].get(rest, 0) | 1 << w[i]
    # a face travels with the point masks of its blocks
    faces = sorted(
        (tuple((a,) for a in w), tuple(1 << a for a in w)) for w in multisets
    )
    kept = {}
    maximal = []
    count = 0
    limit = complexes.CELL_LIMIT
    while faces:
        kept[len(kept)] = [face[0] for face in faces]
        count += len(faces)
        grown = []
        for face in faces:
            if count + len(grown) > limit:
                raise BudgetError(
                    f"the staircase restriction has more than {limit} faces"
                )
            if not _extend(*face, m, links, grown):
                maximal.append(face[0])
        faces = sorted(grown)
    verts = []
    for taus in kept.get(0, ()):
        multiset = tuple(t[0] for t in taus)
        coords = [0] * (m + 1)
        for a in multiset:
            coords[a - 1] += 1
        label = tuple(a + k for k, a in enumerate(multiset))  # polarized
        verts.append((len(verts), tuple(coords), multiset, label))
    return Geometry(d, m, n, verts, kept, maximal)


def _extend(taus, masks, m, links, grown):
    """Append to `grown` the surviving faces grown from taus; return
    whether any one-point extension of taus survives.

    taus survives, so a one-point extension survives when every
    transversal through its new point is a surviving vertex: in block i
    the new point must lie in the link of every transversal of the
    other blocks (and in the block's weak-order window), and the search
    stops at the first transversal that leaves no point.  Each face of
    positive dimension is grown from one face only: the one without the
    largest point of its last block of size >= 2.  So from taus grow
    only that block or a later one, by a point above its maximum.
    """
    last = first = len(taus) - 1
    while first and len(taus[first]) == 1:
        first -= 1
    extends = False
    for i, tau in enumerate(taus):
        lo = taus[i - 1][-1] if i else 1
        hi = taus[i + 1][0] if i < last else m + 1
        new = (1 << hi + 1) - (1 << lo) - masks[i]
        link = links[i]
        for rest in itertools.product(*taus[:i], *taus[i + 1:]):
            new &= link.get(rest, 0)
            if not new:
                break
        if not new:
            continue
        extends = True
        if i >= first:
            for p in range(tau[-1] + 1, hi + 1):
                if new >> p & 1:
                    grown.append((
                        taus[:i] + (tau + (p,),) + taus[i + 1:],
                        masks[:i] + (masks[i] | 1 << p,) + masks[i + 1:],
                    ))
    return extends


def _format_blocks(taus):
    return " ; ".join(" ".join(map(str, t)) for t in taus)


def _face_vertex_ids(ids_map, taus):
    return sorted({ids_map[tv] for tv in itertools.product(*taus)})


def export_geometry(geom):
    """Text form: header `d m n`, then vertices:, cells:, faces: sections.

    vertices: `id | coords | multiset | label` (one per lattice point);
    cells: the maximal faces as `bseq-or-dash | blocks | vertex ids`;
    faces: every face as `dim | blocks | vertex ids`, sorted by
    (dim, blocks).  All ids refer to the vertices section.
    """
    lines = [f"{geom.d} {geom.m} {geom.n}"]
    ids_map = {v[2]: v[0] for v in geom.vertices}
    lines.append("vertices:")
    for vid, coords, multiset, label in geom.vertices:
        lines.append(
            f"{vid} | {' '.join(map(str, coords))} | "
            f"{' '.join(map(str, multiset))} | {' '.join(map(str, label))}"
        )
    lines.append("cells:")
    for taus in sorted(geom.maximal, key=lambda t: (block_dim(t), t)):
        bseq = window_bseq(taus, geom.m)
        head = " ".join(map(str, bseq)) if bseq else "-"
        ids = " ".join(map(str, _face_vertex_ids(ids_map, taus)))
        lines.append(f"{head} | {_format_blocks(taus)} | {ids}")
    lines.append("faces:")
    for dim in sorted(geom.faces_by_dim):
        for taus in geom.faces_by_dim[dim]:
            ids = " ".join(map(str, _face_vertex_ids(ids_map, taus)))
            lines.append(f"{dim} | {_format_blocks(taus)} | {ids}")
    return "\n".join(lines) + "\n"


def write_geometry(geom, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_geometry(geom))
