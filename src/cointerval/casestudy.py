"""Exhaustive surveys over small isomorphism classes.

Classes of d-graphs on [n] are enumerated by one orbit-marking bitmask
sweep (each edge subset is a bit pattern over the sorted list of
possible edges), which also gives every class its canonical form and
every mask its class; a Burnside cycle count double-checks the class
count.  `classify_all` decorates every class with its recognition
flags, Betti data and linear widths, running each family's labeling
search once per class rather than once per part, and
`counterexample_search` runs the full resolution check over every
labeling of a single graph.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from ._kernels import _members
from .complexes import build_complex
from .covers import LINEAR_WIDTH_EDGE_LIMIT, _least_cover
from .errors import BudgetError, PreconditionError
from .homology import GF2
from .hypergraph import (
    CANONICAL_VERTEX_LIMIT,
    Hypergraph,
    find_cointerval_labeling,
    find_strongly_stable_labeling,
)
from .resolution import betti_hochster, verify_resolution

CLASS_EDGE_LIMIT = 15  # 2^15 bitmasks swept; also bounded by n! marking
LABELING_VERTEX_LIMIT = 6  # 6! = 720 labelings


def _edge_universe(d, n):
    return sorted(itertools.combinations(range(1, n + 1), d))


def _guard_classes(d, n):
    if d < 1:
        raise PreconditionError(f"uniformity must be >= 1, got {d}")
    if n < 0:
        raise PreconditionError(f"vertex count must be >= 0, got {n}")
    t = math.comb(n, d)
    if t > CLASS_EDGE_LIMIT or n > CANONICAL_VERTEX_LIMIT:
        raise BudgetError(
            f"class enumeration sweeps 2^{t} edge sets over {n}! labelings; "
            f"refusing (d={d}, n={n})"
        )
    return t


def _relabelings(universe, n):
    """For each relabeling of [n], in `itertools.permutations` order, the
    position in `universe` of every edge's image.

    Edges are looked up by vertex mask, so an image needs no sort: a
    relabeling is a tuple of vertex bits, `bits[v]` the bit of v's new
    label, and an edge's image mask is the sum of its vertices' bits.
    Position 0 of `bits` is 0 and every getter also reads it, so each
    getter returns a tuple, even for 1-graphs.
    """
    at = {sum(1 << v for v in e): i for i, e in enumerate(universe)}
    getters = [operator.itemgetter(0, *e) for e in universe]
    for perm in itertools.permutations([1 << v for v in range(1, n + 1)]):
        bits = (0,) + perm
        yield [at[sum(get(bits))] for get in getters]


def _orbit_sweep(d, n):
    """(universe, classes, class_of) for the d-graphs on [n].

    Every edge mask over the sorted `universe` not yet marked starts a
    class, and its n! images under the relabelings of [n] are marked
    with that class.  A class's representative is its image with the
    least sorted edge-index list, which is its `canonical_form()` since
    the universe is sorted.  `classes` are in `enumerate_classes` order
    and `class_of[mask]` is the position of the mask's class there.
    """
    t = _guard_classes(d, n)
    universe = _edge_universe(d, n)
    tables = list(_relabelings(universe, n))
    class_of = [-1] * (1 << t)
    least = []
    for mask in range(1 << t):
        if class_of[mask] >= 0:
            continue
        bits = _members(mask)
        best = mask
        for table in tables:
            image = 0
            for i in bits:
                image |= 1 << table[i]
            class_of[image] = len(least)
            # of two equal-sized index sets, the one holding the least
            # index they do not share has the smaller sorted list
            diff = image ^ best
            if image & diff & -diff:
                best = image
        least.append(best)
    classes = [
        Hypergraph(d, range(1, n + 1), [universe[i] for i in _members(m)])
        for m in least
    ]
    order = sorted(
        range(len(classes)),
        key=lambda c: (len(classes[c].edges), classes[c].edge_list()),
    )
    rank = {c: r for r, c in enumerate(order)}
    return universe, [classes[c] for c in order], [rank[c] for c in class_of]


def enumerate_classes(d, n):
    """Canonical representatives of all d-graph classes on [n].

    Sorted by (edge count, canonical edge list).  Exhaustive over all
    2^C(n,d) edge subsets and n! relabelings, so guarded; each
    representative is the least image its class meets in that one
    sweep, so no class is canonicalized again.
    """
    _universe, classes, _class_of = _orbit_sweep(d, n)
    return classes


def burnside_count(d, n):
    """Number of classes by the orbit-counting lemma (independent check)."""
    _guard_classes(d, n)
    universe = _edge_universe(d, n)
    total = 0
    for succ in _relabelings(universe, n):
        cycles = 0
        seen = [False] * len(universe)
        for i in range(len(universe)):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = succ[j]
        total += 1 << cycles
    return total // math.factorial(n)


@dataclass
class ClassRow:
    """One isomorphism class with its survey columns."""

    index: int
    H: Hypergraph
    cointerval_labeling: dict | None
    ss_labeling: dict | None
    f_vector: tuple | None
    coarse_betti: dict
    width_cointerval: int
    width_ss: int
    cover_cointerval: object
    cover_ss: object

    @property
    def cointerval(self):
        return self.cointerval_labeling is not None

    @property
    def strongly_stable(self):
        return self.ss_labeling is not None


def _classify_one(idx, H, co, ss, feasible):
    fvec = build_complex(H.relabel(co)).f_vector() if co else None
    coarse = betti_hochster(H, GF2).coarse()
    wc, cover_c = _least_cover(H, "cointerval", feasible(0))
    ws, cover_s = _least_cover(H, "ss", feasible(1))
    return ClassRow(idx, H, co, ss, fvec, coarse, wc, ws, cover_c, cover_s)


def classify_all(d, n):
    """Survey every class: flags, Betti data, linear widths.

    The complete d-graph is one of the classes, so the survey is refused
    before any class is enumerated when its C(n, d) edges are more than
    `linear_width` takes.  Whether a part has a family labeling depends
    only on its isomorphism class, so each family's search runs once per
    class, on the class representative; that labeling fills the row, and
    the cover search reads a part's answer from its edge mask's class.
    """
    t = _guard_classes(d, n)
    if t > LINEAR_WIDTH_EDGE_LIMIT:
        raise BudgetError(
            f"linear width is exhaustive; refusing the complete {d}-graph "
            f"on {n} vertices, {t} > {LINEAR_WIDTH_EDGE_LIMIT} edges"
        )
    universe, classes, class_of = _orbit_sweep(d, n)
    index = {e: i for i, e in enumerate(universe)}
    labelings = [
        (find_cointerval_labeling(H), find_strongly_stable_labeling(H))
        for H in classes
    ]

    def feasible(k):
        # a part has a labeling (k = 0 cointerval, 1 strongly stable) of
        # its support just when its class has one of all its vertices:
        # isolated vertices constrain neither family
        return lambda part: labelings[
            class_of[sum(1 << index[e] for e in part)]
        ][k] is not None

    return [
        _classify_one(i + 1, H, co, ss, feasible)
        for i, (H, (co, ss)) in enumerate(zip(classes, labelings))
    ]


def _fmt_edges(H):
    if not H.edges:
        return "-"
    return " ".join("".join(map(str, e)) for e in H.edge_list())


def _fmt_coarse(coarse):
    if not coarse:
        return "-"
    return " ".join(f"{i},{j}:{b}" for (i, j), b in sorted(coarse.items()))


def classification_table(rows):
    """Delimited text table, one row per class."""
    lines = ["class | edges | cointerval | ss | f-vector | coarse | w-co | w-ss"]
    for row in rows:
        fvec = " ".join(map(str, row.f_vector)) if row.f_vector else "-"
        lines.append(
            f"{row.index} | {_fmt_edges(row.H)} | "
            f"{'yes' if row.cointerval else 'no'} | "
            f"{'yes' if row.strongly_stable else 'no'} | "
            f"{fvec} | {_fmt_coarse(row.coarse_betti)} | "
            f"{row.width_cointerval} | {row.width_ss}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class LabelingSearchReport:
    total: int
    distinct: int
    passing: list  # relabeling dicts, in lexicographic label order


def counterexample_search(H, fields=(GF2,)):
    """Run the resolution check under every labeling of H.

    All n! assignments of labels 1..n are tried; identical relabeled
    edge sets are verified once (complete graphs collapse to a single
    check).  Returns which labelings pass.
    """
    fields = tuple(fields)
    n = H.n
    if n > LABELING_VERTEX_LIMIT:
        raise BudgetError(
            f"labeling search is exhaustive; refusing {n} > "
            f"{LABELING_VERTEX_LIMIT} vertices"
        )
    labelings = []
    distinct = {}
    for perm in itertools.permutations(range(1, n + 1)):
        mapping = dict(zip(H.vertices, perm))
        edges = frozenset(
            tuple(sorted(mapping[v] for v in e)) for e in H.edges
        )
        labelings.append((mapping, edges))
        distinct.setdefault(edges, None)
    verdicts = {
        edges: verify_resolution(
            build_complex(Hypergraph(H.d, range(1, n + 1), edges)),
            fields=fields, fail_fast=True,
        ).passed
        for edges in distinct
    }
    passing = [
        mapping for mapping, edges in labelings if verdicts[edges]
    ]
    return LabelingSearchReport(
        total=len(labelings), distinct=len(distinct), passing=passing
    )


def net_graph():
    """Triangle with a pendant vertex on each corner (chordal, 6 vertices)."""
    return Hypergraph(
        2, range(1, 7), [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)]
    )


def ss_width_gap_search(d=3, n=5, rows=None):
    """Classes where the strongly stable width exceeds the cointerval one.

    Returns the rows with cointerval width 2 but strongly stable width 3.
    """
    if rows is None:
        rows = classify_all(d, n)
    return [
        row
        for row in rows
        if row.width_cointerval == 2 and row.width_ss == 3
    ]
