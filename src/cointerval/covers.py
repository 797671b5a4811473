"""Joins of labeled complexes, covers, and linear width.

An edge ideal that is not cointerval may still split as a union of
cointerval (or strongly stable) pieces; the join of the pieces' labeled
complexes then supports a resolution of the whole ideal.  The smallest
number of pieces needed is the linear width of the graph, computed here
by exhaustive search over edge subsets.

A join is built straight into a `LabeledComplex`: each cell is keyed by
its factors' block tuples side by side, empty where a factor vanished,
so a join and its dump share keys and sort order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import complexes
from ._kernels import _members
from .complexes import LabeledComplex, build_complex
from .errors import BudgetError, PreconditionError
from .homology import DEFAULT_FIELDS
from .hypergraph import (
    Hypergraph,
    find_cointerval_labeling,
    find_strongly_stable_labeling,
)
from .resolution import verify_resolution

LINEAR_WIDTH_EDGE_LIMIT = 12  # 2^|E| membership sweep guard

# family name -> (labeling search, membership test of a labeled graph);
# each looks its function up when called, so a wrapper put on the module
# name or the method sees every call
_FAMILIES = {
    "cointerval": (
        lambda G: find_cointerval_labeling(G), lambda G: G.is_cointerval()
    ),
    "ss": (
        lambda G: find_strongly_stable_labeling(G),
        lambda G: G.is_strongly_stable(),
    ),
}


def _family(name):
    """(search, test) of a family; ValueError for an unknown name."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return _FAMILIES[name]


def join(factors):
    """Join of the given complexes (empty factors are dropped).

    A join cell picks a cell or nothing from each factor, and something
    from at least one; its dimension is the sum of the picks' dim + 1,
    minus one, and its label the union of their labels.  Its key is the
    picks' block tuples concatenated, with empty blocks for a factor it
    picks nothing from, which is the block tuple its dump line holds.
    The boundary follows the product rule over the factors, with a
    picked vertex allowed to vanish (its augmentation term).  A factor
    with empty blocks is a join itself and is refused.  The factors with
    c_1, ..., c_m cells have (c_1 + 1) ... (c_m + 1) - 1 join cells;
    more than `complexes.CELL_LIMIT` raise BudgetError before any is made.
    """
    factors = tuple(X for X in factors if not X.is_empty)
    picks = [list(X.all_cells()) for X in factors]
    if any(not block for cells in picks for cell in cells for block in cell):
        raise ValueError(
            "nested joins are not supported; join every factor in one call"
        )
    size = math.prod(len(cells) + 1 for cells in picks) - 1
    if size > complexes.CELL_LIMIT:
        raise BudgetError(
            f"the join has {size} > {complexes.CELL_LIMIT} cells"
        )
    vanished = [((),) * len(cells[0]) for cells in picks]
    # factor i's blocks sit at key[starts[i]:starts[i + 1]]
    starts = list(itertools.accumulate(map(len, vanished), initial=0))
    slots = list(zip(factors, starts, starts[1:], vanished))
    cells = {}
    for combo in itertools.product(*([v] + c for v, c in zip(vanished, picks))):
        picked = [(X, c) for X, c in zip(factors, combo) if any(c)]
        if picked:
            cells[sum(combo, ())] = (
                sum(X.dim(c) + 1 for X, c in picked) - 1,
                frozenset().union(*(X.label(c) for X, c in picked)),
            )

    def boundary(key):
        out = []
        offset = 0
        for X, a, b, empty in slots:
            cell = key[a:b]
            if not any(cell):
                continue
            dim = X.dim(cell)
            sign = -1 if offset & 1 else 1
            for face, s in X.boundary(cell):
                out.append((key[:a] + face + key[b:], sign * s))
            dropped = key[:a] + empty + key[b:]
            if dim == 0 and any(dropped):
                out.append((dropped, sign))
            offset += dim + 1
        return out

    return LabeledComplex.from_cells(cells, boundary)


@dataclass(frozen=True)
class Cover:
    """Edge-partitioned view of a graph with per-part label certificates.

    Each part lives on the full vertex set of the covered graph and
    comes with an injective relabeling under which it belongs to the
    target family (checked by `validate`).
    """

    parts: tuple
    labelings: tuple

    def validate(self, H, family="cointerval"):
        _search, is_member = _family(family)
        covered = set()
        for part, cert in zip(self.parts, self.labelings):
            if part.d != H.d or part.vertices != H.vertices:
                raise PreconditionError(
                    "cover parts must share the vertex set of the graph"
                )
            if not part.edges <= H.edges:
                raise PreconditionError("cover part has foreign edges")
            covered |= part.edges
            if not is_member(part.relabel(cert)):
                raise PreconditionError(
                    f"part certificate fails the {family} check"
                )
        if covered != H.edges:
            raise PreconditionError("cover does not reach every edge")


def part_complex(part, cert):
    """Labeled complex of a part, carried back to the original vertices."""
    inverse = {new: old for old, new in cert.items()}
    return build_complex(part.relabel(cert)).remapped(inverse)


def glued_resolution(H, cover, fields=DEFAULT_FIELDS, family="cointerval"):
    """Join the part complexes and verify the result resolves the ideal."""
    cover.validate(H, family)
    factors = [
        part_complex(part, cert)
        for part, cert in zip(cover.parts, cover.labelings)
        if part.edges
    ]
    glued = join(factors)
    report = verify_resolution(glued, fields)
    return glued, report


def _part_cert(H, edge_subset, search):
    """Relabeling placing the part's support first, as `search` labels
    it, and H's other vertices after it; None if the search finds none."""
    support = sorted({v for e in edge_subset for v in e})
    found = search(Hypergraph(H.d, support, edge_subset))
    if found is None:
        return None
    cert = dict(found)
    nxt = len(support) + 1
    for v in H.vertices:
        if v not in cert:
            cert[v] = nxt
            nxt += 1
    return cert


def linear_width(H, family="cointerval"):
    """Smallest k with E(H) a union of k family-member edge subsets.

    Exhaustive: every nonempty edge subset is searched for a family
    labeling of its support, then `_least_cover` finds the least k and,
    among k-part covers, the lexicographically least one by sorted part
    edge lists.  Returns (k, Cover).
    """
    search, _is_member = _family(family)
    return _least_cover(
        H, family, lambda part: _part_cert(H, part, search) is not None
    )


def _least_cover(H, family, feasible):
    """(k, Cover) of the least k-part cover whose parts pass `feasible`.

    `feasible` takes a nonempty sorted list of H's edges and says whether
    it has a family labeling.  A depth-first search over the passing
    edge masks, in the order of their sorted edge lists, finds the least
    k and the lexicographically least k-part cover; the family search
    then labels only the k picked parts.
    """
    search, _is_member = _family(family)
    edge_list = H.edge_list()
    t = len(edge_list)
    if t > LINEAR_WIDTH_EDGE_LIMIT:
        raise BudgetError(
            f"linear width is exhaustive; refusing {t} > "
            f"{LINEAR_WIDTH_EDGE_LIMIT} edges"
        )
    if t == 0:
        return 0, Cover((), ())
    subsets = sorted(
        combo
        for size in range(1, t + 1)
        for combo in itertools.combinations(range(t), size)
    )
    masks = [
        sum(1 << i for i in combo)
        for combo in subsets
        if feasible([edge_list[i] for i in combo])
    ]
    full = (1 << t) - 1
    # (union, parts left) -> least start it failed from; a later start
    # offers fewer parts, so it fails from there too
    dead = {}

    def dfs(start, k_left, union, chosen):
        if union == full:
            return chosen if k_left == 0 else None
        if k_left == 0 or start >= dead.get((union, k_left), len(masks)):
            return None
        for i in range(start, len(masks)):
            mask = masks[i]
            if mask | union == union:
                continue  # adds nothing; minimal covers always add edges
            got = dfs(i + 1, k_left - 1, union | mask, chosen + (mask,))
            if got is not None:
                return got
        dead[(union, k_left)] = start
        return None

    for k in range(1, t + 1):
        picked = dfs(0, k, 0, ())
        if picked is not None:
            parts = [
                [edge_list[i] for i in _members(mask)]
                for mask in picked
            ]
            certs = tuple(_part_cert(H, part, search) for part in parts)
            if None in certs:
                raise RuntimeError(
                    f"a part passed as {family} but its search found no "
                    "labeling"
                )
            cover = tuple(Hypergraph(H.d, H.vertices, part) for part in parts)
            return k, Cover(cover, certs)
    raise RuntimeError("single edges are always feasible; unreachable")
