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
from dataclasses import dataclass

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


def join(factors):
    """Join of the given complexes (empty factors are dropped).

    A join cell picks a cell or nothing from each factor, and something
    from at least one; its dimension is the sum of the picks' dim + 1,
    minus one, and its label the union of their labels.  Its key is the
    picks' block tuples concatenated, with empty blocks for a factor it
    picks nothing from, which is the block tuple its dump line holds.
    The boundary follows the product rule over the factors, with a
    picked vertex allowed to vanish (its augmentation term).  A factor
    with empty blocks is a join itself and is refused.
    """
    factors = tuple(X for X in factors if not X.is_empty)
    picks = [list(X.all_cells()) for X in factors]
    if any(not block for cells in picks for cell in cells for block in cell):
        raise ValueError(
            "nested joins are not supported; join every factor in one call"
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
        covered = set()
        for part, cert in zip(self.parts, self.labelings):
            if part.d != H.d or part.vertices != H.vertices:
                raise PreconditionError(
                    "cover parts must share the vertex set of the graph"
                )
            if not part.edges <= H.edges:
                raise PreconditionError("cover part has foreign edges")
            covered |= part.edges
            relabeled = part.relabel(cert)
            if family == "cointerval":
                ok = relabeled.is_cointerval()
            else:
                ok = relabeled.is_strongly_stable()
            if not ok:
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


def _identity_cert(H):
    return {v: v for v in H.vertices}


def linear_width(H, family="cointerval", relabel_parts=True):
    """Smallest k with E(H) a union of k family-member edge subsets.

    Exhaustive: every edge subset is tested for family membership (with
    or without relabeling freedom), then a depth-first search finds the
    least k and, among k-part covers, the lexicographically least one by
    sorted part edge lists.  Returns (k, Cover).
    """
    if family not in ("cointerval", "ss"):
        raise ValueError(f"unknown family {family!r}")
    edge_list = H.edge_list()
    t = len(edge_list)
    if t > LINEAR_WIDTH_EDGE_LIMIT:
        raise BudgetError(
            f"linear width is exhaustive; refusing {t} > "
            f"{LINEAR_WIDTH_EDGE_LIMIT} edges"
        )
    if not relabel_parts and family == "ss" and H.vertices != tuple(
        range(1, H.n + 1)
    ):
        raise PreconditionError(
            "fixed-label strong stability needs vertex labels 1..n"
        )
    if t == 0:
        return 0, Cover((), ())
    if family == "cointerval":
        search = find_cointerval_labeling
    else:
        search = find_strongly_stable_labeling

    feasible = []  # (edge tuple sorted, mask, cert)
    for size in range(1, t + 1):
        for combo in itertools.combinations(range(t), size):
            subset = [edge_list[i] for i in combo]
            if relabel_parts:
                cert = _part_cert(H, subset, search)
            else:
                probe = Hypergraph(H.d, H.vertices, subset)
                if family == "cointerval":
                    ok = probe.is_cointerval()
                else:
                    ok = probe.is_strongly_stable()
                cert = _identity_cert(H) if ok else None
            if cert is not None:
                mask = 0
                for i in combo:
                    mask |= 1 << i
                feasible.append((tuple(subset), mask, cert))
    feasible.sort(key=lambda item: item[0])
    full = (1 << t) - 1
    suffix_union = [0] * (len(feasible) + 1)
    for i in range(len(feasible) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | feasible[i][1]

    def dfs(start, k_left, union, chosen):
        if union == full:
            return chosen if k_left == 0 else None
        if k_left == 0 or union | suffix_union[start] != full:
            return None
        for i in range(start, len(feasible)):
            _, mask, _ = feasible[i]
            if mask | union == union:
                continue  # adds nothing; minimal covers always add edges
            got = dfs(i + 1, k_left - 1, union | mask, chosen + (i,))
            if got is not None:
                return got
        return None

    for k in range(1, t + 1):
        picked = dfs(0, k, 0, ())
        if picked is not None:
            parts = tuple(
                Hypergraph(H.d, H.vertices, feasible[i][0]) for i in picked
            )
            certs = tuple(feasible[i][2] for i in picked)
            return k, Cover(parts, certs)
    raise RuntimeError("single edges are always feasible; unreachable")
