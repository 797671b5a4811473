"""Resolution verification and graded Betti numbers, three ways.

A labeled complex supports a free resolution of the ideal generated by
its vertex labels exactly when every label-bounded subcomplex (downset)
is acyclic; it is minimal when no cell shares its label with a
codimension-1 face.  Betti numbers can then be read off three
independent routes: counting cells by label (valid for the complex of a
cointerval graph, where the resolution is minimal), reduced homology of
strict downsets (valid for any verified resolution), and the
independence-complex homology formula (valid for any edge ideal, no
complex needed) -- the classical Hochster reading.

Acyclicity is settled for every downset at once where a lead matching
proves it (`_certified`, bit-parallel over the lattice positions);
exact elimination runs only on the downsets that proof leaves open.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field as dataclass_field

from .complexes import LabeledComplex, _holders, _members, build_complex
from .errors import BudgetError, PreconditionError
from .homology import (
    ACYCLIC,
    DEFAULT_FIELDS,
    EMPTY,
    GF2,
    NOT_ACYCLIC,
    boundary_matrices,
    homology_ranks,
)

HOCHSTER_VERTEX_LIMIT = 12  # 2^n vertex-subset sweep guard
TAYLOR_EDGE_LIMIT = 12  # 2^|E| - 1 Taylor cells guard


class BettiTable:
    """Sparse table of graded Betti numbers beta_{i, alpha}."""

    def __init__(self, entries=()):
        self.entries = {
            (i, frozenset(alpha)): int(b)
            for (i, alpha), b in dict(entries).items()
            if b
        }

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.entries == other.entries

    def __bool__(self):
        return bool(self.entries)

    def get(self, i, alpha):
        return self.entries.get((i, frozenset(alpha)), 0)

    def coarse(self):
        """Collapse multidegrees to total degree: (i, j) -> beta."""
        out = {}
        for (i, alpha), b in self.entries.items():
            key = (i, len(alpha))
            out[key] = out.get(key, 0) + b
        return out

    def totals(self):
        """beta_i summed over multidegrees, as a tuple indexed 0..pdim."""
        if not self.entries:
            return ()
        pdim = max(i for i, _ in self.entries)
        sums = [0] * (pdim + 1)
        for (i, _alpha), b in self.entries.items():
            sums[i] += b
        return tuple(sums)

    def pdim(self):
        return max((i for i, _ in self.entries), default=-1)

    def is_d_linear(self, d):
        """True when beta_{i,j} vanishes except on the line j = i + d."""
        return all(j == i + d for i, j in self.coarse())

    def sorted_entries(self):
        return sorted(
            ((i, tuple(sorted(alpha)), b) for (i, alpha), b in self.entries.items()),
            key=lambda t: (t[0], t[1]),
        )

    def format_text(self):
        """One `i | alpha | beta` line per entry, then a coarse block."""
        lines = [
            f"{i} | {' '.join(map(str, alpha))} | {b}"
            for i, alpha, b in self.sorted_entries()
        ]
        lines.append("coarse:")
        for (i, j), b in sorted(self.coarse().items()):
            lines.append(f"{i} {j} {b}")
        return "\n".join(lines) + "\n"


class Failure(tuple):
    """A failing degree: the pair (alpha, field), and where it failed.

    Compares, unpacks and indexes as the pair.  `ranks` maps each degree
    in which the downset below alpha has nonzero reduced homology over
    the field to that rank; `degree`, the lowest of them, is the
    homological degree at which the cellular complex stops being exact
    in multidegree alpha.
    """

    def __new__(cls, alpha, field, ranks):
        self = super().__new__(cls, (alpha, field))
        self.ranks = dict(ranks)
        self.degree = min(self.ranks)
        return self

    def __getnewargs__(self):  # pickle and copy rebuild through __new__
        return (self[0], self[1], self.ranks)

    @property
    def alpha(self):
        return self[0]

    @property
    def field(self):
        return self[1]


@dataclass
class VerificationReport:
    """Outcome of the label-lattice acyclicity sweep over a complex.

    `eliminated` counts the degrees whose downset went to exact
    elimination because the lead matching did not settle it; it is data
    only and `summary()` does not print it.
    """

    fields: tuple
    alpha_status: list = dataclass_field(default_factory=list)
    failures: list = dataclass_field(default_factory=list)
    minimal: bool = False
    eliminated: int = 0

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        checked = sum(1 for _, s in self.alpha_status if s != EMPTY)
        skipped = len(self.alpha_status) - checked
        head = "pass" if self.passed else "FAIL"
        fields = ", ".join(str(f) for f in self.fields)
        lines = [
            f"acyclic: {head} ({checked} degrees checked, {skipped} empty, "
            f"fields {fields})"
        ]
        for alpha, fld in self.failures:
            lines.append(
                f"  failed at alpha = {' '.join(map(str, sorted(alpha)))} "
                f"over {fld}"
            )
        lines.append(f"minimal: {'yes' if self.minimal else 'no'}")
        return "\n".join(lines)


def verify_resolution(X, fields=DEFAULT_FIELDS, fail_fast=False):
    """Check that every downset of X in its label lattice is acyclic.

    Degrees whose downset a lead matching proves acyclic over every field
    (`_certified`) are marked acyclic without building the downset.  The
    rest go to exact elimination: fields are tried in order per degree;
    the first is the cheap screen and the rest confirm.  With
    fail_fast=True the sweep stops at the first failing degree (used
    inside exhaustive labeling searches).  A certified degree cannot
    fail, so statuses, failures and their order are those of a sweep
    that eliminated every degree over every field.

    The rationals are skipped for a degree that a prime field earlier in
    `fields` already passed, because they cannot fail there.  The complex
    checked that the boundary squares to zero over the integers, and an
    integer matrix has rank over Q at least its rank over any GF(p).  So
    if size_k = rp_k + rp_{k+1} in every degree k (acyclic over GF(p)),
    then size_k <= rQ_k + rQ_{k+1} <= size_k, and the downset is acyclic
    over Q as well.  Q listed first, or alone, is still computed.
    An empty `fields` raises ValueError: a sweep over no field would
    pass any complex.
    """
    report = VerificationReport(fields=tuple(fields))
    if not report.fields:
        raise ValueError("verification needs at least one field")
    if X.is_empty:
        report.minimal = True
        return report
    lattice = X.lattice_masks()
    certified = _certified(X, lattice)
    for pos, mask in enumerate(lattice):
        alpha = X.label_of(mask)
        if certified >> pos & 1:
            report.alpha_status.append((alpha, ACYCLIC))
            continue
        sub = X.downset(mask)
        if sub.is_empty:
            report.alpha_status.append((alpha, EMPTY))
            continue
        report.eliminated += 1
        status = ACYCLIC
        prime_passed = False
        for fld in fields:
            if prime_passed and fld.char == 0:
                continue
            ranks = homology_ranks(sub, fld)
            if any(ranks):
                status = NOT_ACYCLIC
                nonzero = {k: r for k, r in enumerate(ranks) if r}
                report.failures.append(Failure(alpha, fld, nonzero))
                break
            prime_passed = prime_passed or fld.char != 0
        report.alpha_status.append((alpha, status))
        if fail_fast and report.failures:
            break
    report.minimal = verify_minimal(X)
    return report


def _certified(X, lattice):
    """Bitset of the lattice positions whose downset is provably acyclic.

    `lattice` holds label masks of X.  Bit i is set when a lead matching
    proves the downset D below lattice[i] acyclic over every field at
    once:

    - For a cell c, lead(c) is the largest row of its column
      (`X.columns`); every vertex leads on row 0, the empty face of the
      augmentation.
    - Walk the dimensions of D from the top down.  N_d is the set of
      d-cells of D that are not cleared, and a d-cell is cleared when it
      is lead(c) for some c in N_{d+1}.
    - Suppose that in every dimension d >= 1 the cells of N_d have
      pairwise distinct leads with coefficient +-1, and that exactly one
      vertex is left uncleared (in the augmentation every vertex leads
      on the empty face).
    - Then the N_d columns are independent over any field: they have
      distinct leading rows with unit entries.
    - Each cleared column lies in the span of the lower-id columns of D.
      Since dd c = 0 and lead(c) is c's largest face, the boundary of
      lead(c) is a combination of the boundaries of c's other faces,
      which are in D because the complex checked label monotonicity.
    - So r_d = |N_d| = size_d - r_{d+1} in every degree, and D has no
      reduced homology over GF(p) for any p, nor over Q.

    Every position is tested at once on int bitsets over the lattice:
    a cell is live at the positions whose alpha holds its label and
    where it is not cleared; per dimension and lead row, positions where
    two live cells meet are duplicates, and the rows' live positions
    become the cleared bits one dimension down.  A position with a
    duplicate (two live vertices among them), a live cell whose column
    is empty or whose lead is not +-1, or no live vertex is left unset;
    its downset goes to exact elimination.
    """
    everywhere = (1 << len(lattice)) - 1
    holders = _holders(lattice)
    inside = {}  # label mask -> positions whose alpha contains the label

    def live_at(mask, cleared):
        where = inside.get(mask)
        if where is None:
            where = everywhere
            for k in _members(mask):
                where &= holders.get(k, 0)
            inside[mask] = where
        return where & ~cleared

    unsettled = 0
    cleared = {}
    for dim in range(X.max_dim(), -1, -1):
        seen = {}
        masks, columns = X._masks[dim], X.columns(dim)
        for i in X.ids(dim):
            col = columns[i]
            live = live_at(masks[i], cleared.get(i, 0))
            if not live:
                continue
            if not col:
                unsettled |= live
                continue
            lead, coeff = max(col)
            if coeff not in (1, -1):
                unsettled |= live
                continue
            hit = seen.get(lead, 0)
            unsettled |= hit & live
            seen[lead] = hit | live
        cleared = seen
    return cleared.get(0, 0) & ~unsettled


def verify_minimal(X):
    """No cell may share its label with any codimension-1 face."""
    for dim in range(1, X.max_dim() + 1):
        masks, below = X._masks[dim], X._masks[dim - 1]
        columns = X.columns(dim)
        for i in X.ids(dim):
            if any(below[face] == masks[i] for face, _c in columns[i]):
                return False
    return True


def betti_from_cells(X):
    """Betti numbers of a minimal resolution, counting cells per label.

    X must support a minimal resolution (the complex of a cointerval
    graph does); then beta_{i, alpha} is the number of i-cells labeled
    alpha.
    """
    entries = {}
    for dim in X.dims():
        for mask, count in collections.Counter(X.masks(dim)).items():
            entries[(dim, X.label_of(mask))] = count
    return BettiTable(entries)


def betti_from_faces(H):
    """Betti numbers of the edge ideal by counting cells per label.

    Valid because the complex of a cointerval graph supports a minimal
    resolution: beta_{i, alpha} is the number of i-cells labeled alpha.
    """
    if not H.is_cointerval():
        raise PreconditionError(
            "face counting needs a cointerval graph as labeled"
        )
    return betti_from_cells(build_complex(H))


def betti_from_downset_homology(X, fld=GF2, checked=False):
    """Betti numbers from reduced homology of strict downsets of X.

    X must support a resolution (verified here unless checked=True);
    minimality is not required.  beta_{0, alpha} counts the generators,
    and for i >= 1, beta_{i, alpha} is the reduced rank of the strict
    downset below alpha in degree i - 1.
    """
    if not checked:
        report = verify_resolution(X, fields=(fld,))
        if not report.passed:
            raise PreconditionError(
                "complex does not support a resolution over " + str(fld)
            )
    # one generator per distinct vertex label, even if several vertices
    # carry the same one (non-minimal complexes)
    entries = {(0, lab): 1 for lab in X.vertex_labels()}
    for alpha in X.lcm_lattice():
        strict = X.downset_lt(alpha)
        if strict.is_empty:
            continue
        ranks = boundary_matrices(strict, fld).homology_ranks()
        for degree, rank in enumerate(ranks):
            if rank:
                entries[(degree + 1, alpha)] = rank
    return BettiTable(entries)


def _independent_subsets(H):
    verts = H.vertices
    edges = [set(e) for e in H.edges]
    out = []
    for size in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, size):
            s = set(sub)
            if not any(e <= s for e in edges):
                out.append(sub)
    return out


def independence_complex(H):
    """Simplicial complex of edge-free vertex subsets, as 1-block cells."""
    return LabeledComplex.from_blocks(
        (sub,) for sub in _independent_subsets(H)
    )


def betti_hochster(H, fld=GF2):
    """Betti numbers via independence-complex homology.

    For each vertex subset alpha, beta_{i, alpha} is the reduced
    (co)homology rank of the independence complex of the induced graph
    in degree |alpha| - i - 2.  Works for any d-graph; no cell complex
    is involved, so it serves as the independent oracle.
    """
    if H.n > HOCHSTER_VERTEX_LIMIT:
        raise BudgetError(
            f"Hochster's formula sweeps every vertex subset; refusing "
            f"{H.n} > {HOCHSTER_VERTEX_LIMIT} vertices"
        )
    entries = {}
    for size in range(H.d, H.n + 1):
        for alpha in itertools.combinations(H.vertices, size):
            sub = H.induced(alpha)
            if not sub.edges:
                continue
            ind = independence_complex(sub)
            if ind.is_empty:
                # no independent vertices at all: one unit of homology in
                # degree -1 (only reachable for 1-graphs)
                i = size - 1
                if i >= 0:
                    entries[(i, frozenset(alpha))] = 1
                continue
            ranks = boundary_matrices(ind, fld).homology_ranks()
            for degree, rank in enumerate(ranks):
                if rank:
                    i = size - degree - 2
                    if i >= 0:
                        entries[(i, frozenset(alpha))] = rank
    return BettiTable(entries)


def cube_betti(H, V=None):
    """Number of top cells labeled by the whole vertex set.

    Counts block tuples covering V whose transversals are all edges;
    equals the top Betti number beta_{|V| - d, V} for cointerval H.
    """
    if V is None:
        V = H.vertices
    sub = H.induced(V)
    verts = tuple(sorted(V))
    size = len(verts)
    if size < H.d:
        return 0
    count = 0
    for cuts in itertools.combinations(range(1, size), H.d - 1):
        bounds = (0,) + cuts + (size,)
        blocks = tuple(verts[bounds[i]:bounds[i + 1]] for i in range(H.d))
        if all(t in sub.edges for t in itertools.product(*blocks)):
            count += 1
    return count


def taylor_complex(H):
    """Full simplex on the generators, labeled by unions of edges.

    Cells are nonempty subsets of the edge list (kept as index blocks so
    the simplex face rule applies); always a resolution, rarely minimal.
    """
    edge_list = H.edge_list()
    if len(edge_list) > TAYLOR_EDGE_LIMIT:
        raise BudgetError(
            f"the Taylor complex has 2^|E| - 1 cells; refusing "
            f"{len(edge_list)} > {TAYLOR_EDGE_LIMIT} edges"
        )
    idx = {i + 1: set(e) for i, e in enumerate(edge_list)}

    def label_fn(blocks):
        out = set()
        for i in blocks[0]:
            out |= idx[i]
        return out

    subsets = []
    for size in range(1, len(edge_list) + 1):
        for sub in itertools.combinations(range(1, len(edge_list) + 1), size):
            subsets.append((sub,))
    return LabeledComplex.from_blocks(subsets, label_fn)
