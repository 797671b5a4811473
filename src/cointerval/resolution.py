"""Resolution verification and graded Betti numbers, three ways.

A labeled complex supports a free resolution of the ideal generated by
its vertex labels exactly when every label-bounded subcomplex (downset)
is acyclic; it is minimal when no cell shares its label with a
codimension-1 face.  Betti numbers can then be read off three
independent routes: counting cells by label (valid for the complex of a
cointerval graph, where the resolution is minimal), the homology of the
degree-alpha strands, which is that of the strict downsets (valid for
any verified resolution), and the independence-complex homology formula
(valid for any edge ideal, no complex needed) -- the classical Hochster
reading.

Hochster's route sweeps the unions of edges (the lcm lattice of the
edge ideal; no other vertex subset carries a Betti number).  It grows
the independence complex of H once, as a one-block complex filed like
the others, labeling each face by its own vertex set; the independence
complex of an induced subgraph H[alpha] is then exactly the downset
below alpha, so the whole sweep cuts id selections of one complex whose
boundary is checked (and, over GF(2), packed) once.  It shares the
filer, `union_closure` and the rank kernels with the other routes,
never the block complex of H.

Acyclicity is settled for every downset at once where a lead matching
proves it (`_certified`, bit-parallel over the lattice positions);
exact elimination runs only on the downsets that proof leaves open.
The verification and Hochster sweeps cut a downset as an id selection
(`LabeledComplex._select`) and rank it with `homology_ranks` on the
complex's own columns; no downset is built as a complex.  The strand
route cuts none: it ranks only the blocks of the checked columns
between cells of one label, and on a minimal complex there are none.
A label is made only for a failing degree.  Every route hands its
Betti numbers to `BettiTable` as label masks with the vertex tuple of
the complex it read; the table makes its printed rows from the masks,
once.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field as dataclass_field

from . import _kernels, complexes
from ._kernels import _members, _picked
from .complexes import (
    _filed,
    _holders,
    _lex_subsets,
    union_closure,
)
from .errors import BudgetError, PreconditionError
from .homology import (
    ACYCLIC,
    DEFAULT_FIELDS,
    GF2,
    NOT_ACYCLIC,
    homology_ranks,
)

HOCHSTER_VERTEX_LIMIT = 12  # up to 2^n unions of edges swept
TAYLOR_EDGE_LIMIT = 12  # 2^|E| - 1 Taylor cells guard


class BettiTable:
    """Sparse table of graded Betti numbers beta_{i, alpha}.

    A table holds its entries as label masks: the label vertices in
    ascending order, and {(i, mask): b} with bit k of a mask standing for
    the k-th vertex and no zero b.  The routes build it from the masks
    and the vertex tuple of the complex they read (`from_masks`);
    `BettiTable(entries)` takes a mapping or (key, value) pairs as
    dict() does, each key (i, alpha) with alpha any iterable of
    vertices, and drops zero entries.

    The entries are sorted once, on first need, each keyed by (i, the
    positions of alpha's vertices as an ascending tuple): the vertices
    ascend, so that is the order of (i, alpha) for any vertices and any
    width.  `sorted_entries` and the printed rows (`lines`) read that
    order; `entries`, keyed by (i, frozenset(alpha)), is made afresh on
    each read.  Two tables are equal when their rows are: tables on the
    same vertices compare their masks, and tables read on different
    vertex sets (Hochster's on all vertices of H, the block routes' on
    its support) their `sorted_entries`, which hold the vertices
    themselves.  A table is never equal to a dict, and it is unhashable.
    """

    __slots__ = ("_vertices", "_masks", "_rows")
    __hash__ = None

    def __init__(self, entries=()):
        if hasattr(entries, "keys"):
            entries = entries.items()
        pairs = [(i, tuple(alpha), b) for (i, alpha), b in entries]
        verts = sorted({v for _i, alpha, _b in pairs for v in alpha})
        bit = {v: 1 << k for k, v in enumerate(verts)}
        masks = {}
        for i, alpha, b in pairs:  # a later pair overrides, as in dict()
            mask = 0
            for v in alpha:
                mask |= bit[v]
            masks[(i, mask)] = int(b)
        self._set(tuple(verts), masks)

    @classmethod
    def from_masks(cls, vertices, masks):
        """The table of {(i, mask): b} on ascending `vertices`."""
        table = cls.__new__(cls)
        table._set(vertices, masks)
        return table

    def _set(self, vertices, masks):
        self._vertices = vertices
        self._masks = {key: b for key, b in masks.items() if b}
        self._rows = None

    def __repr__(self):
        return f"BettiTable({self.entries!r})"

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        if self._vertices == other._vertices:  # the rows follow the masks
            return self._masks == other._masks
        return self.sorted_entries() == other.sorted_entries()

    def __bool__(self):
        return bool(self._masks)

    @property
    def entries(self):
        """{(i, frozenset(alpha)): b}, made on each read."""
        verts = self._vertices
        return {
            (i, frozenset(_picked(verts, mask))): b
            for (i, mask), b in self._masks.items()
        }

    def get(self, i, alpha):
        alpha = set(alpha)
        mask = 0
        for k, v in enumerate(self._vertices):
            if v in alpha:
                alpha.discard(v)
                mask |= 1 << k
        return 0 if alpha else self._masks.get((i, mask), 0)

    def coarse(self):
        """Collapse multidegrees to total degree: (i, j) -> beta."""
        out = {}
        for (i, mask), b in self._masks.items():
            key = (i, mask.bit_count())
            out[key] = out.get(key, 0) + b
        return out

    def totals(self):
        """beta_i summed over multidegrees, as a tuple indexed 0..pdim."""
        sums = [0] * (self.pdim() + 1)
        for (i, _mask), b in self._masks.items():
            sums[i] += b
        return tuple(sums)

    def pdim(self):
        return max((i for i, _ in self._masks), default=-1)

    def is_d_linear(self, d):
        """True when beta_{i,j} vanishes except on the line j = i + d."""
        return all(j == i + d for i, j in self.coarse())

    def sorted_entries(self):
        """The rows (i, alpha, b), alpha an ascending tuple, sorted."""
        verts = self._vertices
        # alpha is made from a list: a tuple grown from an iterator keeps
        # its larger block on the tuple free lists and raises peak RSS
        return [
            (i, tuple([verts[k] for k in pos]), b)
            for i, pos, b in self._sorted()
        ]

    def lines(self):
        """The rows as printed, `i | alpha | b` with alpha's vertices
        joined by spaces, in the order of `sorted_entries`; each vertex
        is made text once."""
        text = [str(v) for v in self._vertices]
        return [
            f"{i} | {' '.join([text[k] for k in pos])} | {b}"
            for i, pos, b in self._sorted()
        ]

    def _sorted(self):
        rows = self._rows
        if rows is None:
            # (i, alpha) pairs are distinct, so b never decides the order
            rows = self._rows = sorted(
                (i, tuple(_members(mask)), b)
                for (i, mask), b in self._masks.items()
            )
        return rows


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

    `lattice` holds the label masks of the lcm lattice (bit k for
    `vertices[k]`) and `statuses` one status per position swept, in
    lattice order; a fail-fast sweep stops short of the end.
    `eliminated` counts the degrees whose downset went to exact
    elimination because the lead matching did not settle it; it is data
    only and `summary()` does not print it.
    """

    fields: tuple
    lattice: list = dataclass_field(default_factory=list)
    statuses: list = dataclass_field(default_factory=list)
    vertices: tuple = ()
    failures: list = dataclass_field(default_factory=list)
    minimal: bool = False
    eliminated: int = 0

    @property
    def alpha_status(self):
        """(alpha, status) per position swept, alpha as a frozenset."""
        verts = self.vertices
        return [
            (frozenset(verts[k] for k in _members(mask)), status)
            for mask, status in zip(self.lattice, self.statuses)
        ]

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        # no downset is empty (see verify_resolution), so none is skipped
        head = "pass" if self.passed else "FAIL"
        fields = ", ".join(str(f) for f in self.fields)
        lines = [
            f"acyclic: {head} ({len(self.statuses)} degrees checked, 0 empty, "
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
    (`_certified`) are marked acyclic without cutting the downset.  The
    rest are cut as id selections and go to exact elimination: fields
    are tried in order per degree; the first is the cheap screen and
    the rest confirm.  With fail_fast=True the sweep stops at the first
    failing degree (used inside exhaustive labeling searches).  A
    certified degree cannot fail, so statuses, failures and their order
    are those of a sweep that eliminated every degree over every field.
    The sweep works on label masks; only a failing degree is turned
    into a label.  No downset is empty: a lattice element is a union of
    vertex labels, so its downset holds those vertices.

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
    report.lattice = lattice = X.lattice_masks()
    report.vertices = X._vertices
    statuses = report.statuses
    certified = _certified(X, lattice)
    for pos, mask in enumerate(lattice):
        if certified >> pos & 1:
            statuses.append(ACYCLIC)
            continue
        sets = X._select(mask)
        report.eliminated += 1
        status = ACYCLIC
        prime_passed = False
        for fld in fields:
            if prime_passed and fld.char == 0:
                continue
            ranks = homology_ranks(X, fld, sets)
            if any(ranks):
                status = NOT_ACYCLIC
                nonzero = {k: r for k, r in enumerate(ranks) if r}
                report.failures.append(Failure(X.label_of(mask), fld, nonzero))
                break
            prime_passed = prime_passed or fld.char != 0
        statuses.append(status)
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

    The positions whose alpha holds a label are found once per label,
    bottom-up, from those of the label of the cell's first face: the
    complex checked that a face's label lies inside its cell's, so
    only the holders of the bits the cell adds (one on a block cell)
    are ANDed in.  A vertex starts from the empty face, whose label is
    empty and held everywhere.
    """
    everywhere = (1 << len(lattice)) - 1
    holders = _holders(lattice)
    inside = {0: everywhere}  # label mask -> positions whose alpha holds it
    wheres = []  # per dimension, each cell's entry of `inside`
    below = [0]  # the face labels one dimension down
    for dim in range(X.max_dim() + 1):
        masks = X._masks[dim]
        dim_wheres = []
        for col, mask in zip(X.columns(dim), masks):
            where = inside.get(mask)
            if where is None:
                face = below[col[0][0]] if col else 0
                where = inside[face]
                for k in _members(mask & ~face):
                    where &= holders.get(k, 0)
                inside[mask] = where
            dim_wheres.append(where)
        wheres.append(dim_wheres)
        below = masks

    unsettled = 0
    cleared = {}
    for dim in range(X.max_dim(), -1, -1):
        seen = {}
        for i, (col, where) in enumerate(zip(X.columns(dim), wheres[dim])):
            live = where & ~cleared.get(i, 0)
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
        below = X._masks[dim - 1]
        for col, mask in zip(X.columns(dim), X._masks[dim]):
            for face, _c in col:
                if below[face] == mask:
                    return False
    return True


def betti_from_cells(X):
    """Betti numbers of a minimal resolution, counting cells per label.

    X must support a minimal resolution (the complex of a cointerval
    graph does); then beta_{i, alpha} is the number of i-cells labeled
    alpha.
    """
    betti = {}
    for dim, masks in X._masks.items():
        for mask, count in collections.Counter(masks).items():
            betti[(dim, mask)] = count
    return BettiTable.from_masks(X._vertices, betti)


def betti_from_downset_homology(X, fld=GF2):
    """Betti numbers from the degree-alpha strands of the resolution.

    X must support a resolution, which is verified here; minimality is
    not required.  beta_{0, alpha} counts the generators: one per
    distinct vertex label, even if several vertices carry the same one
    (non-minimal complexes).

    For i >= 1, beta_{i, alpha} is dim H~_{i-1}(X_{<alpha})
    (Bayer-Sturmfels 1998; Miller-Sturmfels, Combinatorial Commutative
    Algebra, Thm 4.7), read off the strand instead of the strict
    downset.  The verification makes X_{<=alpha} acyclic at every
    lattice element alpha, so the long exact sequence of the pair gives
    H~_{i-1}(X_{<alpha}) = H_i(X_{<=alpha}, X_{<alpha}).  The relative
    chains are the cells labeled exactly alpha, and their differential
    is the alpha-block of the checked columns: the entries between cells
    labeled alpha (never the augmentation, whose row has the empty
    label).  So beta_{i, alpha} = n_i - r_i - r_{i+1}, with n_i the
    i-cells labeled alpha and r_i the rank of the alpha-block of the
    boundary d_i, read at the lattice elements only.  On a minimal
    complex every block is zero: no rank is computed and no downset is
    cut.
    """
    report = verify_resolution(X, fields=(fld,))
    if not report.passed:
        raise PreconditionError(
            "complex does not support a resolution over " + str(fld)
        )
    betti = dict.fromkeys(((0, mask) for mask in X._masks.get(0, ())), 1)
    lattice = set(report.lattice)
    counts = collections.Counter()  # (dim, alpha mask) -> cells labeled alpha
    blocks = {}  # (dim, alpha mask) -> nonzero columns of the alpha-block
    for dim in range(1, X.max_dim() + 1):
        masks = X._masks[dim]
        counts.update((dim, mask) for mask in masks if mask in lattice)
        if report.minimal:
            continue  # no cell shares its label with a face
        below = X._masks[dim - 1]
        for col, mask in zip(X.columns(dim), masks):
            block = [(face, c) for face, c in col if below[face] == mask]
            if block:
                blocks.setdefault((dim, mask), []).append(block)
    ranks = {key: _rank(cols, fld.char) for key, cols in blocks.items()}
    for (dim, mask), count in counts.items():
        betti[(dim, mask)] = (
            count - ranks.get((dim, mask), 0) - ranks.get((dim + 1, mask), 0)
        )
    return BettiTable.from_masks(X._vertices, betti)


def _rank(cols, p):
    if p == 2:
        return len(_kernels.pivot_rows_packed(_kernels.pack_gf2(cols)))
    return len(_kernels.pivot_rows_mod(cols, p))


def independence_complex(H):
    """Simplicial complex of the edge-free vertex subsets of H.

    Grown by downward closure (`_lex_subsets` with each edge filed under
    its largest vertex): a face is extended only by vertices above its
    largest one, and the extension by v is cut when it completes an
    edge whose largest vertex is v (the face itself holds no edge, so
    any edge inside the extension contains v).  The faces come out in
    lexicographic order, which is the complex's sort order.  Each face
    is a one-block cell labeled by its own vertex set (bits over
    `H.vertices`), so the independence complex of an induced subgraph
    H[alpha] is exactly the downset below alpha's mask.  Raises
    BudgetError past `complexes.CELL_LIMIT` faces.
    """
    verts = H.vertices
    bit = {v: 1 << k for k, v in enumerate(verts)}
    rests = {v: [] for v in verts}  # edges by largest vertex, minus it
    for e in H.edges:
        rests[e[-1]].append(sum(bit[u] for u in e[:-1]))
    limit = complexes.CELL_LIMIT
    faces = list(itertools.islice(_lex_subsets(verts, bit, rests), limit + 1))
    if len(faces) > limit:
        raise BudgetError(
            f"the independence complex has more than {limit} faces"
        )
    return _filed(
        (((face,), dim, mask, mask) for face, mask, dim in faces), verts, bit
    )


def betti_hochster(H, fld=GF2):
    """Betti numbers via independence-complex homology.

    For a vertex subset alpha, beta_{i, alpha} is the reduced
    (co)homology rank of the independence complex of the induced graph
    in degree |alpha| - i - 2.  Works for any d-graph; no cell complex
    of H is involved, so it serves as the independent oracle.

    Only unions of edges are swept (`union_closure` of the edge masks):
    if a vertex v of alpha lies in no edge of H[alpha], every
    independent set of H[alpha] stays independent with v added, so its
    independence complex is a cone over v and has no homology.  The
    independence complex of H is grown and indexed once
    (`independence_complex`); that of H[alpha] is its downset below
    alpha, so every alpha is one id selection plus exact elimination on
    the shared columns, and label monotonicity and the boundary
    squaring to zero are checked once per call.
    """
    if H.n > HOCHSTER_VERTEX_LIMIT:
        raise BudgetError(
            f"Hochster's formula sweeps up to 2^n vertex subsets; refusing "
            f"{H.n} > {HOCHSTER_VERTEX_LIMIT} vertices"
        )
    ind = independence_complex(H)
    betti = {}
    for amask in union_closure(ind.mask(e) for e in H.edges):
        size = amask.bit_count()
        sets = ind._select(amask)
        if not sets:
            # no independent vertices at all: one unit of homology in
            # degree -1 (only reachable for 1-graphs)
            betti[(size - 1, amask)] = 1
            continue
        ranks = homology_ranks(ind, fld, sets)
        for degree, rank in enumerate(ranks):
            if rank:
                i = size - degree - 2
                if i >= 0:
                    betti[(i, amask)] = rank
    return BettiTable.from_masks(ind._vertices, betti)


def cube_betti(H, V=None):
    """Number of top cells labeled by the whole vertex set.

    Counts block tuples covering V whose transversals are all edges;
    equals the top Betti number beta_{|V| - d, V} for cointerval H.
    Tries every split of V into d runs, C(|V| - 1, d - 1) of them, and
    raises BudgetError before the first when that exceeds
    `complexes.CELL_LIMIT`.
    """
    if V is None:
        V = H.vertices
    sub = H.induced(V)
    verts = tuple(sorted(V))
    size = len(verts)
    if size < H.d:
        return 0
    splits = math.comb(size - 1, H.d - 1)
    if splits > complexes.CELL_LIMIT:
        raise BudgetError(
            f"cube_betti tries every split into d runs; refusing "
            f"{splits} > {complexes.CELL_LIMIT} splits"
        )
    count = 0
    for cuts in itertools.combinations(range(1, size), H.d - 1):
        bounds = (0,) + cuts + (size,)
        blocks = tuple(verts[bounds[i]:bounds[i + 1]] for i in range(H.d))
        if all(t in sub.edges for t in itertools.product(*blocks)):
            count += 1
    return count


def taylor_complex(H):
    """Full simplex on the generators, labeled by unions of edges.

    Cells are nonempty subsets of the edge list, kept as one block of
    edge indices (1-based) so the simplex face rule applies; always a
    resolution, rarely minimal.
    """
    edge_list = H.edge_list()
    if len(edge_list) > TAYLOR_EDGE_LIMIT:
        raise BudgetError(
            f"the Taylor complex has 2^|E| - 1 cells; refusing "
            f"{len(edge_list)} > {TAYLOR_EDGE_LIMIT} edges"
        )
    verts = H.support()
    bit = {v: 1 << k for k, v in enumerate(verts)}
    edge_masks = [sum(bit[v] for v in e) for e in edge_list]
    indices = range(1, len(edge_list) + 1)
    index_bit = {i: 1 << i for i in indices}
    cells = []
    for sub, code, dim in _lex_subsets(indices, index_bit):
        label = 0
        for i in sub:
            label |= edge_masks[i - 1]
        cells.append(((sub,), dim, label, code))
    return _filed(cells, verts, index_bit)
