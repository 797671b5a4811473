"""d-uniform hypergraphs on integer-labeled vertices.

Vertex labels carry meaning everywhere in this package: layers,
cointervality and strong stability are all read off the integer order.
A d-graph here is a set of d-element edges over an explicit vertex set;
vertices absent from every edge are allowed and impose no ordering
constraints.

The central recognition routine is `Hypergraph.is_cointerval`, the
recursive layer-nesting condition: every layer must itself be cointerval
and the layers must shrink (as edge sets) when the root vertex grows.
For 2-graphs this class is exactly the complements of interval graphs,
which `interval_representation` witnesses directly.

`find_cointerval_labeling` searches the relabelings depth-first.  On a
2-graph it first tests the complement for being an interval graph
(chordal, by the same routine as `Hypergraph.is_chordal`, and free of
asteroidal triples), so a 2-graph without a labeling is refused in
polynomial time and only d >= 3 or a 2-graph with a labeling reaches
the search and its placement budget.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetError, ParseError, PreconditionError

CANONICAL_VERTEX_LIMIT = 8  # exhaustive relabeling guard: 8! permutations
COINTERVAL_PLACEMENT_LIMIT = 50_000  # labeling search guard: DFS placements
# parser guard: the labeling search recurses once per vertex and block
# growth once per block, at most d <= n frames each (Python's default
# limit is 1,000), and `check` prints n!, which str() refuses past 4,300
# digits (n > ~1,550)
VERTEX_LIMIT = 500


@dataclass(frozen=True, slots=True, repr=False)
class Hypergraph:
    """Immutable d-uniform hypergraph with sorted-tuple edges."""

    d: int
    vertices: tuple
    edges: frozenset

    def __post_init__(self):
        d = self.d
        if d < 1:
            raise ValueError(f"uniformity must be >= 1, got {d}")
        vs = tuple(sorted(set(int(v) for v in self.vertices)))
        vset = set(vs)
        norm = set()
        for e in self.edges:
            t = tuple(sorted(int(v) for v in e))
            if len(t) != d or len(set(t)) != d:
                raise ValueError(f"edge {t} is not a {d}-element set")
            if not set(t) <= vset:
                raise ValueError(f"edge {t} uses vertices outside {vs}")
            norm.add(t)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(norm))

    def __repr__(self):
        es = ",".join("".join(map(str, e)) for e in self.edge_list())
        return f"Hypergraph(d={self.d}, V={list(self.vertices)}, E={{{es}}})"

    @property
    def n(self):
        return len(self.vertices)

    def edge_list(self):
        return sorted(self.edges)

    def support(self):
        """Vertices that appear in at least one edge."""
        seen = set()
        for e in self.edges:
            seen.update(e)
        return tuple(sorted(seen))

    def layer(self, v):
        """The v-layer: edges containing v with every other vertex above v.

        Returns a (d-1)-graph on the remaining vertices (edge sets keep
        their original labels, v itself is dropped).
        """
        if self.d == 1:
            raise PreconditionError("layers are undefined for 1-graphs")
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not in {self.vertices}")
        rest = tuple(u for u in self.vertices if u != v)
        return Hypergraph(
            self.d - 1, rest, [e[1:] for e in self.edges if e[0] == v]
        )

    def induced(self, W):
        """Subgraph induced on W: the edges lying entirely inside W."""
        ws = set(W)
        if not ws <= set(self.vertices):
            raise ValueError(f"{sorted(ws)} is not a subset of the vertex set")
        return Hypergraph(
            self.d, sorted(ws), [e for e in self.edges if set(e) <= ws]
        )

    def relabel(self, mapping):
        """Apply an injective vertex relabeling (dict old -> new)."""
        if set(mapping) != set(self.vertices):
            raise ValueError("relabeling must cover the whole vertex set")
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("relabeling is not injective")
        return Hypergraph(
            self.d,
            mapping.values(),
            [[mapping[v] for v in e] for e in self.edges],
        )

    def is_cointerval(self):
        """Recursive layer-nesting test, under the given labels.

        Every layer must be cointerval and for support vertices i < j the
        j-layer's edges must be contained in the i-layer's.  Vertices in
        no edge are unconstrained (their layers are empty, and they never
        bound another vertex's layer).
        """
        return self.d == 1 or _nested_layers(self.edges)

    def is_strongly_stable(self):
        """Closure under lowering any edge vertex by one.

        Requires vertex labels 1..n.  An edge set E is strongly stable if
        for every edge, replacing a member i by i-1 (when i-1 >= 1 and
        i-1 is not already in the edge) again gives an edge.
        """
        if self.vertices != tuple(range(1, self.n + 1)):
            raise PreconditionError(
                "strong stability needs vertex labels 1..n, "
                f"got {self.vertices}"
            )
        for e in self.edges:
            members = set(e)
            for i in e:
                if i - 1 >= 1 and i - 1 not in members:
                    shifted = tuple(sorted(members - {i} | {i - 1}))
                    if shifted not in self.edges:
                        return False
        return True

    def complement(self):
        """Complement within the complete 2-graph on the same vertices."""
        if self.d != 2:
            raise PreconditionError("complement is only defined for 2-graphs")
        return Hypergraph(
            2,
            self.vertices,
            [
                e
                for e in itertools.combinations(self.vertices, 2)
                if e not in self.edges
            ],
        )

    def is_chordal(self):
        """Perfect-elimination test for 2-graphs."""
        if self.d != 2:
            raise PreconditionError("chordality is only defined for 2-graphs")
        return _is_chordal(_adjacency(self.vertices, self.edges))

    def canonical_form(self):
        """Lexicographically least relabeling onto 1..n.

        Exhausts all n! vertex assignments, so the vertex count is
        guarded.  Two hypergraphs are isomorphic iff their canonical
        forms are equal.
        """
        if self.n > CANONICAL_VERTEX_LIMIT:
            raise BudgetError(
                f"canonical_form is exhaustive; refusing {self.n} > "
                f"{CANONICAL_VERTEX_LIMIT} vertices"
            )
        target = range(1, self.n + 1)
        best = None
        for perm in itertools.permutations(target):
            mapping = dict(zip(self.vertices, perm))
            candidate = tuple(
                sorted(tuple(sorted(mapping[v] for v in e)) for e in self.edges)
            )
            if best is None or candidate < best:
                best = candidate
        return Hypergraph(self.d, target, best or ())


def _nested_layers(edges):
    """`Hypergraph.is_cointerval` on a set of sorted edge tuples.

    Works through a list of layer edge sets, starting from `edges`.  For
    each, groups the tuples by their first vertex and walks the support
    in order, requiring each layer to lie inside the previous one
    (nesting is transitive, so consecutive layers suffice; a support
    vertex that starts no edge has an empty layer and still counts),
    then queues every layer.  Tuples of length 1 (and no tuples) nest
    trivially.  A list rather than recursion, so the depth of d does not
    reach Python's frame limit.
    """
    empty = frozenset()
    work = [edges]
    while work:
        layers = {}
        support = set()
        for e in work.pop():
            if len(e) == 1:
                break
            layers.setdefault(e[0], set()).add(e[1:])
            support.update(e)
        prev = None
        for v in sorted(support):
            lay = layers.get(v, empty)
            if prev is not None and not lay <= prev:
                return False
            prev = lay
        work.extend(layers.values())
    return True


def _adjacency(vertices, edges):
    """Neighbor bitmasks of a 2-graph: bit j of the i-th mask is set when
    vertices[i] and vertices[j] span an edge."""
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * len(vertices)
    for a, b in edges:
        i, j = index[a], index[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _is_chordal(adj):
    """Chordality of the graph on 0..n-1 with neighbor bitmasks `adj`.

    Maximum cardinality search visits next an unvisited vertex with the
    most visited neighbors.  The graph is chordal iff the reverse visit
    order is a perfect elimination order (Tarjan-Yannakakis 1984): each
    vertex is simplicial when eliminated, its neighbors visited before
    it forming a clique.  Tested for every vertex in turn, it suffices
    that those neighbors are adjacent to the last visited of them
    (Rose-Tarjan-Lueker 1976), one mask test per vertex.
    """
    n = len(adj)
    weight = [0] * n
    unvisited = list(range(n))
    order = []
    seen = 0
    for _ in range(n):
        v = max(unvisited, key=weight.__getitem__)
        unvisited.remove(v)
        earlier = adj[v] & seen
        if earlier:
            for last in reversed(order):
                if earlier >> last & 1:
                    break
            if earlier & ~adj[last] & ~(1 << last):
                return False
        order.append(v)
        seen |= 1 << v
        for u in unvisited:
            if adj[v] >> u & 1:
                weight[u] += 1
    return True


def _is_at_free(adj):
    """Whether the graph with neighbor bitmasks `adj` has no asteroidal
    triple: three vertices each two of which a path joins that avoids
    the closed neighborhood of the third.

    The components of G - N[v] are found once per vertex v, each vertex
    outside N[v] mapped to its component's bitmask (0 inside N[v]).  A
    triple a < b < c is asteroidal iff b and c share a component of
    G - N[a], a and c one of G - N[b], and a and b one of G - N[c]; the
    first two conditions give, as one mask, the candidates c of a pair.
    """
    n = len(adj)
    full = (1 << n) - 1
    comp = []
    for v in range(n):
        rest = full & ~adj[v] & ~(1 << v)
        of = [0] * n
        while rest:
            part = grow = rest & -rest
            while grow:  # breadth-first, one frontier mask per step
                reach = 0
                while grow:
                    low = grow & -grow
                    reach |= adj[low.bit_length() - 1]
                    grow ^= low
                grow = reach & rest & ~part
                part |= grow
            rest ^= part
            left = part
            while left:
                low = left & -left
                of[low.bit_length() - 1] = part
                left ^= low
        comp.append(of)
    for a in range(n):
        for b in range(a + 1, n):
            cands = comp[a][b] & comp[b][a] & ~((2 << b) - 1)
            while cands:
                low = cands & -cands
                if comp[low.bit_length() - 1][a] >> b & 1:
                    return False
                cands ^= low
    return True


def _rests(H):
    """Each vertex's edges without it, as frozensets, in edge order.

    One pass over the edges files each under its own d vertices, so the
    lists cost O(|E| d), not a scan of every edge per vertex.  The
    frozensets are then made one vertex at a time: the search reads a
    vertex's list at every placement, and sets made edge by edge lie
    scattered in memory, which made its `isdisjoint` tests twice as slow.
    """
    edges = {v: [] for v in H.vertices}
    for e in H.edges:
        for v in e:
            edges[v].append(e)
    return {
        v: [frozenset(e).difference((v,)) for e in mine]
        for v, mine in edges.items()
    }


def find_cointerval_labeling(H):
    """Search for a relabeling making H cointerval.

    Depth-first over assignments of new labels 1, 2, ... to original
    vertices in increasing original order.  A vertex placed at the next
    label has as layer the rest of each of its edges that holds no
    placed vertex; that layer must lie inside the layer of the last
    support vertex placed, which lies inside every earlier one (nesting
    is transitive, as in `_nested_layers`), else the branch is cut.
    Returns the first success as a dict (original -> new label), or
    None.  Raises BudgetError once the search has tried more than
    COINTERVAL_PLACEMENT_LIMIT placements.

    A 2-graph has a cointerval labeling iff its complement is an
    interval graph, and a graph is interval iff it is chordal and has
    no asteroidal triple (Lekkerkerker-Boland 1962).  So a 2-graph whose
    complement fails either test gets None before any placement, in
    polynomial time; only d >= 3 and 2-graphs that have a labeling reach
    the search, which then returns the same witness as without the test.
    """
    verts = H.vertices
    n = len(verts)
    if H.d == 1 or not H.edges:
        return {v: i for i, v in enumerate(verts, start=1)}
    if H.d == 2:
        full = (1 << n) - 1
        co = [full ^ (1 << i) ^ nb
              for i, nb in enumerate(_adjacency(verts, H.edges))]
        if not (_is_chordal(co) and _is_at_free(co)):
            return None
    rests = _rests(H)

    order = []  # order[p-1] = original vertex with new label p
    chosen = set()
    placements = itertools.count(1)

    def dfs(above):
        # above: the layer of the last support vertex placed, if any
        if len(order) == n:
            mapping = {v: p for p, v in enumerate(order, start=1)}
            relabeled = [
                tuple(sorted(mapping[v] for v in e)) for e in H.edges
            ]
            return mapping if _nested_layers(relabeled) else None
        for v in verts:
            if v in chosen:
                continue
            if next(placements) > COINTERVAL_PLACEMENT_LIMIT:
                raise BudgetError(
                    f"the cointerval labeling search is exhaustive; refusing "
                    f"more than {COINTERVAL_PLACEMENT_LIMIT} placements"
                )
            layer = {r for r in rests[v] if chosen.isdisjoint(r)}
            if above is not None and not layer <= above:
                continue
            chosen.add(v)
            order.append(v)
            found = dfs(layer if rests[v] else above)
            if found:
                return found
            order.pop()
            chosen.discard(v)
        return None

    return dfs(None)


def find_strongly_stable_labeling(H):
    """Relabeling onto 1..n making H strongly stable, or None.

    The support must take the labels 1..k: an edge vertex right above
    an isolated one could not shift down.  Degrees then fix everything
    else.  In a strongly stable labeling with i < j, lowering j to i
    maps the edges that contain j but not i injectively onto edges that
    contain i but not j, so deg(i) >= deg(j).  When the degrees are
    equal that map is a bijection, and the transposition (i j) carries
    E onto itself.  So if any strongly stable labeling exists, they are
    exactly the labelings that give each degree class its own block of
    labels, in descending degree order, with the vertices ordered
    freely inside each block -- and all of them yield the same edge set.

    One check therefore decides: walk the support in increasing order,
    give each vertex the smallest free label of its degree block, and
    test that labeling.  It is the lexicographically first strongly
    stable labeling of the support (the first one a sweep over all k!
    permutations would meet).  Edgeless vertices follow in increasing
    order.
    """
    degree = {}
    for e in H.edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    support = sorted(degree)
    k = len(support)
    block_size = Counter(degree.values())
    next_label = {}  # degree -> smallest free label of its block
    start = 1
    for deg in sorted(block_size, reverse=True):
        next_label[deg] = start
        start += block_size[deg]
    mapping = {}
    for v in support:
        mapping[v] = next_label[degree[v]]
        next_label[degree[v]] += 1
    probe = Hypergraph(
        H.d, range(1, k + 1), [[mapping[v] for v in e] for e in H.edges]
    )
    if not probe.is_strongly_stable():
        return None
    nxt = k + 1
    for v in H.vertices:
        if v not in mapping:
            mapping[v] = nxt
            nxt += 1
    return mapping


def interval_representation(H):
    """Closed integer intervals whose disjointness pattern complements H.

    Defined for cointerval 2-graphs on vertex labels 1..n: vertex i gets
    the interval [l+1, i] where l is its largest neighbor below i (or 0).
    Intervals of u < v are disjoint exactly when uv is an edge; that
    property is re-checked and a failure raises, since it would mean the
    recognition and the construction disagree.
    """
    if H.d != 2:
        raise PreconditionError("interval representations need a 2-graph")
    if H.vertices != tuple(range(1, H.n + 1)):
        raise PreconditionError("interval representations need labels 1..n")
    if not H.is_cointerval():
        raise PreconditionError("hypergraph is not cointerval as labeled")
    rep = {}
    for v in H.vertices:
        below = [e[0] for e in H.edges if e[1] == v]
        lo = max(below) if below else 0
        rep[v] = (lo + 1, v)
    for u, v in itertools.combinations(H.vertices, 2):
        disjoint = rep[u][1] < rep[v][0] or rep[v][1] < rep[u][0]
        is_edge = (u, v) in H.edges
        if disjoint != is_edge:
            raise RuntimeError(
                "internal inconsistency: interval representation does not "
                f"match the edge set at pair ({u},{v})"
            )
    return rep


def parse_hypergraph(text):
    """Parse the hypergraph text format.

    Line 1: `d n`.  An optional `vertices:` line lists the n labels;
    otherwise they default to 1..n.  Every other nonblank line is one
    edge of d integers.  `#` starts a comment.  Raises BudgetError for
    n > VERTEX_LIMIT, before any vertex is built.
    """
    d = n = None
    vertices = None
    edges = []
    for lineno, line in _lines(text):
        if d is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected header `d n`", lineno)
            try:
                d, n = _int_tokens(line)
            except ValueError:
                raise ParseError("expected header `d n`", lineno) from None
            if d < 1 or n < 0:
                raise ParseError(f"bad header values d={d} n={n}", lineno)
            if n > VERTEX_LIMIT:
                raise BudgetError(
                    f"refusing {n} > {VERTEX_LIMIT} vertices"
                )
            continue
        if line.startswith("vertices:"):
            if vertices is not None or edges:
                raise ParseError(
                    "vertices: line must come right after the header", lineno
                )
            try:
                vertices = _int_tokens(line[len("vertices:"):])
            except ValueError:
                raise ParseError("bad vertex label", lineno) from None
            if len(vertices) != n:
                raise ParseError(
                    f"expected {n} vertex labels, got {len(vertices)}", lineno
                )
            if len(set(vertices)) != n:
                raise ParseError("duplicate vertex labels", lineno)
            continue
        try:
            edge = _int_tokens(line)
        except ValueError:
            raise ParseError(f"bad edge line {line!r}", lineno) from None
        if len(edge) != d:
            raise ParseError(
                f"edge has {len(edge)} vertices, expected {d}", lineno
            )
        edges.append(edge)
    if d is None:
        raise ParseError("empty input, expected header `d n`")
    if vertices is None:
        vertices = range(1, n + 1)
    try:
        return Hypergraph(d, vertices, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# the ASCII whitespace that `str.split()` splits at, line breaks aside
_SPACE = " \t\v\f\x1c\x1d\x1e\x1f"


def _lines(text):
    r"""(line number, text) of each line of both text formats that keeps
    something once its `#` comment is cut.

    Lines end at `\n`, `\r\n` or `\r`, the breaks `open` reads, and
    nowhere else.  Only ASCII whitespace is stripped, so a non-ASCII
    character outside a comment stays in the line for the token rule
    (`_plain`) to refuse.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        line = raw.strip(_SPACE)
        if line:
            yield lineno, line


def _plain(text):
    """Whether text can hold only integer tokens the formats write.

    Each token of both formats is an optional `-` and ASCII digits.
    `int` reads an optional sign and Unicode digits, with `_` between
    digits; on ASCII text without `+` or `_` it reads exactly the rule.
    """
    return text.isascii() and "+" not in text and "_" not in text


def _int_tokens(text):
    """The integers of a field of both text formats (`_plain`), or
    ValueError."""
    if not _plain(text):
        raise ValueError(f"not integer tokens: {text!r}")
    return [int(t) for t in text.split()]


def format_hypergraph(H):
    """Serialize in the text format; edges sorted, byte-stable."""
    lines = [f"{H.d} {H.n}"]
    if H.vertices != tuple(range(1, H.n + 1)):
        lines.append("vertices: " + " ".join(map(str, H.vertices)))
    for e in H.edge_list():
        lines.append(" ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def read_text(path):
    """The UTF-8 text of a file; undecodable bytes raise ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None


def read_hypergraph(path):
    return parse_hypergraph(read_text(path))
