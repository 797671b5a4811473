"""Seeded inputs and reference answers for the three benchmark workloads.

Every input comes from a generator driven by one `random.Random` per
(seed, workload, family), so the same seed always writes the same bytes
and changing one family's count does not shift another's draws.  The
program itself never sees the seed.

Each workload is a list of ops.  An op is one `cointerval` command line
plus what its output must satisfy; the expectations are computed here,
before anything is timed, by a route the timed command does not take
(golden files, a cell count done here, the staircase route,
construction-time facts).

Inputs are rejection-sampled into narrow size bands, and each workload
is built from tiers of ops of similar cost, sized so that the median
and the 90th percentile latency fall well inside a large tier.  A pass
over the ops then costs about the same for every seed: the end-to-end
figures measure the program, not the luck of the draw.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path("tests") / "golden"
WORKLOADS = ("resolve", "verify-dump", "survey")

# Per-op deadlines: far above any op's cost at the seed, far below the
# run's own limit, so a runaway op fails instead of hanging the run.
DEADLINE_S = 20.0
CASESTUDY_DEADLINE_S = 60.0
MAX_DRAWS = 20000


@dataclass(frozen=True)
class Graph:
    """A d-graph on vertices 1..n as plain data (edges: sorted tuples)."""

    d: int
    n: int
    edges: tuple

    def text(self):
        lines = [f"{self.d} {self.n}"]
        lines.extend(" ".join(map(str, e)) for e in sorted(self.edges))
        return "\n".join(lines) + "\n"

    def support(self):
        return sorted({v for e in self.edges for v in e})


def _rng(seed, workload, family):
    return random.Random(f"{seed}:{workload}:{family}")


# --- generators --------------------------------------------------------

def interval_complement(rng, n, span=30):
    """Complement of a random interval graph, ordered by right endpoint.

    For u after j in that order, u disjoint from j means u starts after
    j ends, hence after every earlier interval ends: the later layers
    nest in the earlier ones, so the graph is cointerval as labeled.
    """
    ivs = []
    for _ in range(n):
        a = rng.randrange(span)
        ivs.append((a + rng.randrange(1, span // 3 + 2), a))
    ivs.sort()
    edges = tuple(
        (i + 1, j + 1)
        for i, j in itertools.combinations(range(n), 2)
        if ivs[i][0] < ivs[j][1] or ivs[j][0] < ivs[i][1]
    )
    return Graph(2, n, edges)


def borel_closure(rng, n, d=3, gens=2):
    """Smallest strongly stable d-graph on [n] holding random d-sets."""
    stack = [tuple(sorted(rng.sample(range(1, n + 1), d))) for _ in range(gens)]
    seen = set()
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        members = set(e)
        for i in e:
            if i > 1 and i - 1 not in members:
                stack.append(tuple(sorted(members - {i} | {i - 1})))
    return Graph(d, n, tuple(sorted(seen)))


def planted_2k2(rng, n, p, full_support=True):
    """Random 2-graph with an induced 2K2 on four random vertices.

    An induced 2K2 is an induced C4 of the complement, which no interval
    graph has, so the graph is cointerval under no labeling.
    Returns (graph, (a, b, c, d)) with ab and cd the planted edges.
    """
    for _ in range(MAX_DRAWS):
        a, b, c, d = rng.sample(range(1, n + 1), 4)
        edges = {
            e for e in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < p
        }
        edges |= {tuple(sorted((a, b))), tuple(sorted((c, d)))}
        edges -= {
            tuple(sorted(pair)) for pair in ((a, c), (a, d), (b, c), (b, d))
        }
        g = Graph(2, n, tuple(sorted(edges)))
        if not full_support or len(g.support()) == n:
            return g, (a, b, c, d)
    raise RuntimeError("planted_2k2: no graph with full support")


def random_graph(rng, n, p):
    edges = tuple(
        e for e in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    )
    return Graph(2, n, edges)


def copath(n):
    """Complement of the path 1-2-...-n: edges {i, j} with j - i >= 2."""
    return Graph(
        2, n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1))
    )


def shuffled(rng, g):
    """Same graph under a random relabeling of 1..n."""
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    edges = tuple(sorted(
        tuple(sorted(perm[v - 1] for v in e)) for e in g.edges
    ))
    return Graph(g.d, g.n, edges)


def has_induced_2k2(g, quad):
    a, b, c, d = quad
    es = set(g.edges)
    pair = lambda u, v: tuple(sorted((u, v)))  # noqa: E731
    return (
        pair(a, b) in es and pair(c, d) in es
        and not ({pair(a, c), pair(a, d), pair(b, c), pair(b, d)} & es)
    )


# --- size bands --------------------------------------------------------

def _hypergraph(g):
    from cointerval import Hypergraph

    return Hypergraph(g.d, range(1, g.n + 1), g.edges)


def f_vector(g):
    """f-vector of a 2-graph's block complex, counted without the program.

    Cells are block pairs (S, T), max S < min T, with every s-t pair an
    edge; for each S the admissible T are the nonempty subsets of the
    common upper neighbourhood, and (S, T) has dimension |S| + |T| - 2.
    """
    if g.d != 2:
        raise ValueError("f_vector counts block pairs of 2-graphs only")
    up = [0] * (g.n + 1)
    for a, b in g.edges:
        up[a] |= 1 << b
    counts = [0] * (g.n + 1)
    # common[S] for subsets S of 1..n as bitmasks (bit v = vertex v)
    common = {0: ~0}
    for v in range(1, g.n + 1):
        above = ~((1 << (v + 1)) - 1)
        for S, c in list(common.items()):
            c2 = c & up[v] & above
            S2 = S | 1 << v
            common[S2] = c2
            s, k = bin(S2).count("1"), bin(c2).count("1")
            for t in range(1, k + 1):
                counts[s + t - 2] += math.comb(k, t)
    while counts and not counts[-1]:
        counts.pop()
    return counts


def cell_count(g):
    """Number of cells of g's block complex."""
    if g.d == 2:
        return sum(f_vector(g))
    from cointerval import build_complex

    return len(build_complex(_hypergraph(g)))


def banded(rng, count, draw, lo, hi, size=cell_count):
    """`count` draws whose size lies in [lo, hi], in draw order."""
    out = []
    for _ in range(MAX_DRAWS):
        g = draw(rng)
        if lo <= size(g) <= hi:
            out.append(g)
            if len(out) == count:
                return out
    raise RuntimeError(f"size band [{lo}, {hi}] not reached")


# --- ops ---------------------------------------------------------------

class Plan:
    """Ops of one workload plus the input files they read."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.ops = []
        self.inputs = []

    def write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        self.inputs.append(str(path))
        return str(path)

    def add(self, kind, argv, deadline=DEADLINE_S, trace=True, **expect):
        """Add an op; `trace` puts it in the subset a traced run covers."""
        self.ops.append({
            "id": len(self.ops),
            "kind": kind,
            "argv": [str(a) for a in argv],
            "deadline_s": deadline,
            "trace": trace,
            "expect": expect,
        })

    def golden(self, argv, golden_name):
        path = GOLDEN / golden_name
        self.add("golden", argv, stdout=path.read_text(encoding="utf-8"))

    def save(self):
        """Write the plan for the worker; return its path."""
        path = self.workdir / "plan.json"
        path.write_text(json.dumps({
            "workload": self.workload,
            "seed": self.seed,
            "ops": self.ops,
            "inputs": self.inputs,
        }), encoding="utf-8")
        return str(path)


def reference_f_vector(g):
    """f-vector by a route `resolve` does not take.

    2-graphs: the block-pair count above.  Other d: the staircase
    geometry (`restrict_to_graph`), whose faces polarize to the cells.
    """
    if g.d == 2:
        return f_vector(g)
    from cointerval import restrict_to_graph

    return list(restrict_to_graph(g.d, g.n, _hypergraph(g)).f_vector())


def block_cells(g):
    """Cells of the complex by the block-tuple route (build_complex)."""
    from cointerval import build_complex

    X = build_complex(_hypergraph(g))
    return sorted([list(map(list, c)) for c in X.all_cells()])


def _graph_expect(g):
    return {"d": g.d, "n": g.n, "edges": [list(e) for e in g.edges]}


def resolve_plan(plan):
    """`resolve FILE` over GF(2): the command every user runs.

    Tiers (ops per pass): a fixed anchor copath(10); 125 interval
    complements on 9 vertices, which hold both latency percentiles;
    12 Borel 3-graphs below them; 4 inputs that must be refused.
    """
    seed = plan.seed
    plan.golden(
        ["resolve", GOLDEN / "input_copath5.txt", "--confirm"],
        "resolve_copath5.txt",
    )
    g = copath(10)
    plan.add(
        "resolve", ["resolve", plan.write("copath10.txt", g.text())],
        f_vector=reference_f_vector(g),
    )
    rng = _rng(seed, "resolve", "interval")
    interval = banded(rng, 125, lambda r: interval_complement(r, 9), 200, 280)
    rng = _rng(seed, "resolve", "borel")
    borel = banded(rng, 12, lambda r: borel_closure(r, 8), 300, 400)
    for family, graphs in (("interval", interval), ("borel", borel)):
        for i, g in enumerate(graphs):
            path = plan.write(f"{family}{i}.txt", g.text())
            plan.add(
                "resolve", ["resolve", path], trace=i % 2 == 0,
                f_vector=reference_f_vector(g),
            )
    rng = _rng(seed, "resolve", "planted")
    for i in range(4):
        g, _quad = planted_2k2(rng, 9, 0.5)
        path = plan.write(f"planted{i}.txt", g.text())
        plan.add("reject", ["resolve", path], trace=i % 2 == 0, code=3)


def _drop_face(rng, X, text):
    """Dump text with one cell removed that is a face of another cell."""
    cells = [c for c in X.all_cells() if X.dim(c) < X.max_dim()]
    while True:
        cell = rng.choice(cells)
        cofaces = [
            c for c in X.cells(X.dim(cell) + 1)
            if any(f == cell for f, _s in X.boundary(c))
        ]
        if cofaces:
            break
    line = f"{X.dim(cell)} | " + " ; ".join(
        " ".join(map(str, b)) for b in cell
    ) + " |"
    lines = text.splitlines()
    kept = [ln for ln in lines if not ln.startswith(line + " ")]
    if len(kept) != len(lines) - 1:
        raise RuntimeError(f"dump line of {cell} not found once")
    return "\n".join(kept) + "\n"


def _bad_label(rng, X, text):
    """Dump text where one cell's label misses a vertex of a face's label."""
    cell = rng.choice([c for c in X.all_cells() if X.dim(c) >= 1])
    face = rng.choice([f for f, _s in X.boundary(cell)])
    lost = rng.choice(sorted(X.label(face)))
    head = f"{X.dim(cell)} | " + " ; ".join(
        " ".join(map(str, b)) for b in cell
    ) + " | "
    old = head + " ".join(map(str, sorted(X.label(cell))))
    lines = text.splitlines()
    if lines.count(old) != 1:
        raise RuntimeError(f"dump line of {cell} not found once")
    lines[lines.index(old)] = head + " ".join(
        map(str, sorted(X.label(cell) - {lost}))
    )
    return "\n".join(lines) + "\n"


def verify_dump_plan(plan):
    """`verify DUMP --field 32003 --confirm` on dumps written before timing.

    Tiers: fixed anchors copath(8) and copath(9), where exact rank over
    Q dominates; 85 interval-complement complexes
    that must pass and 25 complexes of planted-2K2 graphs that must
    FAIL, all of one size band; 15 Borel 3-graph complexes; 12 malformed
    dumps that must be refused.
    """
    from cointerval import build_complex, write_complex_dump

    seed = plan.seed
    plan.golden(
        ["verify", GOLDEN / "input_taylor_2k2.dump", "--confirm"],
        "verify_taylor_2k2.txt",
    )

    def dump(name, g, result, trace=True):
        X = build_complex(_hypergraph(g))
        path = plan.write(name, write_complex_dump(X))
        plan.add(
            "verify", ["verify", path, "--field", "32003", "--confirm"],
            trace=trace, result=result, cells=len(X),
        )

    dump("copath8.dump", copath(8), "pass")
    dump("copath9.dump", copath(9), "pass")
    rng = _rng(seed, "verify-dump", "interval")
    draw = lambda r: interval_complement(r, 8)  # noqa: E731
    for i, g in enumerate(banded(rng, 85, draw, 150, 200)):
        dump(f"interval{i}.dump", g, "pass", i % 2 == 0)
    rng = _rng(seed, "verify-dump", "planted")
    draw_planted = lambda r: planted_2k2(r, 8, 0.6)[0]  # noqa: E731
    for i, g in enumerate(banded(rng, 25, draw_planted, 150, 200)):
        dump(f"planted{i}.dump", g, "FAIL", i % 2 == 0)
    rng = _rng(seed, "verify-dump", "borel")
    for i, g in enumerate(banded(rng, 15, lambda r: borel_closure(r, 7), 150, 220)):
        dump(f"borel{i}.dump", g, "pass", i % 2 == 0)
    rng = _rng(seed, "verify-dump", "malformed")
    for i, g in enumerate(banded(rng, 12, draw, 150, 200)):
        X = build_complex(_hypergraph(g))
        corrupt = _drop_face if i % 2 == 0 else _bad_label
        path = plan.write(
            f"malformed{i}.dump", corrupt(rng, X, write_complex_dump(X))
        )
        plan.add(
            "reject", ["verify", path, "--field", "32003", "--confirm"],
            trace=i % 4 < 2, code=2,
        )


def survey_plan(plan):
    """Many small ops: searches, geometry, Betti routes, covers, case study.

    Tiers: the case study and 12 heavy labeling searches on 7 vertices
    sit above the p90 tier of 120 `betti --method all` runs on 7
    vertices; 230 labeling searches on 6 vertices hold the median; 85
    cheap ops (goldens, embeddings, small Betti tables, covers, small
    searches) sit below.
    """
    seed = plan.seed
    copath5 = GOLDEN / "input_copath5.txt"
    two_k2 = GOLDEN / "input_2k2.txt"
    plan.golden(["check", copath5], "check_copath5.txt")
    plan.golden(["check", two_k2, "--find-labeling"], "check_2k2_find.txt")
    plan.golden(
        ["betti", copath5, "--method=all", "--field=q"], "betti_copath5_all.txt"
    )
    plan.golden(["betti", two_k2], "betti_2k2_hochster.txt")
    plan.golden(["embed", copath5], "embed_copath5.txt")
    plan.golden(["decompose", two_k2], "decompose_2k2.txt")
    plan.golden(["casestudy", "--d", "2", "--n", "4"], "casestudy_2_4.txt")
    plan.add(
        "casestudy", ["casestudy", "--d", "3", "--n", "5"],
        deadline=CASESTUDY_DEADLINE_S, counts=[34, 26, 16, 10],
    )

    def check(name, i, g, cointerval=None, ss=None):
        path = plan.write(f"{name}{i}.txt", g.text())
        plan.add(
            "check", ["check", path, "--find-labeling"], trace=i % 2 == 0,
            cointerval=cointerval, ss=ss, **_graph_expect(g),
        )

    def family(name, count):
        rng = _rng(seed, "survey", name)
        return rng, range(count)

    rng, idx = family("planted7", 6)
    for i in idx:
        check("planted7_", i, planted_2k2(rng, 7, 0.45)[0], False, False)
    rng, idx = family("interval7", 6)
    for i in idx:
        check("interval7_", i, shuffled(rng, interval_complement(rng, 7)), True)
    rng, idx = family("planted6", 230)
    for i in idx:
        check("planted6_", i, planted_2k2(rng, 6, 0.45)[0], False, False)
    rng, idx = family("borel6", 20)
    for i in idx:
        check("borel6_", i, shuffled(rng, borel_closure(rng, 6)), True, True)

    rng, _idx = family("betti7", 0)
    draw = lambda r: interval_complement(r, 7)  # noqa: E731
    for i, g in enumerate(banded(rng, 120, draw, 80, 140)):
        path = plan.write(f"betti7_{i}.txt", g.text())
        plan.add("betti", ["betti", path, "--method", "all"], trace=i % 2 == 0)
    rng, idx = family("betti6", 20)
    for i in idx:
        g = interval_complement(rng, 6) if i % 2 else borel_closure(rng, 6)
        path = plan.write(f"betti6_{i}.txt", g.text())
        plan.add("betti", ["betti", path, "--method", "all"], trace=i % 4 < 2)

    rng, idx = family("embed", 30)
    for i in idx:
        g = random_graph(rng, 8 + i % 2, 0.5)
        path = plan.write(f"embed{i}.txt", g.text())
        out = str(plan.workdir / f"embed{i}.geom")
        plan.add(
            "embed", ["embed", path, "--out", out], trace=i % 4 < 2,
            out=out, cells=block_cells(g),
        )

    rng, idx = family("decompose", 15)
    draw = lambda r: planted_2k2(r, 6, 0.3, full_support=False)[0]  # noqa: E731
    for i in idx:
        g = banded(rng, 1, draw, 4, 8, size=lambda h: len(h.edges))[0]
        path = plan.write(f"decompose{i}.txt", g.text())
        plan.add(
            "decompose", ["decompose", path], trace=i % 2 == 0,
            min_width=2, **_graph_expect(g),
        )


BUILDERS = {
    "resolve": resolve_plan,
    "verify-dump": verify_dump_plan,
    "survey": survey_plan,
}


def build(workload, seed, workdir):
    """Write the workload's inputs under workdir and return its Plan."""
    plan = Plan(workload, seed, workdir)
    plan.workdir.mkdir(parents=True, exist_ok=True)
    BUILDERS[workload](plan)
    return plan
