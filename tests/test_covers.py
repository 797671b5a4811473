import itertools
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cointerval import (
    GF2,
    GF3,
    QQ,
    BudgetError,
    Cover,
    Hypergraph,
    PreconditionError,
    build_complex,
    glued_resolution,
    homology_ranks,
    join,
    linear_width,
    parse_complex_dump,
    part_complex,
    taylor_complex,
)
from cointerval import cli, complexes
from cointerval.casestudy import net_graph
from cointerval.complexes import LabeledComplex

from graphs import checked_join, refusal, zero_sphere

ROOT = Path(__file__).resolve().parents[1]


def test_join_of_spheres():
    s1 = checked_join([zero_sphere(1, 2), zero_sphere(3, 4)])
    for fld in (GF2, GF3, QQ):
        assert homology_ranks(s1, fld) == [0, 1]  # a circle
    s2 = checked_join([zero_sphere(a, a + 1) for a in (1, 3, 5)])
    assert s2.f_vector() == (6, 12, 8)  # the octahedron
    for fld in (GF2, GF3, QQ):
        assert homology_ranks(s2, fld) == [0, 0, 1]


def test_join_boundary_squares_to_zero():
    X = checked_join(
        [zero_sphere(1, 2), build_complex(Hypergraph(2, [3, 4], [(3, 4)]))]
    )
    for cell in X.all_cells():
        acc = {}
        for face, s in X.boundary(cell):
            for g, t in X.boundary(face):
                acc[g] = acc.get(g, 0) + s * t
        assert all(v == 0 for v in acc.values())


def split_by_arity(factors, cell):
    """A join key cut into one piece per factor; None where it vanished."""
    out, at = [], 0
    for F in factors:
        arity = len(next(F.all_cells()))
        piece = cell[at:at + arity]
        out.append(piece if any(piece) else None)
        at += arity
    assert at == len(cell)
    return out


def test_join_labels_are_unions():
    factors = [zero_sphere(1, 2), zero_sphere(3, 4)]
    X = checked_join(factors)
    for cell in X.all_cells():
        pieces = split_by_arity(factors, cell)
        expect = frozenset()
        for i, c in enumerate(pieces):
            if c is not None:
                expect |= factors[i].label(c)
        assert X.label(cell) == expect
        assert X.dim(cell) == sum(
            factors[i].dim(c) + 1 for i, c in enumerate(pieces) if c is not None
        ) - 1


def test_join_drops_empty_factors(copath5):
    X = build_complex(copath5)
    E = build_complex(Hypergraph(2, [9, 10], []))
    assert join([X, E]).f_vector() == X.f_vector()


# a square as one 2-cell over its four edges: its top cell is no product
# of simplices, so the dump takes the holder route
SQUARE = """\
0 | 1 | 1
0 | 2 | 2
0 | 3 | 3
0 | 4 | 4
1 | 1 2 | 1 2
1 | 2 3 | 2 3
1 | 3 4 | 3 4
1 | 1 4 | 1 4
2 | 1 2 3 4 | 1 2 3 4
"""


def test_join_refuses_a_factor_that_is_not_a_product_of_simplices():
    square = parse_complex_dump(SQUARE)
    assert square.f_vector() == (4, 4, 1)
    assert homology_ranks(square, GF2) == [0, 0, 0]  # a disk
    segment = build_complex(Hypergraph(1, [5, 6], [(5,), (6,)]))
    want = (PreconditionError, (
        "cannot join a factor whose cell ((1, 2, 3, 4),) is not a product "
        "of simplices of its dimension"
    ))
    assert refusal(join, [square, segment]) == want
    assert refusal(join, [segment, square]) == want


def test_linear_width_cointerval_is_one(copath5, k4_3):
    for H in (copath5, k4_3):
        k, cover = linear_width(H)
        assert k == 1
        assert cover.parts[0].edges == H.edges


def test_linear_width_2k2(two_k2):
    k, cover = linear_width(two_k2)
    assert k == 2
    assert [p.edge_list() for p in cover.parts] == [[(1, 2)], [(3, 4)]]
    glued, report = glued_resolution(two_k2, cover, fields=(GF2, GF3, QQ))
    assert report.passed and report.minimal
    assert glued.f_vector() == taylor_complex(two_k2).f_vector() == (2, 1)


def test_glued_resolution_refuses_no_fields(two_k2):
    _k, cover = linear_width(two_k2)
    with pytest.raises(ValueError, match="at least one field"):
        glued_resolution(two_k2, cover, fields=())


def test_linear_width_fixed_labels():
    C4 = Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert linear_width(C4)[0] == 1  # relabels to a cointerval graph


def test_linear_width_ss_family(two_k2):
    k, cover = linear_width(two_k2, family="ss")
    assert k == 2
    glued, report = glued_resolution(two_k2, cover, family="ss")
    assert report.passed


def test_unknown_family_is_refused(two_k2):
    # a misspelled family is an error, not strong stability
    _k, cover = linear_width(two_k2)
    with pytest.raises(ValueError, match="unknown family 'cointervl'"):
        cover.validate(two_k2, family="cointervl")
    with pytest.raises(ValueError, match="unknown family 'cointervl'"):
        linear_width(two_k2, family="cointervl")


def test_linear_width_net_complement():
    H = net_graph().complement()
    k, cover = linear_width(H)
    assert k == 2
    glued, report = glued_resolution(H, cover)
    assert report.passed
    assert not report.minimal  # no minimal cellular resolution exists this way


def test_linear_width_budget():
    K6 = Hypergraph(2, range(1, 7), itertools.combinations(range(1, 7), 2))
    with pytest.raises(BudgetError):
        linear_width(K6)  # 15 edges > the exhaustive sweep budget


def test_join_budget_refuses_before_any_cell(monkeypatch):
    factors = [zero_sphere(1, 2), zero_sphere(3, 4)]  # 3 * 3 - 1 join cells
    # the join reads each factor's cells and masks to make its cells,
    # and files them through `complexes._filed`
    made = []

    def spy(name, real):
        def counted(*args):
            made.append(name)
            return real(*args)
        return counted

    for name in ("cells", "masks"):
        monkeypatch.setattr(LabeledComplex, name,
                            spy(name, getattr(LabeledComplex, name)))
    monkeypatch.setattr(complexes, "_filed", spy("_filed", complexes._filed))
    monkeypatch.setattr(complexes, "CELL_LIMIT", 8)
    assert len(join(factors)) == 8
    assert {"cells", "masks", "_filed"} <= set(made)
    made.clear()
    monkeypatch.setattr(complexes, "CELL_LIMIT", 7)
    with pytest.raises(BudgetError, match="the join has 8 > 7 cells"):
        join(factors)
    assert made == []


def test_decompose_exits_4_on_a_join_past_the_budget(monkeypatch, capsys):
    # two one-cell parts join into three cells
    monkeypatch.setattr(complexes, "CELL_LIMIT", 2)
    two_k2 = str(ROOT / "tests" / "golden" / "input_2k2.txt")
    assert cli.main(["decompose", two_k2]) == 4
    assert "the join has 3 > 2 cells" in capsys.readouterr().err


# the nine maximal cointerval parts of a 12-edge 3-graph on 1..8
MAXIMAL_PARTS = (
    "125 135 137 138 156 157 158 167 367",
    "125 135 137 138 156 157 158 167 458",
    "125 135 137 138 156 167 256",
    "125 135 137 138 157 158 256",
    "125 135 137 156 157 158 167 256",
    "125 135 138 156 157 256",
    "125 137 138 156 157 158 167 256",
    "135 137 138 156 157 158 167 256",
    "278",
)


def test_linear_width_prunes_dead_states():
    # The family accepts exactly the nonempty subsets of the maximal
    # parts, 1,007 parts; a cover search that retries a failed (union,
    # parts left) state from later starts takes minutes on it.
    code = textwrap.dedent(
        f"""
        from cointerval import Hypergraph, covers

        parts = [{{tuple(map(int, e)) for e in line.split()}}
                 for line in {MAXIMAL_PARTS!r}]
        H = Hypergraph(3, range(1, 9), set().union(*parts))

        def search(G):
            if any(G.edges <= part for part in parts):
                return {{v: v for v in G.vertices}}
            return None

        covers.find_strongly_stable_labeling = search
        width, cover = covers.linear_width(H, family="ss")
        print(width)
        for part in cover.parts:
            print(" ".join("".join(map(str, e)) for e in part.edge_list()))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src")}, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "4",
        "125 135 137 138 156 157 158 167 367",
        "125 135 137 138 156 157 158 167 458",
        "125 135 137 138 156 167 256",
        "278",
    ]


def test_cover_validation(two_k2):
    ok_parts = (
        Hypergraph(2, range(1, 5), [(1, 2)]),
        Hypergraph(2, range(1, 5), [(3, 4)]),
    )
    ident = {v: v for v in range(1, 5)}
    swap = {1: 3, 2: 4, 3: 1, 4: 2}
    Cover(ok_parts, (ident, swap)).validate(two_k2, "cointerval")
    # a part with a non-edge
    bad = (Hypergraph(2, range(1, 5), [(1, 3)]), ok_parts[1])
    with pytest.raises(PreconditionError):
        Cover(bad, (ident, ident)).validate(two_k2, "cointerval")
    # a part over other vertices
    wide = Hypergraph(2, range(1, 6), [(1, 2)])
    cover = Cover((wide, ok_parts[1]), (ident, swap))
    assert refusal(cover.validate, two_k2) == (
        PreconditionError, "cover parts must share the vertex set of the graph"
    )
    # parts that do not cover every edge
    with pytest.raises(PreconditionError):
        Cover((ok_parts[0],), (ident,)).validate(two_k2, "cointerval")
    # certificate that does not make the part a family member
    not_ss = {v: v for v in range(1, 5)}
    with pytest.raises(PreconditionError):
        Cover(
            (Hypergraph(2, range(1, 5), [(3, 4)]), ok_parts[0]),
            (not_ss, ident),
        ).validate(two_k2, "ss")


def test_part_complex_carries_original_vertices(two_k2):
    part = Hypergraph(2, range(1, 5), [(3, 4)])
    cert = {3: 1, 4: 2, 1: 3, 2: 4}
    X = part_complex(part, cert)
    assert list(X.all_cells()) == [((3,), (4,))]
    assert X.label(((3,), (4,))) == frozenset({3, 4})


def test_duplicate_parts_verify_but_not_minimal(two_k2):
    part1 = Hypergraph(2, range(1, 5), [(1, 2)])
    part2 = Hypergraph(2, range(1, 5), [(3, 4)])
    ident = {v: v for v in range(1, 5)}
    swap = {1: 3, 2: 4, 3: 1, 4: 2}
    cover = Cover((part1, part1, part2), (ident, ident, swap))
    glued, report = glued_resolution(two_k2, cover)
    assert report.passed
    assert not report.minimal  # the doubled generator shows up twice
