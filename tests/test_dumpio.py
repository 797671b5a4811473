import itertools
import re
import time
import tracemalloc

import pytest

from cointerval import (
    GF2,
    GF3,
    QQ,
    BudgetError,
    Hypergraph,
    ParseError,
    build_complex,
    glued_resolution,
    homology_ranks,
    linear_width,
    parse_complex_dump,
    taylor_complex,
    verify_resolution,
    write_complex_dump,
)
from cointerval import complexes, hypergraph
from cointerval.resolution import independence_complex

from graphs import block_boundary, slotted_points


def roundtrip(X):
    text = write_complex_dump(X)
    Y = parse_complex_dump(text)
    assert write_complex_dump(Y) == text  # byte-stable
    return Y


def test_block_complex_roundtrip(copath5):
    X = build_complex(copath5)
    Y = roundtrip(X)
    assert set(Y.all_cells()) == set(X.all_cells())
    for fld in (GF2, GF3, QQ):
        assert homology_ranks(Y, fld) == homology_ranks(X, fld)
    report = verify_resolution(Y, fields=(GF2, GF3, QQ))
    assert report.passed and report.minimal


def test_taylor_roundtrip(two_k2):
    Y = roundtrip(taylor_complex(two_k2))
    assert verify_resolution(Y).passed


def test_join_roundtrip(two_k2):
    _, cover = linear_width(two_k2)
    glued, _ = glued_resolution(two_k2, cover)
    text = write_complex_dump(glued)
    assert "- ; - ; 3 ; 4" in text  # vanished factors dump as empty slots
    Y = roundtrip(glued)
    assert verify_resolution(Y, fields=(GF2, GF3, QQ)).passed


def test_written_dumps_parse_to_the_writers_columns(
    copath5, k4_3, two_k2, holder_calls
):
    # the graphs of the proof corpus; each complex filed by one-vertex
    # deletion comes back with its own columns, on the block route
    planted = Hypergraph(2, range(1, 8), list(copath5.edges) + [(6, 7)])
    k3 = Hypergraph(2, range(1, 4), itertools.combinations(range(1, 4), 2))
    for H in (copath5, k4_3, two_k2, planted, k3):
        for build in (build_complex, taylor_complex, independence_complex):
            X = build(H)
            Y = parse_complex_dump(write_complex_dump(X))
            assert Y._checked == X._checked, (build.__name__, H)
    assert holder_calls["_holder_columns"] == 0


def test_parsed_signs_square_to_zero(copath5):
    Y = roundtrip(build_complex(copath5))
    for cell in Y.all_cells():
        acc = {}
        for face, s in Y.boundary(cell):
            for g, t in Y.boundary(face):
                acc[g] = acc.get(g, 0) + s * t
        assert all(v == 0 for v in acc.values())


def test_comments_and_blank_lines():
    text = "# hand-written\n\n0 | 1 | 1\n0 | 2 | 2  # a point\n"
    Y = parse_complex_dump(text)
    assert len(Y) == 2


def test_parse_rejects_malformed():
    with pytest.raises(ParseError, match="line 1"):
        parse_complex_dump("zero | 1 | 1\n")
    with pytest.raises(ParseError, match="dim"):
        parse_complex_dump("x | 1 | 1\n")
    with pytest.raises(ParseError):
        parse_complex_dump("0 | 1\n")  # missing label column
    with pytest.raises(ParseError, match="increasing"):
        parse_complex_dump("0 | 2 1 | 1 2\n")
    with pytest.raises(ParseError, match="blocks"):
        parse_complex_dump("0 | 1 | 1\n0 | 1 ; 2 | 1 2\n")  # arity mismatch
    with pytest.raises(ParseError, match="label"):
        parse_complex_dump("0 | 1 | \n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_complex_dump("0 | 1 | 1\n0 | 1 | 1\n")
    with pytest.raises(ParseError, match="negative"):
        parse_complex_dump("-1 | 1 | 1\n")
    # an integer is an optional `-` and ASCII digits, not all `int` takes
    for text, field in [
        ("0 | 1_0 | 1_0\n", "block"),
        ("+0 | 1 | 1\n", "dimension"),
        ("0 | 1 | \uff11\n", "label"),  # a full-width digit
        ("0 | 1 2 | 1 +2\n", "label"),
    ]:
        with pytest.raises(ParseError, match=f"line 1: bad {field}"):
            parse_complex_dump(text)
    assert list(parse_complex_dump("0 | -1 | -1\n").all_cells()) == [((-1,),)]


def test_lines_break_only_where_open_breaks_them():
    # `\n`, `\r\n` and `\r` end a line
    Y = parse_complex_dump("0 | 1 | 1\r\n0 | 2 | 2\r1 | 1 2 | 1 2\n")
    assert list(Y.all_cells()) == [((1,),), ((2,),), ((1, 2),)]
    # other ASCII controls are whitespace inside their line
    Y = parse_complex_dump("0 |\v1\f| 1\x1c\n0\x1d| 2 |\x1e2\x1f\n")
    assert list(Y.all_cells()) == [((1,),), ((2,),)]
    with pytest.raises(ParseError, match="line 2: bad block 'x'"):
        parse_complex_dump("0 | 1 | 1\v\n0 | x | 2\n")
    # non-ASCII ones are neither breaks nor whitespace
    for sep in ("\x85", "\u2028", "\u2029"):
        with pytest.raises(ParseError, match="line 1: "):
            parse_complex_dump(f"0 | 1 | 1{sep}0 | 2 | 2\n")
        with pytest.raises(ParseError, match="line 1: bad label"):
            parse_complex_dump(f"0 | 1 | 1{sep}\n")
        with pytest.raises(ParseError, match="line 2: bad block"):
            parse_complex_dump(f"0 | 1 | 1\n0 | {sep}- | 1\n")
        # inside a comment they are text like any other
        assert len(parse_complex_dump(f"0 | 1 | 1 # {sep} x\n")) == 1
    # nor is non-ASCII whitespace stripped at the end of a line or field
    for space in ("\xa0", "\u3000"):
        with pytest.raises(ParseError, match="line 1: bad label"):
            parse_complex_dump(f"0 | 1 | 1{space}\n")
        with pytest.raises(ParseError, match="line 1: bad block"):
            parse_complex_dump(f"0 |{space} 1 | 1\n")


def test_wide_dumps_parse_in_small_memory():
    # 5 edges, each cell with 99 block slots and new values in every
    # group: 15 cells of products of simplices on VERTEX_LIMIT values,
    # the most a dump may use.  The block route's codes hold a bit per
    # value in every slot, 99 x 500 bits a cell, and parse this dump in
    # under 1 MB; the width budget bounds cells x slots x values, which
    # is 742,500 here.
    width = 100
    lines = []
    for v in range(0, hypergraph.VERTEX_LIMIT, width):
        rest = " ; ".join(map(str, range(v + 2, v + width)))
        label = " ".join(map(str, range(v, v + width)))
        lines += [f"0 | {v} ; {rest} | {label}",
                  f"0 | {v + 1} ; {rest} | {label}",
                  f"1 | {v} {v + 1} ; {rest} | {label}"]
    text = "\n".join(lines)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        X = parse_complex_dump(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2
    assert peak < 16 * 2**20
    assert X.f_vector() == (10, 5)
    cell = ((0, 1), *((v,) for v in range(2, width)))
    # the block route: the writer's signs, not the first face's +1
    assert X.boundary(cell) == block_boundary(cell) == [
        (((1,), *cell[1:]), 1), (((0,), *cell[1:]), -1)
    ]


def test_width_budget_counts_cells_slots_and_values():
    # 99 one-value slots over VERTEX_LIMIT values: 1,010 points come to
    # 49,995,000 <= CELL_LIMIT * VERTEX_LIMIT and are read, one more is
    # refused on its line
    limit = complexes.CELL_LIMIT * hypergraph.VERTEX_LIMIT
    assert 1_010 * 99 * hypergraph.VERTEX_LIMIT <= limit
    text = slotted_points(1_011, 99, hypergraph.VERTEX_LIMIT)
    under = text[:text.rindex("0 |")]
    start = time.perf_counter()
    X = parse_complex_dump(under)
    assert time.perf_counter() - start < 2
    assert X.f_vector() == (1_010,)
    with pytest.raises(BudgetError, match=f"values come to more than {limit}"):
        parse_complex_dump(text)


def test_a_lone_high_dimension_is_refused_in_time():
    # the dimensions between the two cells are laid out as one shared
    # empty list, not one list each
    top = complexes.CELL_LIMIT - 1
    start = time.perf_counter()
    refusal = f"cell ((1, 2),) of dimension {top} has no faces"
    with pytest.raises(ParseError, match=re.escape(refusal)):
        parse_complex_dump(f"0 | 1 | 1\n{top} | 1 2 | 1 2\n")
    assert time.perf_counter() - start < 0.25


def test_vertex_budget_counts_distinct_label_vertices_and_block_values(
    monkeypatch,
):
    limit = hypergraph.VERTEX_LIMIT
    # at the limit a dump is read: one label of `limit` vertices, and
    # `limit` points labeled alike, each its own block value
    wide = " ".join(map(str, range(limit)))
    X = parse_complex_dump(f"0 | 1 | {wide}\n")
    assert len(X._vertices) == limit
    X = parse_complex_dump("".join(f"0 | {i} | 7\n" for i in range(limit)))
    assert X.f_vector() == (limit,)
    # one past it is refused, whatever the vertices repeat
    with pytest.raises(BudgetError, match=f"more than {limit} distinct label"):
        parse_complex_dump(f"0 | 1 | {wide}\n0 | 2 | 0 {limit}\n")
    with pytest.raises(BudgetError, match=f"more than {limit} distinct block"):
        parse_complex_dump(
            "".join(f"0 | {i} | 7\n" for i in range(limit)) + "0 | -1 | 7\n"
        )
    # a parse error on the line that passes the budget comes first
    with pytest.raises(ParseError, match="bad label"):
        parse_complex_dump(
            "".join(f"0 | {i} | 7\n" for i in range(limit)) + "0 | -1 | x\n"
        )
    # the limit is read when a dump is parsed
    monkeypatch.setattr(hypergraph, "VERTEX_LIMIT", 3)
    with pytest.raises(BudgetError, match="more than 3 distinct label"):
        parse_complex_dump("0 | 1 | 1 2\n0 | 2 | 3 4\n")


def test_parse_rejects_broken_posets():
    # a 1-cell with three vertices below it: kernel dimension 2
    bad = "0 | 1 | 1\n0 | 2 | 2\n0 | 3 | 3\n1 | 1 2 3 | 1 2 3\n"
    with pytest.raises(ParseError, match="kernel"):
        parse_complex_dump(bad)
    # a 1-cell with no faces at all
    with pytest.raises(ParseError, match="no faces"):
        parse_complex_dump("1 | 1 2 | 1 2\n")
    # label of a face not under the label of the cell
    bad2 = "0 | 1 | 9\n0 | 2 | 2\n1 | 1 2 | 1 2\n"
    with pytest.raises(ParseError, match="label"):
        parse_complex_dump(bad2)


def test_parse_rejects_interior_gap(copath5):
    # removing an interior cell breaks the boundary kernel of the cell above
    X = build_complex(copath5)
    text = write_complex_dump(X)
    lines = [l for l in text.splitlines() if not l.startswith("1 | 1 ; 2 3 |")]
    with pytest.raises(ParseError):
        parse_complex_dump("\n".join(lines))


def test_mutilated_top_parses_but_fails_verification(copath5):
    X = build_complex(copath5)
    text = write_complex_dump(X)
    lines = [l for l in text.splitlines() if not l.startswith("3 |")]
    Y = parse_complex_dump("\n".join(lines))
    report = verify_resolution(Y)
    assert not report.passed
    assert report.failures[0][0] == frozenset({1, 2, 3, 4, 5})


def test_nested_join_refused(two_k2):
    _, cover = linear_width(two_k2)
    glued, _ = glued_resolution(two_k2, cover)
    from cointerval import join

    with pytest.raises(ValueError, match="nested"):
        write_complex_dump(join([glued, build_complex(two_k2.induced((1, 2)))]))
