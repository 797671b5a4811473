r"""The dump parser against its first reader, the pairwise face scan and
Fraction orientation.

`oracle_read_cells` and `oracle_layout` are the reader as it was written
first: a dict {blocks: (dim, label)} with a frozenset per label, laid
out per dimension in a second walk, with lines now broken only at `\n`,
`\r\n` and `\r`.  The parser's reader (`dumpio._read`) must give the
same keys, masks and vertices, or the same error text and line, on text
without non-ASCII whitespace (see `oracle_read_cells`).  `oracle_orient`
is the orientation step as it was written first: every (dim - 1)-cell
is tested against every dim-cell by `_below`, and each cell's signs come
from a dense Fraction nullspace (`fraction_nullspace`).
The parser files a dump of products of simplices as the builders file
theirs (`complexes._filed`), so it gets the columns of the complex that
wrote it; any other dump finds faces by holder bitsets and carries
signs across ridges shared by two faces, falling back to the
integer-elimination rational kernel (`dumpio._holder_columns`), which
makes each cell's first face +1 as the oracle does.  On every dump here
parser and oracle must give the same boundaries in that gauge
(`first_face_gauge`), or the same ParseError text, and the holder route
must give the writer's columns in it wherever the block rule applies.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cointerval import (
    GF2,
    GF3,
    GF32003,
    QQ,
    BudgetError,
    Hypergraph,
    LabeledComplex,
    ParseError,
    build_complex,
    glued_resolution,
    linear_width,
    parse_complex_dump,
    taylor_complex,
    verify_resolution,
    write_complex_dump,
)
from cointerval import complexes, dumpio
from cointerval.hypergraph import _int_tokens

from graphs import copath, strand_corpus

GOLDEN = Path(__file__).parent / "golden"


def oracle_read_cells(text):
    r"""The dump's cells as {blocks: (dim, label)}, checked line by line;
    lines break at `\n`, `\r\n` and `\r`.

    Unlike `dumpio._read`, it strips non-ASCII whitespace (`str.strip`)
    from the ends of lines and fields, so it accepts `0 | 1 | 1\u00a0`,
    which the parser refuses; no text compared with it here holds any.
    """
    cells = {}
    arity = None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise ParseError("expected `dim | blocks | label`", lineno)
        try:
            (dim,) = _int_tokens(parts[0])
        except ValueError:
            raise ParseError(f"bad dimension {parts[0]!r}", lineno) from None
        blocks = []
        for btxt in parts[1].split(";"):
            btxt = btxt.strip()
            if btxt == "-" or not btxt:
                blocks.append(())
                continue
            try:
                block = tuple(_int_tokens(btxt))
            except ValueError:
                raise ParseError(f"bad block {btxt!r}", lineno) from None
            if any(
                block[i] >= block[i + 1] for i in range(len(block) - 1)
            ):
                raise ParseError(
                    f"block {block} is not strictly increasing", lineno
                )
            blocks.append(block)
        blocks = tuple(blocks)
        if arity is None:
            arity = len(blocks)
        elif len(blocks) != arity:
            raise ParseError(
                f"cell has {len(blocks)} blocks, expected {arity}", lineno
            )
        try:
            label = frozenset(_int_tokens(parts[2]))
        except ValueError:
            raise ParseError(f"bad label {parts[2]!r}", lineno) from None
        if not label:
            raise ParseError("empty label", lineno)
        if blocks in cells:
            raise ParseError(f"duplicate cell {blocks}", lineno)
        if dim < 0:
            raise ParseError(f"negative dimension {dim}", lineno)
        if dim >= complexes.CELL_LIMIT:
            raise BudgetError(
                f"a cell of dimension {dim} needs more than "
                f"{complexes.CELL_LIMIT} cells"
            )
        cells[blocks] = (dim, label)
        if len(cells) > complexes.CELL_LIMIT:
            raise BudgetError(
                f"the dump has more than {complexes.CELL_LIMIT} cells"
            )
    return cells


def oracle_layout(cells):
    """Keys (sorted, per dimension 0..top), label masks and ascending
    label vertices of {cell: (dim, label)}."""
    top = max((dim for dim, _label in cells.values()), default=-1)
    keys = {d: [] for d in range(top + 1)}
    for cell, (dim, _label) in cells.items():
        keys[dim].append(cell)
    for dim_cells in keys.values():
        dim_cells.sort()
    verts = sorted(frozenset().union(*(lab for _d, lab in cells.values())))
    bit = {v: 1 << k for k, v in enumerate(verts)}
    masks = {
        d: [sum(bit[v] for v in cells[c][1]) for c in dim_cells]
        for d, dim_cells in keys.items()
    }
    return keys, masks, verts


def read_outcome(read, text):
    """('ok', (keys, masks, vertices)), ('error', message, line) or
    ('budget', message)."""
    try:
        return ("ok", read(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    except BudgetError as exc:
        return ("budget", str(exc))


def oracle_read(text):
    return oracle_layout(oracle_read_cells(text))


def fraction_nullspace(rows, ncols):
    """Basis of the rational nullspace of dense rows, by Fraction
    Gauss-Jordan: the kernel the parser first oriented cells with."""
    m = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -a[i][fc]
        basis.append(vec)
    return basis


def _below(small, big):
    return all(set(s) <= set(b) for s, b in zip(small, big))


def oracle_orient(cells):
    by_dim = {}
    for key, (dim, _label) in cells.items():
        by_dim.setdefault(dim, []).append(key)
    for dim in by_dim:
        by_dim[dim].sort()
    boundaries = {}
    for dim in sorted(by_dim):
        for cell in by_dim[dim]:
            if dim == 0:
                boundaries[cell] = []
                continue
            faces = [f for f in by_dim.get(dim - 1, ()) if _below(f, cell)]
            for f in faces:
                if not cells[f][1] <= cells[cell][1]:
                    raise ParseError(
                        f"label of face {f} does not divide label of {cell}"
                    )
            if not faces:
                raise ParseError(
                    f"cell {cell} of dimension {dim} has no faces"
                )
            targets = {}
            if dim == 1:
                targets["aug"] = 0
            for f in faces:
                for g, _s in boundaries[f]:
                    targets.setdefault(g, len(targets))
            target_index = {
                g: i for i, g in enumerate(sorted(targets, key=str))
            }
            rows = [[0] * len(faces) for _ in target_index]
            for j, f in enumerate(faces):
                if dim == 1:
                    rows[target_index["aug"]][j] = 1
                else:
                    for g, s in boundaries[f]:
                        rows[target_index[g]][j] += s
            basis = fraction_nullspace(rows, len(faces))
            if len(basis) != 1:
                raise ParseError(
                    f"cell {cell}: boundary kernel has dimension "
                    f"{len(basis)}, not a polyhedral cell"
                )
            vec = basis[0]
            lead = next((v for v in vec if v), None)
            if lead is None:
                raise ParseError(f"cell {cell}: degenerate boundary")
            vec = [v / lead for v in vec]
            if any(v not in (Fraction(1), Fraction(-1)) for v in vec):
                raise ParseError(
                    f"cell {cell}: boundary coefficients are not units"
                )
            boundaries[cell] = [
                (f, 1 if v > 0 else -1) for f, v in zip(faces, vec)
            ]
    return LabeledComplex.from_cells(cells, boundaries.__getitem__)


def first_face_gauge(columns):
    """Checked columns ({dim: columns by id}, the augmentation in
    dimension 0) with each cell's orientation flipped, dimension by
    dimension, so that its first face by id enters with +1."""
    out = {0: columns[0]}
    flips = [1] * len(columns[0])  # a vertex's augmentation is +1
    for dim in range(1, len(columns)):
        cols = out[dim] = []
        cell_flips = []
        for col in columns[dim]:
            col = sorted((f, s * flips[f]) for f, s in col)
            cell_flips.append(col[0][1])
            cols.append(tuple((f, s * col[0][1]) for f, s in col))
        flips = cell_flips
    return out


def gauged_parse(text):
    """The parsed dump, its columns in the first-face gauge."""
    X = parse_complex_dump(text)
    gauged = first_face_gauge(X._checked)
    columns = {dim: cols for dim, cols in gauged.items() if dim}
    return LabeledComplex(X._keys, X._masks, X._vertices, lambda: columns)


def outcome(parse, text):
    """('ok', boundaries in cell order), ('error', message) or
    ('budget', message)."""
    try:
        X = parse(text)
    except ParseError as exc:
        return ("error", str(exc))
    except BudgetError as exc:
        return ("budget", str(exc))
    return ("ok", [(c, X.boundary(c)) for c in X.all_cells()])


def oracle_parse(text):
    return oracle_orient(oracle_read_cells(text))


def interval_complement(rng, n):
    """Complement of a random interval graph: a cointerval 2-graph."""
    spans = []
    for _ in range(n):
        a = rng.randrange(10)
        spans.append((a, a + rng.randrange(1, 4)))
    edges = [
        (i + 1, j + 1)
        for i, j in itertools.combinations(range(n), 2)
        if spans[i][1] < spans[j][0] or spans[j][1] < spans[i][0]
    ]
    return Hypergraph(2, range(1, n + 1), edges)


def source_dumps():
    """Written dumps of block, Taylor and join complexes, plus the golden."""
    rng = random.Random(7)
    out = [("golden_taylor", (GOLDEN / "input_taylor_2k2.dump").read_text())]
    blocks = [copath(5), copath(7)]
    k5_3 = itertools.combinations(range(1, 6), 3)
    blocks.append(Hypergraph(3, range(1, 6), k5_3))
    for _ in range(6):
        H = interval_complement(rng, rng.randrange(4, 7))
        if H.edges and H.is_cointerval():
            blocks.append(H)
    out += [(f"block{i}", write_complex_dump(build_complex(H)))
            for i, H in enumerate(blocks)]
    taylors = [
        Hypergraph(2, range(1, 4), itertools.combinations(range(1, 4), 2)),
        Hypergraph(2, range(1, 5), [(1, 2), (3, 4)]),
        Hypergraph(2, range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)]),
    ]
    out += [(f"taylor{i}", write_complex_dump(taylor_complex(H)))
            for i, H in enumerate(taylors)]
    joins = [
        Hypergraph(2, range(1, 5), [(1, 2), (3, 4)]),
        Hypergraph(2, range(1, 7), [(1, 2), (3, 4), (5, 6)]),
        Hypergraph(2, range(1, 6), [(1, 2), (1, 3), (4, 5)]),
    ]
    for i, H in enumerate(joins):
        _, cover = linear_width(H)
        glued, _ = glued_resolution(H, cover)
        out.append((f"join{i}", write_complex_dump(glued)))
    return out


def _line(dim, blocks, label):
    btxt = " ; ".join(" ".join(map(str, b)) if b else "-" for b in blocks)
    return f"{dim} | {btxt} | {' '.join(map(str, sorted(label)))}"


def mutations(text, rng):
    """Seeded corruptions of a dump, each named after what it does."""
    lines = text.splitlines()
    cells = oracle_read_cells(text)
    rows = [(key, dim, label) for key, (dim, label) in cells.items()]
    out = []
    i = rng.randrange(len(lines))
    out.append(("drop", "\n".join(lines[:i] + lines[i + 1:])))
    key, dim, label = rng.choice(rows)
    shifted = dict(cells)
    shifted[key] = (max(0, dim + rng.choice((-1, 1))), label)
    out.append(("shift", shifted))
    key, dim, label = rng.choice(rows)
    if len(label) > 1:
        shrunk = dict(cells)
        shrunk[key] = (dim, label - {rng.choice(sorted(label))})
        out.append(("shrink", shrunk))
    # a subset two or more dimensions down, declared one below a cell
    deep = [
        (small, big)
        for big, (bdim, _b) in cells.items() if bdim >= 2
        for small, (sdim, _s) in cells.items()
        if sdim <= bdim - 2 and _below(small, big)
    ]
    if deep:
        small, big = rng.choice(deep)
        lowered = dict(cells)
        lowered[small] = (cells[big][0] - 1, cells[small][1])
        out.append(("deeper", lowered))
    j = rng.randrange(len(lines))
    out.append(("duplicate", "\n".join(lines[: j + 1] + lines[j:])))
    return [
        (name, m if isinstance(m, str) else "\n".join(
            _line(d, k, lab) for k, (d, lab) in sorted(
                m.items(), key=lambda kv: (kv[1][0], kv[0])
            )
        ))
        for name, m in out
    ]


def test_parser_matches_oracle_on_written_dumps():
    for name, text in source_dumps():
        got = outcome(gauged_parse, text)
        assert got[0] == "ok", (name, got)
        assert got == outcome(oracle_parse, text), name


def test_parser_matches_oracle_on_mutations():
    rng = random.Random(2024)
    seen = {}
    for name, text in source_dumps():
        for _round in range(6):
            for kind, mutated in mutations(text, rng):
                got = outcome(gauged_parse, mutated)
                assert got == outcome(oracle_parse, mutated), (name, kind)
                seen.setdefault(kind, []).append(
                    got[1] if got[0] == "error" else "ok"
                )
    assert set(seen) == {"drop", "shift", "shrink", "deeper", "duplicate"}
    messages = [m for ms in seen.values() for m in ms]
    # accepted dumps and every kind of rejection the mutations reach
    for part in ("ok", "kernel has dimension", "no faces", "does not divide",
                 "duplicate cell"):
        assert sum(part in m for m in messages) >= 5, part


def test_reader_matches_oracle_on_dumps_and_mutations():
    rng = random.Random(2025)
    dumps = source_dumps() + [
        (name, text) for name, text, _X in block_rule_dumps()
    ]
    seen = set()
    for name, text in dumps:
        got = read_outcome(dumpio._read, text)
        assert got[0] == "ok", name
        assert got == read_outcome(oracle_read, text), name
        for kind, mutated in mutations(text, rng):
            got = read_outcome(dumpio._read, mutated)
            assert got == read_outcome(oracle_read, mutated), (name, kind)
            seen.add((kind, got[0]))
    # the reader accepts the poset corruptions and refuses a repeated line
    assert seen == {("drop", "ok"), ("shift", "ok"), ("shrink", "ok"),
                    ("deeper", "ok"), ("duplicate", "error")}


# One text per case; a case that fails does so on its last line, after
# a cell, a comment and a blank line.
READER_LINES = [
    "# a comment\n0 | 1 | 1  # and a trailing one\n#\n",
    "\n   \n\t\n0 | 1 | 1\n\n \t \n0 | 2 | 2\n",
    "0 | 1 | 1\r\n0 | 2 | 2\r\n1 | 1 2 | 1 2\r\n",
    "0 | 1 | 1\r0 | 2 | 2\r1 | 1 2 | 1 2\r",
    "0\t|\t1\t|\t1\n0 |\t2 | 2\t\n",
    "0 | 1 ; - | 1\n0 | - ; 2 | 2\n1 | 1 ; 2 | 1 2\n0 | ; 3 | 3\n",
    "0 | -1 | -1\n0 | 2 | 2\n1 | -1 2 | -1 2\n",
    "+0 | 1 | 1", "0 | +3 | 3", "0 | 1 | +1", "0 | 1 2 | 1 +2",
    "1_0 | 1 | 1", "0 | 1_0 | 10", "0 | 1 | 1_0",
    "\uff10 | 1 | 1", "0 | \uff11 | 1", "0 | 1 | \uff11",
    "- 3 | 1 | 1", "0 | - 3 | 3", "0 | 1 | - 3",
    "--3 | 1 | 1", "0 | --3 | 3", "0 | 1 | --3",
    "0 | - - | 1", "0 | -- | 1", "0 | 1 - | 1",
    "x | 1 | 1", "0 1 | 1 | 1", " | 1 | 1", "0 | x | 1", "0 | 1 | x",
    "0 | 1", "0 | 1 | 1 | 1", "0 1 1",
]
READER_CELLS = [
    "0 | 2 1 | 1 2", "0 | 1 1 | 1", "0 | 3 ; 2 2 | 2 3",
    "0 | 2 1 ; x | 1", "0 | x ; 2 1 | 1", "0 | 2 1 | x",
    "0 | 7 | 7\n0 | 1 ; 2 | 1 2", "0 | 7 | 7\n0 | ; | 1",
    "0 | 7 | 7\n0 | 1 ; x | x", "0 | 7 | 7\n0 | 8 ; 9 | x",
    "0 | 7 | 7", "1 | 7 | 7", "0 | 1 2 | 1 2\n1 | 1 2 | 1 2",
    "-1 | 1 | 1", "-1 | 7 | 7", "-1 | 1 | ",
    f"{complexes.CELL_LIMIT} | 1 2 | 1 2",
    f"{complexes.CELL_LIMIT - 1} | 1 2 | 1 2",
    f"{10 ** 30} | 1 2 | 1 2",
    "0 | 1 |", "0 | 1 | ", "0 | 1 | # a comment",
    "0 | 1 | 1 1", "1 | 1 2 | 2 1 2 1", "0 | 1 | 3 1 2 1 3",
    "1 | 1 2 | 1 2\n0 | 2 | 2\n0 | 1 | 1",
    "0 | 3 | 3\n2 | 1 2 3 | 1 2 3\n0 | 1 | 1",
    "2 | 1 ; 2 3 4 | 1 2 3 4\n0 | 1 ; 2 | 1 2\n1 | 1 ; 2 3 | 1 2 3",
]


@pytest.mark.parametrize("last", READER_LINES + READER_CELLS)
def test_reader_matches_oracle_line_by_line(last):
    for text in (last, "0 | 7 | 7\n# comment\n\n" + last):
        got = read_outcome(dumpio._read, text)
        assert got == read_outcome(oracle_read, text)


def test_reader_counts_cells_like_the_oracle(monkeypatch):
    monkeypatch.setattr(complexes, "CELL_LIMIT", 3)
    lines = ["0 | 1 | 1", "0 | 2 | 2", "1 | 1 2 | 1 2", "0 | 3 | 3"]
    for k in range(len(lines) + 1):
        text = "\n".join(lines[:k])
        got = read_outcome(dumpio._read, text)
        assert got == read_outcome(oracle_read, text)
        assert got[0] == ("budget" if k == 4 else "ok")
    got = read_outcome(dumpio._read, "3 | 1 | 1")
    assert got == ("budget", "a cell of dimension 3 needs more than 3 cells")


def block_rule_dumps():
    """(name, dump, the complex that wrote it) for dumps of products of
    simplices: every complex of `strand_corpus` (block complexes of
    small cointerval graphs and copath(4..9), seeded Taylor complexes),
    copath(10) and the golden Taylor dump, written by 2K2's."""
    out = [(name, write_complex_dump(X), X) for name, X in strand_corpus()]
    X = build_complex(copath(10))
    out.append(("copath10", write_complex_dump(X), X))
    two_k2 = Hypergraph(2, range(1, 5), [(1, 2), (3, 4)])
    out.append((
        "golden_taylor", (GOLDEN / "input_taylor_2k2.dump").read_text(),
        taylor_complex(two_k2),
    ))
    return out


def test_block_rule_gives_the_holder_columns():
    dumps = block_rule_dumps()
    assert len(dumps) >= 400
    for name, text, X in dumps:
        Y = parse_complex_dump(text)
        assert list(Y.all_cells()) == list(X.all_cells()), name
        assert Y._checked == X._checked, name
        keys, masks, _verts = dumpio._read(text)
        held = {0: Y._checked[0], **dumpio._holder_columns(keys, masks)}
        assert held == first_face_gauge(X._checked), name


def test_block_dumps_skip_the_holder_route(holder_calls):
    texts = [
        write_complex_dump(build_complex(copath(7))),
        write_complex_dump(taylor_complex(
            Hypergraph(2, range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
        )),
        (GOLDEN / "input_taylor_2k2.dump").read_text(),
    ]
    for text in texts:
        assert verify_resolution(parse_complex_dump(text)).passed
    assert holder_calls == {
        "_holder_columns": 0, "_propagated_signs": 0, "_rational_signs": 0
    }


def test_irregular_dumps_take_the_holder_route(holder_calls):
    text = write_complex_dump(build_complex(copath(5)))
    H = Hypergraph(2, range(1, 5), [(1, 2), (3, 4)])
    glued, _ = glued_resolution(H, linear_width(H)[1])
    joined = write_complex_dump(glued)
    assert " - " in joined  # a join cell with an empty block
    cases = [
        (joined, "ok"),
        (square([(1, 2), (2, 3), (3, 4), (1, 4)]), "ok"),  # dim 2, not 3
        (text.replace("1 | 1 ; 4 5 | 1 4 5\n", ""),
         "cell ((1,), (3, 4, 5)): boundary kernel has dimension 0, "
         "not a polyhedral cell"),
        (text.replace("0 | 1 ; 3 | 1 3\n", "0 | 1 ; 3 | 1 3 9\n"),
         "label of face ((1,), (3,)) does not divide label of "
         "((1,), (3, 4))"),
    ]
    for i, (mutated, expected) in enumerate(cases, start=1):
        got = outcome(parse_complex_dump, mutated)
        assert holder_calls["_holder_columns"] == i
        assert got == outcome(oracle_parse, mutated)
        assert (got[0] if got[0] == "ok" else got[1]) == expected


def square(top_faces):
    """Four points, the given 1-cells, and (1 2 3 4) declared a 2-cell."""
    lines = [_line(0, ((v,),), {v}) for v in range(1, 5)]
    lines += [_line(1, (e,), set(e)) for e in top_faces]
    lines.append(_line(2, ((1, 2, 3, 4),), {1, 2, 3, 4}))
    return "\n".join(lines)


def test_deeper_subset_counts_as_a_face():
    # (1 4) is two deletions below (1 2 3 4); containment makes it a face
    # of the cell declared one dimension up, which is then a square
    text = square([(1, 2), (2, 3), (3, 4), (1, 4)])
    got = outcome(parse_complex_dump, text)
    assert got == outcome(oracle_parse, text)
    assert got[0] == "ok"
    assert [f for f, _s in got[1][-1][1]] == [
        ((1, 2),), ((1, 4),), ((2, 3),), ((3, 4),)
    ]


def test_rejections_name_the_rational_reason():
    # a triangle with a pendant edge: a one-dimensional kernel with a zero
    text = square([(1, 2), (1, 3), (2, 3), (3, 4)])
    got = outcome(parse_complex_dump, text)
    assert got == outcome(oracle_parse, text)
    assert got == (
        "error", "cell ((1, 2, 3, 4),): boundary coefficients are not units"
    )
    # a path: no cycle, so the kernel is trivial
    text = square([(1, 2), (2, 3), (3, 4)])
    got = outcome(parse_complex_dump, text)
    assert got == outcome(oracle_parse, text)
    assert got == (
        "error",
        "cell ((1, 2, 3, 4),): boundary kernel has dimension 0, "
        "not a polyhedral cell",
    )


# A projective plane: a disc of four triangles around centre 3 whose rim
# runs twice round the 2-cycle x = (1 2 6), y = (1 2 7), declared one
# 3-cell.  Every edge lies in two triangles, but x and y meet both of
# theirs with the same sign, so there is no nonzero cycle.
PROJECTIVE_PLANE = """\
0 | 1 | 1
0 | 2 | 2
0 | 3 | 3
1 | 1 2 6 | 1 2 6
1 | 1 2 7 | 1 2 7
1 | 1 3 8 | 1 3 8
1 | 2 3 9 | 2 3 9
1 | 1 3 10 | 1 3 10
1 | 2 3 11 | 2 3 11
2 | 1 2 3 6 8 9 | 1 2 3 6 8 9
2 | 1 2 3 7 9 10 | 1 2 3 7 9 10
2 | 1 2 3 6 10 11 | 1 2 3 6 10 11
2 | 1 2 3 7 8 11 | 1 2 3 7 8 11
3 | 1 2 3 6 7 8 9 10 11 | 1 2 3 6 7 8 9 10 11
"""

# Two projective planes, each a disc of four triangles around its own
# centre (3 or 4) whose rim runs twice round the 2-cycle x = (1 2 6),
# y = (1 2 7), declared one 3-cell.  Each plane's triangles are linked
# only through their spokes, and x and y each lie in four faces, so
# sign propagation stays inside one plane; the two planes' rims cancel
# only against each other, so the kernel is one +-1 vector.
TWO_PROJECTIVE_PLANES = """\
0 | 1 | 1
0 | 2 | 2
0 | 3 | 3
0 | 4 | 4
1 | 1 2 6 | 1 2 6
1 | 1 2 7 | 1 2 7
1 | 1 3 8 | 1 3 8
1 | 2 3 9 | 2 3 9
1 | 1 3 10 | 1 3 10
1 | 2 3 11 | 2 3 11
1 | 1 4 12 | 1 4 12
1 | 2 4 13 | 2 4 13
1 | 1 4 14 | 1 4 14
1 | 2 4 15 | 2 4 15
2 | 1 2 3 6 8 9 | 1 2 3 6 8 9
2 | 1 2 3 7 9 10 | 1 2 3 7 9 10
2 | 1 2 3 6 10 11 | 1 2 3 6 10 11
2 | 1 2 3 7 8 11 | 1 2 3 7 8 11
2 | 1 2 4 6 12 13 | 1 2 4 6 12 13
2 | 1 2 4 7 13 14 | 1 2 4 7 13 14
2 | 1 2 4 6 14 15 | 1 2 4 6 14 15
2 | 1 2 4 7 12 15 | 1 2 4 7 12 15
3 | 1 2 3 4 6 7 8 9 10 11 12 13 14 15 | 1 2 3 4 6 7 8 9 10 11 12 13 14 15
"""

# Two triangles sharing vertex 3: vertex 3 lies in four edges, and the
# two triangles are two independent cycles.
BOWTIE = """\
0 | 1 | 1
0 | 2 | 2
0 | 3 | 3
0 | 4 | 4
0 | 5 | 5
1 | 1 2 | 1 2
1 | 1 3 | 1 3
1 | 2 3 | 2 3
1 | 3 4 | 3 4
1 | 3 5 | 3 5
1 | 4 5 | 4 5
2 | 1 2 3 4 5 | 1 2 3 4 5
"""

# Two disjoint triangles: every vertex lies in two edges.
TWO_TRIANGLES = """\
0 | 1 | 1
0 | 2 | 2
0 | 3 | 3
0 | 4 | 4
0 | 5 | 5
0 | 6 | 6
1 | 1 2 | 1 2
1 | 1 3 | 1 3
1 | 2 3 | 2 3
1 | 4 5 | 4 5
1 | 4 6 | 4 6
1 | 5 6 | 5 6
2 | 1 2 3 4 5 6 | 1 2 3 4 5 6
"""

SQUARE_TOP = ((1, 2, 3, 4),)


@pytest.mark.parametrize("text, fallback, expected", [
    # the walk spans the faces and M v = 0: the signs, no fallback
    (square([(1, 2), (2, 3), (3, 4), (1, 4)]), [], "ok"),
    # the walk spans a path, but its end vertices lie in one edge each
    (square([(1, 2), (2, 3), (3, 4)]), [SQUARE_TOP],
     "cell ((1, 2, 3, 4),): boundary kernel has dimension 0, "
     "not a polyhedral cell"),
    # the walk spans the plane, but crosses x (and y) with clashing signs
    (PROJECTIVE_PLANE, [((1, 2, 3, *range(6, 12)),)],
     "cell ((1, 2, 3, 6, 7, 8, 9, 10, 11),): boundary kernel has "
     "dimension 0, not a polyhedral cell"),
    # the walk stays in one plane; the rational kernel is +-1 and 1-dim
    (TWO_PROJECTIVE_PLANES, [((1, 2, 3, 4, *range(6, 16)),)], "ok"),
    # the walk stays in one triangle; the kernel has dimension 2
    (BOWTIE, [((1, 2, 3, 4, 5),)],
     "cell ((1, 2, 3, 4, 5),): boundary kernel has dimension 2, "
     "not a polyhedral cell"),
    (TWO_TRIANGLES, [((1, 2, 3, 4, 5, 6),)],
     "cell ((1, 2, 3, 4, 5, 6),): boundary kernel has dimension 2, "
     "not a polyhedral cell"),
], ids=[
    "spans-exact", "spans-inexact-end", "spans-inexact-twist",
    "open-unit-kernel", "open-2-dim-bowtie", "open-2-dim-disjoint",
])
def test_every_propagation_exit_matches_oracle(
    monkeypatch, text, fallback, expected
):
    fell_back = []
    rational_signs = dumpio._rational_signs

    def recorded(cell, cols):
        fell_back.append(cell)
        return rational_signs(cell, cols)

    monkeypatch.setattr(dumpio, "_rational_signs", recorded)
    got = outcome(parse_complex_dump, text)
    assert got == outcome(oracle_parse, text)
    assert (got[0] if got[0] == "ok" else got[1]) == expected
    assert fell_back == fallback


def borel_3graph(rng, n):
    """Union of two principal Borel sets of 3-subsets: strongly stable."""
    gens = [sorted(rng.sample(range(1, n + 1), 3)) for _ in range(2)]
    edges = [
        e for e in itertools.combinations(range(1, n + 1), 3)
        if any(all(v <= g for v, g in zip(e, gen)) for gen in gens)
    ]
    return Hypergraph(3, range(1, n + 1), edges)


def test_round_trip_verifies_like_the_built_complex():
    rng = random.Random(31)
    graphs = []
    while len(graphs) < 6:
        H = interval_complement(rng, rng.randrange(5, 8))
        if H.edges and H.is_cointerval():
            graphs.append(H)
    graphs += [borel_3graph(rng, rng.randrange(4, 7)) for _ in range(4)]
    for H in graphs:
        assert H.is_cointerval(), H
        X = build_complex(H)
        Y = parse_complex_dump(write_complex_dump(X))
        for field in (GF2, GF3, GF32003, QQ):
            want = verify_resolution(X, fields=(field,))
            got = verify_resolution(Y, fields=(field,))
            assert got.summary() == want.summary(), (H, field)
            assert got.passed


DUMP_CHARS = st.sampled_from(
    list("0123 |;-#\n\t\r+_") + ["12", " - ", " ; ", "\r\n", "x"]
)


@st.composite
def dump_texts(draw):
    if draw(st.booleans()):
        return "".join(draw(st.lists(DUMP_CHARS, max_size=60)))
    vertices = st.lists(st.integers(0, 5), max_size=4)
    lines = []
    for _ in range(draw(st.integers(0, 9))):
        dim = draw(st.integers(-1, 3))
        blocks = draw(st.lists(vertices, min_size=1, max_size=2))
        label = draw(vertices)
        lines.append(
            f"{dim} | "
            + " ; ".join(" ".join(map(str, b)) or "-" for b in blocks)
            + " | " + " ".join(map(str, label))
        )
    return "\n".join(lines)


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(dump_texts())
@example("0 | 1 | 1\n123123 | 1 2 | 1 2")  # past the dimension budget
def test_any_text_parses_or_raises_parse_error(text):
    # or BudgetError, for a dimension that needs more than CELL_LIMIT cells
    got = outcome(parse_complex_dump, text)
    if got[0] == "ok":
        assert isinstance(parse_complex_dump(text), LabeledComplex)
    assert got == outcome(oracle_parse, text)
    assert read_outcome(dumpio._read, text) == read_outcome(oracle_read, text)
