import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import cointerval
from cointerval import (
    BettiTable,
    BudgetError,
    Hypergraph,
    cli,
    complexes,
    find_strongly_stable_labeling,
    format_hypergraph,
    glued_resolution,
    linear_width,
    parse_hypergraph,
    read_hypergraph,
    restrict_to_graph,
    write_complex_dump,
)
from cointerval.cli import main
from cointerval.complexes import CELL_LIMIT
from cointerval.covers import LINEAR_WIDTH_EDGE_LIMIT
from cointerval.hypergraph import COINTERVAL_PLACEMENT_LIMIT, VERTEX_LIMIT
from cointerval.resolution import HOCHSTER_VERTEX_LIMIT

from graphs import all_graphs, random_graph, slotted_points

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_golden(capsys, name, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == (GOLDEN / name).read_text()


COPATH5 = str(GOLDEN / "input_copath5.txt")
TWO_K2 = str(GOLDEN / "input_2k2.txt")
NET_COMPLEMENT = str(GOLDEN / "input_net_complement.txt")
COPATH5_DUMP = str(GOLDEN / "input_copath5.dump")
TAYLOR = str(GOLDEN / "input_taylor_2k2.dump")
JOIN = str(GOLDEN / "input_join_2k2.dump")
NONCOINTERVAL = str(GOLDEN / "input_noncointerval.dump")


def test_check(capsys):
    check_golden(capsys, "check_copath5.txt", "check", COPATH5)


def test_check_find_labeling(capsys):
    check_golden(
        capsys, "check_2k2_find.txt", "check", TWO_K2, "--find-labeling"
    )


def test_check_strongly_stable_line_matches_the_search(capsys, tmp_path):
    # `check --find-labeling` skips the strong-stability search once the
    # cointerval search finds nothing; its line still gives the verdict
    # and the labeling of `find_strongly_stable_labeling`
    corpus = [H for n in range(1, 6) for H in all_graphs(2, range(1, n + 1))]
    corpus += list(all_graphs(3, range(1, 6)))
    rng = random.Random(20261022)
    for _ in range(60):
        labels = sorted(rng.sample(range(2, 40), rng.randint(4, 7)))
        corpus.append(random_graph(rng, rng.choice((2, 3)), labels, 0.5))
    path = tmp_path / "graph.txt"
    verdicts = set()
    for H in corpus:
        path.write_text(format_hypergraph(H))
        code, out, err = run(capsys, "check", str(path), "--find-labeling")
        assert code == 0, err
        line = out.splitlines()[1]
        cert = find_strongly_stable_labeling(H)
        if cert is None:
            assert line == (
                f"strongly-stable: no (all {math.factorial(H.n)} labelings)"
            ), H
        elif line != "strongly-stable: yes":  # stable under its own labels
            perm = " ".join(str(cert[v]) for v in H.vertices)
            assert line == f"strongly-stable: yes (labeling: {perm})", H
        verdicts.add((cert is not None, out.startswith("cointerval: yes")))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_resolve(capsys):
    check_golden(
        capsys, "resolve_copath5.txt", "resolve", COPATH5, "--confirm"
    )


def test_resolve_rejects_non_cointerval(capsys):
    code, out, err = run(capsys, "resolve", TWO_K2)
    assert code == 3
    assert "decompose" in err


def test_betti_hochster_default(capsys):
    check_golden(capsys, "betti_2k2_hochster.txt", "betti", TWO_K2)


def test_betti_all(capsys):
    check_golden(
        capsys,
        "betti_copath5_all.txt",
        "betti",
        COPATH5,
        "--method=all",
        "--field=q",
    )


def test_betti_all_builds_the_block_complex_once(capsys, monkeypatch):
    # faces and cellular read one complex of H; Hochster's route grows
    # the independence complex, not block cells
    grown = []
    real = complexes._grow

    def counted(*args):
        grown.append(args)
        return real(*args)

    monkeypatch.setattr(complexes, "_grow", counted)
    check_golden(
        capsys,
        "betti_copath5_all.txt",
        "betti",
        COPATH5,
        "--method=all",
        "--field=q",
    )
    assert len(grown) == 1


BETTI_ROUTES = {
    "faces": "betti_from_cells",
    "cellular": "betti_from_downset_homology",
    "hochster": "betti_hochster",
}


def _bumped_routes(monkeypatch, bumps):
    """Route `cmd_betti` through wrappers that raise the first row's Betti
    number of each table named in `bumps` by that many; returns the
    {method: table} that each route handed back."""
    tables = {}
    for method, name in BETTI_ROUTES.items():
        def route(*args, method=method, real=getattr(cli, name)):
            table = real(*args)
            if bumps.get(method):
                entries = dict(table.entries)
                first = min(entries, key=lambda k: (k[0], sorted(k[1])))
                entries[first] += bumps[method]
                table = BettiTable(entries)
            tables[method] = table
            return table

        monkeypatch.setattr(cli, name, route)
    return tables


@pytest.mark.parametrize("bumps", [
    {"hochster": 1},  # faces and cellular agree
    {"cellular": 1},  # faces and hochster agree
    {"faces": 1, "hochster": 2},  # no two agree
])
def test_betti_all_prints_every_table_when_they_disagree(
    capsys, monkeypatch, bumps
):
    tables = _bumped_routes(monkeypatch, bumps)
    code, out, err = run(capsys, "betti", COPATH5, "--method=all")
    assert code == 0 and err == ""
    golden = (GOLDEN / "betti_copath5_all.txt").read_text().splitlines()
    want = []
    for method in BETTI_ROUTES:
        want.append(f"method: {method}")
        lines = cli._table_lines(tables[method])
        # an untouched table prints as in the golden, a bumped one not
        start = golden.index(f"method: {method}") + 1
        assert (lines == golden[start:start + len(lines)]) == (
            method not in bumps
        )
        want.extend(lines)
    want.append("DISAGREE")
    assert out.splitlines() == want


def test_betti_all_formats_each_distinct_table_once(capsys, monkeypatch):
    formatted = []
    real = cli._table_lines

    def counted(table):
        formatted.append(table)
        return real(table)

    monkeypatch.setattr(cli, "_table_lines", counted)
    check_golden(
        capsys, "betti_copath5_all.txt", "betti", COPATH5, "--method=all"
    )
    assert len(formatted) == 1
    for bumps, distinct in (({"cellular": 1}, 2), ({"faces": 1, "hochster": 2}, 3)):
        formatted.clear()
        with monkeypatch.context() as patch:
            _bumped_routes(patch, bumps)
            code, out, _err = run(capsys, "betti", COPATH5, "--method=all")
        assert code == 0 and out.endswith("DISAGREE\n")
        assert len(formatted) == distinct, bumps


def test_betti_faces_requires_cointerval(capsys):
    code, _, err = run(capsys, "betti", TWO_K2, "--method=faces")
    assert code == 3 and "hochster" in err


def test_embed(capsys):
    check_golden(capsys, "embed_copath5.txt", "embed", COPATH5)


def test_embed_out_summary(capsys, tmp_path):
    out_file = tmp_path / "geom.txt"
    code, out, _ = run(capsys, "embed", COPATH5, "--out", str(out_file))
    assert code == 0
    assert "f-vector: 7 11 6 1" in out
    assert out_file.read_text() == (GOLDEN / "embed_copath5.txt").read_text()


def test_embed_reads_the_cell_budget_at_call_time(
    capsys, monkeypatch, tmp_path
):
    # copath(5) keeps 7 + 11 + 6 + 1 = 25 faces
    H = parse_hypergraph(pathlib.Path(COPATH5).read_text())
    monkeypatch.setattr(complexes, "CELL_LIMIT", 24)
    with pytest.raises(BudgetError, match="more than 24 faces"):
        restrict_to_graph(2, 5, H)
    code, out, err = run(capsys, "embed", COPATH5)
    assert code == 4 and out == ""
    assert "more than 24 faces" in err
    out_file = tmp_path / "geom.txt"
    code, out, err = run(capsys, "embed", COPATH5, "--out", str(out_file))
    assert code == 4 and out == ""
    assert "more than 24 faces" in err
    assert not out_file.exists()
    monkeypatch.setattr(complexes, "CELL_LIMIT", 25)
    assert restrict_to_graph(2, 5, H).f_vector() == (7, 11, 6, 1)


def test_embed_out_to_a_directory_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "embed", COPATH5, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_decompose(capsys):
    check_golden(capsys, "decompose_2k2.txt", "decompose", TWO_K2)


def test_decompose_joins_factors_of_positive_dimension(capsys):
    # the net's complement: its two parts' complexes are no single cells
    check_golden(capsys, "decompose_net_complement.txt",
                 "decompose", NET_COMPLEMENT, "--field", "3")


def test_casestudy(capsys):
    check_golden(capsys, "casestudy_2_4.txt", "casestudy", "--d", "2", "--n", "4")


def test_casestudy_3_5(capsys):
    # every path of the survey's case-study op: searches, covers, Hochster
    check_golden(capsys, "casestudy_3_5.txt", "casestudy", "--d", "3", "--n", "5")


def test_casestudy_guard(capsys):
    code, _, err = run(capsys, "casestudy", "--d", "2", "--n", "9")
    assert code == 4 and "refusing" in err


def test_casestudy_refuses_nine_vertices_at_once(capsys):
    # C(9, 1) = 9 edges pass the class guard, but 9! relabelings do not
    start = time.perf_counter()
    code, out, err = run(capsys, "casestudy", "--d", "1", "--n", "9")
    assert time.perf_counter() - start < 2
    assert code == 4 and out == ""
    assert "over 9! labelings; refusing (d=1, n=9)" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--d", "-1", "uniformity must be >= 1, got -1"),
        ("--d", "0", "uniformity must be >= 1, got 0"),
        ("--n", "-2", "vertex count must be >= 0, got -2"),
    ],
)
def test_casestudy_refuses_bad_sizes(capsys, flag, value, message):
    code, out, err = run(capsys, "casestudy", flag, value)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("d", [2, 4])
def test_casestudy_refuses_before_the_survey(capsys, d):
    # C(6, d) = 15 passes the class guard, but the complete d-graph has
    # more edges than linear_width takes; the refusal comes up front
    start = time.perf_counter()
    code, out, err = run(capsys, "casestudy", "--d", str(d), "--n", "6")
    assert time.perf_counter() - start < 2
    assert code == 4 and out == ""
    assert (
        f"complete {d}-graph on 6 vertices, 15 > {LINEAR_WIDTH_EDGE_LIMIT} "
        "edges" in err
    )


def test_verify(capsys):
    check_golden(
        capsys, "verify_taylor_2k2.txt", "verify", TAYLOR, "--confirm"
    )


def test_verify_block_dump(capsys, holder_calls):
    # copath(5)'s block complex, a dump of two-block cells that the
    # block route orients with the writer's signs
    X = cointerval.build_complex(read_hypergraph(COPATH5))
    assert write_complex_dump(X) == (GOLDEN / "input_copath5.dump").read_text()
    check_golden(
        capsys, "verify_copath5.txt", "verify", COPATH5_DUMP, "--confirm"
    )
    assert holder_calls["_holder_columns"] == 0


def test_verify_join_dump(capsys, holder_calls):
    # the glued resolution of 2K2, whose `-` slots send it down the
    # general route
    H = read_hypergraph(TWO_K2)
    glued, _ = glued_resolution(H, linear_width(H)[1])
    text = (GOLDEN / "input_join_2k2.dump").read_text()
    assert write_complex_dump(glued) == text
    check_golden(capsys, "verify_join_2k2.txt", "verify", JOIN, "--confirm")
    assert holder_calls["_holder_columns"] == 1


@pytest.mark.parametrize("field", ["3", "32003"])
def test_verify_fails_over_an_odd_prime(capsys, field):
    # the complex of a non-cointerval 2-graph: the lead matching leaves
    # 11 of its 38 degrees open, and elimination over the prime fails 8
    # of them, in homological degrees 0 and 1
    H = Hypergraph(2, range(1, 7), [
        (1, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 4), (3, 6), (5, 6)
    ])
    assert not H.is_cointerval()
    X = cointerval.build_complex(H)
    assert write_complex_dump(X) == pathlib.Path(NONCOINTERVAL).read_text()
    report = cointerval.verify_resolution(X, (cli._FIELDS[field], cointerval.QQ))
    assert report.eliminated == 11 and len(report.failures) == 8
    assert {f.degree for f in report.failures} == {0, 1}
    check_golden(
        capsys, f"verify_noncointerval_f{field}.txt",
        "verify", NONCOINTERVAL, "--field", field, "--confirm",
    )


def _wide_dump(path, width):
    """An edge whose ends are labeled 1..width - 1 and 2..width, and the
    edge labeled by all `width` vertices."""
    a = " ".join(map(str, range(1, width)))
    b = " ".join(map(str, range(2, width + 1)))
    ab = " ".join(map(str, range(1, width + 1)))
    path.write_text(f"0 | 1 | {a}\n0 | 2 | {b}\n1 | 1 2 | {ab}\n")
    return path


def test_verify_on_wide_labels_stays_linear(capsys, tmp_path):
    # an edge whose ends are labeled by VERTEX_LIMIT - 1 vertices each,
    # the widest labels a dump may have: every label is walked in time
    # linear in its width, so the lead certificate and the label readout
    # stay far inside the bound
    dump = _wide_dump(tmp_path / "wide.dump", VERTEX_LIMIT)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(dump), "--confirm")
    assert time.perf_counter() - start < 2.0
    assert (code, err) == (0, "")
    assert out == (
        "cells: 3\nresult: pass\n"
        "acyclic: pass (3 degrees checked, 0 empty, fields GF(2), Q)\n"
        "minimal: yes\n"
    )


# `verify` in a fresh interpreter that reports its peak RSS in kB on
# stderr: VmHWM, since Linux carries the high-water mark of the process
# that started it into ru_maxrss across exec
_VERIFY_RSS = (
    "import resource, sys\n"
    "from cointerval.cli import main\n"
    "code = main(['verify', sys.argv[1]])\n"
    "try:\n"
    "    with open('/proc/self/status') as status:\n"
    "        rss = int(status.read().split('VmHWM:')[1].split()[0])\n"
    "except OSError:\n"
    "    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "    rss //= 1024 if sys.platform == 'darwin' else 1\n"
    "print(f'rss_kb {rss}', file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_verify_refuses_dumps_past_the_vertex_budget(tmp_path):
    # without the budget these took 243 MB (40,000 one-vertex labels)
    # and 12 s and 486 MB (20,000 block values on the holder route) to
    # read; the wide labels are those that `verify` once accepted
    lines = {
        "labels.dump": "".join(f"0 | {i} | {i}\n" for i in range(40_000)),
        "values.dump": "".join(f"0 | {i} ; - | 1\n" for i in range(20_000))
        + "1 | 0 1 ; - | 1\n",
    }
    paths = [tmp_path / name for name in lines]
    for path in paths:
        path.write_text(lines[path.name])
    paths.append(_wide_dump(tmp_path / "wide.dump", 20_001))
    paths.append(_wide_dump(tmp_path / "wider.dump", 40_001))
    env = dict(os.environ)
    src = str(pathlib.Path(cointerval.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for path in paths:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _VERIFY_RSS, str(path)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert time.perf_counter() - start < 5.0, path.name
        assert proc.returncode == 4 and proc.stdout == "", path.name
        err, rss = proc.stderr.rsplit("rss_kb ", 1)
        what = "block values" if path.name == "values.dump" else (
            "label vertices"
        )
        assert err == (
            f"error: the dump has more than {VERTEX_LIMIT} distinct {what}\n"
        ), path.name
        # in kilobytes; a fresh interpreter holds about 20 MB
        assert int(rss) < 80_000, (path.name, rss)


def test_verify_refuses_dumps_past_the_width_budget(tmp_path):
    # 20,000 points with 99 one-value slots over VERTEX_LIMIT values
    # (11.6 MB): vertex-bit codes on the block route, or (slot, value)
    # pair bits on the holder route that a `-` slot sends it to, hold
    # cells x slots x values bits, and without the budget took 2.7-2.9 s
    # and about 173 MB peak RSS either way
    text = slotted_points(20_000, 99, VERTEX_LIMIT)
    dash = "0 | - ; " + " ; ".join(["1"] * 98) + " | 1\n"
    env = dict(os.environ)
    src = str(pathlib.Path(cointerval.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for name, dump in (("block.dump", text), ("dash.dump", dash + text)):
        path = tmp_path / name
        path.write_text(dump)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _VERIFY_RSS, str(path)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert time.perf_counter() - start < 1.0, name
        assert proc.returncode == 4 and proc.stdout == "", name
        err, rss = proc.stderr.rsplit("rss_kb ", 1)
        assert err == (
            "error: the dump's cells x block slots x distinct block values "
            f"come to more than {CELL_LIMIT * VERTEX_LIMIT}\n"
        ), name
        # in kilobytes; a fresh interpreter holds about 20 MB
        assert int(rss) < 80_000, (name, rss)


def test_verify_flags_mutilation(capsys, tmp_path):
    lines = (GOLDEN / "input_taylor_2k2.dump").read_text().splitlines()
    mutilated = tmp_path / "bad.dump"
    mutilated.write_text("\n".join(l for l in lines if not l.startswith("1 ")))
    code, out, _ = run(capsys, "verify", str(mutilated))
    assert code == 0  # the check itself ran; the verdict is in the report
    assert "result: FAIL" in out
    assert "failed at alpha = 1 2 3 4" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 4\nbogus line\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "line 2" in err
    bad.write_text("2 3\nvertices: 1 x 3\n")
    assert run(capsys, "check", str(bad)) == (
        2, "", "error: line 2: bad vertex label\n"
    )
    dump = tmp_path / "bad.dump"
    dump.write_text("0 | x | 1\n")
    assert run(capsys, "verify", str(dump)) == (
        2, "", "error: line 1: bad block 'x'\n"
    )


def test_check_without_labels_1_to_n_skips_strong_stability(
    capsys, tmp_path
):
    even = tmp_path / "even.txt"
    even.write_text("2 3\nvertices: 2 4 6\n2 4\n")
    assert run(capsys, "check", str(even)) == (
        0,
        "cointerval: yes (given labels)\n"
        "strongly-stable: n/a (vertex labels are not 1..n)\n",
        "",
    )


def test_missing_file_exit_code(capsys):
    code, _, _ = run(capsys, "check", "/nonexistent/input.txt")
    assert code == 2


def test_undecodable_hypergraph_exit_code(capsys, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"2 4\n1 2\n3 4 # caf\xe9\n")
    for command in ("check", "resolve"):
        code, out, err = run(capsys, command, str(bad))
        assert code == 2 and out == ""
        assert "codec can't decode" in err


def test_undecodable_dump_exit_code(capsys, tmp_path):
    bad = tmp_path / "latin1.dump"
    bad.write_bytes(pathlib.Path(TAYLOR).read_bytes() + b"# caf\xe9\n")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2 and out == ""
    assert "codec can't decode" in err


def test_dump_parser_cell_budget(capsys, monkeypatch):
    # the Taylor dump has 3 cells
    monkeypatch.setattr(complexes, "CELL_LIMIT", 3)
    code, _, _ = run(capsys, "verify", TAYLOR)
    assert code == 0
    monkeypatch.setattr(complexes, "CELL_LIMIT", 2)
    code, out, err = run(capsys, "verify", TAYLOR)
    assert code == 4 and out == ""
    assert "the dump has more than 2 cells" in err


def test_dump_dimension_budget(capsys, tmp_path):
    # a d-cell needs d + 1 cells, so the dimension alone is refused,
    # before a level is laid out per dimension
    huge = tmp_path / "huge.dump"
    huge.write_text(f"0 | 1 | 1\n{CELL_LIMIT} | 1 2 | 1 2\n")
    code, out, err = run(capsys, "verify", str(huge))
    assert code == 4 and out == ""
    assert f"dimension {CELL_LIMIT} needs more than {CELL_LIMIT} cells" in err
    huge.write_text(f"0 | 1 | 1\n{CELL_LIMIT - 1} | 1 2 | 1 2\n")
    code, out, err = run(capsys, "verify", str(huge))
    assert code == 2 and out == ""
    assert "has no faces" in err


@pytest.mark.parametrize("k", [17, 30])
def test_lcm_lattice_budget(capsys, tmp_path, k):
    # k one-vertex cells with disjoint labels close to 2^k - 1 unions;
    # the closure stops once it holds more than CELL_LIMIT = 100,000
    dump = tmp_path / "points.dump"
    dump.write_text("".join(f"0 | {v} | {v}\n" for v in range(1, k + 1)))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(dump))
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert f"the lcm lattice has more than {CELL_LIMIT} elements" in err


def test_seed_accepted_everywhere(capsys):
    code1, out1, _ = run(capsys, "--seed", "7", "check", COPATH5)
    code2, out2, _ = run(capsys, "check", COPATH5, "--seed", "99")
    assert code1 == code2 == 0
    assert out1 == out2


def test_outputs_are_deterministic(capsys):
    _, first, _ = run(capsys, "decompose", TWO_K2)
    _, second, _ = run(capsys, "decompose", TWO_K2)
    assert first == second


def _fresh_run(*argv, timeout=10):
    """The CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ)
    src = str(pathlib.Path(cointerval.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cointerval.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _check_in_subprocess(path):
    """`check --find-labeling` in a fresh interpreter, 10 s to finish."""
    code, out, err = _fresh_run("check", path, "--find-labeling")
    assert code == 0, err
    return out


def test_repeated_main_calls_match_fresh_runs(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 4\nbogus line\n")
    calls = [
        ("resolve", COPATH5, "--confirm"),
        ("resolve", COPATH5),  # no --confirm carried over
        ("--seed", "3", "check", TWO_K2, "--find-labeling"),
        ("check", TWO_K2),
        ("betti", COPATH5, "--method=all", "--field=q"),
        ("betti", TWO_K2),
        ("verify", TAYLOR, "--field", "3", "--confirm"),
        ("resolve", TWO_K2),  # exit 3
        ("casestudy", "--d", "2", "--n", "9"),  # exit 4
        ("check", str(bad)),  # exit 2
        ("casestudy", "--d", "2", "--n", "4", "--seed", "1"),
        ("resolve", COPATH5, "--confirm"),
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    assert {code for code, _out, _err in in_process} == {0, 2, 3, 4}
    for argv, got in zip(calls, in_process):
        assert got == _fresh_run(*argv), argv


def _seeded_edges(n, p):
    """The pairs of 1..n drawn at probability p from random.Random(7)."""
    rng = random.Random(7)
    return [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if rng.random() < p
    ]


def test_dense_two_graph_no_is_answered_without_search(tmp_path):
    # a dense random 2-graph on 14 vertices on which the exhaustive
    # labeling search once passed 100,000 placements without an answer;
    # its complement is not an interval graph, so no placement is made
    path = tmp_path / "dense14.txt"
    path.write_text(
        "2 14\n" + "".join(f"{i} {j}\n" for i, j in _seeded_edges(14, 0.85))
    )
    start = time.perf_counter()
    code, out, err = _fresh_run("check", path, "--find-labeling")
    assert time.perf_counter() - start < 5.0
    assert code == 0, err
    assert out == (
        "cointerval: no (all 87178291200 labelings)\n"
        "strongly-stable: no (all 87178291200 labelings)\n"
    )


def test_cointerval_labeling_search_is_budgeted(tmp_path):
    # the 3-graph of cones {0} + e over a seeded 2-graph on 1..10: the
    # labeling search passes the placement budget without an answer
    edges = _seeded_edges(10, 0.8)
    path = tmp_path / "cone10.txt"
    path.write_text(
        "3 11\nvertices: " + " ".join(map(str, range(11))) + "\n"
        + "".join(f"0 {i} {j}\n" for i, j in edges)
    )
    start = time.perf_counter()
    code, out, err = _fresh_run("check", path, "--find-labeling")
    assert time.perf_counter() - start < 5.0
    assert code == 4 and out == ""
    assert f"more than {COINTERVAL_PLACEMENT_LIMIT} placements" in err


def test_find_labeling_perfect_matching_is_bounded(tmp_path):
    matching = tmp_path / "matching10.txt"
    matching.write_text(
        "2 10\n" + "".join(f"{2 * i + 1} {2 * i + 2}\n" for i in range(5))
    )
    out = _check_in_subprocess(matching)
    assert "strongly-stable: no (all 3628800 labelings)" in out.splitlines()


def test_find_labeling_shuffled_borel_is_bounded(tmp_path):
    # Borel closure on 1..12 of two triples, under a shuffled labeling
    stack, seen = [(3, 7, 12), (5, 9, 11)], set()
    while stack:
        e = stack.pop()
        if e not in seen:
            seen.add(e)
            for i in e:
                if i > 1 and i - 1 not in e:
                    stack.append(tuple(sorted(set(e) - {i} | {i - 1})))
    perm = list(range(1, 13))
    random.Random(7).shuffle(perm)
    H = Hypergraph(3, range(1, 13), seen).relabel(dict(zip(range(1, 13), perm)))
    path = tmp_path / "borel12.txt"
    path.write_text(
        "3 12\n" + "".join(" ".join(map(str, e)) + "\n" for e in H.edge_list())
    )
    assert not H.is_strongly_stable()
    out = _check_in_subprocess(path)
    line = [l for l in out.splitlines() if l.startswith("strongly-stable")][0]
    prefix = "strongly-stable: yes (labeling: "
    assert line.startswith(prefix), line
    labels = map(int, line[len(prefix):-1].split())
    G = parse_hypergraph(path.read_text())
    assert G.relabel(dict(zip(G.vertices, labels))).is_strongly_stable()


def test_betti_hochster_budget(capsys, tmp_path):
    # the complement of a path is cointerval as labeled, so `all` passes
    # its precondition and reaches the guard
    path = tmp_path / "copath20.txt"
    path.write_text(
        "2 20\n"
        + "".join(
            f"{i} {j}\n" for i in range(1, 21) for j in range(i + 2, 21)
        )
    )
    for method in ("hochster", "all"):
        start = time.perf_counter()
        code, out, err = run(capsys, "betti", str(path), "--method", method)
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == ""
        assert f"refusing 20 > {HOCHSTER_VERTEX_LIMIT} vertices" in err


def test_parser_refuses_huge_vertex_count(capsys, tmp_path):
    # building range(1, n + 1) into a set used to hang on this header
    path = tmp_path / "huge.txt"
    path.write_text("2 99999999999\n1 2\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 4 and out == ""
    assert f"refusing 99999999999 > {VERTEX_LIMIT} vertices" in err


def test_find_labeling_on_many_vertices_is_refused(capsys, tmp_path):
    # the labeling search recursed once per vertex and ended in a
    # RecursionError traceback; n! also passed str()'s digit limit
    path = tmp_path / "matching2000.txt"
    path.write_text("2 2000\n1 2\n3 4\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path), "--find-labeling")
    assert time.perf_counter() - start < 2.0
    assert code == 4 and out == ""
    assert f"refusing 2000 > {VERTEX_LIMIT} vertices" in err


def test_block_complex_cell_budget(tmp_path):
    # the complete 2-graph on 24 vertices is cointerval, and its complex
    # has far more than CELL_LIMIT cells
    path = tmp_path / "k24.txt"
    path.write_text("2 24\n" + "".join(
        f"{i} {j}\n" for i in range(1, 25) for j in range(i + 1, 25)
    ))
    code, out, err = _fresh_run("resolve", path, timeout=5)
    assert code == 4 and out == ""
    assert f"more than {CELL_LIMIT} cells" in err
    code, out, err = _fresh_run("embed", path, timeout=5)
    assert code == 4 and out == ""
    assert f"more than {CELL_LIMIT} faces" in err


def test_deep_uniformity_runs_without_recursion_error(tmp_path):
    # layer nesting, block growth and the labeling search each go d
    # layers deep; at d = 500 recursion once ended in a RecursionError
    # traceback (from about d = 340)
    one = tmp_path / "one_edge500.txt"
    one.write_text("500 500\n" + " ".join(map(str, range(1, 501))) + "\n")
    two = tmp_path / "two_edges499.txt"
    two.write_text("499 500\n" + "".join(
        " ".join(map(str, range(lo, lo + 499))) + "\n" for lo in (1, 2)
    ))
    runs = [
        (0, "resolve", one), (0, "check", one),
        (0, "betti", one, "--method", "faces"), (0, "decompose", one),
        (0, "check", two, "--find-labeling"), (0, "decompose", two),
        (3, "resolve", two),
    ]
    for want, *argv in runs:
        code, out, err = _fresh_run(*argv)
        assert "Traceback" not in err, (argv, err)
        assert code == want, (argv, err)
        assert out or code, argv
