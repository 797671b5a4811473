import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import cointerval
from cointerval import Hypergraph, complexes, parse_hypergraph
from cointerval.cli import main
from cointerval.complexes import CELL_LIMIT
from cointerval.covers import LINEAR_WIDTH_EDGE_LIMIT
from cointerval.hypergraph import COINTERVAL_PLACEMENT_LIMIT, VERTEX_LIMIT
from cointerval.resolution import HOCHSTER_VERTEX_LIMIT

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
TAYLOR = str(GOLDEN / "input_taylor_2k2.dump")


def test_check(capsys):
    check_golden(capsys, "check_copath5.txt", "check", COPATH5)


def test_check_find_labeling(capsys):
    check_golden(
        capsys, "check_2k2_find.txt", "check", TWO_K2, "--find-labeling"
    )


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


def test_decompose(capsys):
    check_golden(capsys, "decompose_2k2.txt", "decompose", TWO_K2)


def test_casestudy(capsys):
    check_golden(capsys, "casestudy_2_4.txt", "casestudy", "--d", "2", "--n", "4")


def test_casestudy_guard(capsys):
    code, _, err = run(capsys, "casestudy", "--d", "2", "--n", "9")
    assert code == 4 and "refusing" in err


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


def test_cointerval_labeling_search_is_budgeted(tmp_path):
    # a dense random 2-graph on 14 vertices on which the labeling search
    # passes 100,000 placements without an answer
    rng = random.Random(7)
    edges = [
        (i, j) for i in range(1, 15) for j in range(i + 1, 15)
        if rng.random() < 0.85
    ]
    path = tmp_path / "dense14.txt"
    path.write_text("2 14\n" + "".join(f"{i} {j}\n" for i, j in edges))
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
