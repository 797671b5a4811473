"""The generators are deterministic per seed and their inputs are what they
claim; the checks catch wrong answers."""

import contextlib
import io
import json
import random
import signal
from pathlib import Path

import pytest

import checks
import corpus
import worker
from cointerval import (
    ParseError,
    build_complex,
    find_cointerval_labeling,
    find_strongly_stable_labeling,
    parse_complex_dump,
    parse_hypergraph,
)
from cointerval import cli

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    """Run at the checkout root, with the worker's deadline handler."""
    monkeypatch.chdir(ROOT)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _snapshot(plan):
    """Plan ops and input bytes with the work directory factored out."""
    prefix = str(plan.workdir)
    ops = json.dumps(plan.ops).replace(prefix, "<work>")
    files = {
        Path(p).name: Path(p).read_bytes() for p in sorted(plan.inputs)
    }
    return ops, files


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path):
    a = corpus.build(workload, 7, tmp_path / "a")
    b = corpus.build(workload, 7, tmp_path / "b")
    c = corpus.build(workload, 8, tmp_path / "c")
    assert _snapshot(a) == _snapshot(b)
    assert _snapshot(a)[1] != _snapshot(c)[1]


def test_constructions_hold():
    rng = random.Random(0)
    for _ in range(60):
        g = corpus.interval_complement(rng, rng.randrange(5, 10))
        assert corpus._hypergraph(g).is_cointerval()
        b = corpus.borel_closure(rng, rng.randrange(5, 9))
        hb = corpus._hypergraph(b)
        assert hb.is_strongly_stable() and hb.is_cointerval()
        p, quad = corpus.planted_2k2(rng, 7, rng.random())
        assert corpus.has_induced_2k2(p, quad)
        assert len(p.support()) == 7
        assert find_cointerval_labeling(corpus._hypergraph(p)) is None
        s = corpus.shuffled(rng, g)
        assert len(s.edges) == len(g.edges)


def _graph(path):
    return parse_hypergraph(Path(path).read_text())


def test_resolve_inputs_are_what_they_claim(tmp_path):
    plan = corpus.build("resolve", 11, tmp_path)
    kinds = [op["kind"] for op in plan.ops]
    assert kinds.count("reject") == 4 and kinds.count("golden") == 1
    for op in plan.ops:
        if op["kind"] == "resolve":
            H = _graph(op["argv"][1])
            assert H.is_cointerval()
            assert list(build_complex(H).f_vector()) == op["expect"]["f_vector"]
        elif op["kind"] == "reject":
            assert not _graph(op["argv"][1]).is_cointerval()


def test_verify_dumps_are_what_they_claim(tmp_path):
    plan = corpus.build("verify-dump", 11, tmp_path)
    results = [op["expect"].get("result") for op in plan.ops]
    assert results.count("FAIL") >= 1 and results.count("pass") >= 10
    malformed = [op for op in plan.ops if op["kind"] == "reject"]
    assert len(malformed) >= 2
    for op in malformed:
        with pytest.raises(ParseError):
            parse_complex_dump(Path(op["argv"][1]).read_text())


def test_survey_verdicts_known_by_construction_hold(tmp_path):
    plan = corpus.build("survey", 11, tmp_path)
    checked = [op for op in plan.ops if op["kind"] == "check"][::4]
    assert len(checked) >= 20
    for op in checked:
        exp = op["expect"]
        H = _graph(op["argv"][1])
        if exp["cointerval"] is not None:
            assert (find_cointerval_labeling(H) is not None) == exp["cointerval"]
        if exp["ss"] is not None:
            found = find_strongly_stable_labeling(H) is not None
            assert found == exp["ss"]


def _outputs(ops):
    """(op, code, stdout, stderr) of every op, run for real."""
    out = []
    for op in ops:
        _t, code, stdout, stderr = worker.execute(cli.main, op)
        out.append((op, code, stdout, stderr))
    return out


def _corrupt(op, out):
    """A plausible wrong answer for the op."""
    kind = op["kind"]
    if kind == "resolve":
        return out.replace("minimal: yes", "minimal: no")
    if kind == "verify":
        flip = {"pass": "FAIL", "FAIL": "pass"}[op["expect"]["result"]]
        return out.replace(f"result: {op['expect']['result']}", f"result: {flip}")
    if kind == "check":
        if "cointerval: yes" in out:
            return out.replace("cointerval: yes", "cointerval: no")
        return out.replace("cointerval: no", "cointerval: yes (given labels)")
    if kind == "betti":
        return out.replace("AGREE", "DISAGREE")
    if kind == "decompose":
        return out.replace("width: ", "width: 1", 1)
    if kind == "casestudy":
        return out.replace("counts: 34", "counts: 35")
    return out + " "


def _sample(ops, per_kind=3):
    """The first few ops of each kind, leaving out the long ones."""
    seen = {}
    out = []
    for op in ops:
        if op["kind"] == "casestudy" or "copath" in op["argv"][1]:
            continue
        if seen.setdefault(op["kind"], 0) < per_kind:
            seen[op["kind"]] += 1
            out.append(op)
    return out


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_checks_pass_right_answers_and_catch_wrong_ones(workload, tmp_path):
    plan = corpus.build(workload, 5, tmp_path)
    for op, code, out, err in _outputs(_sample(plan.ops)):
        assert checks.check(op, code, out, err) is None, op["argv"]
        if op["kind"] == "embed":
            geom = Path(op["expect"]["out"])
            lines = geom.read_text().splitlines()
            geom.write_text("\n".join(lines[:-1]) + "\n")
            assert checks.check(op, code, out, err) is not None
            continue
        if op["kind"] == "reject":
            assert checks.check(op, 0, "result: pass\n", "") is not None
            continue
        assert checks.check(op, code, _corrupt(op, out), err) is not None, op


def test_corrupted_output_raises_failed_count(tmp_path):
    plan = corpus.build("verify-dump", 3, tmp_path)
    ops = _sample(plan.ops, per_kind=2)

    class Corrupting:
        @staticmethod
        def main(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            print(buf.getvalue().replace("result: pass", "result: FAIL"), end="")
            return code

    honest = worker.Loop(ops, cli)
    for op in ops:
        honest.run_op(op)
    assert honest.failed == 0
    lying = worker.Loop(ops, Corrupting)
    for op in ops:
        lying.run_op(op)
    assert lying.failed > 0


def test_deadline_counts_as_failure():
    op = {
        "id": 0, "kind": "casestudy", "deadline_s": 0.05,
        "argv": ["casestudy", "--d", "3", "--n", "5"],
        "expect": {"counts": [34, 26, 16, 10]},
    }
    loop = worker.Loop([op], cli)
    elapsed = loop.run_op(op)
    assert loop.failed == 1 and "deadline" in loop.failures[0]
    assert elapsed < 5
