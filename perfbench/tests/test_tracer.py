"""Every named span fires on tiny inputs; missing names do not crash."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import corpus
import run
import tracer as tracing
from cointerval import cli, homology, resolution

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"


def _tiny_ops(tmp_path):
    copath5 = str(GOLDEN / "input_copath5.txt")
    two_k2 = str(GOLDEN / "input_2k2.txt")
    dump = str(GOLDEN / "input_taylor_2k2.dump")
    return [
        ["resolve", copath5, "--confirm"],
        ["verify", dump, "--field", "32003", "--confirm"],
        ["check", two_k2, "--find-labeling"],
        ["embed", copath5, "--out", str(tmp_path / "g.txt")],
        ["betti", copath5, "--method", "all"],
        ["decompose", two_k2],
        ["casestudy", "--d", "2", "--n", "4"],
    ]


def _run_traced(t, argvs):
    with t, contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) == 0, argv


def test_every_named_span_fires(tmp_path):
    t = tracing.Tracer()
    _run_traced(t, _tiny_ops(tmp_path))
    assert t.absent == []
    for _module, _path, kind, layer, _after in tracing.TARGETS:
        names = ("kernels.rank_gf2", "kernels.rank_modp") if callable(layer) \
            else (layer,)
        key = ".yielded" if kind == "yield" else ".calls"
        for name in names:
            assert t.stats[name + key] > 0, name
    metrics = t.metrics(passes=1, overhead_frac=0.0)
    assert [m for m in metrics] == [name for name, _unit in tracing.METRICS]
    for name, m in metrics.items():
        if name.endswith((".calls", ".self_s", ".cells", ".yielded")):
            assert m["value"] > 0, name
    # spans carry ids and parents; every non-root parent is a known span
    ids = set(t.span_id)
    assert all(p == 0 or p in ids for p in t.span_parent)
    roots = [i for i, p in zip(t.span_layer, t.span_parent) if p == 0]
    assert {t.layers[i] for i in roots} == {"cli.main"}


def test_wrappers_are_removed_on_exit(tmp_path):
    originals = (cli.main, homology.boundary_matrices,
                 resolution.boundary_matrices, homology.ChainComplex.homology_ranks)
    t = tracing.Tracer()
    with t:
        assert resolution.boundary_matrices is not originals[2]
        assert resolution.boundary_matrices is homology.boundary_matrices
    assert (cli.main, homology.boundary_matrices, resolution.boundary_matrices,
            homology.ChainComplex.homology_ranks) == originals


def test_missing_names_are_reported_absent(tmp_path):
    targets = tracing.TARGETS + (
        ("homology", "_gone_after_refactor", "span", "homology.gone", None),
        ("no_such_module", "f", "count", "x.f", None),
        ("complexes", "NoSuchClass.method", "span", "complexes.nope", None),
    )
    t = tracing.Tracer(targets)
    _run_traced(t, _tiny_ops(tmp_path)[:1])
    assert t.absent == [
        "homology._gone_after_refactor", "no_such_module.f",
        "complexes.NoSuchClass.method",
    ]
    assert t.metrics(1, 0.0)["cli.main.self_s"]["value"] > 0


def test_spans_are_written(tmp_path):
    t = tracing.Tracer()
    _run_traced(t, _tiny_ops(tmp_path)[:1])
    path = tmp_path / "spans.tsv"
    t.write_spans(path, "test")
    rows = path.read_text().splitlines()
    assert rows[2] == "id\tparent\tlayer\tstart_s\tend_s"
    assert len(rows) == 3 + len(t.span_id)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.METRICS
    )
    result = {"latencies": [0.01 * i for i in range(1, 30)],
              "pass_times": [1.0, 1.1], "peak_rss_mb": 20.0}
    e2e = run.end_to_end(result, 0.05)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, m["unit"]) for name, m in e2e.items()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "resolve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
