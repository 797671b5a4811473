"""Benchmark of the `cointerval` CLI: one run of a workload.

    python3 perfbench/run.py --workload resolve|verify-dump|survey|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`; nothing is installed or compiled).  The run:

1. builds the workload's inputs from --seed and computes every expected
   answer (corpus.py); none of this is timed;
2. runs the timed phase in a fresh worker process (worker.py), pinned
   to THREADS=1, checking every output;
3. measures set-up: SETUP_PROBES fresh interpreters, half before and
   half after the timed phase, each import `cointerval` and read all
   inputs; the median time from process start until one is ready to
   run its first op is scaled like the op times, by the median time of
   the same probe importing the frozen copy of the package
   (SETUP_REFERENCE_S / that median);
4. prints the run environment, a summary with every end-to-end metric,
   and as the last line one JSON object: with --trace 0 the end-to-end
   metrics, with --trace 1 the per-layer ones (spans are written to
   perfbench/out/).

End-to-end metrics (times scaled to the reference machine speed, see
calibrate.py and step 3; the summary also prints them unscaled):
  wall_s       median over passes of one pass's summed op time
  op_p50_ms    median op latency over every op run
  op_p90_ms    90th percentile op latency (>= 10 samples lie above it)
  setup_s      see step 3
  peak_rss_mb  ru_maxrss of the worker process
  failed_frac  failed / attempted (printed in the summary; it is the
               result's `failed` over `attempted`)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s

# A fresh interpreter that imports a package and reads every input,
# then says it is ready for its first op.
PROBE = (
    "import json, sys\n"
    "import {package}\n"
    "plan = json.load(open(sys.argv[1], encoding='utf-8'))\n"
    "for path in plan['inputs']:\n"
    "    open(path, 'rb').read()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)
PROGRAM_PROBE = PROBE.format(package="cointerval")
# The same with the frozen copy of the package (frozen/cointerval_seed),
# which does not change with the program: its time tracks how fast the
# machine starts interpreters and imports right now.
REFERENCE_PROBE = PROBE.format(
    package="frozen.cointerval_seed.casestudy, frozen.cointerval_seed.dumpio"
)
SETUP_REFERENCE_S = 0.12


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["THREADS"] = "1"
    return env


def _probe(code, plan_path, env):
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, plan_path], stdout=subprocess.PIPE, env=env,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=30)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed to import its package")
    return elapsed


def measure_setup(plan_path, env, probes):
    """Alternating (program, reference) probe times, `probes` of each."""
    program, reference = [], []
    for _ in range(probes):
        program.append(_probe(PROGRAM_PROBE, plan_path, env))
        reference.append(_probe(REFERENCE_PROBE, plan_path, env))
    return program, reference


def run_worker(root, env, plan_path, result_path, workload, args, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"), plan_path, result_path,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{workload}.tsv")]
    proc = subprocess.Popen(cmd, env=env, cwd=root)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker overran the run's time limit") from None
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def environment(root):
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    from cointerval import _kernels

    backend = getattr(_kernels, "backend_name", None)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": backend() if callable(backend) else "absent",
        "COINTERVAL_PURE": os.environ.get("COINTERVAL_PURE", ""),
        "THREADS": "1",
    }


def latency_metrics(latencies, pass_times):
    return {
        "wall_s": {"value": statistics.median(pass_times), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_p90_ms": {
            "value": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "unit": "ms",
        },
    }


def end_to_end(result, setup_s):
    metrics = latency_metrics(result["latencies"], result["pass_times"])
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    return metrics


def run_one(workload, args, root, deadline):
    """Run one workload; print its report; return the exit code."""
    env = _env(root)
    work = HERE / ".work" / f"{workload}-{args.seed}-{os.getpid()}"
    try:
        plan = corpus.build(workload, args.seed, work)
        plan_path = plan.save()
        program, reference = measure_setup(plan_path, env, SETUP_PROBES // 2)
        result = run_worker(
            root, env, plan_path, str(work / "result.json"),
            workload, args, deadline,
        )
        more = measure_setup(plan_path, env, SETUP_PROBES // 2)
        program += more[0]
        reference += more[1]
        setup_raw = statistics.median(program)
        setup_s = setup_raw * SETUP_REFERENCE_S / statistics.median(reference)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    print("env: " + json.dumps(environment(root), sort_keys=True))
    for why in result["failures"]:
        print(f"FAILED {why}")
    if args.trace:
        metrics = result["per_layer"]
        print(f"trace: {result['passes']} traced passes, {result['spans']} spans,"
              f" absent: {result['absent'] or 'none'}")
    else:
        metrics = end_to_end(result, setup_s)
        print(f"{workload}: {len(plan.ops)} ops/pass, {result['passes']} passes, "
              f"{len(result['latencies'])} latency samples")
        raw = result["raw_latencies"]
        per_pass = len(raw) // result["passes"]
        unscaled = latency_metrics(raw, [
            sum(raw[i:i + per_pass]) for i in range(0, len(raw), per_pass)
        ])
        for name, m in metrics.items():
            extra = ""
            if name in unscaled:
                extra = f"  (unscaled {unscaled[name]['value']:.6g})"
            elif name == "setup_s":
                extra = f"  (unscaled {setup_raw:.6g})"
            print(f"  {name} = {m['value']:.6g} {m['unit']}{extra}")
        print(f"  failed_frac = {failed / attempted:.6g} fraction")
        cal = result["calibration_s"]
        print(f"  calibration: {len(cal)} samples, median "
              f"{statistics.median(cal) * 1e3:.3g} ms")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=corpus.WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cointerval" / "__init__.py").is_file():
        print("error: run from a cointerval source checkout "
              "(src/cointerval not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for workload in workloads:
        deadline = time.monotonic() + RUN_LIMIT_S
        code = max(code, run_one(workload, args, root, deadline))
    return code


if __name__ == "__main__":
    sys.exit(main())
