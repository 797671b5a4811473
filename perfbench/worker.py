"""Timed phase of one benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json RESULT.json --seconds S --trace 0|1

One closed-loop client: the ops of the plan run one after another, in
process, through `cointerval.cli.main(argv)`, each op starting when the
last returned.  The loop makes whole passes over the plan, at least one,
and stops when the next pass would end after S seconds.  Only the
`main` call is timed; each output is checked right after, outside the
timed region.  Between ops the loop also times calibrate.py's fixed
reference computation and reports op latencies scaled to the reference
machine speed; the raw latencies go into the result as well.

With --trace 1 the loop covers the plan's traced subset (the ops marked
`trace`, about half of them, so the doubled work fits the same time):
every op runs untraced and then under the tracer, so both see the same
machine state.  Per-layer figures are totals over the traced runs
divided by the number of passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

import calibrate
import checks
import tracer as tracing



class DeadlineExceeded(BaseException):
    """Raised in the op when its deadline passes (not an `Exception`, so
    no handler inside the program can swallow it)."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def execute(main, op):
    """Run one op; return (seconds, exit code or failure text, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    elapsed = float(op["deadline_s"])
    signal.setitimer(signal.ITIMER_REAL, op["deadline_s"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(op["argv"])
            finally:
                elapsed = time.perf_counter() - start
    except DeadlineExceeded:
        code = f"deadline of {op['deadline_s']} s exceeded"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed op, not a crash
        code = f"exception {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, code, out.getvalue(), err.getvalue()


class Loop:
    """Closed-loop client over the plan's ops, with per-op checking."""

    def __init__(self, ops, cli_module):
        self.ops = ops
        self.cli = cli_module
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_op(self, op):
        elapsed, code, out, err = execute(self.cli.main, op)
        self.attempted += 1
        if isinstance(code, str):
            why = code
        else:
            why = checks.check(op, code, out, err)
        if why is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"op {op['id']} {op['argv'][:2]}: {why}")
        return elapsed


def _passes(seconds, one_pass):
    """Call one_pass() until the next call would end after `seconds`."""
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return passes


def run_untraced(loop, seconds, workload):
    """Latencies scaled to the reference machine speed (calibrate.py)."""
    cal = calibrate.Calibration(workload)
    cal.sample()
    runs = []  # (pass, start stamp, raw seconds)

    def one_pass():
        number = len(runs) // len(loop.ops)
        for op in loop.ops:
            stamp = time.perf_counter()
            raw = loop.run_op(op)
            runs.append((number, stamp, raw))
            cal.after_op(raw)

    passes = _passes(seconds, one_pass)
    cal.sample()
    latencies = [raw * cal.scale(stamp, raw) for _p, stamp, raw in runs]
    pass_times = [
        sum(t for (p, _s, _r), t in zip(runs, latencies) if p == number)
        for number in range(passes)
    ]
    return {
        "latencies": latencies,
        "pass_times": pass_times,
        "passes": passes,
        "raw_latencies": [raw for _p, _s, raw in runs],
        "calibration_s": cal.times,
    }


def run_traced(loop, seconds, tracer):
    ops = [op for op in loop.ops if op["trace"]]
    totals = {"plain": 0.0, "traced": 0.0}

    def one_pass():
        for op in ops:
            totals["plain"] += loop.run_op(op)
            with tracer:
                try:
                    totals["traced"] += loop.run_op(op)
                finally:
                    tracer.reset_stack()

    passes = _passes(seconds, one_pass)
    return {
        "passes": passes,
        "overhead_frac": totals["traced"] / totals["plain"] - 1.0,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("plan")
    p.add_argument("result")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    os.environ["THREADS"] = "1"
    signal.signal(signal.SIGALRM, _on_alarm)
    from cointerval import cli

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    loop = Loop(plan["ops"], cli)
    result = {}
    if args.trace:
        tracer = tracing.Tracer()
        run = run_traced(loop, args.seconds, tracer)
        result["per_layer"] = tracer.metrics(run["passes"], run["overhead_frac"])
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.span_id)
        if args.spans:
            tracer.write_spans(
                args.spans, f"workload={plan['workload']} seed={plan['seed']}"
            )
    else:
        run = run_untraced(loop, args.seconds, plan["workload"])
        for key in ("latencies", "pass_times", "raw_latencies", "calibration_s"):
            result[key] = run[key]
    result["passes"] = run["passes"]
    result["attempted"] = loop.attempted
    result["failed"] = loop.failed
    result["failures"] = loop.failures
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
