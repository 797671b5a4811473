"""Machine-speed calibration for the timed phase.

On a machine whose cores are shared with other tenants (small cloud
VMs), the speed of pure-Python code drifts by 20-50 % within a minute.
To keep the end-to-end times comparable across runs, the worker times a
fixed reference computation between ops (after every CALIBRATE_EVERY
reference times of op work) and scales each op's latency by
REFERENCE_S / (mean reference time around the op): times
are reported in seconds at the machine speed where one reference
computation takes REFERENCE_S.

The reference computation runs the same kinds of code as the workload
(so it slows down the way the ops do), on fixed inputs, through the
frozen copy of the package in frozen/cointerval_seed.  That copy does
not change when the program does, so a faster program shows as a
faster normalized time.
"""

from __future__ import annotations

import bisect
import statistics
import time

from frozen.cointerval_seed import casestudy, dumpio, hypergraph, resolution
from frozen.cointerval_seed.complexes import build_complex
from frozen.cointerval_seed.homology import GF2, GF32003, QQ

# Reference time of each workload's computation (roughly its time on a
# 2-vCPU cloud VM); only a scale, fixed once.
REFERENCE_S = {"resolve": 0.031, "verify-dump": 0.079, "survey": 0.061}


def _copath(n):
    return hypergraph.Hypergraph(
        2, range(1, n + 1),
        [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)],
    )


_DUMP7 = dumpio.write_complex_dump(build_complex(_copath(7)))


def _resolve():
    H = _copath(7)
    resolution.verify_resolution(build_complex(H), fields=(GF2,))
    resolution.betti_from_faces(H)


def _verify_dump():
    X = dumpio.parse_complex_dump(_DUMP7)
    resolution.verify_resolution(X, fields=(GF32003, QQ))


def _survey():
    casestudy.classify_all(2, 4)


WORK = {"resolve": _resolve, "verify-dump": _verify_dump, "survey": _survey}
CALIBRATE_EVERY = 8
WINDOW_S = 3.0


def measure(workload):
    """Seconds the workload's reference computation takes now."""
    start = time.perf_counter()
    WORK[workload]()
    return time.perf_counter() - start


class Calibration:
    """Reference timings taken during a run, and op scaling from them."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = REFERENCE_S[workload]
        self.stamps = []
        self.times = []
        self._owed = 0.0

    def sample(self):
        self.stamps.append(time.perf_counter())
        self.times.append(measure(self.workload))
        self._owed = 0.0

    def after_op(self, seconds):
        """Count an op's time; take a sample once enough op work ran."""
        self._owed += seconds
        if self._owed >= CALIBRATE_EVERY * self.times[-1]:
            self.sample()

    def scale(self, start, seconds):
        """REFERENCE_S over the mean reference time while an op ran.

        Averages the samples from WINDOW_S before the op started to
        WINDOW_S after it ended (the sample taken right after a long op
        falls in that span).
        """
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, start + seconds + WINDOW_S)
        if lo == hi:  # no sample in the window: take the nearest one
            i = min(bisect.bisect_left(self.stamps, start), len(self.stamps) - 1)
            lo, hi = i, i + 1
        return self.reference / statistics.fmean(self.times[lo:hi])
