"""Contention adjustment: a fixed reference kernel times the machine.

The reference machine shares its cores with other tenants.  That
contention slows every instruction, by up to 2x and for tens of seconds
at a time, so wall times of identical passes differ by +-20% between
runs.  Every untraced run therefore interleaves this kernel with the
workload (every ``REF_EVERY`` points, outside the points' own timings)
and reports each time as

    measured time x REF_NOMINAL_NS / (the kernel's median time nearby),

i.e. in seconds of a machine that runs the kernel at REF_NOMINAL_NS.  The
kernel is a frozen mix like one grid point's work (a 64x64 dense solve,
8x8 eigenvalues, closed-form 3x3 determinants in Python floats) and uses
no optocorr code, so a change to optocorr cannot move it.
"""

from __future__ import annotations

import bisect
import math
import statistics
from array import array
from time import perf_counter_ns

import numpy as np

# the kernel's time in a tight loop on the 2-core reference machine (p5)
REF_NOMINAL_NS = 320_000
# points or drive ops between two kernel runs
REF_EVERY = 25
# kernel runs within this distance of an operation set its adjustment
WINDOW_NS = 100_000_000

_M = np.random.default_rng(20241009).normal(size=(8, 8)) - 4.0 * np.eye(8)
_I8 = np.eye(8)
_B = np.ones(64)
_IDX = np.ix_([0, 1, 2], [0, 1, 2])


def _det3(m) -> float:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def kernel() -> float:
    s = 0.0
    for _ in range(2):
        v = np.linalg.solve(np.kron(_I8, _M) + np.kron(_M, _I8), _B).reshape(8, 8)
        s += float(np.max(np.linalg.eigvals(_M).real))
        for _ in range(10):
            m = [[float(x) for x in row] for row in v[_IDX]]
            s += math.log(abs(_det3(m)) + 1.0) + math.sqrt(abs(m[0][0]) + 1.0)
    return s


def warm_up() -> None:
    """First runs in a process are slower (allocation, LAPACK set-up)."""
    for _ in range(5):
        kernel()


class SpeedTrack:
    """Kernel timings [(start ns, duration ns)] of one process."""

    def __init__(self, samples=()):
        self.samples = sorted(samples)
        self._starts = [t for t, _ in self.samples]

    def run(self) -> int:
        t0 = perf_counter_ns()
        kernel()
        dur = perf_counter_ns() - t0
        self.samples.append((t0, dur))
        self._starts.append(t0)
        return dur

    def scale_at(self, t_ns: int) -> float:
        """REF_NOMINAL_NS / median kernel time within WINDOW_NS of t_ns
        (at least the three nearest runs)."""
        lo = bisect.bisect_left(self._starts, t_ns - WINDOW_NS)
        hi = bisect.bisect_right(self._starts, t_ns + WINDOW_NS)
        if hi - lo < 3:
            mid = bisect.bisect_left(self._starts, t_ns)
            lo, hi = max(0, mid - 2), min(len(self.samples), mid + 2)
        return REF_NOMINAL_NS / statistics.median(d for _, d in self.samples[lo:hi])


def speed_tracks(spans) -> dict:
    """{pid: SpeedTrack} from the "bench.ref" spans of each process."""
    samples = {}
    for pid, name, _, _, t0, t1, _ in spans:
        if name == "bench.ref":
            samples.setdefault(pid, []).append((t0, t1 - t0))
    return {pid: SpeedTrack(s) for pid, s in samples.items()}


def latency_metrics(samples_ns) -> dict:
    q = statistics.quantiles(samples_ns, n=100)
    return {"latency_p50_us": q[49] / 1e3, "latency_p99_us": q[98] / 1e3}


class Adjusted:
    """Pass walls and per-operation latencies of one run, raw and adjusted."""

    def __init__(self):
        self.walls, self.raw_walls, self.scales = [], [], []
        self.latencies, self.raw_latencies = array("d"), array("d")

    def add_pass(self, t0, t1, tracks, workers, timings):
        """One pass that ran from t0 to t1 ns.

        `timings` are (pid, start ns, duration ns, completed) of its
        operations, each scaled by the kernel's speed around its start in
        its own process.  The pass wall, less the kernel's own run time, is
        scaled by the time-weighted mean of those scales.  Latencies count
        completed operations only; the failed ones are counted as failed."""
        ref = [d for track in tracks.values() for t, d in track.samples if t0 <= t <= t1]
        fallback = REF_NOMINAL_NS / statistics.median(
            ref or [d for track in tracks.values() for _, d in track.samples])
        raw_sum = adj_sum = 0.0
        for pid, start, dur, completed in timings:
            track = tracks.get(pid)
            adj = dur * (track.scale_at(start) if track else fallback)
            if completed:
                self.raw_latencies.append(dur)
                self.latencies.append(adj)
            raw_sum += dur
            adj_sum += adj
        self.scales.append(adj_sum / raw_sum)
        self.raw_walls.append((t1 - t0) / 1e9)
        self.walls.append(((t1 - t0) - sum(ref) / workers) / 1e9 * self.scales[-1])

    def metrics(self, points_per_pass, peak_rss_mb) -> dict:
        """End-to-end metrics, plus the unadjusted ones under "raw"."""
        done = points_per_pass * len(self.walls)
        return {"wall_s": statistics.median(self.walls),
                "points_per_s": done / sum(self.walls),
                **latency_metrics(self.latencies),
                "peak_rss_mb": peak_rss_mb,
                "raw": {"wall_s": statistics.median(self.raw_walls),
                        "points_per_s": done / sum(self.raw_walls),
                        **latency_metrics(self.raw_latencies)}}
