"""The four workloads: three figure grids through ``cli.main`` and a
closed loop of single drive points through the public functions.

A run's inputs are fixed by its seed: one grid, or DRIVE_BLOCKS blocks of
drive configs.  An untraced run makes whole passes over them until the
next one would end after ``seconds`` (at least one); every pass must
reproduce the first one's outputs exactly.  A traced run makes one untraced and one
traced pass and requires equal outputs.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import statistics
from time import perf_counter, perf_counter_ns

import optocorr.params as P
import optocorr.pipeline as PL
import optocorr.steadystate as S
from optocorr import cli
from optocorr.errors import OptocorrError
from optocorr.params import apply_overrides, params_from_config
from optocorr.sweep import figure_preset

import check
from layers import (DRIVE_PROBES, GRID_PROBES, LATENCY_PROBE, MEASURES_PER_REPORT,
                    layer_metrics)
from speed import REF_EVERY, Adjusted, SpeedTrack, kernel, speed_tracks, warm_up
from tracer import write_spans

SMOKE_GRID = "6x6"          # every stable point then falls in the oracle sample
DRIVE_BLOCK = 1000          # drive configs timed and checked together
DRIVE_BLOCKS = 6            # blocks per run; a pass runs all of them
SMOKE_DRIVE_BLOCK = 25


def timed_passes(seconds: float, one_pass) -> int:
    """Run one_pass(i), which returns its seconds, until another pass would
    end after `seconds`; return the number of passes."""
    times = []
    start = perf_counter()
    while True:
        times.append(one_pass(len(times)))
        if perf_counter() - start + statistics.median(times) > seconds:
            return len(times)


# ---------------------------------------------------------------------------
# figure grids
# ---------------------------------------------------------------------------

class GridWorkload:
    """``optocorr figure PRESET [--workers N] --out FILE`` run in-process."""

    def __init__(self, preset: str, workers: int = 1):
        self.preset = preset
        self.workers = workers

    @staticmethod
    def overrides(seed: int) -> list:
        """Seed 0 is the preset at the package defaults; other seeds jitter
        J_ab by +-5% (moves the stability boundary, so the stable share by
        about 1%) and T over 5-20 mK (changes every value, not the cost)."""
        if seed == 0:
            return []
        rng = random.Random(seed)
        return [f"Jab_mhz={rng.uniform(0.95, 1.05)!r}",
                f"T_kelvin={rng.uniform(0.005, 0.020)!r}"]

    def argv(self, seed, smoke, out):
        argv = ["figure", self.preset, "--out", out]
        for item in self.overrides(seed):
            argv += ["--set", item]
        if smoke:
            argv += ["--grid", SMOKE_GRID]
        if self.workers > 1:
            argv += ["--workers", str(self.workers)]
        return argv

    def spec(self, seed, smoke):
        cfg = apply_overrides({}, self.overrides(seed))
        counts = tuple(int(n) for n in SMOKE_GRID.split("x")) if smoke else None
        return figure_preset(self.preset, params_from_config(cfg), counts=counts)

    def run(self, ctx):
        out = os.path.join(ctx.out_dir, f"{ctx.workload}-{os.getpid()}.csv")
        argv = self.argv(ctx.seed, ctx.smoke, out)
        spec = self.spec(ctx.seed, ctx.smoke)
        points = len(spec.grid())
        tracer = ctx.tracer
        adjusted = Adjusted()
        texts = []

        def one_pass(_, traced=False):
            tracer.call("bench.ref", kernel)    # at least one kernel timing per pass
            t0 = perf_counter_ns()
            rc = tracer.call("cli.main", cli.main, argv) if traced else cli.main(argv)
            t1 = perf_counter_ns()
            if rc != 0:
                raise RuntimeError(f"optocorr {' '.join(argv)} exited {rc}")
            spans = tracer.drain()
            timings = [(pid, a, b - a, True) for pid, n, _, _, a, b, _ in spans
                       if n == "pipeline.evaluate_point"]
            if len(timings) != points:
                raise RuntimeError(f"{len(timings)} point timings for {points} points")
            adjusted.add_pass(t0, t1, speed_tracks(spans), self.workers, timings)
            with open(out) as fh:
                text = fh.read()
            if not texts or text != texts[0]:
                texts.append(text)
            return spans

        warm_up()
        tracer.install(LATENCY_PROBE, ref=kernel, ref_every=REF_EVERY)
        if ctx.trace:
            one_pass(0)
            tracer.install(GRID_PROBES)
            spans = one_pass(1, traced=True)
            write_spans(ctx.spans_path, spans)
            passes = 2
        else:
            def untraced_pass(i):
                one_pass(i)
                return adjusted.raw_walls[-1]
            passes = timed_passes(ctx.seconds, untraced_pass)
        tracer.uninstall()
        peak_rss = ctx.peak_rss_mb()
        os.unlink(out)

        verdict = check.check_grid(texts[0], spec, ctx.seed)
        if len(texts) > 1:
            verdict.problem("passes over the same grid wrote different bytes")
        verdict.passes = passes
        if ctx.trace:
            return verdict, layer_metrics(spans, points, self.workers, verdict.counts,
                                          verdict.counts["measure_cells"],
                                          len(texts[0].encode()), adjusted)
        return verdict, adjusted.metrics(points, peak_rss)


# ---------------------------------------------------------------------------
# single drive points
# ---------------------------------------------------------------------------

# drawn config keys and their ranges; the other keys keep their defaults.
# G_eff/2pi then has a median of about 3.5 MHz (5th-95th percentile
# 0.7-19 MHz).  On about 0.5% of draws the damped mean-field iteration
# does not converge and the operation fails; they stay in the ranges.
DRIVE_RANGES = (("g1_khz", 0.5, 3.0), ("g2_khz", 0.5, 3.0),
                ("E1_mhz", 1.0e4, 1.0e5), ("E2_mhz", 1.0e4, 1.0e5),
                ("delta1_bare_over_omegam", 0.8, 1.2),
                ("delta2_bare_over_omegam", 0.8, 1.2))
HALTON_BASES = (2, 3, 5, 7, 11, 13)


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def drive_configs(seed: int):
    """Endless raw-drive configs, uniform over DRIVE_RANGES.

    A Halton sequence shifted by a seeded offset (Cranley-Patterson
    rotation): each seed gives another point set from the same
    distribution, spread more evenly than independent draws, so the rare
    slow and failing draws make up a steadier share of every run."""
    rng = random.Random(seed)
    shift = [rng.random() for _ in DRIVE_RANGES]
    for i in itertools.count(1):
        yield {key: lo + (hi - lo) * ((_radical_inverse(i, base) + s) % 1.0)
               for (key, lo, hi), base, s in zip(DRIVE_RANGES, HALTON_BASES, shift)}


def drive_op(cfg: dict):
    """config -> parameters -> mean field -> point -> flat record.

    Functions are looked up on their modules at call time so that the
    traced run's probes see every call."""
    params = P.params_from_config(cfg)
    raw = P.drive_from_config(cfg, params)
    ss = S.solve_steady_state(raw, params)
    point = S.apply_steady_state(params, ss)
    result = PL.evaluate_point(point)
    flat = None if result.report is None else result.report.as_flat_dict()
    return point, result, flat


def run_ops(configs, timings, track) -> list:
    """Closed loop with one client: each op starts when the last returns.

    The reference kernel runs before every REF_EVERY-th op; `timings`
    collects (pid, start ns, duration ns, completed) per op."""
    outcomes = []
    pid = os.getpid()
    for i, cfg in enumerate(configs):
        if i % REF_EVERY == 0:
            track.run()
        t0 = perf_counter_ns()
        try:
            outcome = drive_op(cfg)
        except OptocorrError as exc:
            outcome = type(exc).__name__
        timings.append((pid, t0, perf_counter_ns() - t0, not isinstance(outcome, str)))
        outcomes.append(outcome)
    return outcomes


def fingerprint(outcomes) -> bytes:
    """Digest of what a block of drive ops returned, to compare passes."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        if not isinstance(outcome, str):
            _, result, flat = outcome
            outcome = (result.error, result.verdict.stable, flat)
        digest.update(repr(outcome).encode())
    return digest.digest()


class DriveWorkload:
    """Seeded raw-drive configs through the public single-point chain."""

    def run(self, ctx):
        size = SMOKE_DRIVE_BLOCK if ctx.smoke else DRIVE_BLOCK
        configs = list(itertools.islice(drive_configs(ctx.seed), size * DRIVE_BLOCKS))
        blocks = [configs[b:b + size] for b in range(0, len(configs), size)]
        verdict = check.Verdict()
        adjusted = Adjusted()
        expected = []
        warm_up()
        track = SpeedTrack()

        def timed_ops(block, traced=False):
            timings = []
            t0 = perf_counter_ns()
            if traced:
                outcomes = ctx.tracer.call("bench.drive_loop", run_ops, block, timings, track)
            else:
                outcomes = run_ops(block, timings, track)
            adjusted.add_pass(t0, perf_counter_ns(), {os.getpid(): track}, 1, timings)
            return outcomes

        def one_pass(i):
            """Every block once; each is checked (first pass) or compared
            with the first pass between blocks, outside the timings."""
            wall = 0.0
            for b, block in enumerate(blocks):
                outcomes = timed_ops(block)
                wall += adjusted.raw_walls[-1]
                if i == 0:
                    check.check_drive(outcomes, ctx.seed * 1000 + b, verdict, offset=b * size)
                    expected.append(fingerprint(outcomes))
                elif fingerprint(outcomes) != expected[b]:
                    verdict.problem(f"pass {i + 1}: block {b} outcomes differ from pass 1")
            return wall

        if ctx.trace:
            one_pass(0)
            ctx.tracer.install(DRIVE_PROBES)
            outcomes = timed_ops(configs, traced=True)
            ctx.tracer.uninstall()
            spans = ctx.tracer.drain()
            write_spans(ctx.spans_path, spans)
            if [fingerprint(outcomes[b:b + size]) for b in range(0, len(configs), size)] != expected:
                verdict.problem("traced outcomes differ from the untraced outcomes")
            reports = sum(1 for o in outcomes if not isinstance(o, str) and o[2] is not None)
            return verdict, layer_metrics(spans, len(configs), 1, verdict.counts,
                                          reports * MEASURES_PER_REPORT, 0, adjusted)

        verdict.passes = timed_passes(ctx.seconds, one_pass)
        return verdict, adjusted.metrics(size, ctx.peak_rss_mb())


WORKLOADS = {
    "fig3_map": GridWorkload("fig3"),
    "fig2_stability": GridWorkload("fig2"),
    "drive_point": DriveWorkload(),
    "fig3_workers2": GridWorkload("fig3", workers=2),
}
