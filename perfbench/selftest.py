"""Checks of the benchmark itself: ``python3 perfbench/run.py --selftest``.

* smoke: every workload, untraced and traced, at a tiny size, must exit 0,
  pass its output check and print every metric of BENCHMARK.json;
* mutation: one emitted E_N changed by 1e-4 relative in a copy of a
  figure CSV must be flagged by the checker, and the unchanged copy not;
* repeat: the counts of two traced runs with one seed must be equal;
* parallel: a 12x12 fig3 CSV made with --workers 2 must equal the serial
  one byte for byte (12x12 is three chunks, so both workers run).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from optocorr import cli

import check
from run import BENCHMARK_JSON, OUT_DIR
from workloads import GridWorkload

SEED = 7
REPEATED_COUNTS = ("stable_points", "unstable_points", "errored_points",
                   "lyapunov.solves", "measures.reports", "measures.useful_ratio",
                   "steadystate.iterations_p50", "steadystate.iterations_max",
                   "steadystate.nonconverged", "sweep.output_bytes")


def run_smoke(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_and_repeat(bench: dict) -> list:
    failures = []
    for w in bench["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            try:
                first = run_smoke(w["name"], trace)
                want = {m["name"] for m in bench[kind]}
                if not first["correct"] or set(first["metrics"]) != want:
                    failures.append(f"smoke {w['name']} trace={trace}: {first}")
                if trace:
                    second = run_smoke(w["name"], trace)
                    for name in REPEATED_COUNTS:
                        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                        if a != b:
                            failures.append(f"repeat {w['name']}: {name} {a} then {b}")
            except AssertionError as exc:
                failures.append(str(exc))
    return failures


def mutation() -> list:
    workload = GridWorkload("fig3")
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"selftest-{os.getpid()}.csv")
    if cli.main(workload.argv(SEED, True, out)) != 0:
        return ["mutation: fig3 smoke run failed"]
    with open(out) as fh:
        text = fh.read()
    os.unlink(out)
    spec = workload.spec(SEED, True)
    if len(spec.grid()) > check.SAMPLE:
        return ["mutation: smoke grid larger than the oracle sample"]
    failures = []
    if not check.check_grid(text, spec, SEED).correct:
        failures.append("mutation: the unchanged output fails the check")
    lines = text.splitlines(keepends=True)
    columns = lines[1].strip().split(",")
    en = columns.index("EN_c2a")
    for k in range(2, len(lines)):
        cells = lines[k].rstrip("\n").split(",")
        if cells[en] and float(cells[en]) > 0.0:
            cells[en] = "%.12g" % (float(cells[en]) * (1.0 + 1e-4))
            lines[k] = ",".join(cells) + "\n"
            break
    verdict = check.check_grid("".join(lines), spec, SEED)
    if verdict.correct or verdict.failed != 1:
        failures.append(f"mutation: a corrupted E_N was not flagged ({verdict.problems})")
    return failures


def parallel() -> list:
    os.makedirs(OUT_DIR, exist_ok=True)
    texts = []
    for extra in ([], ["--workers", "2"]):
        out = os.path.join(OUT_DIR, f"selftest-{os.getpid()}.csv")
        if cli.main(["figure", "fig3", "--grid", "12x12", "--out", out] + extra) != 0:
            return [f"parallel: fig3 {extra} failed"]
        with open(out) as fh:
            texts.append(fh.read())
        os.unlink(out)
    return [] if texts[0] == texts[1] else ["parallel: --workers 2 CSV differs from serial"]


def main() -> int:
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    failures = mutation() + parallel() + smoke_and_repeat(bench)
    for text in failures:
        print(f"FAIL {text}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0
