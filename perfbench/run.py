"""optocorr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1] [--smoke]
    python3 perfbench/run.py --selftest

Run from the root of a checkout; optocorr is imported from its ``src``.
The last line of standard output is the JSON result; the lines before it
give the machine facts, every metric with its unit and the output check.
Exit codes: 0 success, 1 failed output check or missing package, 2 usage.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

# One BLAS thread per process: the two-worker run then uses
# 2 processes x 1 thread = nproc on the 2-core reference machine.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 9
# import + build_parser in a fresh interpreter, then the reference kernel
# in the same process, which scales the first time (see speed.py)
SETUP_SNIPPET = """
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import optocorr.cli
optocorr.cli.build_parser()
took = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import speed
speed.warm_up()
ref_ns = statistics.median(speed.SpeedTrack().run() for _ in range(5))
print(repr(took * speed.REF_NOMINAL_NS / ref_ns))
"""


class RunContext:
    """What one workload run needs to know about how it was invoked."""

    def __init__(self, args, tracer):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.tracer = tracer
        self.out_dir = OUT_DIR
        self.spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")

    @staticmethod
    def peak_rss_mb() -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_optocorr():
    """Import optocorr from this checkout's src, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "optocorr")):
        sys.exit(f"perfbench: no optocorr package under {SRC}")
    sys.path.insert(0, SRC)
    import optocorr
    if os.path.dirname(os.path.dirname(os.path.abspath(optocorr.__file__))) != SRC:
        sys.exit(f"perfbench: optocorr imported from {optocorr.__file__}, not {SRC}")
    return optocorr


def measure_setup_s() -> float:
    """Median over fresh interpreters of import optocorr.cli + build_parser(),
    each contention-adjusted."""
    import statistics
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, HERE], check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def machine_facts(seed: int) -> dict:
    import platform
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "optocorr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def load_benchmark(args) -> dict:
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    return bench


def run_workload(args) -> int:
    import_optocorr()
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    bench = load_benchmark(args)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer(os.path.join(OUT_DIR, f"spill-{os.getpid()}.bin"))
    ctx = RunContext(args, tracer)

    setup_s = None if args.trace else measure_setup_s()
    verdict, metrics = WORKLOADS[args.workload].run(ctx)
    if setup_s is not None:
        metrics["setup_s"] = setup_s

    print("facts " + json.dumps(machine_facts(args.seed), sort_keys=True))
    for m in wanted:
        print(f"metric {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    failed_frac = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    print(f"metric failed_frac = {failed_frac!r} ratio "
          f"({verdict.failed} of {verdict.attempted} distinct operations, "
          f"{verdict.passes} pass(es))")
    print("counts " + json.dumps(verdict.counts, sort_keys=True))
    if "raw" in metrics:
        print("unadjusted " + " ".join(f"{k}={v!r}" for k, v in metrics["raw"].items()))
    print(f"check {'PASS' if verdict.correct else 'FAIL'}: {len(verdict.problems)} problem(s)")
    for text in verdict.problems[:20]:
        print(f"  {text}")
    result = {"correct": verdict.correct, "attempted": verdict.attempted,
              "failed": verdict.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if verdict.correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; prints a summary table."""
    bench = load_benchmark(args)
    status = 0
    rows = []
    for w in bench["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(f"== {w['name']} (exit {proc.returncode})\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            status = 1
            continue
        status = status or proc.returncode
        rows.append((w["name"], result))
    print("\nsummary")
    for name, result in rows:
        frac = result["failed"] / result["attempted"]
        print(f"  {name}: check {'PASS' if result['correct'] else 'FAIL'}, "
              f"failed_frac {frac:.4g} ({result['failed']}/{result['attempted']})")
        for metric, mv in result["metrics"].items():
            print(f"    {metric} = {mv['value']:.6g} {mv['unit']}")
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs each preset at the package defaults")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and drive blocks, for the self-test")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--selftest", action="store_true",
                        help="smoke, mutation and repeat checks of the benchmark")
    args = parser.parse_args(argv)
    if not (args.all or args.selftest or args.workload):
        parser.error("give --workload NAME, --all or --selftest")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.selftest:
        import_optocorr()
        import selftest
        return selftest.main()
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
