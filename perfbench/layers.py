"""Probes at optocorr's module boundaries and the per-layer metrics.

A probe is (target, attribute, span name, payload): ``target`` is the
module (or "module:Class") whose attribute callers look up at call time,
so patching it times every call without editing optocorr.  Span names
are "<module>.<function>" with optocorr's module names as the layers.
"""

from __future__ import annotations

import statistics

from optocorr.lyapunov import residual_bound
from optocorr.sweep import MEASURE_KEYS

from tracer import RAISED, self_times

MEASURES_PER_REPORT = len(MEASURE_KEYS) - 1     # "stability" is not a measure


def _residual_ratio(args, cm):
    a, d = args[0], args[1]
    return cm.residual_norm / residual_bound(a, cm.matrix, d)


# evaluate_point's stages, in its call order, plus the measures inside
# correlation_report and the parameter-record setter used everywhere
STAGE_PROBES = [
    ("optocorr.params:SystemParams", "with_values", "params.with_values", None),
    ("optocorr.pipeline", "build_drift", "dynamics.build_drift", None),
    ("optocorr.pipeline", "thermal_occupation", "params.thermal_occupation", None),
    ("optocorr.pipeline", "build_diffusion", "dynamics.build_diffusion", None),
    ("optocorr.pipeline", "assess_stability", "dynamics.assess_stability",
     lambda args, verdict: verdict.stable),
    ("optocorr.pipeline", "solve_lyapunov", "lyapunov.solve_lyapunov", _residual_ratio),
    ("optocorr.pipeline", "correlation_report", "measures.correlation_report", None),
    ("optocorr.measures", "log_negativity", "measures.log_negativity", None),
    ("optocorr.measures", "gaussian_discord", "measures.gaussian_discord", None),
    ("optocorr.measures", "residual_contangle_min", "measures.residual_contangle_min", None),
]

# the one probe of an untraced grid run: per-point latency
LATENCY_PROBE = [("optocorr.sweep", "evaluate_point", "pipeline.evaluate_point", None)]

# added to LATENCY_PROBE for a traced grid pass
GRID_PROBES = STAGE_PROBES + [
    ("optocorr.cli", "params_from_config", "params.params_from_config", None),
    ("optocorr.cli", "run_sweep", "sweep.run_sweep", None),
    ("optocorr.cli", "to_csv", "sweep.to_csv", None),
]

DRIVE_PROBES = STAGE_PROBES + [
    ("optocorr.params", "params_from_config", "params.params_from_config", None),
    ("optocorr.params", "drive_from_config", "params.drive_from_config", None),
    ("optocorr.steadystate", "solve_steady_state", "steadystate.solve_steady_state",
     lambda args, ss: ss.iterations),
    ("optocorr.steadystate", "apply_steady_state", "steadystate.apply_steady_state", None),
    ("optocorr.pipeline", "evaluate_point", "pipeline.evaluate_point", None),
    ("optocorr.measures:CorrelationReport", "as_flat_dict", "measures.as_flat_dict", None),
]


def layer_metrics(spans, points, workers, counts, measure_values, output_bytes,
                  adjusted) -> dict:
    """Every per-layer metric from one traced pass (µs are per point).

    `adjusted` holds the untraced pass (in one or more blocks), then the
    traced one; times are contention-adjusted with the traced pass's scale."""
    selft = self_times(spans)
    name_of = {(pid, sid): n for pid, n, sid, *_ in spans}

    def named(name):
        return [s for s in spans if s[1] == name]

    def payloads(name):
        return [s[6] for s in named(name)]

    def total_ns(name):
        return sum(t1 - t0 for *_, t0, t1, _ in named(name))

    def per_point_us(name):
        return total_ns(name) / 1e3 / points

    def direct_us(name, parent):
        return sum(t1 - t0 for pid, n, _, par, t0, t1, _ in spans
                   if n == name and name_of.get((pid, par)) == parent) / 1e3 / points

    iterations = [v for v in payloads("steadystate.solve_steady_state") if v != RAISED]
    reports = len(named("measures.correlation_report"))
    sweep_ns = total_ns("sweep.run_sweep")
    # time the serial loop or the workers spent on the points themselves
    # (and on the reference kernel), not on dispatching them
    point_ns = sum(t1 - t0 for pid, n, _, par, t0, t1, _ in spans
                   if n in ("pipeline.evaluate_point", "params.with_values", "bench.ref")
                   and (par == 0 or name_of.get((pid, par)) == "sweep.run_sweep"))
    metrics = {
        "params.with_values_us": per_point_us("params.with_values"),
        "params.params_from_config_us": per_point_us("params.params_from_config"),
        "steadystate.solve_steady_state_us": per_point_us("steadystate.solve_steady_state"),
        "steadystate.iterations_p50": statistics.median(iterations) if iterations else 0,
        "steadystate.iterations_max": max(iterations, default=0),
        "steadystate.nonconverged": payloads("steadystate.solve_steady_state").count(RAISED),
        "dynamics.build_drift_us": per_point_us("dynamics.build_drift"),
        "dynamics.build_diffusion_us": per_point_us("dynamics.build_diffusion"),
        "dynamics.assess_stability_us": per_point_us("dynamics.assess_stability"),
        "dynamics.unstable_points": payloads("dynamics.assess_stability").count(0.0),
        "lyapunov.solve_lyapunov_us": per_point_us("lyapunov.solve_lyapunov"),
        "lyapunov.solves": len(named("lyapunov.solve_lyapunov")),
        "lyapunov.residual_ratio_max": max(payloads("lyapunov.solve_lyapunov"), default=0.0),
        "measures.correlation_report_us": per_point_us("measures.correlation_report"),
        "measures.log_negativity_us":
            direct_us("measures.log_negativity", "measures.correlation_report"),
        "measures.gaussian_discord_us":
            direct_us("measures.gaussian_discord", "measures.correlation_report"),
        "measures.residual_contangle_min_us":
            direct_us("measures.residual_contangle_min", "measures.correlation_report"),
        "measures.reports": reports,
        "measures.useful_ratio":
            measure_values / (reports * MEASURES_PER_REPORT) if reports else 0.0,
        "pipeline.evaluate_point_us": per_point_us("pipeline.evaluate_point"),
        "pipeline.self_us":
            sum(selft[(s[0], s[2])] for s in named("pipeline.evaluate_point")) / 1e3 / points,
        "sweep.dispatch_self_us":
            (workers * sweep_ns - point_ns) / 1e3 / points if sweep_ns else 0.0,
        "sweep.to_csv_us": per_point_us("sweep.to_csv"),
        "sweep.output_bytes": output_bytes,
        "sweep.parallel_efficiency":
            total_ns("pipeline.evaluate_point") / (workers * sweep_ns) if sweep_ns else 0.0,
        "cli.self_s": sum(selft[(s[0], s[2])] for s in named("cli.main")) / 1e9,
        "stable_points": counts["stable_points"],
        "unstable_points": counts["unstable_points"],
        "errored_points": counts["errored_points"],
    }
    # self time of each layer: its spans minus the spans they called
    for layer in ("params", "steadystate", "dynamics", "lyapunov", "measures"):
        metrics[f"{layer}.self_us"] = sum(
            selft[(s[0], s[2])] for s in spans if s[1].startswith(layer + ".")) / 1e3 / points
    for name in metrics:
        if name.endswith(("_us", "_s")):
            metrics[name] *= adjusted.scales[-1]
    metrics["trace.overhead_s"] = adjusted.walls[-1] - sum(adjusted.walls[:-1])
    return metrics
