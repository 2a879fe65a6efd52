"""Single-point evaluation chain: drift -> stability -> covariance -> measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (StabilityVerdict, assess_stability, build_diffusion,
                       build_drift, default_margin_tol)
from .errors import OptocorrError
from .lyapunov import solve_lyapunov
from .measures import CorrelationReport, correlation_report, measure_families
from .params import SystemParams, thermal_occupation


@dataclass(frozen=True)
class PointResult:
    verdict: StabilityVerdict
    n_th: float
    report: CorrelationReport | None = None   # None when unstable, errored or stability only
    covariance: np.ndarray | None = None
    error: str | None = None


# (record, read-only drift, n_th, verdict) of the last records `stability_verdict` judged,
# newest first; a tuple that is replaced, whose strong references keep each id from reuse
_recent = ()
_RECENT = 4     # at least the quintic's 3 candidate roots


def _judged(params: SystemParams) -> tuple:
    """The drift, n_th and stability verdict of one record."""
    a = build_drift(params)
    n_th = thermal_occupation(params.omega_m, params.temperature)
    return a, n_th, assess_stability(a, margin_tol=default_margin_tol(params))


def stability_verdict(params: SystemParams) -> StabilityVerdict:
    """`evaluate_point`'s verdict on `params`, kept with its drift and n_th for
    the next evaluation of this same record object."""
    global _recent
    a, n_th, verdict = _judged(params)
    a.setflags(write=False)
    _recent = ((params, a, n_th, verdict),) + _recent[:_RECENT - 1]
    return verdict


def evaluate_point(params: SystemParams, measures=None) -> PointResult:
    """Pipeline for one point; numeric errors are captured, not raised.

    `measures` names the report keys wanted, as a sweep spec does; None
    asks for the full report.  The verdict comes first: an unstable point,
    or a request for no measure family ("stability" only, say), stops there
    with no diffusion matrix, covariance or report.
    """
    # the solver asks the verdict of the root it returns; its caller then evaluates that record
    for params_seen, a, n_th, verdict in _recent:
        if params_seen is params:
            break
    else:
        a, n_th, verdict = _judged(params)
    families = measure_families(measures)
    if not verdict.stable or not families:
        return PointResult(verdict=verdict, n_th=n_th)
    try:
        d = build_diffusion(params, n_th)
        cm = solve_lyapunov(a, d, check_stability=False)
        report = correlation_report(cm.matrix, families)
    except OptocorrError as exc:
        return PointResult(verdict=verdict, n_th=n_th, error=f"{type(exc).__name__}: {exc}")
    return PointResult(verdict=verdict, n_th=n_th, report=report, covariance=cm.matrix)
