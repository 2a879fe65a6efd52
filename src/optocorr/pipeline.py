"""Single-point evaluation chain: drift -> stability -> covariance -> measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (StabilityVerdict, assess_stability, build_diffusion,
                       build_drift, default_margin_tol)
from .errors import OptocorrError
from .lyapunov import solve_lyapunov
from .measures import CorrelationReport, correlation_report
from .params import SystemParams, thermal_occupation


@dataclass(frozen=True)
class PointResult:
    verdict: StabilityVerdict
    n_th: float
    report: CorrelationReport | None   # None when the point is unstable or errored
    covariance: np.ndarray | None
    error: str | None = None


def evaluate_matrices(params: SystemParams):
    """(A, D, verdict, n_th) for one parameter point."""
    a = build_drift(params)
    n_th = thermal_occupation(params.omega_m, params.temperature)
    d = build_diffusion(params, n_th)
    verdict = assess_stability(a, margin_tol=default_margin_tol(params))
    return a, d, verdict, n_th


def evaluate_point(params: SystemParams, params_echo: dict | None = None) -> PointResult:
    """Full pipeline for one point; numeric errors are captured, not raised."""
    a, d, verdict, n_th = evaluate_matrices(params)
    if not verdict.stable:
        return PointResult(verdict=verdict, n_th=n_th, report=None,
                           covariance=None, error=None)
    try:
        cm = solve_lyapunov(a, d, check_stability=False)
        report = correlation_report(cm.matrix, verdict, n_th, params_echo=params_echo)
    except OptocorrError as exc:
        return PointResult(verdict=verdict, n_th=n_th, report=None,
                           covariance=None, error=f"{type(exc).__name__}: {exc}")
    return PointResult(verdict=verdict, n_th=n_th, report=report,
                       covariance=cm.matrix, error=None)
