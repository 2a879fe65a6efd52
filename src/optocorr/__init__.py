"""Steady states, stability, and Gaussian quantum correlations of a
hybrid double-cavity/atomic-ensemble/mechanical-oscillator model."""

__version__ = "0.1.0"

from .params import (SystemParams, RawDriveParams, thermal_occupation,
                     drive_amplitude, load_config, params_from_config,
                     apply_overrides)
from .dynamics import (build_drift, build_diffusion, assess_stability,
                       StabilityVerdict, MODE_BLOCKS, OMEGA_4)
from .lyapunov import solve_lyapunov, CovarianceMatrix
from .measures import (extract_submatrix, log_negativity, pt_min_symplectic,
                       one_vs_rest_contangle, residual_contangle_min,
                       gaussian_discord, correlation_report, CorrelationReport)
from .steadystate import solve_steady_state, SteadyState
from .pipeline import evaluate_point, evaluate_matrices
from .sweep import (Axis, SweepSpec, SweepResult, run_sweep, figure_preset,
                    to_csv, to_json_lines)

__all__ = [
    "__version__",
    "SystemParams", "RawDriveParams", "thermal_occupation", "drive_amplitude",
    "load_config", "params_from_config", "apply_overrides",
    "build_drift", "build_diffusion", "assess_stability", "StabilityVerdict",
    "MODE_BLOCKS", "OMEGA_4",
    "solve_lyapunov", "CovarianceMatrix",
    "extract_submatrix", "log_negativity", "pt_min_symplectic",
    "one_vs_rest_contangle", "residual_contangle_min", "gaussian_discord",
    "correlation_report", "CorrelationReport",
    "solve_steady_state", "SteadyState",
    "evaluate_point", "evaluate_matrices",
    "Axis", "SweepSpec", "SweepResult", "run_sweep", "figure_preset",
    "to_csv", "to_json_lines",
]
