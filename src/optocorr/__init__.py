"""Steady states, stability, and Gaussian quantum correlations of a
hybrid double-cavity/atomic-ensemble/mechanical-oscillator model."""

__version__ = "0.1.0"

from .params import SystemParams, params_from_config
from .dynamics import build_drift, build_diffusion, OMEGA_4
from .lyapunov import solve_lyapunov
from .measures import log_negativity, gaussian_discord, residual_contangle_min
from .pipeline import evaluate_point
from .sweep import Axis, SweepSpec, run_sweep, figure_preset, to_csv, to_json_lines

__all__ = [
    "__version__",
    "SystemParams", "params_from_config",
    "build_drift", "build_diffusion", "OMEGA_4",
    "solve_lyapunov",
    "log_negativity", "gaussian_discord", "residual_contangle_min",
    "evaluate_point",
    "Axis", "SweepSpec", "run_sweep", "figure_preset", "to_csv", "to_json_lines",
]
