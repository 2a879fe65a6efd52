"""Drift and diffusion matrices of the linearized fluctuation dynamics.

Quadrature basis order, fixed once for the whole package:

    (dx1, dy1, dx2, dy2, dq_at, dp_at, dq, dp)

i.e. cavity 1, cavity 2, atomic ensemble, mechanical oscillator, each
contributing an (amplitude, phase) quadrature pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError
from .params import SystemParams

# single source of truth for mode -> quadrature-index block
MODE_BLOCKS = {
    "c1": (0, 1),
    "c2": (2, 3),
    "a": (4, 5),
    "b": (6, 7),
}

N_MODES = 4
DIM = 2 * N_MODES

# symplectic form for four modes: direct sum of [[0,1],[-1,0]] blocks
OMEGA_4 = np.kron(np.eye(N_MODES), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    max_real_part: float

    @property
    def spectral_margin(self) -> float:
        return -self.max_real_part


def build_drift(p: SystemParams) -> np.ndarray:
    """Assemble the 8x8 drift matrix of the quadrature fluctuations."""
    s = math.sin(p.phi)
    c = math.cos(p.phi)
    j = p.j_ac_mag
    a = np.zeros((DIM, DIM))

    # cavity 1
    a[0, 0] = -p.kappa1
    a[0, 1] = p.delta1_eff
    a[0, 4] = j * s
    a[0, 5] = j * c
    a[1, 0] = -p.delta1_eff
    a[1, 1] = -p.kappa1
    a[1, 4] = -j * c
    a[1, 5] = j * s
    a[1, 6] = -2.0 * p.g1_eff

    # cavity 2
    a[2, 2] = -p.kappa2
    a[2, 3] = p.delta2_eff
    a[3, 2] = -p.delta2_eff
    a[3, 3] = -p.kappa2
    a[3, 6] = -2.0 * p.g2_eff

    # atomic ensemble
    a[4, 0] = -j * s
    a[4, 1] = j * c
    a[4, 4] = -p.f
    a[4, 5] = p.delta_at
    a[5, 0] = -j * c
    a[5, 1] = -j * s
    a[5, 4] = -p.delta_at
    a[5, 5] = -p.f
    a[5, 6] = -2.0 * p.j_ab

    # mechanical oscillator
    a[6, 6] = -p.gamma_m
    a[6, 7] = p.omega_m
    a[7, 0] = -2.0 * p.g1_eff
    a[7, 2] = -2.0 * p.g2_eff
    a[7, 4] = -2.0 * p.j_ab
    a[7, 6] = -p.omega_m
    a[7, 7] = -p.gamma_m
    return a


def build_diffusion(p: SystemParams, n_th: float) -> np.ndarray:
    """Diagonal diffusion matrix of the uncorrelated input noises."""
    if n_th < 0.0:
        raise NumericDomainError(f"n_th must be non-negative, got {n_th!r}")
    mech = p.gamma_m * (2.0 * n_th + 1.0)
    return np.diag([p.kappa1, p.kappa1, p.kappa2, p.kappa2, p.f, p.f, mech, mech])


def assess_stability(a: np.ndarray, margin_tol: float = 0.0) -> StabilityVerdict:
    """Spectral stability test: stable iff max Re(eig) < -margin_tol."""
    if not np.all(np.isfinite(a)):
        raise NumericDomainError("drift matrix contains non-finite entries")
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericDomainError(f"eigenvalue iteration failed: {exc}") from exc
    max_real = float(np.max(eigs.real))
    return StabilityVerdict(stable=max_real < -margin_tol, max_real_part=max_real)


def default_margin_tol(p: SystemParams) -> float:
    """Stability margin tolerance scaled to the mechanical frequency."""
    return 1.0e-9 * p.omega_m
