"""Drift and diffusion matrices of the linearized fluctuation dynamics.

Quadrature basis order, fixed once for the whole package:

    (dx1, dy1, dx2, dy2, dq_at, dp_at, dq, dp)

i.e. cavity 1, cavity 2, atomic ensemble, mechanical oscillator, each
contributing an (amplitude, phase) quadrature pair.

The model is written once, as the Hamiltonian matrix H and the damping
vector Gamma: A = Omega H - diag(Gamma) (Serafini, Quantum Continuous
Variables, CRC 2017, ch. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lapack
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


def _hamiltonian(p: SystemParams) -> np.ndarray:
    """Symmetric matrix H of the quadratic Hamiltonian (1/2) r^T H r.

    Detunings (delta1_eff, delta2_eff, delta_at, omega_m) on the diagonal;
    each coupling placed once above it and mirrored: the c1-a beam splitter
    J_ac (e^{i phi} c1^dag a + h.c.) = J_ac [cos(phi) (x1 q_at + y1 p_at)
    - sin(phi) (x1 p_at - y1 q_at)], and 2 G1 x1 q, 2 G2 x2 q, 2 J_ab q_at q.
    """
    jc = p.j_ac_mag * math.cos(p.phi)
    js = p.j_ac_mag * math.sin(p.phi)
    u = np.zeros((DIM, DIM))
    u[0:2, 4:6] = ((jc, -js), (js, jc))
    u[0, 6] = 2.0 * p.g1_eff
    u[2, 6] = 2.0 * p.g2_eff
    u[4, 6] = 2.0 * p.j_ab
    h = u + u.T
    h.flat[::DIM + 1] = (p.delta1_eff, p.delta1_eff, p.delta2_eff, p.delta2_eff,
                         p.delta_at, p.delta_at, p.omega_m, p.omega_m)
    return h


def _damping(p: SystemParams) -> np.ndarray:
    """Amplitude damping rate of each quadrature: kappa1, kappa2, f, gamma_m."""
    return np.array([p.kappa1, p.kappa1, p.kappa2, p.kappa2,
                     p.f, p.f, p.gamma_m, p.gamma_m])


def build_drift(p: SystemParams) -> np.ndarray:
    """8x8 drift matrix A = Omega H - Gamma of the quadrature fluctuations."""
    return OMEGA_4 @ _hamiltonian(p) - np.diag(_damping(p))


def build_diffusion(p: SystemParams, n_th: float) -> np.ndarray:
    """Diagonal diffusion: the drift's damping rates, mechanics scaled by 2 n_th + 1."""
    if n_th < 0.0:
        raise NumericDomainError(f"n_th must be non-negative, got {n_th!r}")
    gamma = _damping(p)
    gamma[6:] *= 2.0 * n_th + 1.0
    return np.diag(gamma)


def assess_stability(a: np.ndarray, margin_tol: float = 0.0) -> StabilityVerdict:
    """Spectral stability test: stable iff max Re(eig) < -margin_tol."""
    if not np.isfinite(a).all():
        raise NumericDomainError("drift matrix contains non-finite entries")
    try:
        eigs = lapack.eigvals(a)
    except lapack.LinAlgError as exc:
        raise NumericDomainError(f"eigenvalue iteration failed: {exc}") from exc
    max_real = float(eigs.real.max())
    return StabilityVerdict(stable=max_real < -margin_tol, max_real_part=max_real)


def default_margin_tol(p: SystemParams) -> float:
    """Stability margin tolerance scaled to the mechanical frequency."""
    return 1.0e-9 * p.omega_m
