"""Drift and diffusion matrices of the linearized fluctuation dynamics.

Quadrature basis order, fixed once for the whole package:

    (dx1, dy1, dx2, dy2, dq_at, dp_at, dq, dp)

i.e. cavity 1, cavity 2, atomic ensemble, mechanical oscillator, each
contributing an (amplitude, phase) quadrature pair.

The drift A = Omega H - diag(Gamma), of the Hamiltonian matrix H of
(1/2) r^T H r and the damping vector Gamma (Serafini, Quantum Continuous
Variables, CRC 2017, ch. 5), is linear in the 13 scalars theta that `THETA`
names, and is written once, in `_drift_entries`.  Its values at the integer
unit thetas are the rows dA/dtheta_k of `DRIFT_TABLE`, and A = theta DRIFT_TABLE
is exact in any order of summation: each entry is +-1 times one theta_k plus
zeros, kappa1 * 0 = +0 among them, so no zero comes out signed.
`test_drift_is_omega_times_paper_hamiltonian` checks H = Omega^T (A + Gamma).
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


def _damping_rates(p: SystemParams) -> tuple:
    """Amplitude damping rate of each mode: kappa1, kappa2, f, gamma_m."""
    return p.kappa1, p.kappa2, p.f, p.gamma_m


THETA = ("kappa1", "kappa2", "f", "gamma_m", "delta1_eff", "delta2_eff", "delta_at", "omega_m",
         "jac_cos_phi", "jac_sin_phi", "g1_eff_x2", "g2_eff_x2", "j_ab_x2")


def _drift_entries(k1, k2, f, gm, d1, d2, dat, wm, jc, js, g1, g2, jab) -> tuple:
    """A at theta: row 2k of Omega H is row 2k+1 of H, and row 2k+1 is minus row 2k."""
    return ((-k1, d1, 0, 0, js, jc, 0, 0), (-d1, -k1, 0, 0, -jc, js, -g1, 0),       # c1
            (0, 0, -k2, d2, 0, 0, 0, 0), (0, 0, -d2, -k2, 0, 0, -g2, 0),            # c2
            (-js, jc, 0, 0, -f, dat, 0, 0), (-jc, -js, 0, 0, -dat, -f, -jab, 0),   # atoms
            (0, 0, 0, 0, 0, 0, -gm, wm), (-g1, 0, -g2, 0, -jab, 0, -wm, -gm))      # mechanics


DRIFT_TABLE = np.array([_drift_entries(*unit) for unit in np.eye(len(THETA), dtype=int).tolist()],
                       dtype=float).reshape(len(THETA), DIM * DIM)
DRIFT_TABLE.flags.writeable = False


def build_drift(p: SystemParams) -> np.ndarray:
    """8x8 drift matrix A = theta DRIFT_TABLE, theta in `THETA` order."""
    jac, phi = p.j_ac_mag, p.phi
    theta = (*_damping_rates(p), p.delta1_eff, p.delta2_eff, p.delta_at, p.omega_m,
             jac * math.cos(phi), jac * math.sin(phi), 2.0 * p.g1_eff, 2.0 * p.g2_eff, 2.0 * p.j_ab)
    return (np.array(theta) @ DRIFT_TABLE).reshape(DIM, DIM)


def build_diffusion(p: SystemParams, n_th: float) -> np.ndarray:
    """Diagonal diffusion: the drift's damping rates, mechanics scaled by 2 n_th + 1."""
    if not 0.0 <= n_th < math.inf:     # NaN too
        raise NumericDomainError(f"n_th must be {'finite' if n_th > 0.0 else 'non-negative'}, "
                                 f"got {n_th!r}")
    k1, k2, f, gm = _damping_rates(p)
    mechanics = gm * (2.0 * n_th + 1.0)
    if mechanics == math.inf:
        raise NumericDomainError(f"diffusion gamma_m(2 n_th + 1) overflows at n_th {n_th!r}")
    return np.diag([k1, k1, k2, k2, f, f] + [mechanics] * 2)


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
