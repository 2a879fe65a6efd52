"""Drift and diffusion matrices of the linearized fluctuation dynamics.

Quadrature basis order, fixed once for the whole package:

    (dx1, dy1, dx2, dy2, dq_at, dp_at, dq, dp)

i.e. cavity 1, cavity 2, atomic ensemble, mechanical oscillator, each
contributing an (amplitude, phase) quadrature pair.

The model is the Hamiltonian matrix H of (1/2) r^T H r and the damping
vector Gamma: A = Omega H - diag(Gamma) (Serafini, Quantum Continuous
Variables, CRC 2017, ch. 5), written once, entry by entry; H = Omega^T
(A + Gamma) is what `test_drift_is_omega_times_paper_hamiltonian` checks.
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


# flat index (8 row + column) of each drift entry, in the order build_drift lists them
_DRIFT_FLAT = np.array((0, 1, 4, 5, 8, 9, 12, 13, 14, 18, 19, 26, 27, 30,
                        32, 33, 36, 37, 40, 41, 44, 45, 46, 54, 55, 56, 58, 60, 62, 63))


def build_drift(p: SystemParams) -> np.ndarray:
    """8x8 drift matrix A = Omega H - Gamma, written entry by entry: row 2k of
    Omega H is row 2k+1 of H and row 2k+1 is minus row 2k.  Adding 0.0 turns
    each -0.0 into the +0.0 the product gives, so A is that product bit for bit."""
    k1, k2, f, gm = _damping_rates(p)
    d1, d2, dat, wm = p.delta1_eff, p.delta2_eff, p.delta_at, p.omega_m
    jc, js = p.j_ac_mag * math.cos(p.phi), p.j_ac_mag * math.sin(p.phi)
    g1, g2, jab = 2.0 * p.g1_eff, 2.0 * p.g2_eff, 2.0 * p.j_ab
    a = np.zeros(DIM * DIM)
    a[_DRIFT_FLAT] = (-k1, d1, js, jc, -d1, -k1, -jc, js, -g1,        # c1
                      -k2, d2, -d2, -k2, -g2,                          # c2
                      -js, jc, -f, dat, -jc, -js, -dat, -f, -jab,      # atoms
                      -gm, wm, -g1, -g2, -jab, -wm, -gm)               # mechanics
    return a.reshape(DIM, DIM) + 0.0


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
