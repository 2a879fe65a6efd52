"""Steady-state covariance matrix from the Lyapunov equation A V + V A^T = -D.

The 8x8 problem is solved by vectorization: (I (x) A + A (x) I) vec(V) =
-vec(D), a dense 64x64 linear system.  At this size the Kronecker route
is trivially fast and easy to audit; no Bartels-Stewart machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import assess_stability
from .errors import SingularSystemError, UnstableDriftError

RESIDUAL_RTOL = 1.0e-10


@dataclass(frozen=True)
class CovarianceMatrix:
    matrix: np.ndarray        # 8x8 symmetric
    residual_norm: float      # ||A V + V A^T + D||_F after symmetrization


def lyapunov_residual(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> float:
    return float(np.linalg.norm(a @ v + v @ a.T + d, "fro"))


def solve_lyapunov(a: np.ndarray, d: np.ndarray, check_stability: bool = True) -> CovarianceMatrix:
    """Solve A V + V A^T = -D for the steady-state covariance matrix.

    The result is symmetrized as (V + V^T)/2 and the residual recomputed
    afterwards, so downstream consumers never see asymmetric round-off.
    """
    n = a.shape[0]
    if a.shape != (n, n) or d.shape != (n, n):
        raise ValueError("A and D must be square matrices of equal size")
    if check_stability and not assess_stability(a).stable:
        raise UnstableDriftError("drift matrix has a non-negative eigenvalue real part")
    eye = np.eye(n)
    k = np.kron(eye, a) + np.kron(a, eye)
    try:
        vec_v = np.linalg.solve(k, -d.reshape(n * n, order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"vectorized Lyapunov system is singular: {exc}") from exc
    v = vec_v.reshape((n, n), order="F")
    v = 0.5 * (v + v.T)
    return CovarianceMatrix(matrix=v, residual_norm=lyapunov_residual(a, v, d))


def residual_bound(a: np.ndarray, v: np.ndarray, d: np.ndarray,
                   rtol: float = RESIDUAL_RTOL) -> float:
    """Acceptance bound rtol*(||A||_F ||V||_F + ||D||_F) for the residual."""
    return rtol * (np.linalg.norm(a, "fro") * np.linalg.norm(v, "fro")
                   + np.linalg.norm(d, "fro"))
