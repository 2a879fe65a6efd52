"""Steady-state covariance matrix from the Lyapunov equation A V + V A^T = -D.

The 8x8 problem is solved by vectorization: (I (x) A + A (x) I) vec(V) =
-vec(D), a dense 64x64 linear system whose operator is scattered into a
zeroed array at cached index positions instead of being built as two
mostly-zero Kronecker products; no Bartels-Stewart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import assess_stability
from .errors import SingularSystemError, UnstableDriftError

RESIDUAL_RTOL = 1.0e-10


@dataclass(frozen=True)
class CovarianceMatrix:
    matrix: np.ndarray        # 8x8 symmetric
    residual_norm: float      # ||A V + V A^T + D||_F after symmetrization


def _frobenius(m: np.ndarray) -> float:
    """||m||_F, numpy's norm bit for bit; finite entries whose squares
    overflow are scaled by the largest first, so a huge matrix gives its
    norm and no warning."""
    r = m.ravel()
    with np.errstate(over="ignore"):
        sqnorm = r.dot(r)
    if math.isfinite(sqnorm) or not np.isfinite(r).all():
        return math.sqrt(sqnorm)
    scale = float(np.abs(r).max())
    return scale * float(np.linalg.norm(r / scale))


def lyapunov_residual(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> float:
    """||A V + V A^T + D||_F, by `_frobenius`."""
    return _frobenius(a @ v + v @ a.T + d)


@lru_cache(maxsize=None)
def _kron_index(n: int):
    """Flat positions of A[j, l] in I (x) A, entry (i, j, i, l), and in A (x) I, entry (j, i, l, i)."""
    i, j, l = np.ogrid[:n, :n, :n]
    return ((i * n + j) * n + i) * n + l, ((j * n + i) * n + l) * n + i


def _kron_sum(a: np.ndarray) -> np.ndarray:
    """I (x) A + A (x) I: A in each diagonal block, A[i, j] on block (i, j)'s diagonal."""
    left, right = _kron_index(a.shape[0])
    k = np.zeros(a.size ** 2)
    k[left] = a
    k[right] += a
    return k.reshape(a.size, a.size)


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
    try:
        vec_v = np.linalg.solve(_kron_sum(a), -d.reshape(n * n, order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"vectorized Lyapunov system is singular: {exc}") from exc
    v = vec_v.reshape((n, n), order="F")
    v = 0.5 * (v + v.T)
    return CovarianceMatrix(matrix=v, residual_norm=lyapunov_residual(a, v, d))


def residual_bound(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> float:
    """Acceptance bound RESIDUAL_RTOL*(||A||_F ||V||_F + ||D||_F) for the residual."""
    return RESIDUAL_RTOL * (_frobenius(a) * _frobenius(v) + _frobenius(d))
