"""Steady-state covariance matrix from the Lyapunov equation A V + V A^T = -D.

V is symmetric, so the unknowns are its 36 entries on and above the diagonal,
where vec(V) has 64: the half-vectorized system (Magnus & Neudecker, SIAM J.
Alg. Disc. Meth. 1, 422 (1980)).  Its operator, spectrum {lambda_i + lambda_j,
i <= j}, is scattered from A by one bincount over a cached table and solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import lapack
from .dynamics import assess_stability
from .errors import SingularSystemError, UnstableDriftError

RESIDUAL_RTOL = 1.0e-10


@dataclass(frozen=True)
class CovarianceMatrix:
    matrix: np.ndarray        # 8x8, exactly symmetric
    drift: np.ndarray = field(repr=False, compare=False)       # the A and D solved for
    diffusion: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def residual_norm(self) -> float:
        """||A V + V A^T + D||_F by `lyapunov_residual`, computed on first read."""
        return lyapunov_residual(self.drift, self.matrix, self.diffusion)


def _frobenius(m: np.ndarray) -> float:
    """||m||_F by math.hypot: within 1 ulp at any scale; inf on overflow or
    for an inf entry, else NaN for a NaN entry."""
    return math.hypot(*m.ravel().tolist())


def lyapunov_residual(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> float:
    """||A V + V A^T + D||_F, by `_frobenius`: inf or NaN, with no warning,
    where the sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _frobenius(a @ v + v @ a.T + d)


@lru_cache(maxsize=None)
def _vech_index(n: int):
    """Unknowns (i, j), i <= j, by diagonal offset; equation (i, j) gets A[i, k]
    on {k, j} and A[j, k] on {i, k}, flat A entry term[t] in operator slot[t]."""
    rows, cols = np.triu_indices(n)
    # diagonal first: a vacuum's diagonal solves to exactly 1/2, so its D_G is 0
    order = np.lexsort((rows, cols - rows))
    r, c = rows[order, None], cols[order, None]
    unknown = np.empty((n, n), dtype=np.intp)     # V[k, l] is unknown[k, l]
    unknown[r, c] = unknown[c, r] = np.arange(r.size)[:, None]
    eq, k = np.arange(r.size)[:, None] * r.size, np.arange(n)
    slot = np.concatenate([eq + unknown[k, c], eq + unknown[r, k]]).ravel()
    term = np.concatenate([r * n + k, c * n + k]).ravel()
    return slot, term, (r * n + c).ravel(), unknown


def solve_lyapunov(a: np.ndarray, d: np.ndarray, check_stability: bool = True) -> CovarianceMatrix:
    """Solve A V + V A^T = -D for the steady-state covariance matrix.

    check_stability raises UnstableDriftError unless every eigenvalue of A has
    a negative real part: `assess_stability(a)`, margin 0.  `evaluate_point`,
    and through it `measure`, `matrix --with-cm` and every sweep, instead
    require max Re lambda < -`default_margin_tol` = -1e-9 omega_m, so a drift
    in between solves here but is unstable there.

    D is symmetric: its upper triangle is read; `residual_norm`, computed on first
    read, uses all of it.  V is filled from the unknowns: symmetric bit for bit."""
    n = a.shape[0] if a.ndim == 2 else 0
    if n == 0 or a.shape != (n, n) or d.shape != (n, n):
        raise ValueError("A and D must be non-empty square matrices of equal size, "
                         f"got shapes {a.shape} and {d.shape}")
    if check_stability and not assess_stability(a).stable:
        raise UnstableDriftError("drift matrix has a non-negative eigenvalue real part")
    slot, term, upper, unknown = _vech_index(n)
    op = np.bincount(slot, weights=a.ravel()[term], minlength=upper.size ** 2)
    try:
        x = lapack.solve(op.reshape(upper.size, -1), -d.ravel()[upper])
    except lapack.LinAlgError as exc:
        raise SingularSystemError(f"half-vectorized Lyapunov system is singular: {exc}") from exc
    return CovarianceMatrix(matrix=x[unknown], drift=a, diffusion=d)


def residual_bound(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> float:
    """Acceptance bound RESIDUAL_RTOL*(||A||_F ||V||_F + ||D||_F) for the residual."""
    return RESIDUAL_RTOL * (_frobenius(a) * _frobenius(v) + _frobenius(d))
