"""LAPACK's eigenvalues and linear solve, through numpy's own gufuncs.

On a point's 5x5 to 36x36 inputs, `np.linalg`'s per-call checks cost about
as much as LAPACK.  These entries call the same gufuncs with the same
signatures and error state, so the results are numpy's bit for bit and a
LAPACK failure raises numpy's `LinAlgError`, with no warning.  Callers catch
it as `lapack.LinAlgError`, so no other module names `numpy.linalg`, and
check finiteness and shape.  Both take stacks of matrices.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

_ERRSTATE = {"invalid": "call", "over": "ignore", "divide": "ignore", "under": "ignore"}


def _raise_nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of each float square matrix in m, always complex."""
    with np.errstate(call=_raise_nonconvergence, **_ERRSTATE):
        return _umath_linalg.eigvals(m, signature="d->D")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b, for float a of shape (..., n, n) and b of shape (..., n)."""
    with np.errstate(call=_raise_singular, **_ERRSTATE):
        return _umath_linalg.solve1(a, b, signature="dd->d")
