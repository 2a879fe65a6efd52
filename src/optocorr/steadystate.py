"""Mean-field steady state of the driven nonlinear system.

Solves the coupled fixed-point equations for the intracavity amplitudes
(alpha1, alpha2), the collective atomic amplitude (xi) and the
mechanical displacement (beta), and derives the effective detunings and
optomechanical couplings consumed by the dynamics module.

When the operating point specifies the effective quantities directly
(the convention used by all figure presets) this module is bypassed.
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


def _rhs(state, raw: RawDriveParams, base: SystemParams, j_ac: complex):
    """One application of the fixed-point map (right-hand sides)."""
    alpha1, alpha2, xi, beta = state
    d1 = raw.delta1_bare + 2.0 * raw.g1 * beta.real
    d2 = raw.delta2_bare + 2.0 * raw.g2 * beta.real
    new_a1 = (raw.drive_e1 - 1j * j_ac * xi) / (1j * d1 + base.kappa1)
    new_a2 = raw.drive_e2 / (1j * d2 + base.kappa2)
    new_xi = -(1j * j_ac.conjugate() * alpha1 + 2j * base.j_ab * beta.real) / (1j * base.delta_at + base.f)
    new_b = -(1j * raw.g1 * abs(alpha1) ** 2 + 1j * raw.g2 * abs(alpha2) ** 2
              + 2j * base.j_ab * xi.real) / (1j * base.omega_m + base.gamma_m)
    return (new_a1, new_a2, new_xi, new_b)


def solve_steady_state(raw: RawDriveParams, base: SystemParams) -> SteadyState:
    """Damped fixed-point iteration from the decoupled closed form.

    Damping starts at 0.5 and drops to 0.1 the first time the residual
    increases.  Returns the branch reached from the decoupled initial
    point; no branch enumeration.  Both records check their own fields.
    """
    j_ac = base.j_ac_mag * cmath.exp(1j * base.phi)
    tol = RESIDUAL_RTOL * max(1.0, abs(raw.drive_e1), abs(raw.drive_e2))

    # decoupled initialization: couplings off
    state = (
        raw.drive_e1 / (1j * raw.delta1_bare + base.kappa1),
        raw.drive_e2 / (1j * raw.delta2_bare + base.kappa2),
        0.0 + 0.0j,
        0.0 + 0.0j,
    )
    lam = DAMPING_DEFAULT
    iterations = 0
    try:
        # the map at the current state gives both its residual and the next update
        rhs = _rhs(state, raw, base, j_ac)
        res = max(abs(x - y) for x, y in zip(state, rhs))
        for iterations in range(1, MAX_ITER + 1):
            if res <= tol:
                break
            state = tuple((1.0 - lam) * x + lam * y for x, y in zip(state, rhs))
            rhs = _rhs(state, raw, base, j_ac)
            new_res = max(abs(x - y) for x, y in zip(state, rhs))
            if new_res > res:
                lam = DAMPING_FALLBACK
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

    alpha1, alpha2, xi, beta = state
    return SteadyState(alpha1=alpha1, alpha2=alpha2, xi=xi, beta=beta,
                       delta1_eff=raw.delta1_bare + 2.0 * raw.g1 * beta.real,
                       delta2_eff=raw.delta2_bare + 2.0 * raw.g2 * beta.real,
                       g1_eff=raw.g1 * abs(alpha1), g2_eff=raw.g2 * abs(alpha2),
                       residual_norm=res, iterations=iterations)


def apply_steady_state(base: SystemParams, ss: SteadyState) -> SystemParams:
    """Replace the effective fields of a parameter record with solved values."""
    return base.with_values(delta1_eff=ss.delta1_eff, delta2_eff=ss.delta2_eff,
                            g1_eff=ss.g1_eff, g2_eff=ss.g2_eff)
