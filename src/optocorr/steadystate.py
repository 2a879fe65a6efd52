"""Mean-field steady state of the driven nonlinear system.

Solves the coupled fixed-point equations for the intracavity amplitudes
(alpha1, alpha2), the collective atomic amplitude (xi) and the
mechanical displacement (beta); `apply_steady_state` linearizes the
dynamics about the solution.

When the operating point specifies the effective quantities directly
(the convention used by all figure presets) this module is bypassed.

The map sees beta only through x = Re(beta).  Given x, alpha2 is
explicit and (alpha1, xi) solve a 2x2 linear system, so the fixed points
are the real roots of F(x) = Re(beta(x)) - x.  Clearing the two cavity
denominators Q1(x), Q2(x) (positive quadratics) leaves a real polynomial
of degree at most 5, the two-cavity form of the optomechanical
bistability cubic (Dorsel et al., PRL 51, 1550 (1983)).  Its real roots
are enumerated from one companion-matrix eigenvalue solve; each is
accepted only if `_rhs`, the one transcription of the map, returns it
to within the residual tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .errors import NonConvergenceError
from .params import RawDriveParams, SystemParams
from .pipeline import stability_verdict

RESIDUAL_RTOL = 1.0e-10
NEWTON_STEPS = 2
# an eigenvalue of the companion matrix this close to the real axis is a real-root
# candidate, and polished roots this close together are one multiple root
REAL_ROOT_RTOL = 1.0e-6


@dataclass(frozen=True)
class SteadyState:
    alpha1: complex
    alpha2: complex
    xi: complex
    beta: complex
    raw: RawDriveParams     # the drives it was solved for
    residual_norm: float
    iterations: int         # Newton steps spent polishing the real roots
    real_roots: int         # certified real roots: the mean-field fixed points
    # the record the solver linearized about this state and the base it built it from,
    # which `apply_steady_state` hands on so that `evaluate_point` finds its verdict
    point: SystemParams | None = field(default=None, compare=False, repr=False)
    base: SystemParams | None = field(default=None, compare=False, repr=False)


def _map_constants(raw: RawDriveParams, base: SystemParams) -> tuple:
    """The factors of the fixed-point map that do not depend on the state.

    Each is the left-most sub-product that the map's left-associated
    expressions form first (``2.0 * g1 * x`` is ``(2.0 * g1) * x``).
    """
    j_ac = base.j_ac_mag * cmath.exp(1j * base.phi)
    return (raw.drive_e1, raw.drive_e2, raw.delta1_bare, raw.delta2_bare,
            2.0 * raw.g1, 2.0 * raw.g2, base.kappa1, base.kappa2,
            1j * j_ac, 1j * j_ac.conjugate(), 2j * base.j_ab, 1j * raw.g1, 1j * raw.g2,
            1j * base.delta_at + base.f, 1j * base.omega_m + base.gamma_m)


def _rhs(state, c):
    """One application of the fixed-point map (right-hand sides).

    `c` is `_map_constants(raw, base)`."""
    alpha1, alpha2, xi, beta = state
    e1, e2, d1_bare, d2_bare, tg1, tg2, k1, k2, ij, ijc, tjab, ig1, ig2, den_xi, den_b = c
    x = beta.real
    new_a1 = (e1 - ij * xi) / (1j * (d1_bare + tg1 * x) + k1)
    new_a2 = e2 / (1j * (d2_bare + tg2 * x) + k2)
    new_xi = -(ijc * alpha1 + tjab * x) / den_xi
    new_b = -(ig1 * abs(alpha1) ** 2 + ig2 * abs(alpha2) ** 2 + tjab * xi.real) / den_b
    return (new_a1, new_a2, new_xi, new_b)


def _state_at(x: float, c) -> tuple:
    """The state the map fixes given Re(beta) = x.

    alpha1 solves alpha1 D1 = e1 - ij xi with xi the map's xi of
    (alpha1, x): alpha1 (D1 den_xi - ij ijc) = e1 den_xi + ij tjab x."""
    e1, e2, d1_bare, d2_bare, tg1, tg2, k1, k2, ij, ijc, tjab, ig1, ig2, den_xi, den_b = c
    alpha1 = ((e1 * den_xi + ij * tjab * x)
              / ((1j * (d1_bare + tg1 * x) + k1) * den_xi - ij * ijc))
    alpha2 = e2 / (1j * (d2_bare + tg2 * x) + k2)
    xi = -(ijc * alpha1 + tjab * x) / den_xi
    beta = -(ig1 * abs(alpha1) ** 2 + ig2 * abs(alpha2) ** 2 + tjab * xi.real) / den_b
    return (alpha1, alpha2, xi, beta)


def _quintic(raw: RawDriveParams, base: SystemParams, c) -> list:
    """Coefficients, highest degree first, of F(x) Q1(x) Q2(x).

    With D_j = k_j + i(d_j + 2 g_j x), alpha1 = N1/P1 (`_state_at`:
    N1 = e1 den_xi + ij tjab x, P1 = D1 den_xi - ij ijc), Q1 = |P1|^2,
    Q2 = |D2|^2, u = ijc/den_xi and s = Re(-i/den_b):

        F Q1 Q2 = W Q2 + s g2 |e2|^2 Q1 + K x Q1 Q2,
        W = s (g1 |N1|^2 - 2 J_ab Re(u N1 conj(P1))),
        K = -2 s J_ab Re(tjab/den_xi) - 1.

    Q1 and Q2 have no real zeros (kappa1, kappa2, f > 0), so the real
    roots are exactly the fixed points.  g1 = 0 or g2 = 0 zeroes the two
    leading coefficients, and e1 = e2 = 0 the constant one.
    """
    e1, e2, d1_bare, d2_bare, tg1, tg2, k1, k2, ij, ijc, tjab, ig1, ig2, den_xi, den_b = c
    g1, g2, jab = raw.g1, raw.g2, base.j_ab
    s = (-1j / den_b).real
    u = ijc / den_xi
    n0, n1 = e1 * den_xi, ij * tjab
    p0, p1 = complex(k1, d1_bare) * den_xi - ij * ijc, 1j * tg1 * den_xi
    # W, Q1, Q2 in ascending powers of x
    w0 = s * (g1 * (n0 * n0.conjugate()).real - 2.0 * jab * (u * n0 * p0.conjugate()).real)
    w1 = s * (g1 * 2.0 * (n0 * n1.conjugate()).real
              - 2.0 * jab * (u * (n1 * p0.conjugate() + n0 * p1.conjugate())).real)
    w2 = s * (g1 * (n1 * n1.conjugate()).real - 2.0 * jab * (u * n1 * p1.conjugate()).real)
    q10, q11, q12 = (p0 * p0.conjugate()).real, 2.0 * (p0 * p1.conjugate()).real, \
        (p1 * p1.conjugate()).real
    q20, q21, q22 = k2 * k2 + d2_bare * d2_bare, 2.0 * d2_bare * tg2, tg2 * tg2
    t = s * g2 * (e2 * e2.conjugate()).real
    k = -2.0 * s * jab * (tjab / den_xi).real - 1.0
    return [k * q12 * q22,
            w2 * q22 + k * (q11 * q22 + q12 * q21),
            w1 * q22 + w2 * q21 + k * (q10 * q22 + q11 * q21 + q12 * q20),
            w0 * q22 + w1 * q21 + w2 * q20 + t * q12 + k * (q10 * q21 + q11 * q20),
            w0 * q21 + w1 * q20 + t * q11 + k * q10 * q20,
            w0 * q20 + t * q10]


def _horner(coeffs, x: float):
    """(p(x), p'(x)) for coefficients highest degree first."""
    p = dp = 0.0
    for a in coeffs:
        dp = dp * x + p
        p = p * x + a
    return p, dp


def _real_roots(coeffs: list):
    """Distinct real roots, each polished by NEWTON_STEPS Newton steps, as
    {root: slope of the polynomial there}, nearest 0 first; and the number
    of Newton steps.

    Polished roots within REAL_ROOT_RTOL (relative, floor 1) of each other
    are the copies of one multiple root, where Newton converges only
    linearly; they count once, with slope 0.
    """
    if not all(map(math.isfinite, coeffs)):
        raise NonConvergenceError("mean-field polynomial overflowed; "
                                  "drives too strong for a finite steady state", iterations=0)
    poly = list(coeffs)
    starts = []
    while poly and poly[-1] == 0.0:     # a zero constant term: a root at 0
        poly.pop()
        starts = [0.0]
    while len(poly) > 1:
        if poly[0] != 0.0:
            row = [-a / poly[0] for a in poly[1:]]
            if all(map(math.isfinite, row)):
                break
        # a zero lead, or one so small that a ratio overflows (its lost roots lie past |x| ~ 1e61)
        poly.pop(0)
    if len(poly) > 1:
        companion = np.eye(len(row), k=-1)
        companion[0] = row
        try:
            eigs = lapack.eigvals(companion).tolist()
        except lapack.LinAlgError as exc:
            raise NonConvergenceError(f"mean-field root enumeration failed: {exc}",
                                      iterations=0) from exc
        starts += [z.real for z in eigs if abs(z.imag) <= REAL_ROOT_RTOL * abs(z)]
    polished = []
    for x in starts:
        for _ in range(NEWTON_STEPS):
            p, dp = _horner(coeffs, x)
            if dp != 0.0 and math.isfinite(p / dp):
                x -= p / dp
        polished.append(x)
    roots = []      # (root, slope), ascending
    for x in sorted(polished):
        if roots and x - roots[-1][0] <= REAL_ROOT_RTOL * max(1.0, abs(x), abs(roots[-1][0])):
            roots[-1] = (roots[-1][0], 0.0)
        else:
            roots.append((x, _horner(coeffs, x)[1]))
    return dict(sorted(roots, key=lambda r: abs(r[0]))), NEWTON_STEPS * len(starts)


def _linearized(base: SystemParams, state, raw: RawDriveParams) -> SystemParams:
    """The point linearized about the mean-field `state` of the drives `raw`,
    in the frame where G1 = g1 alpha1 is real: turning cavity 1 by
    arg(alpha1) takes that angle off the J_ac phase of the drives' frame."""
    alpha1, alpha2, _, beta = state
    return base.with_values(delta1_eff=raw.delta1_bare + 2.0 * raw.g1 * beta.real,
                            delta2_eff=raw.delta2_bare + 2.0 * raw.g2 * beta.real,
                            g1_eff=raw.g1 * abs(alpha1), g2_eff=raw.g2 * abs(alpha2),
                            phi=base.phi - cmath.phase(alpha1))


def _is_stable(point: SystemParams) -> bool:
    """`evaluate_point`'s verdict on the linearized record `point`, kept for
    the evaluation of the record the solver returns."""
    return stability_verdict(point).stable


def _fixed_points(raw: RawDriveParams, base: SystemParams):
    """The certified roots as (slope, state, residual), nearest x = 0 first,
    and the Newton steps spent; a NonConvergenceError when there is none."""
    tol = RESIDUAL_RTOL * max(1.0, abs(raw.drive_e1), abs(raw.drive_e2))
    c = _map_constants(raw, base)
    roots, steps = _real_roots(_quintic(raw, base, c))
    certified, rejected = [], []
    for x, slope in roots.items():
        try:
            a1, a2, xi, b = state = _state_at(x, c)
            r1, r2, r3, r4 = _rhs(state, c)
            res = max(abs(a1 - r1), abs(a2 - r2), abs(xi - r3), abs(b - r4))
        except OverflowError:   # |alpha|^2 beyond the floats at a huge root
            res = math.inf
        if not res <= tol:      # a NaN residual fails too
            rejected.append(res)
        else:
            certified.append((slope, state, res))
    if not certified:
        finite = [r for r in rejected if not math.isnan(r)]
        res = min(finite) if finite else math.nan if rejected else None
        raise NonConvergenceError(
            f"none of the {len(roots)} real roots of the mean-field polynomial passes "
            f"the residual test (smallest residual {res}, tolerance {tol:.3e})",
            residual=res, iterations=steps)
    return certified, steps


def solve_steady_state(raw: RawDriveParams, base: SystemParams) -> SteadyState:
    """The mean-field fixed point on the stable branch nearest Re(beta) = 0.

    Every real root of the polynomial that `_rhs` certifies is a fixed
    point.  A root where the polynomial rises cannot be stable (the drift
    has det(A) < 0 there), so the candidates are the others, nearest to
    x = 0, the decoupled point, first.  A lone candidate is the answer;
    of several, the first one the drift's spectrum calls stable is, and
    with two stable ones (bistability) that is an explicit choice of the
    one nearer x = 0.  With none stable the nearest candidate is
    returned, unstable, as `evaluate_point` then reports it; with no
    candidate, the nearest root.  Each candidate looked at is linearized
    once, and the returned one's record is kept for `apply_steady_state`.
    """
    certified, steps = _fixed_points(raw, base)
    candidates = [(state, res) for slope, state, res in certified if slope <= 0.0]
    candidates = candidates or [certified[0][1:]]
    nearest = None
    for state, res in candidates:
        point = _linearized(base, state, raw)
        nearest = nearest or (state, res, point)
        if len(candidates) == 1 or _is_stable(point):
            break
    else:
        state, res, point = nearest
    alpha1, alpha2, xi, beta = state
    return SteadyState(alpha1=alpha1, alpha2=alpha2, xi=xi, beta=beta, raw=raw,
                       residual_norm=res, iterations=steps, real_roots=len(certified),
                       point=point, base=base)


def apply_steady_state(base: SystemParams, ss: SteadyState) -> SystemParams:
    """The parameter record `base` linearized about the solved state: for the
    base object it was solved on, the very record the solver built."""
    if base is ss.base:
        return ss.point
    return _linearized(base, (ss.alpha1, ss.alpha2, ss.xi, ss.beta), ss.raw)
