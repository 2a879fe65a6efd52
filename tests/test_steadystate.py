import cmath
import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from optocorr import cli
from optocorr.errors import NonConvergenceError, OptocorrError, ParameterError
from optocorr.dynamics import build_drift, default_margin_tol
from optocorr.params import (TWO_PI, RawDriveParams, SystemParams, drive_from_config,
                             params_from_config)
from optocorr.pipeline import evaluate_point
import optocorr.pipeline as pipeline
import optocorr.steadystate as steadystate
from optocorr.steadystate import apply_steady_state, solve_steady_state

from conftest import spy_drift_spectra


def make_raw(g1=0.0, g2=0.0, e1=0.0, e2=0.0, d1=None, d2=None, base=None):
    d = base.omega_m if base is not None else TWO_PI * 24.0
    return RawDriveParams(g1=g1, g2=g2, drive_e1=e1, drive_e2=e2,
                          delta1_bare=d1 if d1 is not None else d,
                          delta2_bare=d2 if d2 is not None else d)


def mean_field_rhs(state, raw, base):
    """Independent transcription of the mean-field fixed-point equations."""
    a1, a2, xi, b = state
    j_ac = base.j_ac_mag * cmath.exp(1j * base.phi)
    d1 = raw.delta1_bare + 2 * raw.g1 * b.real
    d2 = raw.delta2_bare + 2 * raw.g2 * b.real
    return (
        (raw.drive_e1 - 1j * j_ac * xi) / (1j * d1 + base.kappa1),
        raw.drive_e2 / (1j * d2 + base.kappa2),
        -(1j * j_ac.conjugate() * a1 + 2j * base.j_ab * b.real) / (1j * base.delta_at + base.f),
        -(1j * raw.g1 * abs(a1) ** 2 + 1j * raw.g2 * abs(a2) ** 2
          + 2j * base.j_ab * xi.real) / (1j * base.omega_m + base.gamma_m),
    )


# The damped fixed-point iteration that solved the mean field before the
# real roots of the polynomial were enumerated, kept as the oracle they are
# checked against.  It returns the state, residual and step count instead of
# a SteadyState; the loop is unchanged.
MAX_ITER = 10_000
DAMPING_DEFAULT = 0.5
DAMPING_FALLBACK = 0.1


def damped_fixed_point(raw, base):
    """Damped fixed-point iteration from the decoupled closed form.

    Damping starts at 0.5 and drops to 0.1 the first time the residual
    increases.  Returns the branch reached from the decoupled initial
    point; no branch enumeration.
    """
    tol = steadystate.RESIDUAL_RTOL * max(1.0, abs(raw.drive_e1), abs(raw.drive_e2))
    c = steadystate._map_constants(raw, base)

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
        r1, r2, r3, r4 = steadystate._rhs((alpha1, alpha2, xi, beta), c)
        res = max(abs(alpha1 - r1), abs(alpha2 - r2), abs(xi - r3), abs(beta - r4))
        for iterations in range(1, MAX_ITER + 1):
            if res <= tol:
                break
            alpha1 = mu * alpha1 + lam * r1
            alpha2 = mu * alpha2 + lam * r2
            xi = mu * xi + lam * r3
            beta = mu * beta + lam * r4
            r1, r2, r3, r4 = steadystate._rhs((alpha1, alpha2, xi, beta), c)
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
    return (alpha1, alpha2, xi, beta), res, iterations


class TestDecoupledLimits:
    def test_decoupled_closed_form(self, base_params):
        p = base_params.with_values(j_ac_mag=0.0, j_ab=0.0)
        raw = make_raw(e1=100.0, e2=50.0, base=p)
        ss = solve_steady_state(raw, p)
        assert ss.alpha1 == pytest.approx(100.0 / (1j * raw.delta1_bare + p.kappa1), rel=1e-10)
        assert ss.alpha2 == pytest.approx(50.0 / (1j * raw.delta2_bare + p.kappa2), rel=1e-10)
        assert ss.xi == pytest.approx(0.0, abs=1e-12)
        assert ss.beta == pytest.approx(0.0, abs=1e-12)

    def test_undriven_fixed_point_is_zero(self, base_params):
        raw = make_raw(g1=1e-3, g2=1e-3, base=base_params)
        ss = solve_steady_state(raw, base_params)
        for amp in (ss.alpha1, ss.alpha2, ss.xi, ss.beta):
            assert abs(amp) < 1e-12

    def test_gauge_phase_rotation(self, base_params):
        p = base_params.with_values(j_ac_mag=0.0, j_ab=0.0)
        theta = 0.7
        ss0 = solve_steady_state(make_raw(e1=100.0, base=p), p)
        ss1 = solve_steady_state(make_raw(e1=100.0 * cmath.exp(1j * theta), base=p), p)
        assert abs(ss1.alpha1) == pytest.approx(abs(ss0.alpha1), rel=1e-10)
        assert ss1.alpha1 == pytest.approx(ss0.alpha1 * cmath.exp(1j * theta), rel=1e-10)


class TestCoupledSolve:
    def test_residual_substitution_oracle(self, base_params):
        raw = make_raw(g1=TWO_PI * 2e-3, g2=TWO_PI * 3e-3, e1=2000.0, e2=1500.0,
                       base=base_params)
        ss = solve_steady_state(raw, base_params)
        state = (ss.alpha1, ss.alpha2, ss.xi, ss.beta)
        rhs = mean_field_rhs(state, raw, base_params)
        res = max(abs(x - y) for x, y in zip(state, rhs))
        tol = 1e-10 * max(1.0, abs(raw.drive_e1), abs(raw.drive_e2))
        assert res <= tol
        assert ss.residual_norm <= tol
        assert ss.iterations >= 1

    def test_cubic_root_oracle_single_cavity(self, base_params):
        # J_ac = J_ab = 0, g2 = 0: Re(beta) is a root of a cubic
        p = base_params.with_values(j_ac_mag=0.0, j_ab=0.0)
        g1 = TWO_PI * 5e-3
        e1 = 3000.0
        raw = make_raw(g1=g1, e1=e1, base=p)
        ss = solve_steady_state(raw, p)
        d1, k1 = raw.delta1_bare, p.kappa1
        c = p.omega_m * g1 * e1 ** 2 / (p.omega_m ** 2 + p.gamma_m ** 2)
        roots = np.roots([4 * g1 ** 2, 4 * g1 * d1, d1 ** 2 + k1 ** 2, c])
        real_roots = roots[np.abs(roots.imag) < 1e-9].real
        # the solver tolerance scales with |E1|, so the root match does too
        assert np.min(np.abs(real_roots - ss.beta.real)) < 1e-9 * max(1.0, abs(e1))

    def test_one_map_evaluation_per_real_root(self, base_params, monkeypatch):
        raw = make_raw(g1=TWO_PI * 2e-3, g2=TWO_PI * 3e-3, e1=2000.0, e2=1500.0,
                       base=base_params)
        calls = []
        original = steadystate._rhs

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(steadystate, "_rhs", counting)
        ss = solve_steady_state(raw, base_params)
        roots, steps = steadystate._real_roots(quintic(raw, base_params))
        assert len(calls) == len(roots) == ss.real_roots
        assert ss.iterations == steps == steadystate.NEWTON_STEPS * len(roots)

    def test_no_certified_root_reports_residual(self, base_params, monkeypatch):
        raw = make_raw(g1=TWO_PI * 2e-3, e1=2000.0, base=base_params)
        monkeypatch.setattr(steadystate, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(NonConvergenceError, match="passes the residual test") as exc:
            solve_steady_state(raw, base_params)
        assert exc.value.residual > 0.0
        assert exc.value.iterations >= steadystate.NEWTON_STEPS

    def test_nan_residual_never_accepted(self, base_params, monkeypatch):
        nan = complex(math.nan, math.nan)
        monkeypatch.setattr(steadystate, "_rhs", lambda *args: (nan,) * 4)
        with pytest.raises(NonConvergenceError, match="passes the residual test") as exc:
            solve_steady_state(make_raw(e1=100.0, base=base_params), base_params)
        assert math.isnan(exc.value.residual)

    def test_overflow_is_nonconvergence(self, base_params):
        # |E|^2 overflows a float in the polynomial's coefficients
        raw = make_raw(g1=TWO_PI * 1e-3, g2=TWO_PI * 1e-3, e1=TWO_PI * 1e160,
                       e2=TWO_PI * 1e160, base=base_params)
        with pytest.raises(NonConvergenceError, match="overflowed") as exc:
            solve_steady_state(raw, base_params)
        assert exc.value.iterations == 0

    def test_negligible_leading_coefficient_is_dropped(self, base_params):
        # finite coefficients, but a lead so small that the companion would overflow:
        # the roots that remain are those of the drive with that coupling zeroed
        no_jac = base_params.with_values(j_ac_mag=0.0)
        cases = [
            (base_params, dict(g1=1e-150, g2=TWO_PI * 1e-3, e1=1e4, e2=1e4), "g1", False),
            # the coefficient below the lead underflows to -0.0 and must go too;
            # once, the companion row divided by it
            (no_jac, dict(g1=TWO_PI * 1e-3, g2=TWO_PI * 1e-158, e1=TWO_PI * 1e4,
                          d1=0.0, d2=0.0), "g2", True),
        ]
        for base, kw, tiny, zero_below in cases:
            raw = make_raw(**kw, base=base)
            coeffs = quintic(raw, base)
            assert coeffs[0] != 0.0 and all(map(math.isfinite, coeffs))
            assert not all(math.isfinite(a / coeffs[0]) for a in coeffs[1:])
            assert (coeffs[1] == 0.0) == zero_below
            ss = solve_steady_state(raw, base)
            ref = solve_steady_state(make_raw(**{**kw, tiny: 0.0}, base=base), base)
            assert ss.beta == pytest.approx(ref.beta, rel=1e-12)
            assert ss.real_roots == ref.real_roots

    @pytest.mark.parametrize("g1", [1e-155, 1e-200])
    def test_root_whose_state_overflows_is_rejected(self, base_params, g1):
        # a root near 1/g1, where |alpha1|^2 is beyond the floats, is not a fixed point
        raw = make_raw(g1=g1, g2=TWO_PI * 1e-3, e1=1e4, e2=1e4, base=base_params)
        roots = steadystate._real_roots(quintic(raw, base_params))[0]
        assert max(map(abs, roots)) > 1e150
        ss = solve_steady_state(raw, base_params)
        ref = solve_steady_state(make_raw(g2=TWO_PI * 1e-3, e1=1e4, e2=1e4, base=base_params),
                                 base_params)
        assert ss.beta == pytest.approx(ref.beta, rel=1e-12)
        assert ss.real_roots == ref.real_roots


def hex_parts(values):
    return [(float.hex(z.real), float.hex(z.imag)) for z in values]


class TestMapOracle:
    """The solver's map, with its hoisted constants, equals the
    transcription above bit for bit."""

    PHASES = (0.0, math.pi / 2, 2.0955348232)

    def random_state(self, rng, signed_zeros):
        if signed_zeros:
            return tuple(complex(rng.choice((0.0, -0.0, 1.0, -1.0)),
                                 rng.choice((0.0, -0.0, 1.0, -1.0))) for _ in range(4))
        return tuple(complex(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
                     for _ in range(4))

    def random_raw(self, rng, zero_couplings, base):
        g1, g2 = (0.0, 0.0) if zero_couplings else (rng.uniform(0.0, 0.02),
                                                    rng.uniform(0.0, 0.02))
        return make_raw(g1=g1, g2=g2, e1=complex(rng.uniform(-1e5, 1e5), rng.uniform(-1e3, 1e3)),
                        e2=rng.choice((0.0, -0.0, rng.uniform(0.0, 1e5))),
                        d1=rng.uniform(-2.0, 2.0) * base.omega_m,
                        d2=rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0) * base.omega_m)))

    @pytest.mark.parametrize("phi", PHASES)
    @pytest.mark.parametrize("zero_couplings", [False, True])
    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_map_equals_oracle_by_float_hex(self, base_params, phi, zero_couplings,
                                            signed_zeros):
        rng = random.Random(f"{phi} {zero_couplings} {signed_zeros}")
        base = base_params.with_values(phi=phi)
        if zero_couplings:
            base = base.with_values(j_ac_mag=0.0, j_ab=0.0)
        for _ in range(200):
            raw = self.random_raw(rng, zero_couplings, base)
            state = self.random_state(rng, signed_zeros)
            got = steadystate._rhs(state, steadystate._map_constants(raw, base))
            assert hex_parts(got) == hex_parts(mean_field_rhs(state, raw, base))


class TestDriveRecord:
    FINITE = dict(g1=1.0, g2=1.0, drive_e1=100.0, drive_e2=100.0,
                  delta1_bare=150.0, delta2_bare=150.0)

    @pytest.mark.parametrize("field", sorted(FINITE))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, bad):
        with pytest.raises(ParameterError):
            RawDriveParams(**{**self.FINITE, field: bad})

    @pytest.mark.parametrize("field", ["drive_e1", "drive_e2"])
    def test_non_finite_complex_drive_rejected(self, field):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            RawDriveParams(**{**self.FINITE, field: complex(1.0, math.inf)})


class TestEffectiveParams:
    def test_zero_beta_keeps_bare_detunings(self, base_params):
        p = base_params.with_values(j_ac_mag=0.0, j_ab=0.0)
        raw = make_raw(g1=TWO_PI * 1e-3, base=p)   # undriven: beta = 0
        point = apply_steady_state(p, solve_steady_state(raw, p))
        assert point.delta1_eff == pytest.approx(raw.delta1_bare)
        assert point.delta2_eff == pytest.approx(raw.delta2_bare)
        assert point.g1_eff == pytest.approx(0.0, abs=1e-12)
        assert point.g2_eff == pytest.approx(0.0, abs=1e-12)

    def test_decoupled_effective_coupling_closed_form(self, base_params):
        p = base_params.with_values(j_ac_mag=0.0, j_ab=0.0)
        g1 = TWO_PI * 1e-6  # weak enough that beta shift is negligible
        e1 = 100.0
        raw = make_raw(g1=g1, e1=e1, base=p)
        point = apply_steady_state(p, solve_steady_state(raw, p))
        expected = g1 * e1 / math.sqrt(raw.delta1_bare ** 2 + p.kappa1 ** 2)
        assert point.g1_eff == pytest.approx(expected, rel=1e-6)

    def test_apply_steady_state_replaces_effective_fields(self, base_params):
        p = base_params.with_values(j_ac_mag=0.0, j_ab=0.0)
        raw = make_raw(g1=TWO_PI * 5e-3, e1=3000.0, base=p)
        ss = solve_steady_state(raw, p)
        updated = apply_steady_state(p, ss)
        assert updated.g1_eff == raw.g1 * abs(ss.alpha1)
        assert updated.delta1_eff == raw.delta1_bare + 2.0 * raw.g1 * ss.beta.real
        assert updated.phi == p.phi - cmath.phase(ss.alpha1)
        assert updated.omega_m == p.omega_m

    def test_other_base_is_linearized_afresh(self, base_params):
        # the solver's own record goes only to the base object it was solved on
        p = base_params.with_values(j_ac_mag=0.0, j_ab=0.0)
        raw = make_raw(g1=TWO_PI * 5e-3, e1=3000.0, base=p)
        ss = solve_steady_state(raw, p)
        assert apply_steady_state(p, ss) is ss.point
        state = (ss.alpha1, ss.alpha2, ss.xi, ss.beta)
        for other in (p.with_values(), p.with_values(temperature=2.0 * p.temperature)):
            point = apply_steady_state(other, ss)
            expected = steadystate._linearized(other, state, ss.raw)
            assert point is not ss.point
            for fld in dataclasses.fields(SystemParams):
                assert (float.hex(getattr(point, fld.name))
                        == float.hex(getattr(expected, fld.name))), fld.name

    def test_kept_record_is_outside_equality_and_repr(self, base_params):
        raw = make_raw(g1=TWO_PI * 5e-3, e1=3000.0, base=base_params)
        ss, again = (solve_steady_state(raw, base_params) for _ in range(2))
        assert ss.point is not again.point and ss == again and hash(ss) == hash(again)
        assert repr(ss) == repr(again) and "point=" not in repr(ss) and "base=" not in repr(ss)


def spy_stability(monkeypatch):
    """The verdicts the solver asks for, in order."""
    checks = []
    original = steadystate._is_stable

    def spy(*args):
        checks.append(original(*args))
        return checks[-1]

    monkeypatch.setattr(steadystate, "_is_stable", spy)
    return checks


def is_stable(state, raw, base):
    """The solver's verdict on the root `state`, asked of a fresh linearized record."""
    return steadystate._is_stable(steadystate._linearized(base, state, raw))


def drive_cases():
    """The golden drive configs as (index, raw, base)."""
    from test_golden import drive_configs
    for i, cfg in enumerate(drive_configs()):
        base = params_from_config(cfg)
        yield i, cfg, drive_from_config(cfg, base), base


def quintic(raw, base):
    return steadystate._quintic(raw, base, steadystate._map_constants(raw, base))


def bistable_case():
    """(raw, base) of draw 475 of seed 7 over the golden drive ranges: three
    roots, both candidates (the outer two) stable.  No golden drive config
    has two stable roots; this is 1 of 11 such draws in 20,000."""
    from test_golden import DRIVE_RANGES
    rng = random.Random(7)
    for _ in range(476):
        cfg = {key: rng.uniform(lo, hi) for key, lo, hi in DRIVE_RANGES}
    base = params_from_config(cfg)
    return drive_from_config(cfg, base), base


def flow_jacobian(state, raw, base):
    """Central-difference Jacobian, in the 8 real components of the state,
    of the mean-field equations state' = -den (state - _rhs(state)).

    Each new value of `_rhs` is a numerator over its component's den, so
    1/den is `_rhs` with unit numerators: e1 = e2 = 1 and ij = 0 for the
    cavities, ijc = ig1 = -1 with tjab = 0 and alpha1 = 1 for xi and beta."""
    c = steadystate._map_constants(raw, base)
    unit = (1.0, 1.0, *c[2:8], 0.0, -1.0, 0.0, -1.0, 0.0, *c[13:])

    def flow(z):
        state = tuple(complex(z[k], z[k + 1]) for k in range(0, 8, 2))
        inv_den = steadystate._rhs((1.0, 0.0, 0.0, state[3]), unit)
        out = [(r - s) / d for s, r, d in zip(state, steadystate._rhs(state, c), inv_den)]
        return np.array([part for w in out for part in (w.real, w.imag)])

    z = np.array([part for w in state for part in (w.real, w.imag)])
    h = 1e-6 * max(1.0, np.max(np.abs(z)))
    jac = np.empty((8, 8))
    for k, dz in enumerate(h * np.eye(8)):
        jac[:, k] = (flow(z + dz) - flow(z - dz)) / (2.0 * h)
    return jac


class TestLinearization:
    """The linearized point against the mean-field equations it linearizes,
    at every certified root of the 303 golden drive configs."""

    def test_drift_spectrum_is_the_mean_field_jacobians(self):
        # the spectrum is frame-free; the point is taken in the frame where G1 is
        # real, so a J_ac phase left in the drives' frame moves it
        roots = 0
        for i, _, raw, base in drive_cases():
            try:
                certified = steadystate._fixed_points(raw, base)[0]
            except NonConvergenceError:
                continue
            for _, state, _ in certified:
                point = steadystate._linearized(base, state, raw)
                drift = np.linalg.eigvals(build_drift(point))
                jac = np.linalg.eigvals(flow_jacobian(state, raw, base))
                gaps = np.abs(drift[:, None] - jac[None, :])
                # Hausdorff distance, relative to the spectral radius
                dist = max(gaps.min(axis=1).max(), gaps.min(axis=0).max()) / np.abs(drift).max()
                assert dist <= 1e-8, (i, dist)
                verdict = jac.real.max() < -default_margin_tol(point)
                assert steadystate._is_stable(point) == verdict, i
                roots += 1
        assert roots == 848


class TestAgainstDampedOracle:
    """The certified roots against the iteration they replaced, on the
    303 golden drive configs."""

    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for i, cfg, raw, base in drive_cases():
            try:
                oracle = damped_fixed_point(raw, base)
            except NonConvergenceError as exc:
                oracle = exc
            try:
                roots = steadystate._fixed_points(raw, base)[0]
            except NonConvergenceError as exc:
                roots = exc
            out.append((i, cfg, raw, base, oracle, roots))
        return out

    def test_every_converged_oracle_lies_on_a_certified_root(self, cases):
        # the iteration stops once its residual is under the tolerance; the
        # state it stops at is then within 1e-6 relative of the fixed point
        converged = 0
        for i, _, _, _, oracle, roots in cases:
            if isinstance(oracle, NonConvergenceError):
                continue
            converged += 1
            state = oracle[0]
            scale = max(abs(z) for z in state)
            gaps = [max(abs(a - b) for a, b in zip(state, root)) for _, root, _ in roots]
            assert min(gaps) <= 1e-6 * scale, i
        assert converged == len(cases) - 2

    def test_oracle_failures_are_the_overflow_and_the_nonconverging_edge(self, cases):
        failed = {i: str(o) for i, _, _, _, o, _ in cases if isinstance(o, NonConvergenceError)}
        assert sorted(failed) == [300, 301]
        assert "did not converge" in failed[300] and "overflowed" in failed[301]
        assert [i for i, *_, r in cases if isinstance(r, NonConvergenceError)] == [301]

    def test_positive_slope_roots_have_negative_drift_determinant(self, cases):
        # the reason a root where the polynomial rises is never tried for stability
        checked = 0
        for i, _, raw, base, _, roots in cases:
            if isinstance(roots, NonConvergenceError):
                continue
            for slope, state, _ in roots:
                if slope > 0.0:
                    point = steadystate._linearized(base, state, raw)
                    assert np.linalg.det(build_drift(point)) < 0.0, i
                    checked += 1
        assert checked > 100

    def test_bistable_config_takes_the_stable_root_nearest_zero(self, monkeypatch):
        raw, base = bistable_case()
        roots = steadystate._fixed_points(raw, base)[0]
        stable = [is_stable(state, raw, base) for _, state, _ in roots]
        assert stable == [True, False, True]
        checks = spy_stability(monkeypatch)
        ss = solve_steady_state(raw, base)
        assert ss.real_roots == 3 and ss.beta == roots[0][1][3]
        assert checks == [True]     # the nearest candidate is stable: one check
        assert evaluate_point(apply_steady_state(base, ss), ("stability",)).verdict.stable
        oracle = damped_fixed_point(raw, base)
        assert abs(ss.beta.real - oracle[0][3].real) <= 1e-6 * abs(ss.beta.real)

    def test_solver_verdict_is_the_pipeline_verdict(self, monkeypatch):
        # no margin passes: the solver must see the pipeline's rule, not a copy
        raw, base = bistable_case()
        roots = steadystate._fixed_points(raw, base)[0]
        stable = [state for _, state, _ in roots if is_stable(state, raw, base)]
        assert len(stable) == 2
        monkeypatch.setattr(pipeline, "default_margin_tol", lambda params: math.inf)
        assert [is_stable(state, raw, base) for state in stable] == [False, False]

    def test_formerly_nonconverging_config_is_unique_and_unstable(self, cases, monkeypatch):
        _, _, raw, base, oracle, _ = cases[300]
        assert "possible multistable" in str(oracle)
        checks = spy_stability(monkeypatch)
        ss = solve_steady_state(raw, base)
        assert ss.real_roots == 1 and checks == []  # a lone candidate needs no verdict
        result = evaluate_point(apply_steady_state(base, ss))
        assert not result.verdict.stable and result.report is None

    def test_no_stable_candidate_returns_the_nearest(self, cases, monkeypatch):
        # configs 29, 122 and 238 have three roots and none is stable
        for i in (29, 122, 238):
            _, _, raw, base, _, roots = cases[i]
            checks = spy_stability(monkeypatch)
            ss = solve_steady_state(raw, base)
            assert checks == [False, False]   # both candidates (the outer roots) tried
            assert ss.beta == roots[0][1][3] and roots[0][0] < 0.0


class TestOneDiagonalizationPerDrift:
    """A drive op diagonalizes each distinct drift once: the record the solver
    checked is the record its caller evaluates, over the 303 golden drive configs."""

    def test_solve_apply_evaluate_chain(self, monkeypatch):
        spectra = spy_drift_spectra(monkeypatch)
        solver_checked = 0
        for i, _, raw, base in drive_cases():
            spectra.clear()
            try:
                evaluate_point(apply_steady_state(base, solve_steady_state(raw, base)))
            except OptocorrError:
                continue
            assert len(set(spectra)) == len(spectra), i
            solver_checked += len(spectra) > 1
        assert solver_checked > 0   # the spy sees the solver's checks too

    def test_steady_command_chain(self, monkeypatch):
        from test_golden import drive_configs
        spectra = spy_drift_spectra(monkeypatch)
        ran = 0
        for i, cfg in enumerate(drive_configs()):
            spectra.clear()
            try:
                cli.cmd_steady(SimpleNamespace(format="json"), cfg, params_from_config(cfg))
            except OptocorrError:
                continue
            assert spectra and len(set(spectra)) == len(spectra), i
            ran += 1
        assert ran == 302


class TestRealRoots:
    def test_roots_slopes_and_newton_steps(self):
        # 2x^3 - 3x^2 + x = x (2x - 1)(x - 1): the zero root is factored out
        roots, steps = steadystate._real_roots([2.0, -3.0, 1.0, 0.0])
        assert roots == {0.0: 1.0, 0.5: -0.5, 1.0: 1.0}
        assert steps == 3 * steadystate.NEWTON_STEPS

    def test_near_double_root_is_a_candidate(self):
        # (x - 1)^2 + 1e-14: the companion's eigenvalues are 1 +- 1e-7 i, a
        # tangency that rounding may put on either side of the real axis
        assert steadystate._real_roots([1.0, -2.0, 1.0 + 1e-14])[0] == {1.0: 0.0}

    @pytest.mark.parametrize("coeffs,simple", [([1.0, 0.0, -3.0, 2.0], (-2.0, 9.0)),
                                               ([1.0, -1.0, -1.0, 1.0], (-1.0, 4.0))])
    def test_double_root_counts_once(self, coeffs, simple):
        # (x - 1)^2 (x + 2) and (x - 1)^2 (x + 1): eigvals splits the double root
        # into 1 +- 2e-8 and Newton converges only linearly there, so two copies
        # 8e-9 apart were counted as two roots; they are one, of true slope 0
        roots, steps = steadystate._real_roots(coeffs)
        assert len(roots) == 2 and steps == 3 * steadystate.NEWTON_STEPS
        double = next(x for x in roots if x > 0.0)
        assert abs(double - 1.0) <= 1e-8 and roots[double] == 0.0
        assert list(roots.items()) == sorted([(double, 0.0), simple], key=lambda r: abs(r[0]))

    def test_complex_pair_is_not(self):
        assert steadystate._real_roots([1.0, 0.0, 1.0]) == ({}, 0)

    def test_zero_lead_under_a_negligible_one_is_dropped(self):
        # the 1e-310 lead's ratio overflows; the 0.0 under it would then divide
        assert steadystate._real_roots([1e-310, 0.0, 1.0, 1.0]) == ({-1.0: 1.0}, 2)

    def test_zero_polynomial_has_the_root_zero(self):
        # every x is a root; x = 0, the decoupled point, is the one enumerated
        assert steadystate._real_roots([-0.0, -0.0, -0.0, -0.0, 0.0, -0.0]) == ({0.0: 0.0}, 2)


class TestDegreeDrop:
    @pytest.mark.parametrize("zero", ["g1", "g2"])
    def test_zero_coupling_drops_two_degrees(self, base_params, zero):
        kw = dict(g1=TWO_PI * 2e-3, g2=TWO_PI * 3e-3, e1=2000.0, e2=1500.0)
        kw[zero] = 0.0
        coeffs = quintic(make_raw(**kw, base=base_params), base_params)
        assert coeffs[:2] == [0.0, 0.0] and coeffs[2] != 0.0

    def test_zero_drive_zeroes_the_constant_term(self, base_params):
        raw = make_raw(g1=TWO_PI * 2e-3, g2=TWO_PI * 3e-3, base=base_params)
        coeffs = quintic(raw, base_params)
        assert coeffs[0] != 0.0 and coeffs[-1] == 0.0
        ss = solve_steady_state(raw, base_params)
        assert (ss.alpha1, ss.alpha2, ss.xi, ss.beta) == (0.0, 0.0, 0.0, 0.0)

    def test_undriven_golden_config(self):
        # g2 = 0 and no drive: a cubic with a zero constant term
        *_, raw, base = list(drive_cases())[302]
        coeffs = quintic(raw, base)
        assert coeffs[:2] == [0.0, 0.0] and coeffs[-1] == 0.0 and coeffs[2] != 0.0
        ss = solve_steady_state(raw, base)
        assert ss.beta == 0.0 and ss.residual_norm == 0.0

    def test_undriven_with_every_coefficient_underflowed(self, base_params):
        # kappa1 = kappa2 = 2 pi 1e-300: every coefficient of the cubic underflows
        base = base_params.with_values(kappa1=TWO_PI * 1e-300, kappa2=TWO_PI * 1e-300,
                                       j_ac_mag=0.0)
        raw = make_raw(g1=TWO_PI * 1e-3, d1=0.0, d2=0.0, base=base)
        assert not any(quintic(raw, base))
        ss = solve_steady_state(raw, base)
        assert (ss.alpha1, ss.alpha2, ss.xi, ss.beta) == (0.0, 0.0, 0.0, 0.0)
        assert ss.real_roots == 1
