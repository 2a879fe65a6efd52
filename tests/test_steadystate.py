import cmath
import math

import numpy as np
import pytest

from optocorr.errors import NonConvergenceError, ParameterError
from optocorr.params import TWO_PI, RawDriveParams
import optocorr.steadystate as steadystate
from optocorr.steadystate import apply_steady_state, solve_steady_state


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

    def test_one_map_evaluation_per_iteration(self, base_params, monkeypatch):
        raw = make_raw(g1=TWO_PI * 2e-3, g2=TWO_PI * 3e-3, e1=2000.0, e2=1500.0,
                       base=base_params)
        calls = []
        original = steadystate._rhs

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(steadystate, "_rhs", counting)
        ss = solve_steady_state(raw, base_params)
        assert ss.iterations > 1
        assert len(calls) == ss.iterations

    def test_nonconvergence_reports_residual(self, base_params, monkeypatch):
        raw = make_raw(g1=TWO_PI * 2e-3, e1=2000.0, base=base_params)
        monkeypatch.setattr(steadystate, "MAX_ITER", 2)
        with pytest.raises(NonConvergenceError) as exc:
            solve_steady_state(raw, base_params)
        assert exc.value.residual is not None
        assert exc.value.iterations == 2

    def test_nan_residual_never_converges(self, base_params, monkeypatch):
        nan = complex(math.nan, math.nan)
        monkeypatch.setattr(steadystate, "_rhs", lambda *args: (nan,) * 4)
        monkeypatch.setattr(steadystate, "MAX_ITER", 3)
        with pytest.raises(NonConvergenceError, match="did not converge"):
            solve_steady_state(make_raw(e1=100.0, base=base_params), base_params)

    def test_overflow_is_nonconvergence(self, base_params):
        # |alpha1|^2 overflows a float on the first map evaluation
        raw = make_raw(g1=TWO_PI * 1e-3, g2=TWO_PI * 1e-3, e1=TWO_PI * 1e160,
                       e2=TWO_PI * 1e160, base=base_params)
        with pytest.raises(NonConvergenceError, match="overflowed") as exc:
            solve_steady_state(raw, base_params)
        assert exc.value.iterations == 0


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
        ss = solve_steady_state(raw, p)
        assert ss.delta1_eff == pytest.approx(raw.delta1_bare)
        assert ss.delta2_eff == pytest.approx(raw.delta2_bare)
        assert ss.g1_eff == pytest.approx(0.0, abs=1e-12)
        assert ss.g2_eff == pytest.approx(0.0, abs=1e-12)

    def test_decoupled_effective_coupling_closed_form(self, base_params):
        p = base_params.with_values(j_ac_mag=0.0, j_ab=0.0)
        g1 = TWO_PI * 1e-6  # weak enough that beta shift is negligible
        e1 = 100.0
        raw = make_raw(g1=g1, e1=e1, base=p)
        ss = solve_steady_state(raw, p)
        expected = g1 * e1 / math.sqrt(raw.delta1_bare ** 2 + p.kappa1 ** 2)
        assert ss.g1_eff == pytest.approx(expected, rel=1e-6)

    def test_apply_steady_state_replaces_effective_fields(self, base_params):
        p = base_params.with_values(j_ac_mag=0.0, j_ab=0.0)
        raw = make_raw(g1=TWO_PI * 5e-3, e1=3000.0, base=p)
        ss = solve_steady_state(raw, p)
        updated = apply_steady_state(p, ss)
        assert updated.g1_eff == ss.g1_eff
        assert updated.delta1_eff == ss.delta1_eff
        assert updated.omega_m == p.omega_m
