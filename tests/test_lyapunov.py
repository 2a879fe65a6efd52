import numpy as np
import pytest
from scipy.integrate import solve_ivp

from optocorr import solve_lyapunov
from optocorr.errors import SingularSystemError, UnstableDriftError
from optocorr.lyapunov import RESIDUAL_RTOL, _kron_sum, lyapunov_residual, residual_bound
from optocorr.params import params_from_config
from optocorr.sweep import _apply_axes, figure_preset

from conftest import point_matrices, random_stable_system


def integrate_covariance(a, d, rel_window=35.0):
    """Time-domain oracle: integrate dV/dt = A V + V A^T + D from V(0) = 0.

    The slowest transient decays like exp(max Re eig * t), so integrating a
    fixed number of e-foldings reaches stationarity to well below 1e-6.
    """
    decay = -np.max(np.linalg.eigvals(a).real)
    t_end = rel_window / decay
    n = a.shape[0]

    def rhs(_, y):
        v = y.reshape(n, n)
        return (a @ v + v @ a.T + d).ravel()

    sol = solve_ivp(rhs, (0.0, t_end), np.zeros(n * n), rtol=1e-10, atol=1e-12,
                    method="LSODA")
    return sol.y[:, -1].reshape(n, n)


class TestClosedForms:
    def test_minus_identity(self):
        cm = solve_lyapunov(-np.eye(8), np.eye(8))
        assert np.allclose(cm.matrix, 0.5 * np.eye(8), atol=1e-14)

    def test_damped_rotation_block(self):
        gamma, omega = 0.3, 2.0
        a = np.array([[-gamma, omega], [-omega, -gamma]])
        d = 2.0 * gamma * np.eye(2)
        cm = solve_lyapunov(a, d)
        assert cm.residual_norm <= 1e-12
        assert np.allclose(cm.matrix, np.eye(2), atol=1e-12)


class TestRandomSystems:
    def test_matches_time_integration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, d = random_stable_system(8, rng)
            v = solve_lyapunov(a, d).matrix
            v_oracle = integrate_covariance(a, d)
            rel = np.linalg.norm(v - v_oracle, "fro") / np.linalg.norm(v_oracle, "fro")
            assert rel <= 1e-6

    def test_residual_bound_and_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, d = random_stable_system(8, rng)
            cm = solve_lyapunov(a, d)
            v = cm.matrix
            assert cm.residual_norm <= residual_bound(a, v, d)
            assert np.max(np.abs(v - v.T)) <= 1e-10 * np.linalg.norm(v)

    def test_linearity_in_diffusion(self):
        rng = np.random.default_rng(13)
        a, d1 = random_stable_system(8, rng)
        _, d2 = random_stable_system(8, rng)
        v_sum = solve_lyapunov(a, d1 + d2).matrix
        v_split = solve_lyapunov(a, d1).matrix + solve_lyapunov(a, d2).matrix
        assert np.linalg.norm(v_sum - v_split) <= 1e-10 * np.linalg.norm(v_sum)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(17)
        a, d = random_stable_system(8, rng)
        c = 37.5
        v0 = solve_lyapunov(a, d).matrix
        v1 = solve_lyapunov(c * a, c * d).matrix
        assert np.linalg.norm(v0 - v1) <= 1e-10 * np.linalg.norm(v0)

    def test_positive_semidefinite_for_psd_diffusion(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            a, d = random_stable_system(8, rng)
            v = solve_lyapunov(a, d).matrix
            assert np.min(np.linalg.eigvalsh(v)) >= -1e-9 * np.linalg.norm(v)


class TestErrorPaths:
    def test_unstable_drift_rejected(self):
        a = np.diag([0.1] + [-1.0] * 7)
        with pytest.raises(UnstableDriftError):
            solve_lyapunov(a, np.eye(8))

    def test_singular_system_detected(self):
        # eigenvalues +1 and -1 make A (+) A singular
        a = np.diag([1.0, -1.0])
        with pytest.raises(SingularSystemError):
            solve_lyapunov(a, np.eye(2), check_stability=False)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(3), np.eye(4))

    def test_residual_helper(self):
        a = -np.eye(4)
        v = 0.5 * np.eye(4)
        assert lyapunov_residual(a, v, np.eye(4)) <= 1e-15


class TestResidualNorm:
    """lyapunov_residual and residual_bound are numpy's Frobenius norms bit
    for bit wherever those norms are finite, and stay finite (or inf)
    without a warning where a sum of squares overflows."""

    @staticmethod
    def numpy_norm(a, v, d):
        return float(np.linalg.norm(a @ v + v @ a.T + d, "fro"))

    @staticmethod
    def numpy_bound(a, v, d):
        return float(RESIDUAL_RTOL * (np.linalg.norm(a, "fro") * np.linalg.norm(v, "fro")
                                      + np.linalg.norm(d, "fro")))

    def test_equals_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(97)
        systems = [random_stable_system(8, rng) for _ in range(30)]
        spec = figure_preset("fig3", params_from_config({}), counts=(4, 4))
        for point in spec.grid():
            a, d, verdict, _ = point_matrices(_apply_axes(spec.base, spec, point))
            if verdict.stable:
                systems.append((a, d))
        assert len(systems) > 40
        for a, d in systems:
            v = solve_lyapunov(a, d, check_stability=False).matrix
            for scale in (1.0, 1e-200, 1e150):   # the last one still sums to a finite square
                assert lyapunov_residual(a, scale * v, scale * d).hex() == \
                    self.numpy_norm(a, scale * v, scale * d).hex()
                assert residual_bound(a, scale * v, scale * d).hex() == \
                    self.numpy_bound(a, scale * v, scale * d).hex()

    def test_huge_finite_residual_is_scaled(self):
        # every square overflows; the norm of sixteen entries of 1e200 is 4e200
        a = -np.eye(4)
        assert lyapunov_residual(a, np.zeros((4, 4)), np.full((4, 4), 1e200)) == \
            pytest.approx(4e200, rel=1e-15)
        # the norm itself is beyond the floats
        assert lyapunov_residual(a, np.zeros((4, 4)), np.full((4, 4), 1e308)) == np.inf

    def test_non_finite_residual_is_non_finite(self):
        a = -np.eye(2)
        assert lyapunov_residual(a, np.zeros((2, 2)), np.diag([np.inf, 1e200])) == np.inf
        assert np.isnan(lyapunov_residual(a, np.zeros((2, 2)), np.diag([np.nan, 1e200])))

    def test_huge_covariance_solves_without_warning(self):
        # the T_kelvin=1e300 point: n_th ~ 8.7e302 and a residual beyond the squares
        params = params_from_config({"T_kelvin": 1e300})
        a, d, verdict, _ = point_matrices(params)
        assert verdict.stable
        cm = solve_lyapunov(a, d, check_stability=False)
        assert cm.residual_norm > 1e154

    def test_huge_covariance_bound_without_warning(self):
        # at T_kelvin=1e300 the squares of the entries of V and D overflow; the
        # bound is still ||A|| ||V|| + ||D||, each norm scaled by its largest entry
        params = params_from_config({"T_kelvin": 1e300})
        a, d, _, _ = point_matrices(params)
        v = solve_lyapunov(a, d, check_stability=False).matrix

        def scaled(m):
            s = np.abs(m).max()
            return s * np.linalg.norm(m / s)

        expected = RESIDUAL_RTOL * (scaled(a) * scaled(v) + scaled(d))
        assert 1e285 < residual_bound(a, v, d) < np.inf
        assert residual_bound(a, v, d) == pytest.approx(expected, rel=1e-15)


class TestIndexWrittenOperator:
    """The operator written by index is exactly the Kronecker sum, so the
    solve sees the same matrix as np.kron(I, A) + np.kron(A, I)."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_equals_kronecker_sum(self, n):
        rng = np.random.default_rng(60 + n)
        eye = np.eye(n)
        for _ in range(50):
            a = rng.normal(size=(n, n))
            a[rng.random((n, n)) < 0.2] = 0.0
            a[rng.random((n, n)) < 0.2] = -0.0
            assert np.array_equal(_kron_sum(a), np.kron(eye, a) + np.kron(a, eye))

    @staticmethod
    def kron_route(a, d):
        n = a.shape[0]
        eye = np.eye(n)
        v = np.linalg.solve(np.kron(eye, a) + np.kron(a, eye), -d.reshape(n * n, order="F"))
        v = v.reshape((n, n), order="F")
        return 0.5 * (v + v.T)

    def test_covariance_equals_kronecker_route(self):
        rng = np.random.default_rng(67)
        systems = [random_stable_system(8, rng) for _ in range(30)]
        spec = figure_preset("fig3", params_from_config({}), counts=(4, 4))
        for point in spec.grid():
            a, d, verdict, _ = point_matrices(_apply_axes(spec.base, spec, point))
            if verdict.stable:
                systems.append((a, d))
        assert len(systems) > 40
        for a, d in systems:
            assert np.array_equal(solve_lyapunov(a, d, check_stability=False).matrix,
                                  self.kron_route(a, d))
