import math
import statistics
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from optocorr import evaluate_point, lyapunov, solve_lyapunov
from optocorr.dynamics import assess_stability, default_margin_tol
from optocorr.errors import SingularSystemError, UnstableDriftError
from optocorr.lyapunov import RESIDUAL_RTOL, _vech_index, lyapunov_residual, residual_bound
from optocorr.params import params_from_config
from optocorr.sweep import PRESET_IDS, figure_preset

from conftest import apply_axes, point_matrices, random_stable_system


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
    # Exact, not within round-off: `_vech_index` orders the unknowns diagonal
    # first, and in that order a vacuum's diagonal solves to 1/2 bit for bit,
    # so its discord is exactly 0 (acceptance criterion 9).  With the unknowns
    # in row-major order the decoupled point's diagonal is 1.1e-16 off.
    def test_minus_identity(self):
        cm = solve_lyapunov(-np.eye(8), np.eye(8))
        assert np.array_equal(cm.matrix, 0.5 * np.eye(8))

    def test_decoupled_zero_temperature_point_is_the_vacuum(self):
        # criterion 9's point: every coupling off, at zero temperature
        params = params_from_config({}).with_values(g1_eff=0.0, g2_eff=0.0, j_ac_mag=0.0,
                                                    j_ab=0.0, temperature=0.0)
        a, d, verdict, _ = point_matrices(params)
        assert verdict.stable
        assert np.array_equal(solve_lyapunov(a, d).matrix, 0.5 * np.eye(8))

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

    def test_solves_drift_the_point_margin_calls_unstable(self):
        # check_stability's rule is margin 0; a point's is -1e-9 omega_m, -1.5e-7 rad/us
        params = params_from_config({})
        a = np.diag([-1e-8] + [-1.0] * 7)
        assert -default_margin_tol(params) < assess_stability(a).max_real_part < 0.0
        assert not assess_stability(a, margin_tol=default_margin_tol(params)).stable
        cm = solve_lyapunov(a, np.eye(8))
        assert cm.matrix[0, 0] == pytest.approx(0.5e8, rel=1e-12)

    def test_singular_system_detected(self):
        # eigenvalues +1 and -1 make A (+) A singular
        a = np.diag([1.0, -1.0])
        with pytest.raises(SingularSystemError):
            solve_lyapunov(a, np.eye(2), check_stability=False)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(3), np.eye(4))

    @pytest.mark.parametrize("a, d", [
        pytest.param(np.array(-1.0), np.array(1.0), id="scalars"),
        pytest.param(np.zeros((0, 0)), np.zeros((0, 0)), id="empty"),
        pytest.param(np.array(-1.0), np.eye(8), id="scalar-drift"),
        pytest.param(-np.eye(8), np.array(1.0), id="scalar-diffusion"),
    ])
    def test_input_must_be_non_empty_square(self, a, d):
        with pytest.raises(ValueError, match=r"^A and D must be non-empty square matrices "
                                             r"of equal size, got shapes \("):
            solve_lyapunov(a, d)

    def test_residual_helper(self):
        a = -np.eye(4)
        v = 0.5 * np.eye(4)
        assert lyapunov_residual(a, v, np.eye(4)) <= 1e-15


class TestResidualNorm:
    """lyapunov_residual and residual_bound take their Frobenius norms within
    1 ulp of the exact norm at any scale, and stay finite (or inf) without a
    warning where a sum of squares overflows."""

    @staticmethod
    def exact_norm(m):
        """||m||_F correctly rounded: a Fraction sum of squares, square-rooted at 60 digits."""
        sq = sum(Fraction(x) ** 2 for x in m.ravel().tolist())
        with localcontext() as ctx:
            ctx.prec = 60
            return float((Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt())

    def test_within_one_ulp_of_exact_norm(self):
        systems = fig3_systems(np.random.default_rng(97))
        assert len(systems) > 40
        for a, d in systems:
            v = solve_lyapunov(a, d, check_stability=False).matrix
            # squares of the 1e-200 entries underflow, of the 1e150 entries overflow
            for v_s, d_s in ((v, d), (1e-200 * v, 1e-200 * d), (1e150 * v, 1e150 * d)):
                exact = self.exact_norm(a @ v_s + v_s @ a.T + d_s)
                assert abs(lyapunov_residual(a, v_s, d_s) - exact) <= math.ulp(exact)
                bound = RESIDUAL_RTOL * (self.exact_norm(a) * self.exact_norm(v_s)
                                         + self.exact_norm(d_s))
                assert abs(residual_bound(a, v_s, d_s) - bound) <= math.ulp(bound)

    def test_huge_finite_residual_is_scaled(self):
        # every square overflows; the norm of sixteen entries of 1e200 is 4e200
        a = -np.eye(4)
        assert lyapunov_residual(a, np.zeros((4, 4)), np.full((4, 4), 1e200)) == \
            pytest.approx(4e200, rel=1e-15)
        # the norm itself is beyond the floats
        assert lyapunov_residual(a, np.zeros((4, 4)), np.full((4, 4), 1e308)) == np.inf
        # finite A and V whose product is beyond the floats
        assert lyapunov_residual(np.full((4, 4), -1e200), np.full((4, 4), 1e200), np.eye(4)) \
            == np.inf

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


class TestResidualOnRead:
    """`residual_norm` is computed when it is first read, with the value the
    solve used to compute eagerly; a point whose residual nobody reads never
    computes it."""

    @pytest.fixture
    def residual_calls(self, monkeypatch):
        calls = []

        def spy(a, v, d):
            calls.append(a)
            return lyapunov_residual(a, v, d)

        monkeypatch.setattr(lyapunov, "lyapunov_residual", spy)
        return calls

    def test_solve_does_not_compute_it(self, residual_calls):
        a, d, _, _ = point_matrices(params_from_config({}))
        cm = solve_lyapunov(a, d)
        assert residual_calls == []
        first = cm.residual_norm
        assert cm.residual_norm is first and len(residual_calls) == 1

    def test_first_read_is_the_residual_bit_for_bit(self):
        systems = [point_matrices(params_from_config({}))[:2],
                   *fig3_systems(np.random.default_rng(5), count=10)]
        for a, d in systems:
            cm = solve_lyapunov(a, d, check_stability=False)
            assert cm.residual_norm.hex() == lyapunov_residual(a, cm.matrix, d).hex()

    def test_grid_evaluation_never_computes_it(self, residual_calls):
        spec = figure_preset("fig3", params_from_config({}), (6, 6))
        results = [evaluate_point(apply_axes(spec, point), spec.measures) for point in spec.grid()]
        assert sum(result.report is not None for result in results) > 20
        assert residual_calls == []


def kron_route(a, d):
    """V from the 64-unknown Kronecker system I (x) A + A (x) I, symmetrized:
    the route the half-vectorized solve replaced."""
    n = a.shape[0]
    eye = np.eye(n)
    v = np.linalg.solve(np.kron(eye, a) + np.kron(a, eye), -d.reshape(n * n, order="F"))
    v = v.reshape((n, n), order="F")
    return 0.5 * (v + v.T)


def fig3_systems(rng, count=30):
    """`count` random stable systems plus the stable points of a 4x4 fig3 grid."""
    systems = [random_stable_system(8, rng) for _ in range(count)]
    spec = figure_preset("fig3", params_from_config({}), counts=(4, 4))
    for point in spec.grid():
        a, d, verdict, _ = point_matrices(apply_axes(spec, point))
        if verdict.stable:
            systems.append((a, d))
    return systems


class TestHalfVectorizedOperator:
    """The 36x36 operator is the Kronecker sum restricted to symmetric V:
    the rows of equations (i, j), i <= j, with the columns of V[k, l] and
    V[l, k] summed.  The solve fills V from its unknowns, symmetric bit for bit."""

    @staticmethod
    def unknowns(n):
        """Entries (i, j), i <= j, by diagonal offset, then row."""
        return sorted(((i, j) for i in range(n) for j in range(i, n)),
                      key=lambda e: (e[1] - e[0], e[0]))

    @classmethod
    def restricted_kronecker_sum(cls, a):
        n = a.shape[0]
        eye = np.eye(n)
        kron = np.kron(eye, a) + np.kron(a, eye)   # vec(V) column-major: V[k, l] at l n + k
        entries = cls.unknowns(n)
        eqs = kron[[j * n + i for i, j in entries]]
        return np.stack([eqs[:, l * n + k] if k == l else eqs[:, l * n + k] + eqs[:, k * n + l]
                         for k, l in entries], axis=1)

    @staticmethod
    def scattered(a):
        slot, term, upper, _ = _vech_index(a.shape[0])
        op = np.bincount(slot, weights=a.ravel()[term], minlength=upper.size ** 2)
        return op.reshape(upper.size, upper.size)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_table_orders_unknowns_by_diagonal_offset(self, n):
        slot, term, upper, unknown = _vech_index(n)
        assert upper.tolist() == [i * n + j for i, j in self.unknowns(n)]
        assert slot.size == term.size == 2 * n * upper.size
        assert np.array_equal(unknown, unknown.T)
        assert [unknown[i, j] for i, j in self.unknowns(n)] == list(range(upper.size))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_equals_restricted_kronecker_sum(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(50):
            a = rng.normal(size=(n, n))
            a[rng.random((n, n)) < 0.2] = 0.0
            a[rng.random((n, n)) < 0.2] = -0.0
            assert np.array_equal(self.scattered(a), self.restricted_kronecker_sum(a))

    def test_covariance_solves_restricted_kronecker_sum(self):
        for a, d in fig3_systems(np.random.default_rng(67)):
            x = np.linalg.solve(self.restricted_kronecker_sum(a),
                                [-d[i, j] for i, j in self.unknowns(8)])
            v = solve_lyapunov(a, d, check_stability=False).matrix
            assert np.array_equal([v[i, j] for i, j in self.unknowns(8)], x)

    def test_covariance_is_exactly_symmetric(self):
        systems = fig3_systems(np.random.default_rng(71))
        assert len(systems) > 40
        for a, d in systems:
            v = solve_lyapunov(a, d, check_stability=False).matrix
            assert np.array_equal(v, v.T)

    def test_decoupled_modes_have_exactly_zero_cross_blocks(self):
        rng = np.random.default_rng(73)
        blocks = [random_stable_system(2, rng) for _ in range(4)]
        a = np.zeros((8, 8))
        d = np.zeros((8, 8))
        for m, (am, dm) in enumerate(blocks):
            a[2 * m:2 * m + 2, 2 * m:2 * m + 2] = am
            d[2 * m:2 * m + 2, 2 * m:2 * m + 2] = dm
        # the model with every coupling off: four independent damped modes
        cfg = {"G1_mhz": 0.0, "G2_mhz": 0.0, "Jac_mhz": 0.0, "Jab_mhz": 0.0}
        a_free, d_free, verdict, _ = point_matrices(params_from_config(cfg))
        assert verdict.stable
        for a, d in ((a, d), (a_free, d_free)):
            v = solve_lyapunov(a, d).matrix
            for p in range(4):
                for q in range(4):
                    if p != q:
                        assert (v[2 * p:2 * p + 2, 2 * q:2 * q + 2] == 0.0).all()
                    else:
                        assert (np.diag(v[2 * p:2 * p + 2, 2 * p:2 * p + 2]) > 0.0).all()


def decimal_lyapunov(a, d, prec=50):
    """V of A V + V A^T = -D at `prec` digits: Gaussian elimination with
    partial pivoting on the 64-unknown Kronecker system I (x) A + A (x) I,
    built in Decimal from the exact values of A's and D's floats."""
    n = a.shape[0]
    m = n * n
    with localcontext() as ctx:
        ctx.prec = prec
        ad = [[Decimal(x) for x in row] for row in a.tolist()]
        zero = Decimal(0)
        rows = []
        for j in range(n):          # equation (i, j) is row j n + i; V[k, l] is unknown l n + k
            for i in range(n):
                row = [zero] * m + [-Decimal(float(d[i, j]))]
                for k in range(n):
                    row[j * n + k] += ad[i][k]
                    row[k * n + i] += ad[j][k]
                rows.append(row)
        for c in range(m):
            p = max(range(c, m), key=lambda r: abs(rows[r][c]))
            rows[c], rows[p] = rows[p], rows[c]
            pivot = rows[c]
            for r in range(c + 1, m):
                if rows[r][c]:
                    f = rows[r][c] / pivot[c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], pivot)]
        x = [zero] * m
        for c in reversed(range(m)):
            x[c] = (rows[c][m] - sum((rows[c][k] * x[k] for k in range(c + 1, m)), zero)) \
                / rows[c][c]
        return [[x[l * n + k] for l in range(n)] for k in range(n)]


def forward_error(v, exact):
    """||V - V_exact||_F / ||V_exact||_F, in Decimal from V's exact floats."""
    with localcontext() as ctx:
        ctx.prec = 50
        pairs = [(Decimal(x), y) for row, erow in zip(v.tolist(), exact) for x, y in zip(row, erow)]
        err = sum((x - y) ** 2 for x, y in pairs)
        return float((err / sum(y * y for _, y in pairs)).sqrt())


# the worst-conditioned stable points of the default fig3 and fig4 grids:
# cond(I (x) A + A (x) I) is 5.1e6 and 4.5e5 there
WORST_CONDITIONED = (("fig3", 3400), ("fig4", 4874))


def oracle_systems():
    """(A, D) at the stable points of each preset on a small grid, without
    repeats, plus the worst-conditioned fig3 and fig4 points."""
    base = params_from_config({})
    points = []
    for pid in PRESET_IDS:
        two_axes = figure_preset(pid, base).axis2 is not None
        spec = figure_preset(pid, base, counts=(4, 3) if two_axes else (6,))
        points.extend((spec, point) for point in spec.grid())
    for pid, index in WORST_CONDITIONED:
        spec = figure_preset(pid, base)
        points.append((spec, spec.grid()[index]))
    systems = {}
    for spec, point in points:
        a, d, verdict, _ = point_matrices(apply_axes(spec, point))
        if verdict.stable:
            systems.setdefault(a.tobytes() + d.tobytes(), (a, d))
    return list(systems.values())


@pytest.fixture(scope="module")
def oracle_solves():
    """(A, D, V at 50 digits) at each of `oracle_systems()`."""
    return [(a, d, decimal_lyapunov(a, d)) for a, d in oracle_systems()]


class TestForwardErrorOracle:
    """V against a 50-digit solve of the Kronecker system: within a normwise
    relative error of 1e-11 at every sampled preset point, and in the median
    no less accurate than the 64-unknown float route it replaced."""

    BUDGET = 1.0e-11

    def test_covariance_within_budget_of_extended_precision(self, oracle_solves):
        assert len(oracle_solves) > 60
        errors, reference = [], []
        for a, d, exact in oracle_solves:
            errors.append(forward_error(solve_lyapunov(a, d, check_stability=False).matrix, exact))
            reference.append(forward_error(kron_route(a, d), exact))
        assert max(errors) <= self.BUDGET
        assert statistics.median(errors) <= statistics.median(reference)

    def test_oracle_solves_closed_form(self):
        gamma, omega = 0.3, 2.0
        a = np.array([[-gamma, omega], [-omega, -gamma]])
        exact = decimal_lyapunov(a, 2.0 * gamma * np.eye(2))
        assert forward_error(np.eye(2), exact) < 1e-45


UNIT_ROUNDOFF = 2.0 ** -53


def spectral_norm(m):
    return float(np.linalg.norm(m, 2))


def exact_residual_bound(a, v, d):
    """An upper bound on ||A V + V A^T + D||_2 in exact arithmetic: the float
    sum's norm plus the norm of its rounding, which is at most gamma_{2n+1}
    (|A||V| + |V||A|^T + |D|) entry by entry (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 3).  A nonnegative matrix that
    bounds another entry by entry bounds its 2-norm too."""
    k = (2 * a.shape[0] + 1) * UNIT_ROUNDOFF
    rounding = k / (1.0 - k) * (np.abs(a) @ np.abs(v) + np.abs(v) @ np.abs(a).T + np.abs(d))
    return spectral_norm(a @ v + v @ a.T + d) + spectral_norm(rounding)


def covariance_error_bound(a, d, v):
    """A bound on ||V - v||_2 for any symmetric v, V the exact solution.

    A is Hurwitz, so -L^-1, L(X) = A X + X A^T, is a positive map, and a
    symmetric R lies between -||R||_2 I and ||R||_2 I; hence
    ||L^-1(R)||_2 <= ||P||_2 ||R||_2 with A P + P A^T = -I.  V - v is
    -L^-1 of v's exact residual, and the computed P misses P by L^-1 of its
    own residual R_P, so ||P||_2 <= ||P_hat||_2 / (1 - ||R_P||_2)."""
    eye = np.eye(a.shape[0])
    p_hat = solve_lyapunov(a, eye, check_stability=False).matrix
    r_p = exact_residual_bound(a, p_hat, eye)
    assert r_p < 1.0
    return spectral_norm(p_hat) / (1.0 - r_p) * exact_residual_bound(a, v, d)


def error_matrix(v, exact):
    """V - V_exact, taken in Decimal from V's exact floats and rounded once."""
    with localcontext() as ctx:
        ctx.prec = 50
        return np.array([[float(Decimal(x) - y) for x, y in zip(row, erow)]
                         for row, erow in zip(v.tolist(), exact)])


class TestCovarianceErrorBound:
    """The proved bound ||V - V_hat||_2 <= ||P||_2 ||R||_2 against the true
    error at every oracle system, for the solver's V and a float32-cast one.

    Measured over the 66 systems: the solver's bound is at least 188 times
    the true error (median 557), and its worst relative bound is 7.0e-9
    against a worst relative error of 6.7e-12.  Almost all of it is the
    rounding term: the float residual alone gives at least 4.46 times the
    error (median 14.1), which is not a proof.  The float32 V's bound is at
    least 13.6 times its error (median 41), and at least 2.0e6 times the
    solver's bound.  The computed norms are accurate to a few ulps, far
    inside these margins.  BUDGET is the next half decade above 7.0e-9."""

    BUDGET = 1.0e-8

    def test_bound_holds_and_grows_for_a_float32_covariance(self, oracle_solves):
        worst = 0.0
        for a, d, exact in oracle_solves:
            v = solve_lyapunov(a, d, check_stability=False).matrix
            v32 = v.astype(np.float32).astype(np.float64)
            bound, bound32 = covariance_error_bound(a, d, v), covariance_error_bound(a, d, v32)
            assert spectral_norm(error_matrix(v, exact)) <= bound
            assert spectral_norm(error_matrix(v32, exact)) <= bound32
            assert bound32 > bound
            worst = max(worst, bound / spectral_norm(v))
        assert worst <= self.BUDGET
