import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from optocorr import (evaluate_point, gaussian_discord, log_negativity, params_from_config,
                      residual_contangle_min)
from optocorr.errors import NumericDomainError, OptocorrError
import optocorr.measures as measures
import optocorr.pipeline as pipeline
from optocorr.lyapunov import CovarianceMatrix
from optocorr.dynamics import MODE_BLOCKS, OMEGA_4
from optocorr.measures import (CANONICAL_PAIRS, OMEGA_3, PARTITIONS, TRIPLE_MODES,
                               correlation_report)
from optocorr.params import TWO_PI, with_keys
from optocorr.sweep import _apply_axes, figure_preset

from conftest import extract_submatrix, point_matrices, random_physical_cm, tmsv_cm
from test_lyapunov import decimal_lyapunov


def symplectic_spectrum_oracle(v):
    """Independent pipeline: nu_k = sqrt(eig(-(Omega V)^2)), halved multiplicity."""
    n = v.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    m = omega @ v
    eigs = np.linalg.eigvals(-m @ m)
    nus = np.sqrt(np.abs(eigs.real))
    return np.sort(nus)


# Frozen reference for measures._pair_invariants: the list-based closed-form
# determinants the package used before its straight-line kernel.  The kernel
# must equal them bit for bit, so these stay exactly as they were.

def det2(m) -> float:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det3(m) -> float:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def det4(m) -> float:
    """Cofactor expansion along the first row with closed-form 3x3 minors."""
    total = 0.0
    rows = [1, 2, 3]
    for j in range(4):
        cols = [k for k in range(4) if k != j]
        minor = [[m[r][c] for c in cols] for r in rows]
        total += ((-1.0) ** j) * m[0][j] * _det3(minor)
    return total


def reference_invariants(v4):
    """I1..I4 of a 4x4 CM's symmetric part through the frozen determinants."""
    m = (0.5 * (v4 + v4.T)).tolist()
    return (det2([row[:2] for row in m[:2]]), det2([row[2:] for row in m[2:]]),
            det2([row[2:] for row in m[:2]]), det4(m))


# Frozen reference, formerly measures.pt_symplectic_min: the package's own
# closed forms, kept here because no package code needs the eigenvalue alone.

def pt_symplectic_min(v4: np.ndarray) -> float:
    """Minimum symplectic eigenvalue of the partially transposed 4x4 CM."""
    i1, i2, i3, i4 = measures._seralian_invariants(v4)
    return measures._symplectic_pair((i1, i2, -i3, i4))[0]


class TestDeterminants:
    def test_det4_against_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(4, 4))
            assert det4(m) == pytest.approx(np.linalg.det(m), rel=1e-10)

    def test_det2(self):
        assert det2(np.array([[1.0, 2.0], [3.0, 4.0]])) == -2.0


class TestExtractSubmatrix:
    def test_identity_passthrough(self):
        v = np.eye(8)
        assert np.array_equal(extract_submatrix(v, ("c2", "a")), np.eye(4))

    def test_c2a_selects_rows_2_to_5(self):
        v = np.arange(64, dtype=float).reshape(8, 8)
        got = extract_submatrix(v, ("c2", "a"))
        assert np.array_equal(got, v[2:6, 2:6])

    def test_reordering_is_a_permutation(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(8, 8))
        v = v + v.T
        ab = extract_submatrix(v, ("a", "b"))
        ba = extract_submatrix(v, ("b", "a"))
        perm = np.zeros((4, 4))
        perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
        assert np.array_equal(perm @ ab @ perm.T, ba)

    def test_bad_tags(self):
        with pytest.raises(ValueError):
            extract_submatrix(np.eye(8), ("c2", "c2"))
        with pytest.raises(ValueError):
            extract_submatrix(np.eye(8), ("c2", "x"))


class TestLogNegativity:
    def test_vacuum_is_separable(self):
        assert log_negativity(0.5 * np.eye(4)) == 0.0

    def test_two_mode_squeezed_vacuum(self):
        for r in (0.25, 0.5, 1.0):
            # analytic PT minimum symplectic eigenvalue: exp(-2r)/2
            assert pt_symplectic_min(tmsv_cm(r)) == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-10)
            assert log_negativity(tmsv_cm(r)) == pytest.approx(2.0 * r, rel=1e-10)

    def test_unphysical_input_raises(self):
        v = 0.5 * np.eye(4)
        v[:2, 2:] = [[3.0, 1.0], [-1.0, 3.0]]
        v[2:, :2] = v[:2, 2:].T
        with pytest.raises(NumericDomainError):
            log_negativity(v)

    def test_separable_states_stay_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            # product of two single-mode states is always separable
            v = np.zeros((4, 4))
            v[:2, :2] = random_physical_cm(1, rng)
            v[2:, 2:] = random_physical_cm(1, rng)
            assert log_negativity(v) == 0.0


class TestTripartiteSpectrum:
    def test_vacuum_eta_is_half(self):
        nus = measures._pt_minima(0.5 * np.eye(6))
        assert nus.tolist() == pytest.approx([0.5] * 3, rel=1e-12)

    def test_pt_matrices_are_involutions(self):
        for p in measures._PARTITION_PT:
            assert np.array_equal(p @ p, np.eye(6))

    def test_triple_layout_matches_the_eight_mode_layout(self):
        # Omega_3 and each PT flip are the four-mode ones restricted to (c2, a, b)
        assert np.array_equal(OMEGA_3, extract_submatrix(OMEGA_4, TRIPLE_MODES))
        v = random_physical_cm(4, np.random.default_rng(31))
        for (mode, _), p6 in zip(PARTITIONS.values(), measures._PARTITION_PT):
            p8 = np.eye(8)
            p8[MODE_BLOCKS[mode][1], MODE_BLOCKS[mode][1]] = -1.0
            assert np.array_equal(extract_submatrix(p8 @ v @ p8, TRIPLE_MODES),
                                  p6 @ extract_submatrix(v, TRIPLE_MODES) @ p6)

    def test_matches_independent_eigen_pipeline(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            v6 = random_physical_cm(3, rng)
            nus = measures._pt_minima(v6)
            for p, nu in zip(measures._PARTITION_PT, nus.tolist()):
                oracle = symplectic_spectrum_oracle(p @ v6 @ p)[0]
                assert nu == pytest.approx(oracle, rel=1e-10)


class TestContangle:
    """The contangle of a one-vs-two partition is E_N(nu)^2, nu its
    minimum PT symplectic eigenvalue."""

    def test_vacuum_contangle_zero(self):
        nus = measures._pt_minima(0.5 * np.eye(6))
        assert [measures._en_from_nu(nu) ** 2 for nu in nus.tolist()] == [0.0] * 3

    def test_eta_one_over_2e_gives_unity(self):
        # scaled "CM" with every symplectic eigenvalue 1/(2e)
        v6 = (0.5 / math.e) * np.eye(6)
        nus = measures._pt_minima(v6)
        assert ([measures._en_from_nu(nu) ** 2 for nu in nus.tolist()]
                == pytest.approx([1.0] * 3, rel=1e-12))

    def test_product_with_vacuum_reduces_to_pair(self):
        r = 0.5
        v6 = 0.5 * np.eye(6)
        v6[:4, :4] = tmsv_cm(r)  # (c2, a) entangled, b in vacuum
        pair = log_negativity(tmsv_cm(r)) ** 2
        c2_ab, a_c2b, _ = measures._pt_minima(v6).tolist()
        assert measures._en_from_nu(c2_ab) ** 2 == pytest.approx(pair, rel=1e-9)
        assert measures._en_from_nu(a_c2b) ** 2 == pytest.approx(pair, rel=1e-9)

    def test_zero_matrix_raises_domain_error(self):
        with pytest.raises(NumericDomainError):
            residual_contangle_min(np.zeros((6, 6)))

    def test_vacuum_residuals_zero(self):
        r_min, residuals = residual_contangle_min(0.5 * np.eye(6))
        assert r_min == 0.0
        assert all(v == 0.0 for v in residuals.values())

    def test_min_never_exceeds_any_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            v6 = random_physical_cm(3, rng)
            r_min, residuals = residual_contangle_min(v6)
            assert all(r_min <= v + 1e-15 for v in residuals.values())

    def test_monogamy_near_baseline(self, base_params):
        # random stable perturbations of the baseline operating point
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 30:
            p = base_params.with_values(
                phi=rng.uniform(0, TWO_PI),
                delta_at=-base_params.omega_m * rng.uniform(0.5, 1.5),
                j_ab=TWO_PI * rng.uniform(0.5, 2.0),
                g1_eff=TWO_PI * rng.uniform(1.5, 3.0),
                g2_eff=TWO_PI * rng.uniform(3.0, 5.0))
            result = evaluate_point(p)
            if result.report is None:
                continue
            checked += 1
            assert all(v >= -1e-9 for v in result.report.r_tau_raw.values())


def exact_det(m):
    """Determinant of a square list-of-lists of Fractions, by exact elimination."""
    m = [list(row) for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def exact_nu_min(s6, p) -> Decimal:
    """Smallest symplectic eigenvalue of P S6 P, to 60 digits, for the float S6.

    M = Omega_3 P S6 P holds S6's floats up to sign and place, so tr(M^2),
    tr(M^4) and det S6 = det M are exact Fractions.  M's eigenvalues are
    +/- i nu_k, so the nu_k^2 are the roots of mu^3 - e1 mu^2 + e2 mu - e3,
    with e1 = -tr(M^2)/2, e2 = (e1^2 - tr(M^4)/2)/2 (Newton's identities)
    and e3 = det S6.  e3/e2 = 1/sum(1/nu_k^2) lies below the smallest root,
    where the cubic is increasing and concave, so Newton's method climbs to
    that root from there without overshooting it.
    """
    m = [[Fraction(x) for x in row] for row in (OMEGA_3 @ (p @ s6 @ p)).tolist()]
    m2 = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in m]
    tr2 = sum(m[i][j] * m[j][i] for i in range(6) for j in range(6))
    tr4 = sum(m2[i][j] * m2[j][i] for i in range(6) for j in range(6))
    e1 = -tr2 / 2
    e2 = (e1 * e1 - tr4 / 2) / 2
    e3 = exact_det([[Fraction(x) for x in row] for row in s6.tolist()])
    with localcontext() as ctx:
        ctx.prec = 60
        e1, e2, e3 = (Decimal(f.numerator) / f.denominator for f in (e1, e2, e3))
        mu = e3 / e2
        for _ in range(200):
            step = (((mu - e1) * mu + e2) * mu - e3) / ((3 * mu - 2 * e1) * mu + e2)
            mu -= step
            if abs(step) <= mu * Decimal("1e-55"):
                return mu.sqrt()
    raise AssertionError(f"Newton's method did not reach the smallest root from {e3 / e2}")


def relative_error(x: float, exact: Decimal) -> float:
    with localcontext() as ctx:
        ctx.prec = 60
        return float(abs(Decimal(x) - exact) / exact)


class TestTripartiteOracle:
    """Each partition's nu_min, as R_tau takes it, against exact_nu_min of
    the same float covariance block: within 1e-14 relative at the fig5, fig7
    and `measure` points, and 1e-12 at the worst-conditioned fig3 point."""

    # the worst-conditioned stable point of the default fig3 grid, where a PT
    # spectrum's nu_max / nu_min reaches 1.9e4
    FIG3_WORST = 3400

    @staticmethod
    def worst_error(triples):
        worst = 0.0
        for v6 in triples:
            s6 = 0.5 * (v6 + v6.T)
            for p, nu in zip(measures._PARTITION_PT, measures._pt_minima(s6).tolist()):
                worst = max(worst, relative_error(nu, exact_nu_min(s6, p)))
        return worst

    @pytest.mark.parametrize("preset,counts", [("fig5", (21,)), ("fig7", (12, 3))],
                             ids=["fig5", "fig7"])
    def test_preset_grid_within_1e_14(self, base_params, preset, counts):
        triples = preset_triples(base_params, preset, counts)
        assert len(triples) >= 20
        assert self.worst_error(triples) <= 1e-14

    def test_measure_point_within_1e_14(self, base_params):
        v = evaluate_point(base_params).covariance
        assert self.worst_error([extract_submatrix(v, TRIPLE_MODES)]) <= 1e-14

    def test_worst_conditioned_fig3_point_within_1e_12(self, base_params):
        spec = figure_preset("fig3", base_params)
        v = evaluate_point(_apply_axes(spec, spec.grid()[self.FIG3_WORST])).covariance
        assert self.worst_error([extract_submatrix(v, TRIPLE_MODES)]) <= 1e-12

    def test_oracle_recovers_known_spectra(self):
        # uncoupled modes: every partition's nu_min is the smallest variance
        v6 = np.diag([0.7, 0.7, 0.55, 0.55, 3.0, 3.0])
        for p in measures._PARTITION_PT:
            assert relative_error(0.55, exact_nu_min(v6, p)) < 1e-50
        # (c2, a) squeezed, b in vacuum: c2|ab and a|c2b see the pair's e^{-2r}/2
        v6 = 0.5 * np.eye(6)
        v6[:4, :4] = tmsv_cm(0.5)
        for p in measures._PARTITION_PT[:2]:
            assert relative_error(0.5 / math.e, exact_nu_min(v6, p)) < 1e-14


def sqrt0(x: Decimal) -> Decimal:
    """Square root of a discriminant that vanishes for pure states, where the
    working precision can leave it a few units below 0."""
    return max(x, Decimal(0)).sqrt()


def exact_g(x: Decimal) -> Decimal:
    half = Decimal("0.5")
    lo = (x - half) * (x - half).ln() if x > half else Decimal(0)
    return (x + half) * (x + half).ln() - lo


def exact_witnesses(i1, i2, i3, i4):
    """Both branches of the measurement determinant W, and whether the first
    is the optimal one (the condition measures._measurement_witness tests)."""
    first = ((2 * abs(i3) + sqrt0(4 * i3 * i3 + (4 * i1 - 1) * (4 * i4 - i2)))
             / (4 * i1 - 1)) ** 2
    s = i1 * i2 + i4 - i3 * i3
    second = (s - sqrt0(s * s - 4 * i1 * i2 * i4)) / (2 * i1)
    gap = i1 * i2 - i4
    return first, second, 4 * gap * gap <= (i2 + 4 * i4) * (1 + 4 * i1) * i3 * i3


def exact_pair_measures(v, pair):
    """(E_N, D_G) of a pair of the 8x8 covariance v (lists of Decimals), at the
    context's precision, from its Seralian invariants."""
    idx = MODE_BLOCKS[pair[0]] + MODE_BLOCKS[pair[1]]
    m = [[v[i][j] for j in idx] for i in idx]
    i1 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    i2 = m[2][2] * m[3][3] - m[2][3] * m[3][2]
    i3 = m[0][2] * m[1][3] - m[0][3] * m[1][2]
    det = exact_det([[Fraction(x) for x in row] for row in m])
    i4 = Decimal(det.numerator) / det.denominator

    def nus(i3):
        sigma = i1 + i2 + 2 * i3
        root = sqrt0(sigma * sigma - 4 * i4)
        return ((sigma - root) / 2).sqrt(), ((sigma + root) / 2).sqrt()

    e_n = max(Decimal(0), -(2 * nus(-i3)[0]).ln())
    first, second, use_first = exact_witnesses(i1, i2, i3, i4)
    nu_lo, nu_hi = nus(i3)
    d_g = (exact_g(i1.sqrt()) - exact_g(nu_lo) - exact_g(nu_hi)
           + exact_g((first if use_first else second).sqrt()))
    return e_n, d_g


# the small grids the oracle samples: the golden-file grids of the presets
# that emit E_N (fig3, fig5) or D_G (fig8, fig9, fig10)
PAIR_ORACLE_GRIDS = (("fig3", (12, 12)), ("fig5", (21,)), ("fig8", (8, 6)), ("fig9", (10, 3)),
                     ("fig10", (21,)))
PAIR_ORACLE_PER_GRID = 8


@functools.cache
def pair_oracle_points():
    """(covariance, float report, {column: 50-digit value}) at 8 evenly spaced
    stable points of each oracle grid, plus the `measure` point."""
    base = params_from_config({})
    records = [base]
    for pid, counts in PAIR_ORACLE_GRIDS:
        spec = figure_preset(pid, base, counts=counts)
        stable = [p for p in map(functools.partial(_apply_axes, spec), spec.grid())
                  if point_matrices(p)[2].stable]
        n = len(stable)
        records += [stable[round(i * (n - 1) / (PAIR_ORACLE_PER_GRID - 1))]
                    for i in range(PAIR_ORACLE_PER_GRID)]
    points = []
    for params in records:
        a, d, _, _ = point_matrices(params)
        result = evaluate_point(params)
        with localcontext() as ctx:
            ctx.prec = 50
            v = decimal_lyapunov(a, d)
            exact = {}
            for pair in CANONICAL_PAIRS:
                exact["EN_" + "".join(pair)], exact["DG_" + "".join(pair)] = \
                    exact_pair_measures(v, pair)
        points.append((result.covariance, result.report, exact))
    return points


class TestPairMeasureOracle:
    """Each canonical pair's E_N and D_G cell against the same measure at 50
    digits, computed from decimal_lyapunov's V, at 40 sampled stable points of
    the small fig3, fig5, fig8, fig9 and fig10 grids and at the `measure` point.

    Each family's budget is its worst relative error over these points on
    this build, rounded up to the next half decade (a factor of sqrt(10)).
    Both worst cells are at fig3's last sampled point, (0, 2):
    - E_N 2.97e-12 (EN_c2a = 1.3e-3: E_N = -ln 2 nu near 0 turns nu's
      relative error into a larger one of E_N), so 10**-11.5;
    - D_G 2.40e-9 (DG_c2a, from the cancellation in the witness
      discriminant), so 10**-8.5.
    Over all 240 stable points of the five grids the worst are 4.9e-12 and
    2.4e-9.  A separable pair's exact E_N is 0, and its cell must read 0.
    """

    BUDGETS = {"EN": 10 ** -11.5, "DG": 10 ** -8.5}

    @staticmethod
    def worst_errors(reports):
        worst = dict.fromkeys(TestPairMeasureOracle.BUDGETS, 0.0)
        for report, (_, _, exact) in zip(reports, pair_oracle_points()):
            for key, value in report.as_flat_dict().items():
                family = key.split("_")[0]
                if family in worst:
                    # a separable pair's exact E_N is 0, and its cell must read 0
                    error = (relative_error(value, exact[key]) if exact[key]
                             else 0.0 if value == 0.0 else math.inf)
                    worst[family] = max(worst[family], error)
        return worst

    def test_cells_within_budget(self):
        points = pair_oracle_points()
        assert len(points) == 1 + PAIR_ORACLE_PER_GRID * len(PAIR_ORACLE_GRIDS)
        worst = self.worst_errors([report for _, report, _ in points])
        assert all(worst[family] <= budget for family, budget in self.BUDGETS.items()), worst

    def test_float32_covariance_fails_both_budgets(self):
        reports = [correlation_report(cov.astype(np.float32).astype(np.float64))
                   for cov, _, _ in pair_oracle_points()]
        worst = self.worst_errors(reports)
        assert all(worst[family] > budget for family, budget in self.BUDGETS.items()), worst

    @pytest.mark.parametrize("r", [0.25, 1.0])
    def test_oracle_recovers_two_mode_squeezed_vacuum(self, r):
        # a pure state: E_N = 2r, both witness branches give W = 1/4, so
        # D_G = g(cosh(2r)/2), the entanglement entropy.  The second branch
        # takes the root of a discriminant that vanishes here, so it keeps
        # half the 50 digits
        with localcontext() as ctx:
            ctx.prec = 50
            up, down = (2 * Decimal(r)).exp(), (-2 * Decimal(r)).exp()
            ch, sh = (up + down) / 4, (up - down) / 4
            # (c2, a) squeezed with correlations sh Z, c1 and b in vacuum
            v = [[Decimal("0.5") if i == j else Decimal(0) for j in range(8)] for i in range(8)]
            for k in range(2, 6):
                v[k][k] = ch
            for k, corr in ((2, sh), (3, -sh)):
                v[k][k + 2] = v[k + 2][k] = corr
            e_n, d_g = exact_pair_measures(v, ("c2", "a"))
            inv = (ch * ch, ch * ch, -sh * sh, Decimal(1) / 16)
            first, second, _ = exact_witnesses(*inv)
            assert abs(e_n - 2 * Decimal(r)) < Decimal("1e-45")
            assert abs(first - Decimal("0.25")) < Decimal("1e-45")
            assert abs(second - Decimal("0.25")) < Decimal("1e-23")
            assert abs(d_g - exact_g(ch)) < Decimal("1e-20")


class TestGaussianDiscord:
    def test_product_vacuum_zero(self):
        assert gaussian_discord(0.5 * np.eye(4)) == 0.0

    def test_product_thermal_zero(self):
        v = np.diag([1.7, 1.7, 0.9, 0.9])
        assert gaussian_discord(v) == pytest.approx(0.0, abs=1e-12)

    def test_entangled_implies_positive_discord(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(200):
            v = random_physical_cm(2, rng)
            if pt_symplectic_min(v) < 0.5 - 1e-9:
                found += 1
                assert gaussian_discord(v) > 0.0
        assert found > 20  # the sample must actually contain entangled states

    def test_unphysical_reduced_state_raises(self):
        # sqrt(I1) = 0.1 is below the vacuum's 1/2: g is undefined there
        with pytest.raises(NumericDomainError, match=r"^g argument 0\.1\d* below 1/2"):
            gaussian_discord(0.1 * np.eye(4))

    def test_genuine_negative_raises(self, base_params, monkeypatch):
        # W = 1/4 makes g(sqrt W) vanish, so a thermal product state gives
        # D_G = g(1.7) - g(1.7) - g(0.9) = -g(0.9) < 0
        monkeypatch.setattr(measures, "_measurement_witness", lambda *inv: 0.25)
        with pytest.raises(NumericDomainError, match="negative Gaussian discord"):
            gaussian_discord(np.diag([1.7, 1.7, 0.9, 0.9]))
        result = evaluate_point(base_params)
        assert result.report is None
        assert result.error.startswith("NumericDomainError: negative Gaussian discord")

    def test_separable_but_correlated_state(self):
        # classically correlated two-mode state: no entanglement, finite discord
        a, c = 1.0, 0.3
        v = np.zeros((4, 4))
        v[:2, :2] = a * np.eye(2)
        v[2:, 2:] = a * np.eye(2)
        v[:2, 2:] = c * np.diag([1.0, -1.0])
        v[2:, :2] = v[:2, 2:].T
        assert log_negativity(v) == 0.0
        assert gaussian_discord(v) > 1e-3

    def test_unpt_symplectic_eigenvalues_match_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            v = random_physical_cm(2, rng)
            lo, hi = measures._symplectic_pair(measures._seralian_invariants(v))
            oracle = symplectic_spectrum_oracle(v)
            assert lo == pytest.approx(oracle[0], rel=1e-9)
            assert hi == pytest.approx(oracle[-1], rel=1e-9)


class TestUnphysicalPair:
    """Each typed error of the pair kernel and the discord, reached by an
    explicit unphysical 4x4 covariance."""

    @pytest.mark.parametrize("measure,v,message", [
        # the discriminant of the partial transpose
        (log_negativity, [[1, 0, 2, 0], [0, 1, 0, 2], [2, 0, 2, 0], [0, 2, 0, 2]],
         r"^negative discriminant -7\.0: unphysical input$"),
        (gaussian_discord, [[1, 0, 2, 0], [0, 1, 0, -2], [2, 0, 2, 0], [0, -2, 0, 2]],
         r"^negative discriminant -7\.0: unphysical input$"),
        (gaussian_discord, [[1.5, .25, 1.25, 1.25], [.25, 1.5, -.5, 1], [1.25, -.5, 1, -.25],
                            [1.25, 1, -.25, -1.5]],
         r"^negative or NaN measurement determinant -3\.01"),
    ], ids=["pt-discriminant", "discriminant", "witness"])
    def test_typed_error(self, measure, v, message):
        with pytest.raises(NumericDomainError, match=message):
            measure(np.array(v, dtype=float))

    @pytest.mark.parametrize("v,i1", [
        ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], r"0\.0"),
        ([[-1, .75, .75, -.25], [.75, -.5, 0, .75], [.75, 0, .5, .5], [-.25, .75, .5, -.5]],
         r"-0\.0625"),
    ], ids=["zero", "negative"])
    def test_non_positive_first_mode_determinant(self, v, i1):
        # the witness divides by 2 I1 and g takes sqrt(I1), so neither may run
        message = rf"^non-positive first-mode determinant I1 {i1}: unphysical input$"
        with pytest.raises(NumericDomainError, match=message):
            gaussian_discord(np.array(v, dtype=float))

    def test_sweep_point_records_a_non_positive_determinant(self, base_params, monkeypatch):
        good = evaluate_point(base_params).covariance

        def decoupled_c2_solve(a, d, check_stability=True):
            v = good.copy()
            rows = list(MODE_BLOCKS["c2"])
            v[rows, :] = v[:, rows] = 0.0     # I1 = 0 for the c2a pair, measured first
            return CovarianceMatrix(matrix=v, residual_norm=0.0)

        monkeypatch.setattr(pipeline, "solve_lyapunov", decoupled_c2_solve)
        result = evaluate_point(base_params, ("DG_c2a",))
        assert result.report is None
        assert result.error == ("NumericDomainError: non-positive first-mode determinant I1 0.0: "
                                "unphysical input")


class TestInvariances:
    @staticmethod
    def local_rotation(theta1, theta2):
        def rot(t):
            return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])
        out = np.zeros((4, 4))
        out[:2, :2] = rot(theta1)
        out[2:, 2:] = rot(theta2)
        return out

    def test_measures_invariant_under_local_rotations(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            v = random_physical_cm(2, rng)
            s = self.local_rotation(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            v_rot = s @ v @ s.T
            assert abs(log_negativity(v) - log_negativity(v_rot)) <= 1e-9
            assert abs(gaussian_discord(v) - gaussian_discord(v_rot)) <= 1e-9

    def test_symmetrized_input_agrees_exactly(self):
        rng = np.random.default_rng(53)
        v = random_physical_cm(2, rng)
        v_asym = v + rng.normal(scale=1e-13, size=(4, 4))
        v_sym = 0.5 * (v_asym + v_asym.T)
        assert log_negativity(v_asym) == log_negativity(v_sym)
        assert gaussian_discord(v_asym) == gaussian_discord(v_sym)


class TestPhaseReflection:
    """phi against 2 pi - phi at fig5's base point, over fig5's phi grid.

    The c2-b pair is symmetric to round-off; the atom-mechanics pair is
    not, so nothing pins its extrema to multiples of pi (acceptance
    criteria 5 and 6 fail on that pair)."""

    @pytest.fixture(scope="class")
    def deviations(self):
        """Largest |f(phi) - f(2 pi - phi)| / max(1, |f(phi)|) of each measure."""
        spec = figure_preset("fig5", params_from_config({}))
        worst = dict.fromkeys(("EN_c2b", "DG_c2b", "EN_ab", "DG_ab"), 0.0)
        for phi in spec.axis1.values():
            here, mirror = (evaluate_point(spec.base.with_values(phi=x)).report.as_flat_dict()
                            for x in (phi, TWO_PI - phi))
            for key in worst:
                worst[key] = max(worst[key],
                                 abs(here[key] - mirror[key]) / max(1.0, abs(here[key])))
        return worst

    def test_c2b_pair_is_symmetric(self, deviations):
        assert deviations["EN_c2b"] <= 1e-12
        assert deviations["DG_c2b"] <= 1e-12

    def test_ab_entanglement_is_not(self, deviations):
        assert deviations["EN_ab"] > 1e-2


class TestNonFiniteInput:
    """A NaN or inf covariance is a NumericDomainError that says so, never a
    value, a bare crash or a message about a negative quantity."""

    MEASURES_4 = (log_negativity, gaussian_discord)
    MEASURES_6 = (lambda v: residual_contangle_min(v)[0], measures._pt_minima)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_entry_of_a_pair(self, bad):
        for measure in self.MEASURES_4:
            for i in range(4):
                for j in range(4):
                    v = tmsv_cm(0.5)
                    v[i, j] = bad
                    with pytest.raises(NumericDomainError, match="non-finite") as exc:
                        measure(v)
                    assert "negative" not in str(exc.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_entry_of_the_triple(self, bad):
        v6 = random_physical_cm(3, np.random.default_rng(5))
        for measure in self.MEASURES_6:
            for i in range(6):
                for j in range(6):
                    v = v6.copy()
                    v[i, j] = bad
                    with pytest.raises(NumericDomainError, match="non-finite") as exc:
                        measure(v)
                    assert "negative" not in str(exc.value)

    def test_sweep_point_records_the_error(self, base_params, monkeypatch):
        good = evaluate_point(base_params).covariance

        def inf_solve(a, d, check_stability=True):
            v = good.copy()
            v[4, 6] = v[6, 4] = math.inf   # q_at-q: inside the (c2, a, b) block
            return CovarianceMatrix(matrix=v, residual_norm=0.0)

        monkeypatch.setattr(pipeline, "solve_lyapunov", inf_solve)
        result = evaluate_point(base_params)
        assert result.report is None
        assert result.error.startswith("NumericDomainError")


class TestFiniteOverflow:
    """A finite covariance whose measure arithmetic overflows is a
    NumericDomainError too, never a bare OverflowError."""

    def test_discord_of_a_huge_squeezed_state(self):
        # I1 I2 ~ 3e155: its square overflows
        with pytest.raises(NumericDomainError):
            gaussian_discord(tmsv_cm(45.1))

    def test_temperature_scan_gives_values_or_typed_errors(self, base_params):
        # 1 K to 1e80 K, 5 points per decade; the discord overflowed from 1.58e40 K
        for k in range(400):
            try:
                result = evaluate_point(with_keys(base_params, {"T_kelvin": 10 ** (k / 5)}))
            except OptocorrError:
                continue
            if result.error is None:
                assert all(map(math.isfinite, result.report.as_flat_dict().values()))

    @pytest.mark.parametrize("exponent", [78.6, 78.8])
    def test_overflowing_discriminant_reads_as_overflow(self, base_params, exponent):
        # finite invariants, but sigma^2 - 4 I4 overflows; the cell read
        # "negative squared symplectic eigenvalue -inf" before
        result = evaluate_point(with_keys(base_params, {"T_kelvin": 10 ** exponent}))
        assert result.verdict.stable and result.report is None
        assert result.error.startswith("NumericDomainError: overflow: discriminant inf")
        assert "negative" not in result.error

    @pytest.mark.parametrize("inv", [(1e200, 1e200, 0.0, 1.0), (1.0, 1.0, 0.0, 1e308),
                                     (1e200, 1e200, 0.0, 1e308)])
    def test_symplectic_pair_names_its_overflow(self, inv):
        # sigma^2 overflows to inf, 4 I4 to inf, or both (inf - inf is nan);
        # E_N takes the pair of the partial transpose through the same kernel
        for kernel in (measures._symplectic_pair, measures._pair_en):
            with pytest.raises(NumericDomainError, match="^overflow: discriminant") as exc:
                kernel(inv)
            assert "negative" not in str(exc.value)

    @pytest.mark.parametrize("inv", [(1e160, 1e160, 0.0, 1e100), (1e200, 1e-200, 0.0, 1e300)])
    def test_measurement_witness_names_its_overflow(self, inv):
        # s and 4 I1 I2 I4 overflow (s^2 - 4 I1 I2 I4 is inf - inf, nan), or s^2 alone
        with pytest.raises(NumericDomainError, match="^overflow: measurement discriminant"):
            measures._measurement_witness(*inv)


def wrong_shapes(n):
    """Inputs of every tested shape but n x n: vacuum CMs of the other sizes,
    a vector, a scalar and a stack of two n x n matrices."""
    cases = [0.5 * np.eye(k) for k in (3, 4, 6, 8, 10) if k != n]
    cases += [np.full(n, 0.5), np.array(0.5), np.full((2, n, n), 0.5)]
    return [pytest.param(v, id="x".join(map(str, v.shape)) or "scalar") for v in cases]


class TestWrongShape:
    """A measure of an input that is not the expected n x n covariance is a
    ValueError naming that shape: not a value read from a leading block, and
    not an IndexError from deep in the kernel."""

    @pytest.mark.parametrize("v", wrong_shapes(4))
    def test_log_negativity(self, v):
        with pytest.raises(ValueError, match=r"^covariance matrix must be 4x4, got shape "):
            log_negativity(v)

    @pytest.mark.parametrize("v", wrong_shapes(4))
    def test_gaussian_discord(self, v):
        with pytest.raises(ValueError, match=r"^covariance matrix must be 4x4, got shape "):
            gaussian_discord(v)

    @pytest.mark.parametrize("v", wrong_shapes(6))
    def test_residual_contangle_min(self, v):
        with pytest.raises(ValueError, match=r"^covariance matrix must be 6x6, got shape "):
            residual_contangle_min(v)

    @pytest.mark.parametrize("v", wrong_shapes(8))
    def test_correlation_report(self, v):
        with pytest.raises(ValueError, match=r"^covariance matrix must be 8x8, got shape "):
            correlation_report(v)


class TestCorrelationReport:
    def test_flat_dict_keys_and_clamping(self, base_params):
        result = evaluate_point(base_params)
        flat = result.report.as_flat_dict()
        for key in ("EN_c2a", "EN_ab", "EN_c2b", "DG_c2a", "DG_ab", "DG_c2b", "Rtau_min"):
            assert key in flat
        # the verdict and the occupation belong to the point, not the report
        assert not {"stable", "max_real_part", "n_th"} & set(flat)
        assert result.verdict.stable is True
        assert isinstance(result.n_th, float)
        assert all(flat[k] >= 0.0 for k in ("EN_c2a", "EN_ab", "EN_c2b",
                                            "DG_c2a", "DG_ab", "DG_c2b"))
        rep = result.report
        assert rep.r_tau_min == min(rep.r_tau.values())
        for tag, raw in rep.r_tau_raw.items():
            if -1e-9 <= raw < 0.0:
                assert rep.r_tau[tag] == 0.0
            else:
                assert rep.r_tau[tag] == raw


class TestSharedInvariants:
    """The report shares one invariant pass per pair; the standalone
    measures must still give exactly the same numbers."""

    @staticmethod
    def assert_report_matches_standalone(v, report):
        for pair in CANONICAL_PAIRS:
            key = f"{pair[0]}{pair[1]}"
            v4 = extract_submatrix(v, pair)
            assert report.e_n[key] == log_negativity(v4)
            assert report.d_g[key] == gaussian_discord(v4)
        _, raw = residual_contangle_min(extract_submatrix(v, TRIPLE_MODES))
        assert report.r_tau_raw == raw

    def test_random_physical_states(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            v = random_physical_cm(4, rng)
            self.assert_report_matches_standalone(v, correlation_report(v))

    @pytest.mark.parametrize("preset,counts", [("fig3", (4, 4)), ("fig5", (7,))])
    def test_figure_points(self, base_params, preset, counts):
        spec = figure_preset(preset, base_params, counts=counts)
        checked = 0
        for point in spec.grid():
            result = evaluate_point(_apply_axes(spec, point))
            if result.report is not None:
                self.assert_report_matches_standalone(result.covariance, result.report)
                checked += 1
        assert checked >= 4

    def test_one_invariant_pass_per_pair(self, base_params, monkeypatch):
        v = evaluate_point(base_params).covariance
        calls = []
        original = measures._pair_invariants

        def counting(m, rows):
            calls.append(1)
            return original(m, rows)

        monkeypatch.setattr(measures, "_pair_invariants", counting)
        correlation_report(v)
        assert len(calls) == len(CANONICAL_PAIRS)


def extract_pair(v6, key):
    """4x4 block of a canonical pair ("c2a", "ab" or "c2b") of a (c2, a, b) CM."""
    first, second = {f"{p}{q}": (p, q) for p, q in CANONICAL_PAIRS}[key]
    idx = [2 * TRIPLE_MODES.index(m) + k for m in (first, second) for k in (0, 1)]
    return v6[np.ix_(idx, idx)]


def preset_triples(base_params, preset, counts):
    """(c2, a, b) covariance blocks of a preset's stable points on the grid `counts`."""
    spec = figure_preset(preset, base_params, counts=counts)
    covs = [evaluate_point(_apply_axes(spec, point)).covariance for point in spec.grid()]
    return [extract_submatrix(v, TRIPLE_MODES) for v in covs if v is not None]


class TestExactFastPaths:
    """The fast routes give exactly (==) the numbers of the plain numpy ones."""

    @staticmethod
    def states(base_params):
        rng = np.random.default_rng(71)
        return ([random_physical_cm(3, rng) for _ in range(30)]
                + preset_triples(base_params, "fig3", (4, 4)))

    def test_stacked_pt_minima_equal_per_partition_loop(self, base_params):
        states = self.states(base_params)
        assert len(states) > 40
        for v6 in states:
            v6s = 0.5 * (v6 + v6.T)
            loop = [float(np.min(np.abs(np.linalg.eigvals(OMEGA_3 @ (p @ v6s @ p)))))
                    for p in measures._PARTITION_PT]
            assert measures._pt_minima(v6s).tolist() == loop
            _, raw = residual_contangle_min(v6)
            assert list(raw.values()) == [
                measures._en_from_nu(nu) ** 2 - log_negativity(extract_pair(v6, first)) ** 2
                - log_negativity(extract_pair(v6, second)) ** 2
                for (_, (first, second)), nu in zip(PARTITIONS.values(), loop)]

    def test_list_invariants_equal_numpy_slices(self, base_params):
        rng = np.random.default_rng(73)
        blocks = [random_physical_cm(2, rng) + rng.normal(scale=1e-3, size=(4, 4))
                  for _ in range(30)]
        for v6 in preset_triples(base_params, "fig3", (4, 4)):
            blocks.extend(extract_pair(v6, key) for key in ("c2a", "ab", "c2b"))
        for v4 in blocks:
            s = 0.5 * (v4 + v4.T)
            assert measures._seralian_invariants(v4) == (
                det2(s[:2, :2]), det2(s[2:, 2:]), det2(s[:2, 2:]), det4(s))


class TestPairKernel:
    """The straight-line kernel equals the frozen list-based determinants
    bit for bit (float.hex), signed zeros and non-finite values included."""

    @staticmethod
    def assert_triple_matches_reference(v6):
        m = (0.5 * (v6 + v6.T)).tolist()
        for key, rows in measures._PAIR_ROWS.items():
            got = measures._pair_invariants(m, rows)
            assert [x.hex() for x in got] == [
                x.hex() for x in reference_invariants(extract_pair(v6, key))]

    @staticmethod
    def assert_pair_matches_reference(v4):
        got = measures._seralian_invariants(v4)
        assert [x.hex() for x in got] == [x.hex() for x in reference_invariants(v4)]

    def test_random_cms(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            self.assert_pair_matches_reference(
                random_physical_cm(2, rng) + rng.normal(scale=1e-3, size=(4, 4)))
            self.assert_triple_matches_reference(random_physical_cm(3, rng))

    @pytest.mark.parametrize("preset,counts", [("fig3", (4, 4)), ("fig4", (4, 3)),
                                               ("fig6", (3, 3)), ("fig7", (4, 3)),
                                               ("fig10", (5,))])
    def test_preset_triples(self, base_params, preset, counts):
        spec = figure_preset(preset, base_params, counts=counts)
        checked = 0
        for point in spec.grid():
            v = evaluate_point(_apply_axes(spec, point)).covariance
            if v is not None:
                self.assert_triple_matches_reference(extract_submatrix(v, TRIPLE_MODES))
                checked += 1
        assert checked >= 3

    def test_signed_zeros(self):
        rng = np.random.default_rng(83)
        states = [np.zeros((4, 4)), np.full((4, 4), -0.0), np.eye(4) - 0.0 * np.ones((4, 4))]
        for _ in range(30):
            v = random_physical_cm(2, rng)
            v[rng.random((4, 4)) < 0.3] = 0.0
            v[rng.random((4, 4)) < 0.3] = -0.0
            states.append(v)
        # entries in {-1, -0.0, 0.0, 1}: all four cofactor terms can be signed
        # zeros, so I4 shows whether the expansion starts from 0.0
        signed = np.array([-1.0, -0.0, 0.0, 1.0])
        states.extend(signed[rng.integers(0, 4, size=(4, 4))] for _ in range(500))
        for v4 in states:
            self.assert_pair_matches_reference(v4)
        for _ in range(10):
            v6 = random_physical_cm(3, rng)
            v6[rng.random((6, 6)) < 0.3] = -0.0
            self.assert_triple_matches_reference(v6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs(self, bad):
        # the inputs of TestNonFiniteInput
        for i in range(4):
            for j in range(4):
                v = tmsv_cm(0.5)
                v[i, j] = bad
                self.assert_pair_matches_reference(v)
        v6 = random_physical_cm(3, np.random.default_rng(5))
        for i in range(6):
            for j in range(6):
                v = v6.copy()
                v[i, j] = bad
                self.assert_triple_matches_reference(v)

    def test_triple_slice_and_pair_rows_match_the_mode_layout(self):
        v = random_physical_cm(4, np.random.default_rng(89))
        v6 = v[measures._TRIPLE_ROWS, measures._TRIPLE_ROWS]
        assert np.array_equal(v6, extract_submatrix(v, TRIPLE_MODES))
        for p, q in CANONICAL_PAIRS:
            rows = measures._PAIR_ROWS[p + q]
            assert np.array_equal(v6[np.ix_(rows, rows)], extract_submatrix(v, (p, q)))
