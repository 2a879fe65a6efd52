import math

import numpy as np
import pytest

from optocorr import (extract_submatrix, gaussian_discord, log_negativity,
                      one_vs_rest_contangle, pt_min_symplectic,
                      residual_contangle_min, correlation_report,
                      assess_stability, evaluate_point)
from optocorr.errors import NumericDomainError
import optocorr.measures as measures
import optocorr.pipeline as pipeline
from optocorr.lyapunov import CovarianceMatrix
from optocorr.dynamics import MODE_BLOCKS, OMEGA_4, StabilityVerdict
from optocorr.measures import (CANONICAL_PAIRS, OMEGA_3, PARTITIONS, PT_MATRICES, TRIPLE_MODES,
                               det2, det4, pt_symplectic_min, unPT_symplectic_pair)
from optocorr.params import TWO_PI
from optocorr.sweep import _apply_axes, figure_preset

from conftest import random_physical_cm, tmsv_cm


def symplectic_spectrum_oracle(v):
    """Independent pipeline: nu_k = sqrt(eig(-(Omega V)^2)), halved multiplicity."""
    n = v.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    m = omega @ v
    eigs = np.linalg.eigvals(-m @ m)
    nus = np.sqrt(np.abs(eigs.real))
    return np.sort(nus)


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
        for part in ("c2|ab", "a|c2b", "b|c2a"):
            assert pt_min_symplectic(0.5 * np.eye(6), part) == pytest.approx(0.5, rel=1e-12)

    def test_pt_matrices_are_involutions(self):
        for p in PT_MATRICES.values():
            assert np.array_equal(p @ p, np.eye(6))

    def test_triple_layout_matches_the_eight_mode_layout(self):
        # Omega_3 and each PT flip are the four-mode ones restricted to (c2, a, b)
        assert np.array_equal(OMEGA_3, extract_submatrix(OMEGA_4, TRIPLE_MODES))
        v = random_physical_cm(4, np.random.default_rng(31))
        for mode, p6 in PT_MATRICES.items():
            p8 = np.eye(8)
            p8[MODE_BLOCKS[mode][1], MODE_BLOCKS[mode][1]] = -1.0
            assert np.array_equal(extract_submatrix(p8 @ v @ p8, TRIPLE_MODES),
                                  p6 @ extract_submatrix(v, TRIPLE_MODES) @ p6)

    def test_matches_independent_eigen_pipeline(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            v6 = random_physical_cm(3, rng)
            for tag, mode in (("c2|ab", "c2"), ("a|c2b", "a"), ("b|c2a", "b")):
                p = PT_MATRICES[mode]
                oracle = symplectic_spectrum_oracle(p @ v6 @ p)[0]
                assert pt_min_symplectic(v6, tag) == pytest.approx(oracle, rel=1e-10)

    def test_unknown_partition(self):
        with pytest.raises(ValueError):
            pt_min_symplectic(0.5 * np.eye(6), "c1|ab")


class TestContangle:
    def test_vacuum_contangle_zero(self):
        for part in ("c2|ab", "a|c2b", "b|c2a"):
            assert one_vs_rest_contangle(0.5 * np.eye(6), part) == 0.0

    def test_eta_one_over_2e_gives_unity(self):
        # scaled "CM" with every symplectic eigenvalue 1/(2e)
        v6 = (0.5 / math.e) * np.eye(6)
        for part in ("c2|ab", "a|c2b", "b|c2a"):
            assert one_vs_rest_contangle(v6, part) == pytest.approx(1.0, rel=1e-12)

    def test_product_with_vacuum_reduces_to_pair(self):
        r = 0.5
        v6 = 0.5 * np.eye(6)
        v6[:4, :4] = tmsv_cm(r)  # (c2, a) entangled, b in vacuum
        pair = log_negativity(tmsv_cm(r)) ** 2
        assert one_vs_rest_contangle(v6, "c2|ab") == pytest.approx(pair, rel=1e-9)
        assert one_vs_rest_contangle(v6, "a|c2b") == pytest.approx(pair, rel=1e-9)

    def test_zero_matrix_raises_domain_error(self):
        with pytest.raises(NumericDomainError):
            one_vs_rest_contangle(np.zeros((6, 6)), "c2|ab")

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
            lo, hi = unPT_symplectic_pair(v)
            oracle = symplectic_spectrum_oracle(v)
            assert lo == pytest.approx(oracle[0], rel=1e-9)
            assert hi == pytest.approx(oracle[-1], rel=1e-9)


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


class TestNonFiniteInput:
    """A NaN or inf covariance is a NumericDomainError, never a value or a bare crash."""

    MEASURES_4 = (log_negativity, gaussian_discord)
    MEASURES_6 = (lambda v: residual_contangle_min(v)[0],
                  lambda v: pt_min_symplectic(v, "a|c2b"),
                  lambda v: one_vs_rest_contangle(v, "b|c2a"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_entry_of_a_pair(self, bad):
        for measure in self.MEASURES_4:
            for i in range(4):
                for j in range(4):
                    v = tmsv_cm(0.5)
                    v[i, j] = bad
                    with pytest.raises(NumericDomainError):
                        measure(v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_entry_of_the_triple(self, bad):
        v6 = random_physical_cm(3, np.random.default_rng(5))
        for measure in self.MEASURES_6:
            for i in range(6):
                for j in range(6):
                    v = v6.copy()
                    v[i, j] = bad
                    with pytest.raises(NumericDomainError):
                        measure(v)

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


class TestCorrelationReport:
    def test_flat_dict_keys_and_clamping(self, base_params):
        result = evaluate_point(base_params)
        flat = result.report.as_flat_dict()
        for key in ("EN_c2a", "EN_ab", "EN_c2b", "DG_c2a", "DG_ab", "DG_c2b",
                    "Rtau_min", "stable", "n_th"):
            assert key in flat
        assert flat["stable"] is True
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
        verdict = StabilityVerdict(stable=True, max_real_part=-1.0)
        for _ in range(30):
            v = random_physical_cm(4, rng)
            self.assert_report_matches_standalone(v, correlation_report(v, verdict, 0.0))

    @pytest.mark.parametrize("preset,counts", [("fig3", (4, 4)), ("fig5", (7,))])
    def test_figure_points(self, base_params, preset, counts):
        spec = figure_preset(preset, base_params, counts=counts)
        checked = 0
        for point in spec.grid():
            result = evaluate_point(_apply_axes(spec.base, spec, point))
            if result.report is not None:
                self.assert_report_matches_standalone(result.covariance, result.report)
                checked += 1
        assert checked >= 4

    def test_one_invariant_pass_per_pair(self, base_params, monkeypatch):
        v = evaluate_point(base_params).covariance
        calls = []
        original = measures._seralian_invariants

        def counting(v4):
            calls.append(1)
            return original(v4)

        monkeypatch.setattr(measures, "_seralian_invariants", counting)
        correlation_report(v, StabilityVerdict(stable=True, max_real_part=-1.0), 0.0)
        assert len(calls) == len(CANONICAL_PAIRS)


def extract_pair(v6, key):
    """4x4 block of a canonical pair ("c2a", "ab" or "c2b") of a (c2, a, b) CM."""
    first, second = {f"{p}{q}": (p, q) for p, q in CANONICAL_PAIRS}[key]
    idx = [2 * TRIPLE_MODES.index(m) + k for m in (first, second) for k in (0, 1)]
    return v6[np.ix_(idx, idx)]


def fig3_triples(base_params):
    """(c2, a, b) covariance blocks of the stable fig3 --grid 4x4 points."""
    spec = figure_preset("fig3", base_params, counts=(4, 4))
    covs = [evaluate_point(_apply_axes(spec.base, spec, point)).covariance for point in spec.grid()]
    return [extract_submatrix(v, TRIPLE_MODES) for v in covs if v is not None]


class TestExactFastPaths:
    """The fast routes give exactly (==) the numbers of the plain numpy ones."""

    @staticmethod
    def states(base_params):
        rng = np.random.default_rng(71)
        return [random_physical_cm(3, rng) for _ in range(30)] + fig3_triples(base_params)

    def test_stacked_pt_minima_equal_per_partition_loop(self, base_params):
        states = self.states(base_params)
        assert len(states) > 40
        for v6 in states:
            v6s = 0.5 * (v6 + v6.T)
            loop = [float(np.min(np.abs(np.linalg.eigvals(1j * OMEGA_3 @ (p @ v6s @ p)))))
                    for p in (PT_MATRICES[mode] for mode, _ in PARTITIONS.values())]
            assert measures._pt_minima(v6, measures._PARTITION_PT).tolist() == loop
            assert [pt_min_symplectic(v6, tag) for tag in PARTITIONS] == loop
            _, raw = residual_contangle_min(v6)
            assert list(raw.values()) == [
                one_vs_rest_contangle(v6, tag) - log_negativity(extract_pair(v6, first)) ** 2
                - log_negativity(extract_pair(v6, second)) ** 2
                for tag, (_, (first, second)) in PARTITIONS.items()]

    def test_list_invariants_equal_numpy_slices(self, base_params):
        rng = np.random.default_rng(73)
        blocks = [random_physical_cm(2, rng) + rng.normal(scale=1e-3, size=(4, 4))
                  for _ in range(30)]
        for v6 in fig3_triples(base_params):
            blocks.extend(extract_pair(v6, key) for key in ("c2a", "ab", "c2b"))
        for v4 in blocks:
            s = 0.5 * (v4 + v4.T)
            assert measures._seralian_invariants(v4) == (
                det2(s[:2, :2]), det2(s[2:, 2:]), det2(s[:2, 2:]), det4(s))

