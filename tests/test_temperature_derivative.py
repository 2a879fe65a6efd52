"""T-derivatives of the covariance and of E_N at the stable points of a 6x6 fig6 grid.

D is linear in the thermal occupation n_th: only its mechanical entries,
gamma_m (2 n_th + 1), depend on it.  So V = V_0 + n_th V_1, where V_1
solves the same Lyapunov operator with dD/dn_th = diag(0, ..., 0, 2 gamma_m,
2 gamma_m), and dV/dT = V_1 dn_th/dT with dn_th/dT = (x/T) n_th (n_th + 1),
x = hbar omega_m / (k_B T).  Each pair's dE_N/dT then comes by the complex
step of `pair_measures` along dV/dT.  That it is negative at every entangled
cell is the derivative form of the paper's claim about thermal fluctuations:
the entanglement degrades with T, smoothly, and nowhere grows.
"""

import numpy as np
import pytest

from optocorr import evaluate_point, figure_preset, params_from_config, solve_lyapunov
from optocorr.dynamics import build_diffusion
from optocorr.params import HBAR, K_B, RAD_PER_US_TO_RAD_PER_S

from conftest import apply_axes, point_matrices
from test_phase_derivative import PAIRS, pair_measures

SPEC = figure_preset("fig6", params_from_config({}), counts=(6, 6))
EN_FLOOR = 1e-3     # cells below it are near the separable edge, where E_N is clamped


def occupation_slope(p, n_th):
    """dn_th/dT in closed form."""
    x = HBAR * p.omega_m * RAD_PER_US_TO_RAD_PER_S / (K_B * p.temperature)
    return x / p.temperature * n_th * (n_th + 1.0)


@pytest.fixture(scope="module")
def stable_points():
    """(params, V, V_0, V_1, n_th) at each stable grid point."""
    out = []
    for point in SPEC.grid():
        p = apply_axes(SPEC, point)
        a, d, verdict, n_th = point_matrices(p)
        if verdict.stable:
            dd = np.diag([0.0] * 6 + [2.0 * p.gamma_m] * 2)
            out.append((p, solve_lyapunov(a, d).matrix,
                        solve_lyapunov(a, build_diffusion(p, 0.0)).matrix,
                        solve_lyapunov(a, dd).matrix, n_th))
    return out


def covariance(p, temperature):
    a, d, _, _ = point_matrices(p.with_values(temperature=temperature))
    return solve_lyapunov(a, d).matrix


def test_covariance_is_linear_in_the_occupation(stable_points):
    # measured at most 4.2e-16 relative; budget the next half decade above
    assert len(stable_points) == 36
    for p, v, v0, v1, n_th in stable_points:
        assert np.linalg.norm(v - (v0 + n_th * v1)) <= 1e-15 * np.linalg.norm(v), p.temperature


def test_covariance_derivative_matches_central_difference(stable_points):
    # at h = 1e-4 T the difference's own error is the two solves' round-off over
    # h: measured at most 3.9e-8 relative (1.0e-7 at h = 1e-3 T, where
    # truncation adds to it); budget the next half decade above
    for p, _, _, v1, n_th in stable_points:
        t = p.temperature
        h = 1e-4 * t
        dv = occupation_slope(p, n_th) * v1
        difference = (covariance(p, t + h) - covariance(p, t - h)) / (2 * h)
        assert np.linalg.norm(dv - difference) <= 1e-7 * np.linalg.norm(dv), t


@pytest.fixture(scope="module")
def entanglement_slopes(stable_points):
    """(column, T, E_N, dE_N/dT by the complex step, central difference of the
    cells at h = 1e-4 T) at each entangled pair cell."""
    out = []
    for p, v, _, v1, n_th in stable_points:
        t = p.temperature
        h = 1e-4 * t
        here, up, down = (evaluate_point(p.with_values(temperature=s)).report.as_flat_dict()
                          for s in (t, t + h, t - h))
        for key in PAIRS:
            column = f"EN_{key}"
            if here[column] > EN_FLOOR:
                value, slope = pair_measures(v, occupation_slope(p, n_th) * v1, key)["EN"]
                assert value == pytest.approx(here[column], rel=1e-12), column
                out.append((column, t, value, slope, (up[column] - down[column]) / (2 * h)))
    return out


def test_entanglement_slopes_match_central_differences_of_the_cells(entanglement_slopes):
    # measured at most 3.4e-7 relative over the 91 cells; budget the next half
    # decade above
    assert len(entanglement_slopes) == 91
    for column, t, _, slope, difference in entanglement_slopes:
        assert abs(slope - difference) <= 1e-6 * abs(slope), (column, t)


def test_entanglement_falls_with_temperature(entanglement_slopes):
    for column, t, _, slope, _ in entanglement_slopes:
        assert slope < 0.0, (column, t)
