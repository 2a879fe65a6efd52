"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.
"""

import math
import time

import numpy as np
import pytest

from optocorr import OMEGA_4, evaluate_point, figure_preset, gaussian_discord, solve_lyapunov
from optocorr.lyapunov import lyapunov_residual, residual_bound
from optocorr.params import TWO_PI

from conftest import (grid_params, point_matrices, preset_curves, random_physical_cm,
                      random_stable_system)
from test_lyapunov import integrate_covariance
from test_measures import pt_symplectic_min

PHASE_TOL = (math.pi / 50.0) * (1.0 + 1e-9)


def emit(num, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def extremizer_distance(xs, vals, targets, kind):
    """Distance from the nearest global extremizer (ties included) to targets."""
    ext = np.max(vals) if kind == "max" else np.min(vals)
    ties = np.where(np.abs(vals - ext) <= 1e-12)[0]
    return min(abs(xs[i] - t) for i in ties for t in targets)


def test_criterion_1_lyapunov_residuals_on_fig3_grid(base_params):
    spec = figure_preset("fig3", base_params)
    start = time.perf_counter()
    worst_ratio = 0.0
    n_stable = 0
    for _, params in grid_params(spec):
        a, d, verdict, _ = point_matrices(params)
        if not verdict.stable:
            continue
        n_stable += 1
        v = solve_lyapunov(a, d, check_stability=False).matrix
        ratio = lyapunov_residual(a, v, d) / residual_bound(a, v, d)
        worst_ratio = max(worst_ratio, ratio)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and elapsed <= 60.0
    emit(1, ok, f"{n_stable} stable points, worst residual ratio {worst_ratio:.3g}, "
                f"{elapsed:.1f} s")
    assert worst_ratio <= 1.0
    assert elapsed <= 60.0


def test_criterion_2_time_integration_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        a, d = random_stable_system(8, rng)
        v = solve_lyapunov(a, d).matrix
        v_oracle = integrate_covariance(a, d)
        rel = np.linalg.norm(v - v_oracle, "fro") / np.linalg.norm(v_oracle, "fro")
        worst = max(worst, rel)
    ok = worst <= 1e-6
    emit(2, ok, f"100 random systems, worst relative difference {worst:.3g}")
    assert worst <= 1e-6


def test_criterion_3_stability_map(base_params):
    spec = figure_preset("fig2", base_params)
    g1 = np.array(spec.axis1.values())
    g2 = np.array(spec.axis2.values())
    stable = np.zeros((len(g1), len(g2)), dtype=bool)
    for (x, y), params in grid_params(spec):
        i = np.argmin(np.abs(g1 - x))
        j = np.argmin(np.abs(g2 - y))
        stable[i, j] = point_matrices(params)[2].stable
    # reference point (2, 4) MHz
    ref = stable[np.argmin(np.abs(g1 - 2.0)), np.argmin(np.abs(g2 - 4.0))]
    small = (g1[:, None] < 1.0) & (g2[None, :] < 1.0)
    interior = np.zeros_like(stable)
    interior[1:-1, 1:-1] = True  # boundary cells excluded
    big = (g1[:, None] > 1.5) & (g2[None, :] > 1.5) & interior
    n_unstable_small = int(np.sum(~stable & small))
    n_unstable_big = int(np.sum(~stable & big))
    ok = ref and n_unstable_small >= 1 and n_unstable_big == 0
    emit(3, ok, f"(2,4) MHz stable={bool(ref)}, unstable(small)={n_unstable_small}, "
                f"unstable(big)={n_unstable_big}")
    assert ref
    assert n_unstable_small >= 1
    assert n_unstable_big == 0


def test_criterion_4_reference_entanglement_values(base_params):
    params = base_params.with_values(j_ab=TWO_PI * 2.0)
    flat = evaluate_point(params).report.as_flat_dict()
    ok = (abs(flat["EN_c2a"] - 0.26) <= 0.05) and (abs(flat["EN_ab"] - 0.24) <= 0.05)
    emit(4, ok, f"EN_c2a={flat['EN_c2a']:.4f} (0.26+-0.05), "
                f"EN_ab={flat['EN_ab']:.4f} (0.24+-0.05)")
    assert flat["EN_c2a"] == pytest.approx(0.26, abs=0.05)
    assert flat["EN_ab"] == pytest.approx(0.24, abs=0.05)
    # tighter regression pins frozen after the first verified run
    assert flat["EN_c2a"] == pytest.approx(0.2584005868274856, rel=1e-6)
    assert flat["EN_ab"] == pytest.approx(0.2415473811105326, rel=1e-6)


def test_criterion_5_phase_periodicity_of_entanglement():
    fig5_curves = preset_curves("fig5")
    phi = fig5_curves["phi"]
    d_c2b_max = extremizer_distance(phi, fig5_curves["EN_c2b"], (0.0, TWO_PI), "max")
    d_c2b_min = extremizer_distance(phi, fig5_curves["EN_c2b"], (math.pi,), "min")
    d_c2a_max = extremizer_distance(phi, fig5_curves["EN_c2a"], (math.pi,), "max")
    d_ab_max = extremizer_distance(phi, fig5_curves["EN_ab"], (math.pi,), "max")
    checks = {
        "EN_c2b argmax near 0/2pi": d_c2b_max,
        "EN_c2b argmin near pi": d_c2b_min,
        "EN_c2a argmax near pi": d_c2a_max,
        "EN_ab argmax near pi": d_ab_max,
    }
    failures = {k: v for k, v in checks.items() if v > PHASE_TOL}
    emit(5, not failures,
         "; ".join(f"{k}: {v:.4f} rad" for k, v in checks.items()))
    assert not failures, f"extremizer offsets beyond pi/50: {failures}"


def test_criterion_6_phase_law_of_discord():
    fig10_curves = preset_curves("fig10")
    phi = fig10_curves["phi"]
    checks = {}
    for name in ("DG_c2a", "DG_ab", "DG_c2b"):
        checks[f"{name} argmax near pi"] = extremizer_distance(
            phi, fig10_curves[name], (math.pi,), "max")
        checks[f"{name} argmin near 0/2pi"] = extremizer_distance(
            phi, fig10_curves[name], (0.0, TWO_PI), "min")
    failures = {k: v for k, v in checks.items() if v > PHASE_TOL}
    emit(6, not failures,
         "; ".join(f"{k}: {v:.4f} rad" for k, v in checks.items()))
    assert not failures, f"extremizer offsets beyond pi/50: {failures}"


def test_criterion_7_tripartite_phase_and_coupling_trends(base_params):
    fig5_curves = preset_curves("fig5")
    phi = fig5_curves["phi"]
    rtau = fig5_curves["Rtau_min"]
    at_pi = rtau[np.argmin(np.abs(phi - math.pi))]
    at_zero = rtau[0]
    base = figure_preset("fig5", base_params).base.with_values(phi=math.pi)
    family = [evaluate_point(base.with_values(j_ac_mag=TWO_PI * jac)).report.r_tau_min
              for jac in (12.0, 13.0, 14.0)]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(family, family[1:]))
    ok = at_pi > at_zero and nondecreasing
    emit(7, ok, f"Rtau(pi)={at_pi:.4f} > Rtau(0)={at_zero:.4f}; "
                f"Jac family {['%.4f' % v for v in family]}")
    assert at_pi > at_zero
    assert nondecreasing


def test_criterion_8_monogamy_and_physicality(base_params):
    worst_res = np.inf
    worst_phys = np.inf
    n_checked = 0
    for pid in ("fig3", "fig5", "fig10"):
        spec = figure_preset(pid, base_params)
        for _, params in grid_params(spec):
            result = evaluate_point(params)
            if result.report is None:
                continue
            n_checked += 1
            worst_res = min(worst_res, min(result.report.r_tau_raw.values()))
            eigs = np.linalg.eigvalsh(result.covariance + 0.5j * OMEGA_4)
            worst_phys = min(worst_phys, float(eigs.min()))
    ok = worst_res >= -1e-9 and worst_phys >= -1e-9
    emit(8, ok, f"{n_checked} stable points, min residual {worst_res:.3g}, "
                f"min eig(V + i Omega/2) {worst_phys:.3g}")
    assert worst_res >= -1e-9
    assert worst_phys >= -1e-9


def test_criterion_9_trivial_state_zeros(base_params):
    params = base_params.with_values(g1_eff=0.0, g2_eff=0.0, j_ac_mag=0.0,
                                     j_ab=0.0, temperature=0.0)
    result = evaluate_point(params)
    flat = result.report.as_flat_dict()
    keys = ("EN_c2a", "EN_ab", "EN_c2b", "DG_c2a", "DG_ab", "DG_c2b", "Rtau_min")
    zeros = all(flat[k] == 0.0 for k in keys)
    v = result.covariance
    vacuum = (np.max(np.abs(np.diag(v) - 0.5)) <= 1e-12
              and np.max(np.abs(v - np.diag(np.diag(v)))) <= 1e-12)
    ok = zeros and vacuum
    emit(9, ok, f"measures {'all exactly 0' if zeros else 'NONZERO'}, "
                f"V diagonal-vacuum={vacuum}")
    assert zeros
    assert vacuum


def test_criterion_10_entanglement_discord_consistency():
    rng = np.random.default_rng(777)
    n_entangled = 0
    violations = 0
    for _ in range(1000):
        v4 = random_physical_cm(2, rng)
        if pt_symplectic_min(v4) < 0.5 - 1e-9:
            n_entangled += 1
            if not gaussian_discord(v4) > 0.0:
                violations += 1
    ok = violations == 0 and n_entangled > 0
    emit(10, ok, f"{n_entangled}/1000 entangled CMs, {violations} with zero discord")
    assert n_entangled > 0
    assert violations == 0
