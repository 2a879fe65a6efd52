import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optocorr import OMEGA_4, build_diffusion, build_drift, params_from_config
from optocorr.dynamics import MODE_BLOCKS, assess_stability, default_margin_tol
from optocorr.errors import NumericDomainError
from optocorr.params import TWO_PI, thermal_occupation
from optocorr.sweep import PRESET_IDS, figure_preset

from conftest import apply_axes


def hand_drift_matrix(phi=math.pi / 2, g1=2.0, g2=4.0, jac=12.0, jab=1.0):
    """The drift matrix at the baseline rates transcribed entry by entry by hand.

    Couplings G1, G2, |Jac|, Jab in MHz (/2pi; defaults are the baseline
    2, 4, 12, 1), phase phi in rad; effective cavity detunings = omega_m,
    atomic detuning = -omega_m, kappa/2pi = 2 MHz, f/2pi = 1 MHz,
    gamma_m/2pi = 100 Hz.
    """
    wm = TWO_PI * 24.0
    k = TWO_PI * 2.0
    f = TWO_PI * 1.0
    gm = TWO_PI * 100.0 * 1.0e-6
    g1, g2 = TWO_PI * g1, TWO_PI * g2
    jac, jab = TWO_PI * jac, TWO_PI * jab
    s, c = math.sin(phi), math.cos(phi)
    return np.array([
        [-k,    wm,   0,    0,    jac * s,  jac * c,  0,        0],
        [-wm,  -k,    0,    0,   -jac * c,  jac * s, -2 * g1,   0],
        [0,     0,   -k,    wm,   0,        0,        0,        0],
        [0,     0,   -wm,  -k,    0,        0,       -2 * g2,   0],
        [-jac * s,  jac * c,  0, 0, -f,    -wm,       0,        0],
        [-jac * c, -jac * s,  0, 0,  wm,   -f,       -2 * jab,  0],
        [0,     0,    0,    0,    0,        0,       -gm,       wm],
        [-2 * g1, 0, -2 * g2, 0, -2 * jab,  0,       -wm,      -gm],
    ])


def damping_rates(p):
    """Amplitude damping rate of each quadrature, in basis order."""
    return np.array([p.kappa1, p.kappa1, p.kappa2, p.kappa2, p.f, p.f, p.gamma_m, p.gamma_m])


def frozen_product_drift(p):
    """A as `OMEGA_4 @ H - diag(Gamma)`, with H built as the package built it
    before it wrote A entry by entry: the bitwise reference, signed zeros
    included.  Frozen here; do not rewrite it to follow `build_drift`."""
    jc = p.j_ac_mag * math.cos(p.phi)
    js = p.j_ac_mag * math.sin(p.phi)
    u = np.zeros((8, 8))
    u[0:2, 4:6] = ((jc, -js), (js, jc))
    u[0, 6] = 2.0 * p.g1_eff
    u[2, 6] = 2.0 * p.g2_eff
    u[4, 6] = 2.0 * p.j_ab
    h = u + u.T
    h.flat[::9] = (p.delta1_eff, p.delta1_eff, p.delta2_eff, p.delta2_eff,
                   p.delta_at, p.delta_at, p.omega_m, p.omega_m)
    return OMEGA_4 @ h - np.diag(damping_rates(p))


# the grid counts of the golden figure files
SMALL_GRIDS = {"fig2": (13, 11), "fig3": (12, 12), "fig4": (8, 6), "fig5": (21,), "fig6": (8, 6),
               "fig7": (12, 3), "fig8": (8, 6), "fig9": (10, 3), "fig10": (21,)}


def paper_hamiltonian_matrix(p):
    """H of (1/2) r^T H r from the complex-amplitude Hamiltonian, by polarization.

    H = D1|c1|^2 + D2|c2|^2 + Dat|a|^2 + wm|b|^2 + Jac (e^{i phi} c1* a + c.c.)
        + G1 (c1 + c1*)(b + b*) + G2 (c2 + c2*)(b + b*) + Jab (a + a*)(b + b*)
    with c = (x + i y)/sqrt(2) for every mode, evaluated as a c-number
    function of the quadratures; H_ij = E(e_i + e_j) - E(e_i) - E(e_j).
    """
    def energy(r):
        c1, c2, a, b = (complex(r[2 * m], r[2 * m + 1]) / math.sqrt(2.0) for m in range(4))
        return (p.delta1_eff * abs(c1) ** 2 + p.delta2_eff * abs(c2) ** 2
                + p.delta_at * abs(a) ** 2 + p.omega_m * abs(b) ** 2
                + 2.0 * (p.j_ac_mag * complex(math.cos(p.phi), math.sin(p.phi))
                         * c1.conjugate() * a).real
                + (p.g1_eff * (2 * c1.real) + p.g2_eff * (2 * c2.real)
                   + p.j_ab * (2 * a.real)) * (2 * b.real))

    eye = np.eye(8)
    h = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            h[i, j] = (energy(eye[i] + eye[j]) - energy(eye[i]) - energy(eye[j])
                       if i != j else 2.0 * energy(eye[i]))
    return h


class TestBuildDrift:
    def test_baseline_matches_hand_transcription(self, base_params):
        assert np.array_equal(build_drift(base_params), hand_drift_matrix())

    @pytest.mark.parametrize("phi", [0.0, 0.3, math.pi / 2, 2.5])
    def test_matches_hand_transcription_at_each_phase(self, base_params, phi):
        g1, g2, jac, jab = 3.1, 0.7, 9.5, 2.2
        p = base_params.with_values(phi=phi, g1_eff=TWO_PI * g1, g2_eff=TWO_PI * g2,
                                    j_ac_mag=TWO_PI * jac, j_ab=TWO_PI * jab)
        assert np.array_equal(build_drift(p), hand_drift_matrix(phi, g1, g2, jac, jab))

    @pytest.mark.parametrize("phi", [0.0, 0.3, math.pi / 2, 2.5, 4.0])
    def test_drift_is_omega_times_paper_hamiltonian(self, base_params, phi):
        # fixes the J_ac phase convention and the sign of every coupling
        p = base_params.with_values(phi=phi, g1_eff=TWO_PI * 3.1, j_ab=TWO_PI * 2.2)
        h = OMEGA_4.T @ (build_drift(p) + np.diag(damping_rates(p)))
        want = paper_hamiltonian_matrix(p)
        assert np.allclose(h, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    @settings(max_examples=200, deadline=None)
    @given(rates=st.lists(st.floats(1e-6, 1e3), min_size=5, max_size=5),
           detunings=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
           couplings=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
                              min_size=4, max_size=4),
           phi=st.floats(-20.0, 20.0), n_th=st.floats(0.0, 1e6))
    def test_drift_and_diffusion_share_one_model(self, rates, detunings, couplings, phi, n_th):
        omega_m, gamma_m, f, kappa1, kappa2 = rates
        d1, d2, dat = detunings
        g1, g2, jac, jab = couplings
        p = params_from_config({}).with_values(
            omega_m=omega_m, gamma_m=gamma_m, f=f, kappa1=kappa1, kappa2=kappa2,
            delta1_eff=d1, delta2_eff=d2, delta_at=dat,
            g1_eff=g1, g2_eff=g2, j_ac_mag=jac, phi=phi, j_ab=jab)
        gamma = damping_rates(p)
        # Omega^T (A + Gamma) is the Hamiltonian matrix, exactly symmetric
        h = OMEGA_4.T @ (build_drift(p) + np.diag(gamma))
        assert np.array_equal(h, h.T)
        scale = np.array([1.0] * 6 + [2.0 * n_th + 1.0] * 2)
        assert np.array_equal(build_diffusion(p, n_th), np.diag(gamma * scale))

    def test_named_entries(self, base_params):
        a = build_drift(base_params)
        jac = base_params.j_ac_mag
        assert a[0, 4] == pytest.approx(jac * math.sin(base_params.phi))
        assert a[7, 0] == pytest.approx(-2.0 * base_params.g1_eff)

    def test_phase_pi_half_pattern(self, base_params):
        a = build_drift(base_params.with_values(phi=math.pi / 2))
        jac = base_params.j_ac_mag
        # cos entries vanish, sin entries are +/- |Jac|
        for i, j in [(0, 5), (1, 4), (4, 1), (5, 0)]:
            assert abs(a[i, j]) < 1e-12 * jac
        assert a[0, 4] == pytest.approx(jac)
        assert a[1, 5] == pytest.approx(jac)
        assert a[4, 0] == pytest.approx(-jac)
        assert a[5, 1] == pytest.approx(-jac)

    def test_decoupled_block_diagonal_damped_rotations(self, base_params):
        p = base_params.with_values(g1_eff=0.0, g2_eff=0.0, j_ac_mag=0.0, j_ab=0.0)
        a = build_drift(p)
        blocks = {
            "c1": (p.kappa1, p.delta1_eff),
            "c2": (p.kappa2, p.delta2_eff),
            "a": (p.f, p.delta_at),
            "b": (p.gamma_m, p.omega_m),
        }
        for mode, (gamma, omega) in blocks.items():
            i, j = MODE_BLOCKS[mode]
            assert np.allclose(a[np.ix_([i, j], [i, j])],
                               [[-gamma, omega], [-omega, -gamma]])
        off = a.copy()
        for mode in blocks:
            i, j = MODE_BLOCKS[mode]
            off[np.ix_([i, j], [i, j])] = 0.0
        assert np.all(off == 0.0)

    def test_phase_periodicity(self, base_params):
        a0 = build_drift(base_params.with_values(phi=0.4))
        a1 = build_drift(base_params.with_values(phi=0.4 + TWO_PI))
        assert np.allclose(a0, a1, atol=1e-12 * base_params.j_ac_mag)

    def test_phase_enters_only_through_jac(self, base_params):
        p = base_params.with_values(j_ac_mag=0.0)
        a0 = build_drift(p.with_values(phi=0.1))
        a1 = build_drift(p.with_values(phi=2.9))
        assert np.array_equal(a0, a1)

    def test_swap_cavity2_and_atom_is_a_permutation_similarity(self, base_params):
        # with Jac = 0 the c2 and atom blocks play symmetric roles
        p = base_params.with_values(j_ac_mag=0.0)
        swapped = p.with_values(kappa2=p.f, f=p.kappa2,
                                delta2_eff=p.delta_at, delta_at=p.delta2_eff,
                                g2_eff=p.j_ab, j_ab=p.g2_eff)
        perm = np.zeros((8, 8))
        mapping = {0: 0, 1: 1, 2: 4, 3: 5, 4: 2, 5: 3, 6: 6, 7: 7}
        for dst, src in mapping.items():
            perm[dst, src] = 1.0
        a = build_drift(p)
        a_sw = build_drift(swapped)
        assert np.allclose(perm @ a @ perm.T, a_sw)
        v0 = assess_stability(a)
        v1 = assess_stability(a_sw)
        assert v0.stable == v1.stable
        assert v0.max_real_part == pytest.approx(v1.max_real_part, rel=1e-9)


class TestDriftIsTheProductBitForBit:
    # tobytes, since np.array_equal cannot see the sign of a zero
    @pytest.mark.parametrize("preset", PRESET_IDS)
    def test_small_preset_grids(self, base_params, preset):
        spec = figure_preset(preset, base_params, SMALL_GRIDS[preset])
        for point in spec.grid():
            p = apply_axes(spec, point)
            assert build_drift(p).tobytes() == frozen_product_drift(p).tobytes(), point

    @pytest.mark.parametrize("phi", [0.0, -0.0, math.pi])
    def test_signed_zero_detunings_and_couplings(self, base_params, phi):
        for d1, d2, dat, g1, g2, jac, jab in itertools.product(
                (0.0, -0.0, 1.5), (0.0, -0.0), (0.0, -0.0, -1.5),
                (0.0, -0.0, 2.5), (0.0, -0.0), (0.0, -0.0, 7.0), (0.0, -0.0, 0.5)):
            p = base_params.with_values(phi=phi, delta1_eff=d1, delta2_eff=d2, delta_at=dat,
                                        g1_eff=g1, g2_eff=g2, j_ac_mag=jac, j_ab=jab)
            assert build_drift(p).tobytes() == frozen_product_drift(p).tobytes(), p


class TestBuildDiffusion:
    def test_entries(self, base_params):
        n_th = 8.19
        d = build_diffusion(base_params, n_th)
        p = base_params
        want = np.diag([p.kappa1, p.kappa1, p.kappa2, p.kappa2, p.f, p.f,
                        p.gamma_m * (2 * n_th + 1), p.gamma_m * (2 * n_th + 1)])
        assert np.array_equal(d, want)
        assert d[6, 6] == pytest.approx(p.gamma_m * 17.38)

    def test_zero_temperature_mechanical_entry(self, base_params):
        d = build_diffusion(base_params, 0.0)
        assert d[6, 6] == base_params.gamma_m
        assert d[7, 7] == base_params.gamma_m

    def test_equal_kappas_give_equal_optical_entries(self, base_params):
        d = build_diffusion(base_params, 1.0)
        assert len({d[i, i] for i in range(4)}) == 1

    def test_diagonal_nonnegative(self, base_params):
        n_th = thermal_occupation(base_params.omega_m, base_params.temperature)
        d = build_diffusion(base_params, n_th)
        assert np.array_equal(d, np.diag(np.diag(d)))
        assert np.all(np.diag(d) >= 0.0)

    def test_negative_nth_rejected(self, base_params):
        with pytest.raises(NumericDomainError):
            build_diffusion(base_params, -0.1)

    @pytest.mark.parametrize("n_th,message", [
        (-0.1, "non-negative, got -0.1"), (-math.inf, "non-negative, got -inf"),
        (math.nan, "non-negative, got nan"), (math.inf, "finite, got inf")])
    def test_negative_or_non_finite_nth_rejected(self, base_params, n_th, message):
        # NaN passes a bare `n_th < 0.0` test, and gave a NaN diffusion; inf an infinite one
        with pytest.raises(NumericDomainError, match=f"^n_th must be {message}$"):
            build_diffusion(base_params, n_th)


    @pytest.mark.parametrize("gamma_m,n_th", [(None, 1.7363849280078806e308), (1e10, 1e300)])
    def test_overflowing_mechanical_entry_rejected(self, base_params, gamma_m, n_th):
        # a finite n_th whose gamma_m (2 n_th + 1) overflows gave an infinite diffusion
        p = base_params if gamma_m is None else base_params.with_values(gamma_m=gamma_m)
        with pytest.raises(NumericDomainError,
                           match=r"^diffusion gamma_m\(2 n_th \+ 1\) overflows at n_th "):
            build_diffusion(p, n_th)


class TestAssessStability:
    def test_minus_identity(self):
        v = assess_stability(-np.eye(8))
        assert v.stable
        assert v.max_real_part == pytest.approx(-1.0)

    def test_decoupled_is_stable(self, base_params):
        p = base_params.with_values(g1_eff=0.0, g2_eff=0.0, j_ac_mag=0.0, j_ab=0.0)
        assert assess_stability(build_drift(p)).stable

    def test_baseline_point_is_stable(self, base_params):
        a = build_drift(base_params)
        assert assess_stability(a, margin_tol=default_margin_tol(base_params)).stable

    def test_margin_tol_flips_borderline(self):
        a = -1e-12 * np.eye(8)
        assert assess_stability(a, margin_tol=0.0).stable
        assert not assess_stability(a, margin_tol=1e-9).stable

    def test_nonfinite_rejected(self):
        a = np.zeros((8, 8))
        a[0, 0] = np.nan
        with pytest.raises(NumericDomainError):
            assess_stability(a)
