"""phi-derivatives of the covariance and the pair measures at fig5's base point.

dV/dphi solves the Lyapunov operator again with a new right-hand side:
A dV + dV A^T = -(dA V + V dA^T).  D does not depend on phi, and A only through
theta's Jac cos phi and Jac sin phi, so dA/dphi = Jac (cos phi G_{Jac sin} - sin phi
G_{Jac cos}), off those two rows of the drift's table.  Each pair measure's slope
follows from its Seralian invariants by a complex step along dV (Squire & Trapp,
SIAM Rev. 40, 110 (1998)), exact to round-off with no step-size trade-off.
Bisection on these slopes finds the extremizers of criteria 5 and 6 without a grid.
"""

import cmath
import math

import numpy as np
import pytest

from optocorr import evaluate_point, figure_preset, params_from_config, solve_lyapunov
from optocorr.dynamics import DRIFT_TABLE, MODE_BLOCKS, THETA
from optocorr.measures import CANONICAL_PAIRS, _pair_invariants
from optocorr.params import TWO_PI

from conftest import point_matrices

BASE = figure_preset("fig5", params_from_config({})).base
PAIRS = {"".join(pair): pair for pair in CANONICAL_PAIRS}     # "c2a" -> ("c2", "a")
STEP = 1e-20        # the complex step along dV
G = dict(zip(THETA, DRIFT_TABLE.reshape(-1, 8, 8)))       # dA/dtheta_k by name


def covariance_and_derivative(phi):
    """(V, dV/dphi) at fig5's base point with phi set."""
    p = BASE.with_values(phi=phi)
    a, d, verdict, _ = point_matrices(p)
    assert verdict.stable
    v = solve_lyapunov(a, d).matrix
    da = p.j_ac_mag * (math.cos(phi) * G["jac_sin_phi"] - math.sin(phi) * G["jac_cos_phi"])
    return v, solve_lyapunov(a, da @ v + v @ da.T).matrix


def _g(x):
    return (x + 0.5) * cmath.log(x + 0.5) - (x - 0.5) * cmath.log(x - 0.5)


def pair_measures(v, dv, key):
    """{"EN": (E_N, dE_N), "DG": (D_G, dD_G)} of a canonical pair, unclamped:
    the measures' closed forms at V + i STEP dV, branches chosen by the real
    parts, so each imaginary part over STEP is the derivative along dV."""
    pair = PAIRS[key]
    i1, i2, i3, i4 = _pair_invariants((v + 1j * STEP * dv).tolist(),
                                      MODE_BLOCKS[pair[0]] + MODE_BLOCKS[pair[1]])

    def nus(i3):
        sigma = i1 + i2 + 2 * i3
        root = cmath.sqrt(sigma * sigma - 4 * i4)
        return cmath.sqrt((sigma - root) / 2), cmath.sqrt((sigma + root) / 2)

    e_n = -cmath.log(2 * nus(-i3)[0])
    gap = i1 * i2 - i4
    if (4 * gap * gap).real <= ((i2 + 4 * i4) * (1 + 4 * i1) * i3 * i3).real:
        abs_i3 = i3 if i3.real >= 0 else -i3
        w = ((2 * abs_i3 + cmath.sqrt(4 * i3 * i3 + (4 * i1 - 1) * (4 * i4 - i2)))
             / (4 * i1 - 1)) ** 2
    else:
        s = i1 * i2 + i4 - i3 * i3
        w = (s - cmath.sqrt(s * s - 4 * i1 * i2 * i4)) / (2 * i1)
    nu_lo, nu_hi = nus(i3)
    d_g = _g(cmath.sqrt(i1)) - _g(nu_lo) - _g(nu_hi) + _g(cmath.sqrt(w))
    return {family: (z.real, z.imag / STEP) for family, z in (("EN", e_n), ("DG", d_g))}


def slope(column, phi):
    """d/dphi of a report column such as "EN_ab"."""
    family, key = column.split("_")
    return pair_measures(*covariance_and_derivative(phi), key)[family][1]


def extremizer(column, lo, hi):
    """The phi in [lo, hi] where the column's slope changes sign, by bisection
    down to a bracket under 1e-10 rad."""
    rising = slope(column, lo) > 0
    assert rising != (slope(column, hi) > 0), f"{column}: no sign change in [{lo}, {hi}]"
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if (slope(column, mid) > 0) == rising:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cells(phi):
    return evaluate_point(BASE.with_values(phi=phi)).report.as_flat_dict()


GRID = [phi for (phi,) in figure_preset("fig5", BASE, counts=(21,)).grid()]


def test_covariance_derivative_matches_central_difference():
    # the difference's own error at h = 1e-6 is rounding, about eps ||V|| / h
    # relative to ||dV||: measured 4.1e-10 to 1.7e-9 over the 21 points
    h = 1e-6
    for phi in GRID:
        dv = covariance_and_derivative(phi)[1]
        difference = (covariance_and_derivative(phi + h)[0]
                      - covariance_and_derivative(phi - h)[0]) / (2 * h)
        assert np.linalg.norm(dv - difference) <= 1e-8 * np.linalg.norm(dv), phi


def test_measure_slopes_match_central_differences_of_the_cells():
    # evaluate_point's own cells, differenced at h = 1e-4: truncation and the
    # cells' round-off leave at most 6.1e-10 over the 21 points and 6 columns
    h = 1e-4
    for phi in GRID:
        v, dv = covariance_and_derivative(phi)
        here, up, down = cells(phi), cells(phi + h), cells(phi - h)
        for key in PAIRS:
            for family, (value, derivative) in pair_measures(v, dv, key).items():
                column = f"{family}_{key}"
                if 0.0 in (here[column], up[column], down[column]):
                    continue        # separable: E_N is clamped to 0
                assert value == pytest.approx(here[column], rel=1e-12, abs=1e-15), column
                assert abs(derivative - (up[column] - down[column]) / (2 * h)) <= 1e-8, \
                    (column, phi)


def test_en_ab_is_not_extremal_at_pi():
    # criterion 5 expects EN_ab's maximum at pi; its slope there is 1.4e-2
    assert slope("EN_ab", math.pi) == pytest.approx(1.4234305683e-2, rel=1e-8)


# criterion -> (column, "max" or "min", bracket, location in rad), each the
# extremizer a failing check of criterion 5 or 6 reads off the 201-point grid
EXTREMIZERS = {
    "5: EN_ab max": ("EN_ab", "max", (3.4, 3.65), 3.5308899164),
    "6: DG_ab min": ("DG_ab", "min", (0.05, 0.3), 0.1639998956),
    "6: DG_c2b min": ("DG_c2b", "min", (0.6, 0.9), 0.7447163935),
    "6: DG_c2b min, mirrored": ("DG_c2b", "min", (TWO_PI - 0.9, TWO_PI - 0.6), 5.5384689137),
}


@pytest.mark.parametrize("column,kind,bracket,location", EXTREMIZERS.values(),
                         ids=EXTREMIZERS.keys())
def test_extremizer_location(column, kind, bracket, location):
    """Each location to 1e-9 rad.  Bisection stops at a 1e-10 bracket; at
    these points the slope's round-off is at most about 1e-12 against a
    curvature |f''| of at least 0.019, so round-off moves the sign change by
    under 1e-10.  The test asserts what it can defend: the slope changes
    sign, in the kind's direction, across phi +- 1e-9."""
    phi = extremizer(column, *bracket)
    assert abs(phi - location) <= 1e-9
    below, above = slope(column, phi - 1e-9), slope(column, phi + 1e-9)
    assert (below > 0 > above) if kind == "max" else (below < 0 < above)
    # off the multiples of pi by more than criteria 5 and 6 allow (pi/50)
    assert min(abs(phi - x) for x in (0.0, math.pi, TWO_PI)) > math.pi / 50
