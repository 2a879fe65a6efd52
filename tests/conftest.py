import functools

import numpy as np
import pytest
from scipy.linalg import expm

from optocorr import SystemParams, figure_preset, params_from_config, run_sweep
from optocorr.dynamics import (MODE_BLOCKS, assess_stability, build_diffusion, build_drift,
                               default_margin_tol)
from optocorr.params import thermal_occupation, with_keys


# each sweep axis's config keys, as README states them
AXIS_CONFIG_KEYS = {
    "phi": ("phi_rad",), "delta_at": ("delta_at_over_omegam",),
    "delta_eff_common": ("delta1_over_omegam", "delta2_over_omegam"),
    "G1": ("G1_mhz",), "G2": ("G2_mhz",), "Jac": ("Jac_mhz",), "Jab": ("Jab_mhz",),
    "T": ("T_kelvin",), "f": ("f_mhz",),
}


@pytest.fixture
def base_params() -> SystemParams:
    """Baseline operating point (package defaults)."""
    return params_from_config({})


def point_matrices(params: SystemParams):
    """(A, D, verdict, n_th) of one point, from the public stage functions:
    the tests' own copy of the chain and margin rule `evaluate_point` applies."""
    a = build_drift(params)
    n_th = thermal_occupation(params.omega_m, params.temperature)
    verdict = assess_stability(a, margin_tol=default_margin_tol(params))
    return a, build_diffusion(params, n_th), verdict, n_th


def apply_axes(spec, point) -> SystemParams:
    """The record of any point on the spec's axes, built from config keys: the
    base with every axis's keys set to the point's value."""
    return with_keys(spec.base, {key: value for axis, value in zip((spec.axis1, spec.axis2), point)
                                 for key in AXIS_CONFIG_KEYS[axis.name]})


def grid_params(spec):
    """(point, record) of each point of the spec's grid, in grid order."""
    for point in spec.grid():
        yield point, apply_axes(spec, point)


def stable_drifts(preset, counts):
    """(A, D) of the stable points of a preset's grid at the package defaults."""
    systems = []
    for _, params in grid_params(figure_preset(preset, params_from_config({}), counts=counts)):
        a, d, verdict, _ = point_matrices(params)
        if verdict.stable:
            systems.append((a, d))
    return systems


@functools.cache
def preset_curves(preset):
    """Each column of a preset's default run at the package defaults, as a float array
    (NaN for a missing or error cell); one run per preset, shared by its callers."""
    result = run_sweep(figure_preset(preset, params_from_config({})))
    rows = np.array([[np.nan if v is None or isinstance(v, str) else float(v) for v in r]
                     for r in result.rows])
    return {c: rows[:, i] for i, c in enumerate(result.columns)}


def extract_submatrix(v: np.ndarray, modes) -> np.ndarray:
    """Rows/columns of the given modes of an 8x8 CM, order preserved; an
    index-array copy, independent of the slices the package reads."""
    idx = []
    for m in modes:
        if m not in MODE_BLOCKS:
            raise ValueError(f"unknown mode tag {m!r}")
        idx.extend(MODE_BLOCKS[m])
    if len(set(modes)) != len(modes):
        raise ValueError("mode tags must be distinct")
    return v[np.ix_(idx, idx)]


def random_symplectic(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """exp(Omega K) with symmetric K is symplectic in the qpqp ordering."""
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    k = rng.normal(scale=0.3, size=(2 * n_modes, 2 * n_modes))
    k = 0.5 * (k + k.T)
    return expm(omega @ k)


def random_physical_cm(n_modes: int, rng: np.random.Generator,
                       min_nu: float = 0.5) -> np.ndarray:
    """V = S diag(nu) S^T with symplectic eigenvalues nu >= 1/2."""
    s = random_symplectic(n_modes, rng)
    nus = min_nu + rng.exponential(scale=0.4, size=n_modes)
    d = np.diag(np.repeat(nus, 2))
    return s @ d @ s.T


def random_stable_system(n: int, rng: np.random.Generator):
    """Random (A, D) with A strictly stable and D positive semidefinite."""
    a = rng.normal(size=(n, n))
    shift = np.max(np.linalg.eigvals(a).real)
    a = a - (shift + 0.3 + rng.uniform(0.0, 1.0)) * np.eye(n)
    b = rng.normal(size=(n, n))
    d = b @ b.T
    return a, d


def tmsv_cm(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum in the half-unit convention."""
    ch = 0.5 * np.cosh(2.0 * r)
    sh = 0.5 * np.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    v = np.zeros((4, 4))
    v[:2, :2] = ch * np.eye(2)
    v[2:, 2:] = ch * np.eye(2)
    v[:2, 2:] = sh * z
    v[2:, :2] = sh * z
    return v
