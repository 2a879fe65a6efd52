"""Output checks against oracles that do not share optocorr's solver or measures.

* V is recomputed with ``scipy.linalg.solve_continuous_lyapunov``
  (Bartels-Stewart), not optocorr's Kronecker solve.
* E_N is recomputed from the eigenvalues of i*Omega*V_PT, not from the
  closed-form Seralian invariants optocorr uses.
* Stability is recomputed with ``scipy.linalg.eigvals``.
* Grid axes are mapped to parameters here, not through optocorr's setters.

The drift and diffusion matrices are the model's definition, so they are
taken from ``optocorr.dynamics``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from optocorr.dynamics import build_diffusion, build_drift, default_margin_tol
from optocorr.lyapunov import residual_bound, solve_lyapunov
from optocorr.params import thermal_occupation

# Emitted cells carry 12 significant digits.  Over all 8661 stable points
# of fig3 the two Lyapunov routes give E_N within 7.2e-9 of each other
# (worst at E_N = 0.0103), a third of this tolerance.
EN_ATOL = 1.0e-8
EN_RTOL = 1.0e-6

# oracle sample sizes (stable points only): per grid, per block of drive points
SAMPLE = 48
DRIVE_SAMPLE = 8

PAIR_INDEX = {"c2a": (2, 3, 4, 5), "ab": (4, 5, 6, 7), "c2b": (2, 3, 6, 7)}
OMEGA_2 = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
PT_SECOND = np.diag([1.0, 1.0, 1.0, -1.0])

TWO_PI = 2.0 * math.pi
AXIS_FIELDS = {
    "delta_at": lambda p, v: {"delta_at": v * p.omega_m},
    "delta_eff_common": lambda p, v: {"delta1_eff": v * p.omega_m,
                                      "delta2_eff": v * p.omega_m},
    "G1": lambda p, v: {"g1_eff": TWO_PI * v},
    "G2": lambda p, v: {"g2_eff": TWO_PI * v},
}


@dataclass
class Verdict:
    """Outcome of checking one run's output."""

    attempted: int = 0      # distinct inputs; repeated passes must reproduce them
    failed_ops: set = field(default_factory=set)   # typed errors or a failed check
    problems: list = field(default_factory=list)   # check failures (wrong output)
    counts: dict = field(default_factory=dict)
    passes: int = 1

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def correct(self) -> bool:
        return not self.problems

    def problem(self, text: str) -> None:
        self.problems.append(text)


def en_oracle(v: np.ndarray) -> dict:
    """{pair: E_N} from the PT symplectic spectrum of each 4x4 block."""
    out = {}
    for pair, idx in PAIR_INDEX.items():
        v4 = PT_SECOND @ v[np.ix_(idx, idx)] @ PT_SECOND
        nu = float(np.min(np.abs(np.linalg.eigvals(1j * OMEGA_2 @ v4))))
        out[pair] = max(0.0, -math.log(2.0 * nu))
    return out


def oracle_stable(params) -> bool:
    a = build_drift(params)
    return float(np.max(scipy.linalg.eigvals(a).real)) < -default_margin_tol(params)


def point_problems(params, cells: dict) -> list:
    """Recompute one stable point and compare with its emitted cells.

    `cells` maps measure names (EN_c2a, ...) to emitted floats.
    """
    a = build_drift(params)
    d = build_diffusion(params, thermal_occupation(params.omega_m, params.temperature))
    out = []
    cm = solve_lyapunov(a, d, check_stability=False)
    bound = residual_bound(a, cm.matrix, d)
    if not cm.residual_norm <= bound:
        out.append(f"Lyapunov residual {cm.residual_norm:.3e} above bound {bound:.3e}")
    ref = en_oracle(scipy.linalg.solve_continuous_lyapunov(a, -d))
    for pair, want in ref.items():
        got = cells.get(f"EN_{pair}")
        if got is not None and abs(got - want) > EN_ATOL + EN_RTOL * abs(want):
            out.append(f"EN_{pair}={got!r} but oracle gives {want!r}")
    return out


def measure_problems(cells: dict) -> list:
    """E_N and D_G must be finite and non-negative (R_tau may be negative)."""
    return [f"{k}={v!r} is negative or not finite" for k, v in cells.items()
            if k.startswith(("EN_", "DG_")) and not (math.isfinite(v) and v >= 0.0)]


def grid_params(spec, point):
    p = spec.base
    for axis, value in zip((spec.axis1, spec.axis2), point):
        p = replace(p, **AXIS_FIELDS[axis.name](p, value))
    return p


def check_grid(text: str, spec, seed: int) -> Verdict:
    """Check a figure CSV against the spec that produced it."""
    verdict = Verdict()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# optocorr v"):
        verdict.problem("missing provenance header")
        return verdict
    columns = spec.columns()
    if lines[1].split(",") != columns:
        verdict.problem(f"columns {lines[1]!r} != {columns!r}")
        return verdict
    grid = spec.grid()
    rows = [line.split(",") for line in lines[2:]]
    verdict.attempted = len(grid)
    if len(rows) != len(grid):
        verdict.problem(f"{len(rows)} rows for {len(grid)} grid points")
        return verdict

    n_axes = len(grid[0])
    measures = columns[n_axes + 1:-1]
    stable_rows = []
    counts = {"stable_points": 0, "unstable_points": 0, "errored_points": 0,
              "measure_cells": 0}
    for i, (point, row) in enumerate(zip(grid, rows)):
        bad = []
        if len(row) != len(columns):
            verdict.failed_ops.add(i)
            verdict.problem(f"row {i}: {len(row)} cells")
            continue
        if row[:n_axes] != ["%.12g" % x for x in point]:
            bad.append(f"axis cells {row[:n_axes]} != {point}")
        params = grid_params(spec, point)
        stable = row[n_axes] == "1"
        if row[n_axes] not in ("0", "1") or stable != oracle_stable(params):
            bad.append(f"stable={row[n_axes]!r} disagrees with scipy eigvals")
        if row[-1]:
            counts["errored_points"] += 1
            verdict.failed_ops.add(i)
            continue
        values = row[n_axes + 1:-1]
        if stable:
            counts["stable_points"] += 1
            if "" in values:
                bad.append("stable point with an empty measure cell")
            else:
                cells = dict(zip(measures, map(float, values)))
                counts["measure_cells"] += len(cells)
                bad += measure_problems(cells)
                stable_rows.append((i, params, cells))
        else:
            counts["unstable_points"] += 1
            if any(values):
                bad.append("unstable point with measure values")
        if bad:
            verdict.failed_ops.add(i)
            verdict.problem(f"row {i} {point}: " + "; ".join(bad))

    picked = random.Random(seed).sample(stable_rows, min(SAMPLE, len(stable_rows)))
    for i, params, cells in picked:
        bad = point_problems(params, cells)
        if bad:
            verdict.failed_ops.add(i)
            verdict.problem(f"row {i}: " + "; ".join(bad))
    verdict.counts = counts
    return verdict


def check_drive(outcomes, seed: int, verdict: Verdict, offset: int = 0) -> Verdict:
    """Check drive-point outcomes: (point, PointResult, flat dict) or the
    name of the typed error the chain raised."""
    counts = verdict.counts
    for key in ("stable_points", "unstable_points", "errored_points"):
        counts.setdefault(key, 0)
    stable_ops = []
    for i, outcome in enumerate(outcomes, start=offset):
        verdict.attempted += 1
        if isinstance(outcome, str) or outcome[1].error:
            counts["errored_points"] += 1
            verdict.failed_ops.add(i)
            continue
        point, result, flat = outcome
        bad = []
        if result.verdict.stable != oracle_stable(point):
            bad.append(f"stable={result.verdict.stable} disagrees with scipy eigvals")
        if flat is not None:
            counts["stable_points"] += 1
            cells = {k: v for k, v in flat.items() if k.startswith(("EN_", "DG_"))}
            bad += measure_problems(cells)
            stable_ops.append((i, point, cells))
        else:
            counts["unstable_points"] += 1
        if bad:
            verdict.failed_ops.add(i)
            verdict.problem(f"op {i}: " + "; ".join(bad))
    for i, point, cells in random.Random(seed).sample(stable_ops, min(DRIVE_SAMPLE, len(stable_ops))):
        bad = point_problems(point, cells)
        if bad:
            verdict.failed_ops.add(i)
            verdict.problem(f"op {i}: " + "; ".join(bad))
    return verdict
