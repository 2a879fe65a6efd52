"""Parameter sweeps over the full pipeline and the figure presets.

Grids are linear and inclusive of both endpoints.  Every grid point is
re-evaluated from scratch; the 8x8 pipeline costs about 0.5 ms a point
(measured on a 2-core Intel Xeon host), so correctness beats cleverness.
Output ordering is deterministic (axis1 outer, axis2 inner) regardless of
worker count.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict

from . import __version__
from .errors import ConfigError, UnstableDriftError
from .params import SystemParams, mhz_to_angular
from .pipeline import evaluate_point

MEASURE_KEYS = ("EN_c2a", "EN_ab", "EN_c2b", "DG_c2a", "DG_ab", "DG_c2b",
                "Rtau_min", "stability")

UNSTABLE_POLICIES = ("missing", "skip", "error")

# sweepable parameter -> (unit note, setter)
_SETTERS = {
    "phi": ("rad", lambda p, v: p.with_values(phi=v)),
    "delta_at": ("units of omega_m", lambda p, v: p.with_values(delta_at=v * p.omega_m)),
    "delta_eff_common": ("units of omega_m",
                         lambda p, v: p.with_values(delta1_eff=v * p.omega_m,
                                                    delta2_eff=v * p.omega_m)),
    "G1": ("MHz", lambda p, v: p.with_values(g1_eff=mhz_to_angular(v))),
    "G2": ("MHz", lambda p, v: p.with_values(g2_eff=mhz_to_angular(v))),
    "Jac": ("MHz", lambda p, v: p.with_values(j_ac_mag=mhz_to_angular(v))),
    "Jab": ("MHz", lambda p, v: p.with_values(j_ab=mhz_to_angular(v))),
    "T": ("kelvin", lambda p, v: p.with_values(temperature=v)),
    "f": ("MHz", lambda p, v: p.with_values(f=mhz_to_angular(v))),
}

SWEEPABLE = tuple(_SETTERS)


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in _SETTERS:
            raise ConfigError(f"unknown sweep parameter {self.name!r}; "
                              f"choose from {', '.join(SWEEPABLE)}")
        if self.count < 2:
            raise ConfigError("axis count must be at least 2")
        if self.start == self.stop:
            raise ConfigError("axis start and stop must differ")

    def values(self):
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]


@dataclass(frozen=True)
class SweepSpec:
    base: SystemParams
    axis1: Axis
    axis2: Axis | None = None
    measures: tuple = MEASURE_KEYS[:-1]
    unstable_policy: str = "missing"

    def __post_init__(self):
        if self.unstable_policy not in UNSTABLE_POLICIES:
            raise ConfigError(f"unknown unstable policy {self.unstable_policy!r}")
        bad = [m for m in self.measures if m not in MEASURE_KEYS]
        if bad:
            raise ConfigError(f"unknown measure(s): {', '.join(bad)}")

    def columns(self):
        cols = [self.axis1.name]
        if self.axis2 is not None:
            cols.append(self.axis2.name)
        cols.append("stable")
        cols.extend(m for m in self.measures if m != "stability")
        cols.append("error")
        return cols

    def grid(self):
        """Grid points in emitted order: axis1 outer, axis2 inner."""
        v1 = self.axis1.values()
        if self.axis2 is None:
            return [(x,) for x in v1]
        v2 = self.axis2.values()
        return [(x, y) for x in v1 for y in v2]


@dataclass(frozen=True)
class SweepResult:
    columns: list
    rows: list          # one list per grid point, values or None for missing
    version: str
    config_hash: str


def _apply_axes(base: SystemParams, spec: SweepSpec, point):
    p = _SETTERS[spec.axis1.name][1](base, point[0])
    if spec.axis2 is not None:
        p = _SETTERS[spec.axis2.name][1](p, point[1])
    return p


def _evaluate_row(args):
    spec, point = args
    params = _apply_axes(spec.base, spec, point)
    result = evaluate_point(params)
    row = list(point)
    row.append(result.verdict.stable)
    wanted = [m for m in spec.measures if m != "stability"]
    if result.report is None:
        row.extend([None] * len(wanted))
    else:
        flat = result.report.as_flat_dict()
        row.extend(flat[m] for m in wanted)
    row.append(result.error)
    return row


def config_hash(spec: SweepSpec) -> str:
    """Provenance hash of the whole spec: base point, axes, measures, policy."""
    payload = json.dumps(asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the full pipeline at every grid point.

    Per-point numeric errors land in the error column; only the "error"
    unstable policy aborts the sweep.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    points = spec.grid()
    tasks = [(spec, pt) for pt in points]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_evaluate_row, tasks, chunksize=64))
    else:
        rows = [_evaluate_row(t) for t in tasks]

    n_axes = 1 if spec.axis2 is None else 2
    if spec.unstable_policy == "error":
        for row in rows:
            if row[n_axes] is False:
                point = tuple(row[:n_axes])
                raise UnstableDriftError(f"unstable grid point at {spec.axis1.name}"
                                         f"{'/' + spec.axis2.name if spec.axis2 else ''}"
                                         f" = {point}")
    elif spec.unstable_policy == "skip":
        rows = [r for r in rows if r[n_axes] is not False]
    return SweepResult(columns=spec.columns(), rows=rows,
                       version=__version__, config_hash=config_hash(spec))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, float) and math.isnan(value):
        return ""
    return "%.12g" % value


def to_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    buf.write(f"# optocorr v{result.version} config={result.config_hash}\n")
    buf.write(",".join(result.columns) + "\n")
    for row in result.rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def to_json_lines(result: SweepResult) -> str:
    buf = io.StringIO()
    buf.write(json.dumps({"tool": "optocorr", "version": result.version,
                          "config": result.config_hash,
                          "columns": result.columns}) + "\n")
    for row in result.rows:
        rec = {}
        for col, val in zip(result.columns, row):
            if isinstance(val, float):
                val = float("%.12g" % val)
            rec[col] = val
        buf.write(json.dumps(rec) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

EN_MEASURES = ("EN_c2a", "EN_ab", "EN_c2b")
DG_MEASURES = ("DG_c2a", "DG_ab", "DG_c2b")

PRESET_IDS = tuple(f"fig{i}" for i in range(2, 11))


def figure_preset(preset_id: str, base: SystemParams,
                  counts: tuple | None = None) -> SweepSpec:
    """Sweep specification behind each published parameter scan.

    `base` supplies the fixed operating point (normally the package
    defaults); the preset overrides whatever the scan caption fixes.
    `counts` optionally overrides the grid resolution (n1,) or (n1, n2).
    """
    two_pi = 2.0 * math.pi

    def ax(name, start, stop, count, which=0):
        if counts is not None and len(counts) > which:
            count = counts[which]
        return Axis(name, start, stop, count)

    if preset_id == "fig2":
        return SweepSpec(base=base,
                         axis1=ax("G1", 0.1, 5.0, 50),
                         axis2=ax("G2", 0.1, 5.0, 50, which=1),
                         measures=("stability",))
    if preset_id == "fig3":
        return SweepSpec(base=base,
                         axis1=ax("delta_at", -2.0, 0.0, 100),
                         axis2=ax("delta_eff_common", 0.0, 2.0, 100, which=1),
                         measures=EN_MEASURES)
    if preset_id == "fig4":
        p = base.with_values(delta1_eff=base.omega_m, delta2_eff=base.omega_m,
                             delta_at=-base.omega_m)
        return SweepSpec(base=p,
                         axis1=ax("Jac", 6.0, 18.0, 100),
                         axis2=ax("Jab", 0.0, 3.0, 100, which=1),
                         measures=EN_MEASURES)
    if preset_id == "fig5":
        p = base.with_values(delta1_eff=base.omega_m, delta2_eff=base.omega_m,
                             delta_at=-base.omega_m)
        return SweepSpec(base=p, axis1=ax("phi", 0.0, two_pi, 201),
                         measures=EN_MEASURES + ("Rtau_min",))
    if preset_id == "fig6":
        return SweepSpec(base=base,
                         axis1=ax("delta_at", -2.0, 0.0, 100),
                         axis2=ax("T", 0.001, 0.4, 100, which=1),
                         measures=EN_MEASURES)
    if preset_id == "fig7":
        p = base.with_values(delta_at=-base.omega_m)
        return SweepSpec(base=p,
                         axis1=ax("T", 0.001, 0.4, 100),
                         axis2=Axis("Jab", 1.0, 3.0, 3),
                         measures=EN_MEASURES + ("Rtau_min",))
    if preset_id == "fig8":
        return SweepSpec(base=base,
                         axis1=ax("delta_at", -2.0, 0.0, 100),
                         axis2=ax("T", 0.001, 0.4, 100, which=1),
                         measures=DG_MEASURES)
    if preset_id == "fig9":
        return SweepSpec(base=base,
                         axis1=ax("delta_at", -2.0, 0.0, 100),
                         axis2=Axis("f", 1.0, 3.0, 3),
                         measures=DG_MEASURES)
    if preset_id == "fig10":
        p = base.with_values(delta1_eff=base.omega_m, delta2_eff=base.omega_m,
                             delta_at=-base.omega_m)
        return SweepSpec(base=p, axis1=ax("phi", 0.0, two_pi, 201),
                         measures=DG_MEASURES)
    raise ConfigError(f"unknown figure preset {preset_id!r}; "
                      f"choose from {', '.join(PRESET_IDS)}")
