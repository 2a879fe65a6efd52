"""Parameter sweeps over the pipeline and the figure presets.

Grids are linear and inclusive of both endpoints.  Every grid point is
evaluated on its own, and only as far as the spec's measures need: a
stability-only point stops at the drift spectrum (about 22 us on a 2-core
AMD EPYC with numpy 2.4), and an `EN_*` fig3 point skips the discord and
the tripartite spectra (about 60 us against about 105 us for the full
report).  Each point's parameter record is built and validated once.
Output ordering is deterministic (axis1 outer, axis2 inner) regardless of
worker count.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
from dataclasses import dataclass, asdict
from itertools import chain, repeat

from . import __version__
from .errors import ConfigError, UnstableDriftError
from .params import SystemParams, mhz_to_angular
from .pipeline import evaluate_point

MEASURE_KEYS = ("EN_c2a", "EN_ab", "EN_c2b", "DG_c2a", "DG_ab", "DG_c2b",
                "Rtau_min", "stability")

UNSTABLE_POLICIES = ("missing", "skip", "error")

# sweepable parameter -> the field updates its value makes to a base point;
# README gives each one's unit
_SETTERS = {
    "phi": lambda p, v: {"phi": v},
    "delta_at": lambda p, v: {"delta_at": v * p.omega_m},
    "delta_eff_common": lambda p, v: {"delta1_eff": v * p.omega_m, "delta2_eff": v * p.omega_m},
    "G1": lambda p, v: {"g1_eff": mhz_to_angular(v)},
    "G2": lambda p, v: {"g2_eff": mhz_to_angular(v)},
    "Jac": lambda p, v: {"j_ac_mag": mhz_to_angular(v)},
    "Jab": lambda p, v: {"j_ab": mhz_to_angular(v)},
    "T": lambda p, v: {"temperature": v},
    "f": lambda p, v: {"f": mhz_to_angular(v)},
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
        if not isinstance(self.count, numbers.Integral):
            raise ConfigError(f"axis {self.name} count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ConfigError("axis count must be at least 2")
        if self.start == self.stop:
            raise ConfigError("axis start and stop must differ")
        if not all(map(math.isfinite, self.values())):
            raise ConfigError(f"axis {self.name} from {self.start!r} to {self.stop!r} "
                              "leaves the finite floats")

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
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ConfigError(f"both axes sweep {self.axis1.name}; a parameter takes one axis")
        bad = [m for m in self.measures if m not in MEASURE_KEYS]
        if bad:
            raise ConfigError(f"unknown measure(s): {', '.join(bad)}")
        repeated = sorted({m for m in self.measures if self.measures.count(m) > 1})
        if repeated:
            raise ConfigError(f"duplicate measure(s): {', '.join(repeated)}")

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
    """The grid point's record, built and validated once."""
    updates = _SETTERS[spec.axis1.name](base, point[0])
    if spec.axis2 is not None:
        updates.update(_SETTERS[spec.axis2.name](base, point[1]))
    return base.with_values(**updates)


def _evaluate_rows(spec: SweepSpec, points) -> list:
    wanted = [m for m in spec.measures if m != "stability"]
    rows = []
    for point in points:
        result = evaluate_point(_apply_axes(spec.base, spec, point), spec.measures)
        row = [*point, result.verdict.stable]
        if result.report is None:
            row.extend([None] * len(wanted))
        else:
            flat = result.report.as_flat_dict()
            row.extend(flat[m] for m in wanted)
        row.append(result.error)
        rows.append(row)
    return rows


def config_hash(spec: SweepSpec) -> str:
    """Provenance hash of the whole spec: base point, axes, measures, policy."""
    payload = json.dumps(asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the pipeline at every grid point, computing only the spec's measures.

    Per-point numeric errors of the stages that ran land in the error
    column; only the "error" unstable policy aborts the sweep.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    points = spec.grid()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

        # one task per 64 points, so the spec is pickled once per chunk
        chunks = [points[i:i + 64] for i in range(0, len(points), 64)]
        # a fork pool starts all its workers at once, so start no more than there are chunks
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            rows = list(chain.from_iterable(pool.map(_evaluate_rows, repeat(spec), chunks)))
    else:
        rows = _evaluate_rows(spec, points)

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


def _resonant(p: SystemParams) -> SystemParams:
    """Anti-Stokes cavities and Stokes atoms: delta1' = delta2' = -delta_at = omega_m."""
    return p.with_values(delta1_eff=p.omega_m, delta2_eff=p.omega_m, delta_at=-p.omega_m)


def _stokes_atoms(p: SystemParams) -> SystemParams:
    return p.with_values(delta_at=-p.omega_m)


# preset id -> (base shift or None, axes as (name, start, stop, default count), measures)
_PRESETS = {
    "fig2": (None, (("G1", 0.1, 5.0, 50), ("G2", 0.1, 5.0, 50)), ("stability",)),
    "fig3": (None, (("delta_at", -2.0, 0.0, 100), ("delta_eff_common", 0.0, 2.0, 100)),
             EN_MEASURES),
    "fig4": (_resonant, (("Jac", 6.0, 18.0, 100), ("Jab", 0.0, 3.0, 100)), EN_MEASURES),
    "fig5": (_resonant, (("phi", 0.0, 2.0 * math.pi, 201),), EN_MEASURES + ("Rtau_min",)),
    "fig6": (None, (("delta_at", -2.0, 0.0, 100), ("T", 0.001, 0.4, 100)), EN_MEASURES),
    "fig7": (_stokes_atoms, (("T", 0.001, 0.4, 100), ("Jab", 1.0, 3.0, 3)),
             EN_MEASURES + ("Rtau_min",)),
    "fig8": (None, (("delta_at", -2.0, 0.0, 100), ("T", 0.001, 0.4, 100)), DG_MEASURES),
    "fig9": (None, (("delta_at", -2.0, 0.0, 100), ("f", 1.0, 3.0, 3)), DG_MEASURES),
    "fig10": (_resonant, (("phi", 0.0, 2.0 * math.pi, 201),), DG_MEASURES),
}

PRESET_IDS = tuple(_PRESETS)


def figure_preset(preset_id: str, base: SystemParams,
                  counts: tuple | None = None) -> SweepSpec:
    """Sweep specification behind each published parameter scan.

    `base` supplies the fixed operating point (normally the package
    defaults); the preset's shift overrides whatever the scan caption
    fixes.  `counts` optionally overrides the grid resolution, the k-th
    count going to the k-th axis; more counts than the preset has axes
    is a ConfigError.
    """
    if preset_id not in _PRESETS:
        raise ConfigError(f"unknown figure preset {preset_id!r}; "
                          f"choose from {', '.join(PRESET_IDS)}")
    shift, axes, measures = _PRESETS[preset_id]
    counts = counts or ()
    built = [Axis(name, start, stop, counts[k] if k < len(counts) else count)
             for k, (name, start, stop, count) in enumerate(axes)]
    if len(counts) > len(axes):
        raise ConfigError(f"{preset_id} has {len(axes)} axis(es), got {len(counts)} grid counts")
    return SweepSpec(base=base if shift is None else shift(base), axis1=built[0],
                     axis2=built[1] if len(built) > 1 else None, measures=measures)
