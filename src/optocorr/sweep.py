"""Parameter sweeps over the pipeline and the figure presets.

Grids are linear and inclusive of both endpoints.  Every grid point is
evaluated on its own, and only as far as the spec's measures need: a
stability-only or unstable point stops after the drift, the thermal
occupation and the drift spectrum, and an `EN_*` point skips the
discord and the tripartite spectra.  Each axis value is converted once,
a point's record is the base with its axes' fields set (and only those
checked), and the unstable policy is applied as the point is evaluated.
Rows are in grid order (axis1 outer, axis2 inner) for any worker count.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
from dataclasses import dataclass, asdict
from functools import cached_property
from itertools import chain, product, repeat

from . import __version__
from .errors import ConfigError, UnstableDriftError
from .measures import DG_MEASURES, EN_MEASURES, MEASURE_KEYS
from .params import SystemParams, key_fields, with_keys
from .pipeline import evaluate_point

UNSTABLE_POLICIES = ("missing", "skip", "error")

# sweepable parameter -> the system key(s) its value sets, in their config units
_AXIS_KEYS = {"phi": ("phi_rad",), "delta_at": ("delta_at_over_omegam",),
              "delta_eff_common": ("delta1_over_omegam", "delta2_over_omegam"),
              "G1": ("G1_mhz",), "G2": ("G2_mhz",), "Jac": ("Jac_mhz",), "Jab": ("Jab_mhz",),
              "T": ("T_kelvin",), "f": ("f_mhz",)}

SWEEPABLE = tuple(_AXIS_KEYS)


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in _AXIS_KEYS:
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
    measures: tuple = EN_MEASURES + DG_MEASURES + ("Rtau_min",)
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

    @cached_property
    def measure_columns(self):
        """The emitted measure columns: the measures but "stability", which
        is the `stable` column every row has."""
        return tuple(m for m in self.measures if m != "stability")

    def columns(self):
        axes = [self.axis1.name] if self.axis2 is None else [self.axis1.name, self.axis2.name]
        return [*axes, "stable", *self.measure_columns, "error"]

    def grid(self):
        """Grid points in emitted order: axis1 outer, axis2 inner."""
        return list(product(*(axis.values() for axis in (self.axis1, self.axis2) if axis)))


@dataclass(frozen=True)
class SweepResult:
    columns: list
    rows: list          # one list per grid point, values or None for missing
    config_hash: str


def _axis_table(spec: SweepSpec, axis: Axis) -> list:
    """Each value of `axis` in grid order, with the fields its keys set on the
    base, converted once; each point checks them as it sets them on the base."""
    return [(value, key_fields(spec.base, dict.fromkeys(_AXIS_KEYS[axis.name], value)))
            for value in axis.values()]


def _evaluate_rows(spec: SweepSpec, grid) -> list:
    """Evaluate grid points given as their axis-table entries, in order, applying the
    unstable policy to each; a value that fails its check raises at its point."""
    wanted = spec.measure_columns
    rows = []
    for entries in grid:
        point, fields = zip(*entries)
        params = spec.base.with_values(**{**fields[0], **fields[-1]})     # one axis or two
        result = evaluate_point(params, spec.measures)
        stable = result.verdict.stable
        if not stable and spec.unstable_policy == "error":
            axes = spec.axis1.name + ("/" + spec.axis2.name if spec.axis2 else "")
            raise UnstableDriftError(f"unstable grid point at {axes} = {point}")
        if not stable and spec.unstable_policy == "skip":
            continue
        if result.report is None:
            cells = [None] * len(wanted)
        else:
            flat = result.report.as_flat_dict()
            cells = [flat[m] for m in wanted]
        rows.append([*point, stable, *cells, result.error])
    return rows


def config_hash(spec: SweepSpec) -> str:
    """Provenance hash of the whole spec: base point, axes, measures, policy."""
    payload = json.dumps(asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the pipeline at every grid point, computing only the spec's measures.

    Per-point numeric errors of the stages that ran land in the error
    column; only the "error" unstable policy aborts the sweep, at the first
    unstable point in grid order (with workers, from the earliest chunk
    that holds one).
    """
    if not isinstance(workers, numbers.Integral):
        raise ConfigError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    grid = list(product(*(_axis_table(spec, axis) for axis in (spec.axis1, spec.axis2) if axis)))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

        # each task costs the parent a pickle round trip and starts on a cold point, so
        # a worker gets at most 8 contiguous tasks; 64 points or more keep small grids
        # spread as before and start no more processes than ceil(n / 64)
        size = max(64, math.ceil(len(grid) / (8 * workers)))
        chunks = [grid[i:i + size] for i in range(0, len(grid), size)]
        # a fork pool starts all its workers at once, so start no more than there are chunks
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            rows = list(chain.from_iterable(pool.map(_evaluate_rows, repeat(spec), chunks)))
    else:
        rows = _evaluate_rows(spec, grid)
    return SweepResult(columns=spec.columns(), rows=rows, config_hash=config_hash(spec))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):    # RFC 4180: quote a cell holding a comma, quote or newline
        if any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return "%.12g" % value


def to_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    buf.write(f"# optocorr v{__version__} config={result.config_hash}\n")
    buf.write(",".join(result.columns) + "\n")
    for row in result.rows:
        buf.write(",".join(map(_fmt, row)) + "\n")
    return buf.getvalue()


def to_json_lines(result: SweepResult) -> str:
    buf = io.StringIO()
    buf.write(json.dumps({"tool": "optocorr", "version": __version__,
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

# preset base shifts as system keys: resonant is delta1' = delta2' = -delta_at = omega_m
_RESONANT = {"delta1_over_omegam": 1.0, "delta2_over_omegam": 1.0, "delta_at_over_omegam": -1.0}
_STOKES_ATOMS = {"delta_at_over_omegam": -1.0}

# preset id -> (base shift, axes as (name, start, stop, default count), measures)
_PRESETS = {
    "fig2": ({}, (("G1", 0.1, 5.0, 50), ("G2", 0.1, 5.0, 50)), ("stability",)),
    "fig3": ({}, (("delta_at", -2.0, 0.0, 100), ("delta_eff_common", 0.0, 2.0, 100)),
             EN_MEASURES),
    "fig4": (_RESONANT, (("Jac", 6.0, 18.0, 100), ("Jab", 0.0, 3.0, 100)), EN_MEASURES),
    "fig5": (_RESONANT, (("phi", 0.0, 2.0 * math.pi, 201),), EN_MEASURES + ("Rtau_min",)),
    "fig6": ({}, (("delta_at", -2.0, 0.0, 100), ("T", 0.001, 0.4, 100)), EN_MEASURES),
    "fig7": (_STOKES_ATOMS, (("T", 0.001, 0.4, 100), ("Jab", 1.0, 3.0, 3)),
             EN_MEASURES + ("Rtau_min",)),
    "fig8": ({}, (("delta_at", -2.0, 0.0, 100), ("T", 0.001, 0.4, 100)), DG_MEASURES),
    "fig9": ({}, (("delta_at", -2.0, 0.0, 100), ("f", 1.0, 3.0, 3)), DG_MEASURES),
    "fig10": (_RESONANT, (("phi", 0.0, 2.0 * math.pi, 201),), DG_MEASURES),
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
    return SweepSpec(base=with_keys(base, shift), axis1=built[0],
                     axis2=built[1] if len(built) > 1 else None, measures=measures)
