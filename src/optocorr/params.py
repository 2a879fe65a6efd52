"""Physical units, validated parameter records, and thermal occupation.

Unit conventions
----------------
Config keys use the "frequency over 2 pi" convention in the unit each key
names (MHz for most rates, Hz for the mechanical damping, kHz for the
single-photon couplings, THz for the laser; powers in watt).  Internally
every rate, detuning and coupling is an angular frequency in rad/us, which
keeps drift-matrix entries O(1)-O(100); temperature stays in kelvin.
"""

from __future__ import annotations

import cmath
import math
import reprlib
import sys
from dataclasses import dataclass, fields

from .errors import ConfigError, ParameterError

TWO_PI = 2.0 * math.pi

# SI constants (CODATA)
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K

# internal angular unit is rad/us; rad/s = 1e6 * rad/us
RAD_PER_US_TO_RAD_PER_S = 1.0e6


# The input domain, in internal units (README, "Input domain"): every SystemParams field and
# drive quantity has magnitude at most MAGNITUDE_MAX, and the strictly positive rates and
# omega_l are at least RATE_MIN.  MAGNITUDE_MAX**2 / RATE_MIN <= 9.4e273 keeps 2 P kappa /
# (hbar omega_l) finite, and with it every entry of A, D and the drive.
MAGNITUDE_MAX = 1.0e90
RATE_MIN = 1.0e-90
# the fields a record holds strictly positive, and those it holds non-negative
_RATES = ("omega_m", "gamma_m", "f", "kappa1", "kappa2")
_NON_NEGATIVE = ("g1_eff", "g2_eff", "j_ac_mag", "j_ab", "temperature")
# field or drive key -> its least value inside the domain, where that is not -MAGNITUDE_MAX
_LEAST = dict.fromkeys(_RATES + ("omega_l_thz",), RATE_MIN)


def _domain(name: str) -> str:
    """The input domain of a field or drive key, in internal units."""
    return f"[{_LEAST.get(name, -MAGNITUDE_MAX):g}, {MAGNITUDE_MAX:g}]"


def mhz_to_angular(nu_mhz: float) -> float:
    """Frequency nu (MHz, the nu = omega/2pi convention) -> rad/us."""
    return TWO_PI * nu_mhz


def hz_to_angular(nu_hz: float) -> float:
    """Frequency nu (Hz) -> rad/us."""
    return TWO_PI * nu_hz * 1.0e-6


@dataclass(frozen=True)
class SystemParams:
    """All rates in rad/us, phase in rad, temperature in kelvin.

    delta1_eff/delta2_eff are the effective cavity detunings (bare
    detuning shifted by the static mechanical displacement); g1_eff and
    g2_eff the effective optomechanical couplings.
    """

    omega_m: float
    gamma_m: float
    f: float
    kappa1: float
    kappa2: float
    delta1_eff: float
    delta2_eff: float
    delta_at: float
    g1_eff: float
    g2_eff: float
    j_ac_mag: float
    phi: float
    j_ab: float
    temperature: float

    def __post_init__(self):
        _check(vars(self))

    def with_values(self, **changes) -> "SystemParams":
        """This record with `changes` set, checking only those: each check bounds one field
        and the others passed, so the first failure is the one a whole record would raise."""
        record = object.__new__(type(self))
        vars(record).update(vars(self), **changes)
        if len(vars(record)) > len(vars(self)):
            unknown = ", ".join(sorted(vars(record).keys() - vars(self).keys()))
            raise TypeError(f"SystemParams has no field(s) {unknown}")
        _check(changes)
        return record


# SystemParams' checks in whole-record order, as (field, test its value passes, message)
_CHECKS = (
    [(name, lambda v: v > 0.0, "{name} must be strictly positive, got {v!r}") for name in _RATES]
    + [(name, lambda v: not v < 0.0, "{name} must be non-negative, got {v!r}")
       for name in _NON_NEGATIVE]
    + [(fld.name, lambda v, lo=_LEAST.get(fld.name, -MAGNITUDE_MAX): lo <= v <= MAGNITUDE_MAX,
        "{name} must lie in the input domain " + _domain(fld.name) + ", got {v!r}")
       for fld in fields(SystemParams)])


def _check(values: dict) -> None:
    """Raise the first of `_CHECKS`, in whole-record order, that a field in `values` fails."""
    for name, passes, message in _CHECKS:
        if name in values and not passes(values[name]):
            raise ParameterError(message.format(name=name, v=values[name]))


@dataclass(frozen=True)
class RawDriveParams:
    """Bare-drive description consumed by the mean-field solver.

    g1, g2 are single-photon optomechanical couplings, drive_e1/drive_e2
    the complex drive amplitudes and delta1_bare/delta2_bare the bare
    cavity detunings, all in rad/us.
    """

    g1: float
    g2: float
    drive_e1: complex
    drive_e2: complex
    delta1_bare: float
    delta2_bare: float

    def __post_init__(self):
        if self.g1 < 0.0 or self.g2 < 0.0:
            raise ParameterError("single-photon couplings g1, g2 must be non-negative")
        for fld in fields(self):
            v = getattr(self, fld.name)
            if not cmath.isfinite(v):
                raise ParameterError(f"{fld.name} must be finite, got {v!r}")


def thermal_occupation(omega_m: float, temperature: float) -> float:
    """Bose-Einstein phonon number of the mechanical bath, omega_m in rad/us and temperature
    in kelvin, each inside the input domain, where n_th and 2 n_th + 1 are finite.  The
    zero-temperature limit is exactly 0, also for a subnormal temperature whose k_B T is 0."""
    if not (RATE_MIN <= omega_m <= MAGNITUDE_MAX and 0.0 <= temperature <= MAGNITUDE_MAX):
        raise ParameterError(f"omega_m {omega_m!r} rad/us or temperature {temperature!r} K is "
                             "outside the input domain")
    k_t = K_B * temperature
    if k_t == 0.0:
        return 0.0
    try:
        return 1.0 / math.expm1(HBAR * omega_m * RAD_PER_US_TO_RAD_PER_S / k_t)
    except OverflowError:  # x > ~709.8: n_th < 1e-308, so 2 n_th + 1 == 1
        return 0.0


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

# system key -> (default, the SystemParams field it sets, its value's conversion to
# internal units given omega_m in rad/us).  The defaults are the baseline operating
# point of the README examples (anti-Stokes cavities, Stokes atoms, 10 mK bath).
SYSTEM_KEYS = {
    "omega_m_mhz": (24.0, "omega_m", lambda v, omega_m: mhz_to_angular(v)),
    "gamma_m_hz": (100.0, "gamma_m", lambda v, omega_m: hz_to_angular(v)),
    "f_mhz": (1.0, "f", lambda v, omega_m: mhz_to_angular(v)),
    "kappa1_mhz": (2.0, "kappa1", lambda v, omega_m: mhz_to_angular(v)),
    "kappa2_mhz": (2.0, "kappa2", lambda v, omega_m: mhz_to_angular(v)),
    "G1_mhz": (2.0, "g1_eff", lambda v, omega_m: mhz_to_angular(v)),
    "G2_mhz": (4.0, "g2_eff", lambda v, omega_m: mhz_to_angular(v)),
    "Jac_mhz": (12.0, "j_ac_mag", lambda v, omega_m: mhz_to_angular(v)),
    "Jab_mhz": (1.0, "j_ab", lambda v, omega_m: mhz_to_angular(v)),
    "phi_rad": (math.pi / 2.0, "phi", lambda v, omega_m: v),
    "delta1_over_omegam": (1.0, "delta1_eff", lambda v, omega_m: v * omega_m),
    "delta2_over_omegam": (1.0, "delta2_eff", lambda v, omega_m: v * omega_m),
    "delta_at_over_omegam": (-1.0, "delta_at", lambda v, omega_m: v * omega_m),
    "T_kelvin": (0.010, "temperature", lambda v, omega_m: v),
}

# drive key -> its value's conversion to internal units given omega_m (read only by `steady`).
DRIVE_KEYS = {
    "g1_khz": lambda v, omega_m: mhz_to_angular(v * 1.0e-3),
    "g2_khz": lambda v, omega_m: mhz_to_angular(v * 1.0e-3),
    "E1_mhz": lambda v, omega_m: mhz_to_angular(v),
    "E2_mhz": lambda v, omega_m: mhz_to_angular(v),
    "delta1_bare_over_omegam": lambda v, omega_m: v * omega_m,
    "delta2_bare_over_omegam": lambda v, omega_m: v * omega_m,
    "power1_w": lambda v, omega_m: v,
    "power2_w": lambda v, omega_m: v,
    "omega_l_thz": lambda v, omega_m: mhz_to_angular(v * 1.0e6),
}

KNOWN_KEYS = set(SYSTEM_KEYS) | set(DRIVE_KEYS)

# config key -> (the name its value sets: a SystemParams field, or a drive key itself,
# the value's conversion to internal units given omega_m), in table order
_CONVERSIONS = {**{key: (field, convert) for key, (_, field, convert) in SYSTEM_KEYS.items()},
                **{key: (key, convert) for key, convert in DRIVE_KEYS.items()}}


def validate_config(raw: dict) -> dict:
    """The one gate for config values, from a file or --set: known keys only,
    each value a number or text that float() reads, returned as that float."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping of key: value")
    unknown = sorted(str(key) for key in raw if key not in KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    out = {}
    for key, value in raw.items():
        try:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise TypeError
            out[key] = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key} must be a number, "
                              f"got {reprlib.repr(value)}") from exc
    return out


def load_config(path: str) -> dict:
    """Load a YAML config file, JSON included, and pass it through the gate.

    Tabs are read as spaces, so a tab-indented file loads; a JSON string
    cannot hold a raw tab, so this changes only whitespace between tokens."""
    import yaml     # only a config file needs the parser

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh.read().expandtabs())
        except (ValueError, yaml.YAMLError) as exc:
            reason = " ".join(str(exc).split())
            if "integer string conversion" in reason:   # Python's int digit limit
                reason = f"a number has more than {sys.get_int_max_str_digits()} digits"
            raise ConfigError(f"cannot parse config {path}: {reason}") from exc
    if raw is None:
        raw = {}
    return validate_config(raw)


def apply_overrides(cfg: dict, overrides) -> dict:
    """Merge repeatable key=value overrides over a config, through the gate."""
    out = dict(cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, text = item.partition("=")
        out[key.strip()] = text
    return validate_config(out)


def system_config(cfg: dict) -> dict:
    """Every system key's value in its config unit: the config's, else the default."""
    return {key: cfg.get(key, default) for key, (default, _, _) in SYSTEM_KEYS.items()}


def _internal(values: dict, omega_m: float) -> dict:
    """Config-unit `values` in internal units given omega_m in rad/us, each under the name
    it sets, in one pass in table order.  The first key whose value in them leaves the input
    domain is named, before any check of what it sets, unless a rate before it is not
    positive: that is left to the record's sign rule."""
    out, checking = {}, True
    for key, (name, to_internal) in _CONVERSIONS.items():
        if key not in values:
            continue
        v = out[name] = to_internal(values[key], omega_m)
        checking = checking and not (name in _RATES and values[key] <= 0.0)
        if checking and not _LEAST.get(name, -MAGNITUDE_MAX) <= v <= MAGNITUDE_MAX:
            raise ParameterError(f"config key {key} = {values[key]!r} is outside the input "
                                 f"domain {_domain(name)}: it is {v!r} in internal units")
    return out


def params_from_config(cfg: dict) -> SystemParams:
    """Resolve a validated config mapping into internal angular units."""
    c = system_config(cfg)
    return SystemParams(**_internal(c, SYSTEM_KEYS["omega_m_mhz"][2](c["omega_m_mhz"], None)))


def key_fields(p: SystemParams, values: dict) -> dict:
    """The fields that system keys in their config units set on `p`, in internal
    units (omega_m multiples of p.omega_m)."""
    if "omega_m_mhz" in values:     # p's detunings would stay multiples of the old omega_m
        raise ConfigError("omega_m_mhz cannot be set on a built record")
    return _internal(values, p.omega_m)


def with_keys(p: SystemParams, values: dict) -> SystemParams:
    """`p` with system keys set in their config units."""
    return p.with_values(**key_fields(p, values))


def drive_from_config(cfg: dict, params: SystemParams) -> RawDriveParams:
    """Resolve the drive keys of the `steady` subcommand: the four required ones and
    one drive form, amplitudes or powers; a drive key the form does not read is an error.
    A power of 0 or -0 W gives a drive of exactly 0.0."""
    required = ("g1_khz", "g2_khz", "delta1_bare_over_omegam", "delta2_bare_over_omegam")
    missing = [k for k in required if k not in cfg]
    if missing:
        raise ConfigError(f"steady-state solve requires config key(s): {', '.join(missing)}")
    c = _internal({key: cfg[key] for key in DRIVE_KEYS if key in cfg}, params.omega_m)
    if "E1_mhz" in c and "E2_mhz" in c:
        form, e1, e2 = ("E1_mhz", "E2_mhz"), c["E1_mhz"], c["E2_mhz"]
    elif "power1_w" in c and "power2_w" in c and "omega_l_thz" in c:
        form = ("power1_w", "power2_w", "omega_l_thz")
        if not (c["power1_w"] >= 0.0 and c["power2_w"] >= 0.0):
            raise ParameterError("power must be non-negative")
        # E = sqrt(2 P kappa / (hbar omega_l)), at most 1.38e146 rad/us inside the domain
        photon = HBAR * (c["omega_l_thz"] * RAD_PER_US_TO_RAD_PER_S)
        e1, e2 = (math.sqrt(2.0 * c[key] * (kappa * RAD_PER_US_TO_RAD_PER_S) / photon)
                  / RAD_PER_US_TO_RAD_PER_S + 0.0
                  for key, kappa in (("power1_w", params.kappa1), ("power2_w", params.kappa2)))
    else:
        raise ConfigError("steady-state solve requires either E1_mhz/E2_mhz or "
                          "power1_w/power2_w/omega_l_thz")
    unread = [k for k in c if k not in required and k not in form]
    if unread:
        raise ConfigError(f"drive key(s) {', '.join(unread)} not read beside {'/'.join(form)}")
    return RawDriveParams(g1=c["g1_khz"], g2=c["g2_khz"], drive_e1=e1, drive_e2=e2,
                          delta1_bare=c["delta1_bare_over_omegam"],
                          delta2_bare=c["delta2_bare_over_omegam"])
