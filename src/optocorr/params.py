"""Physical units, validated parameter records, and thermal occupation.

Unit conventions
----------------
Config files use the experimentalist's "frequency over 2 pi" convention
(MHz for most rates, Hz for the mechanical damping).  Internally every
rate, detuning and coupling is stored as an angular frequency in rad/us,
which keeps drift-matrix entries O(1)-O(100).  Temperature stays in
kelvin and the thermal occupation uses SI constants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace, fields

from .errors import ConfigError, ParameterError

TWO_PI = 2.0 * math.pi

# SI constants (CODATA)
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23      # J / K

# internal angular unit is rad/us; rad/s = 1e6 * rad/us
RAD_PER_US_TO_RAD_PER_S = 1.0e6


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
        for name in ("omega_m", "gamma_m", "f", "kappa1", "kappa2"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be strictly positive, got {getattr(self, name)!r}")
        for name in ("g1_eff", "g2_eff", "j_ac_mag", "j_ab", "temperature"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        for fld in fields(self):
            v = getattr(self, fld.name)
            if not math.isfinite(v):
                raise ParameterError(f"{fld.name} must be finite, got {v!r}")

    def with_values(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)


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
    """Bose-Einstein phonon number of the mechanical bath.

    omega_m in rad/us, temperature in kelvin.  The zero-temperature
    limit returns exactly 0 (no division by zero), also for a subnormal
    temperature whose k_B T underflows to 0.  A temperature so high that
    the occupation overflows a float (above about 2e305 K at 24 MHz) is a
    ParameterError.
    """
    if not omega_m > 0.0:
        raise ParameterError("omega_m must be positive")
    if temperature < 0.0:
        raise ParameterError("temperature must be non-negative")
    k_t = K_B * temperature
    if k_t == 0.0:
        return 0.0
    x = HBAR * omega_m * RAD_PER_US_TO_RAD_PER_S / k_t
    try:
        n_th = 1.0 / math.expm1(x)
    except OverflowError:  # x > ~709.8: n_th < 1e-308, so 2 n_th + 1 == 1
        return 0.0
    except ZeroDivisionError:  # x underflowed to 0
        n_th = math.inf
    if n_th == math.inf:
        raise ParameterError(f"temperature {temperature!r} K is too high for a finite "
                             "thermal occupation")
    return n_th


def drive_amplitude(power: float, kappa: float, omega_l: float) -> float:
    """Drive amplitude E = sqrt(2 P kappa / (hbar omega_l)) in rad/us.

    power in watt, kappa and omega_l in rad/us.  power == 0 is the
    trivial undriven limit; negative inputs are rejected.
    """
    if power < 0.0:
        raise ParameterError("power must be non-negative")
    if not kappa > 0.0 or not omega_l > 0.0:
        raise ParameterError("kappa and omega_l must be positive")
    if power == 0.0:
        return 0.0
    kappa_si = kappa * RAD_PER_US_TO_RAD_PER_S
    omega_l_si = omega_l * RAD_PER_US_TO_RAD_PER_S
    e_si = math.sqrt(2.0 * power * kappa_si / (HBAR * omega_l_si))
    return e_si / RAD_PER_US_TO_RAD_PER_S


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

# System keys default to the baseline operating point used throughout the
# README examples (anti-Stokes cavities, Stokes atoms, 10 mK bath).
SYSTEM_KEY_DEFAULTS = {
    "omega_m_mhz": 24.0,
    "gamma_m_hz": 100.0,
    "f_mhz": 1.0,
    "kappa1_mhz": 2.0,
    "kappa2_mhz": 2.0,
    "G1_mhz": 2.0,
    "G2_mhz": 4.0,
    "Jac_mhz": 12.0,
    "Jab_mhz": 1.0,
    "phi_rad": math.pi / 2.0,
    "delta1_over_omegam": 1.0,
    "delta2_over_omegam": 1.0,
    "delta_at_over_omegam": -1.0,
    "T_kelvin": 0.010,
}

# Optional drive keys, required only by the `steady` subcommand.
DRIVE_KEYS = {
    "g1_khz",                 # single-photon couplings, kHz
    "g2_khz",
    "E1_mhz",                 # drive amplitudes (real), MHz
    "E2_mhz",
    "delta1_bare_over_omegam",
    "delta2_bare_over_omegam",
    "power1_w",               # alternative to E1_mhz/E2_mhz
    "power2_w",
    "omega_l_thz",            # laser frequency, THz
}

KNOWN_KEYS = set(SYSTEM_KEY_DEFAULTS) | DRIVE_KEYS


def validate_config(raw: dict) -> dict:
    """Check key names and numeric types; unknown keys are a hard error."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping of key: value")
    unknown = sorted(set(raw) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    for key, value in raw.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"config key {key} must be a number, got {value!r}")
    return dict(raw)


def load_config(path: str) -> dict:
    """Load a YAML/JSON config file and validate its keys."""
    import yaml     # only a config file needs the parser

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    return validate_config(raw)


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply repeatable key=value overrides on top of a loaded config."""
    out = dict(cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, text = item.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        try:
            out[key] = float(text)
        except ValueError as exc:
            raise ConfigError(f"override value for {key} is not a number: {text!r}") from exc
    return out


def params_from_config(cfg: dict) -> SystemParams:
    """Resolve a validated config mapping into internal angular units."""
    c = {**SYSTEM_KEY_DEFAULTS, **{k: v for k, v in cfg.items() if k in SYSTEM_KEY_DEFAULTS}}
    omega_m = mhz_to_angular(c["omega_m_mhz"])
    return SystemParams(
        omega_m=omega_m,
        gamma_m=hz_to_angular(c["gamma_m_hz"]),
        f=mhz_to_angular(c["f_mhz"]),
        kappa1=mhz_to_angular(c["kappa1_mhz"]),
        kappa2=mhz_to_angular(c["kappa2_mhz"]),
        delta1_eff=c["delta1_over_omegam"] * omega_m,
        delta2_eff=c["delta2_over_omegam"] * omega_m,
        delta_at=c["delta_at_over_omegam"] * omega_m,
        g1_eff=mhz_to_angular(c["G1_mhz"]),
        g2_eff=mhz_to_angular(c["G2_mhz"]),
        j_ac_mag=mhz_to_angular(c["Jac_mhz"]),
        phi=c["phi_rad"],
        j_ab=mhz_to_angular(c["Jab_mhz"]),
        temperature=c["T_kelvin"],
    )


def drive_from_config(cfg: dict, params: SystemParams) -> RawDriveParams:
    """Resolve the optional drive keys; needed by the `steady` subcommand."""
    missing = [k for k in ("g1_khz", "g2_khz", "delta1_bare_over_omegam",
                           "delta2_bare_over_omegam") if k not in cfg]
    if missing:
        raise ConfigError(f"steady-state solve requires config key(s): {', '.join(missing)}")
    g1 = mhz_to_angular(cfg["g1_khz"] * 1.0e-3)
    g2 = mhz_to_angular(cfg["g2_khz"] * 1.0e-3)
    d1 = cfg["delta1_bare_over_omegam"] * params.omega_m
    d2 = cfg["delta2_bare_over_omegam"] * params.omega_m
    if "E1_mhz" in cfg and "E2_mhz" in cfg:
        e1, e2 = mhz_to_angular(cfg["E1_mhz"]), mhz_to_angular(cfg["E2_mhz"])
    elif "power1_w" in cfg and "power2_w" in cfg and "omega_l_thz" in cfg:
        # drives from laser powers (watt) at the laser frequency (rad/us)
        omega_l = mhz_to_angular(cfg["omega_l_thz"] * 1.0e6)
        e1 = drive_amplitude(cfg["power1_w"], params.kappa1, omega_l)
        e2 = drive_amplitude(cfg["power2_w"], params.kappa2, omega_l)
    else:
        raise ConfigError("steady-state solve requires either E1_mhz/E2_mhz or "
                          "power1_w/power2_w/omega_l_thz")
    return RawDriveParams(g1=g1, g2=g2, drive_e1=e1, drive_e2=e2,
                          delta1_bare=d1, delta2_bare=d2)
