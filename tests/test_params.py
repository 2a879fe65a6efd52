import dataclasses
import itertools
import math
import random
import re
import sys

import pytest

from optocorr import SystemParams, params_from_config
from optocorr.errors import ConfigError, ParameterError
from optocorr.params import (HBAR, K_B, SYSTEM_KEYS, TWO_PI, apply_overrides,
                             drive_amplitude, drive_from_config, hz_to_angular, key_fields, load_config,
                             thermal_occupation, with_keys)

OMEGA_M = TWO_PI * 24.0  # rad/us


class TestThermalOccupation:
    def test_zero_temperature_is_exact_zero(self):
        assert thermal_occupation(OMEGA_M, 0.0) == 0.0

    def test_ln2_point_gives_one(self):
        # hbar*omega/(kB*T) = ln 2  =>  n_th = 1
        t = HBAR * OMEGA_M * 1.0e6 / (K_B * math.log(2.0))
        assert thermal_occupation(OMEGA_M, t) == pytest.approx(1.0, rel=1e-12)

    def test_24mhz_at_10mk(self):
        # independent desk evaluation of 1/(exp(hbar w / kB T) - 1)
        x = 1.054571817e-34 * 2 * math.pi * 24e6 / (1.380649e-23 * 0.010)
        expected = 1.0 / (math.exp(x) - 1.0)
        assert expected == pytest.approx(8.19, abs=0.01)
        assert thermal_occupation(OMEGA_M, 0.010) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_temperature_and_frequency(self):
        temps = [0.001, 0.01, 0.1, 1.0, 10.0]
        vals = [thermal_occupation(OMEGA_M, t) for t in temps]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        freqs = [OMEGA_M, 2 * OMEGA_M, 5 * OMEGA_M]
        vals = [thermal_occupation(w, 0.01) for w in freqs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_deep_cold_underflows_to_zero(self):
        # hbar w / kB T ~ 1150 at 1 uK: exp overflows, the occupation is e^-1150
        assert thermal_occupation(OMEGA_M, 1.0e-6) == 0.0
        # just below the overflow edge (x ~ 709.8) the closed form still runs
        t_700 = HBAR * OMEGA_M * 1.0e6 / (K_B * 700.0)
        assert thermal_occupation(OMEGA_M, t_700) == pytest.approx(math.exp(-700.0), rel=1e-12)

    def test_subnormal_temperature_is_the_zero_limit(self):
        # k_B T underflows to 0.0 below about 1e-301 K
        for t in (1e-320, 5e-324):
            assert K_B * t == 0.0 and thermal_occupation(OMEGA_M, t) == 0.0

    def test_overflowing_occupation_names_the_temperature(self):
        # above about 2e305 K, 1/expm1(x) overflows; it read inf, and the
        # covariance took the blame downstream
        for t in (3e305, 1e308):
            with pytest.raises(ParameterError, match=re.escape(f"temperature {t!r} K")):
                thermal_occupation(OMEGA_M, t)
        # just below the edge the occupation and the diffusion's 2 n_th + 1 are finite
        assert thermal_occupation(OMEGA_M, 1e305) == pytest.approx(8.6819e307, rel=1e-4)

    @pytest.mark.parametrize("t", [1.05e305, 1.1e305, 2e305])
    def test_occupation_whose_diffusion_factor_overflows_names_the_temperature(self, t):
        # n_th is finite up to about 2e305 K, but the diffusion's 2 n_th + 1
        # overflows above about 1.04e305 K, and the covariance took the blame
        with pytest.raises(ParameterError, match=re.escape(f"temperature {t!r} K is too high")):
            thermal_occupation(OMEGA_M, t)

    @pytest.mark.parametrize("omega_m, t", [(TWO_PI * 1e-300, 0.01), (TWO_PI * 5e-324, 0.01),
                                            (1e-300, 1e300)], ids=["1e-300", "5e-324", "hot"])
    def test_vanishing_frequency_is_named(self, omega_m, t):
        # hbar omega_m underflows to 0, and with it x; this blamed the temperature, also
        # at 10 mK, where the occupation of about 1/x would be finite
        message = (f"omega_m {omega_m!r} rad/us is too small: hbar omega_m / k_B T underflows "
                   f"to 0 at temperature {t!r} K")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            thermal_occupation(omega_m, t)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            thermal_occupation(0.0, 0.01)
        with pytest.raises(ParameterError):
            thermal_occupation(OMEGA_M, -1.0)

    @pytest.mark.parametrize("temperature", [-1.0, -math.inf, math.nan])
    def test_negative_or_nan_temperature_rejected(self, temperature):
        # NaN passes a bare `temperature < 0.0` test, and gave a NaN occupation
        with pytest.raises(ParameterError, match="^temperature must be non-negative$"):
            thermal_occupation(150.0, temperature)


class TestDriveAmplitude:
    KAPPA = TWO_PI * 2.0             # rad/us
    OMEGA_L = TWO_PI * 3.0e8         # 300 THz in rad/us

    def test_zero_power(self):
        for power in (0.0, -0.0):
            assert drive_amplitude(power, self.KAPPA, self.OMEGA_L).hex() == "0x0.0p+0"

    def test_sqrt_scaling(self):
        e1 = drive_amplitude(1e-3, self.KAPPA, self.OMEGA_L)
        e2 = drive_amplitude(2e-3, self.KAPPA, self.OMEGA_L)
        assert e2 == pytest.approx(math.sqrt(2.0) * e1, rel=1e-12)

    def test_milliwatt_point(self):
        # independent evaluation in SI units, converted to rad/us at the end
        kappa_si = 2 * math.pi * 2.0e6
        omega_l_si = 2 * math.pi * 3.0e14
        e_si = math.sqrt(2 * 1e-3 * kappa_si / (1.054571817e-34 * omega_l_si))
        got = drive_amplitude(1e-3, self.KAPPA, self.OMEGA_L)
        assert got == pytest.approx(e_si * 1e-6, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            drive_amplitude(-1e-3, self.KAPPA, self.OMEGA_L)
        with pytest.raises(ParameterError):
            drive_amplitude(1e-3, 0.0, self.OMEGA_L)
        with pytest.raises(ParameterError):
            drive_amplitude(1e-3, self.KAPPA, -1.0)

    def test_nan_power_is_not_non_negative(self):
        # NaN passes a bare `power < 0.0` test, and gave a NaN amplitude
        with pytest.raises(ParameterError, match="^power must be non-negative$"):
            drive_amplitude(math.nan, self.KAPPA, self.OMEGA_L)

    @pytest.mark.parametrize("power", [math.inf, 1e308, 1e300])
    def test_power_whose_amplitude_overflows(self, power):
        with pytest.raises(ParameterError,
                           match=re.escape(f"power {power!r} W is too high for a finite drive")):
            drive_amplitude(power, self.KAPPA, self.OMEGA_L)

    # (kappa, omega_l) in rad/us whose kappa / (hbar omega_l) is not a finite positive
    # SI float.  An infinite omega_l, or one whose SI value overflows, gave E = 0; one
    # whose photon energy underflows to 0 raised ZeroDivisionError; a quotient that
    # overflows, from a subnormal photon energy or an overflowing SI kappa, blamed the power.
    BAD_KAPPA_OMEGA_L = {
        "omega_l-inf": (KAPPA, math.inf), "omega_l-si-overflows": (KAPPA, 1e303),
        "photon-underflows-3e-317": (KAPPA, 3e-317), "photon-underflows-1e-314": (KAPPA, 1e-314),
        "photon-subnormal-6e-294": (KAPPA, 6e-294), "kappa-si-overflows": (1e303, OMEGA_L),
        "omega_l-0": (KAPPA, 0.0), "omega_l-negative": (KAPPA, -1.0),
        "omega_l-nan": (KAPPA, math.nan), "kappa-0": (0.0, OMEGA_L),
        "kappa-negative": (-1.0, OMEGA_L), "kappa-nan": (math.nan, OMEGA_L),
    }

    @pytest.mark.parametrize("power", [0.0, 1e-3])
    @pytest.mark.parametrize("kappa, omega_l", BAD_KAPPA_OMEGA_L.values(),
                             ids=BAD_KAPPA_OMEGA_L.keys())
    def test_kappa_or_laser_frequency_without_a_finite_drive_is_named(self, power, kappa,
                                                                      omega_l):
        message = (f"kappa {kappa!r} and laser frequency omega_l {omega_l!r} (rad/us) "
                   "give no finite positive kappa / (hbar omega_l)")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            drive_amplitude(power, kappa, omega_l)

    def test_power_is_checked_before_kappa_and_laser_frequency(self):
        with pytest.raises(ParameterError, match="^power must be non-negative$"):
            drive_amplitude(math.nan, math.nan, math.inf)

    def test_bits_of_the_parent_function(self):
        rng = random.Random(33)
        for i in range(20000):
            if i % 100 < 2:
                power = (0.0, -0.0)[i % 2]
            else:
                power = 10.0 ** rng.uniform(-15.0, 4.0)
            kappa = TWO_PI * 10.0 ** rng.uniform(-2.0, 3.0)
            omega_l = TWO_PI * rng.uniform(50.0, 2000.0) * 1e6
            want = frozen_drive_amplitude(power, kappa, omega_l)
            assert drive_amplitude(power, kappa, omega_l).hex() == want.hex(), (power, kappa,
                                                                              omega_l)


def frozen_drive_amplitude(power: float, kappa: float, omega_l: float) -> float:
    """`drive_amplitude` with its zero-power return and sign tests, as it was before
    one guard bounded kappa / (hbar omega_l): the reference for E's bits."""
    if not power >= 0.0:
        raise ParameterError("power must be non-negative")
    if not kappa > 0.0 or not omega_l > 0.0:
        raise ParameterError("kappa and omega_l must be positive")
    if power == 0.0:
        return 0.0
    kappa_si = kappa * 1.0e6
    omega_l_si = omega_l * 1.0e6
    e_si = math.sqrt(2.0 * power * kappa_si / (HBAR * omega_l_si))
    if not math.isfinite(e_si):
        raise ParameterError(f"power {power!r} W is too high for a finite drive amplitude")
    return e_si / 1.0e6


class TestUnitConversion:
    def test_hz_scale(self):
        assert hz_to_angular(100.0) == pytest.approx(TWO_PI * 1e-4, rel=1e-12)


class TestSystemParams:
    def test_defaults_resolve(self, base_params):
        assert base_params.omega_m == pytest.approx(TWO_PI * 24.0)
        assert base_params.delta_at == pytest.approx(-base_params.omega_m)
        assert base_params.temperature == 0.010

    @pytest.mark.parametrize("field", ["omega_m", "gamma_m", "f", "kappa1", "kappa2"])
    def test_positive_rates_enforced(self, base_params, field):
        with pytest.raises(ParameterError):
            base_params.with_values(**{field: 0.0})
        with pytest.raises(ParameterError):
            base_params.with_values(**{field: -1.0})

    @pytest.mark.parametrize("field", ["g1_eff", "g2_eff", "j_ac_mag", "j_ab", "temperature"])
    def test_nonnegative_enforced(self, base_params, field):
        with pytest.raises(ParameterError):
            base_params.with_values(**{field: -0.1})

    def test_nan_is_caught_by_the_finiteness_check(self, base_params):
        # NaN passes the non-negativity test; only the finiteness loop stops it
        with pytest.raises(ParameterError, match="^g1_eff must be finite, got nan$"):
            base_params.with_values(g1_eff=math.nan)

    @pytest.mark.parametrize("field", ["g1_eff", "g2_eff", "j_ab"])
    def test_coupling_whose_double_overflows(self, base_params, field):
        # H holds 2 G1, 2 G2 and 2 J_ab, so a finite coupling above half the
        # largest float is an inf in the drift matrix
        with pytest.raises(ParameterError,
                           match=f"^coupling {field} = 1e\\+308 rad/us is too large"):
            base_params.with_values(**{field: 1e308})
        half = sys.float_info.max / 2.0
        assert getattr(base_params.with_values(**{field: half}), field) == half
        # the beam splitter J_ac enters H once
        assert base_params.with_values(j_ac_mag=1e308).j_ac_mag == 1e308

    def test_merged_record_is_the_checked_record(self, base_params):
        # with_values merges the changes into the base's fields, checking only them
        checked = dataclasses.replace(base_params, phi=0.3, j_ab=2.0, temperature=0.5)
        record = base_params.with_values(phi=0.3, j_ab=2.0, temperature=0.5)
        assert type(record) is SystemParams
        assert record == checked and hash(record) == hash(checked)
        assert repr(record) == repr(checked) and list(vars(record)) == list(vars(checked))
        assert base_params.with_values() == base_params

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemParams)])
    def test_merged_record_checks_what_is_set_on_it(self, base_params, field):
        record = base_params.with_values(phi=0.3)
        with pytest.raises(ParameterError, match=f"^{field} must be finite, got inf$"):
            record.with_values(**{field: math.inf})

    def test_unknown_field_is_a_type_error(self, base_params):
        with pytest.raises(TypeError, match="SystemParams has no field.* bogus"):
            base_params.with_values(bogus=1.0)
        with pytest.raises(TypeError, match="bogus"):
            base_params.with_values(phi=-1.0, bogus=1.0)

    def test_phi_stored_raw_reported_normalized(self, base_params):
        p = base_params.with_values(phi=-math.pi)
        assert p.phi == -math.pi


def frozen_checks(values: dict) -> None:
    """`SystemParams.__post_init__` as four loops over the whole record, as it was
    before its checks became one table: the reference for what a record raises."""
    for name in ("omega_m", "gamma_m", "f", "kappa1", "kappa2"):
        if not values[name] > 0.0:
            raise ParameterError(f"{name} must be strictly positive, got {values[name]!r}")
    for name in ("g1_eff", "g2_eff", "j_ac_mag", "j_ab", "temperature"):
        if values[name] < 0.0:
            raise ParameterError(f"{name} must be non-negative, got {values[name]!r}")
    for fld in dataclasses.fields(SystemParams):
        v = values[fld.name]
        if not math.isfinite(v):
            raise ParameterError(f"{fld.name} must be finite, got {v!r}")
    for name in ("g1_eff", "g2_eff", "j_ab"):
        if not math.isfinite(2.0 * values[name]):
            raise ParameterError(f"coupling {name} = {values[name]!r} rad/us is too "
                                 "large: the Hamiltonian holds it doubled")


def raised(build):
    """What `build` raises, as (type, message), else what it returns."""
    try:
        return build()
    except ParameterError as exc:
        return type(exc), str(exc)


class TestChecksKeepTheirOrder:
    """A whole record and a record derived by `with_values` raise what the frozen
    checks raise on the whole record; where none fails, they are the record
    `dataclasses.replace` builds, bit for bit."""

    FIELDS = [f.name for f in dataclasses.fields(SystemParams)]

    @staticmethod
    def values_for(name):
        doubled = (1e308,) if name in ("g1_eff", "g2_eff", "j_ab") else ()
        return (-1.0, -0.0, math.nan, math.inf, -math.inf) + doubled

    @staticmethod
    def bits(record):
        return (repr(record), hash(record), [(k, v.hex()) for k, v in vars(record).items()])

    def check(self, base, changes):
        values = {**vars(base), **changes}
        expected = raised(lambda: frozen_checks(values))
        for build in (lambda: SystemParams(**values), lambda: base.with_values(**changes)):
            got = raised(build)
            if expected is None:
                want = dataclasses.replace(base, **changes)
                assert got == want and self.bits(got) == self.bits(want), changes
            else:
                assert got == (ParameterError, expected[1]), changes
        return expected is None

    def test_every_ordered_pair_of_fields(self, base_params):
        passed = 0
        for first, second in itertools.permutations(self.FIELDS, 2):
            for v1, v2 in itertools.product(self.values_for(first), self.values_for(second)):
                passed += self.check(base_params, {first: v1, second: v2})
        assert passed > 0      # some changes pass, and are compared as records

    def test_seeded_triples_of_fields(self, base_params):
        rng = random.Random(32)
        for _ in range(3000):
            names = rng.sample(self.FIELDS, 3)
            self.check(base_params, {name: rng.choice(self.values_for(name)) for name in names})


class TestConfig:
    def test_unknown_key_names_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("omega_m_mhz: 24\nbogus_key: 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(str(path))

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("omega_m_mhz: fast\n")
        with pytest.raises(ConfigError, match="omega_m_mhz"):
            load_config(str(path))

    def test_omega_m_is_not_set_on_a_built_record(self, base_params):
        # the record's detunings are multiples of its own omega_m
        with pytest.raises(ConfigError, match="omega_m_mhz"):
            with_keys(base_params, {"omega_m_mhz": 20.0, "delta1_over_omegam": 1.0})
        with pytest.raises(ConfigError, match="omega_m_mhz"):
            key_fields(base_params, {"omega_m_mhz": 20.0})

    def test_key_fields_are_internal_units(self, base_params):
        fields = key_fields(base_params, {"G1_mhz": 3.0, "delta1_over_omegam": 0.5})
        assert fields == {"g1_eff": TWO_PI * 3.0, "delta1_eff": 0.5 * base_params.omega_m}
        assert (with_keys(base_params, {"G1_mhz": 3.0})
                == base_params.with_values(g1_eff=TWO_PI * 3.0))

    def test_json_is_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"G1_mhz": 3.0}')
        cfg = load_config(str(path))
        assert params_from_config(cfg).g1_eff == pytest.approx(TWO_PI * 3.0)

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("G1_mhz: 3.0\n")
        cfg = apply_overrides(load_config(str(path)), ["G1_mhz=4.5"])
        assert cfg["G1_mhz"] == 4.5

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="nope"):
            apply_overrides({}, ["nope=1"])

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "bin.yaml"
        path.write_bytes(b"\xc0\x80")
        with pytest.raises(ConfigError, match="cannot parse config"):
            load_config(str(path))

    @pytest.mark.parametrize("value", ["true", "null", "[1]", "{a: 1}", "2024-01-01",
                                       "!!binary MS41"])
    def test_value_neither_number_nor_text_rejected(self, tmp_path, value):
        path = tmp_path / "bad.yaml"
        path.write_text(f"G1_mhz: {value}\n")
        with pytest.raises(ConfigError, match="config key G1_mhz must be a number"):
            load_config(str(path))

    def test_tab_indented_json_is_read_as_json(self, tmp_path):
        # YAML allows no tab in indentation
        path = tmp_path / "c.json"
        path.write_text('{\n\t"T_kelvin": 0.02\n}\n')
        assert load_config(str(path)) == {"T_kelvin": 0.02}

    def test_tab_indented_yaml_is_read(self, tmp_path):
        # tabs are read as spaces; PyYAML alone stops at the first tab
        path = tmp_path / "c.yaml"
        path.write_text("G1_mhz:\n\t3.0\nT_kelvin:\t0.02\n")
        assert load_config(str(path)) == {"G1_mhz": 3.0, "T_kelvin": 0.02}

    def test_power_drives(self, base_params):
        # each cavity's drive takes its own kappa; omega_l_thz is in THz
        p = base_params.with_values(kappa2=2.0 * base_params.kappa1)
        keys = {"g1_khz": 1.0, "g2_khz": 2.0, "delta1_bare_over_omegam": 1.0,
                "delta2_bare_over_omegam": 0.5, "power1_w": 1e-3, "power2_w": 4e-3}
        raw = drive_from_config({**keys, "omega_l_thz": 300.0}, p)
        omega_l = TWO_PI * 3.0e8
        assert raw.drive_e1 == drive_amplitude(1e-3, p.kappa1, omega_l)
        assert raw.drive_e2 == drive_amplitude(4e-3, p.kappa2, omega_l)
        assert raw.drive_e2 == pytest.approx(2.0 * math.sqrt(2.0) * raw.drive_e1, rel=1e-12)
        assert (raw.delta1_bare, raw.delta2_bare) == (p.omega_m, 0.5 * p.omega_m)
        with pytest.raises(ConfigError, match="power1_w/power2_w/omega_l_thz"):
            drive_from_config(keys, p)

    AMPLITUDES = {"E1_mhz": 1e4, "E2_mhz": 2e4}
    POWERS = {"power1_w": 1e-3, "power2_w": 4e-3, "omega_l_thz": 300.0}

    @pytest.mark.parametrize("form, extra, message", [
        (AMPLITUDES, POWERS,
         "drive key(s) power1_w, power2_w, omega_l_thz not read beside E1_mhz/E2_mhz"),
        (AMPLITUDES, {"power2_w": 4e-3}, "drive key(s) power2_w not read beside E1_mhz/E2_mhz"),
        (POWERS, {"E1_mhz": 1e4},
         "drive key(s) E1_mhz not read beside power1_w/power2_w/omega_l_thz"),
    ], ids=["powers", "lone-power", "lone-amplitude"])
    def test_drive_key_the_form_does_not_read_is_named(self, base_params, form, extra, message):
        keys = {"g1_khz": 1.0, "g2_khz": 2.0, "delta1_bare_over_omegam": 1.0,
                "delta2_bare_over_omegam": 0.5, **form}
        drive_from_config(keys, base_params)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            drive_from_config({**keys, **extra}, base_params)

    # every system key whose conversion scales its value up: phi_rad and T_kelvin are
    # taken as set
    @pytest.mark.parametrize("key", [key for key in SYSTEM_KEYS
                                     if key not in ("phi_rad", "T_kelvin")])
    def test_system_key_whose_conversion_overflows_is_named(self, key):
        with pytest.raises(ParameterError,
                           match=rf"^config key {key} = 1e\+308 is too large: "
                                 r"it is not finite in rad/us$"):
            params_from_config({key: 1e308})

    def test_first_overflowing_key_wins_over_a_record_check(self):
        # T_kelvin=-1 fails the record, and Jab_mhz comes after kappa2_mhz in the table
        with pytest.raises(ParameterError, match=r"^config key kappa2_mhz = 1e\+308 "):
            params_from_config({"T_kelvin": -1.0, "Jab_mhz": 1e308, "kappa2_mhz": 1e308})

    # the g*_khz keys are scaled down before they are scaled up, and power*_w are
    # taken as set, so no finite value of theirs overflows; the last two cases raised
    # the drive-form and unread-key ConfigErrors
    @pytest.mark.parametrize("form, key, value", [
        (AMPLITUDES, "E1_mhz", 1e308),
        (AMPLITUDES, "E2_mhz", 1e308),
        (AMPLITUDES, "delta1_bare_over_omegam", 1e307),
        (POWERS, "delta2_bare_over_omegam", 1e307),
        (POWERS, "omega_l_thz", 1e305),
        ({}, "E1_mhz", 1e308),
        ({**AMPLITUDES, "power1_w": 1e-3}, "E2_mhz", 1e308),
    ], ids=["E1", "E2", "delta1_bare", "delta2_bare", "omega_l", "before-the-form",
            "before-an-unread-key"])
    def test_drive_key_whose_conversion_overflows_is_named(self, base_params, form, key,
                                                           value):
        keys = {"g1_khz": 1.0, "g2_khz": 2.0, "delta1_bare_over_omegam": 1.0,
                "delta2_bare_over_omegam": 0.5, **form}
        with pytest.raises(ParameterError,
                           match=rf"^config key {key} = {re.escape(repr(value))} is too "
                                 r"large: it is not finite in rad/us$"):
            drive_from_config({**keys, key: value}, base_params)

    def test_override_bad_value(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["G1_mhz=abc"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["G1_mhz"])
