import ast
import dataclasses
import itertools
import math
import random
import re
from pathlib import Path

import pytest

from conftest import AXIS_CONFIG_KEYS
from optocorr import SystemParams, cli, figure_preset, params_from_config, pipeline, steadystate
from optocorr.errors import ConfigError, ParameterError
from optocorr.params import (DRIVE_KEYS, HBAR, K_B, MAGNITUDE_MAX, RATE_MIN, SYSTEM_KEYS, TWO_PI,
                             _internal, apply_overrides, drive_from_config, hz_to_angular,
                             key_fields, load_config, system_config, thermal_occupation,
                             with_keys)
from optocorr.sweep import PRESET_IDS

from test_golden import DRIVE_RANGES

OMEGA_M = TWO_PI * 24.0  # rad/us


def domain_error(key, value, internal, least=-MAGNITUDE_MAX):
    """The message of a config key whose value in internal units leaves the input domain."""
    return (f"config key {key} = {value!r} is outside the input domain "
            f"[{least:g}, {MAGNITUDE_MAX:g}]: it is {internal!r} in internal units")


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

    @pytest.mark.parametrize("omega_m", [RATE_MIN, OMEGA_M, MAGNITUDE_MAX])
    def test_domain_corners_are_finite(self, omega_m):
        # the hottest bath at the slowest mechanics gives n_th ~ 1.3e185, and the diffusion's
        # gamma_m (2 n_th + 1) stays finite at the largest gamma_m
        for t in (0.0, 5e-324, 1e-300, 1e-6, 0.01, MAGNITUDE_MAX):
            n_th = thermal_occupation(omega_m, t)
            assert 0.0 <= n_th and math.isfinite(MAGNITUDE_MAX * (2.0 * n_th + 1.0)), (omega_m, t)
        assert thermal_occupation(RATE_MIN, MAGNITUDE_MAX) == pytest.approx(1.3092e185, rel=1e-4)

    # arguments outside the input domain: these overflowed n_th or 2 n_th + 1 (above about
    # 1.04e305 K at 24 MHz) or underflowed hbar omega_m / k_B T to 0 (below 2.3e-290 rad/us)
    @pytest.mark.parametrize("omega_m, t", [
        (OMEGA_M, 1.05e305), (OMEGA_M, 1e308), (OMEGA_M, 1e91), (TWO_PI * 1e-300, 0.01),
        (TWO_PI * 5e-324, 0.01), (1e-91, 0.01), (1e-300, 1e300), (1e91, 0.01), (0.0, 0.01),
        (-1.0, 0.01), (math.inf, 0.01), (math.nan, 0.01), (OMEGA_M, -1.0), (OMEGA_M, -math.inf),
        (OMEGA_M, math.nan), (OMEGA_M, math.inf)])
    def test_arguments_outside_the_domain_are_named(self, omega_m, t):
        message = f"omega_m {omega_m!r} rad/us or temperature {t!r} K is outside the input domain"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            thermal_occupation(omega_m, t)


class TestDriveAmplitude:
    """The power form of `drive_from_config`: E = sqrt(2 P kappa / (hbar omega_l))."""

    KAPPA = TWO_PI * 2.0             # rad/us

    @staticmethod
    def amplitude(base, power, kappa, omega_l_thz=300.0, power2=0.0):
        keys = {"g1_khz": 1.0, "g2_khz": 1.0, "delta1_bare_over_omegam": 1.0,
                "delta2_bare_over_omegam": 1.0, "power1_w": power, "power2_w": power2,
                "omega_l_thz": omega_l_thz}
        return drive_from_config(keys, base.with_values(kappa1=kappa)).drive_e1

    def test_zero_power(self, base_params):
        for power in (0.0, -0.0):
            assert self.amplitude(base_params, power, self.KAPPA).hex() == "0x0.0p+0"

    def test_sqrt_scaling(self, base_params):
        e1 = self.amplitude(base_params, 1e-3, self.KAPPA)
        e2 = self.amplitude(base_params, 2e-3, self.KAPPA)
        assert e2 == pytest.approx(math.sqrt(2.0) * e1, rel=1e-12)

    def test_milliwatt_point(self, base_params):
        # independent evaluation in SI units, converted to rad/us at the end
        kappa_si = 2 * math.pi * 2.0e6
        omega_l_si = 2 * math.pi * 3.0e14
        e_si = math.sqrt(2 * 1e-3 * kappa_si / (1.054571817e-34 * omega_l_si))
        got = self.amplitude(base_params, 1e-3, self.KAPPA)
        assert got == pytest.approx(e_si * 1e-6, rel=1e-12)

    @pytest.mark.parametrize("power1, power2", [(-1e-3, 0.0), (-1e89, 0.0), (-5e-324, 0.0),
                                                (1e-3, -1e-3)])
    def test_negative_power_rejected(self, base_params, power1, power2):
        with pytest.raises(ParameterError, match="^power must be non-negative$"):
            self.amplitude(base_params, power1, self.KAPPA, power2=power2)

    def test_largest_amplitude_in_the_domain_is_finite(self, base_params):
        # the most power into the widest cavity at the slowest laser: 2 P kappa / (hbar omega_l)
        # is 1.9e304 in SI units, where MAGNITUDE_MAX**2 / RATE_MIN may reach 9.4e273
        omega_l_thz = RATE_MIN / (TWO_PI * 1e6)
        e = self.amplitude(base_params, MAGNITUDE_MAX, MAGNITUDE_MAX, omega_l_thz)
        omega_l = DRIVE_KEYS["omega_l_thz"](omega_l_thz, None)
        assert RATE_MIN <= omega_l and e == pytest.approx(1.3772e146, rel=1e-4)
        assert MAGNITUDE_MAX ** 2 / RATE_MIN <= 9.4e273

    def test_bits_of_the_parent_function(self, base_params):
        rng = random.Random(33)
        for i in range(20000):
            if i % 100 < 2:
                power = (0.0, -0.0)[i % 2]
            else:
                power = 10.0 ** rng.uniform(-15.0, 4.0)
            kappa = TWO_PI * 10.0 ** rng.uniform(-2.0, 3.0)
            omega_l_thz = rng.uniform(50.0, 2000.0)
            omega_l = DRIVE_KEYS["omega_l_thz"](omega_l_thz, None)
            want = frozen_drive_amplitude(power, kappa, omega_l)
            got = self.amplitude(base_params, power, kappa, omega_l_thz)
            assert got.hex() == want.hex(), (power, kappa, omega_l_thz)


def frozen_drive_amplitude(power: float, kappa: float, omega_l: float) -> float:
    """The drive amplitude with its zero-power return and sign tests, as it was before
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

    def test_nan_is_caught_by_the_domain_check(self, base_params):
        # NaN passes the non-negativity test; only the domain row stops it
        with pytest.raises(ParameterError,
                           match=r"^g1_eff must lie in the input domain "
                                 r"\[-1e\+90, 1e\+90\], got nan$"):
            base_params.with_values(g1_eff=math.nan)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemParams)])
    def test_domain_edges_of_each_field(self, base_params, field):
        # a field takes its edges and nothing beyond them; a rate's floor is RATE_MIN
        rate = field in ("omega_m", "gamma_m", "f", "kappa1", "kappa2")
        least = RATE_MIN if rate else -MAGNITUDE_MAX
        edges = (RATE_MIN, MAGNITUDE_MAX) if rate else \
            (0.0, MAGNITUDE_MAX) if field in ("g1_eff", "g2_eff", "j_ac_mag", "j_ab",
                                              "temperature") else (-MAGNITUDE_MAX, MAGNITUDE_MAX)
        for v in edges:
            assert getattr(base_params.with_values(**{field: v}), field) == v
        beyond = [math.nextafter(MAGNITUDE_MAX, math.inf), 1e91, math.inf]
        if rate:
            beyond += [math.nextafter(RATE_MIN, 0.0), 1e-91]
        elif edges[0] < 0.0:
            beyond += [-1e91]
        for v in beyond:
            message = f"{field} must lie in the input domain [{least:g}, 1e+90], got {v!r}"
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                base_params.with_values(**{field: v})

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
        with pytest.raises(ParameterError,
                           match=rf"^{field} must lie in the input domain \[.*\], got inf$"):
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
    """`SystemParams.__post_init__` as three loops over the whole record, as it was
    before its checks became one table, with the input domain in place of its finite
    and doubled-coupling loops: the reference for what a record raises."""
    for name in ("omega_m", "gamma_m", "f", "kappa1", "kappa2"):
        if not values[name] > 0.0:
            raise ParameterError(f"{name} must be strictly positive, got {values[name]!r}")
    for name in ("g1_eff", "g2_eff", "j_ac_mag", "j_ab", "temperature"):
        if values[name] < 0.0:
            raise ParameterError(f"{name} must be non-negative, got {values[name]!r}")
    for fld in dataclasses.fields(SystemParams):
        v = values[fld.name]
        least = RATE_MIN if fld.name in ("omega_m", "gamma_m", "f", "kappa1", "kappa2") \
            else -MAGNITUDE_MAX
        if not least <= v <= MAGNITUDE_MAX:
            raise ParameterError(f"{fld.name} must lie in the input domain "
                                 f"[{least:g}, {MAGNITUDE_MAX:g}], got {v!r}")


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
        # the domain's edges and what lies just beyond them
        return (-1.0, -0.0, math.nan, math.inf, -math.inf, 1e308, 1e91, -1e91, 1e-91,
                MAGNITUDE_MAX, -MAGNITUDE_MAX, RATE_MIN)

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

    def test_seeded_records_with_many_fields_changed(self, base_params):
        # most of these fail several rows, so only the first row in record order passes
        rng = random.Random(39)
        passed = sum(self.check(base_params, {name: rng.choice(self.values_for(name))
                                              for name in rng.sample(self.FIELDS, k)})
                     for k in (rng.randint(4, 14) for _ in range(3000)))
        assert 0 < passed < 3000


# config key -> (the name it sets, its conversion), in table order; and the floored names
CONVERSIONS = {**{key: (field, convert) for key, (_, field, convert) in SYSTEM_KEYS.items()},
               **{key: (key, convert) for key, convert in DRIVE_KEYS.items()}}
RATES = ("omega_m", "gamma_m", "f", "kappa1", "kappa2")
LEAST = dict.fromkeys(RATES + ("omega_l_thz",), RATE_MIN)


def frozen_internal(values: dict, omega_m: float) -> dict:
    """`params._internal` as it was with its fast path: every value converted in the
    caller's order, then a sum and a minimum over them, and a search in table order only
    when those fail: the reference for what the config gate returns and raises."""
    out = {name: to_internal(v, omega_m)
           for key, v in values.items() for name, to_internal in (CONVERSIONS[key],)}
    if not (sum(map(abs, out.values())) <= MAGNITUDE_MAX
            and min(map(out.get, LEAST, LEAST.values())) >= RATE_MIN):
        for key, (name, _) in CONVERSIONS.items():
            if key not in values:
                continue
            if name in RATES and values[key] <= 0.0:
                break
            least = LEAST.get(name, -MAGNITUDE_MAX)
            if not least <= out[name] <= MAGNITUDE_MAX:
                raise ParameterError(domain_error(key, values[key], out[name], least))
    return out


class TestConfigGateKeepsItsOrder:
    """The config gate returns, bit for bit, and raises, word for word, what the frozen
    `_internal` does, whatever keys are set and in whatever order: directly, through
    `params_from_config` and through `with_keys`."""

    VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 1e91, -1e91, 1e-91,
              1e89, -1e89, 1e-89, -1e-89, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 0.5, 24.0)
    OMEGA_MS = (OMEGA_M, 1e-80, 1e80)

    @staticmethod
    def bits(mapping):
        return {name: v.hex() for name, v in mapping.items()}

    def configs(self, seed, keys, n):
        rng = random.Random(seed)
        for _ in range(n):
            yield rng.choice(self.OMEGA_MS), {key: rng.choice(self.VALUES)
                                               for key in rng.sample(keys, rng.randint(1, 6))}

    def test_internal(self):
        outcomes = set()
        for omega_m, values in self.configs(391, list(CONVERSIONS), 20000):
            expected = raised(lambda: self.bits(frozen_internal(values, omega_m)))
            assert raised(lambda: self.bits(_internal(values, omega_m))) == expected, values
            outcomes.add(isinstance(expected, dict))
        assert outcomes == {True, False}

    def test_params_from_config(self):
        def frozen(cfg):
            c = system_config(cfg)
            values = frozen_internal(c, SYSTEM_KEYS["omega_m_mhz"][2](c["omega_m_mhz"], None))
            frozen_checks(values)
            return SystemParams(**values)

        for omega_m, cfg in self.configs(392, list(CONVERSIONS), 20000):
            if omega_m != OMEGA_M:
                cfg.setdefault("omega_m_mhz", omega_m / TWO_PI)
            expected = raised(lambda: self.bits(vars(frozen(cfg))))
            assert raised(lambda: self.bits(vars(params_from_config(cfg)))) == expected, cfg

    def test_with_keys(self, base_params):
        def frozen(base, values):
            changes = frozen_internal(values, base.omega_m)
            frozen_checks({**vars(base), **changes})
            return dataclasses.replace(base, **changes)

        keys = [key for key in SYSTEM_KEYS if key != "omega_m_mhz"]
        for omega_m, values in self.configs(393, keys, 20000):
            base = base_params.with_values(omega_m=omega_m)
            expected = raised(lambda: self.bits(vars(frozen(base, values))))
            assert raised(lambda: self.bits(vars(with_keys(base, values)))) == expected, values

    def test_first_key_in_table_order_is_named_not_the_callers_first(self, base_params):
        internal = SYSTEM_KEYS["delta1_over_omegam"][2](1e307, base_params.omega_m)
        message = domain_error("delta1_over_omegam", 1e307, internal)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            key_fields(base_params, {"delta2_over_omegam": 1e308, "delta1_over_omegam": 1e307})

    def test_a_rate_below_zero_earlier_in_the_table_stops_the_domain_checks(self, base_params):
        # kappa2_mhz comes before Jab_mhz in the table, so its sign rule is named
        values = {"Jab_mhz": 1e308, "kappa2_mhz": -1.0}
        key_fields(base_params, values)
        message = "kappa2 must be strictly positive, got -6.283185307179586"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            with_keys(base_params, values)


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
        assert raw.drive_e1 == frozen_drive_amplitude(1e-3, p.kappa1, omega_l)
        assert raw.drive_e2 == frozen_drive_amplitude(4e-3, p.kappa2, omega_l)
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

    @pytest.mark.parametrize("value", [1e308, 1e100, -1e100, math.inf, math.nan])
    @pytest.mark.parametrize("key", list(SYSTEM_KEYS))
    def test_system_key_outside_the_domain_is_named(self, key, value):
        # these overflowed, or named the field they set ("kappa1 must be finite, got inf")
        internal = SYSTEM_KEYS[key][2](value, OMEGA_M)
        rate = SYSTEM_KEYS[key][1] in ("omega_m", "gamma_m", "f", "kappa1", "kappa2")
        if rate and value < 0.0:
            return      # a rate's sign rule is the record's
        message = domain_error(key, value, internal, RATE_MIN if rate else -MAGNITUDE_MAX)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            params_from_config({key: value})

    @pytest.mark.parametrize("key, value, internal", [
        ("gamma_m_hz", 1e-320, 0.0), ("omega_m_mhz", 1e-300, TWO_PI * 1e-300),
        ("omega_m_mhz", 5e-324, TWO_PI * 5e-324), ("kappa1_mhz", 1e-91, TWO_PI * 1e-91),
        ("f_mhz", 1e-100, TWO_PI * 1e-100)])
    def test_rate_below_the_floor_is_named(self, key, value, internal):
        # these read "gamma_m must be strictly positive, got 0.0" or blamed hbar omega_m
        with pytest.raises(ParameterError,
                           match=f"^{re.escape(domain_error(key, value, internal, RATE_MIN))}$"):
            params_from_config({key: value})

    @pytest.mark.parametrize("key, field", [("kappa1_mhz", "kappa1"), ("omega_m_mhz", "omega_m"),
                                            ("gamma_m_hz", "gamma_m")])
    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, -1e308, -math.inf])
    def test_rate_sign_is_the_records_rule(self, key, field, value):
        internal = SYSTEM_KEYS[key][2](value, OMEGA_M)
        message = f"{field} must be strictly positive, got {internal!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            params_from_config({key: value})

    def test_non_finite_omega_m_is_named_not_a_detuning(self):
        # the detunings are multiples of omega_m, so these blamed delta1_over_omegam
        for value in (math.inf, math.nan):
            message = domain_error("omega_m_mhz", value, value, RATE_MIN)
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                params_from_config({"omega_m_mhz": value})

    def test_zero_a_conversion_underflows_to_is_inside_the_domain(self, base_params):
        # a coupling may be 0, so a value that converts to 0 is one
        keys = {"g1_khz": 1e-322, "g2_khz": 2.0, "delta1_bare_over_omegam": 1.0,
                "delta2_bare_over_omegam": 0.5, **self.AMPLITUDES}
        assert drive_from_config(keys, base_params).g1 == 0.0

    def test_first_key_outside_the_domain_wins_over_a_record_check(self):
        # T_kelvin=-1 fails the record, and Jab_mhz comes after kappa2_mhz in the table
        with pytest.raises(ParameterError, match=r"^config key kappa2_mhz = 1e\+308 "):
            params_from_config({"T_kelvin": -1.0, "Jab_mhz": 1e308, "kappa2_mhz": 1e308})

    # the last two cases raised the drive-form and unread-key ConfigErrors
    @pytest.mark.parametrize("form, key, value, internal", [
        (AMPLITUDES, "E1_mhz", 1e308, math.inf),
        (AMPLITUDES, "E2_mhz", 1e90, TWO_PI * 1e90),
        (AMPLITUDES, "g1_khz", 1e308, TWO_PI * 1e305),
        (AMPLITUDES, "delta1_bare_over_omegam", 1e307, math.inf),
        (POWERS, "delta2_bare_over_omegam", -1e89, -1e89 * OMEGA_M),
        (POWERS, "power1_w", 1e91, 1e91),
        (POWERS, "power2_w", math.nan, math.nan),
        ({}, "E1_mhz", 1e308, math.inf),
        ({**AMPLITUDES, "power1_w": 1e-3}, "E2_mhz", 1e308, math.inf),
    ], ids=["E1", "E2", "g1", "delta1_bare", "delta2_bare", "power1", "power2-nan",
            "before-the-form", "before-an-unread-key"])
    def test_drive_key_outside_the_domain_is_named(self, base_params, form, key, value,
                                                   internal):
        keys = {"g1_khz": 1.0, "g2_khz": 2.0, "delta1_bare_over_omegam": 1.0,
                "delta2_bare_over_omegam": 0.5, **form}
        with pytest.raises(ParameterError,
                           match=f"^{re.escape(domain_error(key, value, internal))}$"):
            drive_from_config({**keys, key: value}, base_params)

    @pytest.mark.parametrize("value", [math.inf, 1e305, 0.0, -1.0, 1e-320, 1e-97, math.nan])
    def test_laser_frequency_outside_the_domain_is_named(self, base_params, value):
        # these gave a zero drive, a ZeroDivisionError, or named kappa / (hbar omega_l)
        keys = {"g1_khz": 1.0, "g2_khz": 2.0, "delta1_bare_over_omegam": 1.0,
                "delta2_bare_over_omegam": 0.5, **self.POWERS, "omega_l_thz": value}
        internal = DRIVE_KEYS["omega_l_thz"](value, None)
        message = domain_error("omega_l_thz", value, internal, RATE_MIN)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            drive_from_config(keys, base_params)

    def test_override_bad_value(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["G1_mhz=abc"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["G1_mhz"])


class TestTrafficInsideTheDomain:
    """Every value the physical workloads use lies inside the input domain with at least
    10^40 headroom: the package defaults (conftest's base point), each figure preset's
    shift and axis endpoints, and the raw-drive ranges the drive benchmark draws from."""

    HEADROOM = 1e40

    def assert_inside(self, name, v):
        if name in ("omega_m", "gamma_m", "f", "kappa1", "kappa2", "omega_l_thz"):
            assert RATE_MIN * self.HEADROOM <= v <= MAGNITUDE_MAX / self.HEADROOM, (name, v)
        else:
            assert abs(v) <= MAGNITUDE_MAX / self.HEADROOM, (name, v)

    def test_defaults_and_preset_grids(self, base_params):
        for pid in PRESET_IDS:
            spec = figure_preset(pid, base_params)
            for record in (base_params, spec.base):
                for name, v in vars(record).items():
                    self.assert_inside(name, v)
            for axis in filter(None, (spec.axis1, spec.axis2)):
                for value in (axis.start, axis.stop):
                    keys = dict.fromkeys(AXIS_CONFIG_KEYS[axis.name], value)
                    for name, v in key_fields(spec.base, keys).items():
                        self.assert_inside(name, v)

    def test_drive_ranges(self, base_params):
        # the tests' copy of the ranges is the benchmark's own
        tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text())
        bench = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets] == ["DRIVE_RANGES"])
        assert bench == DRIVE_RANGES
        for key, lo, hi in DRIVE_RANGES:
            for value in (lo, hi):
                self.assert_inside(key, DRIVE_KEYS[key](value, base_params.omega_m))


class TestWholeRecordTraffic:
    """A figure run and a drive op each build one whole record, which runs every row of
    the checks; every other record comes from `with_values`, which checks only what it
    sets.  A whole record per grid point would pay all the rows at every point."""

    @staticmethod
    def count(monkeypatch):
        calls = {"__post_init__": 0, "with_values": 0}
        for name in calls:
            original = getattr(SystemParams, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SystemParams, name, counted)
        return calls

    def test_figure_run(self, monkeypatch, capsys):
        calls = self.count(monkeypatch)
        assert cli.main(["figure", "fig3", "--grid", "6x6"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 36     # provenance, header
        assert calls["__post_init__"] == 1
        assert calls["with_values"] >= 36

    def test_drive_op(self, monkeypatch):
        # the drive benchmark's op: config -> record -> mean field -> point -> measures
        cfg = {key: (lo + hi) / 2.0 for key, lo, hi in DRIVE_RANGES}
        calls = self.count(monkeypatch)
        params = params_from_config(cfg)
        ss = steadystate.solve_steady_state(drive_from_config(cfg, params), params)
        point = steadystate.apply_steady_state(params, ss)
        assert pipeline.evaluate_point(point).report is not None
        assert calls["__post_init__"] == 1
        assert calls["with_values"] >= 1
