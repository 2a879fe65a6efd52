import cmath
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import optocorr
from optocorr import figure_preset, params_from_config
from optocorr import cli
from optocorr.cli import build_parser, main
from optocorr.params import DRIVE_KEYS, SYSTEM_KEYS
from optocorr.sweep import SWEEPABLE, UNSTABLE_POLICIES, SweepSpec, config_hash

from test_golden import DRIVE_EDGES, build_note, drive_configs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# config files that escaped as untyped tracebacks (exit 1) before every value
# went through one gate: (file name, text, start of the error message, where
# {path} stands for the file's path)
CRASHING_CONFIGS = {
    "int-key": ("c.yaml", "1: 2\n", "unknown config key(s): 1\n"),
    "null-key": ("c.yaml", "null: 3\n", "unknown config key(s): None\n"),
    "yaml-int-beyond-floats": ("c.yaml", f"T_kelvin: 1{'0' * 400}\n",
                               "config key T_kelvin must be a number"),
    "json-int-beyond-floats": ("c.json", f'{{"T_kelvin": 1{"0" * 400}}}',
                               "config key T_kelvin must be a number"),
    "int-beyond-digit-limit": ("c.yaml", f"T_kelvin: 1{'0' * 5000}\n",
                               "cannot parse config {path}: a number has more than "
                               f"{sys.get_int_max_str_digits()} digits\n"),
    "yaml-syntax-error": ("c.yaml", "T_kelvin: [\n", "cannot parse config"),
}

# file values PyYAML or the old gate read differently from --set: (file name, text, --set item)
FILE_AND_SET = {
    "json-exponent": ("c.json", '{"T_kelvin": 1e-3}', "T_kelvin=1e-3"),
    "yaml-exponent": ("c.yaml", "T_kelvin: 1e-3\n", "T_kelvin=1e-3"),
    "yaml-int-T": ("c.yaml", "T_kelvin: 0\n", "T_kelvin=0"),
    "yaml-int-phi": ("c.yaml", "phi_rad: 0\n", "phi_rad=0"),
    "yaml-int-omega": ("c.yaml", "omega_m_mhz: 24\n", "omega_m_mhz=24"),
}


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestMeasure:
    def test_baseline_report(self, capsys):
        code, out, _ = run_cli(capsys, "measure")
        assert code == 0
        record = dict(line.split("=", 1) for line in out.strip().split("\n"))
        assert float(record["EN_c2a"]) > 0.1
        assert record["stable"] == "True"

    def test_fig7a_operating_point(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--set", "Jab_mhz=2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["EN_c2a"] == pytest.approx(0.26, abs=0.05)
        assert record["EN_ab"] == pytest.approx(0.24, abs=0.05)

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("not_a_key: 3\n")
        code, _, err = run_cli(capsys, "measure", "--config", str(cfg))
        assert code == 2
        assert "not_a_key" in err

    def test_non_utf8_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_bytes(b"\xc0\x80")
        code, out, err = run_cli(capsys, "measure", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "cannot parse config" in err

    def test_unstable_point_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--set", "G1_mhz=0.1",
                               "--set", "G2_mhz=0.1")
        assert code == 3
        assert "unstable" in err

    def test_microkelvin_bath_has_zero_occupation(self, capsys):
        # hbar omega_m / kB T ~ 1150 overflows exp; the occupation is 0 to double precision
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=1e-6", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["n_th"] == 0.0

    def test_subnormal_temperature_has_zero_occupation(self, capsys):
        # k_B T underflows to 0 at T = 1e-320 K; that is the zero-temperature limit
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=1e-320", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["n_th"] == 0.0

    def test_temperature_beyond_finite_occupation_exit_2(self, capsys):
        # n_th overflows above about 2e305 K, 2 n_th + 1 above about 1.04e305 K;
        # the covariance is not to blame
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=1e308")
        assert (code, out) == (2, "")
        assert "temperature 1e+308 K" in err and "covariance" not in err
        # hbar omega_m / k_B T underflows to 0 itself (a bare ZeroDivisionError before)
        code, out, err = run_cli(capsys, "measure", "--set", "omega_m_mhz=1e-300",
                                 "--set", "T_kelvin=1e300")
        assert (code, out) == (2, "")
        assert "temperature 1e+300 K" in err

    def test_temperature_whose_diffusion_factor_overflows_exit_2(self, capsys):
        # n_th = 1.74e308 is finite, 2 n_th + 1 is not; the covariance took the blame (exit 3)
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=2e305")
        assert (code, out) == (2, "")
        assert "temperature 2e+305 K" in err and "covariance" not in err

    def test_huge_finite_occupation_exit_3(self, capsys):
        # n_th ~ 8.7e302 is finite, the covariance it drives is not
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=1e300")
        assert (code, out) == (3, "")
        assert "NumericDomainError: non-finite covariance" in err

    def test_overflowing_discord_witness_exit_3(self, capsys):
        # finite invariants, but s^2 - 4 I1 I2 I4 is inf - inf; it read as a NaN determinant
        code, out, err = run_cli(capsys, "measure", "--set", "T_kelvin=1e78")
        assert (code, out) == (3, "")
        assert "NumericDomainError: overflow: measurement discriminant nan" in err
        assert "negative" not in err

    @pytest.mark.parametrize("key,field", [("G1_mhz", "g1_eff"), ("G2_mhz", "g2_eff"),
                                           ("Jab_mhz", "j_ab")])
    def test_coupling_whose_double_overflows_exit_2(self, capsys, key, field):
        # the Hamiltonian holds 2 G1, 2 G2 and 2 J_ab; the drift is not to blame
        code, out, err = run_cli(capsys, "measure", "--set", f"{key}=2.4e307")
        assert (code, out) == (2, "")
        assert f"coupling {field} = " in err and "drift" not in err

    def test_yaml_list_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("- G1_mhz\n- 3\n")
        code, out, err = run_cli(capsys, "measure", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "config root must be a mapping" in err

    @pytest.mark.parametrize("case", sorted(CRASHING_CONFIGS))
    def test_config_that_crashed_exit_2(self, capsys, tmp_path, case):
        name, text, message = CRASHING_CONFIGS[case]
        path = write_config(tmp_path, name, text)
        code, out, err = run_cli(capsys, "measure", "--config", path)
        assert (code, out) == (2, "")
        assert err.startswith("optocorr: config error: " + message.format(path=path))

    @pytest.mark.parametrize("name,text", [("c.json", '{"T_kelvin": 1e-3}'),
                                           ("c.yaml", "T_kelvin: 1e-3\n")], ids=["json", "yaml"])
    def test_exponent_without_dot_is_a_number(self, capsys, tmp_path, name, text):
        code, out, err = run_cli(capsys, "measure", "--config", write_config(tmp_path, name, text))
        assert code == 0, err
        assert "param_T_kelvin=0.001" in out.splitlines()

    def test_empty_config_gives_the_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("")
        _, default_out, _ = run_cli(capsys, "measure")
        code, out, _ = run_cli(capsys, "measure", "--config", str(cfg))
        assert code == 0 and out == default_out

    def test_json_and_kv_encode_same_values(self, capsys):
        _, kv_out, _ = run_cli(capsys, "measure")
        _, json_out, _ = run_cli(capsys, "measure", "--format", "json")
        kv = dict(line.split("=", 1) for line in kv_out.strip().split("\n"))
        js = json.loads(json_out)
        for key, val in js.items():
            if isinstance(val, float):
                # kv floats are rendered with %.12g, so 12 significant digits
                assert float(kv[key]) == pytest.approx(val, rel=1e-10)


class TestMatrix:
    def test_dump_shapes(self, capsys):
        code, out, _ = run_cli(capsys, "matrix")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# A"
        assert lines[9] == "# D"
        assert len(lines) == 18
        assert all(len(line.split(",")) == 8 for line in lines[1:9])

    def test_with_cm_and_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--with-cm")
        assert code == 0
        lines = out.strip().split("\n")
        assert "# V" in lines
        a00 = lines[1].split(",")[0]
        # kappa1 = 2pi * 2 rad/us, printed at 17 significant digits
        assert float(a00) == pytest.approx(-4 * math.pi, rel=1e-15)

    def test_with_cm_at_unstable_point_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "matrix", "--with-cm", "--set", "G1_mhz=40")
        assert (code, out) == (3, "")
        assert "cannot compute covariance matrix" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--format", "json", "--with-cm")
        assert code == 0
        blocks = json.loads(out)
        assert set(blocks) == {"A", "D", "V"}
        assert len(blocks["V"]) == 8


class TestSteady:
    def test_solves_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "drive.yaml"
        cfg.write_text(
            "Jac_mhz: 0\nJab_mhz: 0\n"
            "g1_khz: 1\ng2_khz: 1\n"
            "E1_mhz: 500\nE2_mhz: 300\n"
            "delta1_bare_over_omegam: 1\ndelta2_bare_over_omegam: 1\n")
        code, out, _ = run_cli(capsys, "steady", "--config", str(cfg), "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["residual_norm"] <= 1e-10 * max(1.0, 2 * math.pi * 500)
        assert record["iterations"] >= 1
        assert record["G1_eff"] > 0.0

    def test_missing_drive_keys_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "steady")
        assert code == 2
        assert "g1_khz" in err

    DRIVE = ("--set", "g1_khz=1", "--set", "g2_khz=1", "--set", "E1_mhz=1e4",
             "--set", "E2_mhz=1e4", "--set", "delta1_bare_over_omegam=1",
             "--set", "delta2_bare_over_omegam=1")

    @pytest.mark.parametrize("bad", ["g1_khz=nan", "g2_khz=inf", "E1_mhz=nan", "E2_mhz=-inf",
                                     "delta1_bare_over_omegam=inf",
                                     "delta2_bare_over_omegam=nan"])
    def test_non_finite_drive_exit_2(self, capsys, bad):
        # a later --set wins, so `bad` replaces one finite drive key
        code, out, err = run_cli(capsys, "steady", *self.DRIVE, "--set", bad)
        assert (code, out) == (2, "")
        assert "must be finite" in err

    POWERS = ("--set", "g1_khz=1", "--set", "g2_khz=1", "--set", "delta1_bare_over_omegam=1",
              "--set", "delta2_bare_over_omegam=1", "--set", "power1_w=1e-3",
              "--set", "power2_w=1e-3", "--set", "omega_l_thz=300")

    @pytest.mark.parametrize("bad, message", [
        ("power1_w=nan", "power must be non-negative"),
        ("power2_w=inf", "power inf W is too high for a finite drive amplitude"),
        ("power1_w=1e308", "power 1e+308 W is too high for a finite drive amplitude"),
    ], ids=["nan", "inf", "1e308"])
    def test_drive_power_without_a_finite_amplitude_exit_2(self, capsys, bad, message):
        # these named drive_e1 or drive_e2, fields the user never set
        code, out, err = run_cli(capsys, "steady", *self.POWERS, "--set", bad)
        assert (code, out, err) == (2, "", f"optocorr: config error: {message}\n")

    @pytest.mark.parametrize("bad", [
        ("omega_l_thz=inf",), ("omega_l_thz=1e305",), ("omega_l_thz=5e-324",),
        ("omega_l_thz=1e-320",), ("omega_l_thz=1e-300",), ("kappa1_mhz=1e302",),
        ("kappa1_mhz=1e302", "power1_w=0"),
    ], ids=["inf", "1e305", "5e-324", "1e-320", "1e-300", "kappa-1e302", "kappa-1e302-zero"])
    def test_laser_frequency_without_a_finite_drive_exit_2(self, capsys, bad):
        # these gave alpha = 0 (exit 0), a ZeroDivisionError traceback (exit 1),
        # blamed the power, or failed on the mean-field polynomial (exit 3)
        argv = [arg for item in bad for arg in ("--set", item)]
        code, out, err = run_cli(capsys, "steady", *self.POWERS, *argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"optocorr: config error: kappa \S+ and laser frequency omega_l "
                            r"\S+ \(rad/us\) give no finite positive kappa / \(hbar omega_l\)\n",
                            err)

    @pytest.mark.parametrize("argv, unread, form", [
        (DRIVE + ("--set", "power1_w=1e-3"), "power1_w", "E1_mhz/E2_mhz"),
        (DRIVE + ("--set", "omega_l_thz=300"), "omega_l_thz", "E1_mhz/E2_mhz"),
        (("--set", "g1_khz=1", "--set", "g2_khz=1", "--set", "delta1_bare_over_omegam=1",
          "--set", "delta2_bare_over_omegam=1", "--set", "power1_w=1e-3",
          "--set", "power2_w=1e-3", "--set", "omega_l_thz=300", "--set", "E1_mhz=1e4"),
         "E1_mhz", "power1_w/power2_w/omega_l_thz"),
    ], ids=["power1_w", "omega_l_thz", "lone-E1_mhz"])
    def test_drive_key_the_form_does_not_read_exit_2(self, capsys, argv, unread, form):
        code, out, err = run_cli(capsys, "steady", *argv)
        assert (code, out) == (2, "")
        assert f"drive key(s) {unread} not read beside {form}" in err

    def test_record_names_the_phase_of_its_point(self, capsys):
        # the verdict is taken where G1 is real, at phi_rad - arg(alpha1)
        code, out, _ = run_cli(capsys, "steady", *self.DRIVE, "--set", "phi_rad=0.7",
                               "--format", "json")
        assert code == 0
        record = json.loads(out)
        alpha1 = complex(record["alpha1_re"], record["alpha1_im"])
        assert alpha1 != 0.0
        assert record["phi_eff"] == 0.7 - cmath.phase(alpha1)

    def test_overflowing_mean_field_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "steady", *self.DRIVE,
                                 "--set", "E1_mhz=1e160", "--set", "E2_mhz=1e160")
        assert (code, out) == (3, "")
        assert "overflowed" in err


class TestSweepAndFigure:
    def test_fig2_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run_cli(capsys, "figure", "fig2", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 2502  # comment + header + 50x50 rows
        assert lines[0].startswith("# optocorr v")

    def test_grid_override(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig2", "--grid", "5x4")
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + 20

    @pytest.mark.parametrize("grid", ["5x", "2x3x4"])
    def test_malformed_grid_exit_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "figure", "fig2", "--grid", grid)
        assert (code, out) == (2, "")
        assert f"bad grid spec {grid!r}" in err

    def test_extra_grid_count_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "figure", "fig5", "--grid", "5x7")
        assert code == 2
        assert "grid" in err and out == ""

    def test_fixed_second_axis_takes_grid_count(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig7", "--grid", "4x5")
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + 20

    def test_run_options_follow_the_sweep_module(self, capsys):
        for command in (["sweep", "--axis", "phi=0:1:2"], ["figure", "fig5"]):
            assert build_parser().parse_args(command).unstable == SweepSpec.unstable_policy
            with pytest.raises(SystemExit):
                build_parser().parse_args([*command, "--help"])
            assert "{" + ",".join(UNSTABLE_POLICIES) + "}" in capsys.readouterr().out
        args = build_parser().parse_args(["sweep", "--axis", "phi=0:1:2"])
        assert args.measures == ",".join(SweepSpec.measures)

    def test_unstable_override_keeps_the_rest_of_the_spec(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig2", "--grid", "3x3", "--unstable", "skip")
        assert code == 0
        spec = figure_preset("fig2", params_from_config({}), counts=(3, 3))
        want = config_hash(dataclasses.replace(spec, unstable_policy="skip"))
        assert out.split("\n")[0].endswith(f"config={want}")

    def test_temperature_axis_through_microkelvin(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "T=1e-7:1e-5:3",
                                 "--measures", "EN_c2a")
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert len(rows) == 3 and all(r[-1] == "" for r in rows)

    def test_temperature_axis_through_subnormal_kelvin(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "T=0:1e-320:3",
                                 "--measures", "EN_c2a")
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert len(rows) == 3 and len({r[2] for r in rows}) == 1 and all(r[-1] == "" for r in rows)

    def test_temperature_axis_beyond_finite_occupation_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "T=0.01:1e308:3",
                                 "--measures", "EN_c2a")
        assert (code, out) == (2, "")
        assert "temperature 5e+307 K" in err

    def test_temperature_axis_whose_diffusion_factor_overflows_exit_2(self, capsys):
        # these points filled error cells that blamed the covariance
        code, out, err = run_cli(capsys, "sweep", "--axis", "T=1e305:1.1e305:3",
                                 "--measures", "EN_c2a")
        assert (code, out) == (2, "")
        assert re.search(r"temperature 1\.0[45]\d*e\+305 K is too high", err), err

    def test_coupling_axis_whose_double_overflows_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "G1=1:2.4e307:3",
                                 "--measures", "EN_c2a")
        assert (code, out) == (2, "")
        assert "coupling g1_eff = " in err

    def test_temperature_axis_whose_discord_overflows_fills_error_cells(self, capsys):
        # the covariance is finite; the discord's squares overflowed (an untyped crash before)
        code, out, err = run_cli(capsys, "sweep", "--axis", "T=1.5e40:1.6e40:3",
                                 "--measures", "DG_ab")
        assert code == 0, err
        columns, *rows = csv.reader(out.splitlines()[1:])
        assert columns[-1] == "error" and len(rows) == 3
        assert all(row[-1].startswith("NumericDomainError: ") for row in rows)

    def test_duplicate_axis_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "phi=0:1:3", "--axis2", "phi=0:2:2",
                                 "--measures", "EN_c2a")
        assert (code, out) == (2, "")
        assert "both axes sweep phi" in err

    @pytest.mark.parametrize("axis", ["phi=0:inf:3", "phi=-inf:0:3", "phi=nan:1:3",
                                      "phi=1e308:-1e308:3"])
    def test_axis_beyond_floats_exit_2(self, capsys, axis):
        code, out, err = run_cli(capsys, "sweep", "--axis", axis)
        assert code == 2 and out == ""
        # the axis is named; before, the point record read "phi must be finite, got nan"
        assert "axis phi " in err and "phi must be finite" not in err

    def test_sweep_axis_flags(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "phi=0:3.14:5",
                               "--measures", "EN_c2a,DG_c2a")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "phi,stable,EN_c2a,DG_c2a,error"
        assert len(lines) == 7

    def test_duplicate_measure_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "phi=0:3.14:5",
                                 "--measures", "EN_c2a,EN_c2a", "--format", "json")
        assert code == 2
        assert "duplicate measure(s): EN_c2a" in err and out == ""

    def test_bad_axis_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "phi=0:3.14")
        assert code == 2
        assert "axis" in err

    def test_unstable_error_policy_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "G1=0.1:0.3:3",
                               "--set", "G2_mhz=0.1", "--unstable", "error")
        assert code == 3
        assert "unstable" in err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run_cli(capsys, "figure", "fig5", "--grid", "3",
                                 "--workers", workers)
        assert code == 2
        assert "workers" in err and out == ""

    def test_unstable_error_with_workers_above_64_point_tasks(self, capsys):
        # 69-point tasks; the first unstable point is 363, in the sixth task, and
        # later tasks hold unstable points too
        argv = ("figure", "fig3", "--grid", "33x33", "--unstable", "error")
        results = [run_cli(capsys, *argv, *workers) for workers in ((), ("--workers", "2"))]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code == 3 and out == ""
        assert "unstable grid point at delta_at/delta_eff_common = (-1.3125, 0.0)" in err

    def test_csv_error_cell_reads_back_with_csv_reader(self, capsys):
        # the error text holds commas, so its cell is quoted
        argv = ("sweep", "--axis", "T=1e299:1e300:3", "--measures", "EN_c2a,DG_ab")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        columns, *rows = csv.reader(out.splitlines()[1:])
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        records = [json.loads(line) for line in out.splitlines()[1:]]
        assert len(rows) == len(records) == 3
        for row, record in zip(rows, records):
            assert len(row) == len(columns)
            assert "," in record["error"] and row[columns.index("error")] == record["error"]

    def test_io_failure_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--out", "/nonexistent/dir/x.csv")
        assert code == 4

    def test_override_precedence_config_then_set(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("Jab_mhz: 2\n")
        _, out_file, _ = run_cli(capsys, "measure", "--config", str(cfg), "--format", "json")
        _, out_set, _ = run_cli(capsys, "measure", "--config", str(cfg),
                                "--set", "Jab_mhz=1", "--format", "json")
        _, out_default, _ = run_cli(capsys, "measure", "--format", "json")
        assert json.loads(out_file)["param_Jab_mhz"] == 2
        assert json.loads(out_set)["param_Jab_mhz"] == 1
        assert json.loads(out_set)["EN_c2a"] == pytest.approx(
            json.loads(out_default)["EN_c2a"], rel=1e-12)


# one run of each command, small enough for every format
COMMAND_RUNS = {
    "steady": ("steady", *TestSteady.DRIVE),
    "matrix": ("matrix", "--with-cm"),
    "measure": ("measure",),
    "sweep": ("sweep", "--axis", "phi=0:3:3", "--axis2", "T=0.01:0.02:2"),
    "figure": ("figure", "fig2", "--grid", "3x2"),
}


class TestOutput:
    """`main` resolves the config, builds the parameters and writes the
    command's text, to --out or to stdout, the same bytes either way."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
    def test_out_file_equals_stdout(self, capsys, tmp_path, command, fmt):
        argv = (*COMMAND_RUNS[command], "--format", fmt)
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 0 and stdout, err
        out_path = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert (code, out, err) == (0, "", "")
        assert out_path.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("argv,exit_code", [
        (("measure", "--set", "not_a_key=1"), 2),
        (("figure", "fig2", "--grid", "5x5", "--unstable", "error"), 3)])
    def test_failing_run_writes_nothing(self, capsys, tmp_path, argv, exit_code):
        out_path = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (exit_code, "") and err.count("\n") == 1
        assert not out_path.exists()
        assert run_cli(capsys, *argv)[:2] == (exit_code, "")

    @pytest.mark.parametrize("argv", [("figure", "fig5", "--grid", "3"),
                                      ("measure", "--format", "json")], ids=["fig5", "measure"])
    @pytest.mark.parametrize("case", sorted(FILE_AND_SET))
    def test_file_value_gives_the_bytes_set_gives(self, capsys, tmp_path, argv, case):
        # the provenance header included
        name, text, item = FILE_AND_SET[case]
        code, from_file, err = run_cli(capsys, *argv, "--config", write_config(tmp_path, name, text))
        assert code == 0, err
        assert from_file == run_cli(capsys, *argv, "--set", item)[1]

    @pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
    def test_config_read_and_parameters_built_once(self, capsys, tmp_path, monkeypatch,
                                                   command):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("Jab_mhz: 1\n")
        calls = []

        def spy(name):
            original = getattr(cli, name)

            def counting(*args):
                calls.append(name)
                return original(*args)
            return counting

        for name in ("load_config", "params_from_config"):
            monkeypatch.setattr(cli, name, spy(name))
        code, _, err = run_cli(capsys, *COMMAND_RUNS[command], "--config", str(cfg))
        assert code == 0, err
        assert calls == ["load_config", "params_from_config"]


# values at and past the edges of the floats, as the text of a --set or an axis
EXTREMES = ("0", "-0", "5e-324", "1e-320", "1e-300", "1e300", "1e305", "1e308", "inf", "-inf",
            "nan", "-1")

# the runs each config key is set on, at each of the EXTREMES
NET_RUNS = {
    "measure": ("measure",),
    "matrix": ("matrix", "--with-cm"),
    "steady-amplitudes": ("steady", *TestSteady.DRIVE),
    "steady-powers": ("steady", *TestSteady.POWERS),
}


class TestExtremeValueNet:
    """Every config key at every extreme value, and every sweep axis over a range
    out to it, ends in a documented exit code with at most one stderr line."""

    @staticmethod
    def fault(capsys, argv):
        """What is wrong with one run of `main`, or None."""
        try:
            code = main(list(argv))
        except (Exception, SystemExit) as exc:    # a traceback from the console script
            capsys.readouterr()
            return f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or err.count("\n") > 1 or "Traceback" in err:
            return f"exit {code}: {err!r}"
        return None

    def faults(self, capsys, runs):
        found = {" ".join(argv): self.fault(capsys, argv) for argv in runs}
        return {run: fault for run, fault in found.items() if fault is not None}

    @pytest.mark.parametrize("run", sorted(NET_RUNS))
    def test_every_key_at_every_extreme(self, capsys, run):
        keys = [*SYSTEM_KEYS, *DRIVE_KEYS]
        assert self.faults(capsys, [(*NET_RUNS[run], "--set", f"{key}={value}")
                                    for key in keys for value in EXTREMES]) == {}

    def test_every_axis_out_to_every_extreme(self, capsys):
        assert self.faults(capsys, [("sweep", "--axis", f"{axis}=1:{value}:3")
                                    for axis in SWEEPABLE for value in EXTREMES]) == {}


class TestModuleEntry:
    """`python -m optocorr` runs the same front door as the console script.

    The subprocess runs with warnings as errors, as the in-process tests do,
    so a leaked numpy warning shows as a traceback on stderr."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(optocorr.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        return subprocess.run([sys.executable, "-W", "error", "-m", "optocorr", *argv],
                              env=env, capture_output=True, timeout=120)

    def test_measure_matches_golden_file(self):
        proc = self.run_module("measure", "--format", "json")
        assert (proc.returncode, proc.stderr) == (0, b"")
        golden = Path(__file__).parent / "data" / "golden_measure.json"
        assert proc.stdout == golden.read_bytes(), build_note()

    def test_steady_matches_golden_file(self):
        # a drive with a single, unstable mean-field root
        proc = self.run_module("steady", "--set", "E1_mhz=8e4", "--set", "E2_mhz=2e4",
                               "--set", "g1_khz=2.5", "--set", "g2_khz=2.5",
                               "--set", "delta1_bare_over_omegam=0.85",
                               "--set", "delta2_bare_over_omegam=0.95", "--format", "json")
        assert (proc.returncode, proc.stderr) == (0, b"")
        golden = Path(__file__).parent / "data" / "golden_steady.json"
        assert proc.stdout == golden.read_bytes(), build_note()

    @staticmethod
    def set_argv(items):
        return [arg for item in items for arg in ("--set", item)]

    @classmethod
    def steady_argv(cls, cfg):
        return cls.set_argv(f"{key}={value!r}" for key, value in cfg.items())

    def test_discord_overflow_is_one_typed_line(self):
        proc = self.run_module("measure", "--set", "T_kelvin=1.58e40")
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr.startswith(b"optocorr: numeric failure: NumericDomainError: ")
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")

    def test_steady_overflow_is_one_typed_line(self):
        proc = self.run_module("steady", *self.steady_argv(DRIVE_EDGES[1]))
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr == (b"optocorr: numeric failure: mean-field polynomial overflowed; "
                               b"drives too strong for a finite steady state\n")

    def test_steady_undriven_is_the_zero_state(self):
        proc = self.run_module("steady", *self.steady_argv(DRIVE_EDGES[2]), "--format", "json")
        assert (proc.returncode, proc.stderr) == (0, b"")
        record = json.loads(proc.stdout)
        assert record["beta_re"] == record["alpha1_re"] == 0.0
        assert record["real_roots"] == 1

    # g2's terms underflow: the polynomial's lead overflows the companion row and
    # the coefficient under it is -0.0 (once a ZeroDivisionError traceback, exit 1)
    UNDERFLOWED_LEAD = {"g1_khz": 1.0, "g2_khz": 1e-155, "E1_mhz": 1e4, "E2_mhz": 0.0,
                        "delta1_bare_over_omegam": 0.0, "delta2_bare_over_omegam": 0.0,
                        "Jac_mhz": 0.0}
    # undriven, with every coefficient of the polynomial underflowed (once exit 3,
    # "none of the 0 real roots")
    ALL_UNDERFLOW = {"kappa1_mhz": 1e-300, "kappa2_mhz": 1e-300, "g1_khz": 1.0, "g2_khz": 0.0,
                     "E1_mhz": 0.0, "E2_mhz": 0.0, "delta1_bare_over_omegam": 0.0,
                     "delta2_bare_over_omegam": 0.0, "Jac_mhz": 0.0}

    def test_steady_underflowed_lead_gives_the_g2_zero_amplitudes(self):
        runs = [self.run_module("steady", *self.steady_argv(cfg), "--format", "json")
                for cfg in (self.UNDERFLOWED_LEAD, {**self.UNDERFLOWED_LEAD, "g2_khz": 0.0})]
        assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, b"")] * 2
        got, ref = (json.loads(proc.stdout) for proc in runs)
        amplitudes = [key for key in ref if key.startswith(("alpha", "xi", "beta"))]
        assert len(amplitudes) == 8
        assert [got[key] for key in amplitudes] == [ref[key] for key in amplitudes]
        assert got["real_roots"] == ref["real_roots"] == 1

    def test_steady_all_underflow_undriven_is_the_zero_state(self):
        proc = self.run_module("steady", *self.steady_argv(self.ALL_UNDERFLOW), "--format", "json")
        assert (proc.returncode, proc.stderr) == (0, b"")
        record = json.loads(proc.stdout)
        assert record["beta_re"] == record["alpha1_re"] == record["xi_re"] == 0.0
        assert record["real_roots"] == 1

    def test_steady_formerly_nonconverging_reports_unstable(self):
        proc = self.run_module("steady", *self.steady_argv(DRIVE_EDGES[0]))
        assert (proc.returncode, proc.stderr) == (0, b"")
        lines = proc.stdout.decode().splitlines()
        assert lines[-2:] == ["real_roots=1", "stable=False"]

    def test_steady_verdict_is_taken_where_g1_is_real(self):
        # golden drive config 10: with the J_ac phase left in the drives' frame
        # the linearized point read stable
        proc = self.run_module("steady", *self.steady_argv(drive_configs()[10]))
        assert (proc.returncode, proc.stderr) == (0, b"")
        lines = proc.stdout.decode().splitlines()
        assert lines[-2:] == ["real_roots=3", "stable=False"]

    def test_exit_code_reaches_the_shell(self):
        proc = self.run_module("sweep", "--axis", "phi=0:1:2", "--measures", "EN_c2a,EN_c2a")
        assert proc.returncode == 2
        assert b"duplicate measure" in proc.stderr and proc.stdout == b""

    NON_FINITE_COVARIANCE = b"numeric failure: NumericDomainError: non-finite covariance"
    # finite A and D, but A V overflows in the residual
    RESIDUAL_OVERFLOW = ("T_kelvin=1e230", "delta1_over_omegam=1e236")

    @pytest.mark.parametrize("override,code,kind", [
        pytest.param(("T_kelvin=1e300",), 3, NON_FINITE_COVARIANCE,
                     id="T_kelvin=1e300-3-numeric failure: NumericDomainError: "
                        "non-finite covariance"),
        pytest.param(("G1_mhz=2.4e307",), 2, b"config error: coupling g1_eff = ",
                     id="G1_mhz=2.4e307-2-config error: coupling g1_eff = "),
        pytest.param(RESIDUAL_OVERFLOW, 3, NON_FINITE_COVARIANCE,
                     id="T_kelvin=1e230,delta1_over_omegam=1e236-3-numeric failure: "
                        "NumericDomainError: non-finite covariance")])
    def test_overflow_is_one_typed_line(self, override, code, kind):
        # before, numpy's overflow warning escaped under -W error as a traceback
        proc = self.run_module("measure", *self.set_argv(override))
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert proc.stderr.startswith(b"optocorr: " + kind)
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")

    def test_matrix_with_residual_overflow_prints_without_warning(self):
        # the solve's residual overflows to inf or NaN; the matrices still print
        proc = self.run_module("matrix", "--with-cm", *self.set_argv(self.RESIDUAL_OVERFLOW))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(b"# A\n")

    @pytest.mark.parametrize("case", sorted(CRASHING_CONFIGS))
    def test_config_that_crashed_is_one_typed_line(self, tmp_path, case):
        name, text, message = CRASHING_CONFIGS[case]
        path = write_config(tmp_path, name, text)
        proc = self.run_module("measure", "--config", path)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"optocorr: config error: "
                                      + message.format(path=path).encode())
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")
        # the path is the caller's; what the message adds to it, the echoed value
        # included, is bounded
        assert len(proc.stderr.replace(path.encode(), b"")) < 200

    def test_stability_only_sweep_overflowing_temperature_is_one_typed_line(self):
        # a fig2 point never builds D, yet still computes the thermal occupation
        proc = self.run_module("figure", "fig2", "--grid", "3x3", "--set", "T_kelvin=1.7e308")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (b"optocorr: config error: temperature 1.7e+308 K is too high "
                               b"for a finite thermal occupation\n")

    @pytest.mark.parametrize("case", sorted(FILE_AND_SET))
    def test_file_value_gives_the_bytes_set_gives(self, tmp_path, case):
        name, text, item = FILE_AND_SET[case]
        argv = ("measure", "--format", "json")
        from_file = self.run_module(*argv, "--config", write_config(tmp_path, name, text))
        from_set = self.run_module(*argv, "--set", item)
        assert (from_file.returncode, from_file.stderr) == (0, b"")
        assert from_file.stdout == from_set.stdout
